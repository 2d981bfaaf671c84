//! The main-memory (DRAM) model with reclaim watermarks.
//!
//! [`MainMemory`] tracks which pages are resident uncompressed in DRAM and
//! how much of the configured capacity they (plus any reserved regions such
//! as the zpool) occupy. Like the kernel, it exposes *watermarks*: when free
//! memory drops below the **low** watermark the background reclaimer
//! (kswapd) starts compressing/swapping pages out, and it keeps going until
//! free memory rises above the **high** watermark.

use crate::error::MemError;
use crate::page::{PageId, PAGE_SIZE};
use crate::slab::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

/// Reclaim watermarks, expressed in bytes of *free* memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Watermarks {
    /// Background reclaim starts when free memory drops below this.
    pub low: usize,
    /// Background reclaim stops when free memory rises above this.
    pub high: usize,
}

impl Watermarks {
    /// Android-like defaults: low = 6.25 % of capacity, high = 10 %.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn android_default(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Watermarks {
            low: capacity / 16,
            high: capacity / 10,
        }
    }

    /// Build custom watermarks.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] if `low > high`.
    pub fn new(low: usize, high: usize) -> Result<Self, MemError> {
        if low > high {
            return Err(MemError::InvalidParameter {
                parameter: "watermarks",
                detail: format!("low ({low}) must not exceed high ({high})"),
            });
        }
        Ok(Watermarks { low, high })
    }
}

/// The uncompressed-page region of main memory.
///
/// ```
/// use ariadne_mem::{AppId, MainMemory, PageId, Pfn, Watermarks};
///
/// let capacity = 16 * 1024 * 1024;
/// let mut dram = MainMemory::new(capacity, Watermarks::android_default(capacity));
/// for i in 0..100 {
///     dram.insert(PageId::new(AppId::new(1), Pfn::new(i))).unwrap();
/// }
/// assert_eq!(dram.used_bytes(), 100 * 4096);
/// assert_eq!(dram.background_reclaim_pages(), None);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    capacity: usize,
    reserved: usize,
    /// Resident pages, partitioned per app so a kill evicts in time
    /// proportional to the victim's own footprint instead of scanning every
    /// resident page on the device.
    resident: FxHashMap<crate::page::AppId, FxHashSet<PageId>>,
    resident_count: usize,
    watermarks: Watermarks,
    peak_used: usize,
}

impl MainMemory {
    /// Create a DRAM model with `capacity` bytes and the given watermarks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, watermarks: Watermarks) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        MainMemory {
            capacity,
            reserved: 0,
            resident: FxHashMap::default(),
            resident_count: 0,
            watermarks,
            peak_used: 0,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured watermarks.
    #[must_use]
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Bytes currently used by resident pages plus reservations.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.resident_count * PAGE_SIZE + self.reserved
    }

    /// Peak value of [`MainMemory::used_bytes`] observed so far.
    #[must_use]
    pub fn peak_used_bytes(&self) -> usize {
        self.peak_used
    }

    /// Bytes currently free.
    #[must_use]
    pub fn free_bytes(&self) -> usize {
        self.capacity.saturating_sub(self.used_bytes())
    }

    /// Number of resident uncompressed pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident_count
    }

    /// Adjust the amount of capacity reserved for non-page uses (the zpool
    /// and the pre-decompression buffer reserve space this way).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] if the reservation would exceed
    /// total capacity.
    pub fn set_reserved(&mut self, bytes: usize) -> Result<(), MemError> {
        if bytes > self.capacity {
            return Err(MemError::InvalidParameter {
                parameter: "reserved",
                detail: format!("{bytes} exceeds capacity {}", self.capacity),
            });
        }
        self.reserved = bytes;
        self.note_usage();
        Ok(())
    }

    /// Whether `page` is resident.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.resident
            .get(&page.app())
            .is_some_and(|pages| pages.contains(&page))
    }

    /// Make `page` resident.
    ///
    /// Inserting may push usage past the watermarks — the caller (the swap
    /// scheme) is responsible for reclaiming afterwards, exactly as the
    /// kernel allows allocations to dip into the watermark gap and wakes
    /// kswapd asynchronously. Inserting beyond *capacity* is an error.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ZpoolFull`]-style capacity errors if there is no
    /// room at all, or succeeds trivially if the page is already resident.
    pub fn insert(&mut self, page: PageId) -> Result<(), MemError> {
        if self.contains(page) {
            return Ok(());
        }
        if self.free_bytes() < PAGE_SIZE {
            return Err(MemError::ZpoolFull {
                requested: PAGE_SIZE,
                available: self.free_bytes(),
            });
        }
        self.resident.entry(page.app()).or_default().insert(page);
        self.resident_count += 1;
        self.note_usage();
        Ok(())
    }

    /// Remove `page` from the resident set. Returns `true` if it was present.
    pub fn remove(&mut self, page: PageId) -> bool {
        let Some(pages) = self.resident.get_mut(&page.app()) else {
            return false;
        };
        let removed = pages.remove(&page);
        if removed {
            self.resident_count -= 1;
            if pages.is_empty() {
                self.resident.remove(&page.app());
            }
        }
        removed
    }

    /// Remove every resident page belonging to `app`, returning them.
    pub fn evict_app(&mut self, app: crate::page::AppId) -> Vec<PageId> {
        let Some(pages) = self.resident.remove(&app) else {
            return Vec::new();
        };
        self.resident_count -= pages.len();
        pages.into_iter().collect()
    }

    /// The pages a background reclaim pass (kswapd) should free: `None`
    /// while free memory is at or above the low watermark, otherwise the
    /// pages that restore the high watermark (at least one).
    #[must_use]
    pub fn background_reclaim_pages(&self) -> Option<usize> {
        let free = self.free_bytes();
        if free >= self.watermarks.low {
            return None;
        }
        let missing = self.watermarks.high.saturating_sub(free);
        Some(missing.div_ceil(PAGE_SIZE).max(1))
    }

    fn note_usage(&mut self) {
        self.peak_used = self.peak_used.max(self.used_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{AppId, Pfn};

    fn page(app: u32, pfn: u64) -> PageId {
        PageId::new(AppId::new(app), Pfn::new(pfn))
    }

    #[test]
    fn insert_and_remove_track_usage() {
        let mut dram = MainMemory::new(1 << 20, Watermarks::android_default(1 << 20));
        assert!(dram.insert(page(1, 0)).is_ok());
        assert!(dram.insert(page(1, 1)).is_ok());
        assert_eq!(dram.used_bytes(), 2 * PAGE_SIZE);
        assert!(dram.remove(page(1, 0)));
        assert!(!dram.remove(page(1, 0)));
        assert_eq!(dram.resident_pages(), 1);
    }

    #[test]
    fn double_insert_is_idempotent() {
        let mut dram = MainMemory::new(1 << 20, Watermarks::android_default(1 << 20));
        dram.insert(page(1, 7)).unwrap();
        dram.insert(page(1, 7)).unwrap();
        assert_eq!(dram.used_bytes(), PAGE_SIZE);
    }

    #[test]
    fn capacity_is_enforced() {
        let capacity = 4 * PAGE_SIZE;
        let mut dram = MainMemory::new(capacity, Watermarks::new(0, 0).unwrap());
        for i in 0..4 {
            dram.insert(page(1, i)).unwrap();
        }
        assert!(dram.insert(page(1, 99)).is_err());
        assert_eq!(dram.free_bytes(), 0);
    }

    #[test]
    fn watermarks_flag_memory_pressure() {
        let capacity = 100 * PAGE_SIZE;
        let marks = Watermarks::new(10 * PAGE_SIZE, 20 * PAGE_SIZE).unwrap();
        let mut dram = MainMemory::new(capacity, marks);
        for i in 0..85 {
            dram.insert(page(1, i)).unwrap();
        }
        assert_eq!(dram.background_reclaim_pages(), None, "15 pages free");
        for i in 85..95 {
            dram.insert(page(1, i)).unwrap();
        }
        assert_eq!(dram.background_reclaim_pages(), Some(15));
    }

    /// `capacity_pages` of DRAM with the low watermark at 1/8 and the high
    /// at 1/4 of it, `used_pages` of them resident.
    fn dram_with_used(capacity_pages: usize, used_pages: usize) -> MainMemory {
        let capacity = capacity_pages * PAGE_SIZE;
        let marks = Watermarks::new(capacity / 8, capacity / 4).unwrap();
        let mut dram = MainMemory::new(capacity, marks);
        for i in 0..used_pages {
            dram.insert(page(1, i as u64)).unwrap();
        }
        dram
    }

    #[test]
    fn no_background_reclaim_when_memory_is_plentiful() {
        assert_eq!(dram_with_used(100, 10).background_reclaim_pages(), None);
    }

    #[test]
    fn background_reclaim_targets_the_high_watermark() {
        // Low 12.5 pages, high 25 pages: 5 free pages need 20 more.
        assert_eq!(dram_with_used(100, 95).background_reclaim_pages(), Some(20));
    }

    #[test]
    fn reservations_consume_capacity() {
        let capacity = 100 * PAGE_SIZE;
        let mut dram = MainMemory::new(capacity, Watermarks::android_default(capacity));
        dram.set_reserved(50 * PAGE_SIZE).unwrap();
        assert_eq!(dram.free_bytes(), 50 * PAGE_SIZE);
        assert!(dram.set_reserved(101 * PAGE_SIZE).is_err());
    }

    #[test]
    fn evict_app_removes_only_that_app() {
        let mut dram = MainMemory::new(1 << 22, Watermarks::android_default(1 << 22));
        for i in 0..10 {
            dram.insert(page(1, i)).unwrap();
            dram.insert(page(2, i)).unwrap();
        }
        let evicted = dram.evict_app(AppId::new(1));
        assert_eq!(evicted.len(), 10);
        assert_eq!(dram.resident_pages(), 10);
        assert!(evicted.iter().all(|p| p.app() == AppId::new(1)));
    }

    #[test]
    fn peak_usage_is_tracked() {
        let mut dram = MainMemory::new(1 << 20, Watermarks::android_default(1 << 20));
        for i in 0..20 {
            dram.insert(page(1, i)).unwrap();
        }
        for i in 0..20 {
            dram.remove(page(1, i));
        }
        assert_eq!(dram.peak_used_bytes(), 20 * PAGE_SIZE);
        assert_eq!(dram.used_bytes(), 0);
    }

    #[test]
    fn invalid_watermarks_are_rejected() {
        assert!(Watermarks::new(10, 5).is_err());
        assert!(Watermarks::new(5, 10).is_ok());
    }
}
