//! PreDecomp: the proactive-decompression buffer (§4.4).
//!
//! When Ariadne decompresses a faulted page it also speculatively
//! decompresses the zpool entry at the next sector — the data that was
//! compressed right after the faulted data and is therefore likely to be
//! accessed next (Insight 3). The speculatively decompressed pages wait in a
//! small FIFO buffer; an access that hits the buffer skips the whole
//! fault-plus-decompression path. Pages evicted from the buffer without ever
//! being used were wasted work and are counted so the overhead analysis
//! (§6.4) can be reproduced.

use ariadne_mem::{AppId, PageId, ZpoolEntry};
use std::collections::VecDeque;

/// Capacity of Ariadne's pre-decompression buffer, in pages. The paper
/// pre-decompresses one page at a time; a small buffer lets a few
/// prefetched pages wait for their access.
pub const PREDECOMP_BUFFER_PAGES: usize = 8;

/// The FIFO buffer of speculatively decompressed pages.
///
/// Each page keeps the single-page zpool entry it was decompressed from, so
/// a page evicted unused goes back into the zpool at the size it had.
///
/// ```
/// use ariadne_compress::ChunkSize;
/// use ariadne_core::PreDecompBuffer;
/// use ariadne_mem::{AppId, Hotness, PageId, Pfn, ZpoolEntry, ZpoolSector};
///
/// let page = |pfn| PageId::new(AppId::new(1), Pfn::new(pfn));
/// let entry = |pfn| ZpoolEntry {
///     pages: vec![page(pfn)],
///     sector: ZpoolSector::new(pfn),
///     original_bytes: 4096,
///     compressed_bytes: 1024,
///     chunk_size: ChunkSize::k4(),
///     hotness: Hotness::Hot,
/// };
/// let mut buffer = PreDecompBuffer::new(1);
/// assert!(buffer.insert(entry(0)).is_none());
/// // Full: the oldest page leaves unused, to be compressed back.
/// assert_eq!(buffer.insert(entry(1)), Some(entry(0)));
/// assert!(buffer.take(page(1))); // hit
/// assert!(!buffer.take(page(1))); // already consumed
/// ```
#[derive(Debug, Clone, Default)]
pub struct PreDecompBuffer {
    capacity: usize,
    /// The buffered single-page entries, oldest (the FIFO victim) first.
    /// The buffer holds a handful of pages, so lookups scan it.
    entries: VecDeque<ZpoolEntry>,
    hits: usize,
    wasted: usize,
}

impl PreDecompBuffer {
    /// Create a buffer holding up to `capacity` pages (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PreDecompBuffer {
            capacity: capacity.max(1),
            ..PreDecompBuffer::default()
        }
    }

    /// Capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently waiting in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, page: PageId) -> Option<usize> {
        self.entries.iter().position(|entry| entry.pages[0] == page)
    }

    /// Whether `page` is waiting in the buffer.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.position(page).is_some()
    }

    /// Insert the page of a speculatively decompressed single-page entry. A
    /// page already waiting keeps its place and takes the new entry. If the
    /// buffer is full the oldest entry is evicted (and returned so the
    /// caller can re-compress it); evicted pages count as wasted
    /// pre-decompressions.
    pub fn insert(&mut self, entry: ZpoolEntry) -> Option<ZpoolEntry> {
        if let Some(index) = self.position(entry.pages[0]) {
            self.entries[index] = entry;
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.wasted += 1;
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(entry);
        evicted
    }

    /// Consume `page` from the buffer if it is present. Returns `true` on a
    /// hit.
    pub fn take(&mut self, page: PageId) -> bool {
        let Some(index) = self.position(page) else {
            return false;
        };
        self.entries.remove(index);
        self.hits += 1;
        true
    }

    /// Drop every buffered page belonging to `app` (its process was killed).
    /// The dropped pages count as wasted pre-decompressions — the CPU spent
    /// decompressing them is never recouped. Returns how many were dropped.
    pub fn release_app(&mut self, app: AppId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|entry| entry.pages[0].app() != app);
        let dropped = before - self.entries.len();
        self.wasted += dropped;
        dropped
    }

    /// Number of buffer hits so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of pre-decompressed pages that were evicted or released
    /// without ever being used.
    #[must_use]
    pub fn wasted(&self) -> usize {
        self.wasted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_compress::ChunkSize;
    use ariadne_mem::{Hotness, Pfn, ZpoolSector};

    fn page(pfn: u64) -> PageId {
        PageId::new(AppId::new(1), Pfn::new(pfn))
    }

    fn entry(page: PageId) -> ZpoolEntry {
        ZpoolEntry {
            pages: vec![page],
            sector: ZpoolSector::new(page.pfn().value()),
            original_bytes: 4096,
            compressed_bytes: 1024,
            chunk_size: ChunkSize::k1(),
            hotness: Hotness::Hot,
        }
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut buffer = PreDecompBuffer::new(2);
        assert!(buffer.insert(entry(page(0))).is_none());
        assert!(buffer.insert(entry(page(1))).is_none());
        let evicted = buffer.insert(entry(page(2)));
        assert_eq!(evicted, Some(entry(page(0))));
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.wasted(), 1);
        assert!(buffer.contains(page(1)) && buffer.contains(page(2)));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut buffer = PreDecompBuffer::new(4);
        buffer.insert(entry(page(0)));
        buffer.insert(entry(page(1)));
        assert!(buffer.take(page(1)));
        assert!(!buffer.take(page(9)));
        assert_eq!(buffer.hits(), 1);
    }

    #[test]
    fn duplicate_inserts_are_ignored() {
        let mut buffer = PreDecompBuffer::new(2);
        buffer.insert(entry(page(0)));
        buffer.insert(entry(page(1)));
        assert!(buffer.insert(entry(page(0))).is_none());
        assert_eq!(buffer.len(), 2);
        // The page kept its place: it is still the oldest.
        assert_eq!(buffer.insert(entry(page(2))), Some(entry(page(0))));
    }

    #[test]
    fn release_app_counts_dropped_pages_as_wasted() {
        let mut buffer = PreDecompBuffer::new(4);
        let survivor = PageId::new(AppId::new(2), Pfn::new(0));
        buffer.insert(entry(page(0)));
        buffer.insert(entry(survivor));
        buffer.insert(entry(page(1)));
        assert_eq!(buffer.release_app(AppId::new(1)), 2);
        assert_eq!(buffer.wasted(), 2);
        assert_eq!(buffer.len(), 1);
        assert!(buffer.contains(survivor));
    }

    #[test]
    fn capacity_of_zero_is_bumped_to_one() {
        let buffer = PreDecompBuffer::new(0);
        assert_eq!(buffer.capacity(), 1);
    }
}
