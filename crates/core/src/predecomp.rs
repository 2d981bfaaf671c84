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

use ariadne_mem::{LruList, PageId};

/// The FIFO buffer of speculatively decompressed pages.
///
/// ```
/// use ariadne_core::PreDecompBuffer;
/// use ariadne_mem::{AppId, PageId, Pfn};
///
/// let mut buffer = PreDecompBuffer::new(2);
/// let a = PageId::new(AppId::new(1), Pfn::new(0));
/// let b = PageId::new(AppId::new(1), Pfn::new(1));
/// buffer.insert(a);
/// buffer.insert(b);
/// assert!(buffer.take(a)); // hit
/// assert!(!buffer.take(a)); // already consumed
/// ```
#[derive(Debug, Clone, Default)]
pub struct PreDecompBuffer {
    capacity: usize,
    /// Insertion-ordered set: the LRU end is the oldest (FIFO victim) page.
    /// Pages are only ever touched on insert, so recency order *is* FIFO
    /// order, and membership tests are O(1) instead of a linear scan.
    pages: LruList<PageId>,
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
        self.pages.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether `page` is waiting in the buffer.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.pages.contains(&page)
    }

    /// Insert a speculatively decompressed page. If the buffer is full the
    /// oldest page is evicted (and returned so the caller can re-compress
    /// it); evicted pages count as wasted pre-decompressions.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        if self.pages.contains(&page) {
            return None;
        }
        let evicted = if self.pages.len() >= self.capacity {
            let old = self.pages.pop_lru();
            if old.is_some() {
                self.wasted += 1;
            }
            old
        } else {
            None
        };
        self.pages.touch(page);
        evicted
    }

    /// Consume `page` from the buffer if it is present. Returns `true` on a
    /// hit.
    pub fn take(&mut self, page: PageId) -> bool {
        if self.pages.remove(&page) {
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Drain every page still waiting (counted as wasted), e.g. when the
    /// owning application is terminated. Pages come out oldest first.
    pub fn clear(&mut self) -> Vec<PageId> {
        self.wasted += self.pages.len();
        self.pages.drain_lru(usize::MAX)
    }

    /// Drop every buffered page belonging to `app` (its process was killed).
    /// The dropped pages count as wasted pre-decompressions — the CPU spent
    /// decompressing them is never recouped. Pages come out oldest first.
    pub fn release_app(&mut self, app: ariadne_mem::AppId) -> Vec<PageId> {
        let doomed: Vec<PageId> = self
            .pages
            .iter_lru()
            .filter(|p| p.app() == app)
            .copied()
            .collect();
        for page in &doomed {
            self.pages.remove(page);
        }
        self.wasted += doomed.len();
        doomed
    }

    /// Number of buffer hits so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of pre-decompressed pages that were evicted or cleared without
    /// ever being used.
    #[must_use]
    pub fn wasted(&self) -> usize {
        self.wasted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::{AppId, Pfn};

    fn page(pfn: u64) -> PageId {
        PageId::new(AppId::new(1), Pfn::new(pfn))
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut buffer = PreDecompBuffer::new(2);
        assert!(buffer.insert(page(0)).is_none());
        assert!(buffer.insert(page(1)).is_none());
        let evicted = buffer.insert(page(2));
        assert_eq!(evicted, Some(page(0)));
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.wasted(), 1);
        assert!(buffer.contains(page(1)) && buffer.contains(page(2)));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut buffer = PreDecompBuffer::new(4);
        buffer.insert(page(0));
        buffer.insert(page(1));
        assert!(buffer.take(page(1)));
        assert!(!buffer.take(page(9)));
        assert_eq!(buffer.hits(), 1);
    }

    #[test]
    fn duplicate_inserts_are_ignored() {
        let mut buffer = PreDecompBuffer::new(4);
        buffer.insert(page(0));
        buffer.insert(page(0));
        assert_eq!(buffer.len(), 1);
    }

    #[test]
    fn clear_counts_remaining_pages_as_wasted() {
        let mut buffer = PreDecompBuffer::new(4);
        buffer.insert(page(0));
        buffer.insert(page(1));
        let drained = buffer.clear();
        assert_eq!(drained.len(), 2);
        assert_eq!(buffer.wasted(), 2);
        assert!(buffer.is_empty());
    }

    #[test]
    fn capacity_of_zero_is_bumped_to_one() {
        let buffer = PreDecompBuffer::new(0);
        assert_eq!(buffer.capacity(), 1);
    }
}
