//! The zpool: the DRAM region ZRAM stores compressed data in.
//!
//! Compressed entries are written to sector-numbered 4 KiB blocks, allocated
//! sequentially (like the zram block device the paper traces, whose traces
//! record a "ZRAM sector" per page). Keeping the sector numbers around is
//! what lets the workspace study *Insight 3*: pages that are compressed
//! together get adjacent sectors, so swap-in streams that touch adjacent
//! sectors exhibit the locality Table 3 reports and PreDecomp exploits.
//!
//! Entries live in a generation-checked [`Slab`]: a [`ZpoolHandle`] packs the
//! slot index and its generation, so a handle held across a remove/reuse
//! cycle reports [`MemError::StaleHandle`] instead of aliasing the new
//! occupant.
//!
//! Sector order needs no search tree: [`Zpool::store`] hands out sectors in
//! increasing order and never reuses them, so store order is sector order,
//! and an entry never changes after it is stored. Hence:
//!
//! * cold entries (writeback's preferred victims) and hot single-page
//!   entries (PreDecomp's refill candidates) each sit on a store-ordered
//!   [`Chain`] — no entry is both, so one link channel threads the two;
//! * every entry is appended to a sector log that stays sorted. Removing an
//!   entry leaves its handle in the log, where it reads as stale and is
//!   skipped; `live_from` marks the oldest live entry, a successor query is
//!   a binary search, and a store that finds the log at 2 × live + 64 slots
//!   drops the stale ones first, so the log stays O(live);
//! * per-app membership is an intrusive chain through the slab slots, so
//!   kill storms stay linear in the victim's own entries.

use crate::error::MemError;
use crate::page::{Hotness, PageId};
use crate::slab::{Chain, FxHashMap, Slab, SlabKey};
use ariadne_compress::ChunkSize;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of one zpool block (and of one zram sector) in bytes.
pub const ZPOOL_BLOCK_SIZE: usize = 4096;

/// Link channel of the per-app entry chain.
const APP_CHANNEL: usize = 0;

/// Link channel of the cold and hot single-page chains.
const ORDER_CHANNEL: usize = 1;

/// Index into [`Zpool::order`] of the cold chain.
const COLD: usize = 0;

/// Index into [`Zpool::order`] of the hot single-page chain.
const HOT_SINGLE: usize = 1;

/// A store compacts the sector log once it holds `2 × live + LOG_SLACK`
/// slots; the slack keeps a small pool from compacting on every store.
const LOG_SLACK: usize = 64;

/// Handle to an entry stored in the zpool.
///
/// The raw value packs the entry's slab slot and generation; handles are
/// opaque tickets (sector numbers, not handles, are what the simulation
/// observes), and a stale handle is detected rather than reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ZpoolHandle(u64);

impl ZpoolHandle {
    /// The raw handle value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    fn key(self) -> SlabKey {
        SlabKey::unpack(self.0)
    }

    fn from_key(key: SlabKey) -> Self {
        ZpoolHandle(key.pack())
    }
}

impl fmt::Display for ZpoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zh:{}", self.0)
    }
}

/// A zram sector number: the position of an entry's first block in the pool.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ZpoolSector(u64);

impl ZpoolSector {
    /// Create a sector number.
    #[must_use]
    pub fn new(value: u64) -> Self {
        ZpoolSector(value)
    }

    /// The raw sector number.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Absolute distance in sectors between two entries; small distances mean
    /// the entries were compressed around the same time.
    #[must_use]
    pub fn distance(self, other: ZpoolSector) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for ZpoolSector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sector:{}", self.0)
    }
}

/// Metadata for one compressed entry in the zpool.
///
/// An entry covers one or more pages: baseline ZRAM always stores exactly one
/// page per entry, while Ariadne's AdaptiveComp stores a whole compression
/// chunk (possibly many pages of cold data) per entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZpoolEntry {
    /// The pages whose data this entry holds, in address order.
    pub pages: Vec<PageId>,
    /// Sector number of the entry (allocation order).
    pub sector: ZpoolSector,
    /// Bytes of original (uncompressed) data.
    pub original_bytes: usize,
    /// Bytes the compressed image occupies in the pool.
    pub compressed_bytes: usize,
    /// Chunk size the data was compressed with.
    pub chunk_size: ChunkSize,
    /// Hotness level the data had when it was compressed (used for
    /// writeback-victim selection and reporting).
    pub hotness: Hotness,
}

impl ZpoolEntry {
    /// Number of 4 KiB zpool blocks the entry occupies.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.compressed_bytes.div_ceil(ZPOOL_BLOCK_SIZE).max(1)
    }

    /// Whether the entry qualifies for a pre-decompression refill: labelled
    /// hot and covering a single page (the buffer holds individual pages).
    #[must_use]
    pub fn is_hot_single(&self) -> bool {
        self.hotness == Hotness::Hot && self.pages.len() == 1
    }
}

/// Aggregate statistics about zpool usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZpoolStats {
    /// Number of entries currently stored.
    pub entries: usize,
    /// Total original bytes of the stored entries.
    pub original_bytes: usize,
    /// Total compressed bytes of the stored entries.
    pub compressed_bytes: usize,
    /// Number of store operations performed over the pool's lifetime.
    pub stores: usize,
    /// Number of remove (load/invalidate) operations over the lifetime.
    pub removals: usize,
}

/// The compressed-page pool.
///
/// ```
/// use ariadne_mem::{AppId, Hotness, PageId, Pfn, Zpool};
/// use ariadne_compress::ChunkSize;
///
/// let mut pool = Zpool::new(1024 * 1024);
/// let page = PageId::new(AppId::new(1), Pfn::new(3));
/// let handle = pool
///     .store(vec![page], 4096, 1200, ChunkSize::k4(), Hotness::Cold)
///     .unwrap();
/// assert_eq!(pool.entry(handle).unwrap().pages, vec![page]);
/// assert_eq!(pool.handle_for(page), Some(handle));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Zpool {
    capacity: usize,
    used: usize,
    next_sector: u64,
    entries: Slab<ZpoolEntry>,
    page_index: FxHashMap<PageId, ZpoolHandle>,
    /// Per-application entry chain, threaded through the slab slots. Keeps
    /// `release_app` (kill storms) linear in the victim's own entries, in a
    /// deterministic order: entries are only ever appended, so chain order is
    /// store order.
    app_chains: FxHashMap<crate::page::AppId, Chain>,
    /// The cold chain ([`COLD`]: writeback's preferred victims) and the hot
    /// single-page chain ([`HOT_SINGLE`]: PreDecomp refill candidates), both
    /// in store (= sector) order on [`ORDER_CHANNEL`].
    order: [Chain; 2],
    /// Every stored entry as `(sector, handle)`, in store (= sector) order.
    /// A removed entry's handle stays until the next compaction and reads
    /// as stale.
    log: Vec<(u64, ZpoolHandle)>,
    /// Index of the first live entry of `log` (`log.len()` when empty).
    live_from: usize,
    /// Running totals so [`Zpool::stats`] is O(1) instead of a full scan.
    original_total: usize,
    compressed_total: usize,
    stores: usize,
    removals: usize,
}

impl Zpool {
    /// Create a zpool with `capacity` bytes (the paper's parameter `S`,
    /// 3 GB on the evaluated device).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Zpool {
            capacity,
            ..Zpool::default()
        }
    }

    /// Configured capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently occupied by compressed entries (block-granular).
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Bytes still free.
    #[must_use]
    pub fn free_bytes(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether storing `compressed_bytes` more would exceed capacity.
    #[must_use]
    pub fn would_overflow(&self, compressed_bytes: usize) -> bool {
        let blocks = compressed_bytes.div_ceil(ZPOOL_BLOCK_SIZE).max(1);
        self.used + blocks * ZPOOL_BLOCK_SIZE > self.capacity
    }

    /// Number of entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Store a compressed entry covering `pages`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ZpoolFull`] if the entry does not fit, and
    /// [`MemError::InvalidParameter`] if `pages` is empty or one of the pages
    /// is already stored in the pool.
    pub fn store(
        &mut self,
        pages: Vec<PageId>,
        original_bytes: usize,
        compressed_bytes: usize,
        chunk_size: ChunkSize,
        hotness: Hotness,
    ) -> Result<ZpoolHandle, MemError> {
        if pages.is_empty() {
            return Err(MemError::InvalidParameter {
                parameter: "pages",
                detail: "an entry must cover at least one page".to_string(),
            });
        }
        if let Some(dup) = pages.iter().find(|p| self.page_index.contains_key(p)) {
            return Err(MemError::InvalidParameter {
                parameter: "pages",
                detail: format!("page {dup} is already stored in the zpool"),
            });
        }
        // Compression groups never mix applications (AdaptiveComp groups
        // per-app victim lists), so one per-app chain per entry suffices.
        let app = pages[0].app();
        debug_assert!(
            pages.iter().all(|p| p.app() == app),
            "zpool entry mixes applications"
        );
        let entry = ZpoolEntry {
            pages,
            sector: ZpoolSector::new(self.next_sector),
            original_bytes,
            compressed_bytes,
            chunk_size,
            hotness,
        };
        let bytes = entry.blocks() * ZPOOL_BLOCK_SIZE;
        if self.used + bytes > self.capacity {
            return Err(MemError::ZpoolFull {
                requested: bytes,
                available: self.free_bytes(),
            });
        }
        self.next_sector += entry.blocks() as u64;
        self.used += bytes;
        self.original_total += entry.original_bytes;
        self.compressed_total += entry.compressed_bytes;
        let sector = entry.sector.value();
        let order = order_of(&entry);
        // Drop the stale log slots once they outnumber the live ones: the log
        // stays O(live), and a stale handle leaves it long before its slot's
        // generation could wrap round to a live one.
        if self.log.len() >= 2 * self.entries.len() + LOG_SLACK {
            let entries = &self.entries;
            self.log.retain(|(_, h)| entries.contains(h.key()));
            self.live_from = 0;
        }
        let key = self.entries.insert(entry);
        let handle = ZpoolHandle::from_key(key);
        for page in &self.entries.get(key).expect("just inserted").pages {
            self.page_index.insert(*page, handle);
        }
        self.app_chains.entry(app).or_default().push_back(
            &mut self.entries,
            APP_CHANNEL,
            key.index(),
        );
        if let Some(order) = order {
            self.order[order].push_back(&mut self.entries, ORDER_CHANNEL, key.index());
        }
        self.log.push((sector, handle));
        self.stores += 1;
        Ok(handle)
    }

    /// Look up the entry behind `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::StaleHandle`] if the entry was already removed.
    pub fn entry(&self, handle: ZpoolHandle) -> Result<&ZpoolEntry, MemError> {
        self.entries.get(handle.key()).ok_or(MemError::StaleHandle)
    }

    /// The handle of the entry holding `page`, if any.
    #[must_use]
    pub fn handle_for(&self, page: PageId) -> Option<ZpoolHandle> {
        self.page_index.get(&page).copied()
    }

    /// Whether `page` is stored (as part of any entry) in the pool.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.page_index.contains_key(&page)
    }

    /// Remove the entry behind `handle`, returning its metadata.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::StaleHandle`] if the entry was already removed.
    pub fn remove(&mut self, handle: ZpoolHandle) -> Result<ZpoolEntry, MemError> {
        let key = handle.key();
        let app = self.entry(handle)?.pages[0].app();
        let chain = self.app_chains.get_mut(&app).expect("app chain exists");
        chain.unlink(&mut self.entries, APP_CHANNEL, key.index());
        if chain.is_empty() {
            self.app_chains.remove(&app);
        }
        let entry = self.take(key);
        self.skip_stale_log_head();
        Ok(entry)
    }

    /// Free the live entry at `key`, which the caller has unlinked from its
    /// app chain: unlink it from its order chain, drop its page index and
    /// running totals. Its log slot turns stale.
    fn take(&mut self, key: SlabKey) -> ZpoolEntry {
        if let Some(order) = order_of(self.entries.get(key).expect("taken entry is live")) {
            self.order[order].unlink(&mut self.entries, ORDER_CHANNEL, key.index());
        }
        let entry = self.entries.remove(key).expect("taken entry is live");
        self.used -= entry.blocks() * ZPOOL_BLOCK_SIZE;
        self.original_total -= entry.original_bytes;
        self.compressed_total -= entry.compressed_bytes;
        for page in &entry.pages {
            self.page_index.remove(page);
        }
        self.removals += 1;
        entry
    }

    /// Move `live_from` past the log slots whose entries were removed.
    fn skip_stale_log_head(&mut self) {
        while self
            .log
            .get(self.live_from)
            .is_some_and(|(_, h)| !self.entries.contains(h.key()))
        {
            self.live_from += 1;
        }
    }

    /// Remove every entry belonging to `app` (its process was killed) and
    /// free the blocks. Returns `(entries removed, pages released)`.
    ///
    /// Served by the per-app chain: the cost is proportional to the victim's
    /// own entries, not to the pool size, so lmkd kill storms stay linear
    /// instead of going quadratic in zpool entries. Entries are released in
    /// chain (= store) order.
    pub fn release_app(&mut self, app: crate::page::AppId) -> (usize, usize) {
        let Some(mut chain) = self.app_chains.remove(&app) else {
            return (0, 0);
        };
        let (mut entries, mut pages) = (0usize, 0usize);
        while let Some(index) = chain.head() {
            chain.unlink(&mut self.entries, APP_CHANNEL, index);
            let entry = self.take(self.entries.key_at(index));
            debug_assert!(
                entry.pages.iter().all(|p| p.app() == app),
                "zpool entry mixes applications"
            );
            entries += 1;
            pages += entry.pages.len();
        }
        self.skip_stale_log_head();
        (entries, pages)
    }

    /// The entry whose sector immediately follows `sector`, if any.
    ///
    /// PreDecomp uses this to find the "next" compressed data after the one
    /// being faulted in, because adjacent sectors were compressed together
    /// and — per the paper's Insight 3 — are likely to be accessed together.
    /// `sector` need not be live: the faulted entry is removed first.
    #[must_use]
    pub fn next_by_sector(&self, sector: ZpoolSector) -> Option<(ZpoolHandle, &ZpoolEntry)> {
        let log = &self.log[self.live_from..];
        let after = log.partition_point(|(s, _)| *s <= sector.value());
        log[after..].iter().find_map(|&(_, h)| self.live(h))
    }

    /// The live entry with the lowest sector (the oldest data in the pool).
    #[must_use]
    pub fn oldest(&self) -> Option<(ZpoolHandle, &ZpoolEntry)> {
        let (_, handle) = *self.log.get(self.live_from)?;
        Some((handle, self.entry(handle).expect("log head is live")))
    }

    /// The cold entry with the lowest sector (writeback's preferred victim).
    #[must_use]
    pub fn oldest_cold(&self) -> Option<(ZpoolHandle, &ZpoolEntry)> {
        let index = self.order[COLD].head()?;
        Some((
            ZpoolHandle::from_key(self.entries.key_at(index)),
            self.entries.value_at(index),
        ))
    }

    /// Number of hot single-page entries (pre-decompression refill
    /// candidates), maintained incrementally so callers polling for deferred
    /// work do not scan the pool.
    #[must_use]
    pub fn hot_single_count(&self) -> usize {
        self.order[HOT_SINGLE].len()
    }

    /// Up to `limit` hot single-page entries, oldest (lowest sector) first.
    #[must_use]
    pub fn hot_single_oldest(&self, limit: usize) -> Vec<ZpoolHandle> {
        self.order[HOT_SINGLE]
            .indices(&self.entries, ORDER_CHANNEL)
            .take(limit)
            .map(|index| ZpoolHandle::from_key(self.entries.key_at(index)))
            .collect()
    }

    /// Iterate over all entries in ascending sector order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (ZpoolHandle, &ZpoolEntry)> {
        self.log[self.live_from..]
            .iter()
            .filter_map(|&(_, h)| self.live(h))
    }

    /// The entry behind a log handle, unless it was removed.
    fn live(&self, handle: ZpoolHandle) -> Option<(ZpoolHandle, &ZpoolEntry)> {
        self.entries.get(handle.key()).map(|entry| (handle, entry))
    }

    /// Aggregate usage statistics (O(1): served from running totals).
    #[must_use]
    pub fn stats(&self) -> ZpoolStats {
        ZpoolStats {
            entries: self.entries.len(),
            original_bytes: self.original_total,
            compressed_bytes: self.compressed_total,
            stores: self.stores,
            removals: self.removals,
        }
    }
}

/// Index into [`Zpool::order`] of the chain `entry` belongs on: cold
/// entries on [`COLD`], hot single-page entries on [`HOT_SINGLE`], others on
/// neither.
fn order_of(entry: &ZpoolEntry) -> Option<usize> {
    if entry.hotness == Hotness::Cold {
        Some(COLD)
    } else if entry.is_hot_single() {
        Some(HOT_SINGLE)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{AppId, Pfn};

    fn page(app: u32, pfn: u64) -> PageId {
        PageId::new(AppId::new(app), Pfn::new(pfn))
    }

    fn store_one(pool: &mut Zpool, app: u32, pfn: u64, compressed: usize) -> ZpoolHandle {
        pool.store(
            vec![page(app, pfn)],
            4096,
            compressed,
            ChunkSize::k4(),
            Hotness::Cold,
        )
        .unwrap()
    }

    #[test]
    fn store_and_lookup_roundtrip() {
        let mut pool = Zpool::new(1 << 20);
        let handle = store_one(&mut pool, 1, 5, 1000);
        let entry = pool.entry(handle).unwrap();
        assert_eq!(entry.pages, vec![page(1, 5)]);
        assert_eq!(entry.compressed_bytes, 1000);
        assert_eq!(pool.handle_for(page(1, 5)), Some(handle));
        assert!(pool.contains(page(1, 5)));
    }

    #[test]
    fn sectors_are_allocated_sequentially() {
        let mut pool = Zpool::new(1 << 20);
        let h1 = store_one(&mut pool, 1, 1, 1000);
        let h2 = store_one(&mut pool, 1, 2, 9000); // 3 blocks
        let h3 = store_one(&mut pool, 1, 3, 500);
        let s1 = pool.entry(h1).unwrap().sector.value();
        let s2 = pool.entry(h2).unwrap().sector.value();
        let s3 = pool.entry(h3).unwrap().sector.value();
        assert_eq!(s1, 0);
        assert_eq!(s2, 1);
        assert_eq!(s3, 4); // 9000 bytes occupies 3 sectors
    }

    #[test]
    fn usage_is_block_granular() {
        let mut pool = Zpool::new(1 << 20);
        store_one(&mut pool, 1, 1, 100);
        assert_eq!(pool.used_bytes(), ZPOOL_BLOCK_SIZE);
        store_one(&mut pool, 1, 2, 4097);
        assert_eq!(pool.used_bytes(), 3 * ZPOOL_BLOCK_SIZE);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut pool = Zpool::new(2 * ZPOOL_BLOCK_SIZE);
        store_one(&mut pool, 1, 1, 4096);
        store_one(&mut pool, 1, 2, 4096);
        let err = pool.store(vec![page(1, 3)], 4096, 4096, ChunkSize::k4(), Hotness::Cold);
        assert!(matches!(err, Err(MemError::ZpoolFull { .. })));
        assert!(pool.would_overflow(1));
    }

    #[test]
    fn duplicate_pages_are_rejected() {
        let mut pool = Zpool::new(1 << 20);
        store_one(&mut pool, 1, 1, 100);
        let err = pool.store(vec![page(1, 1)], 4096, 100, ChunkSize::k4(), Hotness::Hot);
        assert!(matches!(err, Err(MemError::InvalidParameter { .. })));
    }

    #[test]
    fn empty_page_list_is_rejected() {
        let mut pool = Zpool::new(1 << 20);
        assert!(pool
            .store(vec![], 0, 0, ChunkSize::k4(), Hotness::Cold)
            .is_err());
    }

    #[test]
    fn remove_releases_space_and_index() {
        let mut pool = Zpool::new(1 << 20);
        let handle = store_one(&mut pool, 1, 1, 5000);
        assert_eq!(pool.used_bytes(), 2 * ZPOOL_BLOCK_SIZE);
        let entry = pool.remove(handle).unwrap();
        assert_eq!(entry.pages.len(), 1);
        assert_eq!(pool.used_bytes(), 0);
        assert!(!pool.contains(page(1, 1)));
        assert!(matches!(pool.remove(handle), Err(MemError::StaleHandle)));
        assert!(matches!(pool.entry(handle), Err(MemError::StaleHandle)));
    }

    #[test]
    fn stale_handle_is_detected_after_slot_reuse() {
        let mut pool = Zpool::new(1 << 20);
        let old = store_one(&mut pool, 1, 1, 1000);
        pool.remove(old).unwrap();
        // The freed slot is reused by the next store; the old handle must
        // stay stale rather than resolve to the new occupant.
        let new = store_one(&mut pool, 2, 9, 2000);
        assert!(matches!(pool.entry(old), Err(MemError::StaleHandle)));
        assert!(matches!(pool.remove(old), Err(MemError::StaleHandle)));
        assert_eq!(pool.entry(new).unwrap().pages, vec![page(2, 9)]);
    }

    #[test]
    fn multi_page_entries_index_every_page() {
        let mut pool = Zpool::new(1 << 20);
        let pages = vec![page(2, 10), page(2, 11), page(2, 12), page(2, 13)];
        let handle = pool
            .store(
                pages.clone(),
                4 * 4096,
                6000,
                ChunkSize::k16(),
                Hotness::Cold,
            )
            .unwrap();
        for p in &pages {
            assert_eq!(pool.handle_for(*p), Some(handle));
        }
        pool.remove(handle).unwrap();
        for p in &pages {
            assert_eq!(pool.handle_for(*p), None);
        }
    }

    #[test]
    fn next_by_sector_finds_the_neighbour() {
        let mut pool = Zpool::new(1 << 20);
        let h1 = store_one(&mut pool, 1, 1, 4096);
        let h2 = store_one(&mut pool, 1, 2, 4096);
        let h3 = store_one(&mut pool, 1, 3, 4096);
        let s1 = pool.entry(h1).unwrap().sector;
        let (next, _) = pool.next_by_sector(s1).unwrap();
        assert_eq!(next, h2);
        let s3 = pool.entry(h3).unwrap().sector;
        assert!(pool.next_by_sector(s3).is_none());
    }

    #[test]
    fn oldest_and_oldest_cold_track_sector_order() {
        let mut pool = Zpool::new(1 << 20);
        let hot = pool
            .store(vec![page(1, 1)], 4096, 1000, ChunkSize::k1(), Hotness::Hot)
            .unwrap();
        let cold = store_one(&mut pool, 1, 2, 1000);
        let (h, _) = pool.oldest().unwrap();
        assert_eq!(h, hot, "oldest-any is the lowest sector");
        let (c, _) = pool.oldest_cold().unwrap();
        assert_eq!(c, cold, "oldest-cold skips the hot entry");
        pool.remove(cold).unwrap();
        assert!(pool.oldest_cold().is_none());
        assert_eq!(pool.oldest().unwrap().0, hot);
    }

    #[test]
    fn hot_single_index_tracks_refill_candidates() {
        let mut pool = Zpool::new(1 << 20);
        let h1 = pool
            .store(vec![page(1, 1)], 4096, 900, ChunkSize::k1(), Hotness::Hot)
            .unwrap();
        // Multi-page hot entry and cold single page do not qualify.
        pool.store(
            vec![page(1, 2), page(1, 3)],
            8192,
            3000,
            ChunkSize::k2(),
            Hotness::Hot,
        )
        .unwrap();
        store_one(&mut pool, 1, 4, 900);
        let h2 = pool
            .store(vec![page(1, 5)], 4096, 900, ChunkSize::k1(), Hotness::Hot)
            .unwrap();
        assert_eq!(pool.hot_single_count(), 2);
        assert_eq!(pool.hot_single_oldest(10), vec![h1, h2]);
        assert_eq!(pool.hot_single_oldest(1), vec![h1]);
        pool.remove(h1).unwrap();
        assert_eq!(pool.hot_single_count(), 1);
        assert_eq!(pool.hot_single_oldest(10), vec![h2]);
    }

    #[test]
    fn iter_yields_ascending_sectors() {
        let mut pool = Zpool::new(1 << 20);
        for pfn in 0..10 {
            store_one(&mut pool, 1, pfn, 4096);
        }
        let sectors: Vec<u64> = pool.iter().map(|(_, e)| e.sector.value()).collect();
        let mut sorted = sectors.clone();
        sorted.sort_unstable();
        assert_eq!(sectors, sorted);
    }

    #[test]
    fn release_app_frees_every_entry_of_the_app() {
        let mut pool = Zpool::new(1 << 20);
        store_one(&mut pool, 1, 1, 4096);
        pool.store(
            vec![page(1, 2), page(1, 3)],
            8192,
            3000,
            ChunkSize::k16(),
            Hotness::Cold,
        )
        .unwrap();
        store_one(&mut pool, 2, 1, 4096);
        let used_before = pool.used_bytes();

        let (entries, pages) = pool.release_app(AppId::new(1));
        assert_eq!((entries, pages), (2, 3));
        assert!(!pool.contains(page(1, 1)) && !pool.contains(page(1, 3)));
        assert!(pool.contains(page(2, 1)), "other apps keep their entries");
        assert_eq!(pool.used_bytes(), used_before - 2 * ZPOOL_BLOCK_SIZE);
        assert_eq!(pool.stats().removals, 2);
        // Releasing again finds nothing.
        assert_eq!(pool.release_app(AppId::new(1)), (0, 0));
    }

    #[test]
    fn app_index_stays_consistent_across_interleaved_operations() {
        let mut pool = Zpool::new(1 << 20);
        // Two apps, interleaved stores; remove some entries by handle before
        // the kills so the index has seen every mutation path.
        let h1 = store_one(&mut pool, 1, 1, 2048);
        let _h2 = store_one(&mut pool, 2, 1, 2048);
        let _h3 = store_one(&mut pool, 1, 2, 2048);
        pool.store(
            vec![page(2, 2), page(2, 3)],
            8192,
            3000,
            ChunkSize::k16(),
            Hotness::Cold,
        )
        .unwrap();
        pool.remove(h1).unwrap();

        // App 1 has one entry left, app 2 has two (one multi-page).
        assert_eq!(pool.release_app(AppId::new(1)), (1, 1));
        assert!(!pool.contains(page(1, 2)));
        assert_eq!(pool.release_app(AppId::new(1)), (0, 0));
        assert_eq!(pool.release_app(AppId::new(2)), (2, 3));
        assert!(pool.is_empty());
        assert_eq!(pool.used_bytes(), 0);
        // Re-storing after a full drain works and releases again cleanly.
        store_one(&mut pool, 1, 9, 1024);
        assert_eq!(pool.release_app(AppId::new(1)), (1, 1));
    }

    #[test]
    fn stats_track_lifetime_operations() {
        let mut pool = Zpool::new(1 << 20);
        let h1 = store_one(&mut pool, 1, 1, 2048);
        store_one(&mut pool, 1, 2, 2048);
        pool.remove(h1).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.stores, 2);
        assert_eq!(stats.removals, 1);
        assert_eq!(stats.original_bytes, 4096);
    }

    #[test]
    fn running_stats_match_a_full_recompute() {
        let mut pool = Zpool::new(1 << 20);
        let mut handles = Vec::new();
        for pfn in 0..20 {
            handles.push(store_one(
                &mut pool,
                1 + (pfn % 3) as u32,
                pfn,
                1000 + 137 * pfn as usize,
            ));
        }
        for handle in handles.iter().step_by(3) {
            pool.remove(*handle).unwrap();
        }
        pool.release_app(AppId::new(2));
        let stats = pool.stats();
        let original: usize = pool.iter().map(|(_, e)| e.original_bytes).sum();
        let compressed: usize = pool.iter().map(|(_, e)| e.compressed_bytes).sum();
        assert_eq!(stats.original_bytes, original);
        assert_eq!(stats.compressed_bytes, compressed);
        assert_eq!(stats.entries, pool.len());
    }

    #[test]
    fn sector_log_stays_within_twice_the_live_entries() {
        let mut pool = Zpool::new(1 << 30);
        let mut live = std::collections::VecDeque::new();
        for pfn in 0..5_000u64 {
            live.push_back(store_one(&mut pool, 1 + (pfn % 3) as u32, pfn, 1000));
            assert!(pool.log.len() <= 2 * pool.len() + LOG_SLACK);
            // Keep about 100 entries live: remove the oldest (first in,
            // first out) past that, and the newest (last in, first out) on
            // every seventh step.
            if live.len() > 100 {
                pool.remove(live.pop_front().unwrap()).unwrap();
            }
            if pfn % 7 == 0 {
                pool.remove(live.pop_back().unwrap()).unwrap();
            }
            if pfn % 997 == 0 {
                pool.release_app(AppId::new(2));
                live.retain(|h| pool.entry(*h).is_ok());
            }
        }
        let oldest = live.iter().map(|h| pool.entry(*h).unwrap().sector).min();
        assert_eq!(pool.oldest().map(|(_, e)| e.sector), oldest);
    }

    #[test]
    fn sector_distance_is_symmetric() {
        assert_eq!(ZpoolSector::new(5).distance(ZpoolSector::new(9)), 4);
        assert_eq!(ZpoolSector::new(9).distance(ZpoolSector::new(5)), 4);
    }
}
