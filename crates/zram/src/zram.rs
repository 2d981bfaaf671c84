//! The state-of-the-art `ZRAM` baseline.
//!
//! This is the scheme modern Android ships (§2.2 of the paper): when memory
//! pressure builds, kswapd takes the least-recently-used anonymous pages,
//! compresses them one 4 KiB page at a time with the kernel's default
//! compressor and stores the result in the zpool. A page fault on compressed
//! data decompresses it on demand — possibly after first compressing *other*
//! pages to make room, which is exactly the on-demand-compression cost the
//! paper identifies as a major source of relaunch latency. When the zpool is
//! full the scheme either drops the oldest compressed data (plain ZRAM, the
//! vendor default) or writes it back to flash (ZSWAP).

use crate::scheme::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, PressureLevel, ReleasedFootprint,
    SchemeContext, SchemeStats, SwapScheme, WritebackPolicy,
};
use crate::swap_scheme_identity;
use crate::writeback::{charge_fault_io, ZpoolWriteback};
use ariadne_compress::{Algorithm, ChunkSize, CostNanos};
use ariadne_mem::{
    AppId, CpuActivity, FlashDevice, FlashIoMode, Hotness, LruList, MainMemory, PageId,
    PageLocation, SimClock, Zpool, ZpoolHandle, PAGE_SIZE,
};

/// The baseline compressed-swap scheme (single-page compression, LRU victim
/// selection, on-demand decompression).
///
/// ```
/// use ariadne_zram::{MemoryConfig, SwapScheme, ZramScheme};
///
/// let scheme = ZramScheme::new(MemoryConfig::pixel7_scaled(256));
/// assert_eq!(scheme.name(), "ZRAM");
/// ```
#[derive(Debug)]
pub struct ZramScheme {
    config: MemoryConfig,
    dram: MainMemory,
    zpool: Zpool,
    flash: FlashDevice,
    lru: LruList<PageId>,
    foreground: Option<AppId>,
    stats: SchemeStats,
    /// Order in which pages were compressed (the Figure 4 analysis sorts
    /// compressed data by compression time).
    compression_log: Vec<PageId>,
    /// zpool sectors and flash slots touched by swap-ins, in access order
    /// (the Table 3 locality analysis runs over this sequence).
    swapin_sectors: Vec<u64>,
    /// Reusable buffer for foreground pages popped and reinserted during a
    /// victim scan, so the per-page `make_room` loop never allocates.
    pick_scratch: Vec<PageId>,
}

impl ZramScheme {
    /// Create the scheme from a memory configuration.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        ZramScheme {
            dram: MainMemory::new(config.dram_bytes, config.watermarks),
            zpool: Zpool::new(config.zpool_bytes),
            flash: FlashDevice::with_io(config.flash_swap_bytes, config.io),
            lru: LruList::new(),
            foreground: None,
            stats: SchemeStats::default(),
            compression_log: Vec::new(),
            swapin_sectors: Vec::new(),
            pick_scratch: Vec::new(),
            config,
        }
    }

    /// The compression algorithm in use.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// Every page compressed so far, in compression order.
    #[must_use]
    pub fn compression_log(&self) -> &[PageId] {
        &self.compression_log
    }

    /// The zpool sector or flash slot of every swap-in so far, in access
    /// order.
    #[must_use]
    pub fn swapin_sectors(&self) -> &[u64] {
        &self.swapin_sectors
    }

    /// Compress one victim page into the zpool. Returns the compression
    /// latency plus any user-visible writeback cost the overflow incurred
    /// (charged to the caller as CPU; also user-visible if the caller is a
    /// direct reclaim).
    fn compress_page(
        &mut self,
        page: PageId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        // The oracle memoizes the codec run: recompressing the same page
        // (relaunch storms do this constantly) is a hash lookup, not a
        // synthesis + codec pass. Sizes are bit-identical either way.
        let outcome = ctx.compress_pages(&[page], self.config.algorithm, ChunkSize::k4());
        self.stats.record_oracle(&outcome);
        let compressed_len = outcome.compressed_len;
        let cost = ctx.compression_cost(
            self.config.algorithm,
            ChunkSize::k4(),
            outcome.original_len,
            clock.now().as_nanos(),
        );

        let writeback_latency = self.make_zpool_room(compressed_len, clock, ctx);
        if self
            .zpool
            .store(
                vec![page],
                outcome.original_len,
                compressed_len,
                ChunkSize::k4(),
                Hotness::Cold,
            )
            .is_err()
        {
            // Even after writeback the pool cannot take the entry (tiny test
            // configurations); drop the data instead.
            self.stats.dropped_pages += 1;
        }
        self.dram.remove(page);

        self.stats
            .record_compression(1, outcome.original_len, compressed_len, cost, clock);
        self.compression_log.push(page);
        cost + writeback_latency
    }

    /// Free zpool space for `incoming_bytes` according to the writeback
    /// policy (oldest entries first; the shared [`ZpoolWriteback`] helper).
    /// Returns the user-visible latency of the eviction: inline device time
    /// under the synchronous I/O model, queue stalls under the queued one.
    fn make_zpool_room(
        &mut self,
        incoming_bytes: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        ZpoolWriteback {
            zpool: &mut self.zpool,
            flash: &mut self.flash,
            policy: self.config.writeback,
            prefer_cold: false,
            stats: &mut self.stats,
        }
        .make_room(incoming_bytes, clock, ctx)
    }

    /// The zpool fill level above which the ZSWAP policy wants a background
    /// flush to flash (7/8 of capacity), so the synchronous `make_zpool_room`
    /// path stays rare.
    fn flush_threshold_bytes(&self) -> usize {
        self.config.zpool_bytes - self.config.zpool_bytes / 8
    }

    /// Pick up to `count` LRU victims, protecting the foreground app when
    /// other victims exist.
    fn pick_victims(&mut self, count: usize) -> Vec<PageId> {
        let mut victims = Vec::with_capacity(count);
        let mut skipped = std::mem::take(&mut self.pick_scratch);
        while victims.len() < count {
            match self.lru.pop_lru() {
                None => break,
                Some(page) => {
                    if Some(page.app()) == self.foreground && !self.lru.is_empty() {
                        skipped.push(page);
                    } else {
                        victims.push(page);
                    }
                }
            }
        }
        for page in skipped.drain(..) {
            self.lru.insert_lru(page);
        }
        self.pick_scratch = skipped;
        victims
    }

    /// Single-victim fast path for the per-page `make_room` loop: the same
    /// pop/skip/reinsert sequence as `pick_victims(1)`, without building the
    /// one-element vector.
    fn pick_one_victim(&mut self) -> Option<PageId> {
        let mut victim = None;
        let mut skipped = std::mem::take(&mut self.pick_scratch);
        while victim.is_none() {
            match self.lru.pop_lru() {
                None => break,
                Some(page) => {
                    if Some(page.app()) == self.foreground && !self.lru.is_empty() {
                        skipped.push(page);
                    } else {
                        victim = Some(page);
                    }
                }
            }
        }
        for page in skipped.drain(..) {
            self.lru.insert_lru(page);
        }
        self.pick_scratch = skipped;
        victim
    }

    /// Ensure one more page fits in DRAM, compressing victims synchronously
    /// if needed. Returns the user-visible latency.
    fn make_room(&mut self, clock: &mut SimClock, ctx: &SchemeContext) -> CostNanos {
        let mut latency = CostNanos::zero();
        while self.dram.free_bytes() < PAGE_SIZE {
            let Some(page) = self.pick_one_victim() else {
                break;
            };
            let cost = self.compress_page(page, clock, ctx);
            latency += cost;
            clock.advance(cost);
        }
        latency
    }

    /// Decompress the entry behind `handle` and log its zpool sector as a
    /// swap-in. Returns the latency.
    fn decompress_entry(
        &mut self,
        handle: ZpoolHandle,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        let entry = self.zpool.remove(handle).expect("entry is live");
        let cost = ctx.decompression_cost(
            self.config.algorithm,
            entry.chunk_size,
            entry.original_bytes,
            clock.now().as_nanos(),
        );
        self.stats
            .record_decompression(entry.pages.len(), cost, clock);
        self.swapin_sectors.push(entry.sector.value());
        cost
    }
}

impl SwapScheme for ZramScheme {
    swap_scheme_identity!();

    fn name(&self) -> String {
        match self.config.writeback {
            WritebackPolicy::DropOldest => "ZRAM".to_string(),
            WritebackPolicy::WritebackToFlash => "ZSWAP".to_string(),
        }
    }

    fn attach_trace(&mut self, trace: &ariadne_obs::TraceHandle) {
        self.flash.set_trace(trace);
    }

    fn register_page(&mut self, page: PageId, clock: &mut SimClock, ctx: &SchemeContext) {
        if self.dram.contains(page) {
            self.lru.touch(page);
            return;
        }
        let _ = self.make_room(clock, ctx);
        if self.dram.insert(page).is_ok() {
            self.lru.touch(page);
            clock.charge_cpu(CpuActivity::Other, ctx.timing.lru_ops(1));
        }
    }

    fn access(
        &mut self,
        page: PageId,
        _kind: AccessKind,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> AccessOutcome {
        if self.dram.contains(page) {
            self.lru.touch(page);
            let latency = ctx.timing.dram_access(1);
            clock.advance(latency);
            return AccessOutcome {
                latency,
                found_in: PageLocation::Dram,
                io_stall: CostNanos::zero(),
            };
        }

        let mut latency = ctx.timing.page_fault();
        let mut io_stall = CostNanos::zero();
        latency += self.make_room(clock, ctx);
        let found_in;

        if let Some(handle) = self.zpool.handle_for(page) {
            found_in = PageLocation::Zpool;
            let cost = self.decompress_entry(handle, clock, ctx);
            latency += cost;
        } else if let Some(slot) = self.flash.slot_for(page) {
            found_in = PageLocation::Flash;
            let fault = self
                .flash
                .fault_in(slot, clock.now().as_nanos())
                .expect("slot was just looked up");
            let (io_latency, stall) =
                charge_fault_io(&fault, CostNanos::zero(), &mut self.stats, clock, ctx);
            latency += io_latency;
            io_stall = stall;
            if fault.compressed {
                let cost = ctx.decompression_cost(
                    self.config.algorithm,
                    ChunkSize::k4(),
                    fault.original_bytes,
                    clock.now().as_nanos(),
                );
                latency += cost;
                self.stats
                    .record_decompression(fault.pages.len(), cost, clock);
            }
            self.swapin_sectors.push(slot.value());
        } else {
            found_in = PageLocation::Absent;
            latency += ctx.timing.dram_copy(1);
            self.stats.dropped_pages += 1;
        }

        let _ = self.dram.insert(page);
        self.lru.touch(page);
        latency += ctx.timing.dram_access(1);
        clock.advance(latency);
        AccessOutcome {
            latency,
            found_in,
            io_stall,
        }
    }

    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize {
        let victims = self.pick_victims(target_pages);
        let scan = ctx.timing.reclaim_scan(victims.len().max(1));
        clock.charge_cpu(CpuActivity::ReclaimScan, scan);
        let reclaimed = victims.len();
        for page in victims {
            self.compress_page(page, clock, ctx);
        }
        reclaimed
    }

    fn on_foreground(&mut self, app: AppId) {
        self.foreground = Some(app);
    }

    fn on_background(&mut self, app: AppId) {
        if self.foreground == Some(app) {
            self.foreground = None;
        }
    }

    fn on_pressure(&mut self, pressure: MemoryPressure, clock: &mut SimClock, ctx: &SchemeContext) {
        self.reclaim(pressure.target_pages, clock, ctx);
        // The compressed pool is RAM too: a *critical* spike (an imminent
        // large allocation) additionally flushes pending zswap writeback
        // immediately instead of waiting for background drain ticks. Medium
        // pressure leaves the flush to the deferred path.
        if pressure.level == PressureLevel::Critical {
            let pending = self.deferred_pages();
            if pending > 0 {
                self.drain_deferred(pending, clock, ctx);
            }
        }
    }

    fn deferred_pages(&self) -> usize {
        // Under the ZSWAP policy, compressed data above the flush threshold
        // is deferred writeback work the engine can drain off the critical
        // path. Plain ZRAM (DropOldest) has no deferred work, and under the
        // synchronous I/O model writeback cannot overlap foreground work at
        // all — the flush happens inline on the reclaim path instead.
        if self.config.writeback != WritebackPolicy::WritebackToFlash
            || self.config.io.mode == FlashIoMode::Sync
        {
            return 0;
        }
        self.zpool
            .used_bytes()
            .saturating_sub(self.flush_threshold_bytes())
            .div_ceil(PAGE_SIZE)
    }

    fn drain_deferred(
        &mut self,
        budget: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> usize {
        if self.config.writeback != WritebackPolicy::WritebackToFlash
            || self.config.io.mode == FlashIoMode::Sync
        {
            return 0;
        }
        let threshold = self.flush_threshold_bytes();
        ZpoolWriteback {
            zpool: &mut self.zpool,
            flash: &mut self.flash,
            policy: self.config.writeback,
            prefer_cold: false,
            stats: &mut self.stats,
        }
        .flush_above(threshold, budget, clock, ctx)
    }

    fn release_app(
        &mut self,
        app: AppId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> ReleasedFootprint {
        let evicted = self.dram.evict_app(app);
        for page in &evicted {
            self.lru.remove(page);
        }
        let (zpool_entries, zpool_pages) = self.zpool.release_app(app);
        let (flash_slots, flash_pages) = self.flash.release_app(app, clock.now().as_nanos());
        let cost = ctx
            .timing
            .lru_ops(evicted.len() + zpool_pages + flash_pages);
        clock.charge_cpu(CpuActivity::Other, cost);
        if self.foreground == Some(app) {
            self.foreground = None;
        }
        ReleasedFootprint {
            dram_pages: evicted.len(),
            zpool_entries,
            zpool_pages,
            flash_slots,
            flash_pages,
            buffered_pages: 0,
        }
    }

    fn leak_check(&self) -> Result<(), String> {
        self.flash.leak_check()
    }

    fn next_io_completion(&self) -> Option<u128> {
        self.flash.next_completion()
    }

    fn complete_io(&mut self, now_nanos: u128) -> usize {
        self.flash.retire_completed(now_nanos)
    }

    fn location_of(&self, page: PageId) -> PageLocation {
        if self.dram.contains(page) {
            PageLocation::Dram
        } else if self.zpool.contains(page) {
            PageLocation::Zpool
        } else if self.flash.contains(page) {
            PageLocation::Flash
        } else {
            PageLocation::Absent
        }
    }

    fn dram(&self) -> &MainMemory {
        &self.dram
    }

    fn stats(&self) -> SchemeStats {
        SchemeStats {
            zpool: self.zpool.stats(),
            flash: self.flash.stats(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::Watermarks;
    use ariadne_trace::{AppName, WorkloadBuilder};

    fn tiny_config(dram_pages: usize, zpool_pages: usize) -> MemoryConfig {
        let dram = dram_pages * PAGE_SIZE;
        MemoryConfig {
            dram_bytes: dram,
            zpool_bytes: zpool_pages * PAGE_SIZE,
            flash_swap_bytes: 4096 * PAGE_SIZE,
            watermarks: Watermarks::new(dram / 8, dram / 4).unwrap(),
            ..MemoryConfig::pixel7_scaled(1024)
        }
    }

    fn setup(
        dram_pages: usize,
        zpool_pages: usize,
    ) -> (ZramScheme, SchemeContext, SimClock, Vec<PageId>) {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        (
            ZramScheme::new(tiny_config(dram_pages, zpool_pages)),
            ctx,
            SimClock::new(),
            pages,
        )
    }

    #[test]
    fn reclaim_compresses_lru_victims_into_the_zpool() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 1024);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        assert_eq!(scheme.reclaim(10, &mut clock, &ctx), 10);
        assert_eq!(scheme.stats().compression_ops, 10);
        assert_eq!(scheme.location_of(pages[0]), PageLocation::Zpool);
        assert_eq!(scheme.location_of(pages[30]), PageLocation::Dram);
        // Real compression produced a plausible ratio.
        let ratio = scheme.stats().compression_ratio();
        assert!(ratio > 1.2, "ratio {ratio}");
    }

    #[test]
    fn faulting_a_compressed_page_pays_decompression_latency() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 1024);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(10, &mut clock, &ctx);
        let outcome = scheme.access(pages[0], AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Zpool);
        let decomp = ctx
            .latency
            .decompression_cost(Algorithm::Lzo, ChunkSize::k4(), PAGE_SIZE);
        assert!(outcome.latency >= decomp);
        assert_eq!(scheme.location_of(pages[0]), PageLocation::Dram);
        assert_eq!(scheme.stats().decompression_ops, 1);
        assert_eq!(scheme.swapin_sectors().len(), 1);
    }

    #[test]
    fn direct_reclaim_adds_compression_to_the_critical_path() {
        // DRAM fits only 8 pages: every further registration must compress.
        let (mut scheme, ctx, mut clock, pages) = setup(8, 1024);
        for &page in pages.iter().take(8) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        assert_eq!(scheme.stats().compression_ops, 0);
        scheme.register_page(pages[8], &mut clock, &ctx);
        assert!(scheme.stats().compression_ops >= 1);
        assert_eq!(scheme.dram().resident_pages(), 8);

        // A fault on a compressed page while DRAM is full pays for both the
        // on-demand compression of a victim and its own decompression.
        let compressed_page = pages[0];
        assert_eq!(scheme.location_of(compressed_page), PageLocation::Zpool);
        let outcome = scheme.access(compressed_page, AccessKind::Relaunch, &mut clock, &ctx);
        let decomp_only =
            ctx.latency
                .decompression_cost(Algorithm::Lzo, ChunkSize::k4(), PAGE_SIZE);
        assert!(
            outcome.latency.as_nanos() > decomp_only.as_nanos(),
            "fault should also pay on-demand compression"
        );
    }

    #[test]
    fn recompressing_the_same_page_hits_the_oracle_with_identical_sizes() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 1024);
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(20, &mut clock, &ctx);
        assert_eq!(scheme.stats().oracle_misses, 20);
        assert_eq!(scheme.stats().oracle_hits, 0);
        let zpool_bytes_of = |scheme: &ZramScheme, page: PageId| {
            let handle = scheme.zpool.handle_for(page).expect("page is compressed");
            scheme.zpool.entry(handle).unwrap().compressed_bytes
        };
        let first_sizes: Vec<usize> = pages
            .iter()
            .take(10)
            .map(|&p| zpool_bytes_of(&scheme, p))
            .collect();

        // Fault ten pages back in, then evict them again: the second pass
        // compresses the exact same bytes and is served from the cache,
        // producing bit-identical zpool entry sizes.
        for &page in pages.iter().take(10) {
            scheme.access(page, AccessKind::Execution, &mut clock, &ctx);
        }
        scheme.reclaim(10, &mut clock, &ctx);
        assert_eq!(scheme.stats().oracle_hits, 10);
        assert_eq!(scheme.stats().oracle_misses, 20);
        assert_eq!(scheme.stats().oracle_bytes_saved, 10 * PAGE_SIZE);
        let second_sizes: Vec<usize> = pages
            .iter()
            .take(10)
            .map(|&p| zpool_bytes_of(&scheme, p))
            .collect();
        assert_eq!(first_sizes, second_sizes);
    }

    #[test]
    fn zpool_overflow_drops_oldest_entries_by_default() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 4);
        for &page in pages.iter().take(64) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(32, &mut clock, &ctx);
        // Far more than 4 pages were compressed, so old entries were dropped.
        assert!(scheme.stats().dropped_pages > 0);
        assert!(scheme.stats().flash.writes == 0);
        // The freshly compressed data is still in the pool.
        let last_victim = scheme.compression_log().last().copied().unwrap();
        assert_eq!(scheme.location_of(last_victim), PageLocation::Zpool);
    }

    #[test]
    fn zswap_writeback_moves_overflow_to_flash() {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let mut clock = SimClock::new();
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        let config = tiny_config(4096, 4).with_writeback(WritebackPolicy::WritebackToFlash);
        let mut scheme = ZramScheme::new(config);
        for &page in pages.iter().take(64) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(32, &mut clock, &ctx);
        assert!(scheme.stats().flash.writes > 0);
        assert_eq!(scheme.name(), "ZSWAP");
        // A page written back to flash is still reachable.
        let written_back = pages
            .iter()
            .take(32)
            .find(|&&p| scheme.location_of(p) == PageLocation::Flash)
            .copied()
            .expect("some page was written back");
        let outcome = scheme.access(written_back, AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Flash);
        assert!(outcome.latency >= ctx.timing.flash_read(1));
    }

    #[test]
    fn compression_log_preserves_lru_order() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 1024);
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // Touch the first five again so they become MRU.
        for &page in pages.iter().take(5) {
            scheme.access(page, AccessKind::Execution, &mut clock, &ctx);
        }
        scheme.reclaim(5, &mut clock, &ctx);
        let log = scheme.compression_log();
        assert_eq!(log.len(), 5);
        // Victims are the least recently used pages (5..10), not the touched ones.
        assert_eq!(log[0], pages[5]);
        assert!(!log.contains(&pages[0]));
    }

    #[test]
    fn zswap_drain_flushes_deferred_writeback_work() {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let mut clock = SimClock::new();
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        let config = tiny_config(4096, 8).with_writeback(WritebackPolicy::WritebackToFlash);
        let mut scheme = ZramScheme::new(config);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(8, &mut clock, &ctx);
        assert!(
            scheme.deferred_pages() > 0,
            "a nearly full zswap pool should report deferred flush work"
        );
        let writes_before = scheme.stats().flash.writes;
        let flushed = scheme.drain_deferred(64, &mut clock, &ctx);
        assert!(flushed > 0);
        assert!(scheme.stats().flash.writes > writes_before);
        assert_eq!(scheme.deferred_pages(), 0);
    }

    #[test]
    fn critical_pressure_flushes_zswap_immediately_but_medium_defers() {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        let config = tiny_config(4096, 8).with_writeback(WritebackPolicy::WritebackToFlash);

        let filled_scheme = |clock: &mut SimClock| {
            let mut scheme = ZramScheme::new(config);
            for &page in pages.iter().take(40) {
                scheme.register_page(page, clock, &ctx);
            }
            scheme.reclaim(8, clock, &ctx);
            assert!(scheme.deferred_pages() > 0);
            scheme
        };
        let pressure = |level| MemoryPressure {
            target_pages: 1,
            level,
        };

        let mut clock = SimClock::new();
        let mut critical = filled_scheme(&mut clock);
        critical.on_pressure(pressure(PressureLevel::Critical), &mut clock, &ctx);
        assert_eq!(
            critical.deferred_pages(),
            0,
            "critical pressure must flush the pending writeback now"
        );

        let mut clock = SimClock::new();
        let mut medium = filled_scheme(&mut clock);
        medium.on_pressure(pressure(PressureLevel::Medium), &mut clock, &ctx);
        assert!(
            medium.deferred_pages() > 0,
            "medium pressure leaves the flush to the deferred drain path"
        );
    }

    #[test]
    fn plain_zram_has_no_deferred_work() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 8);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(8, &mut clock, &ctx);
        assert_eq!(scheme.deferred_pages(), 0);
        assert_eq!(scheme.drain_deferred(64, &mut clock, &ctx), 0);
    }

    #[test]
    fn release_app_frees_dram_zpool_and_flash_footprint() {
        let workloads = vec![
            WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter),
            WorkloadBuilder::new(1).scale(1024).build(AppName::Youtube),
        ];
        let ctx = SchemeContext::new(1, &workloads);
        let mut clock = SimClock::new();
        let config = tiny_config(4096, 4).with_writeback(WritebackPolicy::WritebackToFlash);
        let mut scheme = ZramScheme::new(config);
        let twitter: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).take(48).collect();
        let youtube: Vec<PageId> = workloads[1].pages.iter().map(|p| p.page).take(8).collect();
        for &page in twitter.iter().chain(&youtube) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // Compress enough of Twitter that data spreads over zpool and flash.
        scheme.reclaim(32, &mut clock, &ctx);
        assert!(scheme.stats().flash.writes > 0);

        let victim = twitter[0].app();
        let footprint = scheme.release_app(victim, &mut clock, &ctx);
        assert!(footprint.dram_pages > 0);
        assert!(footprint.zpool_pages > 0 || footprint.flash_pages > 0);
        for &page in &twitter {
            assert_eq!(scheme.location_of(page), PageLocation::Absent);
        }
        for &page in &youtube {
            assert_ne!(
                scheme.location_of(page),
                PageLocation::Absent,
                "the survivor's pages must be untouched"
            );
        }
        scheme.leak_check().unwrap();
        // A second release finds nothing left.
        assert!(scheme.release_app(victim, &mut clock, &ctx).is_empty());
    }

    #[test]
    fn release_app_with_in_flight_writeback_leaves_no_leaks() {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let mut clock = SimClock::new();
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        let config = tiny_config(4096, 4).with_writeback(WritebackPolicy::WritebackToFlash);
        let mut scheme = ZramScheme::new(config);
        for &page in pages.iter().take(48) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(32, &mut clock, &ctx);
        // Writeback commands are still in flight at this instant.
        assert!(scheme.next_io_completion().is_some());

        scheme.release_app(pages[0].app(), &mut clock, &ctx);
        scheme.leak_check().unwrap();
        // The orphaned commands retire harmlessly.
        while let Some(at) = scheme.next_io_completion() {
            scheme.complete_io(at);
        }
        scheme.leak_check().unwrap();
        for &page in pages.iter().take(48) {
            assert_eq!(scheme.location_of(page), PageLocation::Absent);
        }
    }

    #[test]
    fn cpu_ledger_records_compression_and_decompression() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 1024);
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(10, &mut clock, &ctx);
        scheme.access(pages[0], AccessKind::Relaunch, &mut clock, &ctx);
        let cpu = clock.cpu();
        assert!(cpu.total_for(CpuActivity::Compression) > CostNanos::zero());
        assert!(cpu.total_for(CpuActivity::Decompression) > CostNanos::zero());
        assert!(cpu.total_for(CpuActivity::ReclaimScan) > CostNanos::zero());
        let stats = scheme.stats();
        assert_eq!(
            cpu.total_for(CpuActivity::Compression),
            stats.compression_time
        );
        assert_eq!(
            cpu.total_for(CpuActivity::Decompression),
            stats.decompression_time
        );
    }
}
