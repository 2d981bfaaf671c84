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

use crate::page_lru::PageLru;
use crate::scheme::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, PressureLevel, ReleasedFootprint,
    SchemeContext, SwapScheme, WritebackPolicy,
};
use crate::swap_scheme_identity;
use crate::tiers::Tiers;
use ariadne_compress::{ChunkSize, CostNanos};
use ariadne_mem::{
    AppId, CpuActivity, FlashIoMode, Hotness, PageId, PageLocation, SimClock, PAGE_SIZE,
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
    tiers: Tiers,
    lru: PageLru,
    /// Order in which pages were compressed (the Figure 4 analysis sorts
    /// compressed data by compression time).
    compression_log: Vec<PageId>,
    /// zpool sectors and flash slots touched by swap-ins, in access order
    /// (the Table 3 locality analysis runs over this sequence).
    swapin_sectors: Vec<u64>,
    /// Reusable buffer for the single victim of each direct-reclaim step,
    /// so the per-page `make_room` loop never allocates.
    victim: Vec<PageId>,
}

impl ZramScheme {
    /// Create the scheme from a memory configuration.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        ZramScheme {
            tiers: Tiers::new(&config),
            lru: PageLru::default(),
            compression_log: Vec::new(),
            swapin_sectors: Vec::new(),
            victim: Vec::new(),
        }
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

    /// Compress one victim page into the zpool (single-page entries, all
    /// labelled cold). Returns the compression latency plus any
    /// user-visible writeback cost the overflow incurred.
    fn compress_page(
        &mut self,
        page: PageId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        self.compression_log.push(page);
        self.tiers
            .compress(&[page], ChunkSize::k4(), Hotness::Cold, clock, ctx)
    }

    /// Whether the ZSWAP background flush is active: only under the ZSWAP
    /// policy, and only when writeback can overlap foreground work (under
    /// the synchronous I/O model the flush happens inline on the reclaim
    /// path instead).
    fn flushes_in_background(&self) -> bool {
        let config = self.tiers.config();
        config.writeback == WritebackPolicy::WritebackToFlash && config.io.mode != FlashIoMode::Sync
    }

    /// The zpool fill level above which the ZSWAP policy wants a background
    /// flush to flash (7/8 of capacity), so the synchronous
    /// `make_zpool_room` path stays rare.
    fn flush_threshold_bytes(&self) -> usize {
        let capacity = self.tiers.config().zpool_bytes;
        capacity - capacity / 8
    }

    /// Ensure one more page fits in DRAM, compressing victims synchronously
    /// if needed. Returns the user-visible latency.
    fn make_room(&mut self, clock: &mut SimClock, ctx: &SchemeContext) -> CostNanos {
        let mut latency = CostNanos::zero();
        let mut victim = std::mem::take(&mut self.victim);
        while self.tiers.dram.free_bytes() < PAGE_SIZE {
            victim.clear();
            self.lru.pick_victims(self.tiers.foreground, 1, &mut victim);
            let Some(&page) = victim.first() else {
                break;
            };
            let cost = self.compress_page(page, clock, ctx);
            latency += cost;
            clock.advance(cost);
        }
        self.victim = victim;
        latency
    }
}

impl SwapScheme for ZramScheme {
    swap_scheme_identity!();

    fn name(&self) -> String {
        match self.tiers.config().writeback {
            WritebackPolicy::DropOldest => "ZRAM".to_string(),
            WritebackPolicy::WritebackToFlash => "ZSWAP".to_string(),
        }
    }

    fn register_page(&mut self, page: PageId, clock: &mut SimClock, ctx: &SchemeContext) {
        if self.tiers.dram.contains(page) {
            self.lru.touch(page);
            return;
        }
        let _ = self.make_room(clock, ctx);
        if self.tiers.dram.insert(page).is_ok() {
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
        if self.tiers.dram.contains(page) {
            self.lru.touch(page);
            return AccessOutcome::dram_hit(clock, ctx);
        }

        let mut latency = ctx.timing.page_fault();
        let mut io_stall = CostNanos::zero();
        // Direct reclaim runs before the tier lookup: it may push the
        // faulted page's own entry out of the zpool.
        latency += self.make_room(clock, ctx);

        let found_in = if let Some(entry) = self.tiers.take_from_zpool(page) {
            latency += self.tiers.decompress(&entry, clock, ctx);
            self.swapin_sectors.push(entry.sector.value());
            PageLocation::Zpool
        } else if let Some((slot, fault)) = self.tiers.take_from_flash(page, clock) {
            let (io_latency, stall) =
                self.tiers
                    .fault_flash(&fault, CostNanos::zero(), ChunkSize::k4(), clock, ctx);
            latency += io_latency;
            io_stall = stall;
            self.swapin_sectors.push(slot.value());
            PageLocation::Flash
        } else {
            latency += self.tiers.fault_lost(ctx);
            PageLocation::Absent
        };

        let _ = self.tiers.dram.insert(page);
        self.lru.touch(page);
        AccessOutcome::fault(latency, found_in, io_stall, clock, ctx)
    }

    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize {
        let mut victims = Vec::with_capacity(target_pages);
        self.lru
            .pick_victims(self.tiers.foreground, target_pages, &mut victims);
        let scan = ctx.timing.reclaim_scan(victims.len().max(1));
        clock.charge_cpu(CpuActivity::ReclaimScan, scan);
        for &page in &victims {
            self.compress_page(page, clock, ctx);
        }
        victims.len()
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
        // path. Plain ZRAM (DropOldest) has no deferred work.
        if !self.flushes_in_background() {
            return 0;
        }
        self.tiers
            .zpool
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
        if !self.flushes_in_background() {
            return 0;
        }
        let threshold = self.flush_threshold_bytes();
        self.tiers.flush_zpool_above(threshold, budget, clock, ctx)
    }

    fn release_app(
        &mut self,
        app: AppId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> ReleasedFootprint {
        let (evicted, footprint) = self.tiers.release_app(app, clock);
        for page in &evicted {
            self.lru.remove(page);
        }
        clock.charge_cpu(
            CpuActivity::Other,
            ctx.timing.lru_ops(footprint.total_pages()),
        );
        footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_compress::Algorithm;
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
        assert_eq!(scheme.tiers().dram.resident_pages(), 8);

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
            let handle = scheme
                .tiers
                .zpool
                .handle_for(page)
                .expect("page is compressed");
            scheme.tiers.zpool.entry(handle).unwrap().compressed_bytes
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
    fn zswap_writes_back_the_oldest_compressed_pages_first() {
        let (_, ctx, mut clock, pages) = setup(4096, 4);
        let config = tiny_config(4096, 4).with_writeback(WritebackPolicy::WritebackToFlash);
        let mut scheme = ZramScheme::new(config);
        for &page in pages.iter().take(64) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(32, &mut clock, &ctx);
        // Every entry is labelled cold, so overflow leaves in compression
        // order: flash holds a prefix of the log and the zpool the rest.
        let log = scheme.compression_log();
        let flushed = log
            .iter()
            .take_while(|&&page| scheme.location_of(page) == PageLocation::Flash)
            .count();
        assert!(
            flushed > 0 && flushed < log.len(),
            "{flushed} of {}",
            log.len()
        );
        assert!(log[flushed..]
            .iter()
            .all(|&page| scheme.location_of(page) == PageLocation::Zpool));
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
        assert!(scheme.tiers().flash.next_completion().is_some());

        scheme.release_app(pages[0].app(), &mut clock, &ctx);
        scheme.leak_check().unwrap();
        // The orphaned commands retire harmlessly.
        while let Some(at) = scheme.tiers().flash.next_completion() {
            scheme.tiers_mut().flash.retire_completed(at);
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
