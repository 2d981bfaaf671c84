//! The LRU baselines: `ZRAM`, `ZSWAP` and `SWAP`.
//!
//! The paper's baselines are one kernel path (§2.2): when memory pressure
//! builds, kswapd takes the least-recently-used anonymous pages and swaps
//! them out, and a page fault brings a page back on demand. They differ only
//! in where a victim goes:
//!
//! * `ZRAM`, which modern Android ships, compresses each victim one 4 KiB
//!   page at a time with the kernel's default compressor into the zpool. A
//!   fault decompresses it on demand — possibly after first compressing
//!   *other* pages to make room, which is exactly the on-demand-compression
//!   cost the paper identifies as a major source of relaunch latency. When
//!   the zpool is full it drops the oldest compressed data (the vendor
//!   default);
//! * `ZSWAP` is ZRAM that writes the oldest compressed data back to flash
//!   instead of dropping it;
//! * `SWAP`, from before compressed swap existed, writes victims
//!   uncompressed to the flash swap area. It keeps kswapd CPU usage low (the
//!   CPU mostly waits for I/O) but makes relaunches slow (every miss pays a
//!   flash read) and wears out the flash.
//!
//! [`LruScheme`] is that one path; only its private eviction step looks at
//! the device.

use crate::page_lru::PageLru;
use crate::scheme::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, PressureLevel, ReleasedFootprint,
    SchemeContext, SwapScheme, WritebackPolicy,
};
use crate::swap_scheme_identity;
use crate::tiers::Tiers;
use ariadne_compress::{ChunkSize, CostNanos};
use ariadne_mem::{
    AppId, CpuActivity, FlashIoMode, FxHashSet, Hotness, PageId, PageLocation, SimClock,
    WriteRequest, PAGE_SIZE,
};

/// Where an LRU victim goes.
#[derive(Debug, Clone, Copy)]
enum SwapDevice {
    /// Compressed into the zpool, one page per entry (ZRAM, ZSWAP).
    Zpool,
    /// Uncompressed onto the flash swap area (SWAP).
    Flash,
}

/// The LRU swap baselines: LRU victim selection and on-demand swap-in, with
/// victims compressed into the zpool ([`LruScheme::zram`]) or written to
/// flash ([`LruScheme::swap`]).
///
/// ```
/// use ariadne_zram::{LruScheme, MemoryConfig, SwapScheme, WritebackPolicy};
///
/// let config = MemoryConfig::pixel7_scaled(256);
/// assert_eq!(LruScheme::zram(config).name(), "ZRAM");
/// let zswap = config.with_writeback(WritebackPolicy::WritebackToFlash);
/// assert_eq!(LruScheme::zram(zswap).name(), "ZSWAP");
/// ```
#[derive(Debug)]
pub struct LruScheme {
    tiers: Tiers,
    lru: PageLru,
    device: SwapDevice,
    name: &'static str,
    /// Whether the two page logs below are kept ([`LruScheme::keep_page_logs`]).
    page_logs: bool,
    /// Order in which pages were compressed (the Figure 4 analysis sorts
    /// compressed data by compression time).
    compression_log: Vec<PageId>,
    /// zpool sectors touched by swap-ins, in access order (the Table 3
    /// locality analysis runs over this sequence).
    swapin_sectors: Vec<u64>,
    /// Reusable victim buffer, so the per-page direct-reclaim loop never
    /// allocates.
    victims: Vec<PageId>,
}

impl LruScheme {
    /// The compressed-swap baseline: `ZRAM`, or `ZSWAP` when `config`
    /// writes zpool overflow back to flash.
    #[must_use]
    pub fn zram(config: MemoryConfig) -> Self {
        let name = match config.writeback {
            WritebackPolicy::DropOldest => "ZRAM",
            WritebackPolicy::WritebackToFlash => "ZSWAP",
        };
        LruScheme::new(config, SwapDevice::Zpool, name)
    }

    /// The uncompressed flash-swap baseline, `SWAP`.
    ///
    /// ```
    /// use ariadne_zram::{LruScheme, MemoryConfig, SwapScheme};
    ///
    /// let scheme = LruScheme::swap(MemoryConfig::pixel7_scaled(256));
    /// assert_eq!(scheme.name(), "SWAP");
    /// ```
    #[must_use]
    pub fn swap(config: MemoryConfig) -> Self {
        LruScheme::new(config, SwapDevice::Flash, "SWAP")
    }

    fn new(config: MemoryConfig, device: SwapDevice, name: &'static str) -> Self {
        LruScheme {
            tiers: Tiers::new(&config),
            lru: PageLru::default(),
            device,
            name,
            page_logs: false,
            compression_log: Vec::new(),
            swapin_sectors: Vec::new(),
            victims: Vec::new(),
        }
    }

    /// Start keeping the two page logs, [`LruScheme::compression_log`] and
    /// [`LruScheme::swapin_sectors`], which grow with every compression and
    /// every zpool swap-in. Only the analyses that read them (Figure 4 and
    /// Table 3) ask for them; without this call both stay empty.
    pub fn keep_page_logs(&mut self) {
        self.page_logs = true;
    }

    /// Every page compressed since [`LruScheme::keep_page_logs`], in
    /// compression order.
    #[must_use]
    pub fn compression_log(&self) -> &[PageId] {
        &self.compression_log
    }

    /// The zpool sector of every swap-in since
    /// [`LruScheme::keep_page_logs`], in access order.
    #[must_use]
    pub fn swapin_sectors(&self) -> &[u64] {
        &self.swapin_sectors
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

    /// Swap out up to `count` LRU victims — the one step where the zpool
    /// and the flash baselines differ. `synchronous` is direct reclaim: the
    /// faulting thread waits, so its latency is returned and the clock
    /// advanced past it. Returns (pages evicted, that latency).
    ///
    /// The reclaim scan is charged by the device's own rule: kswapd's zpool
    /// pass charges at least one page even when it finds nothing, zpool
    /// direct reclaim charges none, and the flash path charges the victims
    /// it found.
    fn evict(
        &mut self,
        count: usize,
        synchronous: bool,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> (usize, CostNanos) {
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        self.lru
            .pick_victims(self.tiers.foreground, count, &mut victims);
        let mut latency = CostNanos::zero();
        let evicted = match self.device {
            SwapDevice::Zpool => {
                if !synchronous {
                    let scan = ctx.timing.reclaim_scan(victims.len().max(1));
                    clock.charge_cpu(CpuActivity::ReclaimScan, scan);
                }
                if self.page_logs {
                    self.compression_log.extend_from_slice(&victims);
                }
                let groups = victims
                    .iter()
                    .map(|page| (std::slice::from_ref(page), ChunkSize::k4(), Hotness::Cold));
                latency = self.tiers.compress_batch(groups, synchronous, clock, ctx);
                victims.len()
            }
            SwapDevice::Flash if victims.is_empty() => 0,
            SwapDevice::Flash => {
                let scan = ctx.timing.reclaim_scan(victims.len());
                clock.charge_cpu(CpuActivity::ReclaimScan, scan);
                let requests = victims
                    .iter()
                    .map(|&page| WriteRequest {
                        pages: vec![page],
                        original_bytes: PAGE_SIZE,
                        stored_bytes: PAGE_SIZE,
                        compressed: false,
                    })
                    .collect();
                let result = self.tiers.write_to_flash(requests, clock, ctx);
                // Rejected pages (swap area full) stay resident, back at the
                // LRU end.
                let rejected: FxHashSet<PageId> = result
                    .dropped
                    .iter()
                    .flat_map(|r| r.pages.iter().copied())
                    .collect();
                for &page in &victims {
                    if rejected.contains(&page) {
                        self.lru.insert_lru(page);
                    } else {
                        self.tiers.dram.remove(page);
                    }
                }
                if synchronous {
                    // The faulting thread waits for the inline writes (sync
                    // mode) or for a queue slot (queued mode).
                    latency = result.sync_latency + result.queue_stall;
                    clock.advance(latency);
                }
                victims.len() - rejected.len()
            }
        };
        self.victims = victims;
        (evicted, latency)
    }

    /// Ensure one more page fits in DRAM by direct reclaim. Returns the
    /// user-visible latency.
    fn make_room(&mut self, clock: &mut SimClock, ctx: &SchemeContext) -> CostNanos {
        let mut latency = CostNanos::zero();
        while self.tiers.dram.free_bytes() < PAGE_SIZE {
            let (evicted, cost) = self.evict(1, true, clock, ctx);
            latency += cost;
            if evicted == 0 {
                break;
            }
        }
        latency
    }
}

impl SwapScheme for LruScheme {
    swap_scheme_identity!();

    fn name(&self) -> String {
        self.name.to_string()
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
            if self.page_logs {
                self.swapin_sectors.push(entry.sector.value());
            }
            PageLocation::Zpool
        } else if let Some(fault) = self.tiers.take_from_flash(page, clock) {
            // A ZSWAP object is one compressed 4 KiB page; a SWAP object is
            // uncompressed, so no chunk size applies to it.
            let (io_latency, stall) =
                self.tiers
                    .fault_flash(&fault, CostNanos::zero(), ChunkSize::k4(), clock, ctx);
            latency += io_latency;
            io_stall = stall;
            PageLocation::Flash
        } else {
            // Dropped on zpool overflow, or never swapped out.
            latency += self.tiers.fault_lost(ctx);
            PageLocation::Absent
        };

        let _ = self.tiers.dram.insert(page);
        self.lru.touch(page);
        AccessOutcome::fault(latency, found_in, io_stall, clock, ctx)
    }

    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize {
        self.evict(target_pages, false, clock, ctx).0
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
        // path. Plain ZRAM (DropOldest) and SWAP (an empty zpool) have none.
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
    use crate::ALGORITHM;
    use ariadne_mem::{FlashStats, Watermarks};
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

    type Setup = (LruScheme, SchemeContext, SimClock, Vec<PageId>);

    fn setup_with(
        build: fn(MemoryConfig) -> LruScheme,
        dram_pages: usize,
        zpool_pages: usize,
    ) -> Setup {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        (
            build(tiny_config(dram_pages, zpool_pages)),
            ctx,
            SimClock::new(),
            pages,
        )
    }

    /// Plain ZRAM over `dram_pages` of DRAM and a `zpool_pages` zpool.
    fn setup(dram_pages: usize, zpool_pages: usize) -> Setup {
        setup_with(LruScheme::zram, dram_pages, zpool_pages)
    }

    /// SWAP over `dram_pages` of DRAM.
    fn swap_setup(dram_pages: usize) -> Setup {
        setup_with(LruScheme::swap, dram_pages, 64)
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
        scheme.keep_page_logs();
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(10, &mut clock, &ctx);
        let outcome = scheme.access(pages[0], AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Zpool);
        let decomp = ctx
            .latency
            .decompression_cost(ALGORITHM, ChunkSize::k4(), PAGE_SIZE);
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
        let decomp_only = ctx
            .latency
            .decompression_cost(ALGORITHM, ChunkSize::k4(), PAGE_SIZE);
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
        let zpool_bytes_of = |scheme: &LruScheme, page: PageId| {
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
        scheme.keep_page_logs();
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
        let mut scheme = LruScheme::zram(config);
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
        let mut scheme = LruScheme::zram(config);
        scheme.keep_page_logs();
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
    fn page_logs_stay_empty_without_the_opt_in() {
        let (mut quiet, ctx, mut clock, pages) = setup(8, 1024);
        churn(&mut quiet, &ctx, &mut clock, &pages);
        assert!(quiet.stats().compression_ops > 0);
        assert!(quiet.stats().decompression_ops > 0);
        assert!(quiet.compression_log().is_empty());
        assert!(quiet.swapin_sectors().is_empty());

        // The same churn with the logs kept fills both and changes nothing
        // else.
        let (mut logged, ctx, mut logged_clock, _) = setup(8, 1024);
        logged.keep_page_logs();
        churn(&mut logged, &ctx, &mut logged_clock, &pages);
        assert_eq!(
            logged.compression_log().len(),
            logged.stats().pages_compressed
        );
        assert_eq!(
            logged.swapin_sectors().len(),
            logged.stats().decompression_ops
        );
        assert_eq!(logged.stats(), quiet.stats());
        assert_eq!(logged_clock.now(), clock.now());
    }

    #[test]
    fn compression_log_preserves_lru_order() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096, 1024);
        scheme.keep_page_logs();
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
        let mut scheme = LruScheme::zram(config);
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
            let mut scheme = LruScheme::zram(config);
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
        let mut scheme = LruScheme::zram(config);
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
        let mut scheme = LruScheme::zram(config);
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

    #[test]
    fn resident_accesses_cost_a_dram_access() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(4096);
        scheme.register_page(pages[0], &mut clock, &ctx);
        let outcome = scheme.access(pages[0], AccessKind::Execution, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Dram);
        assert_eq!(outcome.latency, ctx.timing.dram_access(1));
    }

    #[test]
    fn background_reclaim_moves_lru_pages_to_flash() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(4096);
        for &page in pages.iter().take(50) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        assert_eq!(scheme.reclaim(10, &mut clock, &ctx), 10);
        assert_eq!(scheme.stats().flash.writes, 10);
        // The 10 least recently registered pages were evicted.
        assert_eq!(scheme.location_of(pages[0]), PageLocation::Flash);
        assert_eq!(scheme.location_of(pages[20]), PageLocation::Dram);
    }

    #[test]
    fn faulting_a_swapped_page_pays_flash_read_latency() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(4096);
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(5, &mut clock, &ctx);
        let outcome = scheme.access(pages[0], AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Flash);
        assert!(outcome.latency >= ctx.timing.flash_read(PAGE_SIZE));
        assert_eq!(scheme.location_of(pages[0]), PageLocation::Dram);
    }

    #[test]
    fn direct_reclaim_happens_when_dram_is_full() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(8);
        for &page in pages.iter().take(16) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // Only 8 pages fit; the rest forced direct reclaim to flash.
        assert_eq!(scheme.tiers().dram.resident_pages(), 8);
        assert!(scheme.stats().flash.writes >= 8);
    }

    #[test]
    fn foreground_apps_pages_are_protected_from_eviction() {
        let workloads = vec![
            WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter),
            WorkloadBuilder::new(1).scale(1024).build(AppName::Youtube),
        ];
        let ctx = SchemeContext::new(1, &workloads);
        let mut clock = SimClock::new();
        let mut scheme = LruScheme::swap(tiny_config(4096, 64));
        let twitter = workloads[0].pages[0].page;
        let youtube: Vec<PageId> = workloads[1].pages.iter().map(|p| p.page).take(20).collect();
        scheme.register_page(twitter, &mut clock, &ctx);
        for &p in &youtube {
            scheme.register_page(p, &mut clock, &ctx);
        }
        scheme.on_foreground(twitter.app());
        scheme.reclaim(5, &mut clock, &ctx);
        // Twitter's page was the global LRU victim but is foreground-protected.
        assert_eq!(scheme.location_of(twitter), PageLocation::Dram);
    }

    #[test]
    fn absent_pages_fault_without_flash_io() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(64);
        let outcome = scheme.access(pages[0], AccessKind::Execution, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Absent);
        assert_eq!(scheme.stats().flash.reads, 0);
        assert_eq!(scheme.stats().dropped_pages, 1);
    }

    /// Registers 16 pages into 8 pages of DRAM (direct reclaim), reclaims
    /// 4 more in the background, then faults every page back in.
    fn churn(scheme: &mut LruScheme, ctx: &SchemeContext, clock: &mut SimClock, pages: &[PageId]) {
        for &page in pages.iter().take(16) {
            scheme.register_page(page, clock, ctx);
        }
        scheme.reclaim(4, clock, ctx);
        for &page in pages.iter().take(16) {
            scheme.access(page, AccessKind::Relaunch, clock, ctx);
        }
    }

    #[test]
    fn swap_never_compresses_or_stores_a_zpool_entry() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(8);
        scheme.keep_page_logs();
        churn(&mut scheme, &ctx, &mut clock, &pages);
        let stats = scheme.stats();
        assert!(stats.flash.writes > 0);
        assert_eq!((stats.compression_ops, stats.decompression_ops), (0, 0));
        assert_eq!(stats.zpool.stores, 0);
        assert!(scheme.tiers().zpool.is_empty());
        assert!(scheme.compression_log().is_empty());
        assert!(scheme.swapin_sectors().is_empty());
        assert_eq!(
            clock.cpu().total_for(CpuActivity::Compression),
            CostNanos::zero()
        );
    }

    #[test]
    fn plain_zram_never_writes_flash() {
        // A four-page zpool overflows, and plain ZRAM drops the overflow.
        let (mut scheme, ctx, mut clock, pages) = setup(8, 4);
        churn(&mut scheme, &ctx, &mut clock, &pages);
        let stats = scheme.stats();
        assert!(stats.compression_ops > 0 && stats.dropped_pages > 0);
        assert_eq!(stats.flash, FlashStats::default());
        assert!(scheme.tiers().flash.is_empty());
        assert_eq!(
            clock.cpu().total_for(CpuActivity::SwapIo),
            CostNanos::zero()
        );
    }

    fn scan_cpu(clock: &SimClock) -> CostNanos {
        clock.cpu().total_for(CpuActivity::ReclaimScan)
    }

    #[test]
    fn zram_kswapd_scans_at_least_one_page_and_direct_reclaim_scans_none() {
        let (mut scheme, ctx, mut clock, pages) = setup(8, 1024);
        for &page in pages.iter().take(16) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        assert_eq!(scheme.stats().compression_ops, 8, "direct reclaim ran");
        assert_eq!(scan_cpu(&clock), CostNanos::zero());

        assert_eq!(scheme.reclaim(3, &mut clock, &ctx), 3);
        assert_eq!(scan_cpu(&clock), ctx.timing.reclaim_scan(3));
        // A pass that finds no victim still pays for one page of scan.
        let (mut empty, ctx, mut clock, _) = setup(8, 1024);
        assert_eq!(empty.reclaim(3, &mut clock, &ctx), 0);
        assert_eq!(scan_cpu(&clock), ctx.timing.reclaim_scan(1));
    }

    #[test]
    fn swap_scans_only_the_victims_it_finds() {
        let (mut scheme, ctx, mut clock, pages) = swap_setup(8);
        for &page in pages.iter().take(16) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // Eight single-page direct reclaims, one page of scan each.
        assert_eq!(scheme.stats().flash.writes, 8);
        assert_eq!(scan_cpu(&clock), ctx.timing.reclaim_scan(8));

        assert_eq!(scheme.reclaim(3, &mut clock, &ctx), 3);
        assert_eq!(scan_cpu(&clock), ctx.timing.reclaim_scan(8 + 3));
        let (mut empty, ctx, mut clock, _) = swap_setup(8);
        assert_eq!(empty.reclaim(3, &mut clock, &ctx), 0);
        assert_eq!(scan_cpu(&clock), CostNanos::zero());
    }
}
