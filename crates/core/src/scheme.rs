//! The complete Ariadne swap scheme (§4).
//!
//! [`AriadneScheme`] wires the three techniques together behind the common
//! [`SwapScheme`] interface:
//!
//! 1. reclaim victims come from [`HotnessOrg`] — cold data of the least
//!    recently used application first;
//! 2. victims are compressed by [`AdaptiveComp`]'s rules — large multi-page
//!    chunks for cold data, medium chunks for warm, small chunks for hot;
//! 3. page faults on compressed data trigger [`PreDecompBuffer`]-backed
//!    proactive decompression of the next zpool sector.
//!
//! Compression operates on the real synthetic page bytes (so compression
//! ratios are genuine); latencies come from the calibrated cost models.

use crate::adaptive::AdaptiveComp;
use crate::config::{AriadneConfig, HotListMode};
use crate::hotness::HotnessOrg;
use crate::identification::{IdentificationMetrics, IdentificationTracker};
use crate::predecomp::PreDecompBuffer;
use ariadne_compress::{ChunkSize, CostNanos};
use ariadne_mem::FxHashMap;
use ariadne_mem::{
    AppId, CpuActivity, Hotness, PageId, PageLocation, SimClock, ZpoolEntry, PAGE_SIZE,
};
use ariadne_zram::{
    swap_scheme_identity, AccessKind, AccessOutcome, ReleasedFootprint, SchemeContext, SchemeStats,
    SwapScheme, Tiers,
};

/// Metadata remembered for pages sitting in the pre-decompression buffer so
/// they can be re-compressed (at the same size) if they are evicted unused.
#[derive(Debug, Clone, Copy)]
struct BufferedPageMeta {
    compressed_bytes: usize,
    chunk_size: ChunkSize,
    hotness: Hotness,
}

/// The hotness-aware, size-adaptive compressed swap scheme.
///
/// ```
/// use ariadne_core::{AriadneConfig, AriadneScheme};
/// use ariadne_zram::{MemoryConfig, SwapScheme};
///
/// let scheme = AriadneScheme::new(AriadneConfig::al_1k_2k_16k(MemoryConfig::pixel7_scaled(256)));
/// assert_eq!(scheme.name(), "Ariadne-AL-1K-2K-16K");
/// ```
#[derive(Debug)]
pub struct AriadneScheme {
    config: AriadneConfig,
    tiers: Tiers,
    org: HotnessOrg,
    adaptive: AdaptiveComp,
    buffer: PreDecompBuffer,
    buffer_meta: FxHashMap<PageId, BufferedPageMeta>,
    tracker: IdentificationTracker,
}

impl AriadneScheme {
    /// Create the scheme from an [`AriadneConfig`].
    #[must_use]
    pub fn new(config: AriadneConfig) -> Self {
        let mut tiers = Tiers::new(&config.memory);
        // The pre-decompression buffer lives in DRAM; reserve its capacity so
        // the memory accounting stays honest.
        let reserve = config.predecomp_buffer_pages * PAGE_SIZE;
        let _ = tiers
            .dram
            .set_reserved(reserve.min(config.memory.dram_bytes / 2));
        AriadneScheme {
            tiers,
            org: HotnessOrg::new(),
            adaptive: AdaptiveComp::new(config.sizes),
            buffer: PreDecompBuffer::new(config.predecomp_buffer_pages),
            buffer_meta: FxHashMap::default(),
            tracker: IdentificationTracker::new(),
            config,
        }
    }

    /// The configuration the scheme was built with.
    #[must_use]
    pub fn config(&self) -> &AriadneConfig {
        &self.config
    }

    /// Hot-data identification quality samples collected so far (Figure 14).
    /// Call after the workload finished; prediction windows whose relaunch
    /// completed are closed on the fly.
    pub fn identification_metrics(&mut self) -> Vec<(AppId, IdentificationMetrics)> {
        self.tracker.close_finished();
        self.tracker.completed().to_vec()
    }

    /// The hotness organization (exposed for inspection in experiments).
    #[must_use]
    pub fn hotness_org(&self) -> &HotnessOrg {
        &self.org
    }

    /// Pre-decompression buffer hit/waste counters.
    #[must_use]
    pub fn predecomp_buffer(&self) -> &PreDecompBuffer {
        &self.buffer
    }

    /// Reclaim at least `target_pages` pages. When `synchronous` the caller
    /// is waiting (direct reclaim) and the compression latency is returned as
    /// user-visible latency. Any zpool overflow moves *cold* entries out
    /// first (to flash under the ZSWAP policy, or dropping them), so
    /// Ariadne's cold-group swap-out rides the same queued submissions as
    /// ZSWAP's headroom flush.
    fn do_reclaim(
        &mut self,
        target_pages: usize,
        synchronous: bool,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> (usize, CostNanos) {
        let allow_hot = self.config.mode == HotListMode::AllLists;
        let foreground = self.tiers.foreground;
        let mut victims = self.org.pick_victims(target_pages, allow_hot, foreground);
        if victims.is_empty() && !allow_hot {
            // Last resort (§4.2): if absolutely necessary, hot data is
            // compressed too — with the small chunk size, so the penalty on a
            // later relaunch stays limited.
            victims = self.org.pick_victims(target_pages, true, foreground);
        }
        if victims.is_empty() {
            return (0, CostNanos::zero());
        }

        let scan = ctx.timing.reclaim_scan(victims.len());
        clock.charge_cpu(CpuActivity::ReclaimScan, scan);
        let list_cpu = ctx.timing.lru_ops(victims.len());
        clock.charge_cpu(CpuActivity::ListMaintenance, list_cpu);

        let mut latency = CostNanos::zero();
        for group in &self.adaptive.group_victims(&victims) {
            let cost =
                self.tiers
                    .compress(&group.pages, group.chunk_size, group.hotness, clock, ctx);
            if synchronous {
                latency += cost;
                clock.advance(cost);
            }
        }
        (victims.len(), latency)
    }

    /// Ensure there is room for `pages` more resident pages, via direct
    /// reclaim if needed. Returns the user-visible latency incurred.
    fn make_room_for(
        &mut self,
        pages: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        let mut latency = CostNanos::zero();
        while self.tiers.dram.free_bytes() < pages * PAGE_SIZE {
            let needed = (pages * PAGE_SIZE - self.tiers.dram.free_bytes()).div_ceil(PAGE_SIZE);
            let (reclaimed, cost) = self.do_reclaim(needed, true, clock, ctx);
            latency += cost;
            if reclaimed == 0 {
                break;
            }
        }
        latency
    }

    /// Decompress a zpool entry already removed from the pool and make its
    /// pages resident, after the direct reclaim that frees their room (the
    /// removal keeps that reclaim from pushing the entry out of the pool).
    /// Returns the latency.
    fn fault_in_entry(
        &mut self,
        entry: &ZpoolEntry,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        let mut latency = self.make_room_for(entry.pages.len(), clock, ctx);
        latency += self.tiers.decompress(entry, clock, ctx);

        // Proactive decompression: also decompress the entry at the next
        // sector (one page look-ahead, Insight 3) into the buffer. Its cost
        // is CPU work but not user-visible latency — that is the point.
        if self.config.predecomp_enabled {
            let next = self
                .tiers
                .zpool
                .next_by_sector(entry.sector)
                .filter(|(_, e)| e.pages.len() == 1)
                .map(|(h, _)| h);
            if let Some(handle) = next {
                let next = self.tiers.zpool.remove(handle).expect("next entry is live");
                self.buffer_entry(next, clock, ctx);
            }
        }

        for page in &entry.pages {
            let _ = self.tiers.dram.insert(*page);
        }
        latency
    }

    /// Decompress a single-page entry already removed from the zpool into
    /// the pre-decompression buffer. Background CPU work: charged to the
    /// ledger, never user-visible.
    fn buffer_entry(&mut self, entry: ZpoolEntry, clock: &mut SimClock, ctx: &SchemeContext) {
        let _ = self.tiers.decompress(&entry, clock, ctx);
        let page = entry.pages[0];
        self.buffer_meta.insert(
            page,
            BufferedPageMeta {
                compressed_bytes: entry.compressed_bytes,
                chunk_size: entry.chunk_size,
                hotness: entry.hotness,
            },
        );
        if let Some(evicted) = self.buffer.insert(page) {
            self.recompress_buffered(evicted, clock, ctx);
        }
    }

    /// A page evicted unused from the pre-decompression buffer is compressed
    /// back into the zpool (same size as before; the CPU pays again).
    fn recompress_buffered(&mut self, page: PageId, clock: &mut SimClock, ctx: &SchemeContext) {
        let Some(meta) = self.buffer_meta.remove(&page) else {
            return;
        };
        let cost = ctx.compression_cost(
            self.tiers.config().algorithm,
            meta.chunk_size,
            PAGE_SIZE,
            clock.now().as_nanos(),
        );
        self.tiers
            .stats
            .record_compression(1, PAGE_SIZE, meta.compressed_bytes, cost, clock);
        // Background work: any writeback the overflow triggers is queued
        // (or, under the sync model, paid by the background recompression
        // itself), never user-visible here.
        let _ = self
            .tiers
            .make_zpool_room(meta.compressed_bytes, clock, ctx);
        self.tiers.store(
            vec![page],
            PAGE_SIZE,
            meta.compressed_bytes,
            meta.chunk_size,
            meta.hotness,
        );
    }

    /// Update hotness organization and identification tracking for an access.
    fn note_access(&mut self, page: PageId, kind: AccessKind) {
        match kind {
            AccessKind::Launch | AccessKind::Relaunch => {
                self.org.on_relaunch_access(page);
                if kind == AccessKind::Relaunch {
                    self.tracker.on_relaunch_access(page.app(), page);
                }
            }
            AccessKind::Execution => {
                self.org.on_execution_access(page);
                self.tracker.on_execution_access(page.app(), page);
            }
        }
    }
}

impl SwapScheme for AriadneScheme {
    swap_scheme_identity!();

    fn name(&self) -> String {
        self.config.scheme_name()
    }

    fn register_page(&mut self, page: PageId, clock: &mut SimClock, ctx: &SchemeContext) {
        if self.tiers.dram.contains(page) {
            return;
        }
        let _ = self.make_room_for(1, clock, ctx);
        if self.tiers.dram.insert(page).is_ok() {
            // New anonymous data generated during execution starts cold
            // (§4.2, hotness initialization); launch accesses promote it.
            self.org.insert(page, Hotness::Cold);
            let list_cpu = ctx.timing.lru_ops(1);
            clock.charge_cpu(CpuActivity::ListMaintenance, list_cpu);
        }
    }

    fn access(
        &mut self,
        page: PageId,
        kind: AccessKind,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> AccessOutcome {
        // Fast path: already resident.
        if self.tiers.dram.contains(page) {
            self.note_access(page, kind);
            return AccessOutcome::dram_hit(clock, ctx);
        }

        // Pre-decompression buffer hit: the data is already uncompressed.
        if self.buffer.take(page) {
            self.buffer_meta.remove(&page);
            let mut latency = self.make_room_for(1, clock, ctx);
            let _ = self.tiers.dram.insert(page);
            self.note_access(page, kind);
            latency += ctx.timing.dram_copy(1);
            return AccessOutcome::fault(
                latency,
                PageLocation::PreDecompBuffer,
                CostNanos::zero(),
                clock,
                ctx,
            );
        }

        let mut latency = ctx.timing.page_fault();
        let mut io_stall = CostNanos::zero();
        let found_in = if let Some(entry) = self.tiers.take_from_zpool(page) {
            latency += self.fault_in_entry(&entry, clock, ctx);
            // Sibling pages decompressed alongside the requested one keep
            // their previous hotness; the requested page is classified by the
            // access that brought it in.
            for sibling in entry.pages.iter().filter(|p| **p != page) {
                self.org.insert(*sibling, entry.hotness);
            }
            PageLocation::Zpool
        } else if let Some((_, fault)) = self.tiers.take_from_flash(page, clock) {
            let room = self.make_room_for(fault.pages.len(), clock, ctx);
            latency += room;
            // The direct reclaim above ran while the in-flight command (or
            // the sync busy window) kept draining, so only the stall
            // remainder beyond it is charged (`overlapped`). Cold data is
            // compressed with the large chunk size before it is written
            // back, so a compressed object is the slow path Ariadne tries to
            // make rare.
            let chunk = self.adaptive.chunk_size_for(Hotness::Cold);
            let (io_latency, stall) = self.tiers.fault_flash(&fault, room, chunk, clock, ctx);
            latency += io_latency;
            io_stall = stall;
            for p in &fault.pages {
                let _ = self.tiers.dram.insert(*p);
                if *p != page {
                    self.org.insert(*p, Hotness::Cold);
                }
            }
            PageLocation::Flash
        } else {
            latency += self.make_room_for(1, clock, ctx);
            latency += self.tiers.fault_lost(ctx);
            let _ = self.tiers.dram.insert(page);
            PageLocation::Absent
        };
        self.note_access(page, kind);
        AccessOutcome::fault(latency, found_in, io_stall, clock, ctx)
    }

    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize {
        self.do_reclaim(target_pages, false, clock, ctx).0
    }

    fn on_foreground(&mut self, app: AppId) {
        self.tiers.foreground = Some(app);
        self.org.touch_app(app);
    }

    fn on_relaunch_start(&mut self, app: AppId) {
        // The hot list right now is the prediction for this relaunch.
        let predicted = self.org.hot_list(app);
        self.tracker.on_relaunch_start(app, predicted);
        // Rotate: the previous relaunch's hot data becomes warm; the accesses
        // of this relaunch will rebuild the hot list (§4.2, hotness update).
        self.org.rotate_hot_list(app);
        self.org.touch_app(app);
        self.tiers.foreground = Some(app);
    }

    fn on_relaunch_end(&mut self, app: AppId) {
        self.tracker.on_relaunch_end(app);
    }

    fn deferred_pages(&self) -> usize {
        // Deferred work for Ariadne is refilling the pre-decompression
        // buffer with compressed *hot* data, so the next relaunch finds it
        // already uncompressed (the asynchronous generalization of the
        // one-sector look-ahead of §4.3).
        if !self.config.predecomp_enabled {
            return 0;
        }
        let room = self.buffer.capacity().saturating_sub(self.buffer.len());
        if room == 0 {
            return 0;
        }
        // The engine only needs to know how much work fits in the buffer;
        // the pool maintains the hot-single count incrementally.
        self.tiers.zpool.hot_single_count().min(room)
    }

    fn drain_deferred(
        &mut self,
        budget: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> usize {
        if !self.config.predecomp_enabled {
            return 0;
        }
        let room = self.buffer.capacity().saturating_sub(self.buffer.len());
        // Hot-labelled single-page entries, oldest (lowest sector) first.
        let candidates = self.tiers.zpool.hot_single_oldest(budget.min(room));
        let mut refilled = 0usize;
        for handle in candidates {
            if self.buffer.len() >= self.buffer.capacity() {
                break;
            }
            let entry = self.tiers.zpool.remove(handle).expect("candidate is live");
            self.buffer_entry(entry, clock, ctx);
            refilled += 1;
        }
        refilled
    }

    fn release_app(
        &mut self,
        app: AppId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> ReleasedFootprint {
        let (evicted, footprint) = self.tiers.release_app(app, clock);
        // Purge the scheme-private caches too: the hotness lists stop
        // naming the app, buffered pre-decompressed pages are dropped (and
        // counted as wasted work), and the app's open identification window
        // is discarded — an interrupted relaunch is not a fair sample.
        let tracked = self.org.release_app(app);
        let buffered = self.buffer.release_app(app);
        for page in &buffered {
            self.buffer_meta.remove(page);
        }
        self.tracker.discard(app);
        let cost = ctx
            .timing
            .lru_ops(tracked.max(evicted.len()) + footprint.zpool_pages + footprint.flash_pages);
        clock.charge_cpu(CpuActivity::ListMaintenance, cost);
        ReleasedFootprint {
            buffered_pages: buffered.len(),
            ..footprint
        }
    }

    fn location_of(&self, page: PageId) -> PageLocation {
        if !self.tiers.dram.contains(page) && self.buffer.contains(page) {
            PageLocation::PreDecompBuffer
        } else {
            self.tiers.location_of(page)
        }
    }

    fn stats(&self) -> SchemeStats {
        SchemeStats {
            predecomp_hits: self.buffer.hits(),
            predecomp_wasted: self.buffer.wasted(),
            ..self.tiers.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SizeConfig;
    use ariadne_mem::Watermarks;
    use ariadne_trace::{AppName, WorkloadBuilder};
    use ariadne_zram::{MemoryConfig, WritebackPolicy};

    fn tiny_memory(dram_pages: usize, zpool_pages: usize) -> MemoryConfig {
        let dram = dram_pages * PAGE_SIZE;
        MemoryConfig {
            dram_bytes: dram,
            zpool_bytes: zpool_pages * PAGE_SIZE,
            flash_swap_bytes: 4096 * PAGE_SIZE,
            watermarks: Watermarks::new(dram / 8, dram / 4).unwrap(),
            ..MemoryConfig::pixel7_scaled(1024)
        }
    }

    fn setup(config: AriadneConfig) -> (AriadneScheme, SchemeContext, SimClock, Vec<PageId>) {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        (AriadneScheme::new(config), ctx, SimClock::new(), pages)
    }

    /// The pages held in the zpool, in sector (compression) order.
    fn zpool_pages(scheme: &AriadneScheme) -> Vec<PageId> {
        scheme
            .tiers
            .zpool
            .iter()
            .flat_map(|(_, entry)| entry.pages.iter().copied())
            .collect()
    }

    #[test]
    fn launch_accesses_build_the_hot_list() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024));
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        for &page in pages.iter().take(10) {
            scheme.access(page, AccessKind::Launch, &mut clock, &ctx);
        }
        let app = pages[0].app();
        let (hot, _, cold) = scheme.hotness_org().list_sizes(app);
        assert_eq!(hot, 10);
        assert_eq!(cold, 10);
    }

    #[test]
    fn reclaim_takes_cold_pages_and_uses_large_chunks() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024));
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // Pages 0..10 become hot; the rest stay cold.
        for &page in pages.iter().take(10) {
            scheme.access(page, AccessKind::Launch, &mut clock, &ctx);
        }
        assert_eq!(scheme.reclaim(8, &mut clock, &ctx), 8);
        // Hot pages survived in DRAM; cold pages were compressed.
        assert!(pages[..10]
            .iter()
            .all(|&p| scheme.location_of(p) == PageLocation::Dram));
        // Cold data was grouped: 8 pages with 16K chunks -> 2 entries of 4 pages.
        assert_eq!(scheme.stats().compression_ops, 2);
        assert_eq!(scheme.stats().pages_compressed, 8);
    }

    #[test]
    fn ehl_keeps_hot_data_uncompressed_until_last_resort() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024));
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(10) {
            scheme.register_page(page, &mut clock, &ctx);
            scheme.access(page, AccessKind::Launch, &mut clock, &ctx);
        }
        // Everything is hot; a normal reclaim pass in EHL mode still works
        // via the last-resort path but only when nothing else is available.
        assert_eq!(scheme.reclaim(2, &mut clock, &ctx), 2);
        // Small chunk size was used for the hot victims, one page per entry.
        let entries: Vec<(usize, ChunkSize)> = scheme
            .tiers
            .zpool
            .iter()
            .map(|(_, entry)| (entry.pages.len(), entry.chunk_size))
            .collect();
        assert_eq!(entries, vec![(1, ChunkSize::k1()); 2]);
    }

    #[test]
    fn faulting_cold_data_decompresses_the_whole_group() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024)).without_predecomp();
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(8, &mut clock, &ctx);
        let group = zpool_pages(&scheme)[..4].to_vec();
        let outcome = scheme.access(group[0], AccessKind::Execution, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Zpool);
        // The other pages of the same 16K group came back to DRAM too.
        let resident_siblings = group
            .iter()
            .filter(|p| scheme.location_of(**p) == PageLocation::Dram)
            .count();
        assert_eq!(resident_siblings, 4);
    }

    #[test]
    fn predecomp_hits_avoid_decompression_latency() {
        let sizes = SizeConfig::new(ChunkSize::k1(), ChunkSize::k2(), ChunkSize::k4());
        let config = AriadneConfig::new(sizes, HotListMode::AllLists, tiny_memory(4096, 1024))
            .with_predecomp_buffer(4);
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // Warm them so they are compressed as single-page entries (required
        // for the one-page look-ahead).
        for &page in pages.iter().take(40) {
            scheme.access(page, AccessKind::Execution, &mut clock, &ctx);
        }
        scheme.reclaim(16, &mut clock, &ctx);
        let compressed = zpool_pages(&scheme);
        assert!(compressed.len() >= 2);

        // Fault the first compressed page: its zpool-sector neighbour should
        // be pre-decompressed into the buffer.
        let first = compressed[0];
        let second = compressed[1];
        scheme.access(first, AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(scheme.location_of(second), PageLocation::PreDecompBuffer);

        // Accessing the neighbour is now a buffer hit with near-DRAM latency.
        let outcome = scheme.access(second, AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::PreDecompBuffer);
        assert_eq!(scheme.stats().predecomp_hits, 1);
        let decomp = ctx.latency.decompression_cost(
            ariadne_compress::Algorithm::Lzo,
            ChunkSize::k2(),
            PAGE_SIZE,
        );
        assert!(outcome.latency < decomp + ctx.timing.page_fault());
    }

    #[test]
    fn direct_reclaim_cost_appears_on_the_fault_path() {
        let config = AriadneConfig::al_1k_2k_16k(tiny_memory(16, 1024)).without_predecomp();
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        // Fill DRAM beyond capacity so every further touch forces reclaim.
        for &page in pages.iter().take(30) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        assert!(scheme.stats().compression_ops > 0);
        let compressed = zpool_pages(&scheme)[0];
        let outcome = scheme.access(compressed, AccessKind::Relaunch, &mut clock, &ctx);
        assert!(outcome.latency > ctx.timing.dram_access(1));
    }

    #[test]
    fn identification_metrics_reflect_hot_list_quality() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024));
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        let app = pages[0].app();
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        // First relaunch touches pages 0..10.
        scheme.on_relaunch_start(app);
        for &page in pages.iter().take(10) {
            scheme.access(page, AccessKind::Relaunch, &mut clock, &ctx);
        }
        scheme.on_relaunch_end(app);
        // Second relaunch touches pages 0..8 (80 % overlap).
        scheme.on_relaunch_start(app);
        for &page in pages.iter().take(8) {
            scheme.access(page, AccessKind::Relaunch, &mut clock, &ctx);
        }
        scheme.on_relaunch_end(app);

        let metrics = scheme.identification_metrics();
        // The first window has an empty prediction (nothing was hot yet); the
        // second window predicted pages 0..10 and saw 0..8 used.
        let last = metrics.last().unwrap().1;
        assert!((last.coverage - 1.0).abs() < 1e-9);
        assert!((last.accuracy - 0.8).abs() < 1e-9);
    }

    #[test]
    fn stats_expose_real_compression_ratios() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024));
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(64) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(32, &mut clock, &ctx);
        let ratio = scheme.stats().compression_ratio();
        assert!(ratio > 1.2 && ratio < 30.0, "ratio {ratio}");
    }

    #[test]
    fn zswap_writeback_sends_cold_overflow_to_flash() {
        let memory = tiny_memory(4096, 4).with_writeback(WritebackPolicy::WritebackToFlash);
        let config = AriadneConfig::ehl_1k_2k_16k(memory);
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(64) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(48, &mut clock, &ctx);
        assert!(scheme.stats().flash.writes > 0);
        // Writeback preserved the data: nothing was dropped, and a page that
        // went to flash can still be faulted back in.
        assert_eq!(scheme.stats().dropped_pages, 0);
        let written_back = pages
            .iter()
            .take(64)
            .find(|&&p| scheme.location_of(p) == PageLocation::Flash)
            .copied()
            .expect("some page was written back to flash");
        let outcome = scheme.access(written_back, AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Flash);
        assert_eq!(scheme.location_of(written_back), PageLocation::Dram);
    }

    #[test]
    fn drain_refills_the_predecomp_buffer_with_hot_data() {
        let sizes = SizeConfig::new(ChunkSize::k1(), ChunkSize::k2(), ChunkSize::k16());
        let config = AriadneConfig::new(sizes, HotListMode::AllLists, tiny_memory(4096, 1024))
            .with_predecomp_buffer(4);
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        for &page in pages.iter().take(10) {
            scheme.access(page, AccessKind::Launch, &mut clock, &ctx);
        }
        // Compress everything, hot data included (AL mode allows it).
        scheme.reclaim(40, &mut clock, &ctx);
        let deferred = scheme.deferred_pages();
        assert!(deferred > 0, "hot compressed entries should be drainable");

        let drained = scheme.drain_deferred(4, &mut clock, &ctx);
        assert!(drained > 0 && drained <= 4);
        // A drained page is served from the buffer with no fault latency.
        let buffered = pages
            .iter()
            .take(10)
            .find(|&&p| scheme.location_of(p) == PageLocation::PreDecompBuffer)
            .copied()
            .expect("a hot page was pre-decompressed into the buffer");
        let outcome = scheme.access(buffered, AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::PreDecompBuffer);
    }

    #[test]
    fn drain_is_disabled_without_predecomp() {
        let config = AriadneConfig::al_1k_2k_16k(tiny_memory(4096, 1024)).without_predecomp();
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(20) {
            scheme.register_page(page, &mut clock, &ctx);
            scheme.access(page, AccessKind::Launch, &mut clock, &ctx);
        }
        scheme.reclaim(20, &mut clock, &ctx);
        assert_eq!(scheme.deferred_pages(), 0);
        assert_eq!(scheme.drain_deferred(8, &mut clock, &ctx), 0);
    }

    #[test]
    fn release_app_purges_every_tier_including_hotness_and_buffer() {
        let sizes = SizeConfig::new(ChunkSize::k1(), ChunkSize::k2(), ChunkSize::k16());
        let memory = tiny_memory(4096, 8).with_writeback(WritebackPolicy::WritebackToFlash);
        let config =
            AriadneConfig::new(sizes, HotListMode::AllLists, memory).with_predecomp_buffer(4);
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        let app = pages[0].app();
        for &page in pages.iter().take(40) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        for &page in pages.iter().take(10) {
            scheme.access(page, AccessKind::Launch, &mut clock, &ctx);
        }
        // Compress (hot included), overflowing the tiny pool to flash, then
        // refill the pre-decompression buffer, and fault a few pages back so
        // every tier — DRAM, hotness lists, buffer, zpool, flash — holds
        // data of the app at kill time.
        scheme.reclaim(40, &mut clock, &ctx);
        scheme.drain_deferred(4, &mut clock, &ctx);
        for &page in pages.iter().skip(20).take(4) {
            scheme.access(page, AccessKind::Execution, &mut clock, &ctx);
        }
        assert!(scheme.stats().flash.writes > 0);
        assert!(!scheme.predecomp_buffer().is_empty());
        assert!(scheme.hotness_org().total_pages() > 0);

        let footprint = scheme.release_app(app, &mut clock, &ctx);
        assert!(footprint.total_pages() > 0);
        assert!(footprint.buffered_pages > 0);
        for &page in pages.iter().take(40) {
            assert_eq!(scheme.location_of(page), PageLocation::Absent);
        }
        assert_eq!(scheme.hotness_org().total_pages(), 0);
        assert!(scheme.predecomp_buffer().is_empty());
        scheme.leak_check().unwrap();
        assert!(scheme.release_app(app, &mut clock, &ctx).is_empty());
    }

    #[test]
    fn release_app_with_in_flight_cold_swap_out_stays_leak_free() {
        let memory = tiny_memory(4096, 4).with_writeback(WritebackPolicy::WritebackToFlash);
        let config = AriadneConfig::ehl_1k_2k_16k(memory);
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        for &page in pages.iter().take(64) {
            scheme.register_page(page, &mut clock, &ctx);
        }
        scheme.reclaim(48, &mut clock, &ctx);
        assert!(
            scheme.tiers().flash.next_completion().is_some(),
            "cold-group swap-out should still be in flight"
        );
        scheme.release_app(pages[0].app(), &mut clock, &ctx);
        scheme.leak_check().unwrap();
        while let Some(at) = scheme.tiers().flash.next_completion() {
            scheme.tiers_mut().flash.retire_completed(at);
        }
        scheme.leak_check().unwrap();
    }

    #[test]
    fn absent_pages_still_become_resident() {
        let config = AriadneConfig::ehl_1k_2k_16k(tiny_memory(4096, 1024));
        let (mut scheme, ctx, mut clock, pages) = setup(config);
        let outcome = scheme.access(pages[0], AccessKind::Execution, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Absent);
        assert_eq!(scheme.location_of(pages[0]), PageLocation::Dram);
    }
}
