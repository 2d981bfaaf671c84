//! The flash-backed `SWAP` baseline.
//!
//! Before compressed swap existed, Android (like any Linux system) could
//! reclaim anonymous pages by writing them, uncompressed, to a swap area on
//! the flash device and reading them back on demand. The paper evaluates
//! this scheme as the `SWAP` configuration: it keeps kswapd CPU usage low
//! (the CPU mostly waits for I/O) but makes relaunches slow (every miss pays
//! a flash read) and wears out the flash.

use crate::page_lru::PageLru;
use crate::scheme::{
    AccessKind, AccessOutcome, MemoryConfig, ReleasedFootprint, SchemeContext, SwapScheme,
};
use crate::swap_scheme_identity;
use crate::tiers::Tiers;
use ariadne_compress::{ChunkSize, CostNanos};
use ariadne_mem::{
    AppId, CpuActivity, FxHashSet, PageId, PageLocation, SimClock, WriteRequest, PAGE_SIZE,
};

/// The uncompressed flash-swap baseline.
///
/// ```
/// use ariadne_zram::{FlashSwapScheme, MemoryConfig, SwapScheme};
///
/// let scheme = FlashSwapScheme::new(MemoryConfig::pixel7_scaled(256));
/// assert_eq!(scheme.name(), "SWAP");
/// ```
#[derive(Debug)]
pub struct FlashSwapScheme {
    tiers: Tiers,
    lru: PageLru,
}

impl FlashSwapScheme {
    /// Create the scheme from a memory configuration.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        FlashSwapScheme {
            tiers: Tiers::new(&config),
            lru: PageLru::default(),
        }
    }

    /// Evict `target_pages` LRU victims to flash in one (possibly batched)
    /// submission. Returns (pages evicted, user-visible latency): under the
    /// queued I/O model a direct reclaim only ever pays a queue-full stall,
    /// under the synchronous model it waits for the device writes.
    fn evict_to_flash(
        &mut self,
        target_pages: usize,
        synchronous: bool,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> (usize, CostNanos) {
        let mut victims = Vec::with_capacity(target_pages);
        self.lru
            .pick_victims(self.tiers.foreground, target_pages, &mut victims);
        if victims.is_empty() {
            return (0, CostNanos::zero());
        }

        let scan = ctx.timing.reclaim_scan(victims.len());
        clock.charge_cpu(CpuActivity::ReclaimScan, scan);

        let requests = victims
            .iter()
            .map(|page| WriteRequest {
                pages: vec![*page],
                original_bytes: PAGE_SIZE,
                stored_bytes: PAGE_SIZE,
                compressed: false,
            })
            .collect();
        let result = self.tiers.write_to_flash(requests, clock, ctx);

        // Rejected pages (swap area full) stay resident.
        let rejected: FxHashSet<PageId> = result
            .dropped
            .iter()
            .flat_map(|r| r.pages.iter().copied())
            .collect();
        let mut evicted = 0usize;
        for page in victims {
            if rejected.contains(&page) {
                self.lru.insert_lru(page);
            } else {
                self.tiers.dram.remove(page);
                evicted += 1;
            }
        }

        let mut visible_latency = CostNanos::zero();
        if synchronous {
            // Direct reclaim: the faulting thread waits for the inline
            // writes (sync mode) or for a queue slot (queued mode).
            visible_latency = result.sync_latency + result.queue_stall;
            clock.advance(visible_latency);
        }
        (evicted, visible_latency)
    }

    /// Ensure there is room for one more resident page, via direct reclaim if
    /// necessary. Returns the user-visible latency incurred.
    fn make_room(&mut self, clock: &mut SimClock, ctx: &SchemeContext) -> CostNanos {
        let mut latency = CostNanos::zero();
        while self.tiers.dram.free_bytes() < PAGE_SIZE {
            let (evicted, lat) = self.evict_to_flash(1, true, clock, ctx);
            latency += lat;
            if evicted == 0 {
                break;
            }
        }
        latency
    }
}

impl SwapScheme for FlashSwapScheme {
    // Pressure spikes use the default `on_pressure` (proactive reclaim via
    // `reclaim`): flash swap has no deferred work, eviction is the whole job.
    swap_scheme_identity!("SWAP");

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
        latency += self.make_room(clock, ctx);

        let found_in = if let Some((_, fault)) = self.tiers.take_from_flash(page, clock) {
            // Pages go to flash uncompressed, so no chunk size applies.
            let (io_latency, stall) =
                self.tiers
                    .fault_flash(&fault, CostNanos::zero(), ChunkSize::k4(), clock, ctx);
            latency += io_latency;
            io_stall = stall;
            PageLocation::Flash
        } else {
            // Never swapped (or dropped): map a fresh zero page.
            latency += self.tiers.fault_lost(ctx);
            PageLocation::Absent
        };

        let _ = self.tiers.dram.insert(page);
        self.lru.touch(page);
        AccessOutcome::fault(latency, found_in, io_stall, clock, ctx)
    }

    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize {
        self.evict_to_flash(target_pages, false, clock, ctx).0
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
    use ariadne_mem::Watermarks;
    use ariadne_trace::{AppName, WorkloadBuilder};

    fn tiny_config(dram_pages: usize) -> MemoryConfig {
        let dram = dram_pages * PAGE_SIZE;
        MemoryConfig {
            dram_bytes: dram,
            zpool_bytes: 64 * PAGE_SIZE,
            flash_swap_bytes: 1024 * PAGE_SIZE,
            watermarks: Watermarks::new(dram / 8, dram / 4).unwrap(),
            ..MemoryConfig::pixel7_scaled(1024)
        }
    }

    fn setup(dram_pages: usize) -> (FlashSwapScheme, SchemeContext, SimClock, Vec<PageId>) {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        (
            FlashSwapScheme::new(tiny_config(dram_pages)),
            ctx,
            SimClock::new(),
            pages,
        )
    }

    #[test]
    fn resident_accesses_cost_a_dram_access() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096);
        scheme.register_page(pages[0], &mut clock, &ctx);
        let outcome = scheme.access(pages[0], AccessKind::Execution, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Dram);
        assert_eq!(outcome.latency, ctx.timing.dram_access(1));
    }

    #[test]
    fn background_reclaim_moves_lru_pages_to_flash() {
        let (mut scheme, ctx, mut clock, pages) = setup(4096);
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
        let (mut scheme, ctx, mut clock, pages) = setup(4096);
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
        let (mut scheme, ctx, mut clock, pages) = setup(8);
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
        let mut scheme = FlashSwapScheme::new(tiny_config(4096));
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
        let (mut scheme, ctx, mut clock, pages) = setup(64);
        let outcome = scheme.access(pages[0], AccessKind::Execution, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Absent);
        assert_eq!(scheme.stats().flash.reads, 0);
        assert_eq!(scheme.stats().dropped_pages, 1);
    }
}
