//! The flash-backed `SWAP` baseline.
//!
//! Before compressed swap existed, Android (like any Linux system) could
//! reclaim anonymous pages by writing them, uncompressed, to a swap area on
//! the flash device and reading them back on demand. The paper evaluates
//! this scheme as the `SWAP` configuration: it keeps kswapd CPU usage low
//! (the CPU mostly waits for I/O) but makes relaunches slow (every miss pays
//! a flash read) and wears out the flash.

use crate::scheme::{
    AccessKind, AccessOutcome, MemoryConfig, ReleasedFootprint, SchemeContext, SchemeStats,
    SwapScheme,
};
use crate::swap_scheme_identity;
use crate::writeback::charge_fault_io;
use ariadne_compress::CostNanos;
use ariadne_mem::{
    AppId, CpuActivity, FlashDevice, LruList, MainMemory, PageId, PageLocation, SimClock,
    WriteRequest, PAGE_SIZE,
};
use std::collections::HashSet;

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
    dram: MainMemory,
    flash: FlashDevice,
    lru: LruList<PageId>,
    foreground: Option<AppId>,
    stats: SchemeStats,
}

impl FlashSwapScheme {
    /// Create the scheme from a memory configuration.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        FlashSwapScheme {
            dram: MainMemory::new(config.dram_bytes, config.watermarks),
            flash: FlashDevice::with_io(config.flash_swap_bytes, config.io),
            lru: LruList::new(),
            foreground: None,
            stats: SchemeStats::default(),
        }
    }

    /// Pick up to `count` LRU victims, protecting the foreground app when
    /// other victims exist.
    fn pick_victims(&mut self, count: usize) -> Vec<PageId> {
        let mut victims: Vec<PageId> = Vec::with_capacity(count);
        let mut skipped: Vec<PageId> = Vec::new();
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
        for page in skipped {
            self.lru.insert_lru(page);
        }
        victims
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
        let victims = self.pick_victims(target_pages);
        if victims.is_empty() {
            return (0, CostNanos::zero());
        }

        let scan = ctx.timing.reclaim_scan(victims.len());
        clock.charge_cpu(CpuActivity::ReclaimScan, scan);

        let requests: Vec<WriteRequest> = victims
            .iter()
            .map(|page| WriteRequest {
                pages: vec![*page],
                original_bytes: PAGE_SIZE,
                stored_bytes: PAGE_SIZE,
                compressed: false,
            })
            .collect();
        let result = self.flash.submit_writes(requests, clock.now().as_nanos());
        if result.commands > 0 {
            let io_cpu = ctx.timing.lru_ops(2 * result.commands);
            clock.charge_cpu(CpuActivity::SwapIo, io_cpu);
        }

        // Rejected pages (swap area full) stay resident.
        let rejected: HashSet<PageId> = result
            .dropped
            .iter()
            .flat_map(|r| r.pages.iter().copied())
            .collect();
        let mut evicted = 0usize;
        for page in victims {
            if rejected.contains(&page) {
                self.lru.insert_lru(page);
            } else {
                self.dram.remove(page);
                evicted += 1;
            }
        }
        self.stats.io_queue_stall_time += result.queue_stall;

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
        while self.dram.free_bytes() < PAGE_SIZE {
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

        let found_in = if self.flash.contains(page) {
            PageLocation::Flash
        } else {
            PageLocation::Absent
        };
        let mut latency = ctx.timing.page_fault();
        let mut io_stall = CostNanos::zero();
        latency += self.make_room(clock, ctx);

        if let Some(slot) = self.flash.slot_for(page) {
            let fault = self
                .flash
                .fault_in(slot, clock.now().as_nanos())
                .expect("slot was just looked up");
            let (io_latency, stall) =
                charge_fault_io(&fault, CostNanos::zero(), &mut self.stats, clock, ctx);
            latency += io_latency;
            io_stall = stall;
        } else {
            // Never swapped (or dropped): model a minor fault that maps a
            // fresh zero page.
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
        self.evict_to_flash(target_pages, false, clock, ctx).0
    }

    fn on_foreground(&mut self, app: AppId) {
        self.foreground = Some(app);
    }

    fn on_background(&mut self, app: AppId) {
        if self.foreground == Some(app) {
            self.foreground = None;
        }
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
        let (flash_slots, flash_pages) = self.flash.release_app(app, clock.now().as_nanos());
        let cost = ctx.timing.lru_ops(evicted.len() + flash_pages);
        clock.charge_cpu(CpuActivity::Other, cost);
        if self.foreground == Some(app) {
            self.foreground = None;
        }
        ReleasedFootprint {
            dram_pages: evicted.len(),
            flash_slots,
            flash_pages,
            ..ReleasedFootprint::default()
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
        assert_eq!(scheme.dram().resident_pages(), 8);
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
