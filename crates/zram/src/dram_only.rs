//! The optimistic `DRAM` baseline: no swapping at all.
//!
//! Figures 2, 3 and 10 of the paper include a "DRAM" configuration in which
//! main memory is assumed large enough to hold every application's anonymous
//! data, so relaunches read everything straight from DRAM and the reclaim
//! path never compresses or swaps anonymous pages. It is the lower bound the
//! paper measures Ariadne against ("within 10 % of the optimistic DRAM
//! configuration").

use crate::scheme::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, ReleasedFootprint, SchemeContext,
    SwapScheme,
};
use crate::swap_scheme_identity;
use crate::tiers::Tiers;
use ariadne_mem::{AppId, CpuActivity, PageId, SimClock};

/// The no-swap baseline. Its zpool and flash device stay empty, so its
/// statistics stay all zeros.
///
/// ```
/// use ariadne_zram::{DramOnlyScheme, MemoryConfig, SwapScheme};
///
/// let scheme = DramOnlyScheme::new(MemoryConfig::pixel7_scaled(64).with_unlimited_dram());
/// assert_eq!(scheme.name(), "DRAM");
/// ```
#[derive(Debug)]
pub struct DramOnlyScheme {
    tiers: Tiers,
}

impl DramOnlyScheme {
    /// Create the scheme. Normally used with
    /// [`MemoryConfig::with_unlimited_dram`].
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        DramOnlyScheme {
            tiers: Tiers::new(&config),
        }
    }
}

impl SwapScheme for DramOnlyScheme {
    swap_scheme_identity!("DRAM");

    fn register_page(&mut self, page: PageId, clock: &mut SimClock, ctx: &SchemeContext) {
        // With unlimited DRAM insertion cannot fail; if a finite capacity was
        // configured we silently stop tracking overflowing pages, which keeps
        // this baseline optimistic rather than erroring.
        let _ = self.tiers.dram.insert(page);
        clock.charge_cpu(CpuActivity::Other, ctx.timing.lru_ops(1));
    }

    fn access(
        &mut self,
        page: PageId,
        _kind: AccessKind,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> AccessOutcome {
        let _ = self.tiers.dram.insert(page);
        AccessOutcome::dram_hit(clock, ctx)
    }

    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize {
        // Anonymous pages are never reclaimed. The kernel still spends a
        // little CPU writing back file pages; model that as a scan over the
        // requested pages.
        let scan = ctx.timing.reclaim_scan(target_pages);
        clock.charge_cpu(CpuActivity::ReclaimScan, scan);
        0
    }

    fn on_pressure(&mut self, _: MemoryPressure, _: &mut SimClock, _: &SchemeContext) {
        // The optimistic baseline has unlimited DRAM: pressure spikes are
        // absorbed without reclaiming (or even scanning) anything.
    }

    fn release_app(
        &mut self,
        app: AppId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> ReleasedFootprint {
        let (_, footprint) = self.tiers.release_app(app, clock);
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
    use ariadne_mem::PageLocation;
    use ariadne_trace::{AppName, WorkloadBuilder};

    fn setup() -> (DramOnlyScheme, SchemeContext, SimClock, Vec<PageId>) {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).collect();
        let scheme = DramOnlyScheme::new(MemoryConfig::pixel7_scaled(1024).with_unlimited_dram());
        (scheme, ctx, SimClock::new(), pages)
    }

    #[test]
    fn accesses_are_always_dram_hits() {
        let (mut scheme, ctx, mut clock, pages) = setup();
        for &page in &pages {
            scheme.register_page(page, &mut clock, &ctx);
        }
        let outcome = scheme.access(pages[0], AccessKind::Relaunch, &mut clock, &ctx);
        assert_eq!(outcome.found_in, PageLocation::Dram);
        assert_eq!(outcome.latency, ctx.timing.dram_access(1));
    }

    #[test]
    fn reclaim_never_compresses_or_evicts() {
        let (mut scheme, ctx, mut clock, pages) = setup();
        for &page in &pages {
            scheme.register_page(page, &mut clock, &ctx);
        }
        let before = scheme.tiers().dram.resident_pages();
        assert_eq!(scheme.reclaim(100, &mut clock, &ctx), 0);
        assert_eq!(scheme.tiers().dram.resident_pages(), before);
        assert_eq!(scheme.stats(), crate::SchemeStats::default());
    }

    #[test]
    fn unknown_pages_report_absent() {
        let (scheme, _ctx, _clock, pages) = setup();
        assert_eq!(scheme.location_of(pages[0]), PageLocation::Absent);
    }
}
