//! Simulated time and the memory-hierarchy latency model.
//!
//! All timing in the workspace is *simulated*: experiments report what the
//! modelled Pixel-7-class device would have experienced, not how fast the
//! host laptop ran the simulation. [`SimClock`] is a monotonically advancing
//! nanosecond counter; [`MemTimingModel`] holds the latency constants of the
//! memory hierarchy (DRAM, UFS flash, page-fault fixed costs), calibrated so
//! that the *relative* costs match the paper's measurements:
//!
//! * reading relaunch data straight from DRAM is the fast case (Figure 2's
//!   `DRAM` bars, tens of milliseconds for a whole relaunch);
//! * decompression from zpool costs roughly another 1.1× on top (ZRAM bars
//!   average 2.1× DRAM);
//! * swapping in from flash is the slow case (SWAP bars).

use crate::cpu::{CpuActivity, CpuBreakdown};
use ariadne_compress::CostNanos;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in simulated time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimInstant(u128);

impl SimInstant {
    /// The simulation epoch.
    #[must_use]
    pub fn zero() -> Self {
        SimInstant(0)
    }

    /// The instant `nanos` nanoseconds after the simulation epoch (used by
    /// the event engine to compare scheduled event times against the clock).
    #[must_use]
    pub fn from_nanos(nanos: u128) -> Self {
        SimInstant(nanos)
    }

    /// Nanoseconds since the simulation epoch.
    #[must_use]
    pub fn as_nanos(self) -> u128 {
        self.0
    }

    /// The simulated duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (simulated time is
    /// monotonic, so this indicates a bug in the caller).
    #[must_use]
    pub fn duration_since(self, earlier: SimInstant) -> CostNanos {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant"
        );
        CostNanos(self.0 - earlier.0)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.0 as f64 / 1e6)
    }
}

/// The simulation clock: monotonically advancing simulated nanoseconds,
/// plus a CPU-time ledger.
///
/// Wall-clock time spent by the host is irrelevant; only explicit calls to
/// [`SimClock::advance`] move simulated time forward.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimClock {
    now: SimInstant,
    cpu: CpuBreakdown,
}

impl SimClock {
    /// A clock at the simulation epoch with an empty CPU ledger.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Advance simulated time by `duration` (elapsed latency that does not
    /// burn CPU, such as waiting for flash I/O to complete).
    pub fn advance(&mut self, duration: CostNanos) {
        self.now = SimInstant(self.now.0 + duration.as_nanos());
    }

    /// Fast-forward the clock to `instant` if it lies in the future; a past
    /// instant leaves the clock untouched (simulated time never rewinds).
    /// The discrete-event engine uses this when it pops an event scheduled
    /// later than everything the current handler has charged so far.
    pub fn fast_forward_to(&mut self, instant: SimInstant) {
        if instant > self.now {
            self.now = instant;
        }
    }

    /// Advance simulated time by `duration` *and* charge the same amount of
    /// CPU time to `activity` (for work the CPU actively performs, such as
    /// compression).
    pub fn advance_cpu(&mut self, activity: CpuActivity, duration: CostNanos) {
        self.advance(duration);
        self.cpu.charge(activity, duration);
    }

    /// Charge CPU time without advancing the global clock (work performed on
    /// another core concurrently with the measured critical path).
    pub fn charge_cpu(&mut self, activity: CpuActivity, duration: CostNanos) {
        self.cpu.charge(activity, duration);
    }

    /// The accumulated CPU ledger.
    #[must_use]
    pub fn cpu(&self) -> &CpuBreakdown {
        &self.cpu
    }
}

/// Latency constants for the modelled memory hierarchy.
///
/// Values are per 4 KiB page unless stated otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemTimingModel {
    /// Cost of servicing an access to a page already resident in DRAM
    /// (page-table walk plus the cache-miss traffic of actually using it).
    pub dram_page_access_ns: u64,
    /// Fixed software cost of taking a page fault (entering the kernel,
    /// looking up the swap entry, updating page tables).
    pub page_fault_overhead_ns: u64,
    /// Reading one 4 KiB page from the UFS flash swap area.
    pub flash_read_page_ns: u64,
    /// Moving one 4 KiB page between DRAM locations (copy during swap-in or
    /// zpool writeback staging).
    pub dram_copy_page_ns: u64,
    /// Cost of one LRU list operation (the paper cites list operations as
    /// roughly 100× cheaper than a swap operation).
    pub lru_op_ns: u64,
    /// Per-page cost of the reclaim scan loop (kswapd walking LRU lists and
    /// unmapping pages).
    pub reclaim_scan_page_ns: u64,
}

impl MemTimingModel {
    /// Constants approximating a Pixel-7-class device (LPDDR5 DRAM, UFS 3.1
    /// flash). Absolute values are representative; experiments only depend
    /// on their ratios.
    #[must_use]
    pub fn pixel7() -> Self {
        MemTimingModel {
            dram_page_access_ns: 1_500,
            page_fault_overhead_ns: 3_000,
            flash_read_page_ns: 90_000,
            dram_copy_page_ns: 1_000,
            lru_op_ns: 150,
            reclaim_scan_page_ns: 400,
        }
    }

    /// Latency of reading `pages` pages that are already resident in DRAM.
    #[must_use]
    pub fn dram_access(&self, pages: usize) -> CostNanos {
        CostNanos(self.dram_page_access_ns as u128 * pages as u128)
    }

    /// Latency of reading `bytes` from flash (rounded up to whole pages).
    #[must_use]
    pub fn flash_read(&self, bytes: usize) -> CostNanos {
        CostNanos(self.flash_read_page_ns as u128 * Self::pages_for(bytes) as u128)
    }

    /// Fixed cost of a page fault.
    #[must_use]
    pub fn page_fault(&self) -> CostNanos {
        CostNanos(self.page_fault_overhead_ns as u128)
    }

    /// Cost of `count` LRU list operations.
    #[must_use]
    pub fn lru_ops(&self, count: usize) -> CostNanos {
        CostNanos(self.lru_op_ns as u128 * count as u128)
    }

    /// Cost of scanning `pages` pages during reclaim.
    #[must_use]
    pub fn reclaim_scan(&self, pages: usize) -> CostNanos {
        CostNanos(self.reclaim_scan_page_ns as u128 * pages as u128)
    }

    /// Cost of copying `pages` pages within DRAM.
    #[must_use]
    pub fn dram_copy(&self, pages: usize) -> CostNanos {
        CostNanos(self.dram_copy_page_ns as u128 * pages as u128)
    }

    fn pages_for(bytes: usize) -> usize {
        bytes.div_ceil(crate::page::PAGE_SIZE).max(1)
    }
}

impl Default for MemTimingModel {
    fn default() -> Self {
        MemTimingModel::pixel7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        let start = clock.now();
        clock.advance(CostNanos(500));
        clock.advance_cpu(CpuActivity::Compression, CostNanos(1_000));
        assert_eq!(clock.now().as_nanos(), 1_500);
        assert_eq!(clock.now().duration_since(start), CostNanos(1_500));
        assert_eq!(
            clock.cpu().total_for(CpuActivity::Compression),
            CostNanos(1_000)
        );
    }

    #[test]
    fn charge_cpu_does_not_move_time() {
        let mut clock = SimClock::new();
        clock.charge_cpu(CpuActivity::ReclaimScan, CostNanos(999));
        assert_eq!(clock.now().as_nanos(), 0);
        assert_eq!(clock.cpu().total().as_nanos(), 999);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_on_time_travel() {
        let mut clock = SimClock::new();
        let early = clock.now();
        clock.advance(CostNanos(10));
        let _ = early.duration_since(clock.now());
    }

    #[test]
    fn flash_is_much_slower_than_dram() {
        let model = MemTimingModel::pixel7();
        assert!(model.flash_read(4096) > model.dram_access(1).saturating_add(CostNanos(10_000)));
    }

    #[test]
    fn lru_ops_are_cheap_relative_to_swap() {
        let model = MemTimingModel::pixel7();
        // The paper cites LRU operations as ~100x cheaper than swapping.
        assert!(model.flash_read(4096).as_nanos() >= 100 * model.lru_ops(1).as_nanos());
    }

    #[test]
    fn byte_counts_round_up_to_pages() {
        let model = MemTimingModel::pixel7();
        assert_eq!(model.flash_read(1), model.flash_read(4096));
        assert_eq!(model.flash_read(4097), model.flash_read(8192));
    }

    #[test]
    fn sim_instant_display_is_millis() {
        let mut clock = SimClock::new();
        clock.advance(CostNanos(2_500_000));
        assert_eq!(clock.now().to_string(), "t+2.500ms");
    }
}
