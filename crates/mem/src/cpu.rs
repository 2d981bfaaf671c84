//! CPU-time accounting, split by activity.
//!
//! The paper measures the CPU usage of the memory-reclaim path (kswapd) with
//! Perfetto and the CPU usage of compression/decompression separately
//! (Figures 3 and 11). [`CpuBreakdown`] is the ledger the simulator fills in:
//! every simulated activity that occupies a CPU core charges its cost to one
//! of the [`CpuActivity`] categories so experiments can report exactly the
//! slices the paper does.

use ariadne_compress::CostNanos;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The CPU-consuming activities tracked by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CpuActivity {
    /// Compressing anonymous data (ZRAM store path / Ariadne AdaptiveComp).
    Compression,
    /// Decompressing anonymous data (swap-in path / PreDecomp).
    Decompression,
    /// kswapd walking LRU lists, unmapping and selecting victim pages.
    ReclaimScan,
    /// Issuing and completing flash swap I/O (CPU side only).
    SwapIo,
    /// LRU/hotness list maintenance (HotnessOrg bookkeeping).
    ListMaintenance,
    /// Everything else (page-fault handling, copies).
    Other,
}

impl CpuActivity {
    /// All activities, in reporting order.
    pub const ALL: [CpuActivity; 6] = [
        CpuActivity::Compression,
        CpuActivity::Decompression,
        CpuActivity::ReclaimScan,
        CpuActivity::SwapIo,
        CpuActivity::ListMaintenance,
        CpuActivity::Other,
    ];

    /// Lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CpuActivity::Compression => "compression",
            CpuActivity::Decompression => "decompression",
            CpuActivity::ReclaimScan => "reclaim-scan",
            CpuActivity::SwapIo => "swap-io",
            CpuActivity::ListMaintenance => "list-maintenance",
            CpuActivity::Other => "other",
        }
    }
}

impl fmt::Display for CpuActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated CPU time per activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuBreakdown {
    compression: CostNanos,
    decompression: CostNanos,
    reclaim_scan: CostNanos,
    swap_io: CostNanos,
    list_maintenance: CostNanos,
    other: CostNanos,
}

impl CpuBreakdown {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        CpuBreakdown::default()
    }

    /// Charge `cost` to `activity`.
    pub fn charge(&mut self, activity: CpuActivity, cost: CostNanos) {
        *self.slot_mut(activity) += cost;
    }

    /// Total CPU time charged to `activity`.
    #[must_use]
    pub fn total_for(&self, activity: CpuActivity) -> CostNanos {
        *self.slot(activity)
    }

    /// Total CPU time across all activities.
    #[must_use]
    pub fn total(&self) -> CostNanos {
        CpuActivity::ALL.iter().map(|&a| self.total_for(a)).sum()
    }

    /// CPU time of the memory-reclaim procedure (kswapd) — the quantity
    /// reported in the paper's Figure 3. The kernel's kswapd performs both
    /// the scan and the compression of victims, so both are included.
    #[must_use]
    pub fn reclaim_related(&self) -> CostNanos {
        self.reclaim_scan + self.compression + self.swap_io
    }

    /// Difference between two ledgers (`self - earlier`), used to measure a
    /// window of activity.
    #[must_use]
    pub fn since(&self, earlier: &CpuBreakdown) -> CpuBreakdown {
        let sub = |a: CostNanos, b: CostNanos| CostNanos(a.as_nanos().saturating_sub(b.as_nanos()));
        CpuBreakdown {
            compression: sub(self.compression, earlier.compression),
            decompression: sub(self.decompression, earlier.decompression),
            reclaim_scan: sub(self.reclaim_scan, earlier.reclaim_scan),
            swap_io: sub(self.swap_io, earlier.swap_io),
            list_maintenance: sub(self.list_maintenance, earlier.list_maintenance),
            other: sub(self.other, earlier.other),
        }
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CpuBreakdown) {
        for activity in CpuActivity::ALL {
            self.charge(activity, other.total_for(activity));
        }
    }

    fn slot(&self, activity: CpuActivity) -> &CostNanos {
        match activity {
            CpuActivity::Compression => &self.compression,
            CpuActivity::Decompression => &self.decompression,
            CpuActivity::ReclaimScan => &self.reclaim_scan,
            CpuActivity::SwapIo => &self.swap_io,
            CpuActivity::ListMaintenance => &self.list_maintenance,
            CpuActivity::Other => &self.other,
        }
    }

    fn slot_mut(&mut self, activity: CpuActivity) -> &mut CostNanos {
        match activity {
            CpuActivity::Compression => &mut self.compression,
            CpuActivity::Decompression => &mut self.decompression,
            CpuActivity::ReclaimScan => &mut self.reclaim_scan,
            CpuActivity::SwapIo => &mut self.swap_io,
            CpuActivity::ListMaintenance => &mut self.list_maintenance,
            CpuActivity::Other => &mut self.other,
        }
    }
}

impl fmt::Display for CpuBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for activity in CpuActivity::ALL {
            let value = self.total_for(activity);
            if value != CostNanos::zero() {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}={:.3}ms", activity, value.as_millis_f64())?;
                first = false;
            }
        }
        if first {
            write!(f, "idle")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_activity() {
        let mut cpu = CpuBreakdown::new();
        cpu.charge(CpuActivity::Compression, CostNanos(100));
        cpu.charge(CpuActivity::Compression, CostNanos(50));
        cpu.charge(CpuActivity::Decompression, CostNanos(25));
        assert_eq!(cpu.total_for(CpuActivity::Compression), CostNanos(150));
        assert_eq!(cpu.total(), CostNanos(175));
    }

    #[test]
    fn reclaim_related_includes_compression() {
        let mut cpu = CpuBreakdown::new();
        cpu.charge(CpuActivity::ReclaimScan, CostNanos(10));
        cpu.charge(CpuActivity::Compression, CostNanos(20));
        cpu.charge(CpuActivity::SwapIo, CostNanos(5));
        cpu.charge(CpuActivity::Decompression, CostNanos(100));
        assert_eq!(cpu.reclaim_related(), CostNanos(35));
    }

    #[test]
    fn since_computes_window_deltas() {
        let mut cpu = CpuBreakdown::new();
        cpu.charge(CpuActivity::Other, CostNanos(40));
        let snapshot = cpu;
        cpu.charge(CpuActivity::Other, CostNanos(60));
        cpu.charge(CpuActivity::SwapIo, CostNanos(7));
        let delta = cpu.since(&snapshot);
        assert_eq!(delta.total_for(CpuActivity::Other), CostNanos(60));
        assert_eq!(delta.total_for(CpuActivity::SwapIo), CostNanos(7));
    }

    #[test]
    fn merge_adds_ledgers() {
        let mut a = CpuBreakdown::new();
        a.charge(CpuActivity::Compression, CostNanos(5));
        let mut b = CpuBreakdown::new();
        b.charge(CpuActivity::Compression, CostNanos(6));
        b.charge(CpuActivity::ListMaintenance, CostNanos(1));
        a.merge(&b);
        assert_eq!(a.total_for(CpuActivity::Compression), CostNanos(11));
        assert_eq!(a.total(), CostNanos(12));
    }

    #[test]
    fn display_reports_nonzero_slices_or_idle() {
        assert_eq!(CpuBreakdown::new().to_string(), "idle");
        let mut cpu = CpuBreakdown::new();
        cpu.charge(CpuActivity::SwapIo, CostNanos(2_000_000));
        assert!(cpu.to_string().contains("swap-io=2.000ms"));
    }
}
