//! Shared zpool-overflow writeback machinery.
//!
//! ZRAM/ZSWAP (`crates/zram`) and Ariadne (`crates/core`) used to carry
//! near-identical copies of the same logic: pick a zpool victim (oldest
//! entry, optionally preferring cold data), then either drop it or write it
//! back to the flash swap area. [`ZpoolWriteback`] is the single shared
//! implementation, extended for the asynchronous flash model: under
//! [`FlashIoMode::Queued`](ariadne_mem::FlashIoMode) evicted entries are
//! packed into batched write submissions that overlap foreground execution,
//! and the only user-visible cost is a queue-full stall; under
//! [`FlashIoMode::Sync`](ariadne_mem::FlashIoMode) the device time is
//! returned so the caller can charge it inline (the legacy behaviour the
//! `writeback` experiment compares against).
//!
//! The helper lives here rather than in `ariadne-core` because the crate
//! graph points the other way: `ariadne-core` depends on `ariadne-zram` for
//! the [`SwapScheme`](crate::SwapScheme) contract, so this is the lowest
//! crate both schemes can share.

use crate::scheme::{SchemeContext, SchemeStats, WritebackPolicy};
use ariadne_compress::CostNanos;
use ariadne_mem::{
    CpuActivity, FaultIn, FlashDevice, SimClock, WriteRequest, Zpool, ZpoolEntry, ZpoolHandle,
};

/// Account the device-side cost of a flash fault — the read/stall logic
/// every flash-backed scheme shares:
///
/// * an in-flight fault (or a sync-mode read queued behind inline writes)
///   stalls for [`FaultIn::stall`], minus `overlapped` — work the caller
///   already performed (and charged) while the command kept draining, such
///   as a direct reclaim run after the fault was taken;
/// * an at-rest fault pays the device read latency;
/// * submission bookkeeping costs a couple of list operations of CPU.
///
/// Returns `(latency contribution, stall portion)`; the caller adds the
/// former to the fault latency and reports the latter as
/// [`AccessOutcome::io_stall`](crate::AccessOutcome::io_stall).
pub fn charge_fault_io(
    fault: &FaultIn,
    overlapped: CostNanos,
    stats: &mut SchemeStats,
    clock: &mut SimClock,
    ctx: &SchemeContext,
) -> (CostNanos, CostNanos) {
    let stall = CostNanos(fault.stall.as_nanos().saturating_sub(overlapped.as_nanos()));
    let mut latency = CostNanos::zero();
    if stall > CostNanos::zero() {
        latency += stall;
        stats.io_stall_time += stall;
    }
    if !fault.from_in_flight {
        latency += ctx.timing.flash_read(fault.stored_bytes);
    }
    let io_cpu = ctx.timing.lru_ops(2);
    clock.charge_cpu(CpuActivity::SwapIo, io_cpu);
    (latency, stall)
}

/// A borrowed view over a scheme's zpool, flash device and statistics,
/// bundling the shared victim-selection and flush logic.
pub struct ZpoolWriteback<'a> {
    /// The compressed pool overflow victims come from.
    pub zpool: &'a mut Zpool,
    /// The flash swap device written-back entries go to.
    pub flash: &'a mut FlashDevice,
    /// Drop overflow or write it back.
    pub policy: WritebackPolicy,
    /// Prefer cold entries as victims, falling back to the oldest entry of
    /// any hotness (Ariadne); `false` selects strictly oldest-first
    /// (ZRAM/ZSWAP, which track no hotness in the pool).
    pub prefer_cold: bool,
    /// The owning scheme's statistics ledger.
    pub stats: &'a mut SchemeStats,
}

impl ZpoolWriteback<'_> {
    /// The next writeback victim: the oldest (lowest-sector) cold entry when
    /// [`ZpoolWriteback::prefer_cold`] is set and one exists, otherwise the
    /// oldest entry of any hotness.
    #[must_use]
    pub fn select_victim(&self) -> Option<ZpoolHandle> {
        if self.prefer_cold {
            if let Some((handle, _)) = self.zpool.oldest_cold() {
                return Some(handle);
            }
        }
        self.zpool.oldest().map(|(handle, _)| handle)
    }

    /// Evict victims until `incoming_bytes` fits in the zpool, flushing them
    /// according to the policy. Returns the user-visible latency the caller
    /// must charge (inline device time under the synchronous model, queue
    /// stalls under the queued model, zero when entries are dropped).
    pub fn make_room(
        &mut self,
        incoming_bytes: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        let mut victims = Vec::new();
        while self.zpool.would_overflow(incoming_bytes) && !self.zpool.is_empty() {
            let Some(handle) = self.select_victim() else {
                break;
            };
            victims.push(self.zpool.remove(handle).expect("victim handle is live"));
        }
        self.flush_entries(victims, clock, ctx)
    }

    /// Flush zpool entries above `threshold_bytes`, up to `budget_pages`
    /// pages, as one batched submission (the ZSWAP background headroom
    /// flush). Returns the number of pages flushed; any latency is the
    /// background flusher's own stall and is *not* charged to the caller.
    pub fn flush_above(
        &mut self,
        threshold_bytes: usize,
        budget_pages: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> usize {
        let mut victims = Vec::new();
        let mut pages = 0usize;
        while pages < budget_pages && self.zpool.used_bytes() > threshold_bytes {
            let Some(handle) = self.select_victim() else {
                break;
            };
            let entry = self.zpool.remove(handle).expect("victim handle is live");
            pages += entry.pages.len().max(1);
            victims.push(entry);
        }
        self.flush_entries(victims, clock, ctx);
        pages
    }

    /// Flush already-removed zpool entries according to the policy. Returns
    /// the user-visible latency of the flush (see
    /// [`ZpoolWriteback::make_room`]).
    pub fn flush_entries(
        &mut self,
        entries: Vec<ZpoolEntry>,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        if entries.is_empty() {
            return CostNanos::zero();
        }
        match self.policy {
            WritebackPolicy::DropOldest => {
                for entry in &entries {
                    self.stats.dropped_pages += entry.pages.len();
                }
                CostNanos::zero()
            }
            WritebackPolicy::WritebackToFlash => {
                let requests: Vec<WriteRequest> = entries
                    .into_iter()
                    .map(|entry| WriteRequest {
                        pages: entry.pages,
                        original_bytes: entry.original_bytes,
                        stored_bytes: entry.compressed_bytes,
                        compressed: true,
                    })
                    .collect();
                let result = self.flash.submit_writes(requests, clock.now().as_nanos());
                // Submission overhead: a couple of list operations per
                // device command (batching amortizes it; a fully rejected
                // submission issued no command and costs nothing).
                if result.commands > 0 {
                    let io_cpu = ctx.timing.lru_ops(2 * result.commands);
                    clock.charge_cpu(CpuActivity::SwapIo, io_cpu);
                }
                for dropped in &result.dropped {
                    // Even the writeback target is full: the data is lost.
                    self.stats.dropped_pages += dropped.pages.len();
                }
                self.stats.io_queue_stall_time += result.queue_stall;
                result.sync_latency + result.queue_stall
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::MemoryConfig;
    use ariadne_compress::ChunkSize;
    use ariadne_mem::{AppId, FlashIoConfig, Hotness, PageId, Pfn, PAGE_SIZE};
    use ariadne_trace::{AppName, WorkloadBuilder};

    fn page(pfn: u64) -> PageId {
        PageId::new(AppId::new(0), Pfn::new(pfn))
    }

    fn store(zpool: &mut Zpool, pfn: u64, hotness: Hotness) {
        zpool
            .store(vec![page(pfn)], PAGE_SIZE, 2048, ChunkSize::k4(), hotness)
            .unwrap();
    }

    fn harness(policy: WritebackPolicy) -> (Zpool, FlashDevice, SchemeStats, SchemeContext) {
        let _ = policy;
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        (
            Zpool::new(4 * PAGE_SIZE),
            FlashDevice::with_io(64 * PAGE_SIZE, FlashIoConfig::ufs31()),
            SchemeStats::default(),
            ctx,
        )
    }

    #[test]
    fn cold_entries_are_preferred_victims() {
        let (mut zpool, mut flash, mut stats, _ctx) = harness(WritebackPolicy::WritebackToFlash);
        store(&mut zpool, 1, Hotness::Hot);
        store(&mut zpool, 2, Hotness::Cold);
        let wb = ZpoolWriteback {
            zpool: &mut zpool,
            flash: &mut flash,
            policy: WritebackPolicy::WritebackToFlash,
            prefer_cold: true,
            stats: &mut stats,
        };
        let victim = wb.select_victim().unwrap();
        assert!(wb.zpool.entry(victim).unwrap().pages.contains(&page(2)));
    }

    #[test]
    fn without_cold_preference_the_oldest_entry_wins() {
        let (mut zpool, mut flash, mut stats, _ctx) = harness(WritebackPolicy::WritebackToFlash);
        store(&mut zpool, 1, Hotness::Hot);
        store(&mut zpool, 2, Hotness::Cold);
        let wb = ZpoolWriteback {
            zpool: &mut zpool,
            flash: &mut flash,
            policy: WritebackPolicy::WritebackToFlash,
            prefer_cold: false,
            stats: &mut stats,
        };
        let victim = wb.select_victim().unwrap();
        assert!(wb.zpool.entry(victim).unwrap().pages.contains(&page(1)));
    }

    #[test]
    fn make_room_batches_writeback_into_queued_commands() {
        let (mut zpool, mut flash, mut stats, ctx) = harness(WritebackPolicy::WritebackToFlash);
        for pfn in 0..4 {
            store(&mut zpool, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let latency = ZpoolWriteback {
            zpool: &mut zpool,
            flash: &mut flash,
            policy: WritebackPolicy::WritebackToFlash,
            prefer_cold: false,
            stats: &mut stats,
        }
        .make_room(3 * PAGE_SIZE, &mut clock, &ctx);
        // Queued mode: submission is free of user-visible latency.
        assert_eq!(latency, CostNanos::zero());
        assert!(flash.in_flight_commands() >= 1);
        assert!(flash.stats().writes >= 3);
        // Batching: fewer commands than objects.
        assert!(flash.stats().commands < flash.stats().writes);
        assert_eq!(stats.dropped_pages, 0);
    }

    #[test]
    fn sync_mode_reports_inline_device_time() {
        let (mut zpool, _, mut stats, ctx) = harness(WritebackPolicy::WritebackToFlash);
        let mut flash = FlashDevice::with_io(64 * PAGE_SIZE, FlashIoConfig::sync());
        for pfn in 0..4 {
            store(&mut zpool, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let latency = ZpoolWriteback {
            zpool: &mut zpool,
            flash: &mut flash,
            policy: WritebackPolicy::WritebackToFlash,
            prefer_cold: false,
            stats: &mut stats,
        }
        .make_room(3 * PAGE_SIZE, &mut clock, &ctx);
        assert!(latency > CostNanos::zero());
        assert_eq!(flash.in_flight_commands(), 0);
    }

    #[test]
    fn drop_policy_loses_the_data_without_latency() {
        let (mut zpool, mut flash, mut stats, ctx) = harness(WritebackPolicy::DropOldest);
        for pfn in 0..4 {
            store(&mut zpool, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let latency = ZpoolWriteback {
            zpool: &mut zpool,
            flash: &mut flash,
            policy: WritebackPolicy::DropOldest,
            prefer_cold: false,
            stats: &mut stats,
        }
        .make_room(3 * PAGE_SIZE, &mut clock, &ctx);
        assert_eq!(latency, CostNanos::zero());
        assert!(stats.dropped_pages >= 3);
        assert_eq!(flash.stats().writes, 0);
    }

    #[test]
    fn flush_above_respects_threshold_and_budget() {
        let (mut zpool, mut flash, mut stats, ctx) = harness(WritebackPolicy::WritebackToFlash);
        for pfn in 0..4 {
            store(&mut zpool, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let flushed = ZpoolWriteback {
            zpool: &mut zpool,
            flash: &mut flash,
            policy: WritebackPolicy::WritebackToFlash,
            prefer_cold: false,
            stats: &mut stats,
        }
        .flush_above(PAGE_SIZE, 2, &mut clock, &ctx);
        assert_eq!(flushed, 2);
        assert_eq!(zpool.len(), 2);
    }

    #[test]
    fn memory_config_io_override_round_trips() {
        let config =
            MemoryConfig::pixel7_scaled(64).with_io(FlashIoConfig::sync().with_queue_depth(4));
        assert_eq!(config.io.queue_depth, 4);
        assert_eq!(config.io.mode, ariadne_mem::FlashIoMode::Sync);
    }
}
