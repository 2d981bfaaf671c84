//! The memory tiers every swap scheme shares: DRAM, the compressed pool
//! (zpool) and the flash swap device.
//!
//! The four schemes differ only in *policy* — which pages they evict (LRU
//! or Ariadne's hotness lists), at which chunk size, where direct reclaim
//! runs and what they decompress ahead of use. The tier operations
//! underneath are ZRAM's and identical for all of them, so [`Tiers`] holds
//! the tiers plus the scheme's foreground app and [`SchemeStats`] ledger,
//! and writes each tier move and each fault price once:
//!
//! * [`Tiers::compress`] moves pages from DRAM into the zpool, and
//!   [`Tiers::decompress`] prices bringing a faulted entry back;
//! * [`Tiers::make_zpool_room`] and [`Tiers::flush_zpool_above`] evict zpool
//!   entries (oldest cold entry first, else the oldest entry) and either drop
//!   them or write them back through [`Tiers::write_to_flash`]. Under
//!   [`FlashIoMode::Queued`](ariadne_mem::FlashIoMode) the writes are batched
//!   submissions that overlap foreground execution and the only user-visible
//!   cost is a queue-full stall; under
//!   [`FlashIoMode::Sync`](ariadne_mem::FlashIoMode) the device time is
//!   returned so the caller charges it inline;
//! * [`Tiers::fault_flash`] and [`Tiers::fault_lost`] price a fault on
//!   flash-resident and on dropped data.
//!
//! The type lives here rather than in `ariadne-core` because the crate graph
//! points the other way: `ariadne-core` depends on `ariadne-zram` for the
//! [`SwapScheme`](crate::SwapScheme) contract, so this is the lowest crate
//! every scheme can share.

use crate::scheme::{MemoryConfig, ReleasedFootprint, SchemeContext, SchemeStats, WritebackPolicy};
use ariadne_compress::{ChunkSize, CostNanos};
use ariadne_mem::{
    AppId, CpuActivity, FaultIn, FlashDevice, FlushResult, Hotness, MainMemory, PageId,
    PageLocation, SimClock, SwapSlot, WriteRequest, Zpool, ZpoolEntry,
};

/// DRAM, the zpool and the flash swap device of one scheme, with the
/// scheme's foreground app and statistics ledger.
#[derive(Debug)]
pub struct Tiers {
    /// Resident anonymous memory.
    pub dram: MainMemory,
    /// The compressed pool.
    pub zpool: Zpool,
    /// The flash swap area.
    pub flash: FlashDevice,
    /// The app in the foreground, whose pages reclaim passes over while
    /// others remain.
    pub foreground: Option<AppId>,
    /// The scheme's codec, drop and stall counters.
    pub stats: SchemeStats,
    config: MemoryConfig,
}

impl Tiers {
    /// Empty tiers sized by `config`. The zpool and the flash device
    /// allocate nothing until they are first written.
    #[must_use]
    pub fn new(config: &MemoryConfig) -> Self {
        Tiers {
            dram: MainMemory::new(config.dram_bytes, config.watermarks),
            zpool: Zpool::new(config.zpool_bytes),
            flash: FlashDevice::with_io(config.flash_swap_bytes, config.io),
            foreground: None,
            stats: SchemeStats::default(),
            config: *config,
        }
    }

    /// The configuration the tiers were built from.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Where `page` currently lives.
    #[must_use]
    pub fn location_of(&self, page: PageId) -> PageLocation {
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

    /// Lifetime statistics: the ledger, with the zpool and flash counters
    /// read from the structures that own them.
    #[must_use]
    pub fn stats(&self) -> SchemeStats {
        SchemeStats {
            zpool: self.zpool.stats(),
            flash: self.flash.stats(),
            ..self.stats
        }
    }

    /// Compress `pages` as one entry of `chunk`-sized chunks into the zpool
    /// and drop them from DRAM. Returns the compression latency plus any
    /// user-visible cost of the zpool overflow it caused.
    pub fn compress(
        &mut self,
        pages: &[PageId],
        chunk: ChunkSize,
        hotness: Hotness,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        // The oracle memoizes the codec run: recompressing the same pages
        // (relaunch storms do this constantly) is a hash lookup, not a
        // synthesis + codec pass. Sizes are bit-identical either way.
        let outcome = ctx.compress_pages(pages, self.config.algorithm, chunk);
        self.stats.record_oracle(&outcome);
        let cost = ctx.compression_cost(
            self.config.algorithm,
            chunk,
            outcome.original_len,
            clock.now().as_nanos(),
        );
        let writeback = self.make_zpool_room(outcome.compressed_len, clock, ctx);
        self.store(
            pages.to_vec(),
            outcome.original_len,
            outcome.compressed_len,
            chunk,
            hotness,
        );
        for &page in pages {
            self.dram.remove(page);
        }
        self.stats.record_compression(
            pages.len(),
            outcome.original_len,
            outcome.compressed_len,
            cost,
            clock,
        );
        cost + writeback
    }

    /// Store an entry in the zpool, dropping its data if the pool cannot
    /// take it even after [`Tiers::make_zpool_room`] (tiny test
    /// configurations).
    pub fn store(
        &mut self,
        pages: Vec<PageId>,
        original_bytes: usize,
        compressed_bytes: usize,
        chunk: ChunkSize,
        hotness: Hotness,
    ) {
        let count = pages.len();
        if self
            .zpool
            .store(pages, original_bytes, compressed_bytes, chunk, hotness)
            .is_err()
        {
            self.stats.dropped_pages += count;
        }
    }

    /// The zpool entry holding `page`, removed from the pool.
    pub fn take_from_zpool(&mut self, page: PageId) -> Option<ZpoolEntry> {
        let handle = self.zpool.handle_for(page)?;
        Some(self.zpool.remove(handle).expect("entry is live"))
    }

    /// Decompress an entry already removed from the zpool. Returns the
    /// latency.
    pub fn decompress(
        &mut self,
        entry: &ZpoolEntry,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        self.decompress_bytes(
            entry.chunk_size,
            entry.original_bytes,
            entry.pages.len(),
            clock,
            ctx,
        )
    }

    fn decompress_bytes(
        &mut self,
        chunk: ChunkSize,
        original_bytes: usize,
        pages: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        let cost = ctx.decompression_cost(
            self.config.algorithm,
            chunk,
            original_bytes,
            clock.now().as_nanos(),
        );
        self.stats.record_decompression(pages, cost, clock);
        cost
    }

    /// The flash object holding `page` and its slot, faulted out of the
    /// device at the current instant (its write may still be in flight).
    pub fn take_from_flash(
        &mut self,
        page: PageId,
        clock: &SimClock,
    ) -> Option<(SwapSlot, FaultIn)> {
        let slot = self.flash.slot_for(page)?;
        let fault = self.flash.fault_in(slot, clock.now().as_nanos());
        Some((slot, fault.expect("slot was just looked up")))
    }

    /// The price of a fault on flash-resident data:
    ///
    /// * an in-flight fault (or a sync-mode read queued behind inline
    ///   writes) stalls for [`FaultIn::stall`], minus `overlapped` — work
    ///   the caller already performed (and charged) while the command kept
    ///   draining, such as a direct reclaim run after the fault was taken;
    /// * an at-rest fault pays the device read latency;
    /// * submission bookkeeping costs a couple of list operations of CPU;
    /// * a compressed object is decompressed, in `chunk`-sized chunks.
    ///
    /// Returns `(latency, stall portion)`; the caller adds the former to
    /// the fault latency and reports the latter as
    /// [`AccessOutcome::io_stall`](crate::AccessOutcome::io_stall).
    pub fn fault_flash(
        &mut self,
        fault: &FaultIn,
        overlapped: CostNanos,
        chunk: ChunkSize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> (CostNanos, CostNanos) {
        let stall = CostNanos(fault.stall.as_nanos().saturating_sub(overlapped.as_nanos()));
        let mut latency = CostNanos::zero();
        if stall > CostNanos::zero() {
            latency += stall;
            self.stats.io_stall_time += stall;
        }
        if !fault.from_in_flight {
            latency += ctx.timing.flash_read(fault.stored_bytes);
        }
        clock.charge_cpu(CpuActivity::SwapIo, ctx.timing.lru_ops(2));
        if fault.compressed {
            latency +=
                self.decompress_bytes(chunk, fault.original_bytes, fault.pages.len(), clock, ctx);
        }
        (latency, stall)
    }

    /// The price of a fault on a page whose data is gone (dropped on zpool
    /// overflow, or never swapped out): a fresh page is mapped and copied.
    pub fn fault_lost(&mut self, ctx: &SchemeContext) -> CostNanos {
        self.stats.dropped_pages += 1;
        ctx.timing.dram_copy(1)
    }

    /// Evict zpool entries until `incoming_bytes` fits, flushing them by the
    /// writeback policy. Returns the user-visible latency the caller must
    /// charge (inline device time under the synchronous model, queue stalls
    /// under the queued one, zero when entries are dropped).
    pub fn make_zpool_room(
        &mut self,
        incoming_bytes: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        let mut victims = Vec::new();
        while self.zpool.would_overflow(incoming_bytes) {
            let Some(entry) = self.remove_zpool_victim() else {
                break;
            };
            victims.push(entry);
        }
        self.flush_entries(victims, clock, ctx)
    }

    /// Flush zpool entries above `threshold_bytes`, up to `budget_pages`
    /// pages, as one batched submission (the ZSWAP background headroom
    /// flush). Returns the number of pages flushed; any latency is the
    /// background flusher's own stall and is *not* charged to the caller.
    pub fn flush_zpool_above(
        &mut self,
        threshold_bytes: usize,
        budget_pages: usize,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> usize {
        let mut victims = Vec::new();
        let mut pages = 0usize;
        while pages < budget_pages && self.zpool.used_bytes() > threshold_bytes {
            let Some(entry) = self.remove_zpool_victim() else {
                break;
            };
            pages += entry.pages.len().max(1);
            victims.push(entry);
        }
        self.flush_entries(victims, clock, ctx);
        pages
    }

    /// Remove the next eviction victim from the zpool: the oldest
    /// (lowest-sector) cold entry, else the oldest entry of any hotness.
    fn remove_zpool_victim(&mut self) -> Option<ZpoolEntry> {
        let (handle, _) = self.zpool.oldest_cold().or_else(|| self.zpool.oldest())?;
        Some(self.zpool.remove(handle).expect("victim handle is live"))
    }

    /// Drop already-removed zpool entries or write them back, by the
    /// writeback policy. Returns the user-visible latency of the flush.
    fn flush_entries(
        &mut self,
        entries: Vec<ZpoolEntry>,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> CostNanos {
        if entries.is_empty() {
            return CostNanos::zero();
        }
        match self.config.writeback {
            WritebackPolicy::DropOldest => {
                for entry in &entries {
                    self.stats.dropped_pages += entry.pages.len();
                }
                CostNanos::zero()
            }
            WritebackPolicy::WritebackToFlash => {
                let requests = entries
                    .into_iter()
                    .map(|entry| WriteRequest {
                        pages: entry.pages,
                        original_bytes: entry.original_bytes,
                        stored_bytes: entry.compressed_bytes,
                        compressed: true,
                    })
                    .collect();
                let result = self.write_to_flash(requests, clock, ctx);
                for dropped in &result.dropped {
                    // Even the writeback target is full: the data is lost.
                    self.stats.dropped_pages += dropped.pages.len();
                }
                result.sync_latency + result.queue_stall
            }
        }
    }

    /// Submit `requests` to the flash device as one batched write at the
    /// current instant. Charges the submission CPU — a couple of list
    /// operations per device command; a fully rejected submission issued no
    /// command and costs nothing — and records the submitter's queue stall.
    pub fn write_to_flash(
        &mut self,
        requests: Vec<WriteRequest>,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> FlushResult {
        let result = self.flash.submit_writes(requests, clock.now().as_nanos());
        if result.commands > 0 {
            let io_cpu = ctx.timing.lru_ops(2 * result.commands);
            clock.charge_cpu(CpuActivity::SwapIo, io_cpu);
        }
        self.stats.io_queue_stall_time += result.queue_stall;
        result
    }

    /// Free `app`'s footprint in DRAM, the zpool and flash (flash objects
    /// whose write is still in flight included), and clear it from the
    /// foreground. Returns the evicted DRAM pages and the footprint; the
    /// scheme charges the CPU and clears its own lists.
    pub fn release_app(
        &mut self,
        app: AppId,
        clock: &SimClock,
    ) -> (Vec<PageId>, ReleasedFootprint) {
        let evicted = self.dram.evict_app(app);
        let (zpool_entries, zpool_pages) = self.zpool.release_app(app);
        let (flash_slots, flash_pages) = self.flash.release_app(app, clock.now().as_nanos());
        if self.foreground == Some(app) {
            self.foreground = None;
        }
        let footprint = ReleasedFootprint {
            dram_pages: evicted.len(),
            zpool_entries,
            zpool_pages,
            flash_slots,
            flash_pages,
            buffered_pages: 0,
        };
        (evicted, footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::{FlashIoConfig, FlashIoMode, Pfn, PAGE_SIZE};
    use ariadne_trace::{AppName, WorkloadBuilder};

    fn page(pfn: u64) -> PageId {
        PageId::new(AppId::new(0), Pfn::new(pfn))
    }

    fn store(tiers: &mut Tiers, pfn: u64, hotness: Hotness) {
        tiers.store(vec![page(pfn)], PAGE_SIZE, 2048, ChunkSize::k4(), hotness);
    }

    /// Tiers with a four-page zpool and a 64-page flash device, flushing
    /// zpool overflow by `policy` under the `io` model.
    fn harness_with_io(policy: WritebackPolicy, io: FlashIoConfig) -> (Tiers, SchemeContext) {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let config = MemoryConfig {
            zpool_bytes: 4 * PAGE_SIZE,
            flash_swap_bytes: 64 * PAGE_SIZE,
            ..MemoryConfig::pixel7_scaled(1024)
                .with_writeback(policy)
                .with_io(io)
        };
        (Tiers::new(&config), SchemeContext::new(1, &workloads))
    }

    fn harness(policy: WritebackPolicy) -> (Tiers, SchemeContext) {
        harness_with_io(policy, FlashIoConfig::ufs31())
    }

    #[test]
    fn cold_entries_are_preferred_victims() {
        let (mut tiers, _ctx) = harness(WritebackPolicy::WritebackToFlash);
        store(&mut tiers, 1, Hotness::Hot);
        store(&mut tiers, 2, Hotness::Cold);
        let victim = tiers.remove_zpool_victim().unwrap();
        assert_eq!(victim.pages, vec![page(2)]);
    }

    #[test]
    fn without_a_cold_entry_the_oldest_entry_wins() {
        let (mut tiers, _ctx) = harness(WritebackPolicy::WritebackToFlash);
        store(&mut tiers, 1, Hotness::Hot);
        store(&mut tiers, 2, Hotness::Warm);
        let victim = tiers.remove_zpool_victim().unwrap();
        assert_eq!(victim.pages, vec![page(1)]);
    }

    #[test]
    fn make_room_batches_writeback_into_queued_commands() {
        let (mut tiers, ctx) = harness(WritebackPolicy::WritebackToFlash);
        for pfn in 0..4 {
            store(&mut tiers, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let latency = tiers.make_zpool_room(3 * PAGE_SIZE, &mut clock, &ctx);
        // Queued mode: submission is free of user-visible latency.
        assert_eq!(latency, CostNanos::zero());
        assert!(tiers.flash.in_flight_commands() >= 1);
        assert!(tiers.flash.stats().writes >= 3);
        // Batching: fewer commands than objects.
        assert!(tiers.flash.stats().commands < tiers.flash.stats().writes);
        assert_eq!(tiers.stats.dropped_pages, 0);
    }

    #[test]
    fn sync_mode_reports_inline_device_time() {
        let (mut tiers, ctx) =
            harness_with_io(WritebackPolicy::WritebackToFlash, FlashIoConfig::sync());
        for pfn in 0..4 {
            store(&mut tiers, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let latency = tiers.make_zpool_room(3 * PAGE_SIZE, &mut clock, &ctx);
        assert!(latency > CostNanos::zero());
        assert_eq!(tiers.flash.in_flight_commands(), 0);
    }

    #[test]
    fn drop_policy_loses_the_data_without_latency() {
        let (mut tiers, ctx) = harness(WritebackPolicy::DropOldest);
        for pfn in 0..4 {
            store(&mut tiers, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let latency = tiers.make_zpool_room(3 * PAGE_SIZE, &mut clock, &ctx);
        assert_eq!(latency, CostNanos::zero());
        assert!(tiers.stats.dropped_pages >= 3);
        assert_eq!(tiers.flash.stats().writes, 0);
    }

    #[test]
    fn flush_above_respects_threshold_and_budget() {
        let (mut tiers, ctx) = harness(WritebackPolicy::WritebackToFlash);
        for pfn in 0..4 {
            store(&mut tiers, pfn, Hotness::Cold);
        }
        let mut clock = SimClock::new();
        let flushed = tiers.flush_zpool_above(PAGE_SIZE, 2, &mut clock, &ctx);
        assert_eq!(flushed, 2);
        assert_eq!(tiers.zpool.len(), 2);
    }

    #[test]
    fn memory_config_io_override_round_trips() {
        let config =
            MemoryConfig::pixel7_scaled(64).with_io(FlashIoConfig::sync().with_queue_depth(4));
        assert_eq!(config.io.queue_depth, 4);
        assert_eq!(config.io.mode, FlashIoMode::Sync);
        assert_eq!(Tiers::new(&config).flash.io(), config.io);
    }
}
