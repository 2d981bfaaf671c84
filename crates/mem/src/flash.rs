//! The flash-memory swap device (UFS 3.1 on the Pixel 7), modelled as a
//! *queued* device rather than a bag of instantaneous writes.
//!
//! Flash-backed swap matters to the paper in two ways: the SWAP baseline
//! stores reclaimed pages there directly, and both ZSWAP and Ariadne write
//! *compressed* cold data there when the zpool fills up. Every write wears
//! the flash cells, so [`FlashDevice`] keeps the write statistics the paper
//! uses to argue that Ariadne (which swaps out compressed data, and mostly
//! cold data) writes less than a flash-only swap scheme.
//!
//! # The I/O model
//!
//! Historically the simulator charged every flash write as an inline
//! synchronous latency on the caller, so writeback could never overlap
//! foreground execution. [`FlashDevice`] now owns a single-channel command
//! queue ([`FlashIoConfig`]):
//!
//! * a **write submission** ([`FlashDevice::submit_writes`]) allocates the
//!   swap slots immediately (the data leaves DRAM at submission) but the
//!   device only *completes* the command later — each command costs a fixed
//!   per-command overhead plus a per-KiB transfer cost, and commands are
//!   serviced strictly in submission order;
//! * up to [`FlashIoConfig::max_batch_pages`] pages ride in one **batch
//!   command**, paying the fixed overhead once;
//! * at most [`FlashIoConfig::queue_depth`] commands may be outstanding —
//!   a submitter that finds the queue full stalls until the oldest command
//!   retires (the returned [`FlushResult::queue_stall`]);
//! * a **fault** on a page whose write is still in flight
//!   ([`FlashDevice::fault_in`]) stalls only until that command's
//!   completion instead of re-paying the full device read latency — the
//!   data is still in the in-memory write buffer;
//! * under [`FlashIoMode::Sync`] the queue is bypassed and every object is
//!   written inline, with the device time reported back to the caller as
//!   user-visible latency ([`FlushResult::sync_latency`]) — the comparison
//!   baseline the `writeback` experiment measures against.
//!
//! Completion is *time-driven and lazy*: any method that takes a `now`
//! timestamp first retires every command whose completion time has passed,
//! so behaviour depends only on simulated time, never on how often the
//! event engine polls (this is what keeps serial and parallel replays
//! byte-identical).

use crate::error::MemError;
use crate::page::{PageId, PAGE_SIZE};
use crate::slab::{Chain, FxHashMap, FxHashSet, Slab, SlabKey};
use ariadne_compress::CostNanos;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Link channel of the per-app entry chain.
const APP_CHANNEL: usize = 0;
/// Link channel of the per-command entry chain: every *live* in-flight
/// entry of a queued write command is chained under its [`IoRequestId`],
/// so retirement walks exactly the entries that still need retiring —
/// fault-cancelled slots left the chain when they were cancelled.
const CMD_CHANNEL: usize = 1;

/// Identifier of a slot in the flash swap area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SwapSlot(u64);

impl SwapSlot {
    /// The raw slot number.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SwapSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot:{}", self.0)
    }
}

/// Identifier of one submitted device command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IoRequestId(u64);

impl IoRequestId {
    /// The raw request number.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for IoRequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "io:{}", self.0)
    }
}

/// Whether flash writes are charged inline or queued on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlashIoMode {
    /// Every write is serviced inline; the device time is returned to the
    /// caller as user-visible latency. Writeback can never overlap
    /// foreground execution (the legacy model, kept as a baseline).
    Sync,
    /// Writes are queued commands that complete asynchronously; the caller
    /// only ever pays a queue-full stall or an in-flight fault stall.
    Queued,
}

/// The device-queue cost model and knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlashIoConfig {
    /// Inline or queued write servicing.
    pub mode: FlashIoMode,
    /// Maximum number of outstanding commands before submitters stall.
    pub queue_depth: usize,
    /// Fixed cost of issuing one write command, in nanoseconds.
    pub write_command_overhead_ns: u64,
    /// Transfer cost per KiB written, in nanoseconds.
    pub write_per_kib_ns: u64,
    /// Maximum pages carried by one batch write command.
    pub max_batch_pages: usize,
    /// Wear-dependent latency inflation, in parts per million of the base
    /// command cost per average erase-block cycle consumed so far. Real
    /// flash programs slower as cells wear out (the controller retries and
    /// re-tunes program voltages); `0` — the default — disables the effect
    /// entirely, keeping every cost byte-identical to the unworn device.
    pub wear_latency_ppm_per_erase: u64,
}

impl FlashIoConfig {
    /// The queued UFS-3.1-like default: one 4 KiB page write costs 140 µs
    /// (28 µs command overhead + 28 µs/KiB transfer), with a 32-command
    /// queue and 8-page batch commands.
    #[must_use]
    pub fn ufs31() -> Self {
        FlashIoConfig {
            mode: FlashIoMode::Queued,
            queue_depth: 32,
            write_command_overhead_ns: 28_000,
            write_per_kib_ns: 28_000,
            max_batch_pages: 8,
            wear_latency_ppm_per_erase: 0,
        }
    }

    /// A slower eMMC-like device for entry-class hardware: no command
    /// queue to speak of, higher per-command overhead and roughly a third
    /// of the UFS transfer rate.
    #[must_use]
    pub fn emmc() -> Self {
        FlashIoConfig {
            mode: FlashIoMode::Queued,
            queue_depth: 8,
            write_command_overhead_ns: 84_000,
            write_per_kib_ns: 84_000,
            max_batch_pages: 4,
            wear_latency_ppm_per_erase: 0,
        }
    }

    /// The synchronous baseline: identical costs, but every write is
    /// charged inline on the caller.
    #[must_use]
    pub fn sync() -> Self {
        FlashIoConfig {
            mode: FlashIoMode::Sync,
            ..FlashIoConfig::ufs31()
        }
    }

    /// Override the queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Override the batch size (clamped to at least 1); 1 disables batching.
    #[must_use]
    pub fn with_max_batch_pages(mut self, pages: usize) -> Self {
        self.max_batch_pages = pages.max(1);
        self
    }

    /// Enable wear-dependent latency inflation (see
    /// [`FlashIoConfig::wear_latency_ppm_per_erase`]); 0 disables it.
    #[must_use]
    pub fn with_wear_latency_ppm(mut self, ppm: u64) -> Self {
        self.wear_latency_ppm_per_erase = ppm;
        self
    }

    /// Device time to service one write command of `bytes` payload.
    #[must_use]
    pub fn write_command_cost(&self, bytes: usize) -> CostNanos {
        let kib = bytes.div_ceil(1024).max(1) as u128;
        CostNanos(
            u128::from(self.write_command_overhead_ns) + kib * u128::from(self.write_per_kib_ns),
        )
    }
}

impl Default for FlashIoConfig {
    fn default() -> Self {
        FlashIoConfig::ufs31()
    }
}

/// Wear and traffic statistics for the flash swap device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashStats {
    /// Number of objects written (each carries one swap slot).
    pub writes: usize,
    /// Pages covered by the objects written (a multi-page object counts
    /// each of its pages).
    pub pages_written: usize,
    /// Total bytes written (flash lifetime is proportional to this).
    pub bytes_written: usize,
    /// Number of read operations performed.
    pub reads: usize,
    /// Total bytes read.
    pub bytes_read: usize,
    /// Number of device write commands issued (batch commands count once,
    /// so `commands <= writes` when batching is on).
    pub commands: usize,
    /// Physical bytes programmed into the cells: the page-rounded footprint
    /// of every stored object. The flash translation layer cannot program
    /// less than a page, so this is never below
    /// [`FlashStats::bytes_written`] — their ratio is the write
    /// amplification factor ([`FlashStats::waf`]).
    pub physical_bytes_written: usize,
    /// Erase-block cycles consumed across the whole device. Flash cells
    /// endure a bounded number of program/erase cycles, so this is the
    /// device-lifetime budget every write spends from.
    pub erases: usize,
}

impl FlashStats {
    /// The write amplification factor: physical bytes programmed per
    /// logical byte written. Page-rounding of sub-page compressed objects
    /// makes this ≥ 1; a device that has written nothing reports 1.
    #[must_use]
    pub fn waf(&self) -> f64 {
        if self.bytes_written == 0 {
            return 1.0;
        }
        self.physical_bytes_written as f64 / self.bytes_written as f64
    }
}

/// One object to be written by [`FlashDevice::submit_writes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRequest {
    /// The pages the object covers.
    pub pages: Vec<PageId>,
    /// Uncompressed size of the object.
    pub original_bytes: usize,
    /// Bytes that actually hit the flash (compressed size for writeback).
    pub stored_bytes: usize,
    /// Whether the stored bytes are compressed.
    pub compressed: bool,
}

/// The outcome of one [`FlashDevice::submit_writes`] call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlushResult {
    /// Slots allocated for the accepted requests, in request order.
    pub slots: Vec<SwapSlot>,
    /// Device commands issued (after batching).
    pub commands: usize,
    /// Time the submitter had to wait for a free queue slot
    /// ([`FlashIoMode::Queued`] only).
    pub queue_stall: CostNanos,
    /// Inline device time charged to the caller ([`FlashIoMode::Sync`] only).
    pub sync_latency: CostNanos,
    /// Requests rejected for capacity (or validity); the caller decides
    /// whether their pages stay resident or are dropped.
    pub dropped: Vec<WriteRequest>,
}

/// The outcome of faulting a page back in via [`FlashDevice::fault_in`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultIn {
    /// The pages of the removed object.
    pub pages: Vec<PageId>,
    /// Bytes the object occupied on flash.
    pub stored_bytes: usize,
    /// Uncompressed size of the object.
    pub original_bytes: usize,
    /// Whether the stored bytes were compressed.
    pub compressed: bool,
    /// Remaining time until the object's write command completes — zero for
    /// objects already at rest on flash.
    pub stall: CostNanos,
    /// `true` when the object was still in the write queue: the caller pays
    /// [`FaultIn::stall`] instead of a device read.
    pub from_in_flight: bool,
}

/// A stored object in the flash swap area.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct FlashEntry {
    /// The slot the object was allocated (slots are sequential and
    /// observable — swap-in traces record them — so they are allocated
    /// independently of the slab slot the entry happens to occupy).
    slot: SwapSlot,
    pages: Vec<PageId>,
    stored_bytes: usize,
    original_bytes: usize,
    compressed: bool,
    /// `Some(t)` while the object's write command is in flight (completes at
    /// simulated nanosecond `t`); `None` once at rest.
    completes_at: Option<u128>,
    /// The queued write command carrying the object — `Some` while the
    /// command is in flight (the entry is then on that command's
    /// [`CMD_CHANNEL`] chain), `None` once retired or written inline.
    command: Option<IoRequestId>,
}

/// The flash swap device.
///
/// ```
/// use ariadne_mem::{AppId, FlashDevice, PageId, Pfn};
///
/// let mut flash = FlashDevice::new(8 * 1024 * 1024);
/// let page = PageId::new(AppId::new(1), Pfn::new(0));
/// let slot = flash.write(vec![page], 4096, 4096, false).unwrap();
/// assert!(flash.contains(page));
/// let entry = flash.read(slot).unwrap();
/// assert_eq!(entry.0, vec![page]);
/// assert_eq!(flash.stats().bytes_written, 4096);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlashDevice {
    capacity: usize,
    used: usize,
    next_slot: u64,
    entries: Slab<FlashEntry>,
    slot_index: FxHashMap<SwapSlot, SlabKey>,
    page_index: FxHashMap<PageId, SwapSlot>,
    /// Per-application entry chain through the slab slots, so `release_app`
    /// (kill storms) walks the victim's own objects instead of filtering the
    /// whole table. Chain order is store order — deterministic.
    app_chains: FxHashMap<crate::page::AppId, Chain>,
    stats: FlashStats,
    io: FlashIoConfig,
    next_request: u64,
    /// Completion time of the last queued command (the single channel
    /// services commands back to back).
    busy_until: u128,
    /// Outstanding commands in completion order: `(completes_at, id)`. The
    /// slots each command still carries live on the command's
    /// [`CMD_CHANNEL`] chain (see [`FlashDevice::command_chains`]), so the
    /// queue itself holds no per-slot payload to clone or re-scan.
    outstanding: VecDeque<(u128, IoRequestId)>,
    /// Per-command chain through the slab slots of the *live* in-flight
    /// entries. A fault that cancels a slot unlinks it here immediately, so
    /// retirement walks only entries that actually need their
    /// `completes_at` cleared — never fault-cancelled tombstones.
    command_chains: FxHashMap<IoRequestId, Chain>,
    /// Program/erase cycles per erase block. Blocks are programmed
    /// round-robin (an idealized wear-levelling FTL): physical page `n`
    /// lands in block `(n / pages-per-block) % blocks`, and opening a
    /// fresh block costs that block one erase. Allocated lazily on the
    /// first write (the capacity is fixed by then).
    erase_counts: Vec<u32>,
    /// Physical pages programmed over the device lifetime (drives the
    /// round-robin block cursor; never decremented — wear is permanent).
    physical_pages_written: usize,
    /// Structured-event sink for writeback submit/complete (disabled by
    /// default — one branch; see `ariadne-obs`). Observation never perturbs
    /// the device: the handle only ever receives copies of values.
    trace: ariadne_obs::TraceHandle,
}

/// Bytes per simulated flash erase block (a typical 256 KiB block).
pub const ERASE_BLOCK_BYTES: usize = 64 * PAGE_SIZE;

impl FlashDevice {
    /// Create a flash swap area of `capacity` bytes with the default queued
    /// I/O model ([`FlashIoConfig::ufs31`]).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlashDevice {
            capacity,
            ..FlashDevice::default()
        }
    }

    /// Create a flash swap area with an explicit I/O model.
    #[must_use]
    pub fn with_io(capacity: usize, io: FlashIoConfig) -> Self {
        FlashDevice {
            capacity,
            io,
            ..FlashDevice::default()
        }
    }

    /// The I/O model in effect.
    #[must_use]
    pub fn io(&self) -> FlashIoConfig {
        self.io
    }

    /// Attach a trace sink: writeback submissions and completions are
    /// emitted through it (disabled handles cost one branch per call).
    pub fn set_trace(&mut self, trace: &ariadne_obs::TraceHandle) {
        self.trace = trace.clone();
    }

    /// Configured swap-area capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently stored (page-granular), including in-flight objects
    /// (their space is reserved at submission).
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Bytes still free.
    #[must_use]
    pub fn free_bytes(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }

    /// Number of objects stored (including in-flight objects).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime read/write statistics.
    #[must_use]
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Whether `page` is currently stored in the swap area (at rest or with
    /// its write still in flight).
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.page_index.contains_key(&page)
    }

    /// The slot holding `page`, if any.
    #[must_use]
    pub fn slot_for(&self, page: PageId) -> Option<SwapSlot> {
        self.page_index.get(&page).copied()
    }

    /// Number of write commands still in flight.
    #[must_use]
    pub fn in_flight_commands(&self) -> usize {
        self.outstanding.len()
    }

    /// Program/erase cycles consumed per erase block, in block order.
    /// Empty until the first write allocates the block map.
    #[must_use]
    pub fn erase_counts(&self) -> &[u32] {
        &self.erase_counts
    }

    /// Completion time of the earliest outstanding command, if any (what the
    /// event engine schedules its `IoComplete` events from).
    #[must_use]
    pub fn next_completion(&self) -> Option<u128> {
        self.outstanding.front().map(|(t, _)| *t)
    }

    /// The completion time of the in-flight command holding `slot`, or
    /// `None` if the slot is at rest (or free).
    #[must_use]
    pub fn pending_completion(&self, slot: SwapSlot) -> Option<u128> {
        self.entry(slot).and_then(|e| e.completes_at)
    }

    fn entry(&self, slot: SwapSlot) -> Option<&FlashEntry> {
        self.slot_index
            .get(&slot)
            .and_then(|k| self.entries.get(*k))
    }

    /// Detach the object in `slot` from every index (slot map, page index,
    /// per-app chain) and return it. The space accounting is left to the
    /// caller so each removal path charges what it means to.
    fn take_entry(&mut self, slot: SwapSlot) -> Option<FlashEntry> {
        let key = self.slot_index.remove(&slot)?;
        let live = self.entries.get(key).expect("indexed slot is live");
        let app = live.pages[0].app();
        let command = live.command;
        let chain = self.app_chains.get_mut(&app).expect("app chain exists");
        chain.unlink(&mut self.entries, APP_CHANNEL, key.index());
        if chain.is_empty() {
            self.app_chains.remove(&app);
        }
        // An in-flight entry also leaves its command's chain, so retirement
        // never sees (or pays for) a cancelled slot.
        if let Some(command) = command {
            let chain = self
                .command_chains
                .get_mut(&command)
                .expect("command chain exists");
            chain.unlink(&mut self.entries, CMD_CHANNEL, key.index());
            if chain.is_empty() {
                self.command_chains.remove(&command);
            }
        }
        let entry = self.entries.remove(key).expect("indexed slot is live");
        for page in &entry.pages {
            self.page_index.remove(page);
        }
        Some(entry)
    }

    /// Retire every command whose completion time has passed; its objects
    /// become at-rest flash data. Returns the number of commands retired.
    ///
    /// Each retiring command walks its own `CMD_CHANNEL` chain — only the
    /// entries still live and in flight. Fault-cancelled slots left the
    /// chain at cancellation time, so a relaunch storm's worth of faults
    /// adds nothing to the retirement cost.
    pub fn retire_completed(&mut self, now_nanos: u128) -> usize {
        let traced = self.trace.is_enabled();
        let mut retired = 0usize;
        while let Some((completes_at, _)) = self.outstanding.front() {
            if *completes_at > now_nanos {
                break;
            }
            let (completes_at, request) = self.outstanding.pop_front().expect("front exists");
            let mut trace_pages = 0usize;
            let mut trace_bytes = 0usize;
            if let Some(mut chain) = self.command_chains.remove(&request) {
                while let Some(index) = chain.head() {
                    chain.unlink(&mut self.entries, CMD_CHANNEL, index);
                    let entry = self.entries.value_at_mut(index);
                    entry.completes_at = None;
                    entry.command = None;
                    if traced {
                        trace_pages += entry.pages.len();
                        trace_bytes += entry.stored_bytes;
                    }
                }
            }
            // Stamped with the command's *completion* time, not `now`:
            // retirement may run lazily long after the device finished.
            self.trace.emit(completes_at, || {
                ariadne_obs::TraceEventKind::WritebackComplete {
                    pages: trace_pages,
                    bytes: trace_bytes,
                }
            });
            retired += 1;
        }
        retired
    }

    /// Write an object covering `pages` to the swap area, inline and
    /// outside the command queue. Only tests use it; schemes write through
    /// [`FlashDevice::submit_writes`], whose [`FlashIoMode::Sync`] mode also
    /// writes inline.
    ///
    /// `stored_bytes` is what actually hits the flash (compressed size for
    /// ZSWAP-style writeback, `pages.len() * 4096` for the SWAP baseline).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::SwapSpaceFull`] when the area cannot hold the
    /// object and [`MemError::InvalidParameter`] for an empty page list or a
    /// page that is already swapped out.
    pub fn write(
        &mut self,
        pages: Vec<PageId>,
        original_bytes: usize,
        stored_bytes: usize,
        compressed: bool,
    ) -> Result<SwapSlot, MemError> {
        self.validate(&pages, stored_bytes)?;
        if self.used + Self::footprint(stored_bytes) > self.capacity {
            return Err(MemError::SwapSpaceFull);
        }
        self.stats.commands += 1;
        let slot = self.store_entry(
            WriteRequest {
                pages,
                original_bytes,
                stored_bytes,
                compressed,
            },
            None,
            None,
        );
        self.debug_check_invariants();
        Ok(slot)
    }

    /// Submit a set of write requests at simulated time `now_nanos`.
    ///
    /// Invalid requests (empty page list, a page already swapped out) and
    /// requests the remaining capacity cannot hold are returned in
    /// [`FlushResult::dropped`]; everything else is accepted atomically per
    /// request. Under [`FlashIoMode::Queued`] accepted requests are packed
    /// into batch commands of at most [`FlashIoConfig::max_batch_pages`]
    /// pages; under [`FlashIoMode::Sync`] each request is written inline and
    /// its device time accumulates in [`FlushResult::sync_latency`].
    pub fn submit_writes(&mut self, requests: Vec<WriteRequest>, now_nanos: u128) -> FlushResult {
        self.retire_completed(now_nanos);
        let mut result = FlushResult::default();

        // Accept/reject pass. Track the projected footprint so a batch never
        // overshoots capacity even when individual requests would fit alone,
        // and the pages accepted so far so duplicates *within* the
        // submission are rejected like duplicates against stored data.
        let mut accepted: Vec<WriteRequest> = Vec::with_capacity(requests.len());
        let mut accepted_pages: FxHashSet<PageId> = FxHashSet::default();
        let mut projected = self.used;
        for request in requests {
            let taken = |p: &PageId| self.page_index.contains_key(p) || accepted_pages.contains(p);
            let invalid = match request.pages.as_slice() {
                [] => true,
                [page] => taken(page),
                pages => {
                    let mut seen = FxHashSet::default();
                    pages.iter().any(|p| taken(p) || !seen.insert(*p))
                }
            };
            let footprint = Self::footprint(request.stored_bytes);
            if invalid || projected + footprint > self.capacity {
                result.dropped.push(request);
            } else {
                projected += footprint;
                accepted_pages.extend(request.pages.iter().copied());
                accepted.push(request);
            }
        }
        if accepted.is_empty() {
            return result;
        }

        match self.io.mode {
            FlashIoMode::Sync => {
                let mut cursor = now_nanos;
                for request in accepted {
                    let cost = self.wear_adjusted_cost(request.stored_bytes);
                    result.commands += 1;
                    // The writer occupies the device inline: it first waits
                    // out any earlier busy window, then performs the write —
                    // both are part of its synchronous latency. Later reads
                    // queue behind the window too (see
                    // [`FlashDevice::fault_in`]); this is the contention the
                    // queued model eliminates by prioritizing reads.
                    let start = cursor.max(self.busy_until);
                    let completes = start + cost.as_nanos();
                    result.sync_latency += CostNanos(completes - cursor);
                    self.busy_until = completes;
                    cursor = completes;
                    let (trace_pages, trace_bytes) = (request.pages.len(), request.stored_bytes);
                    let slot = self.store_entry(request, None, None);
                    result.slots.push(slot);
                    self.trace
                        .emit(start, || ariadne_obs::TraceEventKind::WritebackSubmit {
                            commands: 1,
                            pages: trace_pages,
                            bytes: trace_bytes,
                            completes_at_nanos: completes,
                        });
                }
            }
            FlashIoMode::Queued => {
                let mut cursor = now_nanos;
                let mut command: Vec<WriteRequest> = Vec::new();
                let mut command_pages = 0usize;
                let flush_command =
                    |device: &mut FlashDevice, cmd: Vec<WriteRequest>, cursor: &mut u128| {
                        if cmd.is_empty() {
                            return (CostNanos::zero(), Vec::new());
                        }
                        let stall = device.wait_for_queue_slot(cursor);
                        let bytes: usize = cmd.iter().map(|r| r.stored_bytes).sum();
                        let trace_pages: usize = cmd.iter().map(|r| r.pages.len()).sum();
                        let start = (*cursor).max(device.busy_until);
                        let completes_at = start + device.wear_adjusted_cost(bytes).as_nanos();
                        device.busy_until = completes_at;
                        let request_id = IoRequestId(device.next_request);
                        device.next_request += 1;
                        let mut slots = Vec::with_capacity(cmd.len());
                        for request in cmd {
                            slots.push(device.store_entry(
                                request,
                                Some(completes_at),
                                Some(request_id),
                            ));
                        }
                        device.outstanding.push_back((completes_at, request_id));
                        device
                            .trace
                            .emit(start, || ariadne_obs::TraceEventKind::WritebackSubmit {
                                commands: 1,
                                pages: trace_pages,
                                bytes,
                                completes_at_nanos: completes_at,
                            });
                        (stall, slots)
                    };
                for request in accepted {
                    let pages = request.pages.len().max(1);
                    if command_pages + pages > self.io.max_batch_pages && !command.is_empty() {
                        let (stall, slots) =
                            flush_command(self, std::mem::take(&mut command), &mut cursor);
                        result.queue_stall += stall;
                        result.slots.extend(slots);
                        result.commands += 1;
                        command_pages = 0;
                    }
                    command_pages += pages;
                    command.push(request);
                }
                let (stall, slots) = flush_command(self, command, &mut cursor);
                if !slots.is_empty() {
                    result.commands += 1;
                }
                result.queue_stall += stall;
                result.slots.extend(slots);
            }
        }
        self.stats.commands += result.commands;
        self.debug_check_invariants();
        result
    }

    /// Block the submitter until the queue has a free command slot, retiring
    /// the commands that complete while it waits. Returns the stall and
    /// advances `cursor` past it.
    fn wait_for_queue_slot(&mut self, cursor: &mut u128) -> CostNanos {
        let mut stall = CostNanos::zero();
        while self.outstanding.len() >= self.io.queue_depth.max(1) {
            let oldest = self
                .outstanding
                .front()
                .map(|(t, _)| *t)
                .expect("queue is full");
            if oldest > *cursor {
                stall += CostNanos(oldest - *cursor);
                *cursor = oldest;
            }
            self.retire_completed(*cursor);
        }
        stall
    }

    /// Read the object in `slot` (without removing it), returning its pages,
    /// stored size, original size and whether it is compressed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::StaleHandle`] if the slot is free.
    pub fn read(&mut self, slot: SwapSlot) -> Result<(Vec<PageId>, usize, usize, bool), MemError> {
        let entry = self.entry(slot).ok_or(MemError::StaleHandle)?;
        let pages = entry.pages.clone();
        let (stored, original, compressed) =
            (entry.stored_bytes, entry.original_bytes, entry.compressed);
        self.stats.reads += 1;
        self.stats.bytes_read += stored;
        Ok((pages, stored, original, compressed))
    }

    /// Remove the object in `slot` for a page fault at simulated time
    /// `now_nanos`.
    ///
    /// * If the object's write command is still in flight
    ///   ([`FlashIoMode::Queued`]), the fault pays only the remaining time
    ///   until completion ([`FaultIn::stall`]) — the data is served from
    ///   the in-memory write buffer and no device read happens.
    /// * Under [`FlashIoMode::Sync`], an at-rest fault must still wait for
    ///   the device to finish any synchronous writes issued before it
    ///   ([`FaultIn::stall`] is the remaining busy window) and then pays the
    ///   device read on top — synchronous writeback cannot overlap
    ///   foreground reads. The queued model prioritizes reads ahead of
    ///   pending write commands, so at-rest faults there never contend.
    ///
    /// The slot is always freed: a faulted-in object can never leave an
    /// orphaned slot behind.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::StaleHandle`] if the slot is free.
    pub fn fault_in(&mut self, slot: SwapSlot, now_nanos: u128) -> Result<FaultIn, MemError> {
        self.retire_completed(now_nanos);
        let entry = self.take_entry(slot).ok_or(MemError::StaleHandle)?;
        self.used -= Self::footprint(entry.stored_bytes);
        let (stall, from_in_flight) = match entry.completes_at {
            // `take_entry` already unlinked the slot from its command's
            // chain, so the fault leaves nothing for retirement to visit.
            Some(completes_at) => (CostNanos(completes_at.saturating_sub(now_nanos)), true),
            None => {
                self.stats.reads += 1;
                self.stats.bytes_read += entry.stored_bytes;
                let contention = match self.io.mode {
                    FlashIoMode::Sync => CostNanos(self.busy_until.saturating_sub(now_nanos)),
                    FlashIoMode::Queued => CostNanos::zero(),
                };
                (contention, false)
            }
        };
        // Leak-proofing: a fault-in must fully release the slot — no page may
        // keep pointing at it (the property test in `tests/flash_io.rs` pins
        // the same invariant over arbitrary operation sequences).
        debug_assert!(
            entry.pages.iter().all(|p| !self.page_index.contains_key(p)),
            "fault-in left orphaned page-index entries for {slot}"
        );
        self.debug_check_invariants();
        Ok(FaultIn {
            pages: entry.pages,
            stored_bytes: entry.stored_bytes,
            original_bytes: entry.original_bytes,
            compressed: entry.compressed,
            stall,
            from_in_flight,
        })
    }

    /// Release every object belonging to `app` (its process was killed):
    /// the slots are freed without any device read — the data is simply
    /// invalidated, like discarding a dead process's swap entries.
    ///
    /// Objects whose write command is still in flight are released too: each
    /// leaves its command's chain as it is taken, the command itself stays
    /// queued and retires harmlessly later (its chain is simply shorter — or
    /// gone), so [`FlashDevice::leak_check`] holds throughout. Returns
    /// `(slots freed, pages released)`.
    pub fn release_app(&mut self, app: crate::page::AppId, now_nanos: u128) -> (usize, usize) {
        self.retire_completed(now_nanos);
        let Some(chain) = self.app_chains.get(&app) else {
            self.debug_check_invariants();
            return (0, 0);
        };
        let doomed: Vec<SwapSlot> = chain
            .indices(&self.entries, APP_CHANNEL)
            .map(|i| self.entries.value_at(i).slot)
            .collect();
        let mut pages = 0usize;
        for slot in &doomed {
            let entry = self.take_entry(*slot).expect("doomed slot is live");
            // Swap objects are always single-application (compression groups
            // never mix apps); a mixed entry would leak the other app's pages.
            debug_assert!(
                entry.pages.iter().all(|p| p.app() == app),
                "flash entry {slot} mixes applications"
            );
            self.used -= Self::footprint(entry.stored_bytes);
            pages += entry.pages.len();
        }
        self.debug_check_invariants();
        (doomed.len(), pages)
    }

    /// Remove the object in `slot`, freeing the space.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::StaleHandle`] if the slot is free.
    pub fn discard(&mut self, slot: SwapSlot) -> Result<(), MemError> {
        let entry = self.take_entry(slot).ok_or(MemError::StaleHandle)?;
        self.used -= Self::footprint(entry.stored_bytes);
        self.debug_check_invariants();
        Ok(())
    }

    /// Verify the slot-accounting invariants: every indexed page points at a
    /// live slot covering it, every stored page is indexed, the used-bytes
    /// counter matches the footprints of the live entries, and every
    /// outstanding command refers only to live in-flight slots.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant. Used by the
    /// property tests; debug builds also assert it after every mutation.
    pub fn leak_check(&self) -> Result<(), String> {
        let mut indexed_pages = 0usize;
        let mut used = 0usize;
        for (key, entry) in self.entries.iter() {
            let slot = &entry.slot;
            if self.slot_index.get(slot) != Some(&key) {
                return Err(format!("{slot} missing from the slot index"));
            }
            used += Self::footprint(entry.stored_bytes);
            for page in &entry.pages {
                match self.page_index.get(page) {
                    Some(s) if s == slot => indexed_pages += 1,
                    Some(other) => {
                        return Err(format!("page {page} of {slot} indexed to {other}"));
                    }
                    None => return Err(format!("page {page} of {slot} missing from the index")),
                }
            }
        }
        if indexed_pages != self.page_index.len() {
            return Err(format!(
                "{} orphaned page-index entries",
                self.page_index.len() - indexed_pages
            ));
        }
        if used != self.used {
            return Err(format!(
                "used-bytes leak: counter says {} but live entries occupy {used}",
                self.used
            ));
        }
        let mut last = 0u128;
        let mut outstanding_ids = std::collections::HashSet::new();
        let mut chained_entries = 0usize;
        for (completes_at, request) in &self.outstanding {
            if *completes_at < last {
                return Err(format!("command {request} completes out of order"));
            }
            last = *completes_at;
            outstanding_ids.insert(*request);
            if let Some(chain) = self.command_chains.get(request) {
                for index in chain.indices(&self.entries, CMD_CHANNEL) {
                    let entry = self.entries.value_at(index);
                    if entry.command != Some(*request) {
                        return Err(format!(
                            "{} chained under {request} but tagged {:?}",
                            entry.slot, entry.command
                        ));
                    }
                    if entry.completes_at != Some(*completes_at) {
                        return Err(format!(
                            "{} of outstanding {request} is already at rest",
                            entry.slot
                        ));
                    }
                    chained_entries += 1;
                }
            }
        }
        for command in self.command_chains.keys() {
            if !outstanding_ids.contains(command) {
                return Err(format!("command chain for retired/unknown {command}"));
            }
        }
        let in_flight_entries = self
            .entries
            .iter()
            .filter(|(_, e)| e.completes_at.is_some())
            .count();
        if chained_entries != in_flight_entries {
            return Err(format!(
                "{in_flight_entries} in-flight entries but {chained_entries} chained to commands"
            ));
        }
        Ok(())
    }

    fn validate(&self, pages: &[PageId], _stored_bytes: usize) -> Result<(), MemError> {
        if pages.is_empty() {
            return Err(MemError::InvalidParameter {
                parameter: "pages",
                detail: "a swap object must cover at least one page".to_string(),
            });
        }
        if let Some(dup) = pages.iter().find(|p| self.page_index.contains_key(p)) {
            return Err(MemError::InvalidParameter {
                parameter: "pages",
                detail: format!("page {dup} is already in the swap area"),
            });
        }
        Ok(())
    }

    /// Allocate a slot and record the entry. The caller has already
    /// validated the request and reserved capacity. Wear statistics are
    /// charged at submission: the bytes hit the cells whether or not the
    /// command has retired yet.
    fn store_entry(
        &mut self,
        request: WriteRequest,
        completes_at: Option<u128>,
        command: Option<IoRequestId>,
    ) -> SwapSlot {
        let slot = SwapSlot(self.next_slot);
        self.next_slot += 1;
        self.used += Self::footprint(request.stored_bytes);
        self.stats.writes += 1;
        self.stats.pages_written += request.pages.len();
        self.stats.bytes_written += request.stored_bytes;
        self.charge_wear(Self::footprint(request.stored_bytes));
        let app = request.pages[0].app();
        debug_assert!(
            request.pages.iter().all(|p| p.app() == app),
            "flash entry mixes applications"
        );
        for page in &request.pages {
            self.page_index.insert(*page, slot);
        }
        let key = self.entries.insert(FlashEntry {
            slot,
            pages: request.pages,
            stored_bytes: request.stored_bytes,
            original_bytes: request.original_bytes,
            compressed: request.compressed,
            completes_at,
            command,
        });
        self.slot_index.insert(slot, key);
        self.app_chains.entry(app).or_default().push_back(
            &mut self.entries,
            APP_CHANNEL,
            key.index(),
        );
        if let Some(command) = command {
            self.command_chains.entry(command).or_default().push_back(
                &mut self.entries,
                CMD_CHANNEL,
                key.index(),
            );
        }
        slot
    }

    /// Charge `footprint` physical bytes of wear: advance the round-robin
    /// block cursor page by page, cycling the block every time a fresh one
    /// is opened. Called exactly once per stored object, at submission —
    /// the cells are programmed whether or not the command has retired,
    /// and a release or in-flight fault never un-programs them.
    fn charge_wear(&mut self, footprint: usize) {
        self.stats.physical_bytes_written += footprint;
        if self.erase_counts.is_empty() {
            let blocks = self.capacity.div_ceil(ERASE_BLOCK_BYTES).max(1);
            self.erase_counts = vec![0; blocks];
        }
        let pages_per_block = ERASE_BLOCK_BYTES / PAGE_SIZE;
        let blocks = self.erase_counts.len();
        for _ in 0..footprint / PAGE_SIZE {
            if self.physical_pages_written % pages_per_block == 0 {
                let block = (self.physical_pages_written / pages_per_block) % blocks;
                self.erase_counts[block] += 1;
                self.stats.erases += 1;
            }
            self.physical_pages_written += 1;
        }
    }

    /// The cost of one write command of `bytes` payload on *this* device,
    /// including wear-dependent latency inflation when the I/O model
    /// enables it (each average erase cycle consumed so far inflates the
    /// base cost by [`FlashIoConfig::wear_latency_ppm_per_erase`]).
    fn wear_adjusted_cost(&self, bytes: usize) -> CostNanos {
        let base = self.io.write_command_cost(bytes);
        if self.io.wear_latency_ppm_per_erase == 0 {
            return base;
        }
        let blocks = self.erase_counts.len().max(1) as u128;
        let avg_erases = self.stats.erases as u128 / blocks;
        let extra = base.as_nanos() * avg_erases * u128::from(self.io.wear_latency_ppm_per_erase)
            / 1_000_000;
        CostNanos(base.as_nanos() + extra)
    }

    /// Cheap O(1)-ish debug guard; the full [`FlashDevice::leak_check`] is
    /// exercised by the property tests (running it after every mutation
    /// would make large simulations quadratic even in debug builds).
    fn debug_check_invariants(&self) {
        debug_assert!(
            self.used <= self.capacity,
            "flash used {} exceeds capacity {}",
            self.used,
            self.capacity
        );
        debug_assert!(
            self.page_index.len() >= self.entries.len(),
            "fewer indexed pages than entries: an entry lost its pages"
        );
    }

    fn footprint(stored_bytes: usize) -> usize {
        stored_bytes.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{AppId, Pfn};

    fn page(app: u32, pfn: u64) -> PageId {
        PageId::new(AppId::new(app), Pfn::new(pfn))
    }

    fn request(app: u32, pfn: u64) -> WriteRequest {
        WriteRequest {
            pages: vec![page(app, pfn)],
            original_bytes: PAGE_SIZE,
            stored_bytes: PAGE_SIZE,
            compressed: false,
        }
    }

    #[test]
    fn write_read_discard_cycle() {
        let mut flash = FlashDevice::new(1 << 20);
        let slot = flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        let (pages, stored, original, compressed) = flash.read(slot).unwrap();
        assert_eq!(pages, vec![page(1, 1)]);
        assert_eq!((stored, original, compressed), (4096, 4096, false));
        flash.discard(slot).unwrap();
        assert!(flash.is_empty());
        assert!(flash.read(slot).is_err());
        assert!(flash.discard(slot).is_err());
    }

    #[test]
    fn wear_statistics_accumulate() {
        let mut flash = FlashDevice::new(1 << 20);
        let s1 = flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        let s2 = flash
            .write(vec![page(1, 2), page(1, 3)], 8192, 3000, true)
            .unwrap();
        flash.read(s1).unwrap();
        flash.read(s2).unwrap();
        flash.read(s2).unwrap();
        let stats = flash.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.commands, 2);
        assert_eq!(stats.bytes_written, 4096 + 3000);
        assert_eq!(stats.reads, 3);
        assert_eq!(stats.bytes_read, 4096 + 2 * 3000);
    }

    #[test]
    fn compressed_objects_use_less_space_than_raw() {
        let mut flash = FlashDevice::new(1 << 20);
        flash
            .write(vec![page(1, 1), page(1, 2), page(1, 3)], 12288, 4000, true)
            .unwrap();
        // Three compressed pages fit in one flash page.
        assert_eq!(flash.used_bytes(), PAGE_SIZE);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut flash = FlashDevice::new(2 * PAGE_SIZE);
        flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        flash.write(vec![page(1, 2)], 4096, 4096, false).unwrap();
        assert!(matches!(
            flash.write(vec![page(1, 3)], 4096, 4096, false),
            Err(MemError::SwapSpaceFull)
        ));
    }

    #[test]
    fn duplicate_and_empty_writes_are_rejected() {
        let mut flash = FlashDevice::new(1 << 20);
        flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        assert!(flash.write(vec![page(1, 1)], 4096, 4096, false).is_err());
        assert!(flash.write(vec![], 0, 0, false).is_err());
    }

    #[test]
    fn page_index_tracks_slots() {
        let mut flash = FlashDevice::new(1 << 20);
        let slot = flash
            .write(vec![page(3, 7), page(3, 8)], 8192, 8192, false)
            .unwrap();
        assert_eq!(flash.slot_for(page(3, 8)), Some(slot));
        flash.discard(slot).unwrap();
        assert_eq!(flash.slot_for(page(3, 8)), None);
    }

    #[test]
    fn queued_submissions_complete_in_order_and_batch() {
        let io = FlashIoConfig::ufs31().with_max_batch_pages(2);
        let mut flash = FlashDevice::with_io(1 << 20, io);
        let result = flash.submit_writes((0..3).map(|i| request(1, i)).collect(), 0);
        assert_eq!(result.slots.len(), 3);
        // Three single-page requests with a 2-page batch limit: two commands.
        assert_eq!(result.commands, 2);
        assert_eq!(flash.stats().commands, 2);
        assert_eq!(flash.stats().writes, 3);
        assert_eq!(result.queue_stall, CostNanos::zero());
        assert_eq!(result.sync_latency, CostNanos::zero());
        assert_eq!(flash.in_flight_commands(), 2);

        // First command: 2 pages = 8 KiB -> 28 + 8*28 = 252 µs.
        let first = flash.next_completion().unwrap();
        assert_eq!(first, 252_000);
        // Second command queues behind it: + (28 + 4*28) = 140 µs.
        assert_eq!(flash.pending_completion(result.slots[2]), Some(392_000));

        assert_eq!(flash.retire_completed(first), 1);
        assert_eq!(flash.in_flight_commands(), 1);
        assert_eq!(flash.pending_completion(result.slots[0]), None);
        assert!(flash.contains(page(1, 0)));
        flash.leak_check().unwrap();
    }

    #[test]
    fn faulting_an_in_flight_page_stalls_until_its_completion() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        let result = flash.submit_writes(vec![request(1, 1)], 1_000);
        let slot = result.slots[0];
        let completes = flash.pending_completion(slot).unwrap();
        let fault = flash.fault_in(slot, 41_000).unwrap();
        assert!(fault.from_in_flight);
        assert_eq!(fault.stall, CostNanos(completes - 41_000));
        assert_eq!(flash.stats().reads, 0, "no device read for in-flight data");
        assert!(flash.is_empty());
        assert_eq!(flash.used_bytes(), 0);
        // The command still retires harmlessly after the cancellation.
        flash.retire_completed(completes);
        assert_eq!(flash.in_flight_commands(), 0);
        flash.leak_check().unwrap();
    }

    #[test]
    fn fault_storm_on_one_command_charges_each_fault_its_own_stall() {
        // One batch command carrying 8 pages, then a storm of faults against
        // it while it is still in flight: every fault pays exactly the
        // remaining time from *its own* fault instant, and the command
        // retires once.
        let io = FlashIoConfig::ufs31().with_max_batch_pages(8);
        let mut flash = FlashDevice::with_io(1 << 20, io);
        let result = flash.submit_writes((0..8).map(|i| request(1, i)).collect(), 0);
        assert_eq!(result.commands, 1);
        let completes = flash.pending_completion(result.slots[0]).unwrap();
        for (i, &slot) in result.slots.iter().enumerate() {
            let now = 1_000 * (i as u128 + 1);
            let fault = flash.fault_in(slot, now).unwrap();
            assert!(fault.from_in_flight);
            assert_eq!(fault.stall, CostNanos(completes - now), "fault {i}");
            flash.leak_check().unwrap();
        }
        assert_eq!(flash.stats().reads, 0, "in-flight faults never read");
        // The command retires exactly once: a second pass finds nothing.
        assert_eq!(flash.retire_completed(completes), 1);
        assert_eq!(flash.retire_completed(completes + 1), 0);
        flash.leak_check().unwrap();
    }

    #[test]
    fn release_app_after_an_in_flight_fault_stays_leak_check_green() {
        let io = FlashIoConfig::ufs31().with_max_batch_pages(2);
        let mut flash = FlashDevice::with_io(1 << 20, io);
        // Two commands for app 1, one for app 2.
        let first = flash.submit_writes((0..4).map(|i| request(1, i)).collect(), 0);
        let other = flash.submit_writes(vec![request(2, 9)], 0);
        // A fault hits app 1's first in-flight command...
        let fault = flash.fault_in(first.slots[0], 5_000).unwrap();
        assert!(fault.from_in_flight);
        flash.leak_check().unwrap();
        // ...then the app dies mid-writeback with that command still queued.
        let (slots_freed, pages_freed) = flash.release_app(AppId::new(1), 6_000);
        assert_eq!((slots_freed, pages_freed), (3, 3));
        flash.leak_check().unwrap();
        // The orphaned commands retire harmlessly.
        let last = flash.pending_completion(other.slots[0]).unwrap();
        flash.retire_completed(last);
        assert_eq!(flash.in_flight_commands(), 0);
        assert!(flash.contains(page(2, 9)), "app 2's data is untouched");
        flash.leak_check().unwrap();
    }

    #[test]
    fn faulting_an_at_rest_page_counts_a_read_and_no_stall() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        let result = flash.submit_writes(vec![request(1, 1)], 0);
        let slot = result.slots[0];
        let completes = flash.pending_completion(slot).unwrap();
        let fault = flash.fault_in(slot, completes + 1).unwrap();
        assert!(!fault.from_in_flight);
        assert_eq!(fault.stall, CostNanos::zero());
        assert_eq!(flash.stats().reads, 1);
        assert!(flash.is_empty());
    }

    #[test]
    fn full_queue_stalls_the_submitter_until_the_oldest_retires() {
        let io = FlashIoConfig::ufs31()
            .with_queue_depth(2)
            .with_max_batch_pages(1);
        let mut flash = FlashDevice::with_io(1 << 20, io);
        let first = flash.submit_writes(vec![request(1, 1), request(1, 2)], 0);
        assert_eq!(first.queue_stall, CostNanos::zero());
        assert_eq!(flash.in_flight_commands(), 2);
        // The third submission finds the queue full and waits for command 1.
        let second = flash.submit_writes(vec![request(1, 3)], 0);
        assert_eq!(second.queue_stall, CostNanos(140_000));
        assert_eq!(flash.in_flight_commands(), 2);
        flash.leak_check().unwrap();
    }

    #[test]
    fn sync_mode_charges_inline_latency_and_never_queues() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::sync());
        let result = flash.submit_writes(vec![request(1, 1), request(1, 2)], 0);
        assert_eq!(result.commands, 2);
        assert_eq!(result.sync_latency, CostNanos(2 * 140_000));
        assert_eq!(flash.in_flight_commands(), 0);
        assert_eq!(flash.next_completion(), None);
        let fault = flash.fault_in(result.slots[0], 0).unwrap();
        assert!(!fault.from_in_flight);
    }

    #[test]
    fn oversized_batches_are_rejected_not_partially_written() {
        let mut flash = FlashDevice::with_io(3 * PAGE_SIZE, FlashIoConfig::ufs31());
        let result = flash.submit_writes((0..5).map(|i| request(1, i)).collect(), 0);
        assert_eq!(result.slots.len(), 3);
        assert_eq!(result.dropped.len(), 2);
        assert_eq!(flash.used_bytes(), 3 * PAGE_SIZE);
        flash.leak_check().unwrap();
    }

    #[test]
    fn duplicate_pages_in_a_submission_are_dropped() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        let result = flash.submit_writes(vec![request(1, 1), request(1, 2)], 0);
        assert_eq!(result.dropped.len(), 1);
        assert_eq!(result.dropped[0].pages, vec![page(1, 1)]);
        assert_eq!(result.slots.len(), 1);
    }

    #[test]
    fn pages_written_counts_stored_pages_and_skips_dropped_requests() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        let result = flash.submit_writes(
            vec![
                WriteRequest {
                    pages: vec![page(1, 2), page(1, 3), page(1, 4)],
                    original_bytes: 3 * PAGE_SIZE,
                    stored_bytes: 5000,
                    compressed: true,
                },
                request(1, 1),
            ],
            0,
        );
        assert_eq!(result.dropped.len(), 1, "page 1 is already stored");
        let stats = flash.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.pages_written, 1 + 3);
    }

    #[test]
    fn duplicates_within_one_submission_are_dropped_too() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        // Two requests for the same page, plus one request that repeats a
        // page internally: only the first clean request survives.
        let result = flash.submit_writes(
            vec![
                request(1, 1),
                request(1, 1),
                WriteRequest {
                    pages: vec![page(1, 2), page(1, 2)],
                    original_bytes: 2 * PAGE_SIZE,
                    stored_bytes: 2 * PAGE_SIZE,
                    compressed: false,
                },
            ],
            0,
        );
        assert_eq!(result.slots.len(), 1);
        assert_eq!(result.dropped.len(), 2);
        flash.leak_check().unwrap();
    }

    #[test]
    fn release_app_frees_slots_including_in_flight_ones() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        // App 1: one at-rest object, one in-flight object. App 2: one object.
        let first = flash.submit_writes(vec![request(1, 1)], 0);
        let settled = flash.pending_completion(first.slots[0]).unwrap();
        flash.retire_completed(settled);
        flash.submit_writes(vec![request(1, 2), request(2, 1)], settled);
        assert_eq!(flash.in_flight_commands(), 1);

        let (slots, pages) = flash.release_app(AppId::new(1), settled);
        assert_eq!((slots, pages), (2, 2));
        assert!(!flash.contains(page(1, 1)) && !flash.contains(page(1, 2)));
        assert!(flash.contains(page(2, 1)), "other apps keep their data");
        flash.leak_check().unwrap();

        // The in-flight command retires harmlessly after the release.
        let completes = flash.next_completion().unwrap();
        flash.retire_completed(completes);
        assert_eq!(flash.in_flight_commands(), 0);
        flash.leak_check().unwrap();

        // Releasing again finds nothing.
        assert_eq!(flash.release_app(AppId::new(1), completes), (0, 0));
    }

    #[test]
    fn release_app_frees_capacity_for_new_writes() {
        let mut flash = FlashDevice::new(2 * PAGE_SIZE);
        flash.write(vec![page(1, 1)], 4096, 4096, false).unwrap();
        flash.write(vec![page(1, 2)], 4096, 4096, false).unwrap();
        assert_eq!(flash.free_bytes(), 0);
        flash.release_app(AppId::new(1), 0);
        assert_eq!(flash.free_bytes(), 2 * PAGE_SIZE);
        flash.write(vec![page(2, 1)], 4096, 4096, false).unwrap();
        flash.leak_check().unwrap();
    }

    #[test]
    fn wear_is_charged_per_physical_page_and_block() {
        let mut flash = FlashDevice::new(2 * ERASE_BLOCK_BYTES);
        assert!(flash.erase_counts().is_empty());
        // A sub-page compressed object still programs one physical page.
        flash.write(vec![page(1, 0)], 4096, 1000, true).unwrap();
        let stats = flash.stats();
        assert_eq!(stats.bytes_written, 1000);
        assert_eq!(stats.physical_bytes_written, PAGE_SIZE);
        assert_eq!(stats.erases, 1, "the first page opens the first block");
        assert!((stats.waf() - PAGE_SIZE as f64 / 1000.0).abs() < 1e-12);

        // Fill the rest of block 0: no further erase until block 1 opens.
        let pages_per_block = ERASE_BLOCK_BYTES / PAGE_SIZE;
        for pfn in 1..pages_per_block as u64 {
            flash.write(vec![page(1, pfn)], 4096, 4096, false).unwrap();
        }
        assert_eq!(flash.stats().erases, 1);
        flash
            .write(vec![page(1, pages_per_block as u64)], 4096, 4096, false)
            .unwrap();
        assert_eq!(flash.stats().erases, 2, "crossing into block 1 erases it");
        assert_eq!(flash.erase_counts(), &[1, 1]);
        flash.leak_check().unwrap();
    }

    #[test]
    fn wear_survives_release_and_in_flight_faults() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        let result = flash.submit_writes(vec![request(1, 1), request(1, 2)], 0);
        let worn = flash.stats();
        assert_eq!(worn.physical_bytes_written, 2 * PAGE_SIZE);

        // An in-flight fault removes the object but not the programmed wear.
        flash.fault_in(result.slots[0], 10).unwrap();
        // A kill releases the rest; the cells stay programmed.
        flash.release_app(AppId::new(1), 20);
        let after = flash.stats();
        assert_eq!(after.physical_bytes_written, worn.physical_bytes_written);
        assert_eq!(after.erases, worn.erases);
        assert!(flash.is_empty());
        flash.leak_check().unwrap();
    }

    #[test]
    fn wear_latency_inflation_defaults_off_and_is_byte_identical() {
        let mut vanilla = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        let mut knobbed =
            FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31().with_wear_latency_ppm(0));
        let a = vanilla.submit_writes((0..4).map(|i| request(1, i)).collect(), 0);
        let b = knobbed.submit_writes((0..4).map(|i| request(1, i)).collect(), 0);
        assert_eq!(a, b);
        assert_eq!(vanilla.next_completion(), knobbed.next_completion());
    }

    #[test]
    fn worn_devices_write_slower_when_inflation_is_enabled() {
        // A tiny device (one erase block) so erases accumulate fast, with
        // 10 % extra latency per average erase cycle.
        let io = FlashIoConfig::sync().with_wear_latency_ppm(100_000);
        let mut flash = FlashDevice::with_io(ERASE_BLOCK_BYTES, io);
        let fresh = flash.submit_writes(vec![request(1, 0)], 0);
        // Costs reflect the wear accumulated *before* the command: the
        // first write of the device's life is uninflated.
        assert_eq!(fresh.sync_latency, CostNanos(140_000));

        // Cycle the block a few times via write/fault churn.
        let mut now = 1_000_000u128;
        let pages_per_block = (ERASE_BLOCK_BYTES / PAGE_SIZE) as u64;
        for round in 0..3u64 {
            for pfn in 1..pages_per_block {
                let slot = flash
                    .write(
                        vec![page(1, round * pages_per_block + pfn)],
                        4096,
                        4096,
                        false,
                    )
                    .unwrap();
                now += 1;
                flash.fault_in(slot, now).unwrap();
            }
        }
        let erases = flash.stats().erases;
        assert!(erases > 1, "churn must cycle the single block");
        let worn = flash.submit_writes(vec![request(2, 0)], now);
        let expected = 140_000 + 140_000 * u128::from(erases as u64) * 100_000 / 1_000_000;
        assert_eq!(worn.sync_latency, CostNanos(expected));
        assert!(worn.sync_latency > fresh.sync_latency);
    }

    #[test]
    fn sync_writers_wait_out_the_busy_window_they_find() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::sync());
        // An earlier (background) submission leaves the device busy until
        // 140 µs; a second writer at 40 µs must wait 100 µs and then write.
        flash.submit_writes(vec![request(1, 1)], 0);
        let result = flash.submit_writes(vec![request(1, 2)], 40_000);
        assert_eq!(result.sync_latency, CostNanos(100_000 + 140_000));
    }

    /// The hog-then-exit accounting audit: an app killed while its
    /// writeback command is still in flight must not double-count in the
    /// write or wear totals — not when it is released, not when the
    /// orphaned command retires, and a resubmission after the app's
    /// relaunch charges exactly one more submission's worth.
    #[test]
    fn release_mid_writeback_never_double_counts_write_or_wear_totals() {
        let mut flash = FlashDevice::with_io(1 << 20, FlashIoConfig::ufs31());
        let first = flash.submit_writes((0..4).map(|i| request(1, i)).collect(), 0);
        assert!(first.dropped.is_empty());
        let completes = flash.next_completion().expect("command is in flight");
        let submitted = flash.stats();

        // The hog exits while the command is still in flight.
        let (slots, pages) = flash.release_app(AppId::new(1), completes / 2);
        assert_eq!((slots, pages), (4, 4), "all four objects were in flight");
        assert_eq!(flash.stats(), submitted, "release must not touch totals");
        flash.leak_check().unwrap();

        // The orphaned command retires: still no extra accounting.
        flash.retire_completed(completes + 1);
        assert_eq!(
            flash.stats(),
            submitted,
            "retiring an orphaned command is free"
        );
        flash.leak_check().unwrap();

        // The app relaunches and the same pages are written back again:
        // exactly two submissions' worth, no more, no less.
        let second = flash.submit_writes((0..4).map(|i| request(1, i)).collect(), completes + 2);
        assert!(
            second.dropped.is_empty(),
            "released pages must be writable again"
        );
        let after = flash.stats();
        assert_eq!(after.writes, 2 * submitted.writes);
        assert_eq!(after.bytes_written, 2 * submitted.bytes_written);
        assert_eq!(
            after.physical_bytes_written,
            2 * submitted.physical_bytes_written
        );
        assert_eq!(after.commands, 2 * submitted.commands);
        assert!((after.waf() - submitted.waf()).abs() < f64::EPSILON);
        flash.leak_check().unwrap();
    }
}
