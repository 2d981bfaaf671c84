//! The [`SwapScheme`] abstraction shared by the baselines and by Ariadne.
//!
//! A swap scheme holds the memory hierarchy of the simulated device (DRAM,
//! zpool, flash swap) in one [`Tiers`] and decides what happens on page
//! registration, page access and memory reclaim. The whole-system
//! simulator in `ariadne-sim` drives schemes exclusively through this
//! trait, so the baseline-versus-Ariadne comparisons of the paper's
//! evaluation are apples-to-apples.

use crate::oracle::{CodecScratch, CompressionOracle, OracleHandle, OracleOutcome, OracleStats};
use crate::tiers::Tiers;
use ariadne_compress::{
    Algorithm, ChunkSize, CostNanos, LatencyModel, ThermalConfig, ThermalModel,
};
use ariadne_mem::{
    AppId, CpuActivity, FlashIoConfig, FlashStats, MemTimingModel, PageId, PageLocation, SimClock,
    Watermarks, ZpoolStats, PAGE_SIZE,
};
use ariadne_obs::{Histogram, TraceEventKind, TraceHandle};
use ariadne_trace::{AppProfile, AppWorkload, PageDataGenerator};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

thread_local! {
    /// Per-thread synthesis + codec scratch for cold oracle runs, so misses
    /// never execute under the shared oracle lock (see
    /// [`SchemeContext::compress_pages`]).
    static CODEC_SCRATCH: std::cell::RefCell<CodecScratch> =
        std::cell::RefCell::new(CodecScratch::default());
}

/// Implements the [`SwapScheme`] identity boilerplate (`as_any`,
/// `as_any_mut`, `tiers`, `tiers_mut` and optionally `name`) inside a
/// `impl SwapScheme for ...` block, for a scheme that keeps its
/// [`Tiers`](crate::Tiers) in a field named `tiers`. Every scheme in the
/// workspace repeats these verbatim; the macro keeps them in one place.
///
/// * `swap_scheme_identity!("DRAM");` expands to the upcasts and the tier
///   accessors plus a `name` returning the given literal;
/// * `swap_scheme_identity!();` expands to the upcasts and the tier
///   accessors only, for schemes whose name depends on runtime
///   configuration.
#[macro_export]
macro_rules! swap_scheme_identity {
    ($name:expr) => {
        $crate::swap_scheme_identity!();

        fn name(&self) -> ::std::string::String {
            ::std::string::String::from($name)
        }
    };
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }

        fn tiers(&self) -> &$crate::Tiers {
            &self.tiers
        }

        fn tiers_mut(&mut self) -> &mut $crate::Tiers {
            &mut self.tiers
        }
    };
}

/// What kind of activity triggered a page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// First (cold) launch of the application.
    Launch,
    /// Hot launch — the access is on the relaunch critical path.
    Relaunch,
    /// Ordinary execution after the application is in the foreground.
    Execution,
}

/// The result of a single page access through a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// User-visible latency of the access (what accumulates into relaunch
    /// latency when the access happens during a relaunch).
    pub latency: CostNanos,
    /// Where the page was found before the access.
    pub found_in: PageLocation,
    /// The part of [`AccessOutcome::latency`] spent stalled on in-flight
    /// flash I/O (waiting for a queued write of the faulted page to
    /// complete). Always `<= latency`; zero for schemes without a flash
    /// queue or when the page was at rest.
    pub io_stall: CostNanos,
}

impl AccessOutcome {
    /// A DRAM hit: one DRAM access, with the clock advanced past it.
    pub fn dram_hit(clock: &mut SimClock, ctx: &SchemeContext) -> Self {
        let latency = ctx.timing.dram_access(1);
        clock.advance(latency);
        AccessOutcome {
            latency,
            found_in: PageLocation::Dram,
            io_stall: CostNanos::zero(),
        }
    }

    /// A fault served from `found_in` that cost `latency` before the page
    /// became resident: the final DRAM access is added and the clock
    /// advanced past the whole fault.
    pub fn fault(
        latency: CostNanos,
        found_in: PageLocation,
        io_stall: CostNanos,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> Self {
        let latency = latency + ctx.timing.dram_access(1);
        clock.advance(latency);
        AccessOutcome {
            latency,
            found_in,
            io_stall,
        }
    }
}

/// What [`SwapScheme::release_app`] freed when a process was killed: the
/// victim's entire footprint across every tier of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReleasedFootprint {
    /// Resident pages evicted from DRAM.
    pub dram_pages: usize,
    /// Compressed zpool entries invalidated.
    pub zpool_entries: usize,
    /// Pages those zpool entries covered.
    pub zpool_pages: usize,
    /// Flash swap slots freed (at rest or with their write still in flight).
    pub flash_slots: usize,
    /// Pages those flash objects covered.
    pub flash_pages: usize,
    /// Pages dropped from the pre-decompression buffer (Ariadne only).
    pub buffered_pages: usize,
}

impl ReleasedFootprint {
    /// Total pages released across all tiers.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.dram_pages + self.zpool_pages + self.flash_pages + self.buffered_pages
    }

    /// `true` when the kill freed nothing (the app held no data).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_pages() == 0 && self.zpool_entries == 0 && self.flash_slots == 0
    }
}

/// How a scheme behaves when its zpool runs out of space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritebackPolicy {
    /// Drop the least recently stored compressed entries (the data is lost;
    /// a later access to it behaves like a cold start for those pages).
    /// This models plain ZRAM, where vendors disable writeback.
    DropOldest,
    /// Write compressed entries to the flash swap area (ZSWAP behaviour).
    WritebackToFlash,
}

/// Sizing and algorithm configuration shared by every scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// DRAM capacity in bytes available to anonymous pages.
    pub dram_bytes: usize,
    /// zpool capacity in bytes (the paper's parameter `S`, 3 GB full scale).
    pub zpool_bytes: usize,
    /// Flash swap area capacity in bytes.
    pub flash_swap_bytes: usize,
    /// Reclaim watermarks.
    pub watermarks: Watermarks,
    /// Compression algorithm (LZO is the Pixel 7 default).
    pub algorithm: Algorithm,
    /// Behaviour when the zpool is full.
    pub writeback: WritebackPolicy,
    /// The flash-device I/O model (queued/async by default; see
    /// [`FlashIoConfig`]).
    pub io: FlashIoConfig,
}

impl MemoryConfig {
    /// A Pixel-7-like configuration (12 GB DRAM, 3 GB zpool, 8 GB swap),
    /// scaled down by `scale` so simulations stay fast. `scale` = 1
    /// reproduces the full device.
    #[must_use]
    pub fn pixel7_scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        // Of the 12 GB of DRAM, roughly 3 GB is available to application
        // anonymous data once the system, file cache and GPU take their
        // share; that is the budget that creates memory pressure with ten
        // live applications (whose anonymous data totals ~4.7 GB, Table 1).
        let dram = 3 * 1024 * 1024 * 1024 / scale;
        MemoryConfig {
            dram_bytes: dram,
            zpool_bytes: 3 * 1024 * 1024 * 1024 / scale,
            flash_swap_bytes: 8 * 1024 * 1024 * 1024 / scale,
            watermarks: Watermarks::android_default(dram),
            algorithm: Algorithm::Lzo,
            writeback: WritebackPolicy::DropOldest,
            io: FlashIoConfig::ufs31(),
        }
    }

    /// Same as [`MemoryConfig::pixel7_scaled`] but with an effectively
    /// unlimited DRAM, for the optimistic `DRAM` baseline.
    #[must_use]
    pub fn unlimited_dram(scale: usize) -> Self {
        let mut config = MemoryConfig::pixel7_scaled(scale);
        config.dram_bytes = usize::MAX / 4;
        config.watermarks = Watermarks::android_default(config.dram_bytes);
        config
    }

    /// Override the writeback policy.
    #[must_use]
    pub fn with_writeback(mut self, writeback: WritebackPolicy) -> Self {
        self.writeback = writeback;
        self
    }

    /// Override the flash I/O model.
    #[must_use]
    pub fn with_io(mut self, io: FlashIoConfig) -> Self {
        self.io = io;
        self
    }
}

/// How urgent a memory-pressure notification is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PressureLevel {
    /// Background pressure: reclaim can proceed at leisure.
    Medium,
    /// Critical pressure: a large allocation is imminent.
    Critical,
}

/// A memory-pressure notification delivered by the simulation engine when a
/// pressure-spike event fires (camera burst, large file-cache allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPressure {
    /// How many pages the platform wants freed.
    pub target_pages: usize,
    /// How urgent the request is.
    pub level: PressureLevel,
}

/// [`SchemeContext::poison_flags`] value: calibrated content profile.
const CALIBRATED: u8 = 0;
/// [`SchemeContext::poison_flags`] value: adversarial incompressible profile.
const POISONED: u8 = 1;
/// [`SchemeContext::poison_flags`] value: app id outside the workload set.
const NO_PROFILE: u8 = 2;

/// Read-only context handed to schemes: page contents, application profiles,
/// the latency models and the shared [`CompressionOracle`].
#[derive(Debug, Clone)]
pub struct SchemeContext {
    data: PageDataGenerator,
    profiles: HashMap<AppId, AppProfile>,
    /// `poison_flags[app id]` — [`POISONED`] when the app carries the
    /// adversarial incompressible profile, [`CALIBRATED`] when calibrated,
    /// [`NO_PROFILE`] when the id is outside the workload set. Dense so the
    /// per-consultation content-variant tag costs an array index per page
    /// instead of a hash probe (the oracle hit path runs millions of times).
    poison_flags: Vec<u8>,
    /// The memoized compression oracle shared by every consumer of this
    /// context (clones share the same cache).
    oracle: Arc<CompressionOracle>,
    /// Memory-hierarchy latency constants.
    pub timing: MemTimingModel,
    /// Compression-latency cost model.
    pub latency: LatencyModel,
    /// The thermal throttling state. Every scheme charges (de)compression
    /// through [`SchemeContext::compression_cost`] /
    /// [`SchemeContext::decompression_cost`], so the throttle hits all of
    /// them identically; disabled (the default) it is a pass-through.
    thermal: ThermalModel,
    /// Structured-event sink (disabled by default; see `ariadne-obs`).
    /// Observation never perturbs simulation: a disabled handle is one
    /// branch, an enabled one only copies values out.
    trace: TraceHandle,
    /// Compressed size as a percentage of original size, one sample per
    /// [`SchemeContext::compress_pages`] call.
    compression_ratios: RefCell<Histogram>,
}

impl SchemeContext {
    /// Build a context for the given workloads, with a private enabled
    /// oracle.
    #[must_use]
    pub fn new(seed: u64, workloads: &[AppWorkload]) -> Self {
        let max_id = workloads
            .iter()
            .map(|w| w.app.value() as usize)
            .max()
            .unwrap_or(0);
        let mut poison_flags = vec![NO_PROFILE; max_id + 1];
        for w in workloads {
            poison_flags[w.app.value() as usize] = if w.profile.media_weight >= 1.0 {
                POISONED
            } else {
                CALIBRATED
            };
        }
        SchemeContext {
            data: PageDataGenerator::new(seed),
            profiles: workloads.iter().map(|w| (w.app, w.profile)).collect(),
            poison_flags,
            oracle: Arc::new(CompressionOracle::new()),
            timing: MemTimingModel::pixel7(),
            latency: LatencyModel::pixel7(),
            thermal: ThermalModel::default(),
            trace: TraceHandle::disabled(),
            compression_ratios: RefCell::new(Histogram::new()),
        }
    }

    /// Attach a trace sink: codec cost charges and thermal inflations are
    /// emitted through it. Disabled handles (the default) cost one branch.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The compression ratios of every [`SchemeContext::compress_pages`]
    /// call so far, in percent of the original size.
    #[must_use]
    pub fn compression_ratios(&self) -> Histogram {
        self.compression_ratios.borrow().clone()
    }

    /// Enable (or explicitly disable) the thermal throttling model. The
    /// returned context starts from a cold CPU.
    #[must_use]
    pub fn with_thermal(mut self, config: ThermalConfig) -> Self {
        self.thermal = ThermalModel::new(config);
        self
    }

    /// The thermal throttling state (heat level, lifetime inflation).
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Simulated time to compress `bytes` in chunks of `chunk` at instant
    /// `now_nanos`, inflated by the current thermal throttle. All schemes
    /// must charge compression through here (not [`SchemeContext::latency`]
    /// directly), so throttling treats them identically.
    #[must_use]
    pub fn compression_cost(
        &self,
        algorithm: Algorithm,
        chunk: ChunkSize,
        bytes: usize,
        now_nanos: u128,
    ) -> CostNanos {
        let base = self.latency.compression_cost(algorithm, chunk, bytes);
        let cost = self.thermal.charge(base, now_nanos);
        if cost > base {
            self.trace
                .emit(now_nanos, || TraceEventKind::ThermalInflation {
                    base_nanos: base.0,
                    inflated_nanos: cost.0,
                });
        }
        self.trace.emit(now_nanos, || TraceEventKind::Compress {
            bytes,
            cost_nanos: cost.0,
        });
        cost
    }

    /// Simulated time to decompress `bytes` of original data compressed in
    /// chunks of `chunk`, inflated by the current thermal throttle (the
    /// decompression counterpart of [`SchemeContext::compression_cost`]).
    #[must_use]
    pub fn decompression_cost(
        &self,
        algorithm: Algorithm,
        chunk: ChunkSize,
        bytes: usize,
        now_nanos: u128,
    ) -> CostNanos {
        let base = self.latency.decompression_cost(algorithm, chunk, bytes);
        let cost = self.thermal.charge(base, now_nanos);
        if cost > base {
            self.trace
                .emit(now_nanos, || TraceEventKind::ThermalInflation {
                    base_nanos: base.0,
                    inflated_nanos: cost.0,
                });
        }
        self.trace.emit(now_nanos, || TraceEventKind::Decompress {
            bytes,
            cost_nanos: cost.0,
        });
        cost
    }

    /// Attach a shared oracle: this context joins the cache behind `handle`
    /// (see [`OracleHandle`] for how sharing stays sound across seeds). A
    /// disabled handle turns memoization off; results are byte-identical
    /// either way, only host wall-clock changes.
    #[must_use]
    pub fn with_oracle_handle(mut self, handle: &OracleHandle) -> Self {
        self.oracle = Arc::clone(&handle.0);
        self
    }

    /// Synthesize the contents of `page` into a caller-provided buffer
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the page belongs to an application that was not part of the
    /// workloads this context was built from.
    pub fn fill_page_bytes(&self, page: PageId, out: &mut [u8; PAGE_SIZE]) {
        let profile = self
            .profiles
            .get(&page.app())
            .unwrap_or_else(|| panic!("no profile registered for {}", page.app()));
        self.data.fill_page_bytes(profile, page, out);
    }

    /// Compress the concatenated contents of `pages` through the shared
    /// [`CompressionOracle`]: a repeat of an earlier `(pages, algorithm,
    /// chunk_size)` consultation is served from the cache without
    /// re-synthesizing or re-compressing a single byte. The sizes returned
    /// are bit-identical to a cold codec run either way. Each call records
    /// its ratio into [`SchemeContext::compression_ratios`].
    ///
    /// # Panics
    ///
    /// Panics if a page belongs to an application that was not part of the
    /// workloads this context was built from, or if the oracle lock was
    /// poisoned by a panicking thread.
    #[must_use]
    pub fn compress_pages(
        &self,
        pages: &[PageId],
        algorithm: Algorithm,
        chunk_size: ChunkSize,
    ) -> OracleOutcome {
        let outcome = self.consult_oracle(pages, algorithm, chunk_size);
        if outcome.original_len > 0 {
            self.compression_ratios.borrow_mut().record(
                (outcome.compressed_len as u64).saturating_mul(100) / outcome.original_len as u64,
            );
        }
        outcome
    }

    fn consult_oracle(
        &self,
        pages: &[PageId],
        algorithm: Algorithm,
        chunk_size: ChunkSize,
    ) -> OracleOutcome {
        // Two-phase consultation so no oracle lock is ever held across a
        // codec run: probe under the key's shard lock, compute a miss on
        // this thread's own scratch with the lock released (parallel cells
        // of a shared grid stay parallel on cold caches), then admit the
        // result. Two threads may compute the same key concurrently; the
        // results are bit-identical by construction and `admit` keeps the
        // first.
        let (seed, variant) = (self.data.seed(), self.content_variant(pages));
        if let Some(hit) = self
            .oracle
            .lookup(seed, pages, algorithm, chunk_size, variant)
        {
            return hit;
        }
        let lens = CODEC_SCRATCH.with(|scratch| {
            scratch
                .borrow_mut()
                .compress(pages, algorithm, chunk_size, &mut |page, buf| {
                    self.fill_page_bytes(page, buf)
                })
        });
        self.oracle
            .admit(seed, pages, algorithm, chunk_size, variant, lens)
    }

    /// The content-variant tag of a page group: one bit per page, set when
    /// the page's app carries the adversarial incompressible profile. A
    /// page's bytes are a pure function of `(seed, page, that flag)`, so the
    /// tag makes oracle keys exact across contexts that share an oracle but
    /// poison different apps (the adversarial-mix grid).
    ///
    /// # Panics
    ///
    /// Panics if a page belongs to an application that was not part of the
    /// workloads this context was built from.
    #[must_use]
    fn content_variant(&self, pages: &[PageId]) -> u64 {
        debug_assert!(pages.len() <= 64, "group exceeds the variant bitmask");
        let mut variant = 0u64;
        for (index, page) in pages.iter().enumerate() {
            let flag = self
                .poison_flags
                .get(page.app().value() as usize)
                .copied()
                .unwrap_or(NO_PROFILE);
            assert!(
                flag != NO_PROFILE,
                "no profile registered for {}",
                page.app()
            );
            variant |= u64::from(flag) << (index & 63);
        }
        variant
    }

    /// Lifetime counters of the shared oracle.
    ///
    /// # Panics
    ///
    /// Panics if the oracle lock was poisoned by a panicking thread.
    #[must_use]
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// The profile of `app`, if it is part of the workload set.
    #[must_use]
    pub fn profile(&self, app: AppId) -> Option<&AppProfile> {
        self.profiles.get(&app)
    }
}

/// Lifetime statistics a scheme reports to the experiment harness.
///
/// The scheme owns the codec, drop and stall counters; `flash`, `zpool` and
/// the pre-decompression counters are read from the structures that own
/// them each time [`SwapScheme::stats`] is called. CPU time lives only in
/// the clock's ledger ([`SimClock::cpu`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchemeStats {
    /// Number of compression operations performed.
    pub compression_ops: usize,
    /// Number of decompression operations performed.
    pub decompression_ops: usize,
    /// Pages compressed (swap-out side).
    pub pages_compressed: usize,
    /// Pages decompressed (swap-in side).
    pub pages_decompressed: usize,
    /// Original bytes passed to the compressor.
    pub bytes_before_compression: usize,
    /// Bytes produced by the compressor.
    pub bytes_after_compression: usize,
    /// Simulated time spent compressing.
    pub compression_time: CostNanos,
    /// Simulated time spent decompressing.
    pub decompression_time: CostNanos,
    /// Flash swap traffic.
    pub flash: FlashStats,
    /// zpool usage.
    pub zpool: ZpoolStats,
    /// Pages served from the pre-decompression buffer (Ariadne only).
    pub predecomp_hits: usize,
    /// Pages pre-decompressed but never used before eviction (Ariadne only).
    pub predecomp_wasted: usize,
    /// Pages whose data was dropped (zpool overflow without writeback) and
    /// had to be recreated on access.
    pub dropped_pages: usize,
    /// Fault-side flash stalls: faults waiting for an in-flight write of
    /// the faulted page to complete (queued I/O), or for the device to
    /// finish inline writeback before it can serve the read (sync I/O).
    pub io_stall_time: CostNanos,
    /// Submitter-side flash stalls: reclaim or the background flusher
    /// waiting for a free command-queue slot before submitting more
    /// writeback (a measure of writeback throttling, not of user-visible
    /// latency unless the submitter was a direct reclaim).
    pub io_queue_stall_time: CostNanos,
    /// Compressions served from the memoized [`CompressionOracle`] without
    /// running the codec.
    pub oracle_hits: usize,
    /// Compressions that had to run the codec (cold oracle consultations).
    pub oracle_misses: usize,
    /// Original bytes whose synthesis and compression an oracle hit avoided
    /// (host-CPU work saved; simulated costs are charged identically).
    pub oracle_bytes_saved: usize,
}

impl SchemeStats {
    /// Aggregate compression ratio achieved so far (1.0 when nothing was
    /// compressed).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_after_compression == 0 {
            1.0
        } else {
            self.bytes_before_compression as f64 / self.bytes_after_compression as f64
        }
    }

    /// CPU time attributable to compression plus decompression — the
    /// quantity normalised in the paper's Figure 11.
    #[must_use]
    pub fn compression_cpu(&self) -> CostNanos {
        self.compression_time + self.decompression_time
    }

    /// Record one compression of `pages` pages (`original_bytes` in,
    /// `compressed_bytes` out) that took `cost`, and charge the cost to the
    /// clock's CPU ledger.
    pub fn record_compression(
        &mut self,
        pages: usize,
        original_bytes: usize,
        compressed_bytes: usize,
        cost: CostNanos,
        clock: &mut SimClock,
    ) {
        self.compression_ops += 1;
        self.pages_compressed += pages;
        self.bytes_before_compression += original_bytes;
        self.bytes_after_compression += compressed_bytes;
        self.compression_time += cost;
        clock.charge_cpu(CpuActivity::Compression, cost);
    }

    /// Record one decompression of `pages` pages that took `cost`, and
    /// charge the cost to the clock's CPU ledger.
    pub fn record_decompression(&mut self, pages: usize, cost: CostNanos, clock: &mut SimClock) {
        self.decompression_ops += 1;
        self.pages_decompressed += pages;
        self.decompression_time += cost;
        clock.charge_cpu(CpuActivity::Decompression, cost);
    }

    /// Record one [`CompressionOracle`] consultation in the hit/miss/
    /// bytes-saved ledger (called by the schemes after every compression).
    pub fn record_oracle(&mut self, outcome: &OracleOutcome) {
        if outcome.hit {
            self.oracle_hits += 1;
            self.oracle_bytes_saved += outcome.original_len;
        } else {
            self.oracle_misses += 1;
        }
    }
}

impl fmt::Display for SchemeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comp_ops={} decomp_ops={} ratio={:.2} comp={:.2}ms decomp={:.2}ms flash_writes={}",
            self.compression_ops,
            self.decompression_ops,
            self.compression_ratio(),
            self.compression_time.as_millis_f64(),
            self.decompression_time.as_millis_f64(),
            self.flash.writes
        )
    }
}

/// A memory-swap policy: the baseline schemes and Ariadne all implement this.
///
/// Every scheme holds one [`Tiers`] (DRAM, zpool, flash, foreground app and
/// ledger) and implements only its policy on top of it.
pub trait SwapScheme {
    /// Upcast to [`std::any::Any`] so experiments can reach scheme-specific
    /// probes (e.g. Ariadne's identification metrics) behind `dyn SwapScheme`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable variant of [`SwapScheme::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Human-readable name (used in reports, e.g. `ZRAM`, `Ariadne-EHL-1K-2K-16K`).
    fn name(&self) -> String;

    /// The scheme's memory tiers. The driver reads DRAM watermarks and the
    /// flash queue through them, and attaches its trace sink to the flash
    /// device's writeback hooks.
    fn tiers(&self) -> &Tiers;

    /// Mutable variant of [`SwapScheme::tiers`].
    fn tiers_mut(&mut self) -> &mut Tiers;

    /// Register a freshly allocated anonymous page and make it resident.
    /// May trigger direct reclaim internally if DRAM is full.
    fn register_page(&mut self, page: PageId, clock: &mut SimClock, ctx: &SchemeContext);

    /// Access `page` (faulting it in if it is not resident). Returns where
    /// the page was found and the user-visible latency.
    fn access(
        &mut self,
        page: PageId,
        kind: AccessKind,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> AccessOutcome;

    /// Background reclaim (kswapd): evict at least `target_pages` pages
    /// from DRAM according to the scheme's policy. Returns the pages
    /// evicted.
    fn reclaim(&mut self, target_pages: usize, clock: &mut SimClock, ctx: &SchemeContext) -> usize;

    /// The application moved to the foreground.
    fn on_foreground(&mut self, app: AppId) {
        self.tiers_mut().foreground = Some(app);
    }

    /// The application moved to the background.
    fn on_background(&mut self, app: AppId) {
        let tiers = self.tiers_mut();
        if tiers.foreground == Some(app) {
            tiers.foreground = None;
        }
    }

    /// A relaunch of `app` is about to start (Ariadne rotates its hot list
    /// here; baselines ignore it).
    fn on_relaunch_start(&mut self, _app: AppId) {}

    /// The relaunch of `app` finished.
    fn on_relaunch_end(&mut self, _app: AppId) {}

    /// A memory-pressure spike was injected by the event engine. The default
    /// treats it as a proactive reclaim of `pressure.target_pages` pages;
    /// schemes with nothing to proactively reclaim (the DRAM baseline)
    /// override it to a no-op.
    fn on_pressure(&mut self, pressure: MemoryPressure, clock: &mut SimClock, ctx: &SchemeContext) {
        self.reclaim(pressure.target_pages, clock, ctx);
    }

    /// How many pages of deferred background work the scheme currently has
    /// pending (ZSWAP writeback flushes, Ariadne pre-decompression refills).
    /// The event engine polls this after app-lifecycle events and schedules
    /// drain ticks while it stays positive. Baselines with no deferred work
    /// keep the default of zero.
    fn deferred_pages(&self) -> usize {
        0
    }

    /// Perform up to `budget` pages of deferred background work off the
    /// relaunch critical path (CPU is charged, the clock does not advance).
    /// Returns the number of pages actually processed; the engine stops
    /// rescheduling drain ticks once this returns zero.
    fn drain_deferred(
        &mut self,
        _budget: usize,
        _clock: &mut SimClock,
        _ctx: &SchemeContext,
    ) -> usize {
        0
    }

    /// The process of `app` was killed (by lmkd or the user): free the
    /// app's **entire** footprint — resident DRAM pages, compressed zpool
    /// entries, flash swap slots (including objects whose write command is
    /// still in flight, which must retire harmlessly afterwards) and any
    /// scheme-private caches (Ariadne's hotness lists and pre-decompression
    /// buffer). After this returns, no page of `app` may be reachable
    /// (`location_of` reports [`PageLocation::Absent`]) and
    /// [`SwapScheme::leak_check`] must still pass. Required for every
    /// scheme: forgetting a tier silently inflates effective memory
    /// capacity, which is exactly what the lifecycle experiments measure.
    fn release_app(
        &mut self,
        app: AppId,
        clock: &mut SimClock,
        ctx: &SchemeContext,
    ) -> ReleasedFootprint;

    /// Verify the scheme's internal slot/index invariants (today: the flash
    /// device's [`leak_check`](ariadne_mem::FlashDevice::leak_check)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn leak_check(&self) -> Result<(), String> {
        self.tiers().flash.leak_check()
    }

    /// Where `page` currently lives.
    fn location_of(&self, page: PageId) -> PageLocation {
        self.tiers().location_of(page)
    }

    /// Lifetime statistics, with the flash, zpool and pre-decompression
    /// counters read from their owners at call time.
    fn stats(&self) -> SchemeStats {
        self.tiers().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_trace::{AppName, WorkloadBuilder};

    #[test]
    fn pixel7_scaled_config_preserves_ratios() {
        let full = MemoryConfig::pixel7_scaled(1);
        let scaled = MemoryConfig::pixel7_scaled(64);
        assert_eq!(full.dram_bytes / scaled.dram_bytes, 64);
        assert_eq!(full.zpool_bytes / scaled.zpool_bytes, 64);
        assert_eq!(scaled.algorithm, Algorithm::Lzo);
    }

    #[test]
    fn unlimited_dram_is_effectively_infinite() {
        let config = MemoryConfig::unlimited_dram(64);
        assert!(config.dram_bytes > (1usize << 60));
    }

    #[test]
    fn config_builders_override_fields() {
        let config =
            MemoryConfig::pixel7_scaled(64).with_writeback(WritebackPolicy::WritebackToFlash);
        assert_eq!(config.writeback, WritebackPolicy::WritebackToFlash);
    }

    #[test]
    fn context_produces_page_bytes_for_registered_apps() {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let page = workloads[0].pages[0].page;
        let mut buf = [0u8; PAGE_SIZE];
        ctx.fill_page_bytes(page, &mut buf);
        let profile = ctx.profile(page.app()).expect("registered app");
        assert_eq!(
            buf.as_slice(),
            PageDataGenerator::new(1).page_bytes(profile, page)
        );
        assert!(ctx.profile(AppId::new(1)).is_none());
    }

    #[test]
    fn context_oracle_serves_repeat_compressions_from_the_cache() {
        let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
        let ctx = SchemeContext::new(1, &workloads);
        let pages: Vec<PageId> = workloads[0].pages.iter().map(|p| p.page).take(4).collect();
        let cold = ctx.compress_pages(&pages, Algorithm::Lzo, ChunkSize::k16());
        let warm = ctx.compress_pages(&pages, Algorithm::Lzo, ChunkSize::k16());
        assert!(!cold.hit && warm.hit);
        assert_eq!(cold.compressed_len, warm.compressed_len);
        assert_eq!(cold.original_len, 4 * PAGE_SIZE);
        // Clones share the cache; a disabled context gets a fresh one but
        // reports the same sizes.
        let clone_hit = ctx
            .clone()
            .compress_pages(&pages, Algorithm::Lzo, ChunkSize::k16());
        assert!(clone_hit.hit);
        let off = ctx
            .clone()
            .with_oracle_handle(&OracleHandle::enabled(false))
            .compress_pages(&pages, Algorithm::Lzo, ChunkSize::k16());
        assert!(!off.hit);
        assert_eq!(off.compressed_len, cold.compressed_len);
        assert_eq!(ctx.oracle_stats().hits, 2);
    }

    #[test]
    fn stats_record_oracle_consultations() {
        let mut stats = SchemeStats::default();
        stats.record_oracle(&OracleOutcome {
            original_len: PAGE_SIZE,
            compressed_len: 1000,
            chunk_count: 1,
            hit: false,
        });
        stats.record_oracle(&OracleOutcome {
            original_len: PAGE_SIZE,
            compressed_len: 1000,
            chunk_count: 1,
            hit: true,
        });
        assert_eq!(stats.oracle_hits, 1);
        assert_eq!(stats.oracle_misses, 1);
        assert_eq!(stats.oracle_bytes_saved, PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "no profile registered")]
    fn context_panics_for_unknown_apps() {
        let ctx = SchemeContext::new(1, &[]);
        let page = PageId::new(AppId::new(5), ariadne_mem::Pfn::new(0));
        ctx.fill_page_bytes(page, &mut [0u8; PAGE_SIZE]);
    }

    #[test]
    fn stats_ratio_handles_the_empty_case() {
        let stats = SchemeStats::default();
        assert!((stats.compression_ratio() - 1.0).abs() < 1e-12);
        let stats = SchemeStats {
            bytes_before_compression: 8192,
            bytes_after_compression: 2048,
            ..SchemeStats::default()
        };
        assert!((stats.compression_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn stats_display_mentions_the_key_numbers() {
        let stats = SchemeStats {
            compression_ops: 3,
            bytes_before_compression: 100,
            bytes_after_compression: 50,
            ..SchemeStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("comp_ops=3") && text.contains("2.00"));
    }
}
