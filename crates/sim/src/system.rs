//! The whole-system driver: a discrete-event engine that launches,
//! backgrounds and relaunches applications against a swap scheme.
//!
//! Scenario events — from the legacy [`Scenario`] lists or from the timed
//! [`TimedScenario`] DSL — are pushed into a deterministic
//! [`EventQueue`] and are popped in
//! `(time, class, seq)` order. kswapd-style background reclaim and deferred
//! scheme work (ZSWAP writeback flushes, Ariadne pre-decompression refills)
//! are scheduled as events of their own rather than inlined calls, so
//! concurrent multi-app timelines can interleave relaunches with background
//! pressure. Legacy scenarios convert via [`Scenario::timeline`] into a
//! strictly ordered stream that replays with semantics (and numbers)
//! identical to the old synchronous loop.

use crate::engine::{EngineEvent, EventQueue};
use crate::lifecycle::{AppState, Lmkd, LmkdConfig, ProcessTable};
use crate::schemes::SchemeSpec;
use ariadne_compress::{CostNanos, ThermalConfig};
use ariadne_mem::{
    CpuBreakdown, FlashIoConfig, PageLocation, SimClock, SimInstant, Watermarks, PAGE_SIZE,
};
use ariadne_obs::{
    metrics::names as metric_names, Histogram, MetricsHandle, MetricsRegistry, TraceEventKind,
    TraceHandle,
};
use ariadne_trace::{
    AppMask, AppName, AppWorkload, DeviceClass, Scenario, ScenarioEvent, TimedScenario,
    WorkloadBuilder,
};
use ariadne_zram::{
    AccessKind, AccessOutcome, MemoryConfig, MemoryPressure, PressureLevel, ReleasedFootprint,
    SchemeContext, SchemeStats, SwapScheme,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Simulated nanoseconds between successive deferred-work drain ticks.
const DRAIN_TICK_NANOS: u128 = 1_000_000;

/// Pages of deferred work a scheme performs per drain tick (see
/// [`SwapScheme::drain_deferred`]).
const DRAIN_BATCH_PAGES: usize = 32;

/// Global knobs of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationConfig {
    /// Deterministic seed for workload generation and page contents.
    pub seed: u64,
    /// Scale denominator applied to both workload volumes and memory sizes.
    /// 1 reproduces the full Pixel 7; the experiments default to 64.
    pub scale: usize,
    /// Number of relaunch traces generated per application.
    pub relaunches: usize,
    /// The flash-device I/O model every scheme is built with (queued/async
    /// by default; the `writeback` experiment overrides it per cell).
    pub io: FlashIoConfig,
    /// Extra divisor applied to the zpool capacity on top of `scale`.
    /// The paper's device reserves a full 3 GB for the compressed pool,
    /// which rarely overflows; shipping vendors configure far smaller zswap
    /// pools, and I/O-heavy experiments use this knob to reproduce that
    /// regime (sustained writeback traffic). 1 leaves the paper's sizing.
    pub zpool_shrink: usize,
    /// Thresholds and pacing of the low-memory killer. Only consulted when
    /// the scenario arms lmkd ([`TimedScenario::lmkd`]).
    pub lmkd: LmkdConfig,
    /// The thermal throttling model (see
    /// [`ariadne_compress::ThermalConfig`]). Disabled by default, in which
    /// case every cost is byte-identical to a build without the model.
    pub thermal: ThermalConfig,
    /// Which device of the catalog is simulated. The default —
    /// [`DeviceClass::Flagship12Gb`] — translates to exactly the memory
    /// configuration every experiment used before the catalog existed.
    pub device: DeviceClass,
    /// Applications whose page data is adversarially incompressible (see
    /// [`ariadne_trace::AppProfile::incompressible`]). Empty by default.
    pub incompressible: AppMask,
}

impl SimulationConfig {
    /// The default experiment configuration (scale 64, five relaunches).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimulationConfig {
            seed,
            scale: 64,
            relaunches: 5,
            io: FlashIoConfig::ufs31(),
            zpool_shrink: 1,
            lmkd: LmkdConfig::default(),
            thermal: ThermalConfig::off(),
            device: DeviceClass::Flagship12Gb,
            incompressible: AppMask::none(),
        }
    }

    /// Override the scale denominator.
    #[must_use]
    pub fn with_scale(mut self, scale: usize) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Override the flash I/O model.
    #[must_use]
    pub fn with_io(mut self, io: FlashIoConfig) -> Self {
        self.io = io;
        self
    }

    /// Shrink the zpool by an extra factor (vendor-sized zswap pools; see
    /// [`SimulationConfig::zpool_shrink`]).
    #[must_use]
    pub fn with_zpool_shrink(mut self, shrink: usize) -> Self {
        self.zpool_shrink = shrink.max(1);
        self
    }

    /// Override the low-memory-killer thresholds.
    #[must_use]
    pub fn with_lmkd(mut self, lmkd: LmkdConfig) -> Self {
        self.lmkd = lmkd;
        self
    }

    /// Override the thermal throttling model (off by default).
    #[must_use]
    pub fn with_thermal(mut self, thermal: ThermalConfig) -> Self {
        self.thermal = thermal;
        self
    }

    /// Select a device class from the catalog. This also adopts the
    /// device's flash speed class; call [`SimulationConfig::with_io`]
    /// *afterwards* to override the I/O model on top of a device.
    #[must_use]
    pub fn with_device(mut self, device: DeviceClass) -> Self {
        self.device = device;
        self.io = device.io();
        self
    }

    /// Give the applications in `mask` adversarially incompressible page
    /// data.
    #[must_use]
    pub fn with_incompressible(mut self, mask: AppMask) -> Self {
        self.incompressible = mask;
        self
    }

    /// The memory configuration implied by the scale and device class.
    /// The flagship's budgets are numerically identical to
    /// [`MemoryConfig::pixel7_scaled`], so the default device reproduces
    /// the historical configuration byte for byte (pinned by test).
    #[must_use]
    pub fn memory(&self) -> MemoryConfig {
        let mut memory = MemoryConfig::pixel7_scaled(self.scale).with_io(self.io);
        memory.dram_bytes = self.device.dram_bytes(self.scale);
        memory.zpool_bytes = self.device.zpool_bytes(self.scale);
        memory.flash_swap_bytes = self.device.flash_swap_bytes(self.scale);
        memory.watermarks = Watermarks::android_default(memory.dram_bytes);
        memory.zpool_bytes = (memory.zpool_bytes / self.zpool_shrink.max(1)).max(PAGE_SIZE);
        memory
    }

    /// Build the workloads for every application at this scale.
    #[must_use]
    pub fn workloads(&self) -> Vec<AppWorkload> {
        WorkloadBuilder::new(self.seed)
            .scale(self.scale)
            .relaunches(self.relaunches)
            .incompressible(self.incompressible)
            .build_all()
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig::new(0x0A71_AD4E)
    }
}

/// Whether a measured relaunch found a live process or had to start cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelaunchKind {
    /// The process was alive: a hot (warm-data) relaunch.
    Warm,
    /// The process had been killed: the full cold launch was paid — process
    /// creation, application init, and rebuilding every page from scratch.
    Cold,
}

/// One measured application relaunch.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaunchMeasurement {
    /// Which application was relaunched.
    pub app: AppName,
    /// Warm relaunch or post-kill cold launch.
    pub kind: RelaunchKind,
    /// Total relaunch latency at simulation scale.
    pub latency: CostNanos,
    /// The part of [`RelaunchMeasurement::latency`] spent stalled on
    /// in-flight flash I/O (faults waiting for a queued write of the same
    /// page to complete).
    pub io_stall: CostNanos,
    /// Number of pages touched on the relaunch critical path.
    pub pages_accessed: usize,
    /// How many of those pages were found in each location.
    pub found_in: HashMap<PageLocation, usize>,
}

impl RelaunchMeasurement {
    /// Relaunch latency extrapolated to the full-scale device, in
    /// milliseconds. Both the number of hot pages and the amount of
    /// compressed data scale linearly with the workload scale, so the
    /// full-device latency is approximately the scaled latency times the
    /// scale denominator.
    #[must_use]
    pub fn full_scale_millis(&self, scale: usize) -> f64 {
        self.latency.as_millis_f64() * scale.max(1) as f64
    }
}

/// A single kill executed by the low-memory killer (or an explicit
/// scenario kill), as reported by [`MobileSystem::kill_records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillRecord {
    /// Simulated instant of the kill, as an offset from simulation start.
    pub at: std::time::Duration,
    /// The application whose process was killed.
    pub app: AppName,
}

/// Static label of a page location for trace-event args.
fn location_label(location: PageLocation) -> &'static str {
    match location {
        PageLocation::Dram => "dram",
        PageLocation::Zpool => "zpool",
        PageLocation::Flash => "flash",
        PageLocation::PreDecompBuffer => "predecomp_buffer",
        PageLocation::Absent => "absent",
    }
}

/// Convert a simulated-nanosecond timestamp into a [`std::time::Duration`].
fn duration_from_nanos(nanos: u128) -> std::time::Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    std::time::Duration::new(
        u64::try_from(nanos / NANOS_PER_SEC).unwrap_or(u64::MAX),
        (nanos % NANOS_PER_SEC) as u32,
    )
}

/// The simulated mobile device: a swap scheme plus the application workloads
/// driving it, wrapped around a deterministic discrete-event queue.
pub struct MobileSystem {
    config: SimulationConfig,
    ctx: SchemeContext,
    clock: SimClock,
    scheme: Box<dyn SwapScheme>,
    /// Shared (`Arc`) so event handlers can hold a workload across `&mut
    /// self` scheme calls without deep-copying its page and trace vectors.
    workloads: HashMap<AppName, Arc<AppWorkload>>,
    launched: HashSet<AppName>,
    measurements: Vec<RelaunchMeasurement>,
    queue: EventQueue,
    drains_enabled: bool,
    kswapd_pending: bool,
    drain_pending: bool,
    /// The instant the earliest scheduled `IoComplete` event fires at, if
    /// one is pending (deduplicates completion wake-ups).
    io_wake_at: Option<u128>,
    current_at_nanos: u128,
    events_processed: usize,
    io_completions: usize,
    pressure_spikes: usize,
    /// Per-application process states and cached-app recency ranking.
    procs: ProcessTable,
    /// The low-memory killer (active only when the scenario arms it).
    lmkd: Lmkd,
    lmkd_enabled: bool,
    lmkd_pending: bool,
    /// Cumulative memory-stall time: every nanosecond an access spent off
    /// the DRAM fast path (page faults on compressed/swapped/absent data,
    /// on-demand (de)compression, flash stalls). Feeds the PSI signal.
    memory_stall: CostNanos,
    /// Kills executed so far, in execution order.
    kill_records: Vec<KillRecord>,
    /// Page accesses served below DRAM so far.
    faults: usize,
    /// The PSI signal sampled at every lmkd wake, in parts per million.
    psi_samples: Histogram,
    /// Structured-event sink (disabled by default; see [`ariadne_obs`]).
    /// Observation never perturbs the simulation: every emission happens
    /// after the simulated outcome is already decided, and the disabled
    /// handle reduces to a single branch.
    trace: TraceHandle,
    /// The collector this system merges [`MobileSystem::metrics`] into when
    /// it is dropped (disabled by default).
    collector: MetricsHandle,
}

impl MobileSystem {
    /// Build a system running `spec` under `config`.
    #[must_use]
    pub fn new(spec: SchemeSpec, config: SimulationConfig) -> Self {
        let workload_list = config.workloads();
        let ctx = SchemeContext::new(config.seed, &workload_list).with_thermal(config.thermal);
        let scheme = spec.build(config.memory());
        MobileSystem {
            config,
            ctx,
            clock: SimClock::new(),
            scheme,
            workloads: workload_list
                .into_iter()
                .map(|w| (w.name, Arc::new(w)))
                .collect(),
            launched: HashSet::new(),
            measurements: Vec::new(),
            queue: EventQueue::new(),
            drains_enabled: false,
            kswapd_pending: false,
            drain_pending: false,
            io_wake_at: None,
            current_at_nanos: 0,
            events_processed: 0,
            io_completions: 0,
            pressure_spikes: 0,
            procs: ProcessTable::new(),
            lmkd: Lmkd::new(config.lmkd),
            lmkd_enabled: false,
            lmkd_pending: false,
            memory_stall: CostNanos::zero(),
            kill_records: Vec::new(),
            faults: 0,
            psi_samples: Histogram::new(),
            trace: TraceHandle::disabled(),
            collector: MetricsHandle::disabled(),
        }
    }

    /// The scheme under test.
    #[must_use]
    pub fn scheme(&self) -> &dyn SwapScheme {
        self.scheme.as_ref()
    }

    /// Mutable access to the scheme (used by experiments that need
    /// scheme-specific probes, e.g. Ariadne's identification metrics).
    pub fn scheme_mut(&mut self) -> &mut dyn SwapScheme {
        self.scheme.as_mut()
    }

    /// The simulation configuration.
    #[must_use]
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The simulated clock (time and CPU ledger).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The workload of `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not part of the workload set (all ten applications
    /// always are).
    #[must_use]
    pub fn workload(&self, app: AppName) -> &AppWorkload {
        &self.workloads[&app]
    }

    /// Relaunch measurements collected so far.
    #[must_use]
    pub fn measurements(&self) -> &[RelaunchMeasurement] {
        &self.measurements
    }

    /// Scheme statistics (compression counts, flash traffic, I/O stalls,
    /// ...). CPU time is in [`MobileSystem::cpu`].
    #[must_use]
    pub fn stats(&self) -> SchemeStats {
        self.scheme.stats()
    }

    /// CPU ledger of everything charged on this system's clock.
    #[must_use]
    pub fn cpu(&self) -> &CpuBreakdown {
        self.clock.cpu()
    }

    /// Lifetime counters of this system's compression oracle.
    #[must_use]
    pub fn oracle_stats(&self) -> ariadne_zram::OracleStats {
        self.ctx.oracle_stats()
    }

    /// Cumulative CPU time added by thermal throttling on top of the base
    /// (de)compression costs — zero whenever the model is disabled.
    #[must_use]
    pub fn thermal_extra(&self) -> CostNanos {
        self.ctx.thermal().extra_nanos()
    }

    /// Join the shared compression oracle behind `handle`, replacing this
    /// system's private enabled one (a disabled handle turns memoization
    /// off). Systems of one seed synthesize identical page bytes, so
    /// sharing lets the ZRAM run for app B reuse what the run for app A
    /// already compressed; a system of another seed bypasses the cache (see
    /// [`ariadne_zram::OracleHandle`]). Call before the first event runs.
    pub fn attach_oracle(&mut self, handle: &ariadne_zram::OracleHandle) {
        self.ctx = self.ctx.clone().with_oracle_handle(handle);
    }

    /// Attach a structured-trace sink. Each attached system gets its own
    /// Chrome-trace `pid` lane from the shared handle, so several systems
    /// (e.g. the per-app systems of one experiment) can interleave into a
    /// single Perfetto timeline. Call before the first event runs;
    /// simulation results are byte-identical with or without a sink
    /// (pinned by the `obs_identity` suite).
    pub fn attach_trace(&mut self, trace: &TraceHandle) {
        let handle = trace.for_next_system();
        self.ctx = self.ctx.clone().with_trace(handle.clone());
        self.scheme.tiers_mut().flash.set_trace(&handle);
        self.trace = handle;
    }

    /// Attach a metrics collector: when this system is dropped — its
    /// ledgers final — it merges [`MobileSystem::metrics`] into it. Merges
    /// commute, so one collector may be shared across concurrently-run
    /// systems.
    pub fn attach_metrics(&mut self, metrics: &MetricsHandle) {
        self.collector = metrics.clone();
    }

    /// This system's metrics, read from its ledgers: codec work and bytes
    /// from [`MobileSystem::stats`], flash write commands and pages, faults,
    /// kills, pressure spikes and thermal inflation as counters; relaunch
    /// latency and I/O stall (full-scale microseconds) from
    /// [`MobileSystem::measurements`], the PSI sampled at each lmkd wake and
    /// the compression ratios as histograms.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let stats = self.stats();
        let mut registry = MetricsRegistry::new();
        for (name, value) in [
            ("compress_ops", stats.compression_ops),
            ("decompress_ops", stats.decompression_ops),
            ("compress_original_bytes", stats.bytes_before_compression),
            ("compress_stored_bytes", stats.bytes_after_compression),
            ("flash_write_commands", stats.flash.commands),
            ("flash_pages_written", stats.flash.pages_written),
            ("faults", self.faults),
            ("kills", self.kills()),
            ("pressure_wakes", self.pressure_spikes),
        ] {
            registry.count(name, value as u64);
        }
        let thermal_extra = u64::try_from(self.thermal_extra().as_nanos()).unwrap_or(u64::MAX);
        registry.count("thermal_extra_nanos", thermal_extra);
        let scale = self.config.scale.max(1) as u128;
        let full_scale_micros =
            |cost: CostNanos| u64::try_from(cost.as_nanos() * scale / 1_000).unwrap_or(u64::MAX);
        for measurement in &self.measurements {
            let histogram = match measurement.kind {
                RelaunchKind::Warm => metric_names::RELAUNCH_WARM_MICROS,
                RelaunchKind::Cold => metric_names::RELAUNCH_COLD_MICROS,
            };
            registry.record(histogram, full_scale_micros(measurement.latency));
            if measurement.io_stall > CostNanos::zero() {
                registry.record(
                    metric_names::IO_STALL_MICROS,
                    full_scale_micros(measurement.io_stall),
                );
            }
        }
        registry.merge_histogram(metric_names::PSI_SOME_PPM, &self.psi_samples);
        registry.merge_histogram(
            metric_names::COMPRESSION_RATIO_PCT,
            &self.ctx.compression_ratios(),
        );
        registry
    }

    /// Applications that have been launched so far, in name order.
    #[must_use]
    pub fn launched_apps(&self) -> Vec<AppName> {
        let mut apps: Vec<AppName> = self.launched.iter().copied().collect();
        apps.sort_by_key(|a| a.uid());
        apps
    }

    /// Number of events the engine has dispatched.
    #[must_use]
    pub fn events_processed(&self) -> usize {
        self.events_processed
    }

    /// Number of memory-pressure spikes absorbed.
    #[must_use]
    pub fn pressure_spikes(&self) -> usize {
        self.pressure_spikes
    }

    /// Number of `IoComplete` events the engine has dispatched.
    #[must_use]
    pub fn io_completions(&self) -> usize {
        self.io_completions
    }

    /// Cumulative memory-stall time (the input of the PSI signal): every
    /// nanosecond an access spent off the DRAM fast path.
    #[must_use]
    pub fn memory_stall(&self) -> CostNanos {
        self.memory_stall
    }

    /// The smoothed PSI memory-pressure signal, in parts per million of
    /// wall time (see [`crate::lifecycle::PsiTracker`]).
    #[must_use]
    pub fn psi_ppm(&self) -> u64 {
        self.lmkd.psi_ppm()
    }

    /// Number of page accesses served below DRAM so far (from the zpool,
    /// flash, the pre-decompression buffer, or lost data).
    #[must_use]
    pub fn faults(&self) -> usize {
        self.faults
    }

    /// Number of applications lmkd has killed so far.
    #[must_use]
    pub fn kills(&self) -> usize {
        self.kill_records.len()
    }

    /// Every kill executed so far, in execution order.
    #[must_use]
    pub fn kill_records(&self) -> &[KillRecord] {
        &self.kill_records
    }

    /// The lifecycle state of `app` (`None` if it never ran).
    #[must_use]
    pub fn app_state(&self, app: AppName) -> Option<AppState> {
        self.procs.state(app)
    }

    /// Number of applications whose process is currently alive.
    #[must_use]
    pub fn alive_apps(&self) -> usize {
        self.procs.alive_count()
    }

    /// Measurements of the given relaunch kind (warm or cold).
    #[must_use]
    pub fn measurements_of(&self, kind: RelaunchKind) -> Vec<&RelaunchMeasurement> {
        self.measurements
            .iter()
            .filter(|m| m.kind == kind)
            .collect()
    }

    /// Average relaunch latency of the given kind, in full-scale
    /// milliseconds (0.0 when no such relaunch was measured).
    #[must_use]
    pub fn average_relaunch_millis_of(&self, kind: RelaunchKind) -> f64 {
        let of_kind = self.measurements_of(kind);
        if of_kind.is_empty() {
            return 0.0;
        }
        let total: f64 = of_kind
            .iter()
            .map(|m| m.full_scale_millis(self.config.scale))
            .sum();
        total / of_kind.len() as f64
    }

    /// Access a single page through the scheme on this system's clock (a
    /// probe used by invariant tests and scheme-specific experiments).
    pub fn touch(&mut self, page: ariadne_mem::PageId, kind: AccessKind) -> AccessOutcome {
        self.scheme.access(page, kind, &mut self.clock, &self.ctx)
    }

    // ------------------------------------------------------------------
    // Event engine
    // ------------------------------------------------------------------

    /// Push every event of a timed scenario into the queue without running
    /// it (pair with [`MobileSystem::step`] for stepwise execution).
    pub fn enqueue(&mut self, scenario: &TimedScenario) {
        self.drains_enabled = scenario.background_drains;
        self.lmkd_enabled = scenario.lmkd;
        self.queue.push_batch(
            scenario
                .events
                .iter()
                .map(|timed| (timed.at_nanos, EngineEvent::App(timed.event))),
        );
    }

    /// Run a timed scenario to completion through the event engine.
    pub fn run_timed(&mut self, scenario: &TimedScenario) {
        self.enqueue(scenario);
        while self.step().is_some() {}
    }

    /// Run a whole legacy scenario. The conversion through
    /// [`Scenario::timeline`] preserves the flat list's total order, so this
    /// reproduces the synchronous driver's numbers exactly.
    pub fn run_scenario(&mut self, scenario: &Scenario) {
        self.run_timed(&scenario.timeline());
    }

    /// Pop and dispatch the next pending event. Returns the dispatched event,
    /// or `None` if the queue is empty.
    pub fn step(&mut self) -> Option<EngineEvent> {
        let scheduled = self.queue.pop()?;
        self.current_at_nanos = scheduled.at_nanos;
        self.clock
            .fast_forward_to(SimInstant::from_nanos(scheduled.at_nanos));
        self.events_processed += 1;
        match scheduled.event {
            EngineEvent::App(event) => {
                self.dispatch_app_event(event);
                self.schedule_kswapd();
                self.schedule_drain();
                self.schedule_lmkd();
            }
            EngineEvent::KswapdWake => {
                self.kswapd_pending = false;
                self.kswapd_run();
                // Reclaim itself creates deferred work (e.g. a kswapd pass
                // pushes the zswap pool above its flush threshold), so drains
                // must be (re)scheduled here too, not only after app events.
                self.schedule_drain();
            }
            EngineEvent::DrainTick => {
                self.drain_pending = false;
                let done =
                    self.scheme
                        .drain_deferred(DRAIN_BATCH_PAGES, &mut self.clock, &self.ctx);
                if done > 0 && self.scheme.deferred_pages() > 0 {
                    self.drain_pending = true;
                    self.queue.push(
                        self.current_at_nanos + DRAIN_TICK_NANOS,
                        EngineEvent::DrainTick,
                    );
                }
            }
            EngineEvent::IoComplete => {
                self.io_wake_at = None;
                self.io_completions += 1;
                // Retirement is lazily time-driven inside the schemes, so
                // this changes no observable numbers — it pins the
                // completion onto the deterministic event order and keeps
                // the flash queue drained even when no fault ever touches
                // the written-back pages again.
                let _ = self
                    .scheme
                    .tiers_mut()
                    .flash
                    .retire_completed(scheduled.at_nanos);
            }
            EngineEvent::LmkdWake => {
                self.lmkd_pending = false;
                self.lmkd_run();
            }
        }
        // Any handler may have submitted or retired flash I/O.
        self.schedule_io();
        Some(scheduled.event)
    }

    fn dispatch_app_event(&mut self, event: ScenarioEvent) {
        match event {
            ScenarioEvent::Launch(app) => self.do_launch(app),
            ScenarioEvent::Background(app) => self.do_background(app),
            ScenarioEvent::Relaunch {
                app,
                relaunch_index,
            } => {
                self.do_relaunch(app, relaunch_index);
            }
            ScenarioEvent::Idle { millis } => self.do_idle(millis),
            ScenarioEvent::Pressure { dram_percent } => self.do_pressure(dram_percent),
        }
    }

    /// Schedule a kswapd wake-up at the current event's instant unless one is
    /// already pending. The wake's class makes it run after every
    /// app-lifecycle event scheduled at the same instant.
    fn schedule_kswapd(&mut self) {
        if !self.kswapd_pending {
            self.kswapd_pending = true;
            self.queue
                .push(self.current_at_nanos, EngineEvent::KswapdWake);
        }
    }

    /// Schedule a deferred-work drain tick if the scenario allows drains and
    /// the scheme reports pending work.
    fn schedule_drain(&mut self) {
        if self.drains_enabled && !self.drain_pending && self.scheme.deferred_pages() > 0 {
            self.drain_pending = true;
            self.queue
                .push(self.current_at_nanos, EngineEvent::DrainTick);
        }
    }

    /// Schedule an lmkd wake-up at the current instant unless one is already
    /// pending. Its class (4) makes it run after the app events, the kswapd
    /// pass and the drain ticks of the same instant: the killer judges the
    /// pressure that *remains* once reclaim had its chance.
    fn schedule_lmkd(&mut self) {
        if self.lmkd_enabled && !self.lmkd_pending {
            self.lmkd_pending = true;
            self.queue
                .push(self.current_at_nanos, EngineEvent::LmkdWake);
        }
    }

    /// One lmkd wake-up: sample the PSI signal and, above the kill
    /// threshold, kill the cached app with the highest `oom_score_adj`.
    fn lmkd_run(&mut self) {
        let now = self.clock.now().as_nanos();
        let mut killed = false;
        if self.lmkd.should_kill(now, self.memory_stall) {
            if let Some(victim) = self.procs.kill_candidate() {
                self.kill_app(victim);
                self.lmkd.note_kill(now);
                killed = true;
            }
        }
        let psi_ppm = self.lmkd.psi_ppm();
        self.psi_samples.record(psi_ppm);
        self.trace
            .emit(now, move || TraceEventKind::LmkdWake { psi_ppm, killed });
    }

    /// Schedule an `IoComplete` event at the earliest in-flight flash write
    /// completion, unless one is already pending at or before that instant.
    /// An event that arrives to find its command already retired (lazily, by
    /// a fault or a later submission) is a harmless no-op pop.
    fn schedule_io(&mut self) {
        if let Some(completes_at) = self.scheme.tiers().flash.next_completion() {
            if self
                .io_wake_at
                .map_or(true, |pending| completes_at < pending)
            {
                self.io_wake_at = Some(completes_at);
                self.queue.push(completes_at, EngineEvent::IoComplete);
            }
        }
    }

    // ------------------------------------------------------------------
    // Legacy imperative API (each call runs synchronously, including the
    // kswapd pass that follows every app-lifecycle transition)
    // ------------------------------------------------------------------

    /// Run a single scenario event synchronously.
    pub fn run_event(&mut self, event: ScenarioEvent) {
        match event {
            ScenarioEvent::Launch(app) => self.launch(app),
            ScenarioEvent::Background(app) => self.background(app),
            ScenarioEvent::Relaunch {
                app,
                relaunch_index,
            } => {
                self.relaunch(app, relaunch_index);
            }
            ScenarioEvent::Idle { millis } => self.idle(millis),
            ScenarioEvent::Pressure { dram_percent } => {
                self.do_pressure(dram_percent);
                self.kswapd_run();
            }
        }
    }

    /// Cold-launch `app`: create its anonymous pages and touch its launch
    /// (hot) data set.
    pub fn launch(&mut self, app: AppName) {
        self.do_launch(app);
        self.kswapd_run();
    }

    /// Send `app` to the background.
    pub fn background(&mut self, app: AppName) {
        self.do_background(app);
        self.kswapd_run();
    }

    /// Hot-launch (relaunch) `app`, replaying its `relaunch_index`-th trace.
    /// Returns the measurement (also recorded in [`MobileSystem::measurements`]).
    pub fn relaunch(&mut self, app: AppName, relaunch_index: usize) -> RelaunchMeasurement {
        let measurement = self.do_relaunch(app, relaunch_index);
        self.kswapd_run();
        measurement
    }

    /// The user pauses; background reclaim gets a chance to run.
    pub fn idle(&mut self, millis: u64) {
        self.do_idle(millis);
        self.kswapd_run();
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn do_launch(&mut self, app: AppName) {
        let workload = self.workloads[&app].clone();
        self.scheme.on_foreground(workload.app);
        self.procs.on_foreground(app);
        for spec in &workload.pages {
            self.scheme
                .register_page(spec.page, &mut self.clock, &self.ctx);
        }
        for &page in &workload.relaunches[0].hot_accesses {
            let outcome = self
                .scheme
                .access(page, AccessKind::Launch, &mut self.clock, &self.ctx);
            self.note_stall(app, &outcome);
        }
        self.launched.insert(app);
    }

    fn do_background(&mut self, app: AppName) {
        let id = self.workloads[&app].app;
        self.scheme.on_background(id);
        self.procs.on_background(app);
    }

    fn do_relaunch(&mut self, app: AppName, relaunch_index: usize) -> RelaunchMeasurement {
        if self.procs.is_killed(app) {
            // The process is gone: the user pays a full cold launch.
            return self.do_cold_relaunch(app);
        }
        if !self.launched.contains(&app) {
            // Mirror the old driver exactly: an implicit cold launch runs its
            // own kswapd pass before the relaunch replay begins.
            self.do_launch(app);
            self.kswapd_run();
        }
        let workload = self.workloads[&app].clone();
        let index = relaunch_index.min(workload.relaunches.len() - 1);
        let trace = &workload.relaunches[index];

        self.scheme.on_relaunch_start(workload.app);
        self.procs.on_foreground(app);
        let mut latency = CostNanos::zero();
        let mut io_stall = CostNanos::zero();
        let mut found_in: HashMap<PageLocation, usize> = HashMap::new();
        for &page in &trace.hot_accesses {
            let outcome =
                self.scheme
                    .access(page, AccessKind::Relaunch, &mut self.clock, &self.ctx);
            latency += outcome.latency;
            io_stall += outcome.io_stall;
            *found_in.entry(outcome.found_in).or_insert(0) += 1;
            self.note_stall(app, &outcome);
        }
        self.scheme.on_relaunch_end(workload.app);

        // Post-relaunch execution: warm accesses, not on the critical path.
        for &page in &trace.execution_accesses {
            let outcome =
                self.scheme
                    .access(page, AccessKind::Execution, &mut self.clock, &self.ctx);
            self.note_stall(app, &outcome);
        }

        let measurement = RelaunchMeasurement {
            app,
            kind: RelaunchKind::Warm,
            latency,
            io_stall,
            pages_accessed: trace.hot_accesses.len(),
            found_in,
        };
        self.trace_relaunch(&measurement);
        self.measurements.push(measurement.clone());
        measurement
    }

    /// A relaunch of a **killed** application: the process must be created
    /// from scratch, so the user pays the per-profile cold-start cost
    /// (process creation, application init) plus the rebuilding of the
    /// launch data set — none of it can be served from the zpool or flash,
    /// because the kill freed the entire footprint.
    fn do_cold_relaunch(&mut self, app: AppName) -> RelaunchMeasurement {
        let workload = self.workloads[&app].clone();
        // Process re-creation and application initialisation: app CPU that a
        // warm relaunch never pays, from the calibrated profile.
        let init = workload.profile.cold_start_cost(self.config.scale);
        self.clock.advance(init);

        self.scheme.on_foreground(workload.app);
        self.procs.on_foreground(app);
        let mut latency = init;
        let mut io_stall = CostNanos::zero();
        let mut found_in: HashMap<PageLocation, usize> = HashMap::new();
        for spec in &workload.pages {
            self.scheme
                .register_page(spec.page, &mut self.clock, &self.ctx);
        }
        for &page in &workload.relaunches[0].hot_accesses {
            let outcome = self
                .scheme
                .access(page, AccessKind::Launch, &mut self.clock, &self.ctx);
            latency += outcome.latency;
            io_stall += outcome.io_stall;
            *found_in.entry(outcome.found_in).or_insert(0) += 1;
            self.note_stall(app, &outcome);
        }
        self.launched.insert(app);

        let measurement = RelaunchMeasurement {
            app,
            kind: RelaunchKind::Cold,
            latency,
            io_stall,
            pages_accessed: workload.relaunches[0].hot_accesses.len(),
            found_in,
        };
        self.trace_relaunch(&measurement);
        self.measurements.push(measurement.clone());
        measurement
    }

    /// Kill `app`: the scheme frees its entire footprint across DRAM, the
    /// zpool and flash (in-flight writes retire harmlessly), and the app's
    /// next relaunch is re-costed as a cold launch. Called by lmkd; also
    /// public so invariant tests and experiments can kill explicitly.
    /// Killing a process that is already dead releases whatever the scheme
    /// still holds (normally nothing) without recording another kill.
    pub fn kill_app(&mut self, app: AppName) -> ReleasedFootprint {
        let id = self.workloads[&app].app;
        let footprint = self.scheme.release_app(id, &mut self.clock, &self.ctx);
        if !self.procs.is_killed(app) {
            self.procs.on_kill(app);
            let at = self.clock.now().as_nanos();
            self.kill_records.push(KillRecord {
                at: duration_from_nanos(at),
                app,
            });
            // The trace sees kills through the exact code path that feeds
            // the kill ledger, so the two can never drift apart.
            self.trace.emit(at, move || TraceEventKind::Kill {
                app: app.to_string(),
                app_uid: app.uid(),
            });
        }
        footprint
    }

    /// Feed the PSI signal: every access that missed DRAM is a memory stall
    /// for its entire latency (fault handling, decompression, flash reads
    /// and in-flight-write stalls — reclaim run on the fault path included).
    ///
    /// A fault on *lost* data (plain ZRAM dropped the compressed entry on
    /// zpool overflow) additionally charges the cost of re-creating the
    /// data: on a real device dirty anonymous pages cannot be silently
    /// discarded — the application would have to rebuild them (re-reading
    /// assets from storage at the very least), work the relaunch-latency
    /// ledger's legacy minor-fault model does not include but the pressure
    /// signal must see, or dropping data would read as *relieving* memory
    /// pressure.
    fn note_stall(&mut self, app: AppName, outcome: &AccessOutcome) {
        if outcome.found_in != PageLocation::Dram {
            self.faults += 1;
            let latency = outcome.latency.as_nanos();
            let location = location_label(outcome.found_in);
            // Stamp the fault at its *start* so the Chrome-trace span ends
            // at the current instant.
            let start = self.clock.now().as_nanos().saturating_sub(latency);
            self.trace.emit(start, move || TraceEventKind::Fault {
                app: app.to_string(),
                app_uid: app.uid(),
                location,
                latency_nanos: latency,
            });
        }
        match outcome.found_in {
            PageLocation::Dram => {}
            PageLocation::Absent => {
                self.memory_stall += outcome.latency + self.ctx.timing.flash_read(PAGE_SIZE);
            }
            _ => self.memory_stall += outcome.latency,
        }
    }

    /// Emit one finished relaunch as a trace span ending now.
    fn trace_relaunch(&self, measurement: &RelaunchMeasurement) {
        let app = measurement.app;
        let kind = match measurement.kind {
            RelaunchKind::Warm => "warm",
            RelaunchKind::Cold => "cold",
        };
        let latency = measurement.latency.as_nanos();
        let start = self.clock.now().as_nanos().saturating_sub(latency);
        self.trace.emit(start, move || TraceEventKind::Relaunch {
            app: app.to_string(),
            app_uid: app.uid(),
            kind,
            latency_nanos: latency,
        });
    }

    fn do_idle(&mut self, millis: u64) {
        self.clock
            .advance(CostNanos(u128::from(millis) * 1_000_000));
    }

    /// A memory-pressure spike: the platform demands `dram_percent` of the
    /// currently resident anonymous bytes back.
    fn do_pressure(&mut self, dram_percent: u8) {
        let percent = usize::from(dram_percent.min(100));
        let target_bytes = self.scheme.tiers().dram.used_bytes() / 100 * percent;
        let target_pages = target_bytes.div_ceil(PAGE_SIZE);
        self.pressure_spikes += 1;
        if target_pages == 0 {
            return;
        }
        let level = if percent >= 50 {
            PressureLevel::Critical
        } else {
            PressureLevel::Medium
        };
        let pressure = MemoryPressure {
            target_pages,
            level,
        };
        let level_label = match level {
            PressureLevel::Critical => "critical",
            PressureLevel::Medium => "medium",
        };
        self.trace.emit(self.clock.now().as_nanos(), move || {
            TraceEventKind::PressureWake {
                level: level_label,
                target_pages,
            }
        });
        self.scheme
            .on_pressure(pressure, &mut self.clock, &self.ctx);
    }

    /// Run background (kswapd) reclaim until the high watermark is restored
    /// or no further progress can be made.
    fn kswapd_run(&mut self) {
        for _ in 0..64 {
            let Some(target_pages) = self.scheme.tiers().dram.background_reclaim_pages() else {
                break;
            };
            let evicted = self
                .scheme
                .reclaim(target_pages, &mut self.clock, &self.ctx);
            if evicted == 0 {
                break;
            }
        }
    }

    /// Average relaunch latency across all measurements, in full-scale
    /// milliseconds.
    #[must_use]
    pub fn average_relaunch_millis(&self) -> f64 {
        if self.measurements.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .measurements
            .iter()
            .map(|m| m.full_scale_millis(self.config.scale))
            .sum();
        total / self.measurements.len() as f64
    }
}

/// A system's ledgers are final only once it is dropped, and whoever
/// attached the collector (a whole experiment run, say) never sees the
/// systems built on its behalf — so dropping is when the metrics merge.
/// A system dropped while its thread unwinds has no final ledgers and
/// merges nothing.
impl Drop for MobileSystem {
    fn drop(&mut self) {
        if self.collector.is_enabled() && !std::thread::panicking() {
            self.collector.merge(&self.metrics());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimulationConfig {
        SimulationConfig::new(7).with_scale(512)
    }

    #[test]
    fn the_flagship_device_reproduces_the_historical_memory_config_exactly() {
        for scale in [1usize, 64, 256, 512] {
            let config = SimulationConfig::new(7).with_scale(scale);
            assert_eq!(config.device, DeviceClass::Flagship12Gb);
            let mut legacy = MemoryConfig::pixel7_scaled(scale).with_io(config.io);
            legacy.zpool_bytes = (legacy.zpool_bytes / config.zpool_shrink.max(1)).max(PAGE_SIZE);
            assert_eq!(
                config.memory(),
                legacy,
                "scale {scale} must be byte-identical"
            );
        }
    }

    #[test]
    fn the_entry_device_is_tighter_in_every_budget() {
        let flagship = SimulationConfig::new(7).with_scale(256);
        let entry = SimulationConfig::new(7)
            .with_scale(256)
            .with_device(DeviceClass::Entry2Gb);
        let f = flagship.memory();
        let e = entry.memory();
        assert!(e.dram_bytes < f.dram_bytes);
        assert!(e.zpool_bytes < f.zpool_bytes);
        assert!(e.flash_swap_bytes < f.flash_swap_bytes);
        assert_eq!(e.io, DeviceClass::Entry2Gb.io());
        // Watermarks follow the shrunken DRAM.
        assert!(e.watermarks.low < f.watermarks.low);
    }

    #[test]
    fn incompressible_mask_flows_into_the_workloads() {
        let mask = AppMask::of(&[AppName::Twitter]);
        let config = quick_config().with_incompressible(mask);
        let workloads = config.workloads();
        for workload in &workloads {
            let expected = if workload.name == AppName::Twitter {
                1.0
            } else {
                workload.name.profile().media_weight
            };
            assert!((workload.profile.media_weight - expected).abs() < 1e-12);
        }
        // The empty mask reproduces the historical workloads exactly.
        assert_eq!(
            quick_config().workloads(),
            quick_config()
                .with_incompressible(AppMask::none())
                .workloads()
        );
    }

    #[test]
    fn relaunch_study_produces_a_measurement_per_relaunch() {
        let mut system = MobileSystem::new(SchemeSpec::Zram, quick_config());
        let scenario = Scenario::relaunch_study(AppName::Twitter);
        system.run_scenario(&scenario);
        assert_eq!(system.measurements().len(), 1);
        let m = &system.measurements()[0];
        assert_eq!(m.app, AppName::Twitter);
        assert!(m.pages_accessed > 0);
        assert!(m.latency > CostNanos::zero());
    }

    #[test]
    fn dram_baseline_is_faster_than_zram_under_pressure() {
        let scenario = Scenario::relaunch_study(AppName::Youtube);
        let mut dram = MobileSystem::new(SchemeSpec::Dram, quick_config());
        dram.run_scenario(&scenario);
        let mut zram = MobileSystem::new(SchemeSpec::Zram, quick_config());
        zram.run_scenario(&scenario);
        assert!(
            zram.average_relaunch_millis() > dram.average_relaunch_millis(),
            "zram {} vs dram {}",
            zram.average_relaunch_millis(),
            dram.average_relaunch_millis()
        );
    }

    #[test]
    fn memory_pressure_triggers_compression_under_zram() {
        let mut system = MobileSystem::new(SchemeSpec::Zram, quick_config());
        system.run_scenario(&Scenario::relaunch_study(AppName::Firefox));
        assert!(
            system.stats().compression_ops > 0,
            "no compression happened"
        );
        assert!(system.scheme().tiers().dram.peak_used_bytes() > 0);
    }

    #[test]
    fn relaunching_an_unlaunched_app_launches_it_first() {
        let mut system = MobileSystem::new(SchemeSpec::Dram, quick_config());
        let measurement = system.relaunch(AppName::Edge, 0);
        assert!(measurement.pages_accessed > 0);
    }

    #[test]
    fn relaunch_index_is_clamped_to_available_traces() {
        let mut system = MobileSystem::new(SchemeSpec::Dram, quick_config());
        system.launch(AppName::TikTok);
        let measurement = system.relaunch(AppName::TikTok, 99);
        assert!(measurement.pages_accessed > 0);
    }

    #[test]
    fn full_scale_extrapolation_multiplies_by_scale() {
        let m = RelaunchMeasurement {
            app: AppName::Twitter,
            kind: RelaunchKind::Warm,
            latency: CostNanos(2_000_000), // 2 ms at scale
            io_stall: CostNanos::zero(),
            pages_accessed: 10,
            found_in: HashMap::new(),
        };
        assert!((m.full_scale_millis(64) - 128.0).abs() < 1e-9);
    }

    /// The semantics-preservation contract of the refactor: replaying a
    /// legacy scenario through the event engine produces exactly the numbers
    /// the old synchronous loop produced (here reproduced by the imperative
    /// `run_event` path).
    #[test]
    fn event_engine_reproduces_the_synchronous_replay_exactly() {
        for scenario in [
            Scenario::relaunch_study(AppName::Youtube),
            Scenario::light_switching(1),
        ] {
            let mut engine = MobileSystem::new(SchemeSpec::Zram, quick_config());
            engine.run_scenario(&scenario);

            let mut sync = MobileSystem::new(SchemeSpec::Zram, quick_config());
            for event in &scenario.events {
                sync.run_event(*event);
            }

            assert_eq!(engine.measurements(), sync.measurements());
            assert_eq!(engine.stats(), sync.stats());
            assert_eq!(engine.cpu(), sync.cpu());
        }
    }

    #[test]
    fn stepwise_execution_matches_run_timed() {
        let scenario = TimedScenario::concurrent_relaunch_storm();
        let mut stepped = MobileSystem::new(SchemeSpec::Zswap, quick_config());
        stepped.enqueue(&scenario);
        let mut dispatched = 0usize;
        while stepped.step().is_some() {
            dispatched += 1;
        }
        assert_eq!(dispatched, stepped.events_processed());
        assert!(dispatched >= scenario.events.len());

        let mut whole = MobileSystem::new(SchemeSpec::Zswap, quick_config());
        whole.run_timed(&scenario);
        assert_eq!(stepped.measurements(), whole.measurements());
        assert_eq!(stepped.stats(), whole.stats());
    }

    #[test]
    fn pressure_spikes_reclaim_resident_memory() {
        let mut system = MobileSystem::new(SchemeSpec::Zram, quick_config());
        system.launch(AppName::Twitter);
        let before = system.scheme().tiers().dram.used_bytes();
        assert!(before > 0);
        system.run_event(ScenarioEvent::Pressure { dram_percent: 30 });
        assert_eq!(system.pressure_spikes(), 1);
        assert!(
            system.scheme().tiers().dram.used_bytes() < before,
            "a 30 % pressure spike should shrink residency"
        );
        assert!(system.stats().compression_ops > 0);
    }

    #[test]
    fn killed_apps_relaunch_cold_with_the_profile_cold_start_cost() {
        let mut system = MobileSystem::new(SchemeSpec::Zram, quick_config());
        system.launch(AppName::Twitter);
        system.background(AppName::Twitter);
        let warm = system.relaunch(AppName::Twitter, 0);
        assert_eq!(warm.kind, RelaunchKind::Warm);
        system.background(AppName::Twitter);

        let footprint = system.kill_app(AppName::Twitter);
        assert!(footprint.total_pages() > 0);
        assert_eq!(system.app_state(AppName::Twitter), Some(AppState::Killed));
        assert_eq!(system.kills(), 1);
        let pages: Vec<ariadne_mem::PageId> = system
            .workload(AppName::Twitter)
            .pages
            .iter()
            .map(|p| p.page)
            .collect();
        for page in pages {
            assert_eq!(system.scheme().location_of(page), PageLocation::Absent);
        }

        let cold = system.relaunch(AppName::Twitter, 1);
        assert_eq!(cold.kind, RelaunchKind::Cold);
        assert!(
            cold.latency >= AppName::Twitter.profile().cold_start_cost(512),
            "a cold launch pays at least the process/init cost"
        );
        assert!(cold.latency > warm.latency);
        assert_eq!(system.app_state(AppName::Twitter), Some(AppState::Alive));
        assert!(system.average_relaunch_millis_of(RelaunchKind::Cold) > 0.0);
        assert_eq!(system.measurements_of(RelaunchKind::Warm).len(), 1);
    }

    #[test]
    fn lmkd_is_inert_when_the_scenario_does_not_arm_it() {
        let scenario = TimedScenario::concurrent_relaunch_storm();
        assert!(!scenario.lmkd);
        let mut system = MobileSystem::new(SchemeSpec::Zram, quick_config());
        system.run_timed(&scenario);
        assert_eq!(system.kills(), 0);
        assert_eq!(system.psi_ppm(), 0, "PSI is only sampled under lmkd");
        assert!(system
            .measurements()
            .iter()
            .all(|m| m.kind == RelaunchKind::Warm));
    }

    #[test]
    fn memory_stall_accumulates_only_off_the_dram_fast_path() {
        let mut dram = MobileSystem::new(SchemeSpec::Dram, quick_config());
        dram.run_scenario(&Scenario::relaunch_study(AppName::Youtube));
        assert_eq!(dram.memory_stall(), CostNanos::zero());

        let mut zram = MobileSystem::new(SchemeSpec::Zram, quick_config());
        zram.run_scenario(&Scenario::relaunch_study(AppName::Youtube));
        assert!(zram.memory_stall() > CostNanos::zero());
    }

    #[test]
    fn concurrent_storm_interleaves_multiple_apps() {
        let scenario = TimedScenario::concurrent_relaunch_storm();
        assert!(scenario.has_overlap());
        let mut system = MobileSystem::new(SchemeSpec::Zram, quick_config());
        system.run_timed(&scenario);
        assert!(system.launched_apps().len() >= 3);
        assert_eq!(system.measurements().len(), scenario.relaunch_count());
        assert!(system.pressure_spikes() >= 2);
        assert!(system.clock().now() >= SimInstant::from_nanos(0));
    }
}
