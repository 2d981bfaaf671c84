//! Driving whole `MobileSystem`s one after another, as the `relaunch` and
//! `soak` workloads do, and reading their outcomes back.

use crate::spans::Recorder;
use crate::stats::{paper_gap_pp, Digest, PAPER_CPU_REDUCTION_PCT, PAPER_RELAUNCH_REDUCTION_PCT};
use crate::{Checks, Iteration, Layers};
use ariadne_compress::PAGE_SIZE;
use ariadne_sim::{EngineEvent, MobileSystem, RelaunchKind, SchemeSpec, SimulationConfig};
use ariadne_trace::ScenarioEvent;
use ariadne_zram::{OracleHandle, OracleStats};
use std::time::Instant;

/// The event classes `MobileSystem::step()` can return, as metric tags.
pub const EVENT_CLASSES: [&str; 9] = [
    "launch",
    "background",
    "relaunch",
    "pressure",
    "idle",
    "kswapd",
    "drain",
    "io_complete",
    "lmkd",
];

/// The metric tag of a dispatched event.
pub fn event_class(event: &EngineEvent) -> &'static str {
    match event {
        EngineEvent::App(ScenarioEvent::Launch(_)) => "launch",
        EngineEvent::App(ScenarioEvent::Background(_)) => "background",
        EngineEvent::App(ScenarioEvent::Relaunch { .. }) => "relaunch",
        EngineEvent::App(ScenarioEvent::Pressure { .. }) => "pressure",
        EngineEvent::App(ScenarioEvent::Idle { .. }) => "idle",
        EngineEvent::KswapdWake => "kswapd",
        EngineEvent::DrainTick => "drain",
        EngineEvent::IoComplete => "io_complete",
        EngineEvent::LmkdWake => "lmkd",
    }
}

/// The schemes the per-scheme metrics are reported for: (metric tag,
/// figure label).
pub const SCHEMES: [(&str, &str); 4] = [
    ("zram", "ZRAM"),
    ("swap", "SWAP"),
    ("ariadne_ehl", "Ariadne-EHL-1K-2K-16K"),
    ("ariadne_al", "Ariadne-AL-1K-2K-16K"),
];

/// The metric tag and static label of `spec`.
///
/// # Panics
///
/// Panics for a scheme the benchmark does not run.
pub fn scheme_names(spec: SchemeSpec) -> (&'static str, &'static str) {
    let label = spec.label();
    *SCHEMES
        .iter()
        .find(|(_, l)| *l == label)
        .unwrap_or_else(|| panic!("the benchmark does not run {label}"))
}

/// A system under test.
pub struct Sut {
    /// The scheme's metric tag (`zram`, `ariadne_ehl`, ...).
    pub tag: &'static str,
    /// The scheme's figure label.
    pub label: &'static str,
    /// The system itself.
    pub system: MobileSystem,
}

impl Sut {
    /// Build a system for `spec` joined to `oracle`, recording the
    /// `MobileSystem::new` span when traced.
    pub fn new(
        spec: SchemeSpec,
        config: SimulationConfig,
        oracle: &OracleHandle,
        rec: Option<&mut Recorder>,
    ) -> Sut {
        let (tag, label) = scheme_names(spec);
        let start = Instant::now();
        let mut system = MobileSystem::new(spec, config);
        if let Some(rec) = rec {
            rec.record("MobileSystem::new", "new", label, start, Instant::now());
        }
        system.attach_oracle(oracle);
        Sut { tag, label, system }
    }

    /// Step the system until its queue is empty, recording one span per
    /// `step()` when traced. When `mark` is `Some(n)`, `on_mark` runs once,
    /// right after the `n`-th scenario (app) event was dispatched.
    pub fn run(
        &mut self,
        mut rec: Option<&mut Recorder>,
        mark: Option<usize>,
        mut on_mark: impl FnMut(&MobileSystem),
    ) {
        let mut app_events = 0usize;
        loop {
            let start = rec.as_ref().map(|_| Instant::now());
            let Some(event) = self.system.step() else {
                break;
            };
            if let (Some(rec), Some(start)) = (rec.as_deref_mut(), start) {
                rec.record(
                    "step",
                    event_class(&event),
                    self.label,
                    start,
                    Instant::now(),
                );
            }
            if matches!(event, EngineEvent::App(_)) {
                app_events += 1;
                if mark == Some(app_events) {
                    on_mark(&self.system);
                }
            }
        }
    }

    /// Fold everything the run simulated into `digest`: each relaunch
    /// measurement and the scheme's counters.
    pub fn digest(&self, digest: &mut Digest) {
        let system = &self.system;
        digest.str(self.label);
        for m in system.measurements() {
            digest.str(&m.app.to_string());
            digest.u128(u128::from(m.kind == RelaunchKind::Cold));
            digest.u128(m.latency.as_nanos());
            digest.u128(m.io_stall.as_nanos());
            digest.u128(m.pages_accessed as u128);
            let mut found: Vec<String> = m
                .found_in
                .iter()
                .map(|(location, n)| format!("{location:?}={n}"))
                .collect();
            found.sort();
            digest.str(&found.join(","));
        }
        let s = system.stats();
        for count in [
            s.compression_ops,
            s.decompression_ops,
            s.pages_compressed,
            s.pages_decompressed,
            s.bytes_before_compression,
            s.bytes_after_compression,
            s.predecomp_hits,
            s.predecomp_wasted,
            s.dropped_pages,
            s.flash.writes,
            s.flash.bytes_written,
            s.flash.reads,
            s.flash.bytes_read,
            s.flash.commands,
            s.flash.physical_bytes_written,
            s.flash.erases,
            system.kills(),
            system.events_processed(),
        ] {
            digest.u128(count as u128);
        }
        for time in [
            s.compression_time,
            s.decompression_time,
            s.io_stall_time,
            s.io_queue_stall_time,
        ] {
            digest.u128(time.as_nanos());
        }
    }

    /// Check the scheme's own leak invariants.
    pub fn leak_check(&self, checks: &mut Checks) {
        let result = self.system.scheme().leak_check();
        checks.check(result.is_ok(), || {
            format!("{}: leak check failed: {:?}", self.label, result.err())
        });
    }
}

/// Per-scheme accumulators behind the `model.*` metrics and the two gaps,
/// in full-scale milliseconds.
#[derive(Debug, Default, Clone, Copy)]
struct SchemeModel {
    warm_sum_ms: f64,
    warm_count: usize,
    codec_cpu_ms: f64,
}

impl SchemeModel {
    /// Mean warm-relaunch latency (0 without warm relaunches).
    fn warm_mean_ms(&self) -> f64 {
        ratio(self.warm_sum_ms, self.warm_count as f64)
    }
}

/// Everything read back from a set of finished systems.
#[derive(Debug, Default)]
struct Outcome {
    /// `model.*` accumulators, indexed like [`SCHEMES`].
    models: [SchemeModel; 4],
    /// Per-layer counters (`sim.kills`, `zram.*_ops.*`, `core.*`, `mem.*`,
    /// `compress.codec_bytes`).
    layers: Layers,
    core_bytes: (f64, f64),
    flash_bytes: (f64, f64),
}

impl Outcome {
    /// Fold one finished system into the outcome.
    fn add(&mut self, sut: &Sut) {
        let system = &sut.system;
        let scale = system.config().scale as f64;
        let s = system.stats();
        let model = &mut self.models[scheme_index(sut.tag)];
        for m in system.measurements_of(RelaunchKind::Warm) {
            model.warm_sum_ms += m.full_scale_millis(system.config().scale);
            model.warm_count += 1;
        }
        model.codec_cpu_ms += s.compression_cpu().as_millis_f64() * scale;

        let layers = &mut self.layers;
        layers.add("sim.kills", system.kills() as f64);
        layers.add(
            "sim.cold_launches",
            system.measurements_of(RelaunchKind::Cold).len() as f64,
        );
        layers.add(
            "sim.warm_relaunches",
            system.measurements_of(RelaunchKind::Warm).len() as f64,
        );
        // Every compression consults the oracle once, except Ariadne's
        // re-compression of an unused pre-decompressed page, which is
        // charged one page without a codec run.
        let recompressed = s
            .compression_ops
            .saturating_sub(s.oracle_hits + s.oracle_misses);
        layers.add(
            "compress.codec_bytes",
            s.bytes_before_compression
                .saturating_sub(s.oracle_bytes_saved + recompressed * PAGE_SIZE) as f64,
        );
        if sut.tag != "swap" {
            layers.add(
                &format!("zram.compression_ops.{}", sut.tag),
                s.compression_ops as f64,
            );
            layers.add(
                &format!("zram.decompression_ops.{}", sut.tag),
                s.decompression_ops as f64,
            );
        }
        if sut.tag.starts_with("ariadne") {
            layers.add("core.predecomp_hits", s.predecomp_hits as f64);
            layers.add("core.predecomp_wasted", s.predecomp_wasted as f64);
            layers.add("core.compression_ops", s.compression_ops as f64);
            layers.add("core.decompression_ops", s.decompression_ops as f64);
            self.core_bytes.0 += s.bytes_before_compression as f64;
            self.core_bytes.1 += s.bytes_after_compression as f64;
        }
        layers.add("mem.flash_commands", s.flash.commands as f64);
        layers.add("mem.flash_bytes_written", s.flash.bytes_written as f64);
        layers.add("mem.flash_bytes_read", s.flash.bytes_read as f64);
        layers.add("mem.io_stall_ms", s.io_stall_time.as_millis_f64());
        layers.add(
            "mem.io_queue_stall_ms",
            s.io_queue_stall_time.as_millis_f64(),
        );
        self.flash_bytes.0 += s.flash.physical_bytes_written as f64;
        self.flash_bytes.1 += s.flash.bytes_written as f64;
    }

    /// Finish the ratios and the `model.*` metrics into the layer map.
    fn into_layers(mut self) -> Layers {
        let hits = self.layers.get("core.predecomp_hits");
        let wasted = self.layers.get("core.predecomp_wasted");
        self.layers
            .set("core.predecomp_useful_ratio", ratio(hits, hits + wasted));
        self.layers.set(
            "core.compression_ratio",
            ratio(self.core_bytes.0, self.core_bytes.1),
        );
        let (physical, logical) = self.flash_bytes;
        self.layers.set(
            "mem.flash_waf",
            if logical == 0.0 {
                1.0
            } else {
                physical / logical
            },
        );
        for ((tag, _), model) in SCHEMES.iter().zip(self.models) {
            self.layers.set(
                &format!("model.warm_relaunch_ms.{tag}"),
                model.warm_mean_ms(),
            );
            self.layers
                .set(&format!("model.codec_cpu_ms.{tag}"), model.codec_cpu_ms);
        }
        self.layers
    }
}

fn scheme_index(tag: &str) -> usize {
    SCHEMES
        .iter()
        .position(|(t, _)| *t == tag)
        .expect("every system has a known scheme tag")
}

/// Finish an iteration over `suts` once its timed phase is over: digest
/// the output, check leaks and oracle evictions, and read back the model
/// and per-layer counters. `oracle` holds the hits and misses of the timed
/// phase and the evictions of the whole iteration.
pub fn finish(
    suts: &[Sut],
    mut checks: Checks,
    setup_s: f64,
    wall_s: f64,
    oracle: OracleStats,
) -> Iteration {
    let mut digest = Digest::default();
    let mut outcome = Outcome::default();
    for sut in suts {
        sut.digest(&mut digest);
        sut.leak_check(&mut checks);
        outcome.add(sut);
    }
    checks.check(oracle.evictions == 0, || {
        format!("{} oracle evictions", oracle.evictions)
    });
    let ehl = outcome.models[scheme_index("ariadne_ehl")];
    let zram = outcome.models[scheme_index("zram")];
    let mut layers = outcome.into_layers();
    let (hits, misses) = (oracle.hits as f64, oracle.misses as f64);
    layers.set("zram.oracle_hits", hits);
    layers.set("zram.oracle_misses", misses);
    layers.set("zram.oracle_evictions", oracle.evictions as f64);
    layers.set("zram.oracle_hit_ratio", ratio(hits, hits + misses));
    Iteration {
        setup_s,
        wall_s,
        digest,
        relaunch_gap_pp: paper_gap_pp(
            ehl.warm_mean_ms(),
            zram.warm_mean_ms(),
            PAPER_RELAUNCH_REDUCTION_PCT,
        ),
        cpu_gap_pp: paper_gap_pp(ehl.codec_cpu_ms, zram.codec_cpu_ms, PAPER_CPU_REDUCTION_PCT),
        checks,
        layers,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
