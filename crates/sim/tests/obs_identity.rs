//! Observability must never perturb the simulation: a run with a trace
//! ring attached must be **byte-identical** — on every ledger — to the
//! same run without one. Metrics cannot perturb a run at all: they are
//! read from the ledgers ([`MobileSystem::metrics`]) and reach an attached
//! collector only when the system is dropped. These tests pin the trace
//! contract across the stressiest scenarios in the suite (kill storms with
//! in-flight writeback, thermal throttling, concurrent relaunch storms),
//! check that dropped systems merge exactly their own metrics, and
//! sanity-check the exported artefacts: the Chrome trace shape and the
//! agreement between the relaunch-latency histogram and the simulator's
//! own averages.

use ariadne_compress::ThermalConfig;
use ariadne_core::SizeConfig;
use ariadne_obs::{metrics::names, MetricsHandle, MetricsRegistry, TraceHandle};
use ariadne_sim::experiments::{runner, ExperimentOptions};
use ariadne_sim::{MobileSystem, RelaunchKind, SchemeSpec, SimulationConfig};
use ariadne_trace::TimedScenario;

fn specs() -> [SchemeSpec; 4] {
    [
        SchemeSpec::Swap,
        SchemeSpec::Zram,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ]
}

/// Run `scenario` twice under `config` — once plain, once with a ring
/// trace attached — and assert every observable ledger is identical.
/// Returns the traced system and its Chrome trace for artefact-shape
/// assertions.
fn assert_identical(
    spec: SchemeSpec,
    config: SimulationConfig,
    scenario: &TimedScenario,
) -> (MobileSystem, String) {
    let mut plain = MobileSystem::new(spec, config);
    plain.run_timed(scenario);

    let (trace, buffer) = TraceHandle::ring(1 << 16);
    let mut observed = MobileSystem::new(spec, config);
    observed.attach_trace(&trace);
    observed.run_timed(scenario);

    assert_eq!(
        plain.measurements(),
        observed.measurements(),
        "{spec}: measurements diverge under observation"
    );
    assert_eq!(
        plain.stats(),
        observed.stats(),
        "{spec}: scheme stats diverge under observation"
    );
    assert_eq!(
        plain.cpu(),
        observed.cpu(),
        "{spec}: CPU ledgers diverge under observation"
    );
    assert_eq!(
        plain.kill_records(),
        observed.kill_records(),
        "{spec}: kill decisions diverge under observation"
    );
    assert_eq!(plain.psi_ppm(), observed.psi_ppm(), "{spec}: PSI diverges");
    assert_eq!(
        plain.memory_stall(),
        observed.memory_stall(),
        "{spec}: memory-stall ledgers diverge"
    );
    assert_eq!(plain.io_completions(), observed.io_completions());
    assert_eq!(plain.events_processed(), observed.events_processed());
    assert_eq!(plain.pressure_spikes(), observed.pressure_spikes());
    assert_eq!(
        plain.oracle_stats(),
        observed.oracle_stats(),
        "{spec}: oracle counters diverge"
    );
    assert_eq!(plain.thermal_extra(), observed.thermal_extra());

    let chrome = buffer.lock().unwrap().to_chrome_trace_json();
    (observed, chrome)
}

#[test]
fn kill_storm_is_byte_identical_with_observability_attached() {
    let scenario = TimedScenario::kill_storm();
    assert!(scenario.lmkd);
    let config = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_zpool_shrink(16);
    for spec in specs() {
        let (observed, chrome) = assert_identical(spec, config, &scenario);
        // The trace saw every kill the ledger saw, from the same code path.
        assert_eq!(
            chrome.matches("\"name\":\"kill\"").count(),
            observed.kills(),
            "{spec}: kill trace events disagree with the kill ledger"
        );
    }
}

#[test]
fn dropped_systems_merge_their_metrics_into_the_attached_registry() {
    let scenario = TimedScenario::kill_storm();
    let config = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_zpool_shrink(16);
    let collector = MetricsHandle::new_registry();
    let mut expected = MetricsRegistry::new();
    for spec in specs() {
        let mut system = MobileSystem::new(spec, config);
        system.attach_metrics(&collector);
        system.run_timed(&scenario);
        assert_eq!(
            collector.snapshot(),
            Some(expected.clone()),
            "{spec}: merged before it was dropped"
        );
        expected.merge(&system.metrics());
    }
    assert!(expected.counter("kills") >= 1, "{}", expected.to_json());
    assert!(expected.histogram(names::COMPRESSION_RATIO_PCT).is_some());
    assert_eq!(collector.snapshot(), Some(expected));
}

/// Experiments with cell pools of their own run them serially under a
/// trace, so the same options write the same document every time, whatever
/// the worker count and however warm the shared oracle already is.
#[test]
fn traced_experiments_write_the_same_trace_every_time() {
    let mut opts = ExperimentOptions::quick();
    let names = ["lifecycle".to_string(), "multiapp".to_string()];
    let mut documents = Vec::new();
    for _ in 0..2 {
        let (trace, ring) = TraceHandle::ring(ariadne_obs::trace::DEFAULT_RING_CAPACITY);
        opts.trace = trace;
        let tables = runner::run_named_parallel(&names, &opts);
        assert!(tables.iter().all(|(_, table)| table.is_some()));
        let ring = ring.lock().unwrap();
        assert_eq!(ring.dropped(), 0);
        documents.push(ring.to_chrome_trace_json());
    }
    assert!(documents[0].contains("\"pid\":10,"), "one lane per system");
    assert_eq!(documents[0], documents[1]);
}

#[test]
fn thermal_writeback_run_is_byte_identical_with_observability_attached() {
    let scenario = TimedScenario::writeback_storm();
    let config = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_zpool_shrink(16)
        .with_thermal(ThermalConfig::sustained());
    for spec in specs() {
        assert_identical(spec, config, &scenario);
    }
}

#[test]
fn chrome_trace_export_has_the_expected_shape() {
    let scenario = TimedScenario::kill_storm();
    let config = SimulationConfig::new(7)
        .with_scale(512)
        .with_zpool_shrink(16);
    let (_, chrome) = assert_identical(
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        config,
        &scenario,
    );
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with('}'));
    // Complete events carry microsecond timestamps and durations; instants
    // carry the global scope marker.
    assert!(chrome.contains("\"ph\":\"X\""), "no complete events");
    assert!(chrome.contains("\"ph\":\"i\""), "no instant events");
    assert!(
        chrome.contains("\"s\":\"g\""),
        "instants must be global-scope"
    );
    for name in ["fault", "relaunch", "compress", "kill"] {
        assert!(
            chrome.contains(&format!("\"name\":\"{name}\"")),
            "kill storm trace lacks {name} events"
        );
    }
    assert!(chrome.contains("\"displayTimeUnit\":\"ms\""));
}

#[test]
fn relaunch_histogram_matches_the_simulators_own_averages() {
    let scenario = TimedScenario::concurrent_relaunch_storm();
    let config = SimulationConfig::new(7).with_scale(512);
    let (observed, _) = assert_identical(SchemeSpec::Zswap, config, &scenario);
    let registry = observed.metrics();
    let warm = observed.measurements_of(RelaunchKind::Warm);
    assert!(!warm.is_empty(), "storm must measure warm relaunches");
    let hist = registry
        .histogram(names::RELAUNCH_WARM_MICROS)
        .expect("warm relaunch histogram recorded");
    assert_eq!(hist.count() as usize, warm.len());
    // The histogram stores exact counts and sums (bucketing only affects
    // quantiles), so its mean must agree with the simulator's average to
    // within the nanosecond→microsecond truncation of each sample.
    let hist_millis = hist.mean().expect("non-empty histogram") / 1_000.0;
    let avg_millis = observed.average_relaunch_millis_of(RelaunchKind::Warm);
    let tolerance = avg_millis.max(1.0) * 0.01;
    assert!(
        (hist_millis - avg_millis).abs() <= tolerance,
        "histogram mean {hist_millis:.3} ms vs simulator average {avg_millis:.3} ms"
    );
    // Quantiles stay within one log-bucket (≤25%) of the true extremes.
    let max_micros = warm
        .iter()
        .map(|m| (m.latency.as_nanos() * config.scale as u128) / 1_000)
        .max()
        .unwrap() as u64;
    assert_eq!(hist.max(), Some(max_micros));
    assert!(hist.quantile(1.0) <= hist.max());
    assert!(hist.quantile(0.5) >= hist.min());
    // Faults were observed and counted.
    assert!(registry.counter("faults") > 0);
}
