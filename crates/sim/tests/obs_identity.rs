//! Observability must never perturb the simulation: a run with a trace
//! ring and a metrics registry attached must be **byte-identical** — on
//! every ledger — to the same run with observability disabled. These tests
//! pin that contract across the stressiest scenarios in the suite (kill
//! storms with in-flight writeback, thermal throttling, concurrent
//! relaunch storms), and additionally sanity-check the exported artefacts:
//! the Chrome trace shape and the agreement between the relaunch-latency
//! histogram and the simulator's own averages.

use ariadne_compress::ThermalConfig;
use ariadne_core::SizeConfig;
use ariadne_obs::{metrics::names, MetricsHandle, TraceHandle};
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
/// trace and a metrics registry attached — and assert every observable
/// ledger is identical. Returns the instrumented system plus its sinks
/// for artefact-shape assertions.
fn assert_identical(
    spec: SchemeSpec,
    config: SimulationConfig,
    scenario: &TimedScenario,
) -> (MobileSystem, String, ariadne_obs::MetricsRegistry) {
    let mut plain = MobileSystem::new(spec, config);
    plain.run_timed(scenario);

    let (trace, buffer) = TraceHandle::ring(1 << 16);
    let metrics = MetricsHandle::new_registry();
    let mut observed = MobileSystem::new(spec, config);
    observed.attach_trace(&trace);
    observed.attach_metrics(&metrics);
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
    let registry = metrics.snapshot().expect("registry is enabled");
    (observed, chrome, registry)
}

#[test]
fn kill_storm_is_byte_identical_with_observability_attached() {
    let scenario = TimedScenario::kill_storm();
    assert!(scenario.lmkd);
    let config = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_zpool_shrink(16);
    for spec in specs() {
        let (observed, chrome, registry) = assert_identical(spec, config, &scenario);
        // The trace saw every kill the ledger saw, from the same code path.
        assert_eq!(
            registry.counter(names::KILLS) as usize,
            observed.kills(),
            "{spec}: kill counter disagrees with the kill ledger"
        );
        assert_eq!(
            chrome.matches("\"name\":\"kill\"").count(),
            observed.kills(),
            "{spec}: kill trace events disagree with the kill ledger"
        );
        assert_eq!(
            registry.counter(names::PRESSURE_WAKES) as usize,
            observed.pressure_spikes()
        );
    }
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
    let (_, chrome, _) = assert_identical(
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
    let (observed, _, registry) = assert_identical(SchemeSpec::Zswap, config, &scenario);
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
    assert!(registry.counter(names::FAULTS) > 0);
}
