//! Determinism regression tests for the event engine and the parallel
//! experiment runner: two runs with identical `(seed, scale)` must produce
//! byte-identical experiment output, and the parallel runner must merge to
//! exactly the serial result.

use ariadne_core::SizeConfig;
use ariadne_mem::FlashIoConfig;
use ariadne_sim::experiments::{run_by_name, runner, ExperimentOptions};
use ariadne_sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne_trace::TimedScenario;

/// A small but representative selection: a baseline figure, a
/// characterization table, the multi-app concurrent experiment, the
/// writeback study (whose runs carry in-flight asynchronous flash I/O) and
/// the lifecycle study (kill storm: lmkd kills and cold launches landing
/// while flash writes are still in flight).
const NAMES: [&str; 5] = ["fig2", "table1", "multiapp", "writeback", "lifecycle"];

#[test]
fn identical_seed_and_scale_produce_byte_identical_tables() {
    let opts = ExperimentOptions::quick();
    for name in NAMES {
        let first = run_by_name(name, &opts).unwrap();
        let second = run_by_name(name, &opts).unwrap();
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "{name} differs between identical runs"
        );
        assert_eq!(first.to_string(), second.to_string());
    }
}

#[test]
fn parallel_runner_output_is_byte_identical_to_serial() {
    let opts = ExperimentOptions::quick();
    let names: Vec<String> = NAMES.iter().map(|n| (*n).to_string()).collect();
    let parallel = runner::run_named_parallel(&names, &opts);
    assert_eq!(parallel.len(), NAMES.len());
    for (name, table) in parallel {
        let parallel_table = table.expect("known experiment");
        let serial_table = run_by_name(&name, &opts).expect("known experiment");
        assert_eq!(
            parallel_table.to_json(),
            serial_table.to_json(),
            "{name}: parallel and serial output diverge"
        );
        assert_eq!(parallel_table.to_string(), serial_table.to_string());
    }
}

/// The runner caps live threads at the host's available parallelism and
/// joins in chunked spawn order; with far more cells than cores the merge
/// must still be byte-identical to the serial path, in input order.
#[test]
fn chunked_parallel_runner_is_byte_identical_with_more_cells_than_cores() {
    let opts = ExperimentOptions::quick();
    let cap = runner::max_parallel_cells();
    // Repeat the catalog selection until the cell count clearly exceeds the
    // thread cap, so several chunks are exercised.
    let mut names: Vec<String> = Vec::new();
    while names.len() <= cap * 2 {
        names.extend(NAMES.iter().map(|n| (*n).to_string()));
    }
    let parallel = runner::run_named_parallel(&names, &opts);
    assert_eq!(parallel.len(), names.len());
    for (slot, (name, table)) in parallel.iter().enumerate() {
        assert_eq!(name, &names[slot], "merge order must be the input order");
        let serial = run_by_name(name, &opts).expect("known experiment");
        assert_eq!(
            table.as_ref().expect("known experiment").to_json(),
            serial.to_json(),
            "{name} (cell {slot}): chunked parallel and serial output diverge"
        );
    }
}

/// The writeback-heavy scenario keeps flash write commands in flight while
/// relaunches fault against them; replays must still be byte-identical
/// across repeated runs, for every I/O model.
#[test]
fn in_flight_io_replays_are_deterministic() {
    let scenario = TimedScenario::writeback_storm();
    for io in [
        FlashIoConfig::sync(),
        FlashIoConfig::ufs31().with_max_batch_pages(1),
        FlashIoConfig::ufs31(),
    ] {
        let config = SimulationConfig::new(0xD5)
            .with_scale(512)
            .with_io(io)
            .with_zpool_shrink(16);
        for spec in [
            SchemeSpec::Swap,
            SchemeSpec::Zswap,
            SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        ] {
            let mut first = MobileSystem::new(spec, config);
            first.run_timed(&scenario);
            let mut second = MobileSystem::new(spec, config);
            second.run_timed(&scenario);
            assert_eq!(
                first.measurements(),
                second.measurements(),
                "{spec}: measurements diverge"
            );
            assert_eq!(first.stats(), second.stats(), "{spec}: stats diverge");
            assert_eq!(first.io_completions(), second.io_completions());
            assert_eq!(first.events_processed(), second.events_processed());
        }
    }
}

/// The kill storm mixes lmkd kills (PSI sampling, `release_app` freeing
/// slots whose write commands are still queued) with cold launches and
/// asynchronous writeback; two replays must agree byte-for-byte on every
/// ledger, including which apps died and when.
#[test]
fn kill_storm_replays_with_in_flight_io_are_deterministic() {
    let scenario = TimedScenario::kill_storm();
    assert!(scenario.lmkd);
    let config = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_zpool_shrink(16);
    for spec in [
        SchemeSpec::Swap,
        SchemeSpec::Zram,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let mut first = MobileSystem::new(spec, config);
        first.run_timed(&scenario);
        let mut second = MobileSystem::new(spec, config);
        second.run_timed(&scenario);
        assert_eq!(
            first.kill_records(),
            second.kill_records(),
            "{spec}: kill decisions diverge"
        );
        assert_eq!(first.psi_ppm(), second.psi_ppm(), "{spec}: PSI diverges");
        assert_eq!(
            first.measurements(),
            second.measurements(),
            "{spec}: measurements diverge"
        );
        assert_eq!(first.stats(), second.stats(), "{spec}: stats diverge");
        assert_eq!(first.cpu(), second.cpu(), "{spec}: CPU ledgers diverge");
        assert_eq!(first.events_processed(), second.events_processed());
        first.scheme().leak_check().expect("first replay leak-free");
        second
            .scheme()
            .leak_check()
            .expect("second replay leak-free");
    }
}

/// The lifetime soak mixes every new subsystem — device classes, wear
/// accounting, thermal throttling, adversarial mixes with hog-then-exit
/// kill storms — and its grid runs through the chunked parallel runner.
/// Two runs must produce byte-identical tables, and the hog-churn mix
/// (apps released while their writeback commands are in flight, then cold
/// relaunched) must replay deterministically at the engine level.
#[test]
fn lifetime_grid_output_is_byte_identical_across_runs() {
    let opts = ExperimentOptions::quick();
    let first = run_by_name("lifetime", &opts).unwrap();
    let second = run_by_name("lifetime", &opts).unwrap();
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "lifetime differs between identical runs"
    );
    assert_eq!(first.to_string(), second.to_string());
}

#[test]
fn hog_churn_lifetime_replays_with_kill_storms_are_deterministic() {
    use ariadne_compress::ThermalConfig;
    use ariadne_trace::{AdversarialMix, DeviceClass};
    let scenario = TimedScenario::lifetime(AdversarialMix::HogChurn, 2);
    assert!(scenario.lmkd);
    let config = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_device(DeviceClass::Entry2Gb)
        .with_io(DeviceClass::Entry2Gb.io().with_wear_latency_ppm(100_000))
        .with_thermal(ThermalConfig::sustained());
    for spec in [
        SchemeSpec::Swap,
        SchemeSpec::Zram,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let mut first = MobileSystem::new(spec, config);
        first.run_timed(&scenario);
        let mut second = MobileSystem::new(spec, config);
        second.run_timed(&scenario);
        assert_eq!(
            first.kill_records(),
            second.kill_records(),
            "{spec}: kill decisions diverge"
        );
        assert_eq!(
            first.measurements(),
            second.measurements(),
            "{spec}: measurements diverge"
        );
        assert_eq!(first.stats(), second.stats(), "{spec}: stats diverge");
        assert_eq!(first.cpu(), second.cpu(), "{spec}: CPU ledgers diverge");
        assert_eq!(
            first.thermal_extra(),
            second.thermal_extra(),
            "{spec}: thermal ledgers diverge"
        );
        assert_eq!(first.events_processed(), second.events_processed());
        first.scheme().leak_check().expect("first replay leak-free");
        second
            .scheme()
            .leak_check()
            .expect("second replay leak-free");
    }
}

#[test]
fn event_engine_replays_are_deterministic_across_schemes() {
    let config = SimulationConfig::new(0xD5).with_scale(512);
    let scenario = TimedScenario::concurrent_relaunch_storm();
    for spec in [
        SchemeSpec::Zram,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let mut first = MobileSystem::new(spec, config);
        first.run_timed(&scenario);
        let mut second = MobileSystem::new(spec, config);
        second.run_timed(&scenario);
        assert_eq!(
            first.measurements(),
            second.measurements(),
            "{spec}: measurements diverge"
        );
        assert_eq!(first.stats(), second.stats(), "{spec}: stats diverge");
        assert_eq!(first.cpu(), second.cpu(), "{spec}: CPU ledgers diverge");
        assert_eq!(first.events_processed(), second.events_processed());
    }
}
