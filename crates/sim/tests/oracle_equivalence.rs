//! Oracle on/off equivalence: the memoized compression oracle may only
//! change host wall-clock, never results. Every table, measurement and
//! ledger must be byte-identical with the oracle enabled or disabled.

use ariadne_core::SizeConfig;
use ariadne_sim::experiments::{run_by_name, ExperimentOptions};
use ariadne_sim::{MobileSystem, SchemeSpec, SimulationConfig, Table};
use ariadne_trace::TimedScenario;
use ariadne_zram::{OracleHandle, OracleStats, SchemeStats};

/// A cross-section of the catalog: a baseline figure, the chunk-size probe
/// (fig6), an evaluation figure, the concurrent storm and the kill storm.
const NAMES: [&str; 5] = ["fig2", "fig6", "fig13", "multiapp", "lifecycle"];

/// One oracle per run: every experiment under one `ExperimentOptions`
/// joins its cache, so a second pass over the same experiments never runs
/// the codec, and every table still equals the no-oracle reference.
#[test]
fn experiment_tables_are_byte_identical_with_the_oracle_on_or_off() {
    let on = ExperimentOptions::quick();
    let off = ExperimentOptions::quick().with_oracle(false);
    let reference: Vec<Table> = NAMES
        .iter()
        .map(|name| run_by_name(name, &off).expect("known experiment"))
        .collect();
    for pass in 1..=2 {
        let before = on.oracle.stats();
        for (name, reference) in NAMES.iter().zip(&reference) {
            let table = run_by_name(name, &on).expect("known experiment");
            assert_eq!(
                table.to_json(),
                reference.to_json(),
                "{name}: oracle on/off tables diverge in pass {pass}"
            );
            assert_eq!(table.to_string(), reference.to_string());
        }
        let after = on.oracle.stats();
        assert!(after.hits > before.hits, "pass {pass} shared nothing");
        if pass == 2 {
            assert_eq!(after.misses, before.misses, "the second pass ran the codec");
        }
    }
    assert_eq!(on.oracle.stats().evictions, 0);
    assert_eq!(off.oracle.stats(), OracleStats::default());
    // The options print the oracle's counters, never its entries.
    let debug = format!("{on:?}");
    assert!(debug.len() < 512, "{} bytes: {debug}", debug.len());
}

/// `SchemeStats` without the oracle's own counters, which are the one
/// thing sharing or disabling an oracle is supposed to change.
fn simulated(stats: SchemeStats) -> SchemeStats {
    SchemeStats {
        oracle_hits: 0,
        oracle_misses: 0,
        oracle_bytes_saved: 0,
        ..stats
    }
}

/// Run `scenario` on a `spec` system under `config`, joined to `oracle`.
fn run(
    spec: SchemeSpec,
    config: SimulationConfig,
    oracle: &OracleHandle,
    scenario: &TimedScenario,
) -> MobileSystem {
    let mut system = MobileSystem::new(spec, config);
    system.attach_oracle(oracle);
    system.run_timed(scenario);
    system
}

/// One handle may serve systems of two seeds: the first consultation binds
/// it, the other seed's systems bypass the cache, and every system matches
/// a run with its own oracle.
#[test]
fn systems_of_two_seeds_can_share_one_oracle() {
    let scenario = TimedScenario::kill_storm();
    let shared = OracleHandle::enabled(true);
    let mut bound = OracleStats::default();
    for seed in [0xD5, 0xD6] {
        let config = SimulationConfig::new(seed)
            .with_scale(512)
            .with_zpool_shrink(16);
        for spec in [
            SchemeSpec::Zram,
            SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        ] {
            let sharing = run(spec, config, &shared, &scenario);
            let own = run(spec, config, &OracleHandle::enabled(true), &scenario);
            assert_eq!(
                sharing.measurements(),
                own.measurements(),
                "{spec} at seed {seed}: relaunch measurements diverge"
            );
            assert_eq!(sharing.cpu(), own.cpu(), "{spec} at seed {seed}");
            assert_eq!(sharing.kill_records(), own.kill_records());
            assert_eq!(simulated(sharing.stats()), simulated(own.stats()));
        }
        if seed == 0xD5 {
            bound = shared.stats();
            assert!(bound.misses > 0, "the first seed fills the cache");
        }
    }
    assert_eq!(shared.stats(), bound, "the second seed touched the cache");
}

/// Sharding is a locking strategy, not a semantic one: the sharded oracle
/// and a no-oracle run must produce byte-identical simulated results, and
/// the summed per-shard hit/miss counters must conserve exactly the
/// consultations a no-oracle replay performs — every consultation lands on
/// exactly one shard, none is double-counted, none is lost.
#[test]
fn sharded_oracle_matches_no_oracle_byte_for_byte() {
    let scenario = TimedScenario::concurrent_relaunch_storm();
    let base = SimulationConfig::new(0xD5).with_scale(512);
    for spec in [
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let sharded = run(spec, base, &OracleHandle::enabled(true), &scenario);
        let without = run(spec, base, &OracleHandle::enabled(false), &scenario);

        assert_eq!(
            sharded.measurements(),
            without.measurements(),
            "{spec}: relaunch measurements diverge from no-oracle"
        );
        assert_eq!(
            sharded.cpu(),
            without.cpu(),
            "{spec}: CPU diverges from no-oracle"
        );
        assert_eq!(
            sharded.kill_records(),
            without.kill_records(),
            "{spec}: kill decisions diverge from no-oracle"
        );

        // Conservation: the no-oracle run counts every consultation as a
        // miss, so the sharded hits and misses must add up to exactly that.
        let stats = sharded.oracle_stats();
        assert_eq!(
            stats.hits + stats.misses,
            without.stats().oracle_misses,
            "{spec}: consultations leaked or double-counted across shards"
        );
    }
}

/// The oracle is not a bystander: systems built from the same
/// `(seed, scale)` share the cache, so the second system's compressions are
/// served as hits (otherwise the equivalence above would be vacuous) —
/// while every simulated ledger of the sharing system still matches a
/// no-oracle replay byte for byte.
#[test]
fn shared_oracle_hits_fire_without_perturbing_any_simulated_ledger() {
    let scenario = TimedScenario::kill_storm();
    let base = SimulationConfig::new(0xD5)
        .with_scale(512)
        .with_zpool_shrink(16);
    for spec in [
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        // First system fills the shared cache; the second one (same seed,
        // same page bytes) is served from it.
        let handle = OracleHandle::enabled(true);
        run(spec, base, &handle, &scenario);
        assert_eq!(handle.stats().hits, 0, "{spec}: nothing to hit while cold");

        let sharing = run(spec, base, &handle, &scenario);
        let stats = handle.stats();
        assert!(
            stats.hits > 0,
            "{spec}: a same-seed replay must be served from the shared cache"
        );
        assert!(
            stats.bytes_saved > 0,
            "{spec}: hits must report their saved synthesis+codec bytes"
        );
        assert!(
            sharing.stats().oracle_hits > 0,
            "{spec}: SchemeStats must see the hits"
        );

        let without = run(spec, base, &OracleHandle::enabled(false), &scenario);
        assert_eq!(
            without.oracle_stats().hits,
            0,
            "{spec}: disabled oracle hit"
        );

        assert_eq!(
            sharing.measurements(),
            without.measurements(),
            "{spec}: relaunch measurements diverge"
        );
        assert_eq!(sharing.cpu(), without.cpu(), "{spec}: CPU diverges");
        assert_eq!(
            sharing.kill_records(),
            without.kill_records(),
            "{spec}: kill decisions diverge"
        );
        let (on_stats, off_stats) = (sharing.stats(), without.stats());
        assert_eq!(
            on_stats.oracle_hits + on_stats.oracle_misses,
            off_stats.oracle_misses
        );
        assert_eq!(
            simulated(on_stats),
            simulated(off_stats),
            "{spec}: scheme stats diverge"
        );
    }
}
