//! Oracle on/off equivalence: the memoized compression oracle may only
//! change host wall-clock, never results. Every table, measurement and
//! ledger must be byte-identical with the oracle enabled or disabled.

use ariadne_core::SizeConfig;
use ariadne_sim::experiments::{run_by_name, runner, ExperimentOptions};
use ariadne_sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne_trace::TimedScenario;

/// A cross-section of the catalog: a baseline figure, the chunk-size probe
/// (fig6), an evaluation figure, the concurrent storm and the kill storm.
const NAMES: [&str; 5] = ["fig2", "fig6", "fig13", "multiapp", "lifecycle"];

#[test]
fn experiment_tables_are_byte_identical_with_the_oracle_on_or_off() {
    let on = ExperimentOptions::quick();
    let off = ExperimentOptions::quick().with_oracle(false);
    assert!(on.oracle && !off.oracle);
    for name in NAMES {
        let with_oracle = run_by_name(name, &on).expect("known experiment");
        let without = run_by_name(name, &off).expect("known experiment");
        assert_eq!(
            with_oracle.to_json(),
            without.to_json(),
            "{name}: oracle on/off tables diverge"
        );
        assert_eq!(with_oracle.to_string(), without.to_string());
    }
}

#[test]
fn grid_outcomes_are_identical_with_the_oracle_on_or_off() {
    let scenario = TimedScenario::concurrent_relaunch_storm();
    let cells = |scenario: &TimedScenario| {
        vec![
            runner::GridCell {
                spec: SchemeSpec::Zram,
                scenario: scenario.clone(),
            },
            runner::GridCell {
                spec: SchemeSpec::Zswap,
                scenario: scenario.clone(),
            },
            runner::GridCell {
                spec: SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
                scenario: scenario.clone(),
            },
        ]
    };
    let base = SimulationConfig::new(0xD5).with_scale(512);
    let with_oracle = runner::run_grid(base.with_oracle(true), cells(&scenario));
    let without = runner::run_grid(base.with_oracle(false), cells(&scenario));
    assert_eq!(with_oracle, without);
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
        let run = |oracle: bool| {
            let mut system = MobileSystem::new(spec, base.with_oracle(oracle));
            system.run_timed(&scenario);
            system
        };
        let sharded = run(true);
        let without = run(false);

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

/// The oracle is not a bystander: within one experiment, systems built from
/// the same `(seed, scale)` share the cache, so the second system's
/// compressions are served as hits (otherwise the equivalence above would be
/// vacuous) — while every simulated ledger of the sharing system still
/// matches a no-oracle replay byte for byte.
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
        let mut first = MobileSystem::new(spec, base.with_oracle(true));
        first.run_timed(&scenario);
        let handle = first.oracle_handle();
        assert_eq!(handle.stats().hits, 0, "{spec}: nothing to hit while cold");

        let mut sharing = MobileSystem::new(spec, base.with_oracle(true));
        sharing.attach_oracle(&handle);
        sharing.run_timed(&scenario);
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

        let mut without = MobileSystem::new(spec, base.with_oracle(false));
        without.run_timed(&scenario);
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
        // Scheme stats match except the oracle's own counters (which are
        // the one thing the switch is *supposed* to change).
        let mut on_stats = sharing.stats();
        let off_stats = without.stats();
        assert_eq!(
            on_stats.oracle_hits + on_stats.oracle_misses,
            off_stats.oracle_misses
        );
        on_stats.oracle_hits = off_stats.oracle_hits;
        on_stats.oracle_misses = off_stats.oracle_misses;
        on_stats.oracle_bytes_saved = off_stats.oracle_bytes_saved;
        assert_eq!(on_stats, off_stats, "{spec}: scheme stats diverge");
    }
}
