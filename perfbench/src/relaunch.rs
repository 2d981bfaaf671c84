//! `relaunch`: a pressure-driven relaunch cycle over all ten applications
//! at scale 64, run once each for ZRAM, Ariadne-EHL and Ariadne-AL with
//! 1K/2K/16K chunks. The shared compression oracle is filled by an
//! identical untimed pass during set-up, so the timed phase never runs the
//! codec: its host time is the schemes' bookkeeping (hotness lists, chunk
//! grouping, pre-decompression, zpool and LRU) plus the event engine.

use crate::spans::Recorder;
use crate::systems::{finish, Sut};
use crate::{Checks, Iteration};
use ariadne_core::SizeConfig;
use ariadne_sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne_trace::{AppName, ScenarioBuilder, TimedScenario};
use ariadne_zram::{CompressionOracle, OracleHandle, OracleStats};
use std::time::Instant;

/// Workload and memory scale denominator.
pub const SCALE: usize = 64;
/// Relaunch rounds; each round relaunches every application once.
pub const ROUNDS: usize = 20;
/// The pressure spike that precedes every relaunch, in percent of the
/// resident anonymous data.
pub const PRESSURE_PCT: u8 = 30;
/// Oracle entry cap, far above what the cycle memoizes, so the oracle never
/// evicts and the timed phase is served entirely from it.
pub const ORACLE_ENTRIES: usize = 1 << 22;

/// The schemes compared, in run order.
pub fn specs() -> [SchemeSpec; 3] {
    [
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        SchemeSpec::ariadne_al(SizeConfig::k1_k2_k16()),
    ]
}

/// The simulation configuration for `seed`.
pub fn config(seed: u64) -> SimulationConfig {
    SimulationConfig::new(seed).with_scale(SCALE)
}

/// Launch and background every app once, then `ROUNDS` rounds of
/// pressure spike, relaunch and background per app.
pub fn scenario() -> TimedScenario {
    let mut builder = ScenarioBuilder::new("bench-relaunch");
    for &app in &AppName::ALL {
        builder = builder
            .launch(app)
            .after_millis(50)
            .background(app)
            .after_millis(50);
    }
    for round in 0..ROUNDS {
        for &app in &AppName::ALL {
            builder = builder
                .relaunch_under_pressure(app, round % 5, PRESSURE_PCT)
                .after_millis(100)
                .background(app)
                .after_millis(100);
        }
    }
    builder.with_background_drains().build()
}

/// Scenario (app) events dispatched before the last round starts.
fn app_events_before_last_round() -> usize {
    AppName::ALL.len() * (2 + 3 * (ROUNDS - 1))
}

/// One iteration: set-up (oracle pre-fill, three systems), then the timed
/// cycle on each system in turn.
pub fn run(seed: u64, started: Instant, mut rec: Option<&mut Recorder>) -> Iteration {
    let config = config(seed);
    let scenario = scenario();
    let oracle = OracleHandle::new(CompressionOracle::new().with_max_entries(ORACLE_ENTRIES));
    for spec in specs() {
        let mut system = MobileSystem::new(spec, config);
        system.attach_oracle(&oracle);
        system.run_timed(&scenario);
    }
    let mut suts: Vec<Sut> = specs()
        .into_iter()
        .map(|spec| Sut::new(spec, config, &oracle, rec.as_deref_mut()))
        .collect();
    for sut in &mut suts {
        sut.system.enqueue(&scenario);
    }
    let before = oracle.stats();

    let timed = Instant::now();
    let mut checks = Checks::default();
    for sut in &mut suts {
        let mut last_round = None;
        sut.run(
            rec.as_deref_mut(),
            Some(app_events_before_last_round()),
            |system| {
                let s = system.stats();
                last_round = Some((s.oracle_misses, s.decompression_ops));
            },
        );
        let s = sut.system.stats();
        let (misses, decompressions) = last_round.unwrap_or((usize::MAX, usize::MAX));
        checks.check(s.oracle_misses == misses, || {
            format!("{}: oracle misses in the last round", sut.label)
        });
        checks.check(s.decompression_ops > decompressions, || {
            format!("{}: no decompression in the last round", sut.label)
        });
    }
    let wall_s = timed.elapsed().as_secs_f64();
    let after = oracle.stats();

    let misses = after.misses - before.misses;
    checks.check(misses == 0, || {
        format!("{misses} oracle misses in the timed phase")
    });
    let setup_s = timed.duration_since(started).as_secs_f64();
    let oracle = OracleStats {
        hits: after.hits - before.hits,
        misses,
        ..after
    };
    finish(&suts, checks, setup_s, wall_s, oracle)
}
