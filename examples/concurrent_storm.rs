//! Concurrent multi-app storm through the discrete-event engine.
//!
//! Builds an overlapping three-app timeline with the scenario DSL — a
//! launch storm, background churn, and relaunches arriving while
//! memory-pressure spikes are still being absorbed — then runs it for all
//! five schemes on the parallel cell runner (one cell per scheme, results
//! merged in a fixed order).
//!
//! ```text
//! cargo run --release --example concurrent_storm
//! ```

use ariadne::sim::experiments::{lifecycle, ExperimentOptions};
use ariadne::sim::SimulationConfig;
use ariadne::trace::{AppName, ScenarioBuilder};

fn main() {
    // Three apps with overlapping lifetimes: YouTube launches before
    // Twitter is backgrounded, TikTok relaunches while a 30 % pressure
    // spike is being absorbed.
    let scenario = ScenarioBuilder::new("three-app-demo")
        .launch_storm(&[AppName::Twitter, AppName::Youtube, AppName::TikTok], 200)
        .after_millis(500)
        .relaunch_under_pressure(AppName::Twitter, 0, 30)
        .after_millis(250)
        .relaunch(AppName::Youtube, 0)
        .pressure(20)
        .after_millis(250)
        .relaunch(AppName::TikTok, 0)
        .with_background_drains()
        .build();
    assert!(scenario.has_overlap());

    let config = SimulationConfig::new(42).with_scale(256);
    println!(
        "{} events over {} ms across {} apps\n",
        scenario.events.len(),
        scenario.duration_millis(),
        scenario.apps().len()
    );
    println!(
        "{:<24} {:>14} {:>10} {:>10} {:>10}",
        "scheme", "avg relaunch", "comp ops", "decomp ops", "events"
    );
    // The five cells share the options' compression oracle.
    let opts = ExperimentOptions::quick();
    let rows = opts.run_cells(lifecycle::evaluated_schemes(), |spec| {
        let mut system = opts.system(spec, config);
        system.run_timed(&scenario);
        let stats = system.stats();
        format!(
            "{:<24} {:>12.2}ms {:>10} {:>10} {:>10}",
            spec.label(),
            system.average_relaunch_millis(),
            stats.compression_ops,
            stats.decompression_ops,
            system.events_processed()
        )
    });
    for row in rows {
        println!("{row}");
    }
}
