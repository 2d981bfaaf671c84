//! Quickstart: compare one application relaunch under ZRAM and Ariadne.
//!
//! Run with `cargo run --example quickstart --release`.

use ariadne::core::SizeConfig;
use ariadne::sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne::trace::{AppName, TimedScenario};

fn main() {
    // Scale 1/128 keeps the example fast; the relative results are the same
    // as at full scale.
    let config = SimulationConfig::new(2024).with_scale(128);
    let scenario = TimedScenario::relaunch_study(AppName::Youtube);

    println!("Relaunching YouTube after nine other apps filled memory:\n");
    println!(
        "{:<26} {:>14} {:>12} {:>14}",
        "scheme", "relaunch (ms)", "comp ops", "comp ratio"
    );
    for spec in [
        SchemeSpec::Dram,
        SchemeSpec::Swap,
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        SchemeSpec::ariadne_al(SizeConfig::k1_k2_k16()),
    ] {
        let mut system = MobileSystem::new(spec, config);
        system.run_timed(&scenario);
        println!(
            "{:<26} {:>14.1} {:>12} {:>13.2}x",
            spec.label(),
            system.average_relaunch_millis(),
            system.stats().compression_ops,
            system.stats().compression_ratio(),
        );
    }
    println!(
        "\nAriadne keeps relaunch-critical (hot) data uncompressed and compresses cold\n\
         data in large chunks, so it relaunches close to the DRAM lower bound while\n\
         still reclaiming as much memory as ZRAM."
    );
}
