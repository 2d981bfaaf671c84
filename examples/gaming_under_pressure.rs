//! Gaming under memory pressure: BangDream is the paper's most
//! memory-hungry application (821 MB of anonymous data after five minutes)
//! and the one with the least hot data. This example relaunches it
//! repeatedly while other applications keep the device under pressure and
//! inspects where its relaunch data was found each time.
//!
//! Run with `cargo run --example gaming_under_pressure --release`.

use ariadne::core::SizeConfig;
use ariadne::mem::PageLocation;
use ariadne::sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne::trace::{AppName, ScenarioEvent, TimedScenario};

fn gaming_scenario(rounds: usize) -> TimedScenario {
    let mut events = Vec::new();
    for app in AppName::ALL {
        events.extend([ScenarioEvent::Launch(app), ScenarioEvent::Background(app)]);
    }
    for round in 0..rounds {
        events.push(ScenarioEvent::Relaunch {
            app: AppName::BangDream,
            relaunch_index: round,
        });
        events.push(ScenarioEvent::Background(AppName::BangDream));
        // A couple of heavyweight apps run in between gaming sessions.
        for other in [AppName::Youtube, AppName::Firefox] {
            events.push(ScenarioEvent::Relaunch {
                app: other,
                relaunch_index: round,
            });
            events.push(ScenarioEvent::Background(other));
        }
    }
    TimedScenario::sequence("gaming", events)
}

fn main() {
    let config = SimulationConfig::new(99).with_scale(128);
    let scenario = gaming_scenario(3);

    for spec in [
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let mut system = MobileSystem::new(spec, config);
        system.run_timed(&scenario);
        println!("== {} ==", spec.label());
        for measurement in system
            .measurements()
            .iter()
            .filter(|m| m.app == AppName::BangDream)
        {
            let from =
                |location: PageLocation| measurement.found_in.get(&location).copied().unwrap_or(0);
            println!(
                "  relaunch: {:>8.1} ms   (dram {:>5}, zpool {:>5}, flash {:>4}, prefetched {:>4})",
                measurement.full_scale_millis(config.scale),
                from(PageLocation::Dram),
                from(PageLocation::Zpool),
                from(PageLocation::Flash),
                from(PageLocation::PreDecompBuffer),
            );
        }
        println!(
            "  compression ops: {}, ratio {:.2}x, flash writes {}\n",
            system.stats().compression_ops,
            system.stats().compression_ratio(),
            system.stats().flash.writes,
        );
    }
}
