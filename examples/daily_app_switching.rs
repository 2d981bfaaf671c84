//! A day of application switching: users relaunch applications more than a
//! hundred times per day (§1 of the paper). This example replays several
//! rounds of the light switching workload and reports the latency and CPU
//! cost each swap scheme accumulates.
//!
//! Run with `cargo run --example daily_app_switching --release`.

use ariadne::core::SizeConfig;
use ariadne::sim::{EnergyModel, MobileSystem, SchemeSpec, SimulationConfig};
use ariadne::trace::TimedScenario;

fn main() {
    let config = SimulationConfig::new(7).with_scale(128);
    let scenario = TimedScenario::light_switching(2); // 20 relaunches
    let energy_model = EnergyModel::pixel7();

    println!("Two rounds of switching through all ten applications:\n");
    println!(
        "{:<26} {:>10} {:>16} {:>16} {:>12}",
        "scheme", "relaunches", "avg relaunch ms", "comp+decomp cpu", "energy (J)"
    );
    for spec in [
        SchemeSpec::Dram,
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let mut system = MobileSystem::new(spec, config);
        system.run_timed(&scenario);
        let cpu_ms = system.stats().compression_cpu().as_millis_f64() * config.scale as f64;
        let energy = energy_model.energy_joules(
            60.0,
            8.0,
            system.cpu(),
            &system.stats().flash,
            config.scale,
        );
        println!(
            "{:<26} {:>10} {:>16.1} {:>13.1} ms {:>12.1}",
            spec.label(),
            system.measurements().len(),
            system.average_relaunch_millis(),
            cpu_ms,
            energy,
        );
    }
}
