//! Flash wear and data loss under sustained memory pressure.
//!
//! Plain ZRAM never touches flash but may drop compressed data when the
//! zpool fills (applications then effectively relaunch cold); ZSWAP and
//! Ariadne write compressed data back to flash instead. Because Ariadne
//! writes *compressed cold* data only, it keeps both relaunch latency and
//! flash wear low.
//!
//! Run with `cargo run --example zswap_writeback --release`.

use ariadne::core::SizeConfig;
use ariadne::sim::{MobileSystem, SchemeSpec, SimulationConfig};
use ariadne::trace::TimedScenario;

fn main() {
    let scale = 128;
    let config = SimulationConfig::new(5).with_scale(scale);
    let scenario = TimedScenario::heavy_switching(2);

    println!(
        "{:<26} {:>14} {:>16} {:>16} {:>16}",
        "scheme", "flash writes", "MB written (fs)", "dropped pages", "avg relaunch ms"
    );
    for spec in [
        SchemeSpec::Zram,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ] {
        let mut system = MobileSystem::new(spec, config);
        system.run_timed(&scenario);
        let stats = system.stats();
        println!(
            "{:<26} {:>14} {:>16.1} {:>16} {:>16.1}",
            spec.label(),
            stats.flash.writes,
            stats.flash.bytes_written as f64 * scale as f64 / (1024.0 * 1024.0),
            stats.dropped_pages,
            system.average_relaunch_millis(),
        );
    }
    println!(
        "\nAriadne's hot and warm data stays in DRAM or the zpool; only compressed cold\n\
         data reaches flash, which preserves flash lifetime relative to raw swapping."
    );
}
