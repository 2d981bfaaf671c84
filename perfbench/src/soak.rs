//! `soak`: the `lifetime` experiment's hours-long scenario on the 2 GB
//! entry device, configured exactly like a `lifetime` grid cell (sustained
//! thermal model, wear-dependent flash latency, lmkd armed), for the
//! `HogChurn` and `Incompressible` mixes under SWAP, ZRAM and Ariadne-EHL.
//! Writeback runs beside fault reads on the eMMC queue, with kills,
//! `release_app` and cold relaunches; the oracle starts cold, so the codec
//! runs in the timed phase.

use crate::spans::Recorder;
use crate::systems::{finish, Sut};
use crate::{Checks, Iteration};
use ariadne_core::SizeConfig;
use ariadne_sim::experiments::{lifetime, ExperimentOptions};
use ariadne_sim::{SchemeSpec, SimulationConfig};
use ariadne_trace::{AdversarialMix, DeviceClass, TimedScenario};
use ariadne_zram::{CompressionOracle, OracleHandle};
use std::time::Instant;

/// Workload and memory scale denominator.
pub const SCALE: usize = 64;
/// Simulated hours per system (the `lifetime` experiment's full-mode soak).
pub const HOURS: u64 = 8;
/// The simulated device.
pub const DEVICE: DeviceClass = DeviceClass::Entry2Gb;
/// The adversarial mixes run.
pub const MIXES: [AdversarialMix; 2] = [AdversarialMix::HogChurn, AdversarialMix::Incompressible];
/// Oracle entry cap, large enough that the oracle never evicts.
pub const ORACLE_ENTRIES: usize = 1 << 22;

/// The schemes compared, in run order.
pub fn specs() -> [SchemeSpec; 3] {
    [
        SchemeSpec::Swap,
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ]
}

/// The `lifetime` cell configuration of `mix` for `seed`.
pub fn config(seed: u64, mix: AdversarialMix) -> SimulationConfig {
    let opts = ExperimentOptions {
        seed,
        scale: SCALE,
        ..ExperimentOptions::full()
    };
    lifetime::cell_config(&opts, DEVICE, mix)
}

/// One iteration: set-up (scenarios, six systems), then each system's soak
/// in turn.
pub fn run(seed: u64, started: Instant, mut rec: Option<&mut Recorder>) -> Iteration {
    let oracle = OracleHandle::new(CompressionOracle::new().with_max_entries(ORACLE_ENTRIES));
    let mut suts = Vec::new();
    for mix in MIXES {
        let scenario = TimedScenario::lifetime(mix, HOURS);
        for spec in specs() {
            let mut sut = Sut::new(spec, config(seed, mix), &oracle, rec.as_deref_mut());
            sut.system.enqueue(&scenario);
            suts.push(sut);
        }
    }

    let timed = Instant::now();
    for sut in &mut suts {
        sut.run(rec.as_deref_mut(), None, |_| {});
    }
    let wall_s = timed.elapsed().as_secs_f64();

    let setup_s = timed.duration_since(started).as_secs_f64();
    finish(&suts, Checks::default(), setup_s, wall_s, oracle.stats())
}
