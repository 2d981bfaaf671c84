//! The device-lifetime study: flash wear, thermal throttling and kill
//! behaviour over hours of simulated use, across device classes and
//! adversarial workload mixes.
//!
//! The rest of the evaluation measures seconds of usage on one flagship
//! device with well-behaved workloads. This experiment asks what a scheme
//! does to the *device* over the long run: it drives every scheme through
//! [`TimedScenario::lifetime`] — hours of sustained use with the low-memory
//! killer armed — on both catalog devices (a 2 GB entry phone with eMMC
//! flash and the paper's 12 GB flagship) under each adversarial mix
//! (calibrated baseline, incompressible page data, dirty/clean flip loops,
//! hog-then-exit churn). Flash wear accounting and the thermal throttling
//! model are both enabled, so the table reports write amplification, erase
//! cycles and thermally inflated CPU time next to kills and cold launches.

use super::lifecycle::evaluated_schemes;
use super::ExperimentOptions;
use crate::report::{fmt_unit, Table};
use crate::system::{RelaunchKind, SimulationConfig};
use ariadne_compress::ThermalConfig;
use ariadne_trace::{AdversarialMix, DeviceClass, TimedScenario};

/// Wear-dependent latency inflation used by this experiment: each average
/// erase-block cycle consumed makes flash commands 10 % slower (an
/// aggressive but finite end-of-life model; the default everywhere else
/// stays 0, i.e. off).
pub const WEAR_LATENCY_PPM: u64 = 100_000;

/// Simulated hours of sustained use per cell.
#[must_use]
pub fn soak_hours(opts: &ExperimentOptions) -> u64 {
    if opts.quick {
        4
    } else {
        8
    }
}

/// One measured cell of the lifetime grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeOutcome {
    /// The simulated device.
    pub device: DeviceClass,
    /// The adversarial mix driving the workload.
    pub mix: AdversarialMix,
    /// The scheme label.
    pub scheme: String,
    /// Applications killed by lmkd over the soak.
    pub kills: usize,
    /// Warm relaunches measured.
    pub warm: usize,
    /// Post-kill cold launches measured.
    pub cold: usize,
    /// Average relaunch latency (all kinds) in full-scale milliseconds.
    pub avg_relaunch_millis: f64,
    /// Original bytes submitted to the compressor.
    pub bytes_before_compression: usize,
    /// Bytes the compressor produced.
    pub bytes_after_compression: usize,
    /// Host bytes the memoized oracle avoided re-synthesising.
    pub oracle_bytes_saved: usize,
    /// Write-amplification factor of the flash device (1.0 = none).
    pub waf: f64,
    /// Erase-block cycles consumed.
    pub erases: usize,
    /// Logical bytes written to flash.
    pub flash_bytes_written: usize,
    /// CPU time added by thermal throttling, in full-scale milliseconds.
    pub thermal_extra_millis: f64,
}

impl LifetimeOutcome {
    /// Net compression savings in the scheme's own ledger, in bytes
    /// (negative when compression *expanded* the data, as it must for
    /// incompressible pages).
    #[must_use]
    pub fn compression_savings(&self) -> i128 {
        self.bytes_before_compression as i128 - self.bytes_after_compression as i128
    }

    /// The composite row key used in the report table.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.device, self.mix, self.scheme)
    }
}

/// The configuration of one lifetime cell: the device's budgets and flash
/// speed class, wear-dependent latency inflation, the sustained-load
/// thermal model, and the mix's incompressible apps. Unlike the kill-storm
/// lifecycle experiment, no extra zpool shrink is applied — the device
/// catalog's own budgets are the point of the study (the entry class is
/// already tight). An [`ExperimentOptions::thermal`] override (the
/// `--thermal-off` flag) replaces the sustained-load default.
#[must_use]
pub fn cell_config(
    opts: &ExperimentOptions,
    device: DeviceClass,
    mix: AdversarialMix,
) -> SimulationConfig {
    opts.base_config()
        .with_device(device)
        .with_io(device.io().with_wear_latency_ppm(WEAR_LATENCY_PPM))
        .with_incompressible(mix.incompressible_apps())
        .with_thermal(opts.thermal.unwrap_or_else(ThermalConfig::sustained))
}

/// Run the full scheme × device × mix grid and return structured outcomes
/// in grid order (devices outermost, schemes innermost).
#[must_use]
pub fn grid(opts: &ExperimentOptions) -> Vec<LifetimeOutcome> {
    let hours = soak_hours(opts);
    // One scenario per mix. The run's oracle key carries a content-variant
    // tag that distinguishes poisoned from calibrated page bytes, so mixes
    // that poison different apps share every calibrated result instead of
    // re-compressing it four times.
    let scenarios: Vec<(AdversarialMix, TimedScenario)> = AdversarialMix::ALL
        .iter()
        .map(|&mix| (mix, TimedScenario::lifetime(mix, hours)))
        .collect();
    let mut cells = Vec::new();
    for &device in &DeviceClass::ALL {
        for (mix, scenario) in &scenarios {
            for spec in evaluated_schemes() {
                cells.push((device, *mix, scenario.clone(), spec));
            }
        }
    }
    let scale = opts.scale as f64;
    opts.run_cells(cells, |(device, mix, scenario, spec)| {
        let mut system = opts.system(spec, cell_config(opts, device, mix));
        system.run_timed(&scenario);
        let stats = system.stats();
        LifetimeOutcome {
            device,
            mix,
            scheme: spec.label(),
            kills: system.kills(),
            warm: system.measurements_of(RelaunchKind::Warm).len(),
            cold: system.measurements_of(RelaunchKind::Cold).len(),
            avg_relaunch_millis: system.average_relaunch_millis(),
            bytes_before_compression: stats.bytes_before_compression,
            bytes_after_compression: stats.bytes_after_compression,
            oracle_bytes_saved: stats.oracle_bytes_saved,
            waf: stats.flash.waf(),
            erases: stats.flash.erases,
            flash_bytes_written: stats.flash.bytes_written,
            thermal_extra_millis: system.thermal_extra().as_millis_f64() * scale,
        }
    })
}

/// Device-lifetime study: kills, cold launches, write amplification and
/// thermally inflated CPU time per scheme × device class × adversarial mix.
#[must_use]
pub fn lifetime(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Device lifetime: kills, wear and thermal throttling over an hours-long soak",
        &[
            "device/mix/scheme",
            "kills",
            "warm",
            "cold",
            "avg relaunch",
            "WAF",
            "erases",
            "flash MB",
            "thermal",
            "saved MB",
        ],
    );
    let scale = opts.scale as f64;
    for outcome in grid(opts) {
        table.push_row(vec![
            outcome.key(),
            outcome.kills.to_string(),
            outcome.warm.to_string(),
            outcome.cold.to_string(),
            fmt_unit(outcome.avg_relaunch_millis, "ms"),
            format!("{:.3}", outcome.waf),
            outcome.erases.to_string(),
            format!(
                "{:.1}",
                outcome.flash_bytes_written as f64 * scale / (1024.0 * 1024.0)
            ),
            fmt_unit(outcome.thermal_extra_millis, "ms"),
            format!(
                "{:.1}",
                outcome.compression_savings() as f64 * scale / (1024.0 * 1024.0)
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick grid, run once and shared across every test in this
    /// module (a full run covers 40 cells of hours-long soaks).
    fn outcomes() -> &'static [LifetimeOutcome] {
        static GRID: std::sync::OnceLock<Vec<LifetimeOutcome>> = std::sync::OnceLock::new();
        GRID.get_or_init(|| grid(&ExperimentOptions::quick()))
    }

    fn cell<'a>(
        all: &'a [LifetimeOutcome],
        device: DeviceClass,
        mix: AdversarialMix,
        scheme: &str,
    ) -> &'a LifetimeOutcome {
        all.iter()
            .find(|o| o.device == device && o.mix == mix && o.scheme == scheme)
            .unwrap()
    }

    #[test]
    fn the_grid_covers_every_scheme_device_and_mix() {
        let all = outcomes();
        assert_eq!(
            all.len(),
            evaluated_schemes().len() * DeviceClass::ALL.len() * AdversarialMix::ALL.len()
        );
        let table = lifetime(&ExperimentOptions::quick());
        assert_eq!(table.row_count(), all.len());
        for outcome in all {
            assert!(table.row_by_key(&outcome.key()).is_some());
        }
    }

    /// Cliff: adversarially incompressible pages must never show
    /// compression savings in any scheme's ledger — the compressor can only
    /// break even or expand, on both devices.
    #[test]
    fn incompressible_apps_never_show_compression_savings() {
        let all = outcomes();
        for outcome in all
            .iter()
            .filter(|o| o.mix == AdversarialMix::Incompressible)
        {
            assert!(
                outcome.compression_savings() <= 0,
                "{}: {} bytes of impossible savings",
                outcome.key(),
                outcome.compression_savings()
            );
        }
        // The control: baseline pages do compress.
        for outcome in all
            .iter()
            .filter(|o| o.mix == AdversarialMix::Baseline && o.bytes_before_compression > 0)
        {
            assert!(
                outcome.compression_savings() > 0,
                "{}: calibrated pages must compress",
                outcome.key()
            );
        }
    }

    /// Cliff: on the 2 GB entry device under the baseline mix, Ariadne
    /// rides out the soak with strictly fewer lmkd kills — and therefore
    /// strictly fewer cold launches — than ZRAM and SWAP.
    #[test]
    fn ariadne_beats_zram_and_swap_on_kills_on_the_entry_device() {
        let all = outcomes();
        let ariadne = cell(
            all,
            DeviceClass::Entry2Gb,
            AdversarialMix::Baseline,
            "Ariadne-EHL-1K-2K-16K",
        );
        let zram = cell(all, DeviceClass::Entry2Gb, AdversarialMix::Baseline, "ZRAM");
        let swap = cell(all, DeviceClass::Entry2Gb, AdversarialMix::Baseline, "SWAP");
        let dram = cell(all, DeviceClass::Entry2Gb, AdversarialMix::Baseline, "DRAM");
        assert_eq!(dram.kills, 0, "unlimited DRAM never kills");
        assert!(
            zram.kills > ariadne.kills,
            "ZRAM kills {} vs Ariadne {}",
            zram.kills,
            ariadne.kills
        );
        assert!(
            swap.kills > ariadne.kills,
            "SWAP kills {} vs Ariadne {}",
            swap.kills,
            ariadne.kills
        );
        assert!(
            zram.cold > ariadne.cold && swap.cold > ariadne.cold,
            "cold launches must follow kills (zram {} swap {} ariadne {})",
            zram.cold,
            swap.cold,
            ariadne.cold
        );
    }

    /// Cliff: a dirty/clean flip loop recompresses the same pages over and
    /// over; the memoized oracle may serve those repeats, but its
    /// bytes-saved ledger can never exceed the bytes actually submitted
    /// for compression.
    #[test]
    fn flip_loops_do_not_inflate_the_oracle_savings_ledger() {
        for outcome in outcomes()
            .iter()
            .filter(|o| o.mix == AdversarialMix::FlipLoop)
        {
            assert!(
                outcome.oracle_bytes_saved <= outcome.bytes_before_compression,
                "{}: oracle claims {} saved of {} submitted",
                outcome.key(),
                outcome.oracle_bytes_saved,
                outcome.bytes_before_compression
            );
        }
    }

    /// Cliff: write amplification is pinned at exactly 1.0 for schemes that
    /// never touch flash, and is ≥ 1.0 wherever writeback happened; erase
    /// cycles only accrue where bytes were actually written.
    #[test]
    fn wear_only_accrues_where_flash_is_written() {
        for outcome in outcomes() {
            assert!(outcome.waf >= 1.0, "{}: WAF {}", outcome.key(), outcome.waf);
            if outcome.flash_bytes_written == 0 {
                assert_eq!(
                    outcome.erases,
                    0,
                    "{}: erases without writes",
                    outcome.key()
                );
            } else {
                assert!(
                    outcome.erases > 0,
                    "{}: writes without erases",
                    outcome.key()
                );
            }
        }
    }

    /// Thermal throttling is enabled for every cell, so any cell that
    /// compresses must also report thermally inflated CPU time.
    #[test]
    fn sustained_compression_heats_the_cpu() {
        for outcome in outcomes()
            .iter()
            .filter(|o| o.mix == AdversarialMix::Baseline)
        {
            if outcome.bytes_before_compression > 0 {
                assert!(
                    outcome.thermal_extra_millis > 0.0,
                    "{}: compression without thermal cost",
                    outcome.key()
                );
            } else {
                assert_eq!(outcome.thermal_extra_millis, 0.0, "{}", outcome.key());
            }
        }
    }
}
