//! The motivation experiments comparing DRAM, ZRAM and SWAP:
//! Figure 2 (relaunch latency), Figure 3 (reclaim CPU usage) and
//! Table 2 (energy).

use super::ExperimentOptions;
use crate::energy::EnergyModel;
use crate::report::{fmt_unit, Table};
use crate::schemes::SchemeSpec;
use ariadne_trace::TimedScenario;

const BASELINE_SCHEMES: [SchemeSpec; 3] = [SchemeSpec::Dram, SchemeSpec::Zram, SchemeSpec::Swap];

/// Figure 2: application relaunch latency under the three baseline swap
/// schemes (full-scale milliseconds).
#[must_use]
pub fn fig2(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Figure 2: relaunch latency under DRAM / ZRAM / SWAP (ms)",
        &["app", "DRAM", "ZRAM", "SWAP"],
    );
    let config = opts.base_config();
    for app in opts.reported_apps() {
        let mut cells = vec![app.to_string()];
        for spec in BASELINE_SCHEMES {
            let mut system = opts.system(spec, config);
            system.run_timed(&TimedScenario::relaunch_study(app));
            cells.push(fmt_unit(system.average_relaunch_millis(), "ms"));
        }
        table.push_row(cells);
    }
    table
}

/// Figure 3: CPU usage of the memory-reclaim procedure (kswapd) under the
/// three baseline schemes, in full-scale CPU seconds over the measurement
/// scenario.
#[must_use]
pub fn fig3(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Figure 3: reclaim (kswapd) CPU usage (s)",
        &["scheme", "reclaim CPU", "normalized to SWAP"],
    );
    let config = opts.base_config();
    let rounds = if opts.quick { 1 } else { 2 };
    let scenario = TimedScenario::heavy_switching(rounds);
    let mut results = Vec::new();
    for spec in BASELINE_SCHEMES {
        let mut system = opts.system(spec, config);
        system.run_timed(&scenario);
        let cpu_seconds = system.cpu().reclaim_related().as_secs_f64() * opts.scale as f64;
        results.push((spec.label(), cpu_seconds));
    }
    let swap_cpu = results
        .iter()
        .find(|(label, _)| label == "SWAP")
        .map(|(_, s)| s.max(1e-9))
        .unwrap_or(1e-9);
    for (label, cpu_seconds) in results {
        table.push_row(vec![
            label,
            fmt_unit(cpu_seconds, "s"),
            fmt_unit(cpu_seconds / swap_cpu, "x"),
        ]);
    }
    table
}

/// Table 2: energy consumption under the three baseline schemes for the
/// light and heavy switching workloads.
#[must_use]
pub fn table2(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Table 2: energy consumption (J, 60 s window)",
        &["workload", "scheme", "energy", "normalized"],
    );
    let config = opts.base_config();
    let model = EnergyModel::pixel7();
    let rounds = if opts.quick { 1 } else { 2 };
    // Application execution CPU over the 60 s window differs between the
    // light workload (1 s intermissions) and the heavy one (back-to-back
    // launches) but is identical across swap schemes.
    for (label, baseline_cpu_seconds, scenario) in [
        ("Light", 8.0, TimedScenario::light_switching(rounds)),
        ("Heavy", 22.0, TimedScenario::heavy_switching(rounds)),
    ] {
        let mut energies = Vec::new();
        for spec in BASELINE_SCHEMES {
            let mut system = opts.system(spec, config);
            system.run_timed(&scenario);
            let energy = model.energy_joules(
                60.0,
                baseline_cpu_seconds,
                system.cpu(),
                &system.stats().flash,
                opts.scale,
            );
            energies.push((spec.label(), energy));
        }
        let dram_energy = energies.first().map(|(_, e)| *e).unwrap_or(1.0);
        for (scheme, energy) in energies {
            table.push_row(vec![
                label.to_string(),
                scheme,
                fmt_unit(energy, "J"),
                format!("{:.3}", energy / dram_energy),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExperimentOptions {
        ExperimentOptions::quick()
    }

    #[test]
    fn fig2_shows_zram_and_swap_slower_than_dram() {
        let table = fig2(&opts());
        for row in table.rows() {
            let dram: f64 = row[1].trim_end_matches("ms").parse().unwrap();
            let zram: f64 = row[2].trim_end_matches("ms").parse().unwrap();
            let swap: f64 = row[3].trim_end_matches("ms").parse().unwrap();
            assert!(zram > dram, "{}: ZRAM {zram} vs DRAM {dram}", row[0]);
            assert!(swap > dram, "{}: SWAP {swap} vs DRAM {dram}", row[0]);
        }
    }

    #[test]
    fn fig3_shows_zram_reclaim_cpu_above_dram_and_swap() {
        let table = fig3(&opts());
        let dram = table.row_by_key("DRAM").unwrap()[1]
            .trim_end_matches('s')
            .parse::<f64>()
            .unwrap();
        let zram = table.row_by_key("ZRAM").unwrap()[1]
            .trim_end_matches('s')
            .parse::<f64>()
            .unwrap();
        let swap = table.row_by_key("SWAP").unwrap()[1]
            .trim_end_matches('s')
            .parse::<f64>()
            .unwrap();
        assert!(zram > dram, "zram {zram} vs dram {dram}");
        assert!(zram > swap, "zram {zram} vs swap {swap}");
    }

    #[test]
    fn table2_shows_zram_consuming_the_most_energy() {
        let table = table2(&opts());
        assert_eq!(table.row_count(), 6);
        for workload in ["Light", "Heavy"] {
            let values: Vec<f64> = table
                .rows()
                .filter(|r| r[0] == workload)
                .map(|r| r[2].trim_end_matches('J').parse::<f64>().unwrap())
                .collect();
            let (dram, zram, swap) = (values[0], values[1], values[2]);
            assert!(zram > dram, "{workload}: zram {zram} vs dram {dram}");
            assert!(zram > swap, "{workload}: zram {zram} vs swap {swap}");
            assert!(dram > 100.0 && dram < 300.0, "{workload}: dram {dram}");
        }
    }
}
