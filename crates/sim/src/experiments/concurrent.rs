//! The concurrent multi-application experiment.
//!
//! The paper's setting — ten applications contending for a Pixel 7's memory
//! — only stresses HotnessOrg, size-adaptive compression and PreDecomp when
//! app lifecycles actually overlap. This experiment drives the canonical
//! [`TimedScenario::concurrent_relaunch_storm`] (six overlapping apps,
//! background churn, relaunches landing during memory-pressure spikes)
//! through the event engine for all five schemes, one cell per scheme.

use super::ExperimentOptions;
use crate::report::{fmt_unit, Table};
use crate::schemes::SchemeSpec;
use ariadne_core::SizeConfig;
use ariadne_mem::CpuActivity;
use ariadne_trace::TimedScenario;

/// The five schemes the concurrent experiment compares.
#[must_use]
pub fn evaluated_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Dram,
        SchemeSpec::Swap,
        SchemeSpec::Zram,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ]
}

/// Multi-app concurrent relaunch storm: relaunch latency and background
/// work for all five schemes under overlapping app timelines.
#[must_use]
pub fn multiapp(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Multi-app storm: concurrent relaunches under pressure (event engine)",
        &[
            "scheme",
            "avg relaunch",
            "relaunches",
            "comp ops",
            "decomp ops",
            "predecomp hits",
            "dropped",
            "reclaim CPU",
        ],
    );
    let config = opts.base_config();
    let scenario = TimedScenario::concurrent_relaunch_storm();
    let rows = opts.run_cells(evaluated_schemes(), |spec| {
        let mut system = opts.system(spec, config);
        system.run_timed(&scenario);
        let stats = system.stats();
        let reclaim_cpu = system.cpu().total_for(CpuActivity::ReclaimScan)
            + system.cpu().total_for(CpuActivity::Compression);
        vec![
            spec.label(),
            fmt_unit(system.average_relaunch_millis(), "ms"),
            system.measurements().len().to_string(),
            stats.compression_ops.to_string(),
            stats.decompression_ops.to_string(),
            stats.predecomp_hits.to_string(),
            stats.dropped_pages.to_string(),
            fmt_unit(reclaim_cpu.as_millis_f64() * config.scale as f64, "ms"),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiapp_reports_all_five_schemes_in_fixed_order() {
        let table = multiapp(&ExperimentOptions::quick());
        assert_eq!(table.row_count(), 5);
        let labels: Vec<&str> = table.rows().map(|r| r[0].as_str()).collect();
        assert_eq!(
            labels,
            vec!["DRAM", "SWAP", "ZRAM", "ZSWAP", "Ariadne-EHL-1K-2K-16K"]
        );
    }

    #[test]
    fn storm_makes_compressed_schemes_do_real_work() {
        let table = multiapp(&ExperimentOptions::quick());
        let zram_comp: f64 = table.row_by_key("ZRAM").unwrap()[3].parse().unwrap();
        let dram_comp: f64 = table.row_by_key("DRAM").unwrap()[3].parse().unwrap();
        assert!(zram_comp > 0.0);
        assert!(dram_comp == 0.0);
        // Every scheme measured the same number of relaunches.
        let counts: Vec<&str> = table.rows().map(|r| r[2].as_str()).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }
}
