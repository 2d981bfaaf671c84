//! One module per group of paper experiments.
//!
//! Every experiment function takes an [`ExperimentOptions`] (seed, scale, a
//! quick/full switch, the run's shared compression oracle and its
//! observers) and returns a [`Table`] with exactly the rows and series the
//! paper reports. The `experiments` binary in `ariadne-bench` prints all of
//! them.

pub mod baselines;
pub mod characterization;
pub mod concurrent;
pub mod evaluation;
pub mod identification;
pub mod lifecycle;
pub mod lifetime;
pub mod runner;
pub mod status;
pub mod writeback;

use crate::report::Table;
use crate::schemes::SchemeSpec;
use crate::system::{MobileSystem, SimulationConfig};
use ariadne_obs::{MetricsHandle, TraceHandle};
use ariadne_trace::AppName;
use ariadne_zram::OracleHandle;

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Deterministic seed.
    pub seed: u64,
    /// Workload / memory scale denominator (64 reproduces the figures,
    /// larger values run faster).
    pub scale: usize,
    /// Quick mode: fewer applications and smaller samples, for CI and tests.
    pub quick: bool,
    /// The memoized compression oracle every system of the run joins (see
    /// [`ExperimentOptions::system`]): the experiments compress the same
    /// pages of the same ten apps, so all of them share one cache, and
    /// clones of these options share it too. Output is byte-identical with
    /// it enabled or disabled ([`ExperimentOptions::with_oracle`]); the
    /// disabled oracle is the reference that `tests/oracle_equivalence.rs`
    /// and the `--no-oracle` identity diff compare against.
    pub oracle: OracleHandle,
    /// Thermal-model override. `None` leaves each experiment's own choice in
    /// place (most run with the model off; `lifetime` turns it on); `Some`
    /// forces that configuration everywhere, which is how CI pins the
    /// thermal-off output against the default catalog output.
    pub thermal: Option<ariadne_compress::ThermalConfig>,
    /// The trace ring every system of the run records into (disabled by
    /// default). While it is enabled, [`ExperimentOptions::run_cells`] runs
    /// cells one after another, so the event order and every system's
    /// `pid` lane are the same on every run.
    pub trace: TraceHandle,
    /// The collector every system of the run merges its metrics into when
    /// it is dropped (disabled by default).
    pub metrics: MetricsHandle,
}

impl ExperimentOptions {
    /// The full-fidelity configuration used to regenerate the figures, with
    /// a fresh enabled oracle.
    #[must_use]
    pub fn full() -> Self {
        ExperimentOptions {
            seed: 0x0A71_AD4E,
            scale: 64,
            quick: false,
            oracle: OracleHandle::from(true),
            thermal: None,
            trace: TraceHandle::disabled(),
            metrics: MetricsHandle::disabled(),
        }
    }

    /// A reduced configuration for tests and smoke runs, with a fresh
    /// enabled oracle.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentOptions {
            scale: 256,
            quick: true,
            ..ExperimentOptions::full()
        }
    }

    /// Switch to a fresh enabled (or disabled) compression oracle.
    #[must_use]
    pub fn with_oracle(mut self, oracle: bool) -> Self {
        self.oracle = OracleHandle::from(oracle);
        self
    }

    /// Force a thermal configuration onto every experiment.
    #[must_use]
    pub fn with_thermal(mut self, thermal: ariadne_compress::ThermalConfig) -> Self {
        self.thermal = Some(thermal);
        self
    }

    /// The simulation configuration every experiment starts from: seed and
    /// scale from these options, plus the thermal override. Experiments
    /// layer their own overrides (I/O model, zpool shrink, lmkd) on top.
    #[must_use]
    pub fn base_config(&self) -> SimulationConfig {
        let mut config = SimulationConfig::new(self.seed).with_scale(self.scale);
        if let Some(thermal) = self.thermal {
            config = config.with_thermal(thermal);
        }
        config
    }

    /// Build a system running `spec` under `config`, joined to
    /// [`ExperimentOptions::oracle`] and observed by
    /// [`ExperimentOptions::trace`] and [`ExperimentOptions::metrics`].
    /// Every experiment builds its systems here.
    #[must_use]
    pub fn system(&self, spec: SchemeSpec, config: SimulationConfig) -> MobileSystem {
        let mut system = MobileSystem::new(spec, config);
        system.attach_oracle(&self.oracle);
        if self.trace.is_enabled() {
            system.attach_trace(&self.trace);
        }
        system.attach_metrics(&self.metrics);
        system
    }

    /// Run `run` over every cell and return the results in input order: on
    /// the worker pool of [`runner::run_cells`], or one cell after another
    /// while [`ExperimentOptions::trace`] is enabled, so that systems never
    /// interleave in the shared ring.
    pub fn run_cells<I, O, F>(&self, cells: Vec<I>, run: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        if self.trace.is_enabled() {
            cells.into_iter().map(run).collect()
        } else {
            runner::run_cells(cells, run)
        }
    }

    /// The applications whose per-app results are reported (the paper plots
    /// five of the ten for readability; quick mode uses two).
    #[must_use]
    pub fn reported_apps(&self) -> Vec<AppName> {
        if self.quick {
            vec![AppName::Youtube, AppName::BangDream]
        } else {
            AppName::REPORTED.to_vec()
        }
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions::full()
    }
}

/// Every experiment, in paper order: (identifier, human title, function).
#[must_use]
pub fn catalog() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "table1",
            "Table 1: anonymous data volume of five applications",
        ),
        (
            "fig2",
            "Figure 2: relaunch latency under DRAM / ZRAM / SWAP",
        ),
        (
            "fig3",
            "Figure 3: reclaim (kswapd) CPU usage under DRAM / ZRAM / SWAP",
        ),
        ("table2", "Table 2: energy under three swap schemes"),
        (
            "fig4",
            "Figure 4: hot/warm/cold share per compression-order decile",
        ),
        (
            "fig5",
            "Figure 5: hot-data similarity and reuse across relaunches",
        ),
        (
            "fig6",
            "Figure 6: latency and ratio versus compression chunk size",
        ),
        (
            "table3",
            "Table 3: probability of consecutive zpool accesses",
        ),
        ("fig10", "Figure 10: application relaunch latency"),
        (
            "fig11",
            "Figure 11: normalized compression/decompression CPU usage",
        ),
        ("fig12", "Figure 12: compression and decompression latency"),
        ("fig13", "Figure 13: compression ratios"),
        (
            "fig14",
            "Figure 14: coverage and accuracy of hot-data identification",
        ),
        ("fig15", "Figure 15: chunk-size sensitivity study"),
        (
            "multiapp",
            "Multi-app storm: concurrent relaunches under pressure",
        ),
        (
            "writeback",
            "Writeback study: sync vs async vs batched flash I/O",
        ),
        (
            "lifecycle",
            "Process lifecycle: lmkd kills and cold-vs-warm relaunch latency",
        ),
        (
            "lifetime",
            "Device lifetime: wear, thermal throttling and kills over an hours-long soak",
        ),
    ]
}

/// Run one experiment by its identifier (e.g. `fig10`). Returns `None` for an
/// unknown identifier.
#[must_use]
pub fn run_by_name(name: &str, opts: &ExperimentOptions) -> Option<Table> {
    let table = match name {
        "table1" => characterization::table1(opts),
        "fig2" => baselines::fig2(opts),
        "fig3" => baselines::fig3(opts),
        "table2" => baselines::table2(opts),
        "fig4" => characterization::fig4(opts),
        "fig5" => characterization::fig5(opts),
        "fig6" => characterization::fig6(opts),
        "table3" => characterization::table3(opts),
        "fig10" => evaluation::fig10(opts),
        "fig11" => evaluation::fig11(opts),
        "fig12" => evaluation::fig12(opts),
        "fig13" => evaluation::fig13(opts),
        "fig14" => identification::fig14(opts),
        "fig15" => evaluation::fig15(opts),
        "multiapp" => concurrent::multiapp(opts),
        "writeback" => writeback::writeback(opts),
        "lifecycle" => lifecycle::lifecycle(opts),
        "lifetime" => lifetime::lifetime(opts),
        _ => return None,
    };
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_table_and_figure_of_the_evaluation() {
        let names: Vec<&str> = catalog().iter().map(|(n, _)| *n).collect();
        for required in [
            "table1",
            "table2",
            "table3",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "multiapp",
            "writeback",
            "lifecycle",
            "lifetime",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn unknown_experiment_names_return_none() {
        assert!(run_by_name("fig99", &ExperimentOptions::quick()).is_none());
    }

    #[test]
    fn quick_options_reduce_the_reported_apps() {
        assert_eq!(ExperimentOptions::quick().reported_apps().len(), 2);
        assert_eq!(ExperimentOptions::full().reported_apps().len(), 5);
    }
}
