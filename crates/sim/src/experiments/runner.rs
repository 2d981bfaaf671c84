//! The deterministic parallel experiment runner.
//!
//! Experiment cells — a [`SchemeSpec`](crate::SchemeSpec) × scenario pair,
//! or a whole named experiment table — are independent simulations: each
//! constructs its own [`MobileSystem`](crate::MobileSystem) from a seeded
//! [`SimulationConfig`](crate::SimulationConfig), so no simulated state is shared between cells
//! (only the compression oracle, whose results never depend on which cell
//! asked first, and the run's observers). They run on the workspace's one
//! deterministic work-stealing pool, [`ariadne_zram::pool`], re-exported
//! here as [`run_cells`] and [`max_parallel_cells`]: every cell's result
//! lands in the output slot of its input index, so the merge is
//! byte-identical to the serial path for the same `(seed, scale)`. The
//! determinism regression tests in `tests/determinism.rs` pin both the
//! ordering and the thread cap. Experiments reach the pool through
//! [`ExperimentOptions::run_cells`], which runs cells serially instead
//! while a trace ring is attached.

use super::ExperimentOptions;
use crate::report::Table;
pub use ariadne_zram::pool::{max_parallel_cells, run_cells};

/// Run the named experiments through [`ExperimentOptions::run_cells`],
/// returning `(name, table)` pairs in the order the names were given.
/// Unknown names yield `None`, exactly like [`super::run_by_name`].
#[must_use]
pub fn run_named_parallel(
    names: &[String],
    opts: &ExperimentOptions,
) -> Vec<(String, Option<Table>)> {
    opts.run_cells(names.to_vec(), |name| {
        let table = super::run_by_name(&name, opts);
        (name, table)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_named_runs_match_the_serial_path() {
        let opts = ExperimentOptions::quick();
        let names = vec!["table1".to_string(), "nonsense".to_string()];
        let parallel = run_named_parallel(&names, &opts);
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].0, "table1");
        let serial = super::super::run_by_name("table1", &opts).unwrap();
        assert_eq!(parallel[0].1.as_ref().unwrap().to_json(), serial.to_json());
        assert!(parallel[1].1.is_none());
    }
}
