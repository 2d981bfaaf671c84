//! The deterministic parallel experiment runner.
//!
//! Experiment cells — a [`SchemeSpec`](crate::SchemeSpec) × scenario pair,
//! or a whole named experiment table — are independent simulations: each
//! constructs its own [`MobileSystem`](crate::MobileSystem) from a seeded
//! [`SimulationConfig`](crate::SimulationConfig), so no simulated state is shared between cells
//! (only the compression oracle, whose results never depend on which cell
//! asked first, and the run's observers). The runner is a
//! **deterministic work-stealing pool**: at most [`max_parallel_cells`]
//! worker threads claim cells from a shared atomic cursor and write each
//! result into the output slot indexed by the cell's input position. Which
//! worker runs which cell (and in what wall-clock order) is
//! scheduling-dependent, but it cannot affect the output: cells share no
//! simulated state, every cell's result lands in its own pre-assigned slot,
//! and the merge is a read-out in input order after all workers join —
//! byte-identical to the serial path for the same `(seed, scale)`. There is
//! no barrier between cells, so a single long-running cell (the `lifetime`
//! grid's worst scheme × device × mix unit, for instance) never holds idle
//! cores hostage. The determinism regression tests in `tests/determinism.rs`
//! pin both the ordering and the thread cap. Experiments reach the pool
//! through [`ExperimentOptions::run_cells`], which runs cells serially
//! instead while a trace ring is attached.

use super::ExperimentOptions;
use crate::report::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The cap on simultaneously live experiment threads: the host's available
/// parallelism (falling back to 8 when the platform cannot report it —
/// over-subscribing slightly is harmless, unbounded spawning is not).
#[must_use]
pub fn max_parallel_cells() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(8)
        .max(1)
}

/// Run `run` over every cell on a work-stealing pool of at most
/// [`max_parallel_cells`] worker threads, and merge the results in input
/// order. Workers claim cells through a shared atomic cursor, so no chunk
/// barrier exists: the moment a worker finishes one cell it starts the next
/// unclaimed one. Each result is written into the output slot of its input
/// index, making the merged vector a pure function of the inputs regardless
/// of which worker ran what. Panics in a cell propagate to the caller.
pub fn run_cells<I, O, F>(cells: Vec<I>, run: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = cells.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = max_parallel_cells().min(n);
    if workers <= 1 {
        return cells.into_iter().map(run).collect();
    }
    // Slot-per-cell storage. The mutexes are uncontended (each slot is
    // touched by exactly one worker, once) — they exist to hand `Send` data
    // across the scope without unsafe code.
    let inputs: Vec<Mutex<Option<I>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let outputs: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let cell = inputs[index]
                        .lock()
                        .expect("input slot lock")
                        .take()
                        .expect("cell claimed twice");
                    let output = run(cell);
                    *outputs[index].lock().expect("output slot lock") = Some(output);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("experiment cell panicked");
        }
    });
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot lock")
                .expect("every claimed cell produced an output")
        })
        .collect()
}

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
    fn run_cells_merges_in_input_order() {
        // Cells deliberately finish out of order (larger inputs spin more).
        let inputs: Vec<u64> = vec![400, 1, 200, 3];
        let outputs = run_cells(inputs.clone(), |n| {
            let mut acc = 0u64;
            for i in 0..n * 1000 {
                acc = acc.wrapping_add(i);
            }
            (n, acc & 1, acc | 1) // value depends on n only
        });
        let order: Vec<u64> = outputs.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(order, inputs);
    }

    #[test]
    fn run_cells_never_exceeds_available_parallelism() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cap = max_parallel_cells();
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Far more cells than the cap: the pool must throttle.
        let cells: Vec<usize> = (0..cap * 4 + 3).collect();
        let outputs = run_cells(cells.clone(), |n| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            n * 2
        });
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "peak {} threads exceeded the cap {cap}",
            peak.load(Ordering::SeqCst)
        );
        let expected: Vec<usize> = cells.iter().map(|n| n * 2).collect();
        assert_eq!(outputs, expected, "merge order must stay the input order");
    }

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
