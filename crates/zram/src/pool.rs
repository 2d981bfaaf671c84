//! The workspace's one thread pool.
//!
//! Two kinds of work run on it, and both are pure functions of their
//! inputs, so which thread ran what never shows in a result:
//!
//! * experiment cells — a scheme × scenario pair, or a whole named
//!   experiment — through [`run_cells`] (the experiment runner in
//!   `ariadne-sim` re-exports it);
//! * the codec runs of one reclaim pass, through [`run_batch`]
//!   ([`SchemeContext::compress_batch`](crate::SchemeContext::compress_batch)
//!   sends it the pass's oracle misses). Those threads compute compressed
//!   sizes only; the ledgers, the clock and the trace stay on the
//!   simulation's own thread, which applies the results in order.
//!
//! [`run_cells`] is a **deterministic work-stealing pool**: at most
//! [`max_parallel_cells`] threads, the caller among them, claim cells from
//! a shared atomic cursor and write each result into the output slot of
//! the cell's input index. There is no barrier between cells, so one long
//! cell never holds idle cores hostage, and the merge is a read-out in
//! input order after the workers join — byte-identical to running the
//! cells one after another.
//!
//! Every thread running a cell is marked as a pool worker while it does.
//! A batch started on a marked thread runs inline ([`run_batch`]): the
//! cells around it already fill the cores, so helper threads would only
//! add spawns and memory.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Whether this thread is running a cell of [`run_cells`].
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, then restores
/// the mark it had before (the caller of [`run_cells`] works cells too).
struct WorkerMark(bool);

impl WorkerMark {
    fn new() -> Self {
        WorkerMark(WORKER.with(|worker| worker.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        WORKER.with(|worker| worker.set(self.0));
    }
}

/// Whether the current thread is running a cell of [`run_cells`].
fn in_worker() -> bool {
    WORKER.with(Cell::get)
}

/// The cap on threads running cells at once: the host's available
/// parallelism (falling back to 8 when the platform cannot report it —
/// over-subscribing slightly is harmless, unbounded spawning is not).
///
/// It reads the platform (on Linux, cgroup files) on every call, so hot
/// paths call it only once they know they have work to share.
#[must_use]
pub fn max_parallel_cells() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(8)
        .max(1)
}

/// Run `run` over every cell on a work-stealing pool of at most
/// [`max_parallel_cells`] threads — the caller and up to one fewer spawned
/// workers — and merge the results in input order. Workers claim cells
/// through a shared atomic cursor, so the moment one finishes a cell it
/// starts the next unclaimed one. Each result is written into the output
/// slot of its input index, making the merged vector a pure function of
/// the inputs regardless of which worker ran what. Every thread is marked
/// as a pool worker while it runs cells (see [`run_batch`]). Panics in a
/// cell propagate to the caller.
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
    let _mark = WorkerMark::new();
    if workers <= 1 {
        return cells.into_iter().map(run).collect();
    }
    // Slot-per-cell storage. The mutexes are uncontended (each slot is
    // touched by exactly one worker, once) — they exist to hand `Send` data
    // across the scope without unsafe code.
    let inputs: Vec<Mutex<Option<I>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let outputs: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
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
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _mark = WorkerMark::new();
                    work();
                })
            })
            .collect();
        work();
        for handle in handles {
            handle.join().expect("pool cell panicked");
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

/// Run `job` over `inputs` and return the results in input order: on the
/// pool ([`run_cells`]), or inline when the current thread is already a
/// pool worker, whose sibling cells fill the cores.
pub fn run_batch<I, O, F>(inputs: Vec<I>, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    if in_worker() {
        inputs.into_iter().map(job).collect()
    } else {
        run_cells(inputs, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

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
    fn cells_run_on_marked_threads_and_the_mark_ends_with_them() {
        assert!(!in_worker());
        let marks = run_cells((0..8).collect(), |_| in_worker());
        assert!(marks.iter().all(|&marked| marked), "{marks:?}");
        assert!(!in_worker(), "the caller kept the mark");
        // A nested pool leaves its caller, a worker of the outer one,
        // marked.
        let nested = run_cells(vec![0, 1], |_| {
            let inner = run_cells(vec![0, 1], |_| in_worker());
            (inner, in_worker())
        });
        assert!(nested
            .iter()
            .all(|(inner, after)| inner.iter().all(|&marked| marked) && *after));
        assert!(!in_worker());
    }

    #[test]
    fn a_batch_started_inside_a_worker_runs_on_that_worker() {
        let per_cell = run_cells((0..4).collect(), |_| {
            let me = std::thread::current().id();
            let ran_on: Vec<ThreadId> =
                run_batch((0..8).collect(), |_: i32| std::thread::current().id());
            ran_on.iter().all(|&id| id == me)
        });
        assert_eq!(per_cell, vec![true; 4]);
    }

    #[test]
    fn a_batch_outside_the_pool_merges_in_input_order() {
        let squares = run_batch((0..64u64).collect(), |n| (n * n, in_worker()));
        assert!(squares.iter().all(|&(_, marked)| marked));
        let values: Vec<u64> = squares.into_iter().map(|(v, _)| v).collect();
        assert_eq!(values, (0..64u64).map(|n| n * n).collect::<Vec<_>>());
        assert!(!in_worker());
    }
}
