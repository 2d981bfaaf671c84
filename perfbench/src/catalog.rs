//! `catalog`: every experiment of `experiments::catalog()` in quick mode,
//! through the repository's own runner with at most one worker per core —
//! the command users run to regenerate every table and figure. Each
//! experiment builds its own (cold) compression oracle, as it does today.

use crate::spans::{Recorder, Span};
use crate::stats::{table_gap_pp, Digest, PAPER_CPU_REDUCTION_PCT, PAPER_RELAUNCH_REDUCTION_PCT};
use crate::{Checks, Iteration, Layers};
use ariadne_sim::experiments::{catalog, run_by_name, runner, ExperimentOptions};
use ariadne_sim::Table;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The catalog's options for `seed`: quick mode (scale 256).
pub fn options(seed: u64) -> ExperimentOptions {
    ExperimentOptions {
        seed,
        ..ExperimentOptions::quick()
    }
}

/// The experiment identifiers, in catalog order.
pub fn names() -> Vec<String> {
    catalog()
        .iter()
        .map(|(name, _)| (*name).to_string())
        .collect()
}

/// One iteration: set-up builds the catalog's input workloads (what every
/// experiment regenerates from the seed) and fingerprints them; the timed
/// phase runs the whole catalog.
pub fn run(seed: u64, started: Instant, rec: Option<&mut Recorder>) -> Iteration {
    let opts = options(seed);
    let names = names();
    let mut digest = Digest::default();
    for workload in opts.base_config().workloads() {
        digest.str(&workload.name.to_string());
        digest.u128(workload.pages.len() as u128);
        for trace in &workload.relaunches {
            digest.u128(trace.hot_accesses.len() as u128);
            digest.u128(trace.execution_accesses.len() as u128);
        }
    }

    let timed = Instant::now();
    let tables = match rec {
        None => runner::run_named_parallel(&names, &opts),
        Some(rec) => run_traced(&names, &opts, rec),
    };
    let wall_s = timed.elapsed().as_secs_f64();

    let mut checks = Checks::default();
    let find = |id: &str| -> Option<Table> {
        tables
            .iter()
            .find(|(name, _)| name == id)
            .and_then(|(_, table)| table.clone())
    };
    for (name, table) in &tables {
        checks.check(table.is_some(), || format!("{name}: no table"));
        digest.str(name);
        digest.str(&table.as_ref().map(Table::to_json).unwrap_or_default());
    }
    let fig10 = find("fig10").and_then(|t| table_gap_pp(&t, PAPER_RELAUNCH_REDUCTION_PCT));
    let fig11 = find("fig11").and_then(|t| table_gap_pp(&t, PAPER_CPU_REDUCTION_PCT));
    checks.check(fig10.is_some() && fig11.is_some(), || {
        "Figure 10/11 lack the ZRAM or Ariadne-EHL column".to_string()
    });
    Iteration {
        setup_s: timed.duration_since(started).as_secs_f64(),
        wall_s,
        digest,
        relaunch_gap_pp: fig10.unwrap_or(0.0),
        cpu_gap_pp: fig11.unwrap_or(0.0),
        checks,
        layers: Layers::default(),
    }
}

/// The catalog through the runner's work-stealing pool, one span per
/// `run_by_name`, each on the lane of the worker thread that ran it.
fn run_traced(
    names: &[String],
    opts: &ExperimentOptions,
    rec: &mut Recorder,
) -> Vec<(String, Option<Table>)> {
    let lanes: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    let shared: &Recorder = rec;
    let tables = runner::run_cells(names.to_vec(), |name| {
        let start = Instant::now();
        let table = run_by_name(&name, opts);
        let end = Instant::now();
        let lane = {
            let mut lanes = lanes.lock().expect("lane list lock");
            let id = std::thread::current().id();
            match lanes.iter().position(|&l| l == id) {
                Some(i) => i,
                None => {
                    lanes.push(id);
                    lanes.len() - 1
                }
            }
        };
        let tag = catalog()
            .into_iter()
            .map(|(id, _)| id)
            .find(|&id| id == name)
            .expect("catalog names come from the catalog");
        let span = shared.span("run_by_name", tag, "", start, end, lane as u32 + 1);
        spans.lock().expect("span list lock").push(span);
        (name, table)
    });
    rec.spans
        .extend(spans.into_inner().expect("span list lock"));
    tables
}
