//! The Ariadne simulator's benchmark: end-to-end and per-layer metrics of
//! three workloads, timed from outside the simulator through the public
//! API of `ariadne-sim` and its layer crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog|relaunch|soak --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run repeats the workload — set-up, then a timed phase — until
//! `--seconds` have passed (at least three times) and reports medians. With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1` untraced and traced iterations
//! alternate and the object holds the per-layer metrics, taken from the
//! benchmark's own spans around its calls into each crate. `METRICS.md`
//! defines every metric.

mod catalog;
mod layers;
mod relaunch;
mod soak;
mod spans;
mod stats;
mod systems;

use spans::{union_ns, Recorder, Span};
use stats::{median, percentile, Digest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use systems::{EVENT_CLASSES, SCHEMES};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0x0A71_AD4E;
/// Every run repeats its workload at least this often.
const MIN_ITERATIONS: usize = 3;
/// No new iteration starts after this long, whatever `--seconds` asks.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// Checks of the simulated output, counted as operations attempted and
/// failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one check; describe it with `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Per-layer metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Add `value` to the metric `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    /// Set the metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The metric `name` (0 when it was never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one iteration of a workload measured and simulated.
pub struct Iteration {
    /// Host seconds from the iteration's start (the process start, for the
    /// first) to its first timed event.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Digest of the simulated output.
    pub digest: Digest,
    /// Simulated relaunch-latency gap to the paper, in percentage points.
    pub relaunch_gap_pp: f64,
    /// Simulated codec-CPU gap to the paper, in percentage points.
    pub cpu_gap_pp: f64,
    /// Output checks of this iteration.
    pub checks: Checks,
    /// Per-layer counters read from the simulated systems.
    pub layers: Layers,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Catalog,
    Relaunch,
    Soak,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "catalog" => Some(Workload::Catalog),
            "relaunch" => Some(Workload::Relaunch),
            "soak" => Some(Workload::Soak),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::Relaunch => "relaunch",
            Workload::Soak => "soak",
        }
    }

    fn run(self, seed: u64, started: Instant, rec: Option<&mut Recorder>) -> Iteration {
        match self {
            Workload::Catalog => catalog::run(seed, started, rec),
            Workload::Relaunch => relaunch::run(seed, started, rec),
            Workload::Soak => soak::run(seed, started, rec),
        }
    }

    /// The configuration whose inputs the standalone throughputs use.
    fn config(self, seed: u64) -> ariadne_sim::SimulationConfig {
        match self {
            Workload::Catalog => catalog::options(seed).base_config(),
            Workload::Relaunch => relaunch::config(seed),
            Workload::Soak => soak::config(seed, soak::MIXES[0]),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload catalog|relaunch|soak [--seed N] [--seconds S] [--trace 0|1]";

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = parse_seed(&value).ok_or_else(|| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The per-layer metrics every traced run reports, with their units, in
/// report order. `BENCHMARK.json` and `METRICS.md` list the same names.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str| m.push((name, unit));
    for class in EVENT_CLASSES {
        push(format!("sim.step_s.{class}"), "s");
    }
    for class in EVENT_CLASSES {
        push(format!("sim.step_count.{class}"), "count");
    }
    push("sim.relaunch_step_us_p50".into(), "us");
    push("sim.relaunch_step_us_p99".into(), "us");
    push("sim.relaunch_step_samples".into(), "count");
    push("sim.new_s".into(), "s");
    push("sim.kills".into(), "count");
    push("sim.cold_launches".into(), "count");
    push("sim.warm_relaunches".into(), "count");
    push("sim.queue_events_per_s".into(), "1/s");
    for name in catalog::names() {
        push(format!("catalog.cell_s.{name}"), "s");
    }
    push("catalog.critical_path_s".into(), "s");
    push("catalog.worker_busy_frac".into(), "ratio");
    push("trace.workload_build_s".into(), "s");
    push("trace.synth_mb_s".into(), "MB/s");
    for codec in ["lzo", "lz4", "bdi"] {
        for chunk in ["4k", "1k", "2k", "16k"] {
            push(format!("compress.{codec}_mb_s.{chunk}"), "MB/s");
        }
    }
    push("compress.codec_bytes".into(), "bytes");
    push("compress.est_busy_s".into(), "s");
    push("zram.oracle_hits".into(), "count");
    push("zram.oracle_misses".into(), "count");
    push("zram.oracle_evictions".into(), "count");
    push("zram.oracle_hit_ratio".into(), "ratio");
    for op in ["compression", "decompression"] {
        for (tag, _) in SCHEMES.iter().filter(|(tag, _)| *tag != "swap") {
            push(format!("zram.{op}_ops.{tag}"), "count");
        }
    }
    for name in [
        "core.predecomp_hits",
        "core.predecomp_wasted",
        "core.compression_ops",
        "core.decompression_ops",
    ] {
        push(name.into(), "count");
    }
    push("core.predecomp_useful_ratio".into(), "ratio");
    push("core.compression_ratio".into(), "ratio");
    push("mem.flash_commands".into(), "count");
    push("mem.flash_bytes_written".into(), "bytes");
    push("mem.flash_bytes_read".into(), "bytes");
    push("mem.flash_waf".into(), "ratio");
    push("mem.io_stall_ms".into(), "ms");
    push("mem.io_queue_stall_ms".into(), "ms");
    for (tag, _) in SCHEMES {
        push(format!("model.warm_relaunch_ms.{tag}"), "ms");
    }
    for (tag, _) in SCHEMES {
        push(format!("model.codec_cpu_ms.{tag}"), "ms");
    }
    push("model.relaunch_gap_pp".into(), "pp");
    push("model.cpu_gap_pp".into(), "pp");
    push("bench.trace_overhead_frac".into(), "ratio");
    push("bench.span_coverage_frac".into(), "ratio");
    m
}

/// Per-layer metrics read off one traced iteration's spans. Relaunch
/// `step()` durations go to `relaunch_us` for the pooled percentiles.
fn span_layers(spans: &[Span], wall_s: f64, layers: &mut Layers, relaunch_us: &mut Vec<f64>) {
    let steps: Vec<&Span> = spans.iter().filter(|s| s.name == "step").collect();
    for class in EVENT_CLASSES {
        let of_class = steps.iter().filter(|s| s.tag == class);
        let secs = of_class.clone().fold(0.0, |total, s| total + s.secs());
        layers.set(&format!("sim.step_s.{class}"), secs);
        layers.set(&format!("sim.step_count.{class}"), of_class.count() as f64);
    }
    relaunch_us.extend(
        steps
            .iter()
            .filter(|s| s.tag == "relaunch")
            .map(|s| s.dur_ns as f64 / 1e3),
    );
    let news: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "MobileSystem::new")
        .map(Span::secs)
        .collect();
    layers.set("sim.new_s", median(&news).unwrap_or(0.0));

    let cells: Vec<&Span> = spans.iter().filter(|s| s.name == "run_by_name").collect();
    if !cells.is_empty() {
        let busy: f64 = cells.iter().map(|s| s.secs()).sum();
        for cell in &cells {
            layers.set(&format!("catalog.cell_s.{}", cell.tag), cell.secs());
        }
        layers.set(
            "catalog.critical_path_s",
            cells.iter().map(|s| s.secs()).fold(0.0, f64::max),
        );
        let workers = ariadne_sim::experiments::runner::max_parallel_cells().min(cells.len());
        layers.set("catalog.worker_busy_frac", busy / (wall_s * workers as f64));
    }
    let top: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "step" || s.name == "run_by_name")
        .copied()
        .collect();
    layers.set(
        "bench.span_coverage_frac",
        union_ns(&top) as f64 * 1e-9 / wall_s,
    );
}

/// Where runs keep their cross-run digests and traces: inside the build
/// directory, so within the checkout and ignored by git.
fn state_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench")
}

/// Identifies this build of the benchmark (the executable's size and
/// modification time), so a rebuilt simulator starts a fresh digest record.
fn build_id() -> String {
    let modified = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let nanos = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            (m.len(), nanos)
        })
        .unwrap_or_default();
    format!("{:x}-{:x}", modified.0, modified.1)
}

/// Compare this run's output digest with the one an earlier run of the
/// same build, workload and seed recorded (traced or not), recording it if
/// this is the first.
fn cross_run_check(args: &Args, record: &str, checks: &mut Checks) {
    let dir = state_dir();
    let path = dir.join(format!(
        "digest-{}-{}-{}.txt",
        args.workload.name(),
        args.seed,
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => checks.check(earlier == record, || {
            format!("output differs from an earlier run: {earlier:?} vs {record:?}")
        }),
        Err(_) => {
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record));
            if let Err(e) = written {
                eprintln!(
                    "perfbench: cannot record the digest in {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The iterations of one run, untraced and traced, with what the traced
/// ones recorded.
struct Runs {
    untraced: Vec<Iteration>,
    traced: Vec<Iteration>,
    /// Durations of every relaunch `step()` of the traced iterations, µs.
    relaunch_us: Vec<f64>,
    /// The spans of the last traced iteration.
    recorder: Recorder,
}

/// Repeat the workload until `--seconds` have passed and enough iterations
/// ran: at least `MIN_ITERATIONS` untraced ones, or, when tracing,
/// alternating untraced and traced ones, at least two of each.
fn run_iterations(args: &Args, started: Instant) -> Runs {
    let measure_until = started + Duration::from_secs_f64(args.seconds);
    let mut runs = Runs {
        untraced: Vec::new(),
        traced: Vec::new(),
        relaunch_us: Vec::new(),
        recorder: Recorder::new(),
    };
    let mut iteration_start = started;
    loop {
        let trace_this = args.trace && runs.untraced.len() > runs.traced.len();
        if trace_this {
            runs.recorder.clear();
            let mut it = args
                .workload
                .run(args.seed, iteration_start, Some(&mut runs.recorder));
            span_layers(
                &runs.recorder.spans,
                it.wall_s,
                &mut it.layers,
                &mut runs.relaunch_us,
            );
            it.layers.set("model.relaunch_gap_pp", it.relaunch_gap_pp);
            it.layers.set("model.cpu_gap_pp", it.cpu_gap_pp);
            runs.traced.push(it);
        } else {
            runs.untraced
                .push(args.workload.run(args.seed, iteration_start, None));
        }
        let it = if trace_this {
            &runs.traced
        } else {
            &runs.untraced
        }
        .last()
        .expect("an iteration just ran");
        eprintln!(
            "perfbench: {} iteration: setup {:.6} s, wall {:.6} s",
            if trace_this { "traced" } else { "untraced" },
            it.setup_s,
            it.wall_s
        );
        let now = Instant::now();
        let enough = if args.trace {
            runs.traced.len() >= 2 && runs.traced.len() == runs.untraced.len()
        } else {
            runs.untraced.len() >= MIN_ITERATIONS
        };
        if (now >= measure_until && enough) || now.duration_since(started) >= HARD_LIMIT {
            return runs;
        }
        iteration_start = now;
    }
}

/// Collect every iteration's checks, and check that all iterations, traced
/// or not, simulated the same output as each other and as earlier runs of
/// the same workload and seed.
fn check_outputs(args: &Args, runs: &mut Runs) -> Checks {
    let mut checks = Checks::default();
    let output = |it: &Iteration| {
        format!(
            "{} relaunch_gap_pp={} cpu_gap_pp={}",
            it.digest.hex(),
            it.relaunch_gap_pp,
            it.cpu_gap_pp
        )
    };
    let first = output(&runs.untraced[0]);
    for it in runs.untraced.iter_mut().chain(runs.traced.iter_mut()) {
        checks.check(output(it) == first, || {
            format!(
                "output differs between iterations: {} vs {first}",
                output(it)
            )
        });
        checks.merge(std::mem::take(&mut it.checks));
    }
    cross_run_check(args, &first, &mut checks);
    checks
}

/// The median timed-phase wall time of `iterations`.
fn median_wall(iterations: &[Iteration]) -> f64 {
    let walls: Vec<f64> = iterations.iter().map(|i| i.wall_s).collect();
    median(&walls).unwrap_or(0.0)
}

/// The per-layer metrics of a traced run: medians over the traced
/// iterations, pooled relaunch-step percentiles, the tracing overhead and
/// the standalone layer throughputs. Writes the last traced iteration's
/// spans as a Chrome trace.
fn per_layer_report(args: &Args, runs: &Runs) -> Layers {
    let mut layers = Layers::default();
    for (name, _) in per_layer_metrics() {
        let values: Vec<f64> = runs.traced.iter().map(|i| i.layers.get(&name)).collect();
        layers.set(&name, median(&values).unwrap_or(0.0));
    }
    if let Some(p50) = percentile(&runs.relaunch_us, 50.0) {
        layers.set("sim.relaunch_step_us_p50", p50.value);
        layers.set("sim.relaunch_step_samples", p50.samples as f64);
    }
    if let Some(p99) = percentile(&runs.relaunch_us, 99.0) {
        layers.set("sim.relaunch_step_us_p99", p99.value);
    }
    layers.set(
        "bench.trace_overhead_frac",
        median_wall(&runs.traced) / median_wall(&runs.untraced) - 1.0,
    );
    layers::measure(&args.workload.config(args.seed), &mut layers);
    let lzo_bytes_per_s = layers.get("compress.lzo_mb_s.4k") * 1e6;
    layers.set(
        "compress.est_busy_s",
        systems::ratio(layers.get("compress.codec_bytes"), lzo_bytes_per_s),
    );

    let dir = state_dir();
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let json = runs.recorder.chrome_json(args.workload.name());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            runs.recorder.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    layers
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut runs = run_iterations(&args, started);
    let checks = check_outputs(&args, &mut runs);
    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        let layers = per_layer_report(&args, &runs);
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = layers.get(&name);
                (name, value, unit)
            })
            .collect()
    } else {
        let setups: Vec<f64> = runs.untraced.iter().map(|i| i.setup_s).collect();
        vec![
            ("wall_s".into(), median_wall(&runs.untraced), "s"),
            ("setup_s".into(), median(&setups).unwrap_or(0.0), "s"),
            (
                "peak_rss_mb".into(),
                stats::peak_rss_mib().unwrap_or(0.0),
                "MiB",
            ),
        ]
    };

    let first = &runs.untraced[0];
    println!(
        "perfbench {} seed={} iterations={} digest={}",
        args.workload.name(),
        args.seed,
        runs.untraced.len() + runs.traced.len(),
        first.digest.hex()
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    if !args.trace {
        // The simulated paper gaps, for reading alongside the host metrics
        // (the traced run reports them as `model.*` per-layer metrics).
        println!(
            "{:<34} {:>18.6} pp",
            "relaunch_gap_pp", first.relaunch_gap_pp
        );
        println!("{:<34} {:>18.6} pp", "cpu_gap_pp", first.cpu_gap_pp);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// per-layer metrics a traced run reports, with the same units.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let per_layer = &json[json.find("\"per_layer\"").expect("a per_layer list")..];
        let names = per_layer_metrics();
        assert_eq!(per_layer.matches("\"name\":").count(), names.len());
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\",");
            let at = per_layer
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &per_layer[at + entry.len()..];
            let unit_field = rest.trim_start();
            assert!(
                unit_field.starts_with(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit differs from {unit}"
            );
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x0A71AD4E"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn json_numbers_are_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
