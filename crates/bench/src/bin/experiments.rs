//! Regenerates every table and figure of the Ariadne paper's evaluation.
//!
//! ```text
//! experiments [--quick] [--scale N] [--seed N] [--json] [--serial] [--list]
//!             [--no-oracle] [--thermal-off] [--trace-out PATH]
//!             [--metrics-json PATH] [EXPERIMENT ... | status]
//! ```
//!
//! With no experiment names, all experiments run in paper order.
//! Independent experiments run in parallel (capped at the host's available
//! parallelism, merged in a fixed order, so output is byte-identical to
//! `--serial`, which runs them one after another on the main thread; an
//! experiment's own grid and the codec misses of a reclaim pass outside
//! such a grid still use every core, with the same output either way).
//! `--quick` uses fewer applications and a larger scale factor
//! (useful for a fast smoke run); `--scale` overrides the workload/memory
//! scale denominator (64 is the default);
//! `--json` emits one machine-readable JSON document instead of plain-text
//! tables; `--list` prints the catalog (honouring `--json`) and takes no
//! experiment names, `status`, `--trace-out` or `--metrics-json`.
//!
//! `--no-oracle` disables the memoized compression oracle. Output is
//! byte-identical, only host wall-clock changes; the disabled oracle is the
//! reference the oracle-equivalence suite and CI's identity diff compare
//! against. Host time itself is measured from outside the simulator by the
//! benchmark in `perfbench/` (see `BENCHMARK.json`).
//!
//! `--thermal-off` forces the thermal model off in every experiment. For
//! everything except `lifetime` (whose default is the sustained-load
//! model) output is byte-identical to a default run — CI diffs the two
//! JSON documents to pin that.
//!
//! Observability (see `ariadne-obs`): `--trace-out PATH` puts a trace ring
//! into the run's [`ExperimentOptions`], so every simulated system records
//! into it, and writes a Chrome `trace_event` document loadable in
//! Perfetto (`.jsonl` extension switches to line-delimited JSON). A traced
//! run executes its cells one after another, so the document is the same
//! on every run, with or without `--serial`. `--metrics-json PATH` writes
//! the registry that every system merges its ledger-derived metrics into
//! when it is dropped; merges commute, so this runs in parallel.
//! Experiment output stays byte-identical either way (pinned by the
//! `obs_identity` suite). `experiments status` prints a one-shot device
//! health report instead of running the catalog, under the same
//! observers; it takes no experiment names and has no `--json` form.

use ariadne_obs::{json_escape, MetricsHandle, TraceHandle};
use ariadne_sim::experiments::{catalog, runner, status, ExperimentOptions};
use std::process::ExitCode;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OutputOptions {
    json: bool,
    serial: bool,
    list: bool,
    trace_out: Option<String>,
    metrics_json: Option<String>,
}

/// Parse the command-line arguments (without the program name).
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(ExperimentOptions, OutputOptions, Vec<String>), String> {
    let mut opts = ExperimentOptions::full();
    let mut scale = None;
    let mut output = OutputOptions::default();
    let mut names = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("invalid scale `{value}`"))?
                        .max(1),
                );
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                opts.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid seed `{value}`"))?;
            }
            "--no-oracle" => opts = opts.with_oracle(false),
            "--thermal-off" => {
                opts.thermal = Some(ariadne_compress::ThermalConfig::off());
            }
            "--json" => output.json = true,
            "--serial" => output.serial = true,
            "--list" => output.list = true,
            "--trace-out" => {
                output.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--metrics-json" => {
                output.metrics_json = Some(args.next().ok_or("--metrics-json needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--quick] [--scale N] [--seed N] [--json] [--serial] \
                     [--list] [--no-oracle] [--thermal-off] [--trace-out PATH] \
                     [--metrics-json PATH] [EXPERIMENT ... | status]"
                );
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            name => names.push(name.to_string()),
        }
    }
    if output.list
        && (!names.is_empty() || output.trace_out.is_some() || output.metrics_json.is_some())
    {
        return Err(
            "`--list` takes no experiment names, `status`, `--trace-out` or `--metrics-json`"
                .to_string(),
        );
    }
    if names.iter().any(|name| name == "status") {
        if names.len() > 1 {
            return Err("`status` takes no experiment names".to_string());
        }
        if output.json {
            return Err("`status` has no `--json` form".to_string());
        }
    }
    // An explicit `--scale` wins over `--quick`'s, in either order.
    if let Some(scale) = scale {
        opts.scale = scale;
    } else if opts.quick {
        opts.scale = ExperimentOptions::quick().scale;
    }
    Ok((opts, output, names))
}

fn print_list(json: bool) {
    if json {
        let entries: Vec<String> = catalog()
            .iter()
            .map(|(name, title)| {
                format!(
                    "{{\"name\":{},\"title\":{}}}",
                    json_escape(name),
                    json_escape(title)
                )
            })
            .collect();
        println!("{{\"experiments\":[{}]}}", entries.join(","));
    } else {
        for (name, title) in catalog() {
            println!("{name:8} {title}");
        }
    }
}

fn main() -> ExitCode {
    let (mut opts, output, names) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    if output.list {
        print_list(output.json);
        return ExitCode::SUCCESS;
    }

    let mut trace_buffer = None;
    if output.trace_out.is_some() {
        let (handle, buffer) = TraceHandle::ring(ariadne_obs::trace::DEFAULT_RING_CAPACITY);
        opts.trace = handle;
        trace_buffer = Some(buffer);
    }
    if output.metrics_json.is_some() {
        opts.metrics = MetricsHandle::new_registry();
    }

    let mut failures = 0usize;
    if names.first().map(String::as_str) == Some("status") {
        print!("{}", status::status(&opts));
    } else {
        failures += run_experiments(&opts, &output, names);
    }
    if let Some(path) = &output.trace_out {
        let buffer = trace_buffer.expect("--trace-out created a ring");
        let buffer = buffer.lock().expect("trace ring lock");
        let document = if path.ends_with(".jsonl") {
            buffer.to_jsonl()
        } else {
            buffer.to_chrome_trace_json()
        };
        if let Err(error) = std::fs::write(path, document) {
            eprintln!("error: cannot write {path}: {error}");
            failures += 1;
        } else {
            eprintln!(
                "trace: {} events ({} dropped), written to {path}",
                buffer.len(),
                buffer.dropped()
            );
        }
    }
    if let Some(path) = &output.metrics_json {
        let registry = opts.metrics.snapshot().unwrap_or_default();
        if let Err(error) = std::fs::write(path, registry.to_json()) {
            eprintln!("error: cannot write {path}: {error}");
            failures += 1;
        } else {
            eprintln!("metrics: written to {path}");
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the named experiments (all of them when `names` is empty) and print
/// their tables. Returns the number of unknown names.
fn run_experiments(opts: &ExperimentOptions, output: &OutputOptions, names: Vec<String>) -> usize {
    let selected: Vec<String> = if names.is_empty() {
        catalog().iter().map(|(n, _)| (*n).to_string()).collect()
    } else {
        names
    };
    let results: Vec<(String, Option<ariadne_sim::Table>)> = if output.serial {
        selected
            .iter()
            .map(|name| {
                (
                    name.clone(),
                    ariadne_sim::experiments::run_by_name(name, opts),
                )
            })
            .collect()
    } else {
        runner::run_named_parallel(&selected, opts)
    };

    let mut failures = 0usize;
    if output.json {
        let mut tables = Vec::new();
        for (name, table) in &results {
            match table {
                Some(table) => tables.push(format!(
                    "{{\"name\":{},\"table\":{}}}",
                    json_escape(name),
                    table.to_json()
                )),
                None => {
                    eprintln!("error: unknown experiment `{name}` (use --list)");
                    failures += 1;
                }
            }
        }
        println!(
            "{{\"seed\":{},\"scale\":{},\"mode\":{},\"experiments\":[{}]}}",
            opts.seed,
            opts.scale,
            json_escape(if opts.quick { "quick" } else { "full" }),
            tables.join(",")
        );
    } else {
        // The header must not mention parallel/serial: stdout is documented
        // to be byte-identical between the two modes.
        println!(
            "# Ariadne experiment harness (seed={}, scale=1/{}, mode={})",
            opts.seed,
            opts.scale,
            if opts.quick { "quick" } else { "full" },
        );
        println!();
        for (name, table) in &results {
            match table {
                Some(table) => println!("{table}"),
                None => {
                    eprintln!("error: unknown experiment `{name}` (use --list)");
                    failures += 1;
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExperimentOptions {
        let args = args.iter().map(|arg| (*arg).to_string());
        parse_args(args).expect("valid arguments").0
    }

    #[test]
    fn an_explicit_scale_wins_over_quick_in_either_order() {
        for args in [["--scale", "512", "--quick"], ["--quick", "--scale", "512"]] {
            let opts = parse(&args);
            assert!(opts.quick, "{args:?}");
            assert_eq!(opts.scale, 512, "{args:?}");
        }
        assert_eq!(parse(&["--quick"]).scale, ExperimentOptions::quick().scale);
        assert_eq!(parse(&["--scale", "512"]).scale, 512);
        assert_eq!(parse(&[]).scale, ExperimentOptions::full().scale);
    }

    #[test]
    fn status_runs_alone_and_only_as_text() {
        for args in [
            &["status", "fig10"][..],
            &["fig10", "status"],
            &["--json", "status"],
        ] {
            let args = args.iter().map(|arg| (*arg).to_string());
            assert!(parse_args(args).is_err());
        }
        for args in [
            &["--quick", "status"][..],
            &["--metrics-json", "m.json", "status"],
        ] {
            let args = args.iter().map(|arg| (*arg).to_string());
            let (_, _, names) = parse_args(args).expect("valid arguments");
            assert_eq!(names, ["status"]);
        }
    }

    #[test]
    fn list_runs_alone() {
        for args in [
            &["--list", "fig10"][..],
            &["--list", "status"],
            &["--list", "--trace-out", "t.json"],
            &["--metrics-json", "m.json", "--list"],
        ] {
            let args = args.iter().map(|arg| (*arg).to_string());
            assert!(parse_args(args).is_err());
        }
        for args in [&["--list"][..], &["--list", "--json"]] {
            let args = args.iter().map(|arg| (*arg).to_string());
            let (_, output, names) = parse_args(args).expect("valid arguments");
            assert!(output.list && names.is_empty());
        }
    }

    #[test]
    fn scale_and_seed_need_a_value() {
        for flag in ["--scale", "--seed"] {
            let error = parse_args([flag.to_string()]).expect_err(flag);
            assert!(error.contains("needs a value"), "{error}");
        }
    }
}
