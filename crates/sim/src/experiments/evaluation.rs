//! The main evaluation experiments comparing Ariadne against ZRAM:
//! Figures 10 (relaunch latency), 11 (normalized compression CPU),
//! 12 (compression/decompression latency), 13 (compression ratio) and the
//! Figure 15 sensitivity study.

use super::ExperimentOptions;
use crate::report::{fmt_unit, Table};
use crate::schemes::SchemeSpec;
use ariadne_core::SizeConfig;
use ariadne_trace::{AppName, ScenarioEvent, TimedScenario};

/// Everything measured from one (application, scheme) relaunch-study run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The relaunched application.
    pub app: AppName,
    /// Scheme label.
    pub scheme: String,
    /// Relaunch latency in full-scale milliseconds.
    pub relaunch_ms: f64,
    /// Compression + decompression CPU time (full-scale seconds).
    pub comp_decomp_cpu_s: f64,
    /// Total compression latency accumulated by the scheme (full-scale ms).
    pub compression_ms: f64,
    /// Total decompression latency accumulated by the scheme (full-scale ms).
    pub decompression_ms: f64,
    /// Aggregate compression ratio achieved by the scheme.
    pub compression_ratio: f64,
}

/// Build a relaunch-cycling scenario: the relaunch study followed by several
/// further rounds in which the target and two other applications keep being
/// relaunched. The CPU-usage comparisons (Figures 11 and 12) use this shape
/// because Ariadne's benefit there comes from *not* repeatedly compressing
/// and decompressing the hot data of applications the user keeps returning
/// to — an effect a single relaunch cannot show.
fn cycling_scenario(target: AppName, rounds: usize) -> TimedScenario {
    let mut events = Vec::new();
    for round in 1..=rounds {
        events.push(ScenarioEvent::Background(target));
        for other in AppName::ALL.into_iter().filter(|&a| a != target).take(2) {
            events.push(ScenarioEvent::Relaunch {
                app: other,
                relaunch_index: round % 5,
            });
            events.push(ScenarioEvent::Background(other));
        }
        events.push(ScenarioEvent::Relaunch {
            app: target,
            relaunch_index: round % 5,
        });
    }
    TimedScenario::sequence("relaunch-cycling", events)
}

/// Run the relaunch study (or the relaunch-cycling scenario when `cycling`)
/// for every (application, scheme) pair.
#[must_use]
pub fn run_matrix(opts: &ExperimentOptions, specs: &[SchemeSpec], cycling: bool) -> Vec<RunResult> {
    let config = opts.base_config();
    let rounds = if opts.quick { 2 } else { 3 };
    let mut results = Vec::new();
    for app in opts.reported_apps() {
        for spec in specs {
            let mut system = opts.system(*spec, config);
            let scale = opts.scale as f64;
            let (comp_decomp_cpu_s, compression_ms, decompression_ms) = if cycling {
                // Steady state: build up memory pressure with the plain
                // relaunch study first, snapshot the compression counters,
                // then measure only the CPU spent while the user keeps
                // cycling between applications (what Figure 11 reports).
                system.run_timed(&TimedScenario::relaunch_study(app));
                let before = (
                    system.stats().compression_cpu(),
                    system.stats().compression_time,
                    system.stats().decompression_time,
                );
                system.run_timed(&cycling_scenario(app, rounds));
                let stats = system.stats();
                (
                    (stats.compression_cpu().as_secs_f64() - before.0.as_secs_f64()) * scale,
                    (stats.compression_time.as_millis_f64() - before.1.as_millis_f64()) * scale,
                    (stats.decompression_time.as_millis_f64() - before.2.as_millis_f64()) * scale,
                )
            } else {
                system.run_timed(&TimedScenario::relaunch_study(app));
                let stats = system.stats();
                (
                    stats.compression_cpu().as_secs_f64() * scale,
                    stats.compression_time.as_millis_f64() * scale,
                    stats.decompression_time.as_millis_f64() * scale,
                )
            };
            let stats = system.stats();
            results.push(RunResult {
                app,
                scheme: spec.label(),
                relaunch_ms: system.average_relaunch_millis(),
                comp_decomp_cpu_s,
                compression_ms,
                decompression_ms,
                compression_ratio: stats.compression_ratio(),
            });
        }
    }
    results
}

fn ariadne_specs(opts: &ExperimentOptions) -> Vec<SchemeSpec> {
    if opts.quick {
        vec![
            SchemeSpec::ariadne_al(SizeConfig::k1_k2_k16()),
            SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
        ]
    } else {
        SchemeSpec::ariadne_evaluated()
    }
}

fn wide_table(
    title: &str,
    results: &[RunResult],
    specs: &[SchemeSpec],
    value: impl Fn(&RunResult) -> String,
) -> Table {
    let mut headers: Vec<String> = vec!["app".to_string()];
    headers.extend(specs.iter().map(SchemeSpec::label));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    let mut apps: Vec<AppName> = Vec::new();
    for r in results {
        if !apps.contains(&r.app) {
            apps.push(r.app);
        }
    }
    for app in apps {
        let mut cells = vec![app.to_string()];
        for spec in specs {
            let label = spec.label();
            let cell = results
                .iter()
                .find(|r| r.app == app && r.scheme == label)
                .map(&value)
                .unwrap_or_default();
            cells.push(cell);
        }
        table.push_row(cells);
    }
    table
}

/// Figure 10: application relaunch latency for DRAM, ZRAM and the Ariadne
/// configurations (full-scale milliseconds).
#[must_use]
pub fn fig10(opts: &ExperimentOptions) -> Table {
    let mut specs = vec![SchemeSpec::Dram, SchemeSpec::Zram];
    specs.extend(ariadne_specs(opts));
    let results = run_matrix(opts, &specs, false);
    wide_table(
        "Figure 10: application relaunch latency (ms)",
        &results,
        &specs,
        |r| fmt_unit(r.relaunch_ms, "ms"),
    )
}

/// Figure 11: CPU usage of the compression and decompression procedures,
/// normalized to ZRAM.
#[must_use]
pub fn fig11(opts: &ExperimentOptions) -> Table {
    let mut specs = vec![SchemeSpec::Zram];
    specs.extend(ariadne_specs(opts));
    let results = run_matrix(opts, &specs, true);
    // Normalize per application against the ZRAM run.
    let zram_cpu = |app: AppName| -> f64 {
        results
            .iter()
            .find(|r| r.app == app && r.scheme == "ZRAM")
            .map(|r| r.comp_decomp_cpu_s.max(1e-12))
            .unwrap_or(1.0)
    };
    wide_table(
        "Figure 11: compression+decompression CPU usage (normalized to ZRAM)",
        &results,
        &specs,
        |r| format!("{:.2}", r.comp_decomp_cpu_s / zram_cpu(r.app)),
    )
}

/// Figure 12: compression and decompression latency per scheme (full-scale
/// milliseconds accumulated over the relaunch study).
#[must_use]
pub fn fig12(opts: &ExperimentOptions) -> Table {
    let mut specs = vec![SchemeSpec::Zram];
    specs.extend(ariadne_specs(opts));
    let results = run_matrix(opts, &specs, true);
    let mut table = Table::new(
        "Figure 12: compression and decompression latency (ms)",
        &["app", "scheme", "CompTime", "DecompTime"],
    );
    for r in &results {
        table.push_row(vec![
            r.app.to_string(),
            r.scheme.clone(),
            fmt_unit(r.compression_ms, "ms"),
            fmt_unit(r.decompression_ms, "ms"),
        ]);
    }
    table
}

/// Figure 13: compression ratio per scheme.
#[must_use]
pub fn fig13(opts: &ExperimentOptions) -> Table {
    let specs = vec![
        SchemeSpec::Zram,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k4_k16()),
        SchemeSpec::ariadne_al(SizeConfig::b512_k2_k16()),
    ];
    let results = run_matrix(opts, &specs, false);
    wide_table(
        "Figure 13: compression ratios (higher is better)",
        &results,
        &specs,
        |r| fmt_unit(r.compression_ratio, "x"),
    )
}

/// Figure 15: sensitivity to the chunk-size configuration — compression
/// latency, decompression latency and compression ratio for ZRAM,
/// Ariadne-AL-1K-4K-64K and Ariadne-AL-256-1K-4K.
#[must_use]
pub fn fig15(opts: &ExperimentOptions) -> Table {
    let specs = vec![
        SchemeSpec::Zram,
        SchemeSpec::ariadne_al(SizeConfig::k1_k4_k64()),
        SchemeSpec::ariadne_al(SizeConfig::b256_k1_k4()),
    ];
    let results = run_matrix(opts, &specs, false);
    let mut table = Table::new(
        "Figure 15: chunk-size sensitivity",
        &["app", "scheme", "CompTime", "DecompTime", "CompRatio"],
    );
    for r in &results {
        table.push_row(vec![
            r.app.to_string(),
            r.scheme.clone(),
            fmt_unit(r.compression_ms, "ms"),
            fmt_unit(r.decompression_ms, "ms"),
            fmt_unit(r.compression_ratio, "x"),
        ]);
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
    fn fig10_ariadne_beats_zram_and_approaches_dram() {
        let table = fig10(&opts());
        for row in table.rows() {
            let dram: f64 = row[1].trim_end_matches("ms").parse().unwrap();
            let zram: f64 = row[2].trim_end_matches("ms").parse().unwrap();
            let ariadne_best = row[3..]
                .iter()
                .filter(|c| !c.is_empty())
                .map(|c| c.trim_end_matches("ms").parse::<f64>().unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                ariadne_best < zram,
                "{}: Ariadne {ariadne_best} should beat ZRAM {zram}",
                row[0]
            );
            assert!(
                ariadne_best < zram.max(dram * 3.0),
                "{}: Ariadne {ariadne_best} should be in the DRAM ballpark (dram {dram})",
                row[0]
            );
        }
    }

    #[test]
    fn fig11_reports_values_normalized_to_zram() {
        let table = fig11(&opts());
        for row in table.rows() {
            let zram_norm: f64 = row[1].parse().unwrap();
            assert!((zram_norm - 1.0).abs() < 1e-9);
            for cell in &row[2..] {
                if cell.is_empty() {
                    continue;
                }
                let value: f64 = cell.parse().unwrap();
                assert!(value > 0.0 && value < 3.0, "normalized CPU {value}");
            }
        }
    }

    #[test]
    fn fig13_ariadne_large_chunks_match_or_beat_zram_ratio() {
        let table = fig13(&opts());
        for row in table.rows() {
            let zram: f64 = row[1].trim_end_matches('x').parse().unwrap();
            let ariadne_1k_4k_16k: f64 = row[2].trim_end_matches('x').parse().unwrap();
            assert!(
                ariadne_1k_4k_16k > zram * 0.9,
                "{}: Ariadne ratio {ariadne_1k_4k_16k} vs ZRAM {zram}",
                row[0]
            );
        }
    }

    #[test]
    fn fig12_and_fig15_report_both_latencies() {
        let table = fig12(&opts());
        assert!(table.row_count() >= 4);
        let table = fig15(&opts());
        assert!(table.row_count() >= 4);
        for row in table.rows() {
            assert!(row[2].ends_with("ms") && row[3].ends_with("ms") && row[4].ends_with('x'));
        }
    }
}
