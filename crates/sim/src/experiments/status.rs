//! `experiments status`: a one-shot, human-readable device health report
//! in the spirit of `zramctl`/`systemd-analyze` — run the lifecycle kill
//! storm once per scheme and print what each system's ledgers and metrics
//! say: relaunch-latency quantiles, fault and kill counts,
//! compression-ratio distribution, flash write traffic and the PSI signal.
//! The report is deterministic for a given `(seed, scale)`, and the
//! systems are built by [`ExperimentOptions::system`], so the options'
//! trace ring and metrics collector observe them like any experiment.

use super::ExperimentOptions;
use crate::schemes::SchemeSpec;
use crate::system::RelaunchKind;
use ariadne_core::SizeConfig;
use ariadne_obs::metrics::names;
use ariadne_obs::Histogram;
use ariadne_trace::TimedScenario;
use std::fmt::Write as _;

/// The schemes the status report covers, in reporting order.
fn schemes() -> Vec<(&'static str, SchemeSpec)> {
    vec![
        ("zram", SchemeSpec::Zram),
        ("zswap", SchemeSpec::Zswap),
        ("ariadne", SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16())),
    ]
}

/// Render one histogram as `p50/p90/p99` in milliseconds (values are
/// recorded in full-scale microseconds).
fn quantile_line(histogram: Option<&Histogram>) -> String {
    match histogram {
        Some(h) if h.count() > 0 => {
            let ms = |q: f64| h.quantile(q).unwrap_or(0) as f64 / 1_000.0;
            format!(
                "p50 {:.1} ms  p90 {:.1} ms  p99 {:.1} ms  ({} samples)",
                ms(0.5),
                ms(0.9),
                ms(0.99),
                h.count()
            )
        }
        _ => "no samples".to_string(),
    }
}

/// Build the status report under `opts` (see the module docs).
#[must_use]
pub fn status(opts: &ExperimentOptions) -> String {
    let scenario = TimedScenario::kill_storm();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ariadne device status (seed={}, scale=1/{}, scenario=kill-storm)",
        opts.seed, opts.scale
    );
    for (label, spec) in schemes() {
        let config = opts.base_config().with_zpool_shrink(16);
        let mut system = opts.system(spec, config);
        system.run_timed(&scenario);
        let registry = system.metrics();
        let stats = system.stats();

        let _ = writeln!(out, "\nscheme {label}");
        let _ = writeln!(
            out,
            "  relaunch warm:  {}",
            quantile_line(registry.histogram(names::RELAUNCH_WARM_MICROS))
        );
        let _ = writeln!(
            out,
            "  relaunch cold:  {}",
            quantile_line(registry.histogram(names::RELAUNCH_COLD_MICROS))
        );
        let _ = writeln!(
            out,
            "  averages:       warm {:.1} ms, cold {:.1} ms (full scale)",
            system.average_relaunch_millis_of(RelaunchKind::Warm),
            system.average_relaunch_millis_of(RelaunchKind::Cold)
        );
        let _ = writeln!(
            out,
            "  faults:         {} dram-miss, io-stall {}",
            system.faults(),
            quantile_line(registry.histogram(names::IO_STALL_MICROS))
        );
        let ratio = registry
            .histogram(names::COMPRESSION_RATIO_PCT)
            .and_then(|h| h.quantile(0.5))
            .map_or("n/a".to_string(), |p| format!("{p}%"));
        let _ = writeln!(
            out,
            "  compression:    {} ops, {} decompressions, median ratio {}",
            stats.compression_ops, stats.decompression_ops, ratio
        );
        let _ = writeln!(
            out,
            "  writeback:      {} commands, {} pages",
            stats.flash.commands, stats.flash.pages_written
        );
        let _ = writeln!(
            out,
            "  pressure:       {} kills, {} wakes, psi(some) {} ppm",
            system.kills(),
            system.pressure_spikes(),
            system.psi_ppm()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_obs::{MetricsHandle, TraceHandle};

    #[test]
    fn status_report_is_deterministic_and_covers_every_scheme() {
        let opts = ExperimentOptions::quick();
        let first = status(&opts);
        let second = status(&opts);
        assert_eq!(first, second, "status must be deterministic");
        for label in ["zram", "zswap", "ariadne"] {
            assert!(first.contains(&format!("scheme {label}")), "{first}");
        }
        assert!(first.contains("relaunch warm:"));
        assert!(first.contains("psi(some)"));
    }

    #[test]
    fn observing_status_changes_nothing_it_prints() {
        let plain = status(&ExperimentOptions::quick());
        let (trace, ring) = TraceHandle::ring(1 << 16);
        let observed = ExperimentOptions {
            trace,
            metrics: MetricsHandle::new_registry(),
            ..ExperimentOptions::quick()
        };
        assert_eq!(status(&observed), plain, "observing changed the report");
        let collected = observed.metrics.snapshot().expect("collector is enabled");
        assert!(collected.counter("kills") >= 1, "{}", collected.to_json());
        assert!(!ring.lock().unwrap().is_empty(), "status emitted no events");
    }
}
