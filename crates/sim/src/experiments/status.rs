//! `experiments status`: a one-shot, human-readable device health report
//! in the spirit of `zramctl`/`systemd-analyze` — run the lifecycle kill
//! storm once per scheme with the observability sinks attached and print
//! what the metrics registry saw: relaunch-latency quantiles, fault and
//! kill counts, compression-ratio distribution, writeback traffic and the
//! PSI signal. The report is deterministic for a given `(seed, scale)`.

use super::ExperimentOptions;
use crate::schemes::SchemeSpec;
use crate::system::RelaunchKind;
use ariadne_core::SizeConfig;
use ariadne_obs::metrics::names;
use ariadne_obs::{Histogram, MetricsHandle};
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
        let metrics = MetricsHandle::new_registry();
        let mut system = opts.system(spec, config);
        system.attach_metrics(&metrics);
        system.run_timed(&scenario);
        let registry = metrics.snapshot().unwrap_or_default();

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
            registry.counter(names::FAULTS),
            quantile_line(registry.histogram(names::IO_STALL_MICROS))
        );
        let ratio = registry
            .histogram(names::COMPRESSION_RATIO_PCT)
            .and_then(|h| h.quantile(0.5))
            .map_or("n/a".to_string(), |p| format!("{p}%"));
        let _ = writeln!(
            out,
            "  compression:    {} ops, {} decompressions, median ratio {}",
            registry.counter(names::COMPRESS_OPS),
            registry.counter(names::DECOMPRESS_OPS),
            ratio
        );
        let _ = writeln!(
            out,
            "  writeback:      {} commands, {} pages",
            registry.counter(names::WRITEBACK_COMMANDS),
            registry.counter(names::WRITEBACK_PAGES)
        );
        let _ = writeln!(
            out,
            "  pressure:       {} kills, {} wakes, psi(some) {} ppm",
            registry.counter(names::KILLS),
            registry.counter(names::PRESSURE_WAKES),
            system.psi_ppm()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn attaching_the_status_metrics_does_not_change_results() {
        // `status` attaches a registry; the identity contract says the
        // simulated numbers it prints match an unobserved run.
        let opts = ExperimentOptions::quick();
        let config = opts.base_config().with_zpool_shrink(16);
        let scenario = TimedScenario::kill_storm();
        let mut plain = opts.system(SchemeSpec::Zswap, config);
        plain.run_timed(&scenario);
        let metrics = MetricsHandle::new_registry();
        let mut observed = opts.system(SchemeSpec::Zswap, config);
        observed.attach_metrics(&metrics);
        observed.run_timed(&scenario);
        assert_eq!(plain.measurements(), observed.measurements());
        assert_eq!(plain.psi_ppm(), observed.psi_ppm());
    }
}
