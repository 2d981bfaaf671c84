//! The writeback study: synchronous versus asynchronous versus batched
//! flash I/O.
//!
//! The Ariadne paper's CPU and relaunch wins assume cold data can be shipped
//! to flash *without* the foreground paying for it. This experiment drives
//! the I/O-heavy [`TimedScenario::writeback_storm`] through every
//! flash-writing scheme under three device models:
//!
//! * **sync** — every write is charged inline on whoever triggered it (the
//!   legacy model; background drains are disabled because writeback cannot
//!   overlap anything);
//! * **async** — writes are queued commands, one object per command;
//! * **batched** — queued commands carrying up to eight pages each, paying
//!   the per-command overhead once per batch.
//!
//! Reported per cell: average relaunch latency, time stalled on in-flight
//! I/O, total CPU busy time, and flash wear (device commands and megabytes
//! written at full scale).

use super::ExperimentOptions;
use crate::report::{fmt_unit, Table};
use crate::schemes::SchemeSpec;
use ariadne_core::SizeConfig;
use ariadne_mem::FlashIoConfig;
use ariadne_trace::TimedScenario;

/// The three I/O models the experiment compares.
#[must_use]
pub fn evaluated_io_modes() -> Vec<(&'static str, FlashIoConfig)> {
    vec![
        ("sync", FlashIoConfig::sync()),
        ("async", FlashIoConfig::ufs31().with_max_batch_pages(1)),
        ("batched", FlashIoConfig::ufs31()),
    ]
}

/// The flash-writing schemes the experiment compares.
#[must_use]
pub fn evaluated_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Swap,
        SchemeSpec::Zswap,
        SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16()),
    ]
}

/// Writeback study: relaunch latency, I/O stalls, CPU busy time and flash
/// wear under sync / async / batched writeback for every flash-writing
/// scheme.
#[must_use]
pub fn writeback(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Writeback study: sync vs async vs batched flash I/O (writeback storm)",
        &[
            "scheme",
            "io mode",
            "avg relaunch",
            "io stall",
            "cpu busy",
            "flash cmds",
            "flash MB",
        ],
    );
    let scenario = TimedScenario::writeback_storm();
    let mut cells = Vec::new();
    for spec in evaluated_schemes() {
        for (label, io) in evaluated_io_modes() {
            cells.push((spec, label, io));
        }
    }
    let base = opts.base_config();
    let scale = opts.scale;
    let rows = opts.run_cells(cells, |(spec, label, io)| {
        // A vendor-sized zswap pool (1/16 of the paper's 3 GB) keeps the
        // compressed pool overflowing, so writeback traffic is sustained.
        let config = base.with_io(io).with_zpool_shrink(16);
        let mut system = opts.system(spec, config);
        system.run_timed(&scenario);
        let stats = system.stats();
        let full_scale = scale as f64;
        vec![
            spec.label(),
            label.to_string(),
            fmt_unit(system.average_relaunch_millis(), "ms"),
            fmt_unit(stats.io_stall_time.as_millis_f64() * full_scale, "ms"),
            fmt_unit(system.cpu().total().as_millis_f64() * full_scale, "ms"),
            stats.flash.commands.to_string(),
            format!(
                "{:.1}",
                stats.flash.bytes_written as f64 * full_scale / (1024.0 * 1024.0)
            ),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writeback_reports_every_scheme_under_every_io_mode() {
        let table = writeback(&ExperimentOptions::quick());
        assert_eq!(table.row_count(), 9);
        let schemes: Vec<&str> = table.rows().map(|r| r[0].as_str()).collect();
        assert_eq!(schemes[0], "SWAP");
        assert_eq!(schemes[3], "ZSWAP");
        assert!(schemes[6].starts_with("Ariadne"));
        let modes: Vec<&str> = table.rows().map(|r| r[1].as_str()).collect();
        assert_eq!(&modes[..3], &["sync", "async", "batched"]);
    }

    #[test]
    fn async_writeback_never_loses_to_sync_on_relaunch_latency() {
        let table = writeback(&ExperimentOptions::quick());
        for scheme in 0..3 {
            let sync = table.cell_f64(scheme * 3, 2).unwrap();
            let asynchronous = table.cell_f64(scheme * 3 + 1, 2).unwrap();
            assert!(
                asynchronous <= sync,
                "row {scheme}: async {asynchronous} ms vs sync {sync} ms"
            );
        }
    }

    #[test]
    fn batching_reduces_device_commands() {
        let table = writeback(&ExperimentOptions::quick());
        // ZSWAP rows: async (index 4) vs batched (index 5).
        let unbatched: f64 = table.cell_f64(4, 5).unwrap();
        let batched: f64 = table.cell_f64(5, 5).unwrap();
        assert!(
            batched < unbatched,
            "batched {batched} commands vs unbatched {unbatched}"
        );
    }
}
