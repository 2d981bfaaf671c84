//! Observability layer for the Ariadne reproduction.
//!
//! Two independent facilities, both built around the same contract —
//! **observation never perturbs simulation**:
//!
//! * [`trace`] — a structured event stream (faults, compress/decompress,
//!   writeback submit/complete, kills, pressure wakes, thermal inflation)
//!   recorded through a [`TraceHandle`] into a bounded ring buffer
//!   ([`TraceBuffer`]), exportable as Chrome `trace_event` JSON (loadable
//!   in Perfetto / `chrome://tracing`) and as JSONL.
//! * [`metrics`] — a registry of saturating counters and log-bucketed
//!   [`Histogram`]s. A simulated system builds its registry from its own
//!   ledgers on demand, so a counter can never drift from the number it
//!   reports; a [`MetricsHandle`] collects the registries of many systems.
//!   Histograms are *mergeable* ([`Histogram::merge`]): merging two
//!   histograms is exactly bucket-wise addition, so per-cell registries
//!   can be combined into fleet-level aggregates without losing quantile
//!   fidelity beyond the bucket resolution (±25 %).
//!
//! Nothing here is process-global: whoever builds a system hands it the
//! handles to observe it with.
//!
//! The determinism rules every hook site obeys:
//!
//! 1. A disabled [`TraceHandle`] is a `None` — the entire off-path is one
//!    branch and the event-construction closure is never run.
//! 2. Sinks receive copies of simulation state; nothing flows back.
//! 3. No host-clock reads: trace events are stamped with *simulated*
//!    nanoseconds supplied by the caller. Host time is measured only from
//!    outside the simulator, by the benchmark under `perfbench/`.
//!
//! With that contract, simulation output is byte-identical with
//! observability off and on — pinned by `crates/sim/tests/obs_identity.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Histogram, MetricsHandle, MetricsRegistry};
pub use trace::{TraceBuffer, TraceEvent, TraceEventKind, TraceHandle};

/// Renders `text` as a quoted, escaped JSON string literal (shared by every
/// JSON exporter in the workspace, which deliberately carries no JSON
/// dependency).
#[must_use]
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }
}
