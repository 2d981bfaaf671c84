//! Structured simulation-event tracing.
//!
//! Hook sites throughout the workspace hold a [`TraceHandle`] and call
//! [`TraceHandle::emit`] with the *simulated* timestamp and a closure that
//! builds the event. A disabled handle (the default) makes `emit` a single
//! branch — the closure never runs, nothing allocates, and the simulation
//! path is untouched. An enabled handle records the event into a
//! [`TraceBuffer`], a bounded ring that drops the oldest events once full
//! and exports either Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) or JSONL.

use crate::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity: enough for every event of a quick-mode grid cell
/// while bounding memory for pathological workloads.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// One structured simulation event. Variants mirror the paper-relevant
/// mechanisms: page faults, codec work, zpool→flash writeback, lmkd kills,
/// kswapd pressure wakes and thermal throttling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A page access missed DRAM and was served from a slower tier.
    Fault {
        /// Application label (e.g. `"Twitter"`).
        app: String,
        /// Numeric application id (becomes the Chrome-trace `tid`).
        app_uid: u32,
        /// Tier that served the page: `"zpool"`, `"flash"`,
        /// `"predecomp_buffer"` or `"absent"` (a DRAM hit, `"dram"`, is
        /// not a fault).
        location: &'static str,
        /// Simulated stall charged for the fault.
        latency_nanos: u128,
    },
    /// A foreground relaunch completed (one measurement row).
    Relaunch {
        /// Application label.
        app: String,
        /// Numeric application id (becomes the Chrome-trace `tid`).
        app_uid: u32,
        /// `"warm"` or `"cold"`.
        kind: &'static str,
        /// End-to-end simulated relaunch latency.
        latency_nanos: u128,
    },
    /// A compression cost was charged (one batch entering the codec).
    Compress {
        /// Uncompressed bytes entering the codec.
        bytes: usize,
        /// Simulated codec cost charged (after thermal inflation).
        cost_nanos: u128,
    },
    /// A decompression cost was charged (a compressed entry read back).
    Decompress {
        /// Original (uncompressed) bytes decompressed.
        bytes: usize,
        /// Simulated codec cost charged (after thermal inflation).
        cost_nanos: u128,
    },
    /// Writeback commands were submitted to the flash device.
    WritebackSubmit {
        /// Commands queued by this submission.
        commands: usize,
        /// Pages covered by the submission.
        pages: usize,
        /// Bytes shipped to flash.
        bytes: usize,
        /// Simulated completion time of the last command.
        completes_at_nanos: u128,
    },
    /// A queued flash command retired.
    WritebackComplete {
        /// Pages the retired command covered.
        pages: usize,
        /// Bytes the retired command wrote.
        bytes: usize,
    },
    /// lmkd killed a background application.
    Kill {
        /// Application label.
        app: String,
        /// Numeric application id (becomes the Chrome-trace `tid`).
        app_uid: u32,
    },
    /// kswapd woke to reclaim pages.
    PressureWake {
        /// Pressure level: `"medium"` or `"critical"`.
        level: &'static str,
        /// Reclaim target handed to the scheme.
        target_pages: usize,
    },
    /// lmkd woke and sampled PSI.
    LmkdWake {
        /// PSI some-avg in parts-per-million at the wake.
        psi_ppm: u64,
        /// Whether this wake killed an application.
        killed: bool,
    },
    /// The thermal model inflated a codec cost.
    ThermalInflation {
        /// Cost before inflation.
        base_nanos: u128,
        /// Cost actually charged.
        inflated_nanos: u128,
    },
}

impl TraceEventKind {
    /// Short event name (the Chrome-trace `name` field).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Fault { .. } => "fault",
            TraceEventKind::Relaunch { .. } => "relaunch",
            TraceEventKind::Compress { .. } => "compress",
            TraceEventKind::Decompress { .. } => "decompress",
            TraceEventKind::WritebackSubmit { .. } => "writeback_submit",
            TraceEventKind::WritebackComplete { .. } => "writeback_complete",
            TraceEventKind::Kill { .. } => "kill",
            TraceEventKind::PressureWake { .. } => "pressure_wake",
            TraceEventKind::LmkdWake { .. } => "lmkd_wake",
            TraceEventKind::ThermalInflation { .. } => "thermal_inflation",
        }
    }

    /// Event category (the Chrome-trace `cat` field).
    #[must_use]
    pub fn category(&self) -> &'static str {
        match self {
            TraceEventKind::Fault { .. } | TraceEventKind::Relaunch { .. } => "app",
            TraceEventKind::Compress { .. }
            | TraceEventKind::Decompress { .. }
            | TraceEventKind::ThermalInflation { .. } => "codec",
            TraceEventKind::WritebackSubmit { .. } | TraceEventKind::WritebackComplete { .. } => {
                "writeback"
            }
            TraceEventKind::Kill { .. }
            | TraceEventKind::PressureWake { .. }
            | TraceEventKind::LmkdWake { .. } => "pressure",
        }
    }

    /// Simulated duration for events that span time (rendered as Chrome
    /// `ph:"X"` complete events); `None` renders as an instant (`ph:"i"`).
    #[must_use]
    pub fn duration_nanos(&self) -> Option<u128> {
        match self {
            TraceEventKind::Fault { latency_nanos, .. }
            | TraceEventKind::Relaunch { latency_nanos, .. } => Some(*latency_nanos),
            TraceEventKind::Compress { cost_nanos, .. }
            | TraceEventKind::Decompress { cost_nanos, .. } => Some(*cost_nanos),
            _ => None,
        }
    }

    /// Numeric application id for app-scoped events (the Chrome `tid`).
    #[must_use]
    pub fn thread_id(&self) -> u32 {
        match self {
            TraceEventKind::Fault { app_uid, .. }
            | TraceEventKind::Relaunch { app_uid, .. }
            | TraceEventKind::Kill { app_uid, .. } => *app_uid,
            _ => 0,
        }
    }

    /// The event payload as a JSON object (the Chrome `args` field).
    #[must_use]
    pub fn args_json(&self) -> String {
        match self {
            TraceEventKind::Fault {
                app,
                app_uid: _,
                location,
                latency_nanos,
            } => format!(
                "{{\"app\":{},\"location\":{},\"latency_nanos\":{latency_nanos}}}",
                json_escape(app),
                json_escape(location)
            ),
            TraceEventKind::Relaunch {
                app,
                app_uid: _,
                kind,
                latency_nanos,
            } => format!(
                "{{\"app\":{},\"kind\":{},\"latency_nanos\":{latency_nanos}}}",
                json_escape(app),
                json_escape(kind)
            ),
            TraceEventKind::Compress { bytes, cost_nanos } => {
                format!("{{\"bytes\":{bytes},\"cost_nanos\":{cost_nanos}}}")
            }
            TraceEventKind::Decompress { bytes, cost_nanos } => {
                format!("{{\"bytes\":{bytes},\"cost_nanos\":{cost_nanos}}}")
            }
            TraceEventKind::WritebackSubmit {
                commands,
                pages,
                bytes,
                completes_at_nanos,
            } => format!(
                "{{\"commands\":{commands},\"pages\":{pages},\"bytes\":{bytes},\
                 \"completes_at_nanos\":{completes_at_nanos}}}"
            ),
            TraceEventKind::WritebackComplete { pages, bytes } => {
                format!("{{\"pages\":{pages},\"bytes\":{bytes}}}")
            }
            TraceEventKind::Kill { app, app_uid: _ } => {
                format!("{{\"app\":{}}}", json_escape(app))
            }
            TraceEventKind::PressureWake {
                level,
                target_pages,
            } => format!(
                "{{\"level\":{},\"target_pages\":{target_pages}}}",
                json_escape(level)
            ),
            TraceEventKind::LmkdWake { psi_ppm, killed } => {
                format!("{{\"psi_ppm\":{psi_ppm},\"killed\":{killed}}}")
            }
            TraceEventKind::ThermalInflation {
                base_nanos,
                inflated_nanos,
            } => format!("{{\"base_nanos\":{base_nanos},\"inflated_nanos\":{inflated_nanos}}}"),
        }
    }
}

/// One recorded event: a simulated timestamp, the system that emitted it
/// (the Chrome `pid`), and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event happened, in nanoseconds.
    pub at_nanos: u128,
    /// Id of the emitting system (each attached system gets its own).
    pub pid: u32,
    /// The event payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Renders the event as one Chrome `trace_event` JSON object
    /// (timestamps in microseconds, as the format requires).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let ts = self.at_nanos as f64 / 1_000.0;
        let kind = &self.kind;
        let common = format!(
            "\"name\":{},\"cat\":{},\"ts\":{ts:.3},\"pid\":{},\"tid\":{},\"args\":{}",
            json_escape(kind.name()),
            json_escape(kind.category()),
            self.pid,
            kind.thread_id(),
            kind.args_json()
        );
        match kind.duration_nanos() {
            Some(dur) => format!(
                "{{{common},\"ph\":\"X\",\"dur\":{:.3}}}",
                dur as f64 / 1_000.0
            ),
            None => format!("{{{common},\"ph\":\"i\",\"s\":\"g\"}}"),
        }
    }

    /// Renders the event as one JSONL line (nanosecond timestamps, full
    /// payload — the lossless export).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"at_nanos\":{},\"pid\":{},\"name\":{},\"cat\":{},\"args\":{}}}",
            self.at_nanos,
            self.pid,
            json_escape(self.kind.name()),
            json_escape(self.kind.category()),
            self.kind.args_json()
        )
    }
}

/// The trace sink: a bounded ring buffer. Once `capacity` events are held,
/// recording a new event drops the oldest (and counts the drop), so memory
/// stays bounded no matter how long the simulation runs.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a ring holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently held (oldest first).
    #[must_use]
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Number of events held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the ring as a Chrome `trace_event` JSON document
    /// (`{"traceEvents":[...]}`), loadable in Perfetto and
    /// `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_trace_json(&self) -> String {
        let events: Vec<String> = self.events.iter().map(TraceEvent::to_chrome_json).collect();
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\
             \"otherData\":{{\"dropped_events\":\"{}\"}}}}",
            events.join(","),
            self.dropped
        )
    }

    /// Exports the ring as JSONL, one event per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }

    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A cheap, cloneable reference to a shared [`TraceBuffer`], or — the
/// default — a disabled handle whose [`emit`](TraceHandle::emit) is a
/// single branch.
///
/// Every system attached to the same handle family gets a distinct `pid`
/// (allocated from a shared counter by
/// [`for_next_system`](TraceHandle::for_next_system)), so events from
/// different grid cells stay distinguishable in one exported trace.
#[derive(Clone)]
pub struct TraceHandle {
    ring: Option<Arc<Mutex<TraceBuffer>>>,
    next_pid: Arc<AtomicU32>,
    pid: u32,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.ring.is_some())
            .field("pid", &self.pid)
            .finish()
    }
}

impl TraceHandle {
    /// A handle with no ring: emitting through it is one branch.
    #[must_use]
    pub fn disabled() -> Self {
        TraceHandle {
            ring: None,
            next_pid: Arc::new(AtomicU32::new(1)),
            pid: 0,
        }
    }

    /// Creates a ring buffer and a handle feeding it. The returned buffer
    /// reference is what the caller later exports from.
    #[must_use]
    pub fn ring(capacity: usize) -> (Self, Arc<Mutex<TraceBuffer>>) {
        let buffer = Arc::new(Mutex::new(TraceBuffer::new(capacity)));
        let handle = TraceHandle {
            ring: Some(Arc::clone(&buffer)),
            next_pid: Arc::new(AtomicU32::new(1)),
            pid: 0,
        };
        (handle, buffer)
    }

    /// Whether a ring is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The `pid` this handle stamps on emitted events.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// A clone of this handle with a fresh `pid` from the shared counter —
    /// called once per attached system so systems sharing one ring stay
    /// distinguishable.
    #[must_use]
    pub fn for_next_system(&self) -> Self {
        let mut handle = self.clone();
        handle.pid = self.next_pid.fetch_add(1, Ordering::Relaxed);
        handle
    }

    /// Emits one event at simulated time `at_nanos`. Disabled handles
    /// return immediately without running `kind`.
    pub fn emit(&self, at_nanos: u128, kind: impl FnOnce() -> TraceEventKind) {
        let Some(ring) = &self.ring else { return };
        let event = TraceEvent {
            at_nanos,
            pid: self.pid,
            kind: kind(),
        };
        if let Ok(mut ring) = ring.lock() {
            ring.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kill(app: &str) -> TraceEventKind {
        TraceEventKind::Kill {
            app: app.to_string(),
            app_uid: 7,
        }
    }

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let handle = TraceHandle::disabled();
        handle.emit(5, || panic!("closure must not run on the off-path"));
        assert!(!handle.is_enabled());
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let (handle, buffer) = TraceHandle::ring(2);
        for at in 0..5u128 {
            handle.emit(at, || kill("A"));
        }
        let buffer = buffer.lock().unwrap();
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.dropped(), 3);
        assert_eq!(buffer.events()[0].at_nanos, 3);
        assert_eq!(buffer.events()[1].at_nanos, 4);
    }

    #[test]
    fn chrome_export_has_trace_events_array_and_phases() {
        let (handle, buffer) = TraceHandle::ring(16);
        let handle = handle.for_next_system();
        handle.emit(1_500, || kill("A"));
        handle.emit(2_000, || TraceEventKind::Fault {
            app: "B".into(),
            app_uid: 3,
            location: "zpool",
            latency_nanos: 4_000,
        });
        let json = buffer.lock().unwrap().to_chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"i\""), "kill is an instant: {json}");
        assert!(json.contains("\"ph\":\"X\""), "fault has duration: {json}");
        assert!(json.contains("\"dur\":4.000"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":3"));
    }

    #[test]
    fn jsonl_export_is_one_line_per_event() {
        let (handle, buffer) = TraceHandle::ring(16);
        handle.emit(1, || kill("A"));
        handle.emit(2, || kill("B"));
        let jsonl = buffer.lock().unwrap().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().all(|line| line.starts_with("{\"at_nanos\":")));
    }

    #[test]
    fn pids_are_distinct_per_system() {
        let (handle, _buffer) = TraceHandle::ring(4);
        let a = handle.for_next_system();
        let b = handle.for_next_system();
        assert_ne!(a.pid(), b.pid());
    }
}
