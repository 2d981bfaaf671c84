//! In-memory spans recorded by the benchmark around its calls into the
//! simulator, written out as Chrome trace-event JSON (loadable in Perfetto
//! or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called: `MobileSystem::new`, `step` or `run_by_name`.
    pub name: &'static str,
    /// The tag that refines the name: the event class a `step()` returned,
    /// or the experiment a `run_by_name` ran.
    pub tag: &'static str,
    /// The scheme label the span ran against (empty for catalog cells).
    pub scheme: &'static str,
    /// Nanoseconds from the recorder's epoch to the span's start.
    pub start_ns: u64,
    /// The span's duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace lane (worker thread) the span ran on.
    pub lane: u32,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

/// A list of spans sharing one epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Spans in completion order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch at `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Build the span that ran from `start` to `end`.
    pub fn span(
        &self,
        name: &'static str,
        tag: &'static str,
        scheme: &'static str,
        start: Instant,
        end: Instant,
        lane: u32,
    ) -> Span {
        let start_ns = self.offset_ns(start);
        Span {
            name,
            tag,
            scheme,
            start_ns,
            dur_ns: self.offset_ns(end).saturating_sub(start_ns),
            lane,
        }
    }

    /// Record the span that ran from `start` to `end` on lane 0.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        scheme: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = self.span(name, tag, scheme, start, end, 0);
        self.spans.push(span);
    }

    /// Drop every span recorded so far (the epoch stays).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Render the spans as a Chrome trace-event document with complete
    /// (`"ph":"X"`) events, timestamps in microseconds.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"workload\":\"{}\",\"scheme\":\"{}\",\"tag\":\"{}\"}}}}",
                span.name,
                span.tag,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.lane,
                workload,
                span.scheme,
                span.tag,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The total length of the union of the spans' intervals, in nanoseconds:
/// how much of a wall-clock window the spans account for, counting time
/// covered by two concurrent spans once.
pub fn union_ns(spans: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: "step",
            tag: "relaunch",
            scheme: "ZRAM",
            start_ns,
            dur_ns,
            lane: 0,
        }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[span(0, 10), span(5, 10), span(30, 5)]), 20);
        assert_eq!(union_ns(&[span(10, 5), span(0, 100)]), 100);
    }

    #[test]
    fn chrome_json_is_one_complete_event_per_span() {
        let mut recorder = Recorder::new();
        recorder.spans.push(span(1_500, 2_000));
        recorder.spans.push(span(4_000, 10));
        let json = recorder.chrome_json("relaunch");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":1.500,\"dur\":2.000"));
        assert!(json.contains("\"workload\":\"relaunch\""));
    }
}
