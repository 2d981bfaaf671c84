//! The deterministic discrete-event core of the simulator.
//!
//! [`MobileSystem`](crate::MobileSystem) runs every scenario here: it pushes
//! each scenario event into an [`EventQueue`] and pops them in
//! `(time, class, seq)` order:
//!
//! 1. **time** — the scheduled simulated instant, in nanoseconds;
//! 2. **class** — at equal times, app-lifecycle events run before kswapd
//!    wake-ups, which run before deferred-work drain ticks (so a relaunch
//!    arriving at the same instant as background reclaim wins the race, like
//!    a foreground fault beating kswapd to the CPU);
//! 3. **seq** — a monotonically increasing push counter; the final
//!    tie-breaker is insertion order, which makes the pop order a total,
//!    reproducible order with no dependence on heap internals.
//!
//! Determinism argument: the queue is a max-heap over the *inverted* key, so
//! `pop` always returns the unique minimum of the key triple; pushes assign
//! `seq` from a counter; and no key component depends on host time, hashing
//! or thread scheduling. Two runs fed identical event streams therefore pop
//! identical sequences, and — because every handler is deterministic given
//! the pop order and the seeded workloads — produce byte-identical results.

use ariadne_trace::ScenarioEvent;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event the engine can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A scenario event (app lifecycle, idle pause or pressure spike).
    App(ScenarioEvent),
    /// kswapd wakes up and runs background reclaim to the high watermark.
    KswapdWake,
    /// A deferred-work drain tick (ZSWAP writeback flush, Ariadne
    /// pre-decompression refill).
    DrainTick,
    /// An asynchronous flash write command reached its completion time; the
    /// scheme retires it (its data becomes at-rest flash contents).
    IoComplete,
    /// The low-memory killer wakes up: it samples the PSI-style
    /// memory-stall signal and, above its threshold, kills the cached
    /// background app with the highest `oom_score_adj`.
    LmkdWake,
}

impl EngineEvent {
    /// The tie-breaking class of the event (lower runs first at equal times).
    #[must_use]
    pub fn class(&self) -> u8 {
        match self {
            EngineEvent::App(_) => 0,
            EngineEvent::KswapdWake => 1,
            EngineEvent::DrainTick => 2,
            // I/O completions run last at equal instants: a fault arriving
            // at exactly the completion time observes a zero remaining
            // stall either way, and retirement is lazily time-driven, so
            // the class only fixes the replay order deterministically.
            EngineEvent::IoComplete => 3,
            // lmkd runs after everything else at an instant: it judges the
            // pressure that remains once reclaim and deferred work had
            // their chance, like the real daemon reacting to PSI events
            // after kswapd already ran.
            EngineEvent::LmkdWake => 4,
        }
    }
}

/// An event with its scheduling key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// Scheduled simulated time in nanoseconds.
    pub at_nanos: u128,
    /// Tie-breaking class (see [`EngineEvent::class`]).
    pub class: u8,
    /// Push sequence number, the final tie-breaker.
    pub seq: u64,
    /// The event to dispatch.
    pub event: EngineEvent,
}

impl Scheduled {
    fn key(&self) -> (u128, u8, u64) {
        (self.at_nanos, self.class, self.seq)
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: BinaryHeap is a max-heap, we want the smallest key first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The seeded, tie-breaking priority event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at `at_nanos`. The class is derived from the event;
    /// the sequence number is assigned from the push counter.
    pub fn push(&mut self, at_nanos: u128, event: EngineEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            at_nanos,
            class: event.class(),
            seq,
            event,
        });
    }

    /// Schedule a whole batch of events at once. Sequence numbers are
    /// assigned in iteration order, so popping is indistinguishable from
    /// having called [`EventQueue::push`] once per event — but the heap is
    /// restored with one bulk rebuild instead of one sift per event, which
    /// is what keeps scenario loads and relaunch storms cheap.
    pub fn push_batch<I: IntoIterator<Item = (u128, EngineEvent)>>(&mut self, events: I) {
        let batch: Vec<Scheduled> = events
            .into_iter()
            .map(|(at_nanos, event)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                Scheduled {
                    at_nanos,
                    class: event.class(),
                    seq,
                    event,
                }
            })
            .collect();
        if batch.is_empty() {
            return;
        }
        // `append` heapifies in O(len) when the incoming half is large
        // relative to the existing heap (the storm case) and falls back to
        // sifting when it is small.
        self.heap.append(&mut BinaryHeap::from(batch));
    }

    /// Pop the next event in `(time, class, seq)` order.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_trace::AppName;

    #[test]
    fn pop_order_is_time_then_class_then_seq() {
        let mut queue = EventQueue::new();
        queue.push(10, EngineEvent::LmkdWake); // seq 0
        queue.push(10, EngineEvent::IoComplete); // seq 1
        queue.push(10, EngineEvent::DrainTick); // seq 2
        queue.push(10, EngineEvent::KswapdWake); // seq 3
        queue.push(10, EngineEvent::App(ScenarioEvent::Launch(AppName::Edge))); // seq 4
        queue.push(5, EngineEvent::KswapdWake); // seq 5

        assert_eq!(queue.pop().unwrap().at_nanos, 5);
        let order: Vec<u8> = std::iter::from_fn(|| queue.pop())
            .map(|s| s.class)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_keys_fall_back_to_insertion_order() {
        let mut queue = EventQueue::new();
        for i in 0..8u64 {
            let app = if i % 2 == 0 {
                AppName::Twitter
            } else {
                AppName::Youtube
            };
            queue.push(42, EngineEvent::App(ScenarioEvent::Launch(app)));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|s| s.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn push_batch_pops_identically_to_sequential_pushes() {
        // A storm of same-tick and out-of-order events, scheduled both ways.
        let events: Vec<(u128, EngineEvent)> = (0..64u128)
            .map(|i| {
                let event = match i % 5 {
                    0 => EngineEvent::App(ScenarioEvent::Launch(AppName::Edge)),
                    1 => EngineEvent::KswapdWake,
                    2 => EngineEvent::DrainTick,
                    3 => EngineEvent::IoComplete,
                    _ => EngineEvent::LmkdWake,
                };
                ((i * 7) % 13, event)
            })
            .collect();

        let mut sequential = EventQueue::new();
        for (at, event) in &events {
            sequential.push(*at, *event);
        }
        let mut batched = EventQueue::new();
        batched.push_batch(events.iter().copied());

        // Batching on top of a non-empty heap must behave identically too.
        sequential.push(1, EngineEvent::KswapdWake);
        batched.push_batch([(1, EngineEvent::KswapdWake)]);

        loop {
            let (a, b) = (sequential.pop(), batched.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn push_batch_of_nothing_is_a_no_op() {
        let mut queue = EventQueue::new();
        queue.push_batch(std::iter::empty());
        assert!(queue.is_empty());
        queue.push(0, EngineEvent::KswapdWake);
        assert_eq!(queue.pop().unwrap().seq, 0);
    }

    #[test]
    fn queue_reports_len_and_clears() {
        let mut queue = EventQueue::new();
        assert!(queue.is_empty());
        queue.push(0, EngineEvent::KswapdWake);
        queue.push(1, EngineEvent::DrainTick);
        assert_eq!(queue.len(), 2);
        assert!(!queue.is_empty());
    }
}
