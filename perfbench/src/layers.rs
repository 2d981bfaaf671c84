//! Standalone layer throughputs, measured in the traced run on the
//! workload's own inputs: workload synthesis, page synthesis, the three
//! codecs at each chunk size, and the event queue.

use crate::stats::median;
use crate::Layers;
use ariadne_compress::{Algorithm, ChunkSize, ChunkedCodec, PAGE_SIZE};
use ariadne_sim::{EngineEvent, EventQueue, SimulationConfig};
use ariadne_trace::{AppWorkload, PageDataGenerator, ScenarioEvent};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per measurement; the median is reported.
const REPS: usize = 3;
/// Bytes of page data each codec measurement compresses.
const CODEC_SAMPLE_BYTES: usize = 4 << 20;
/// Events pushed and popped per event-queue measurement.
const QUEUE_EVENTS: usize = 200_000;

/// The codecs and chunk sizes measured: (metric stem, algorithm), and
/// (metric suffix, chunk size) — ZRAM's 4 KiB page and Ariadne's 1K/2K/16K.
const CODECS: [(&str, Algorithm); 3] = [
    ("lzo", Algorithm::Lzo),
    ("lz4", Algorithm::Lz4),
    ("bdi", Algorithm::Bdi),
];

fn chunks() -> [(&'static str, ChunkSize); 4] {
    [
        ("4k", ChunkSize::k4()),
        ("1k", ChunkSize::k1()),
        ("2k", ChunkSize::k2()),
        ("16k", ChunkSize::k16()),
    ]
}

/// Median seconds of `REPS` runs of `work`.
fn time(mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// Measure every standalone throughput for `config`'s inputs into
/// `layers`.
pub fn measure(config: &SimulationConfig, layers: &mut Layers) {
    layers.set(
        "trace.workload_build_s",
        time(|| {
            black_box(config.workloads());
        }),
    );
    let workloads = config.workloads();
    let generator = PageDataGenerator::new(config.seed);
    let total_pages: usize = workloads.iter().map(|w| w.pages.len()).sum();
    let mut page = [0u8; PAGE_SIZE];
    let synth_s = time(|| {
        for w in &workloads {
            for spec in &w.pages {
                generator.fill_page_bytes(&w.profile, spec.page, &mut page);
                black_box(&page);
            }
        }
    });
    layers.set("trace.synth_mb_s", mb(total_pages * PAGE_SIZE) / synth_s);

    let sample = codec_sample(&workloads, &generator);
    let mut scratch = Vec::new();
    for (stem, algorithm) in CODECS {
        for (suffix, chunk) in chunks() {
            let codec = ChunkedCodec::new(algorithm, chunk);
            let secs = time(|| {
                let len = codec
                    .compressed_len_only(black_box(&sample), &mut scratch)
                    .expect("the codecs accept any input");
                black_box(len);
            });
            layers.set(
                &format!("compress.{stem}_mb_s.{suffix}"),
                mb(sample.len()) / secs,
            );
        }
    }

    let events = queue_events(config.seed);
    let queue_s = time(|| {
        let mut queue = EventQueue::new();
        for &(at, event) in &events {
            queue.push(at, event);
        }
        while let Some(scheduled) = queue.pop() {
            black_box(scheduled);
        }
    });
    layers.set("sim.queue_events_per_s", events.len() as f64 / queue_s);
}

/// Megabytes (10^6 bytes).
fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Up to `CODEC_SAMPLE_BYTES` of the workloads' own page bytes: an equal
/// run of consecutive pages from each application.
fn codec_sample(workloads: &[AppWorkload], generator: &PageDataGenerator) -> Vec<u8> {
    let per_app = CODEC_SAMPLE_BYTES / PAGE_SIZE / workloads.len().max(1);
    let mut sample = Vec::with_capacity(CODEC_SAMPLE_BYTES);
    let mut page = [0u8; PAGE_SIZE];
    for w in workloads {
        for spec in w.pages.iter().take(per_app) {
            generator.fill_page_bytes(&w.profile, spec.page, &mut page);
            sample.extend_from_slice(&page);
        }
    }
    sample
}

/// A seeded stream of engine events with scattered timestamps and every
/// event class.
fn queue_events(seed: u64) -> Vec<(u128, EngineEvent)> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..QUEUE_EVENTS)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let event = match i % 4 {
                0 => EngineEvent::App(ScenarioEvent::Idle { millis: 1 }),
                1 => EngineEvent::KswapdWake,
                2 => EngineEvent::DrainTick,
                _ => EngineEvent::IoComplete,
            };
            (u128::from(state >> 24), event)
        })
        .collect()
}
