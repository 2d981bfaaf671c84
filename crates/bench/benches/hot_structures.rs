//! Micro-benchmarks for the slab-indexed hot paths and the sharded oracle.
//!
//! The repository benchmark (`perfbench/`, declared by `BENCHMARK.json`)
//! times whole workloads; this bench isolates the data structures those
//! workloads hammer — zpool store/fault/release and sector-order queries,
//! flash store/fault/release, oracle lookup/admit, the baselines' LRU
//! victim pick, a reclaim pass's codec batch, and the word-wide compression
//! kernels (timed against the retired scalar loops they replaced) — so a
//! regression in one of them is attributable directly instead of showing up
//! as a diffuse slowdown across every workload. CI runs it as a smoke step
//! and uploads the output as an artifact.

use ariadne_compress::reference::scalar_codec;
use ariadne_compress::{Algorithm, ChunkSize};
use ariadne_mem::{AppId, FlashDevice, Hotness, PageId, Pfn, WriteRequest, Zpool, PAGE_SIZE};
use ariadne_trace::{AppName, WorkloadBuilder};
use ariadne_zram::{CompressionOracle, OracleHandle, PageLru, SchemeContext};
use criterion::{criterion_group, criterion_main, Criterion};

const APPS: u32 = 8;
const PAGES_PER_APP: u64 = 512;

fn page(app: u32, pfn: u64) -> PageId {
    PageId::new(AppId::new(app), Pfn::new(pfn))
}

/// Store one single-page entry per (app, pfn) pair, fault half of them back
/// out by handle, then kill every app — the exact op mix a relaunch storm
/// plus an lmkd sweep drives through the pool.
fn zpool_store_fault_release(c: &mut Criterion) {
    c.bench_function("zpool_store_fault_release", |b| {
        b.iter(|| {
            let mut zpool = Zpool::new(64 << 20);
            for app in 1..=APPS {
                for pfn in 0..PAGES_PER_APP {
                    zpool
                        .store(
                            vec![page(app, pfn)],
                            PAGE_SIZE,
                            PAGE_SIZE / 2,
                            ChunkSize::k4(),
                            if pfn % 3 == 0 {
                                Hotness::Hot
                            } else {
                                Hotness::Cold
                            },
                        )
                        .expect("store fits");
                }
            }
            for app in 1..=APPS {
                for pfn in (0..PAGES_PER_APP).step_by(2) {
                    let handle = zpool.handle_for(page(app, pfn)).expect("stored");
                    zpool.remove(handle).expect("live handle");
                }
            }
            for app in 1..=APPS {
                zpool.release_app(AppId::new(app));
            }
            zpool.stats().entries
        })
    });
}

/// A steady zpool of mixed hotness, 1–4 pages an entry, driven the way
/// Ariadne drives it (see [`zpool_sector_queries`]).
struct SectorTraffic {
    zpool: Zpool,
    /// First page of every stored entry; a page whose entry a look-ahead or
    /// writeback took is dropped when a fault picks it.
    firsts: Vec<PageId>,
    next_pfn: u64,
    rng: u64,
}

impl SectorTraffic {
    const ENTRIES: usize = 16_384;

    fn new() -> Self {
        let mut traffic = SectorTraffic {
            zpool: Zpool::new(1 << 30),
            firsts: Vec::new(),
            next_pfn: 0,
            rng: 0x2545_F491_4F6C_DD1D,
        };
        traffic.refill();
        traffic
    }

    /// xorshift64: a fixed, cheap sequence of rolls.
    fn roll(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Store entries until the pool is back at [`Self::ENTRIES`].
    fn refill(&mut self) {
        while self.zpool.len() < Self::ENTRIES {
            let roll = self.roll();
            let pages = roll % 4 + 1;
            let app = (roll >> 8) as u32 % APPS + 1;
            let hotness = [Hotness::Hot, Hotness::Warm, Hotness::Cold][(roll >> 16) as usize % 3];
            let group: Vec<PageId> = (0..pages).map(|i| page(app, self.next_pfn + i)).collect();
            let chunk = if pages == 1 {
                ChunkSize::k4()
            } else {
                ChunkSize::k16()
            };
            self.firsts.push(group[0]);
            self.next_pfn += pages;
            let bytes = group.len() * PAGE_SIZE;
            self.zpool
                .store(group, bytes, bytes / 2, chunk, hotness)
                .expect("store fits");
        }
    }

    /// Fault a random entry in, with its one-entry look-ahead.
    fn fault(&mut self) {
        let handle = loop {
            let pick = self.roll() as usize % self.firsts.len();
            if let Some(handle) = self.zpool.handle_for(self.firsts.swap_remove(pick)) {
                break handle;
            }
        };
        let faulted = self.zpool.remove(handle).expect("picked entry is live");
        let next = self
            .zpool
            .next_by_sector(faulted.sector)
            .filter(|(_, e)| e.pages.len() == 1)
            .map(|(h, _)| h);
        if let Some(next) = next {
            self.zpool.remove(next).expect("look-ahead entry is live");
        }
    }

    /// Take one writeback victim: the oldest cold entry, else the oldest.
    fn writeback(&mut self) {
        let (victim, _) = self
            .zpool
            .oldest_cold()
            .or_else(|| self.zpool.oldest())
            .expect("the pool is not empty");
        self.zpool.remove(victim).expect("victim is live");
    }
}

/// Ariadne's sector-order traffic on a steady pool of 16,384 entries: each
/// iteration faults a random entry in (remove it, ask for its sector's
/// successor, take that look-ahead entry when it holds one page), makes one
/// writeback pick, then stores replacements. `zpool_store_fault_release`
/// asks none of these sector-order queries.
fn zpool_sector_queries(c: &mut Criterion) {
    let mut traffic = SectorTraffic::new();
    c.bench_function("zpool_sector_queries", |b| {
        b.iter(|| {
            traffic.fault();
            traffic.writeback();
            traffic.refill();
            traffic.zpool.len()
        })
    });
}

/// Write one compressed page per (app, pfn) pair to flash, fault half back
/// in, then kill every app.
fn flash_store_fault_release(c: &mut Criterion) {
    c.bench_function("flash_store_fault_release", |b| {
        b.iter(|| {
            let mut flash = FlashDevice::new(256 << 20);
            let mut now = 0u128;
            for app in 1..=APPS {
                let requests: Vec<WriteRequest> = (0..PAGES_PER_APP)
                    .map(|pfn| WriteRequest {
                        pages: vec![page(app, pfn)],
                        original_bytes: PAGE_SIZE,
                        stored_bytes: PAGE_SIZE / 2,
                        compressed: true,
                    })
                    .collect();
                let result = flash.submit_writes(requests, now);
                assert!(result.dropped.is_empty(), "capacity holds the workload");
                now += 1_000_000;
            }
            now += 1_000_000_000;
            for app in 1..=APPS {
                for pfn in (0..PAGES_PER_APP).step_by(2) {
                    let slot = flash.slot_for(page(app, pfn)).expect("written");
                    flash.fault_in(slot, now).expect("live slot");
                }
            }
            for app in 1..=APPS {
                flash.release_app(AppId::new(app), now);
            }
            flash.len()
        })
    });
}

/// Admit a working set of cold results once, then hammer lookups (the
/// steady-state mix the memoized oracle serves during a relaunch storm).
fn oracle_lookup_admit(c: &mut Criterion) {
    const SEED: u64 = 1;
    let lens = ariadne_compress::CompressedLen {
        original_len: PAGE_SIZE,
        compressed_len: PAGE_SIZE / 2,
        chunk_count: 1,
    };
    c.bench_function("oracle_lookup_admit", |b| {
        b.iter(|| {
            let oracle = CompressionOracle::new();
            for pfn in 0..1024u64 {
                let pages = [page(1, pfn)];
                assert!(oracle.lookup(SEED, &pages, ChunkSize::k4(), 0).is_none());
                oracle.admit(SEED, &pages, ChunkSize::k4(), 0, lens);
            }
            let mut hits = 0usize;
            for round in 0..4 {
                for pfn in 0..1024u64 {
                    let pages = [page(1, (pfn * 7 + round) % 1024)];
                    if oracle.lookup(SEED, &pages, ChunkSize::k4(), 0).is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
}

/// Pick one victim per call from 8,192 pages whose 4,096 oldest belong to
/// the foreground app: the LRU tail a relaunched app leaves, which ZRAM's
/// and SWAP's single-page direct reclaim passes over. The victim goes back
/// to the most recently used end, so every call sees the same list.
fn lru_pick_foreground_tail(c: &mut Criterion) {
    const PAGES: u64 = 4096;
    let foreground = AppId::new(1);
    let mut lru = PageLru::default();
    for app in [1, 2] {
        for pfn in 0..PAGES {
            lru.touch(page(app, pfn));
        }
    }
    let mut victims = Vec::with_capacity(1);
    c.bench_function("lru_pick_foreground_tail", |b| {
        b.iter(|| {
            victims.clear();
            lru.pick_victims(Some(foreground), 1, &mut victims);
            lru.touch(victims[0]);
        })
    });
}

/// Compress the same 256 single-page 4 KiB groups of workload pages
/// through a disabled oracle, so every group runs the codec: as one
/// reclaim pass (`codec_batch_x256`, its misses on the pool) and as 256
/// batches of one (`codec_batch_of_one_x256`, each on this thread). The
/// two rows of one run show the batch's speed-up on this host's cores.
fn codec_batches(c: &mut Criterion) {
    let workloads = vec![WorkloadBuilder::new(1).scale(256).build(AppName::Youtube)];
    let ctx = SchemeContext::new(1, &workloads).with_oracle_handle(&OracleHandle::enabled(false));
    let pages: Vec<PageId> = workloads[0]
        .pages
        .iter()
        .take(256)
        .map(|p| p.page)
        .collect();
    assert_eq!(pages.len(), 256, "the workload has 256 pages");
    fn group(page: &PageId) -> (&[PageId], ChunkSize) {
        (std::slice::from_ref(page), ChunkSize::k4())
    }
    let mut outcomes = Vec::with_capacity(pages.len());
    c.bench_function("codec_batch_x256", |b| {
        b.iter(|| {
            ctx.compress_batch(pages.iter().map(group), &mut outcomes);
            outcomes.len()
        })
    });
    c.bench_function("codec_batch_of_one_x256", |b| {
        b.iter(|| {
            for page in &pages {
                ctx.compress_batch([group(page)], &mut outcomes);
            }
            outcomes.len()
        })
    });
}

/// A 16-page corpus mixing what mobile anonymous memory looks like: mostly
/// repetitive pages with scattered single-byte perturbations, a couple of
/// incompressible (noise) pages and one all-zero page.
fn kernel_corpus() -> Vec<u8> {
    let pages = 16usize;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rand = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut corpus = Vec::with_capacity(pages * PAGE_SIZE);
    for p in 0..pages {
        match p % 8 {
            7 => corpus.extend(std::iter::repeat(0u8).take(PAGE_SIZE)),
            3 | 5 => corpus.extend((0..PAGE_SIZE / 8).flat_map(|_| rand().to_le_bytes())),
            _ => {
                let base: Vec<u8> = (0..PAGE_SIZE).map(|i| ((i / 32) % 251) as u8).collect();
                let mut page = base;
                for _ in 0..64 {
                    let at = (rand() as usize) % PAGE_SIZE;
                    page[at] ^= 0xFF;
                }
                corpus.extend(page);
            }
        }
    }
    corpus
}

/// Compress the corpus with every algorithm, once with the production
/// word-wide kernel and once with the scalar reference loop the kernel
/// replaced. The pair of numbers makes the SWAR speedup (or a regression)
/// directly visible per algorithm. Each pair runs over 4 KiB pieces (ZRAM's
/// unit, rows `kernel_{algorithm}_{label}`) and over 16 KiB pieces
/// (Ariadne's cold chunk, rows suffixed `_16k`), where LZO's chains and
/// head table fill up and its cost per byte rises.
fn compression_kernels(c: &mut Criterion) {
    let corpus = kernel_corpus();
    for algorithm in Algorithm::ALL {
        let variants: [(&str, Box<dyn ariadne_compress::Codec>); 2] = [
            ("swar", algorithm.codec()),
            ("scalar", scalar_codec(algorithm)),
        ];
        for (label, codec) in variants {
            for (suffix, piece) in [("", PAGE_SIZE), ("_16k", 4 * PAGE_SIZE)] {
                let mut out = Vec::with_capacity(2 * piece);
                c.bench_function(format!("kernel_{algorithm}_{label}{suffix}"), |b| {
                    b.iter(|| {
                        let mut total = 0usize;
                        for chunk in corpus.chunks(piece) {
                            out.clear();
                            codec.compress_into(chunk, &mut out).expect("compress");
                            total += out.len();
                        }
                        total
                    })
                });
            }
        }
    }
}

/// The observability primitives that sit on simulation hot paths: a
/// histogram record (every compressed group and lmkd wake takes one)
/// and — most importantly — the disabled-trace dispatch, which is the price
/// every *untraced* run pays at each emission site. The disabled cost must
/// stay at a branch-on-none, or observability would tax the default runs it
/// promises not to perturb.
fn obs_primitives(c: &mut Criterion) {
    use ariadne_obs::{Histogram, TraceEventKind, TraceHandle};

    let mut histogram = Histogram::new();
    let mut value = 0u64;
    c.bench_function("obs_histogram_record", |b| {
        b.iter(|| {
            value = value
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            histogram.record(value >> 32);
        })
    });

    let disabled_trace = TraceHandle::disabled();
    c.bench_function("obs_disabled_trace_dispatch", |b| {
        b.iter(|| {
            // The closure must never run on a disabled handle; Criterion
            // times the bare branch.
            disabled_trace.emit(0, || TraceEventKind::Kill {
                app: "youtube".to_string(),
                app_uid: 1,
            });
        })
    });
    let (tracing, _buffer) = TraceHandle::ring(1 << 12);
    c.bench_function("obs_ring_trace_emit", |b| {
        b.iter(|| {
            tracing.emit(0, || TraceEventKind::Compress {
                bytes: 4096,
                cost_nanos: 1_000,
            });
        })
    });
}

criterion_group! {
    name = structures;
    config = Criterion::default().sample_size(10);
    targets = zpool_store_fault_release, zpool_sector_queries, flash_store_fault_release,
        oracle_lookup_admit, lru_pick_foreground_tail, codec_batches, obs_primitives
}
// The kernel rows compare builds a few percent apart, so they take more
// samples.
criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(100);
    targets = compression_kernels
}
criterion_main!(structures, kernels);
