//! The memoized compression oracle.
//!
//! Every page in the workspace is synthesized deterministically: the bytes of
//! a page are a pure function of `(seed, profile, page)`. Compressing the
//! same page (or the same multi-page group) with the same chunk size
//! therefore produces a bit-identical result every time — yet the
//! schemes used to re-pay page synthesis, a fresh buffer per page and a full
//! codec run on every relaunch storm, kswapd wake and zpool-overflow
//! writeback. [`CompressionOracle`] exploits the immutability: results are
//! memoized under the codec calls that produce them, so repeated compressions
//! of unchanged data cost one hash lookup instead of a codec run.
//!
//! Six properties make the cache safe and fast:
//!
//! * **Bit-identity** — a hit returns exactly what a cold codec run would
//!   (the cold run itself goes through the zero-allocation
//!   [`compressed_len_only`](ariadne_compress::ChunkedCodec::compressed_len_only)
//!   path); property tests pin this across every chunk size.
//! * **One entry per codec input** — a key is `(pages, bytes per codec call,
//!   content variant)`; every system compresses with LZO ([`ALGORITHM`]),
//!   so the codec is not part of it. The bytes per call are the requested
//!   chunk size, except that a chunk at least as large as the group is one
//!   call over the whole group whatever its size, so every such chunk keys
//!   as the smallest power of two covering the group. The key is exact:
//!   `compressed_len_only` makes the same calls over the same bytes for
//!   every chunk size that shares it. One page at 16K or 64K thus hits the
//!   entry ZRAM's 4K run of that page made, while two pages in 4K chunks
//!   (two calls) stay apart from the same two pages in 8K chunks (one).
//! * **Zero allocation in steady state** — the probe key, the page-synthesis
//!   buffer and the per-chunk codec scratch are all reused; only the first
//!   sighting of a group allocates (to clone the key into the map).
//! * **Bounded memory** — each shard is one map holding at most its share
//!   of a configurable total entry cap. A shard about to exceed its share
//!   starts over empty and counts what it dropped as evictions; the full
//!   catalog stays far below the default cap, so no run reaches that path.
//! * **No global lock** — the cache is split into independently locked
//!   shards, and a key's shard is a pure function of the key: parallel
//!   experiment cells sharing one oracle mostly consult different shards
//!   instead of serializing on one mutex, and a repeat always finds its
//!   result.
//! * **Seed-bound** — the key omits the seed, so the oracle binds to the
//!   seed of its first consultation, and a consultation under any other
//!   seed runs the codec without touching the cache. One oracle can thus
//!   serve every system of a run, whatever their seeds.
//!
//! The oracle only memoizes *results* (sizes); the simulated latency of a
//! compression is still charged by the schemes from the calibrated cost
//! model, so experiment output is byte-identical with the oracle on or off —
//! only the host wall-clock changes.

use crate::scheme::ALGORITHM;
use ariadne_compress::{ChunkSize, ChunkedCodec, CompressedLen};
use ariadne_mem::{FxHashMap, FxHasher, PageId, PAGE_SIZE};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache key: the exact page group plus the codec calls made over it. Two
/// groups with the same pages in a different order are different keys (the
/// concatenated bytes differ), which is exactly what correctness requires.
///
/// `variant` is the content-variant tag (see
/// [`CompressionOracle::lookup`]): page bytes are a pure function of
/// `(seed, page, profile variant)`, so two consultations of the same pages
/// under different profile variants are different keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OracleKey {
    /// Bytes per codec call (see [`CompressionOracle::probe`]).
    call_bytes: usize,
    variant: u64,
    pages: Vec<PageId>,
}

/// Number of independently locked shards (a power of two, so the shard of a
/// key is a mask of its hash).
const SHARDS: usize = 8;

/// What one oracle consultation produced. The sizes are bit-identical
/// whether the result came from the cache or from a cold codec run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Bytes of original (uncompressed) data.
    pub original_len: usize,
    /// Bytes the compressed image would occupy.
    pub compressed_len: usize,
    /// Number of chunks the data split into.
    pub chunk_count: usize,
    /// Whether the result was served from the cache.
    pub hit: bool,
}

impl OracleOutcome {
    fn new(lens: CompressedLen, hit: bool) -> Self {
        OracleOutcome {
            original_len: lens.original_len,
            compressed_len: lens.compressed_len,
            chunk_count: lens.chunk_count,
            hit,
        }
    }
}

/// Lifetime counters of one oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Consultations served from the cache.
    pub hits: usize,
    /// Consultations that ran the codec.
    pub misses: usize,
    /// Original bytes whose synthesis + compression a hit avoided.
    pub bytes_saved: usize,
    /// Entries dropped by a shard that reached its share of the entry cap.
    pub evictions: usize,
}

/// Reusable synthesis + codec state for cold compression runs: the group
/// byte buffer, the per-chunk codec scratch and one [`ALGORITHM`] codec per
/// chunk size. `SchemeContext` keeps one per thread so cold runs never
/// execute under an oracle lock, and each pool thread compressing a
/// reclaim pass uses its own.
#[derive(Debug, Default)]
pub struct CodecScratch {
    data: Vec<u8>,
    chunk: Vec<u8>,
    codecs: HashMap<ChunkSize, ChunkedCodec>,
}

impl CodecScratch {
    /// Synthesize `pages` via `fill` and compress them, reusing this
    /// scratch's buffers, and return the sizes.
    pub fn compress(
        &mut self,
        pages: &[PageId],
        chunk_size: ChunkSize,
        fill: &mut dyn FnMut(PageId, &mut [u8; PAGE_SIZE]),
    ) -> CompressedLen {
        let original_len = pages.len() * PAGE_SIZE;
        self.data.clear();
        self.data.resize(original_len, 0);
        for (index, &page) in pages.iter().enumerate() {
            let buf: &mut [u8; PAGE_SIZE] = (&mut self.data
                [index * PAGE_SIZE..(index + 1) * PAGE_SIZE])
                .try_into()
                .expect("page-sized slice");
            fill(page, buf);
        }
        self.codecs
            .entry(chunk_size)
            .or_insert_with(|| ChunkedCodec::new(ALGORITHM, chunk_size))
            .compressed_len_only(&self.data, &mut self.chunk)
            .expect("compression cannot fail")
    }
}

/// One shard of the oracle: a bounded map of memoized results.
struct Shard {
    max_entries: usize,
    /// Memoized results by key.
    entries: FxHashMap<OracleKey, CompressedLen>,
    /// The key being consulted, reused so hits and the probe itself
    /// allocate nothing (loaded by [`CompressionOracle::probe`]).
    probe: OracleKey,
    stats: OracleStats,
}

impl Shard {
    fn new(max_entries: usize) -> Self {
        Shard {
            max_entries,
            entries: FxHashMap::default(),
            probe: OracleKey {
                call_bytes: 0,
                variant: 0,
                pages: Vec::new(),
            },
            stats: OracleStats::default(),
        }
    }

    fn lookup(&mut self) -> Option<OracleOutcome> {
        let lens = *self.entries.get(&self.probe)?;
        self.stats.hits += 1;
        self.stats.bytes_saved += lens.original_len;
        Some(OracleOutcome::new(lens, true))
    }

    /// Count the miss and memoize `lens` under the probe key. A shard
    /// already at its cap starts over empty first, so its length never
    /// exceeds the cap.
    fn admit(&mut self, lens: CompressedLen) {
        self.stats.misses += 1;
        if self.entries.contains_key(&self.probe) {
            return;
        }
        if self.entries.len() >= self.max_entries {
            self.stats.evictions += self.entries.len();
            self.entries.clear();
        }
        self.entries.insert(self.probe.clone(), lens);
    }
}

/// Deterministic memoization layer over the chunked codecs (see the module
/// documentation).
///
/// The entry cap is split evenly across the shards, so which entries are
/// dropped depends on the shard layout — invisible in experiment output,
/// because a memoized result is bit-identical wherever it comes from.
///
/// ```
/// use ariadne_zram::SchemeContext;
/// use ariadne_compress::ChunkSize;
/// use ariadne_trace::{AppName, WorkloadBuilder};
///
/// let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
/// let ctx = SchemeContext::new(1, &workloads);
/// let page = [workloads[0].pages[0].page];
/// let (mut cold, mut hit) = (Vec::new(), Vec::new());
/// ctx.compress_batch([(&page[..], ChunkSize::k4())], &mut cold);
/// ctx.compress_batch([(&page[..], ChunkSize::k4())], &mut hit);
/// assert!(!cold[0].hit && hit[0].hit);
/// assert_eq!(cold[0].compressed_len, hit[0].compressed_len);
/// ```
pub struct CompressionOracle {
    enabled: bool,
    /// The seed of the first consultation, the only one the cache serves.
    seed: OnceLock<u64>,
    shards: [Mutex<Shard>; SHARDS],
}

impl CompressionOracle {
    /// Default cap on memoized entries, above the ~60k the full experiment
    /// catalog memoizes. Each entry is a few hundred bytes of metadata, so
    /// the cap bounds the oracle to tens of MiB of host memory.
    pub const DEFAULT_MAX_ENTRIES: usize = 1 << 18;

    /// Create an enabled oracle with the default entry cap.
    #[must_use]
    pub fn new() -> Self {
        CompressionOracle {
            enabled: true,
            seed: OnceLock::new(),
            shards: empty_shards(Self::DEFAULT_MAX_ENTRIES),
        }
    }

    /// Create a disabled oracle: every consultation runs the codec (still
    /// through the zero-allocation scratch path) and nothing is cached. Used
    /// to pin that results are byte-identical with memoization on or off.
    #[must_use]
    pub fn disabled() -> Self {
        CompressionOracle {
            enabled: false,
            ..CompressionOracle::new()
        }
    }

    /// Override the total entry cap (at least 1), split evenly across
    /// the shards (rounded up). The cache starts over empty.
    #[must_use]
    pub fn with_max_entries(self, max_entries: usize) -> Self {
        CompressionOracle {
            shards: empty_shards(max_entries),
            ..self
        }
    }

    /// Number of memoized entries across all shards.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("oracle lock poisoned").entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters summed over all shards. Every consultation lands
    /// on exactly one shard, so the totals count each exactly once.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> OracleStats {
        let mut total = OracleStats::default();
        for shard in &self.shards {
            let stats = shard.lock().expect("oracle lock poisoned").stats;
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.bytes_saved += stats.bytes_saved;
            total.evictions += stats.evictions;
        }
        total
    }

    /// Whether a consultation under `seed` uses the cache: the oracle is
    /// enabled and bound to `seed` (the first consultation binds it).
    fn serves(&self, seed: u64) -> bool {
        self.enabled && *self.seed.get_or_init(|| seed) == seed
    }

    /// Lock the shard responsible for the key of `(pages, chunk_size,
    /// variant)` and load that key as the shard's probe. The key holds the
    /// bytes per codec call (see the module documentation): chunk sizes are
    /// powers of two, so that is the smaller of the chunk and the smallest
    /// power of two covering the group.
    fn probe(
        &self,
        pages: &[PageId],
        chunk_size: ChunkSize,
        variant: u64,
    ) -> MutexGuard<'_, Shard> {
        let call_bytes = chunk_size
            .bytes()
            .min((pages.len() * PAGE_SIZE).next_power_of_two());
        let mut hasher = FxHasher::default();
        call_bytes.hash(&mut hasher);
        variant.hash(&mut hasher);
        pages.hash(&mut hasher);
        let index = hasher.finish() as usize & (SHARDS - 1);
        let mut shard = self.shards[index].lock().expect("oracle lock poisoned");
        let key = &mut shard.probe;
        key.call_bytes = call_bytes;
        key.variant = variant;
        key.pages.clear();
        key.pages.extend_from_slice(pages);
        shard
    }

    /// Probe the cache for `(pages, chunk_size, variant)` of pages
    /// synthesized from `seed`; any chunk size that makes the same codec
    /// calls over the group finds the same entry (see the module
    /// documentation). A hit updates the hit/bytes-saved counters; a miss
    /// (or a disabled oracle, or a seed other than the one the oracle is
    /// bound to) returns `None` without touching anything, so callers can
    /// run the codec **outside** the oracle lock and
    /// [`CompressionOracle::admit`] the result afterwards.
    ///
    /// `variant` distinguishes contents the `PageId` alone cannot: a page's
    /// bytes are a pure function of `(seed, page)` *plus* whether its app
    /// carries the adversarial incompressible profile. Callers that share an
    /// oracle across configurations differing only in which apps are
    /// poisoned (the adversarial-mix grid) encode those per-page flags here
    /// so each content variant memoizes independently; callers with a single
    /// configuration pass `0`.
    ///
    /// # Panics
    ///
    /// Panics if the shard lock was poisoned by a panicking thread.
    pub fn lookup(
        &self,
        seed: u64,
        pages: &[PageId],
        chunk_size: ChunkSize,
        variant: u64,
    ) -> Option<OracleOutcome> {
        if !self.serves(seed) {
            return None;
        }
        self.probe(pages, chunk_size, variant).lookup()
    }

    /// Record a cold compression result computed by the caller (typically
    /// outside the oracle lock, via [`CodecScratch::compress`]). Counts the
    /// miss and inserts the entry unless a concurrent caller admitted the
    /// same key first — duplicate computes of the same key are bit-identical
    /// by construction, so dropping the copy is harmless. Under a seed the
    /// oracle does not serve, nothing is counted or inserted.
    ///
    /// # Panics
    ///
    /// Panics if the shard lock was poisoned by a panicking thread.
    pub fn admit(
        &self,
        seed: u64,
        pages: &[PageId],
        chunk_size: ChunkSize,
        variant: u64,
        lens: CompressedLen,
    ) -> OracleOutcome {
        if self.serves(seed) {
            self.probe(pages, chunk_size, variant).admit(lens);
        }
        OracleOutcome::new(lens, false)
    }
}

/// Empty shards sharing a total cap of `max_entries` (at least 1).
fn empty_shards(max_entries: usize) -> [Mutex<Shard>; SHARDS] {
    let per_shard = max_entries.max(1).div_ceil(SHARDS);
    std::array::from_fn(|_| Mutex::new(Shard::new(per_shard)))
}

impl Default for CompressionOracle {
    fn default() -> Self {
        CompressionOracle::new()
    }
}

/// Compact: the switch, the bound seed and the counters, never the cached
/// entries (a warm oracle holds tens of thousands of them).
impl fmt::Debug for CompressionOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompressionOracle")
            .field("enabled", &self.enabled)
            .field("seed", &self.seed.get())
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A cloneable handle to one shared compression oracle.
///
/// A page's bytes are a pure function of `(seed, profile, page)`, so the
/// oracle pays off most when *shared across systems*: one run's experiments
/// compress the same pages of the same ten apps, and the ZRAM column of
/// Figure 10 reuses what Figure 2 already compressed. The experiment
/// options carry one handle, and every system of the run joins it. Systems
/// of any seed may share a handle: the oracle serves only the seed it is
/// bound to, and the others run the codec as if it were disabled.
///
/// Sharing across concurrently running systems is safe for results (hits
/// and misses report bit-identical sizes, and simulated costs never depend
/// on the cache), but the hit/miss *counters* then depend on thread
/// interleaving — which is why experiment tables never include them.
#[derive(Debug, Clone)]
pub struct OracleHandle(pub(crate) Arc<CompressionOracle>);

impl OracleHandle {
    /// Wrap an oracle in a shareable handle.
    #[must_use]
    pub fn new(oracle: CompressionOracle) -> Self {
        OracleHandle(Arc::new(oracle))
    }

    /// An enabled ([`CompressionOracle::new`]) or disabled
    /// ([`CompressionOracle::disabled`]) oracle behind a fresh handle.
    #[must_use]
    pub fn enabled(enabled: bool) -> Self {
        if enabled {
            OracleHandle::new(CompressionOracle::new())
        } else {
            OracleHandle::new(CompressionOracle::disabled())
        }
    }

    /// Lifetime counters of the shared oracle.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> OracleStats {
        self.0.stats()
    }

    /// Number of memoized entries in the shared oracle.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.0.len()
    }
}

/// A fresh oracle behind a new handle, enabled or not
/// ([`OracleHandle::enabled`]).
impl From<bool> for OracleHandle {
    fn from(enabled: bool) -> Self {
        OracleHandle::enabled(enabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::{AppId, Pfn};

    fn page(pfn: u64) -> PageId {
        PageId::new(AppId::new(1), Pfn::new(pfn))
    }

    /// A synthetic filler with recognizable, deterministic per-page content.
    fn fill(page: PageId, buf: &mut [u8; PAGE_SIZE]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((page.pfn().value() as usize * 31 + i / 64) % 251) as u8;
        }
    }

    /// The seed every consultation below runs under.
    const SEED: u64 = 7;

    const LENS: CompressedLen = CompressedLen {
        original_len: PAGE_SIZE,
        compressed_len: PAGE_SIZE / 2,
        chunk_count: 1,
    };

    /// One consultation through the two-phase path `SchemeContext` takes:
    /// probe, compute a miss outside the lock, admit.
    fn consult(
        oracle: &CompressionOracle,
        pages: &[PageId],
        chunk_size: ChunkSize,
    ) -> OracleOutcome {
        if let Some(hit) = oracle.lookup(SEED, pages, chunk_size, 0) {
            return hit;
        }
        let lens = CodecScratch::default().compress(pages, chunk_size, &mut fill);
        oracle.admit(SEED, pages, chunk_size, 0, lens)
    }

    #[test]
    fn hits_return_the_cold_result_bit_for_bit() {
        let oracle = CompressionOracle::new();
        let pages = [page(1), page(2), page(3), page(4)];
        let cold = consult(&oracle, &pages, ChunkSize::k16());
        let hit = consult(&oracle, &pages, ChunkSize::k16());
        assert!(!cold.hit && hit.hit);
        assert_eq!(cold.original_len, hit.original_len);
        assert_eq!(cold.compressed_len, hit.compressed_len);
        assert_eq!(cold.chunk_count, hit.chunk_count);
        assert_eq!(oracle.stats().hits, 1);
        assert_eq!(oracle.stats().misses, 1);
        assert_eq!(oracle.stats().bytes_saved, 4 * PAGE_SIZE);
    }

    #[test]
    fn different_keys_do_not_collide() {
        let oracle = CompressionOracle::new();
        let a = consult(&oracle, &[page(1)], ChunkSize::k4());
        let b = consult(&oracle, &[page(1)], ChunkSize::k1());
        let c = consult(&oracle, &[page(2)], ChunkSize::k4());
        assert!(!a.hit && !b.hit && !c.hit);
        assert_eq!(oracle.len(), 3);

        // One page in 16K chunks is the one codec call it is in 4K chunks.
        let d = consult(&oracle, &[page(1)], ChunkSize::k16());
        assert!(d.hit && d.compressed_len == a.compressed_len);
        assert_eq!(oracle.len(), 3);

        // Two pages in 4K chunks are two calls, in 8K chunks one.
        let pair = [page(1), page(2)];
        let e = consult(&oracle, &pair, ChunkSize::k4());
        let f = consult(&oracle, &pair, ChunkSize::new(8192).unwrap());
        assert!(!e.hit && !f.hit);
        assert_eq!(oracle.len(), 5);
    }

    #[test]
    fn disabled_oracle_caches_nothing_but_reports_identical_sizes() {
        let enabled = CompressionOracle::new();
        let disabled = CompressionOracle::disabled();
        let pages = [page(7), page(9)];
        let on = consult(&enabled, &pages, ChunkSize::k4());
        let off = consult(&disabled, &pages, ChunkSize::k4());
        assert_eq!(on.compressed_len, off.compressed_len);
        let off2 = consult(&disabled, &pages, ChunkSize::k4());
        assert!(!off2.hit, "disabled oracle never hits");
        assert!(disabled.is_empty());
        assert_eq!(disabled.stats().misses, 0, "disabled oracle counts nothing");
    }

    #[test]
    fn a_full_shard_starts_over() {
        // The cap is enforced per shard, so the bound is pinned on one.
        let mut shard = Shard::new(2);
        let hit = |shard: &mut Shard, pfn: u64| {
            shard.probe.pages = vec![page(pfn)];
            let found = shard.lookup().is_some();
            if !found {
                shard.admit(LENS);
            }
            assert!(shard.entries.len() <= 2, "a shard exceeded its share");
            found
        };
        hit(&mut shard, 1);
        hit(&mut shard, 2);
        assert!(hit(&mut shard, 1));
        assert_eq!(shard.stats.evictions, 0);
        // A third key finds the shard full: both entries go, the new one stays.
        assert!(!hit(&mut shard, 3));
        assert_eq!(shard.entries.len(), 1);
        assert_eq!(shard.stats.evictions, 2);
        assert!(hit(&mut shard, 3), "the new key hits");
        assert!(!hit(&mut shard, 2), "a dropped key misses");
        assert_eq!(shard.entries.len(), 2);
        assert_eq!(shard.stats.evictions, 2);
    }

    #[test]
    fn total_cap_is_split_across_shards() {
        let oracle = CompressionOracle::new().with_max_entries(16);
        for pfn in 0..256 {
            oracle.admit(SEED, &[page(pfn)], ChunkSize::k4(), 0, LENS);
        }
        let len = oracle.len();
        assert!(len > 0 && len <= 16, "{len} entries exceed the cap of 16");
        assert_eq!(oracle.stats().evictions, 256 - len);
    }

    #[test]
    fn lookup_admit_round_trip_and_duplicate_admits_are_harmless() {
        let oracle = CompressionOracle::new();
        let pages = [page(5), page(6)];
        assert!(oracle.lookup(SEED, &pages, ChunkSize::k4(), 0).is_none());

        // Compute outside the oracle (the two-phase context path) and admit.
        let mut scratch = CodecScratch::default();
        let lens = scratch.compress(&pages, ChunkSize::k4(), &mut fill);
        let admitted = oracle.admit(SEED, &pages, ChunkSize::k4(), 0, lens);
        assert!(!admitted.hit);

        // A concurrent duplicate compute admits the same key again: counted
        // as a miss, entry kept once, later lookups hit.
        let lens2 = scratch.compress(&pages, ChunkSize::k4(), &mut fill);
        assert_eq!(lens, lens2, "duplicate computes are bit-identical");
        oracle.admit(SEED, &pages, ChunkSize::k4(), 0, lens2);
        assert_eq!(oracle.len(), 1);
        assert_eq!(oracle.stats().misses, 2);
        let hit = oracle
            .lookup(SEED, &pages, ChunkSize::k4(), 0)
            .expect("admitted entry must hit");
        assert_eq!(hit.compressed_len, lens.compressed_len);
    }

    #[test]
    fn another_seed_never_hits_and_leaves_a_bound_oracle_untouched() {
        let oracle = CompressionOracle::new();
        let pages = [page(1), page(2)];
        consult(&oracle, &pages, ChunkSize::k4());
        assert!(consult(&oracle, &pages, ChunkSize::k4()).hit);
        assert_eq!(
            oracle.seed.get(),
            Some(&SEED),
            "the first consultation binds"
        );
        let (len, stats) = (oracle.len(), oracle.stats());

        // Seed B asks for a cached key and for a new one, twice each.
        let other = SEED + 1;
        for _ in 0..2 {
            for pages in [&pages[..], &[page(3)]] {
                assert!(oracle.lookup(other, pages, ChunkSize::k4(), 0).is_none());
                let outcome = oracle.admit(other, pages, ChunkSize::k4(), 0, LENS);
                assert!(!outcome.hit);
                assert_eq!(outcome.compressed_len, LENS.compressed_len);
            }
        }
        assert_eq!(oracle.len(), len, "seed B inserted an entry");
        assert_eq!(oracle.stats(), stats, "seed B moved a counter");
        assert_eq!(oracle.seed.get(), Some(&SEED), "the binding never moves");
    }

    #[test]
    fn debug_output_stays_compact_however_full_the_cache() {
        let oracle = CompressionOracle::new();
        for pfn in 0..4096 {
            oracle.admit(SEED, &[page(pfn)], ChunkSize::k4(), 0, LENS);
        }
        let debug = format!("{:?}", OracleHandle::new(oracle));
        assert!(debug.len() < 256, "{} bytes: {debug}", debug.len());
        assert!(debug.contains("seed: Some(7)") && debug.contains("entries: 4096"));
    }
}
