//! The memoized compression oracle.
//!
//! Every page in the workspace is synthesized deterministically: the bytes of
//! a page are a pure function of `(seed, profile, page)`. Compressing the
//! same page (or the same multi-page group) with the same algorithm and chunk
//! size therefore produces a bit-identical result every time — yet the
//! schemes used to re-pay page synthesis, a fresh buffer per page and a full
//! codec run on every relaunch storm, kswapd wake and zpool-overflow
//! writeback. [`CompressionOracle`] exploits the immutability: results are
//! memoized under `(pages, algorithm, chunk size)`, so repeated compressions
//! of unchanged data cost one hash lookup instead of a codec run.
//!
//! Three properties make the cache safe and fast:
//!
//! * **Bit-identity** — a hit returns exactly what a cold codec run would
//!   (the cold run itself goes through the zero-allocation
//!   [`compressed_len_only`](ariadne_compress::ChunkedCodec::compressed_len_only)
//!   path); property tests pin this across every algorithm × chunk size.
//! * **Zero allocation in steady state** — the probe key, the page-synthesis
//!   buffer and the per-chunk codec scratch are all reused; only the first
//!   sighting of a group allocates (to clone the key into the map).
//! * **Bounded memory** — entries are kept in strict LRU order with a
//!   configurable entry cap.
//!
//! The oracle only memoizes *results* (sizes); the simulated latency of a
//! compression is still charged by the schemes from the calibrated cost
//! model, so experiment output is byte-identical with the oracle on or off —
//! only the host wall-clock changes.

use ariadne_compress::{Algorithm, ChunkSize, ChunkedCodec, CompressedLen};
use ariadne_mem::{Chain, FxHashMap, FxHasher, PageId, Slab, PAGE_SIZE};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Cache key: the exact page group plus the codec configuration. Two groups
/// with the same pages in a different order are different keys (the
/// concatenated bytes differ), which is exactly what correctness requires.
///
/// `variant` is the content-variant tag (see
/// [`CompressionOracle::lookup`]): page bytes are a pure function of
/// `(seed, page, profile variant)`, so two consultations of the same pages
/// under different profile variants are different keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OracleKey {
    algorithm: Algorithm,
    chunk_size: ChunkSize,
    variant: u64,
    pages: Vec<PageId>,
}

/// Link channel of the recency chain (head = most recently used).
const RECENCY_CHANNEL: usize = 0;

/// One memoized compression result, stored in the oracle's slab. The key is
/// kept in the slot so LRU eviction can drop the index entry without a
/// reverse map.
#[derive(Debug, Clone)]
struct OracleEntry {
    key: OracleKey,
    lens: CompressedLen,
}

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
    /// Entries evicted by the LRU entry cap.
    pub evictions: usize,
}

/// Reusable synthesis + codec state for cold compression runs: the group
/// byte buffer, the per-chunk codec scratch and one boxed codec per
/// `(algorithm, chunk size)` pair. The oracle owns one for its own
/// single-threaded convenience path; `SchemeContext` keeps one per thread
/// so cold runs never execute under the shared oracle lock.
#[derive(Debug, Default)]
pub struct CodecScratch {
    data: Vec<u8>,
    chunk: Vec<u8>,
    codecs: HashMap<(Algorithm, ChunkSize), ChunkedCodec>,
}

impl CodecScratch {
    /// Synthesize `pages` via `fill` and compress them, reusing this
    /// scratch's buffers, and return the sizes.
    pub fn compress(
        &mut self,
        pages: &[PageId],
        algorithm: Algorithm,
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
            .entry((algorithm, chunk_size))
            .or_insert_with(|| ChunkedCodec::new(algorithm, chunk_size))
            .compressed_len_only(&self.data, &mut self.chunk)
            .expect("compression cannot fail")
    }
}

/// Deterministic memoization layer over the chunked codecs (see the module
/// documentation).
///
/// ```
/// use ariadne_zram::SchemeContext;
/// use ariadne_compress::{Algorithm, ChunkSize};
/// use ariadne_trace::{AppName, WorkloadBuilder};
///
/// let workloads = vec![WorkloadBuilder::new(1).scale(1024).build(AppName::Twitter)];
/// let ctx = SchemeContext::new(1, &workloads);
/// let page = workloads[0].pages[0].page;
/// let cold = ctx.compress_pages(&[page], Algorithm::Lzo, ChunkSize::k4());
/// let hit = ctx.compress_pages(&[page], Algorithm::Lzo, ChunkSize::k4());
/// assert!(!cold.hit && hit.hit);
/// assert_eq!(cold.compressed_len, hit.compressed_len);
/// ```
#[derive(Debug)]
pub struct CompressionOracle {
    enabled: bool,
    max_entries: usize,
    /// Memoized results; an intrusive link channel threads the recency
    /// order through the slots, so a hit is a hash probe plus a handful of
    /// pointer updates — no tree rebalancing.
    entries: Slab<OracleEntry>,
    /// Key → slab slot.
    index: FxHashMap<OracleKey, u32>,
    /// Recency order (head = most recently used); the tail is the eviction
    /// victim, which keeps eviction order identical to the old tick-ordered
    /// map: strictly least recently used first.
    recency: Chain,
    /// Reused probe key: hits and the probe itself allocate nothing.
    key_scratch: OracleKey,
    /// Synthesis + codec scratch for the single-threaded convenience path
    /// ([`CompressionOracle::compress_pages`]).
    scratch: CodecScratch,
    stats: OracleStats,
}

impl CompressionOracle {
    /// Default cap on memoized entries. Each entry is a few hundred bytes of
    /// metadata, so the cap bounds the oracle to a few MiB of host memory.
    pub const DEFAULT_MAX_ENTRIES: usize = 1 << 16;

    /// Create an enabled oracle with the default entry cap.
    #[must_use]
    pub fn new() -> Self {
        CompressionOracle {
            enabled: true,
            max_entries: Self::DEFAULT_MAX_ENTRIES,
            entries: Slab::new(),
            index: FxHashMap::default(),
            recency: Chain::new(),
            key_scratch: OracleKey {
                algorithm: Algorithm::Lzo,
                chunk_size: ChunkSize::k4(),
                variant: 0,
                pages: Vec::new(),
            },
            scratch: CodecScratch::default(),
            stats: OracleStats::default(),
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

    /// Override the LRU entry cap (at least 1).
    #[must_use]
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries.max(1);
        self
    }

    /// Whether memoization is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Probe the cache for `(pages, algorithm, chunk_size, variant)`. A hit
    /// updates the LRU order and the hit/bytes-saved counters; a miss (or a
    /// disabled oracle) returns `None` without touching anything, so callers
    /// can run the codec **outside** the oracle lock and
    /// [`CompressionOracle::admit`] the result afterwards.
    ///
    /// `variant` distinguishes contents the `PageId` alone cannot: a page's
    /// bytes are a pure function of `(seed, page)` *plus* whether its app
    /// carries the adversarial incompressible profile. Callers that share an
    /// oracle across configurations differing only in which apps are
    /// poisoned (the adversarial-mix grid) encode those per-page flags here
    /// so each content variant memoizes independently; callers with a single
    /// configuration pass `0`.
    pub fn lookup(
        &mut self,
        pages: &[PageId],
        algorithm: Algorithm,
        chunk_size: ChunkSize,
        variant: u64,
    ) -> Option<OracleOutcome> {
        if !self.enabled {
            return None;
        }
        self.key_scratch.algorithm = algorithm;
        self.key_scratch.chunk_size = chunk_size;
        self.key_scratch.variant = variant;
        self.key_scratch.pages.clear();
        self.key_scratch.pages.extend_from_slice(pages);
        let slot = *self.index.get(&self.key_scratch)?;
        self.recency
            .move_front(&mut self.entries, RECENCY_CHANNEL, slot);
        let lens = self.entries.value_at(slot).lens;
        self.stats.hits += 1;
        self.stats.bytes_saved += lens.original_len;
        Some(OracleOutcome::new(lens, true))
    }

    /// Record a cold compression result computed by the caller (typically
    /// outside the oracle lock, via [`CodecScratch::compress`]). Counts the
    /// miss and inserts the entry unless a concurrent caller admitted the
    /// same key first — duplicate computes of the same key are bit-identical
    /// by construction, so dropping the copy is harmless.
    pub fn admit(
        &mut self,
        pages: &[PageId],
        algorithm: Algorithm,
        chunk_size: ChunkSize,
        variant: u64,
        lens: CompressedLen,
    ) -> OracleOutcome {
        let outcome = OracleOutcome::new(lens, false);
        if !self.enabled {
            return outcome;
        }
        self.stats.misses += 1;
        self.key_scratch.algorithm = algorithm;
        self.key_scratch.chunk_size = chunk_size;
        self.key_scratch.variant = variant;
        self.key_scratch.pages.clear();
        self.key_scratch.pages.extend_from_slice(pages);
        if self.index.contains_key(&self.key_scratch) {
            return outcome;
        }
        let key = self.key_scratch.clone();
        let slot = self
            .entries
            .insert(OracleEntry {
                key: key.clone(),
                lens,
            })
            .index();
        self.index.insert(key, slot);
        self.recency
            .push_front(&mut self.entries, RECENCY_CHANNEL, slot);
        self.enforce_cap();
        outcome
    }

    /// Compress the concatenated contents of `pages` with `(algorithm,
    /// chunk_size)`, serving from the cache when possible. `fill` synthesizes
    /// one page into the reused group buffer on a miss (it is not called on
    /// hits — that is the point). Single-threaded convenience over
    /// [`CompressionOracle::lookup`] / [`CompressionOracle::admit`]; lock
    /// holders that can compute outside the lock should use those directly.
    pub fn compress_pages(
        &mut self,
        pages: &[PageId],
        algorithm: Algorithm,
        chunk_size: ChunkSize,
        fill: &mut dyn FnMut(PageId, &mut [u8; PAGE_SIZE]),
    ) -> OracleOutcome {
        if let Some(hit) = self.lookup(pages, algorithm, chunk_size, 0) {
            return hit;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let lens = scratch.compress(pages, algorithm, chunk_size, fill);
        self.scratch = scratch;
        self.admit(pages, algorithm, chunk_size, 0, lens)
    }

    /// Evict whole entries beyond the LRU cap, least recently used first:
    /// each victim is the tail of the recency chain, so the cost is
    /// proportional to what is actually evicted, not to the cache size.
    fn enforce_cap(&mut self) {
        while self.index.len() > self.max_entries {
            let slot = self
                .recency
                .tail()
                .expect("non-empty cache has a recency tail");
            self.recency
                .unlink(&mut self.entries, RECENCY_CHANNEL, slot);
            let entry = self
                .entries
                .remove(self.entries.key_at(slot))
                .expect("recency tail names a live slot");
            self.index.remove(&entry.key);
            self.stats.evictions += 1;
        }
    }
}

impl Default for CompressionOracle {
    fn default() -> Self {
        CompressionOracle::new()
    }
}

/// A set of independently locked [`CompressionOracle`] shards.
///
/// Consultations for different keys mostly land on different shards, so
/// parallel experiment cells sharing one oracle no longer serialize on a
/// single mutex. The shard of a key is a pure function of the key — a
/// deterministic hash of `(algorithm, chunk size, pages)` computed without
/// taking any lock — so a given group always consults the same shard and
/// memoization still never misses a repeat.
///
/// Each shard keeps strict LRU order internally; the entry cap is split
/// evenly across shards. Eviction decisions therefore differ from a
/// single-lock oracle with the same total cap, but the oracle only
/// memoizes *results* (which are bit-identical wherever they come from),
/// so this is invisible in experiment output — a property the
/// oracle-equivalence suite pins.
#[derive(Debug)]
pub struct OracleShards {
    shards: Vec<Mutex<CompressionOracle>>,
    /// `shards.len() - 1`; the shard count is a power of two so selection is
    /// a mask of the key hash.
    mask: u64,
    /// Uniform shard configuration, readable without a lock.
    enabled: bool,
}

impl OracleShards {
    /// Default number of independently locked shards (a power of two).
    pub const DEFAULT_SHARDS: usize = 8;

    /// Split `template`'s configuration across `shard_count` shards
    /// (rounded up to a power of two, at least one). The entry cap is
    /// divided evenly so the total stays what the template asked for.
    #[must_use]
    pub fn new(template: CompressionOracle, shard_count: usize) -> Self {
        let count = shard_count.max(1).next_power_of_two();
        let per_shard_entries = template.max_entries.div_ceil(count).max(1);
        let enabled = template.enabled;
        let mut shards = Vec::with_capacity(count);
        // The template itself becomes shard 0 (preserving any entries it
        // already memoized); the rest start cold with the same config.
        let mut first = template;
        first.max_entries = per_shard_entries;
        first.enforce_cap();
        shards.push(Mutex::new(first));
        for _ in 1..count {
            let mut shard = if enabled {
                CompressionOracle::new()
            } else {
                CompressionOracle::disabled()
            };
            shard.max_entries = per_shard_entries;
            shards.push(Mutex::new(shard));
        }
        OracleShards {
            shards,
            mask: (count - 1) as u64,
            enabled,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether memoization is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The shard responsible for `(pages, algorithm, chunk_size, variant)`:
    /// a pure function of the key, computed without any lock.
    #[must_use]
    pub fn shard(
        &self,
        pages: &[PageId],
        algorithm: Algorithm,
        chunk_size: ChunkSize,
        variant: u64,
    ) -> &Mutex<CompressionOracle> {
        let mut hasher = FxHasher::default();
        algorithm.hash(&mut hasher);
        chunk_size.hash(&mut hasher);
        variant.hash(&mut hasher);
        pages.hash(&mut hasher);
        let index = (hasher.finish() & self.mask) as usize;
        &self.shards[index]
    }

    /// Total number of memoized entries across all shards.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("oracle shard lock poisoned").len())
            .sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters summed over all shards. Hits and misses are
    /// conserved across sharding: every consultation lands on exactly one
    /// shard, so the totals match what a single-lock oracle would count.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> OracleStats {
        let mut total = OracleStats::default();
        for shard in &self.shards {
            let stats = shard.lock().expect("oracle shard lock poisoned").stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.bytes_saved += stats.bytes_saved;
            total.evictions += stats.evictions;
        }
        total
    }
}

/// A cloneable handle to one shared, sharded compression oracle.
///
/// Within one experiment, every simulated system is built from the same
/// `(seed, scale)` — the synthesized bytes of a page are identical across
/// all of them — so the oracle pays off most when *shared across systems*:
/// the ZRAM column of Figure 10 compresses the same pages once per run of
/// five apps instead of five times. Experiments create one handle and attach
/// it to every system they build; systems with different seeds must never
/// share a handle (their page contents differ).
///
/// Sharing across concurrently running systems is safe for results (hits
/// and misses report bit-identical sizes, and simulated costs never depend
/// on the cache), but the hit/miss *counters* then depend on thread
/// interleaving — which is why experiment tables never include them.
#[derive(Debug, Clone)]
pub struct OracleHandle(pub(crate) Arc<OracleShards>);

impl OracleHandle {
    /// Wrap an oracle in a shareable handle, sharding it
    /// [`OracleShards::DEFAULT_SHARDS`] ways.
    #[must_use]
    pub fn new(oracle: CompressionOracle) -> Self {
        OracleHandle(Arc::new(OracleShards::new(
            oracle,
            OracleShards::DEFAULT_SHARDS,
        )))
    }

    /// Wrap an oracle in a handle with an explicit shard count (rounded up
    /// to a power of two). `1` gives the old single-lock behaviour; the
    /// equivalence suite uses this to pin that sharding changes nothing
    /// observable.
    #[must_use]
    pub fn with_shards(oracle: CompressionOracle, shard_count: usize) -> Self {
        OracleHandle(Arc::new(OracleShards::new(oracle, shard_count)))
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

    /// The sharded oracle behind this handle.
    #[must_use]
    pub fn shards(&self) -> &OracleShards {
        &self.0
    }

    /// Lifetime counters of the shared oracle, summed over shards.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> OracleStats {
        self.0.stats()
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

    #[test]
    fn hits_return_the_cold_result_bit_for_bit() {
        let mut oracle = CompressionOracle::new();
        let pages = [page(1), page(2), page(3), page(4)];
        let cold = oracle.compress_pages(&pages, Algorithm::Lzo, ChunkSize::k16(), &mut fill);
        let hit = oracle.compress_pages(&pages, Algorithm::Lzo, ChunkSize::k16(), &mut fill);
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
        let mut oracle = CompressionOracle::new();
        let a = oracle.compress_pages(&[page(1)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        let b = oracle.compress_pages(&[page(1)], Algorithm::Lz4, ChunkSize::k4(), &mut fill);
        let c = oracle.compress_pages(&[page(1)], Algorithm::Lzo, ChunkSize::k1(), &mut fill);
        let d = oracle.compress_pages(&[page(2)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        assert!(!a.hit && !b.hit && !c.hit && !d.hit);
        assert_eq!(oracle.len(), 4);
    }

    #[test]
    fn disabled_oracle_caches_nothing_but_reports_identical_sizes() {
        let mut enabled = CompressionOracle::new();
        let mut disabled = CompressionOracle::disabled();
        let pages = [page(7), page(9)];
        let on = enabled.compress_pages(&pages, Algorithm::Lz4, ChunkSize::k4(), &mut fill);
        let off = disabled.compress_pages(&pages, Algorithm::Lz4, ChunkSize::k4(), &mut fill);
        assert_eq!(on.compressed_len, off.compressed_len);
        let off2 = disabled.compress_pages(&pages, Algorithm::Lz4, ChunkSize::k4(), &mut fill);
        assert!(!off2.hit, "disabled oracle never hits");
        assert!(disabled.is_empty());
        assert_eq!(disabled.stats().misses, 0, "disabled oracle counts nothing");
    }

    #[test]
    fn lru_cap_evicts_the_least_recently_used_entry() {
        let mut oracle = CompressionOracle::new().with_max_entries(2);
        oracle.compress_pages(&[page(1)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        oracle.compress_pages(&[page(2)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        // Touch page 1 so page 2 becomes the LRU victim.
        let hit = oracle.compress_pages(&[page(1)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        assert!(hit.hit);
        oracle.compress_pages(&[page(3)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        assert_eq!(oracle.len(), 2);
        assert_eq!(oracle.stats().evictions, 1);
        let page1 = oracle.compress_pages(&[page(1)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        assert!(page1.hit, "page 1 survived (recently used)");
        let page2 = oracle.compress_pages(&[page(2)], Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        assert!(!page2.hit, "page 2 was the LRU victim");
    }

    #[test]
    fn lookup_admit_round_trip_and_duplicate_admits_are_harmless() {
        let mut oracle = CompressionOracle::new();
        let pages = [page(5), page(6)];
        assert!(oracle
            .lookup(&pages, Algorithm::Lzo, ChunkSize::k4(), 0)
            .is_none());

        // Compute outside the oracle (the two-phase context path) and admit.
        let mut scratch = CodecScratch::default();
        let lens = scratch.compress(&pages, Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        let admitted = oracle.admit(&pages, Algorithm::Lzo, ChunkSize::k4(), 0, lens);
        assert!(!admitted.hit);

        // A concurrent duplicate compute admits the same key again: counted
        // as a miss, entry kept once, later lookups hit.
        let lens2 = scratch.compress(&pages, Algorithm::Lzo, ChunkSize::k4(), &mut fill);
        assert_eq!(lens, lens2, "duplicate computes are bit-identical");
        oracle.admit(&pages, Algorithm::Lzo, ChunkSize::k4(), 0, lens2);
        assert_eq!(oracle.len(), 1);
        assert_eq!(oracle.stats().misses, 2);
        let hit = oracle
            .lookup(&pages, Algorithm::Lzo, ChunkSize::k4(), 0)
            .expect("admitted entry must hit");
        assert_eq!(hit.compressed_len, lens.compressed_len);
    }
}
