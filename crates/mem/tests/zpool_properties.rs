//! Differential property tests for the zpool's sector-order queries.
//!
//! `Zpool` keeps sector order without a search tree: a store-ordered chain
//! each for cold and for hot single-page entries, and a lazily pruned sector
//! log for everything. The reference model below keeps the three sector
//! `BTreeMap`s the pool used to maintain (all / cold / hot single-page
//! entries), and every query must give the same answer after every
//! operation — including the successor of a sector already removed, which
//! is how PreDecomp's look-ahead calls it.

use ariadne_compress::ChunkSize;
use ariadne_mem::zpool::ZPOOL_BLOCK_SIZE;
use ariadne_mem::{
    AppId, Hotness, PageId, Pfn, Zpool, ZpoolEntry, ZpoolHandle, ZpoolSector, ZpoolStats,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The apps the ops spread their entries over.
const APPS: u8 = 3;

/// A pool the ops never fill: removal order, not capacity, drives the log.
const CAPACITY: usize = 1 << 30;

/// The parent's sector indices plus the running totals, kept beside the pool.
#[derive(Default)]
struct Model {
    by_sector: BTreeMap<u64, ZpoolHandle>,
    cold: BTreeMap<u64, ZpoolHandle>,
    hot_single: BTreeMap<u64, ZpoolHandle>,
    entries: BTreeMap<ZpoolHandle, ZpoolEntry>,
    stores: usize,
    removals: usize,
}

impl Model {
    fn store(&mut self, handle: ZpoolHandle, entry: ZpoolEntry) {
        let sector = entry.sector.value();
        self.by_sector.insert(sector, handle);
        if entry.hotness == Hotness::Cold {
            self.cold.insert(sector, handle);
        }
        if entry.is_hot_single() {
            self.hot_single.insert(sector, handle);
        }
        self.entries.insert(handle, entry);
        self.stores += 1;
    }

    fn remove(&mut self, handle: ZpoolHandle) -> ZpoolEntry {
        let entry = self.entries.remove(&handle).expect("model entry is live");
        let sector = entry.sector.value();
        self.by_sector.remove(&sector);
        self.cold.remove(&sector);
        self.hot_single.remove(&sector);
        self.removals += 1;
        entry
    }

    fn release_app(&mut self, app: AppId) -> (usize, usize) {
        let doomed: Vec<ZpoolHandle> = self
            .by_sector
            .values()
            .copied()
            .filter(|h| self.entries[h].pages[0].app() == app)
            .collect();
        let pages = doomed.iter().map(|h| self.remove(*h).pages.len()).sum();
        (doomed.len(), pages)
    }

    fn next_by_sector(&self, sector: u64) -> Option<ZpoolHandle> {
        self.by_sector.range(sector + 1..).next().map(|(_, h)| *h)
    }

    fn oldest(&self) -> Option<ZpoolHandle> {
        self.by_sector.values().next().copied()
    }

    fn oldest_cold(&self) -> Option<ZpoolHandle> {
        self.cold.values().next().copied()
    }

    fn stats(&self) -> ZpoolStats {
        ZpoolStats {
            entries: self.entries.len(),
            original_bytes: self.entries.values().map(|e| e.original_bytes).sum(),
            compressed_bytes: self.entries.values().map(|e| e.compressed_bytes).sum(),
            stores: self.stores,
            removals: self.removals,
        }
    }

    /// Live handles in sector order.
    fn handles(&self) -> Vec<ZpoolHandle> {
        self.by_sector.values().copied().collect()
    }
}

/// The pool and its model, driven in lockstep.
struct Pair {
    pool: Zpool,
    model: Model,
    next_pfn: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            pool: Zpool::new(CAPACITY),
            model: Model::default(),
            next_pfn: 0,
        }
    }

    /// Store 1–4 pages of one app at one hotness, `blocks` zpool blocks big.
    fn store(&mut self, app: u8, pages: usize, hotness: Hotness, blocks: usize) -> ZpoolHandle {
        let pages: Vec<PageId> = (0..pages)
            .map(|_| {
                self.next_pfn += 1;
                PageId::new(AppId::new(u32::from(app)), Pfn::new(self.next_pfn))
            })
            .collect();
        let original = pages.len() * 4096;
        let compressed = (blocks - 1) * ZPOOL_BLOCK_SIZE + 700;
        let chunk = if pages.len() == 1 {
            ChunkSize::k4()
        } else {
            ChunkSize::k16()
        };
        let handle = self
            .pool
            .store(pages, original, compressed, chunk, hotness)
            .expect("the pool never fills");
        let entry = self.pool.entry(handle).expect("just stored").clone();
        assert_eq!(entry.blocks(), blocks);
        self.model.store(handle, entry);
        handle
    }

    fn remove(&mut self, handle: ZpoolHandle) -> ZpoolEntry {
        let entry = self.pool.remove(handle).expect("live handle");
        assert_eq!(entry, self.model.remove(handle));
        assert!(
            self.pool.entry(handle).is_err(),
            "a removed handle is stale"
        );
        entry
    }

    /// The `choice`-th live handle in sector order, if any.
    fn pick(&self, choice: usize) -> Option<ZpoolHandle> {
        let handles = self.model.handles();
        (!handles.is_empty()).then(|| handles[choice % handles.len()])
    }

    /// Compare every query with the model.
    fn check(&self, probes: &[u64]) {
        let (pool, model) = (&self.pool, &self.model);
        let handle = |found: Option<(ZpoolHandle, &ZpoolEntry)>| {
            found.map(|(h, e)| {
                assert_eq!(Some(e), model.entries.get(&h), "entry behind {h}");
                h
            })
        };
        for &sector in probes {
            assert_eq!(
                handle(pool.next_by_sector(ZpoolSector::new(sector))),
                model.next_by_sector(sector),
                "next_by_sector({sector})"
            );
        }
        assert_eq!(handle(pool.oldest()), model.oldest(), "oldest");
        assert_eq!(
            handle(pool.oldest_cold()),
            model.oldest_cold(),
            "oldest_cold"
        );
        assert_eq!(pool.hot_single_count(), model.hot_single.len());
        let hot: Vec<ZpoolHandle> = model.hot_single.values().copied().collect();
        for limit in [0, 1, 3, usize::MAX] {
            let expected = &hot[..hot.len().min(limit)];
            assert_eq!(
                pool.hot_single_oldest(limit),
                expected,
                "hot_single_oldest({limit})"
            );
        }
        assert_eq!(
            pool.iter().map(|(h, _)| h).collect::<Vec<_>>(),
            model.handles(),
            "iter"
        );
        assert_eq!(pool.stats(), model.stats());
        assert_eq!(pool.len(), model.entries.len());
    }

    /// Sectors worth probing: each live sector, one past the newest, and a
    /// few removed ones.
    fn probes(&self, removed: &[u64]) -> Vec<u64> {
        let mut probes: Vec<u64> = self.model.by_sector.keys().copied().collect();
        probes.extend(removed.iter().rev().take(4));
        probes.push(0);
        probes.push(probes.iter().max().map_or(0, |s| s + 8));
        probes
    }
}

fn hotness(code: u8) -> Hotness {
    match code % 3 {
        0 => Hotness::Hot,
        1 => Hotness::Warm,
        _ => Hotness::Cold,
    }
}

/// Interpret an op sequence against the pool and the model, comparing every
/// query after every operation.
fn run_ops(ops: &[(u8, u8, u8)]) {
    let mut pair = Pair::new();
    let mut removed = Vec::new();
    for &(op, a, b) in ops {
        let app = a % APPS;
        match op {
            // Store 1–4 pages of one app; 1–5 blocks.
            0..=2 => {
                let pages = usize::from(a / APPS % 4) + 1;
                pair.store(app, pages, hotness(b), usize::from(b / 3 % 5) + 1);
            }
            // Remove by handle.
            3 => {
                if let Some(h) = pair.pick(usize::from(b)) {
                    removed.push(pair.remove(h).sector.value());
                }
            }
            // Kill an app.
            4 => {
                assert_eq!(
                    pair.pool.release_app(AppId::new(u32::from(app))),
                    pair.model.release_app(AppId::new(u32::from(app))),
                    "release_app({app})"
                );
            }
            // The fault look-ahead: remove the faulted entry, let direct
            // reclaim store and evict others, then ask for the faulted
            // sector's successor and take it when it holds one page.
            5 => {
                if let Some(h) = pair.pick(usize::from(b)) {
                    let sector = pair.remove(h).sector.value();
                    removed.push(sector);
                    for i in 0..usize::from(a % 3) {
                        pair.store(app, 1, hotness(b.wrapping_add(i as u8)), 1);
                    }
                    if let Some(victim) = pair.pick(usize::from(a)).filter(|_| b % 2 == 0) {
                        removed.push(pair.remove(victim).sector.value());
                    }
                    let next = pair.pool.next_by_sector(ZpoolSector::new(sector));
                    let next = next.filter(|(_, e)| e.pages.len() == 1).map(|(h, _)| h);
                    assert_eq!(
                        next,
                        pair.model
                            .next_by_sector(sector)
                            .filter(|h| pair.model.entries[h].pages.len() == 1)
                    );
                    if let Some(next) = next {
                        removed.push(pair.remove(next).sector.value());
                    }
                }
            }
            // The writeback pick: the oldest cold entry, else the oldest.
            _ => {
                let victim = pair.pool.oldest_cold().or_else(|| pair.pool.oldest());
                let victim = victim.map(|(h, _)| h);
                let expected = pair.model.oldest_cold().or_else(|| pair.model.oldest());
                assert_eq!(victim, expected, "writeback pick");
                if let Some(h) = victim {
                    removed.push(pair.remove(h).sector.value());
                }
            }
        }
        pair.check(&pair.probes(&removed));
    }
}

/// Fill the pool, churn it from one end — remove the oldest (`fifo`) or
/// the newest entry and store a replacement — then drain it. The churn
/// keeps the pool at `LIVE` entries over fifteen times as many stores, so
/// the log compacts many times.
fn churn_run(fifo: bool) {
    const LIVE: usize = 200;
    let mut pair = Pair::new();
    let mut removed = Vec::new();
    let end = |pair: &Pair| {
        let live = pair.model.handles();
        if fifo {
            live.first().copied()
        } else {
            live.last().copied()
        }
    };
    for i in 0..LIVE {
        pair.store((i % 3) as u8, i % 4 + 1, hotness(i as u8), i % 5 + 1);
    }
    for round in 0..15 * LIVE {
        let h = end(&pair).expect("the churn keeps the pool full");
        let sector = pair.remove(h).sector.value();
        removed.push(sector);
        assert_eq!(
            pair.pool
                .next_by_sector(ZpoolSector::new(sector))
                .map(|(h, _)| h),
            pair.model.next_by_sector(sector)
        );
        pair.store(
            (round % 3) as u8,
            round % 4 + 1,
            hotness(round as u8),
            round % 5 + 1,
        );
        if round % 37 == 0 {
            pair.check(&pair.probes(&removed));
        }
    }
    while let Some(h) = end(&pair) {
        removed.push(pair.remove(h).sector.value());
    }
    pair.check(&pair.probes(&removed));
    assert!(pair.pool.is_empty() && pair.pool.oldest().is_none());
}

#[test]
fn first_in_first_out_churn_matches_the_sector_trees() {
    churn_run(true);
}

#[test]
fn last_in_first_out_churn_matches_the_sector_trees() {
    churn_run(false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zpool_queries_match_the_sector_trees(
        ops in proptest::collection::vec(
            (0u8..7, proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
            1..300,
        ),
    ) {
        run_ops(&ops);
    }
}
