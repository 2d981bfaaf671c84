//! The LRU page list the ZRAM/ZSWAP and SWAP baselines reclaim from.
//!
//! Reclaim takes its victims from the LRU end but passes over the pages of
//! the foreground app while any other page remains (§2.2: kswapd scans the
//! inactive list from its tail). Each pick leaves the pages it passed over
//! at the LRU end in reverse order: the order a scan that pops every page
//! and pushes the passed-over ones back leaves, which the simulator's
//! outputs are pinned to. After a relaunch the foreground app's old pages
//! sit at the tail, so such a scan walks all of them on every
//! single-page direct reclaim.
//!
//! [`PageLru`] keeps the passed-over pages as a *parked run* at the LRU end
//! instead: a second [`Chain`] through the same slab, under the same index,
//! read from the LRU end in the direction an orientation bit gives. A pick
//! parks only the foreground pages it newly meets and flips the bit, so it
//! costs O(victims + newly parked pages), not O(foreground pages at the
//! tail). The differential test below pins the order against that scan.

use ariadne_mem::{AppId, Chain, FxHashMap, PageId, Slab};
use std::collections::hash_map::Entry;
use std::fmt;

/// Link channel both chains use: a page is on exactly one of them.
const CHANNEL: usize = 0;

struct Node {
    page: PageId,
    parked: bool,
}

/// An LRU list of pages whose victim pick passes over one app's pages.
///
/// ```
/// use ariadne_mem::{AppId, PageId, Pfn};
/// use ariadne_zram::PageLru;
///
/// let page = |app, pfn| PageId::new(AppId::new(app), Pfn::new(pfn));
/// let mut lru = PageLru::default();
/// for pfn in 0..3 {
///     lru.touch(page(1, pfn));
/// }
/// lru.touch(page(2, 0));
/// let mut victims = Vec::new();
/// lru.pick_victims(Some(AppId::new(1)), 1, &mut victims);
/// assert_eq!(victims, vec![page(2, 0)]);
/// // The passed-over foreground pages come back reversed.
/// assert_eq!(lru.lru_order(), vec![page(1, 2), page(1, 1), page(1, 0)]);
/// ```
#[derive(Default)]
pub struct PageLru {
    slab: Slab<Node>,
    index: FxHashMap<PageId, u32>,
    /// The pages not parked, most recently used at the head.
    list: Chain,
    /// The parked run: foreground pages a pick passed over, all of one app,
    /// logically ahead of `list`'s tail.
    run: Chain,
    /// Whether the run reads head→tail from the LRU end; otherwise it reads
    /// tail→head, like `list`.
    flipped: bool,
}

impl PageLru {
    /// Insert `page` at the most recently used end, or move it there.
    pub fn touch(&mut self, page: PageId) {
        match self.index.entry(page) {
            Entry::Occupied(entry) => {
                let slot = *entry.get();
                let node = self.slab.value_at_mut(slot);
                if node.parked {
                    node.parked = false;
                    self.run.unlink(&mut self.slab, CHANNEL, slot);
                    self.list.push_front(&mut self.slab, CHANNEL, slot);
                } else {
                    self.list.move_front(&mut self.slab, CHANNEL, slot);
                }
            }
            Entry::Vacant(entry) => {
                let slot = self
                    .slab
                    .insert(Node {
                        page,
                        parked: false,
                    })
                    .index();
                entry.insert(slot);
                self.list.push_front(&mut self.slab, CHANNEL, slot);
            }
        }
    }

    /// Insert `page` at the least recently used end, or move it there —
    /// ahead of any parked run, which first rejoins the list.
    pub fn insert_lru(&mut self, page: PageId) {
        self.unpark();
        match self.index.entry(page) {
            Entry::Occupied(entry) => self.list.move_back(&mut self.slab, CHANNEL, *entry.get()),
            Entry::Vacant(entry) => {
                let slot = self
                    .slab
                    .insert(Node {
                        page,
                        parked: false,
                    })
                    .index();
                entry.insert(slot);
                self.list.push_back(&mut self.slab, CHANNEL, slot);
            }
        }
    }

    /// Remove `page`. Returns `true` if it was on the list.
    pub fn remove(&mut self, page: &PageId) -> bool {
        let Some(slot) = self.index.remove(page) else {
            return false;
        };
        let chain = if self.slab.value_at(slot).parked {
            &mut self.run
        } else {
            &mut self.list
        };
        chain.unlink(&mut self.slab, CHANNEL, slot);
        self.slab.remove(self.slab.key_at(slot));
        true
    }

    /// Move up to `count` victims off the LRU end into `victims`, in
    /// LRU order. Pages of `foreground` are passed over while any other page
    /// remains, and a pick leaves them at the LRU end in reverse order.
    pub fn pick_victims(
        &mut self,
        foreground: Option<AppId>,
        count: usize,
        victims: &mut Vec<PageId>,
    ) {
        if count == 0 {
            return;
        }
        let run_app = self
            .run
            .head()
            .map(|slot| self.slab.value_at(slot).page.app());
        if run_app.is_some_and(|app| Some(app) != foreground) {
            self.unpark();
        }
        if self.list.is_empty() {
            // Only the run is left: the scan passes over all of it but the
            // last page, which it must take.
            if let Some(slot) = self.run_far_end() {
                self.run.unlink(&mut self.slab, CHANNEL, slot);
                victims.push(self.free(slot));
            }
        } else {
            let mut picked = 0;
            while picked < count {
                let Some(slot) = self.list.tail() else { break };
                self.list.unlink(&mut self.slab, CHANNEL, slot);
                let node = self.slab.value_at_mut(slot);
                if Some(node.page.app()) == foreground && !self.list.is_empty() {
                    // Park it after the run's far end; the flip below
                    // turns it into the run's first page.
                    node.parked = true;
                    if self.flipped {
                        self.run.push_back(&mut self.slab, CHANNEL, slot);
                    } else {
                        self.run.push_front(&mut self.slab, CHANNEL, slot);
                    }
                } else {
                    victims.push(self.free(slot));
                    picked += 1;
                }
            }
        }
        self.flipped = !self.flipped;
    }

    /// Every page, from the least recently used end.
    #[must_use]
    pub fn lru_order(&self) -> Vec<PageId> {
        let run = self.run.indices(&self.slab, CHANNEL);
        let run: Vec<u32> = if self.flipped {
            run.collect()
        } else {
            run.rev().collect()
        };
        run.into_iter()
            .chain(self.list.indices(&self.slab, CHANNEL).rev())
            .map(|slot| self.slab.value_at(slot).page)
            .collect()
    }

    /// The run's page farthest from the LRU end.
    fn run_far_end(&self) -> Option<u32> {
        if self.flipped {
            self.run.tail()
        } else {
            self.run.head()
        }
    }

    /// Re-link the run onto the LRU end of the list in its logical order.
    /// Each page was parked by a pick, which pays for this in advance.
    fn unpark(&mut self) {
        while let Some(slot) = self.run_far_end() {
            self.run.unlink(&mut self.slab, CHANNEL, slot);
            self.slab.value_at_mut(slot).parked = false;
            self.list.push_back(&mut self.slab, CHANNEL, slot);
        }
        self.flipped = false;
    }

    /// Free an unlinked slot and return its page.
    fn free(&mut self, slot: u32) -> PageId {
        let page = self.slab.value_at(slot).page;
        self.index.remove(&page);
        self.slab.remove(self.slab.key_at(slot));
        page
    }
}

impl fmt::Debug for PageLru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lru_order()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::{LruList, Pfn};

    fn page(app: u32, pfn: u64) -> PageId {
        PageId::new(AppId::new(app), Pfn::new(pfn))
    }

    /// The scan `PageLru` replaces: pop each page off the LRU end, keep the
    /// foreground's aside while the list is not empty, then push them back
    /// to the LRU end in pop order.
    fn reference_pick(
        lru: &mut LruList<PageId>,
        foreground: Option<AppId>,
        count: usize,
        victims: &mut Vec<PageId>,
    ) {
        let mut skipped = Vec::new();
        let mut picked = 0;
        while picked < count {
            let Some(page) = lru.pop_lru() else { break };
            if Some(page.app()) == foreground && !lru.is_empty() {
                skipped.push(page);
            } else {
                victims.push(page);
                picked += 1;
            }
        }
        for page in skipped {
            lru.insert_lru(page);
        }
    }

    /// Deterministic splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn foreground_pages_at_the_tail_come_back_reversed() {
        let mut lru = PageLru::default();
        for pfn in 0..3 {
            lru.touch(page(1, pfn));
        }
        lru.touch(page(2, 0));
        lru.touch(page(2, 1));
        let mut victims = Vec::new();
        lru.pick_victims(Some(AppId::new(1)), 1, &mut victims);
        assert_eq!(victims, vec![page(2, 0)]);
        assert_eq!(
            lru.lru_order(),
            vec![page(1, 2), page(1, 1), page(1, 0), page(2, 1)]
        );
        // A second pick reverses the run back.
        victims.clear();
        lru.pick_victims(Some(AppId::new(1)), 1, &mut victims);
        assert_eq!(victims, vec![page(2, 1)]);
        assert_eq!(lru.lru_order(), vec![page(1, 0), page(1, 1), page(1, 2)]);
    }

    #[test]
    fn insert_lru_after_a_pick_lands_ahead_of_the_parked_run() {
        let mut lru = PageLru::default();
        for pfn in 0..2 {
            lru.touch(page(1, pfn));
        }
        lru.touch(page(2, 0));
        lru.touch(page(2, 1));
        let mut victims = Vec::new();
        lru.pick_victims(Some(AppId::new(1)), 1, &mut victims);
        lru.insert_lru(page(3, 0));
        assert_eq!(
            lru.lru_order(),
            vec![page(3, 0), page(1, 1), page(1, 0), page(2, 1)]
        );
    }

    #[test]
    fn the_last_page_is_taken_even_when_it_is_foreground() {
        let fg = Some(AppId::new(1));
        let mut lru = PageLru::default();
        for pfn in 0..3 {
            lru.touch(page(1, pfn));
        }
        let mut victims = Vec::new();
        lru.pick_victims(fg, 2, &mut victims);
        assert_eq!(victims, vec![page(1, 2)]);
        assert_eq!(lru.lru_order(), vec![page(1, 1), page(1, 0)]);
        // With the whole list parked, the page farthest from the LRU end
        // goes, one per pick.
        victims.clear();
        lru.pick_victims(fg, 4, &mut victims);
        assert_eq!(victims, vec![page(1, 0)]);
        victims.clear();
        lru.pick_victims(fg, 1, &mut victims);
        assert_eq!(victims, vec![page(1, 1)]);
        assert!(lru.lru_order().is_empty());
        victims.clear();
        lru.pick_victims(fg, 1, &mut victims);
        assert!(victims.is_empty());
    }

    #[test]
    fn a_zero_count_pick_changes_nothing() {
        let mut lru = PageLru::default();
        lru.touch(page(1, 0));
        lru.touch(page(2, 0));
        let mut victims = Vec::new();
        lru.pick_victims(Some(AppId::new(1)), 1, &mut victims);
        let before = lru.lru_order();
        lru.pick_victims(Some(AppId::new(3)), 0, &mut victims);
        assert_eq!(lru.lru_order(), before);
        assert_eq!(victims, vec![page(2, 0)]);
    }

    #[test]
    fn touch_and_remove_reach_parked_pages() {
        let mut lru = PageLru::default();
        for pfn in 0..3 {
            lru.touch(page(1, pfn));
        }
        lru.touch(page(2, 0));
        lru.touch(page(2, 1));
        let mut victims = Vec::new();
        lru.pick_victims(Some(AppId::new(1)), 1, &mut victims);
        assert!(lru.remove(&page(1, 1)));
        assert!(!lru.remove(&page(1, 1)));
        lru.touch(page(1, 2));
        assert_eq!(lru.lru_order(), vec![page(1, 0), page(2, 1), page(1, 2)]);
    }

    /// Random walks over small page sets, where every operation meets the
    /// parked run often: `PageLru` must pick the same victims as the
    /// pop-and-reinsert scan and leave the same order after every step.
    #[test]
    fn page_lru_matches_the_pop_and_reinsert_scan() {
        let mut rng = Rng(0x0A71_AD4E);
        for walk in 0..3_000 {
            let apps = 1 + rng.below(3) as u32;
            let pfns = 1 + rng.below(12);
            let mut foreground = Some(AppId::new(rng.below(u64::from(apps)) as u32));
            let mut lru = PageLru::default();
            let mut reference = LruList::new();
            let mut victims = Vec::new();
            let mut expected = Vec::new();
            for step in 0..400 {
                let target = page(rng.below(u64::from(apps)) as u32, rng.below(pfns));
                match rng.below(10) {
                    0..=3 => {
                        lru.touch(target);
                        reference.touch(target);
                    }
                    4 => {
                        assert_eq!(lru.remove(&target), reference.remove(&target));
                    }
                    5 => {
                        lru.insert_lru(target);
                        reference.insert_lru(target);
                    }
                    6 => {
                        // Mostly keep the foreground; sometimes change it
                        // or clear it.
                        foreground = match rng.below(3) {
                            0 => None,
                            _ => Some(AppId::new(rng.below(u64::from(apps)) as u32)),
                        };
                    }
                    _ => {
                        let count = rng.below(5) as usize;
                        victims.clear();
                        expected.clear();
                        lru.pick_victims(foreground, count, &mut victims);
                        reference_pick(&mut reference, foreground, count, &mut expected);
                        assert_eq!(victims, expected, "walk {walk} step {step}");
                    }
                }
                assert_eq!(
                    lru.lru_order(),
                    reference.iter_lru().copied().collect::<Vec<_>>(),
                    "walk {walk} step {step}"
                );
            }
        }
    }
}
