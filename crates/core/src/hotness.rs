//! HotnessOrg: low-overhead hotness-aware data organization (§4.2).
//!
//! Every application keeps its anonymous pages on three LRU lists — hot,
//! warm and cold — instead of the kernel's active/inactive pair, and the
//! applications themselves sit on an application-level LRU list. All
//! operations are plain list manipulations (no data is moved), so the
//! overhead over the baseline is a handful of pointer updates per event,
//! which the paper quantifies as negligible.
//!
//! The rules implemented here follow §4.2:
//!
//! * pages touched during a launch or relaunch belong on the hot list;
//! * pages created during execution start cold; if execution touches a cold
//!   page it is promoted to warm (like the kernel's inactive→active move);
//! * when a relaunch starts, the previous hot list is demoted wholesale to
//!   the warm list so the hot list ends up holding exactly the data of the
//!   most recent relaunch;
//! * reclaim victims are chosen cold-first from the least recently used
//!   application; warm data follows, and hot data is touched only as a last
//!   resort (or when the `AL` evaluation mode explicitly allows it).

use ariadne_mem::{AppId, FxHashMap, Hotness, LruList, PageId};

/// Per-application page lists.
#[derive(Debug, Clone, Default)]
struct AppLists {
    hot: LruList<PageId>,
    warm: LruList<PageId>,
    cold: LruList<PageId>,
}

impl AppLists {
    fn list_mut(&mut self, hotness: Hotness) -> &mut LruList<PageId> {
        match hotness {
            Hotness::Hot => &mut self.hot,
            Hotness::Warm => &mut self.warm,
            Hotness::Cold => &mut self.cold,
        }
    }

    fn hotness_of(&self, page: PageId) -> Option<Hotness> {
        if self.hot.contains(&page) {
            Some(Hotness::Hot)
        } else if self.warm.contains(&page) {
            Some(Hotness::Warm)
        } else if self.cold.contains(&page) {
            Some(Hotness::Cold)
        } else {
            None
        }
    }
}

/// The hotness-aware data organization of Ariadne.
///
/// ```
/// use ariadne_core::HotnessOrg;
/// use ariadne_mem::{AppId, Hotness, PageId, Pfn};
///
/// let mut org = HotnessOrg::new();
/// let app = AppId::new(1);
/// let page = PageId::new(app, Pfn::new(0));
/// org.insert(page, Hotness::Cold);
/// assert_eq!(org.hotness_of(page), Some(Hotness::Cold));
/// // Execution touches the page: it becomes warm.
/// org.on_execution_access(page);
/// assert_eq!(org.hotness_of(page), Some(Hotness::Warm));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HotnessOrg {
    apps: FxHashMap<AppId, AppLists>,
    app_lru: LruList<AppId>,
}

impl HotnessOrg {
    /// Create an empty organization.
    #[must_use]
    pub fn new() -> Self {
        HotnessOrg::default()
    }

    /// Insert `page` on the list for `hotness` (most recently used end),
    /// removing it from any other list first.
    pub fn insert(&mut self, page: PageId, hotness: Hotness) {
        let lists = self.apps.entry(page.app()).or_default();
        if let Some(level) = lists.hotness_of(page).filter(|&level| level != hotness) {
            lists.list_mut(level).remove(&page);
        }
        lists.list_mut(hotness).touch(page);
        self.app_lru.touch(page.app());
    }

    /// Remove `page` from whatever list it is on (it is being compressed or
    /// swapped out). Returns the hotness it had.
    pub fn remove(&mut self, page: PageId) -> Option<Hotness> {
        let lists = self.apps.get_mut(&page.app())?;
        let hotness = lists.hotness_of(page)?;
        lists.list_mut(hotness).remove(&page);
        Some(hotness)
    }

    /// The hotness level `page` currently has, if it is tracked.
    #[must_use]
    pub fn hotness_of(&self, page: PageId) -> Option<Hotness> {
        self.apps.get(&page.app())?.hotness_of(page)
    }

    /// A launch or relaunch touched `page`: it belongs on the hot list.
    pub fn on_relaunch_access(&mut self, page: PageId) {
        self.insert(page, Hotness::Hot);
    }

    /// Ordinary execution touched `page`: cold pages are promoted to warm,
    /// warm and hot pages are refreshed in place.
    pub fn on_execution_access(&mut self, page: PageId) {
        let current = self.hotness_of(page);
        match current {
            Some(Hotness::Cold) | None => self.insert(page, Hotness::Warm),
            Some(level) => {
                let lists = self.apps.entry(page.app()).or_default();
                lists.list_mut(level).touch(page);
                self.app_lru.touch(page.app());
            }
        }
    }

    /// A relaunch of `app` is starting: demote the previous hot list to the
    /// warm list so the hot list will hold exactly this relaunch's data.
    /// Returns how many pages were demoted.
    pub fn rotate_hot_list(&mut self, app: AppId) -> usize {
        let Some(lists) = self.apps.get_mut(&app) else {
            return 0;
        };
        let mut demoted = 0usize;
        while let Some(page) = lists.hot.pop_lru() {
            lists.warm.touch(page);
            demoted += 1;
        }
        demoted
    }

    /// The application's process was killed: drop all three of its page
    /// lists and take it off the application-level LRU list. Returns how
    /// many pages were being tracked.
    pub fn release_app(&mut self, app: AppId) -> usize {
        let removed = self
            .apps
            .remove(&app)
            .map_or(0, |l| l.hot.len() + l.warm.len() + l.cold.len());
        self.app_lru.remove(&app);
        removed
    }

    /// The application was used (brought to the foreground).
    pub fn touch_app(&mut self, app: AppId) {
        self.app_lru.touch(app);
    }

    /// Snapshot of `app`'s hot list (most recently used first).
    #[must_use]
    pub fn hot_list(&self, app: AppId) -> Vec<PageId> {
        self.apps
            .get(&app)
            .map(|l| l.hot.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of pages on each list of `app` (hot, warm, cold).
    #[must_use]
    pub fn list_sizes(&self, app: AppId) -> (usize, usize, usize) {
        self.apps
            .get(&app)
            .map(|l| (l.hot.len(), l.warm.len(), l.cold.len()))
            .unwrap_or((0, 0, 0))
    }

    /// Pick up to `count` reclaim victims.
    ///
    /// Victims are taken cold-first: the cold lists of applications in
    /// least-recently-used order, then warm lists, and hot lists only if
    /// `allow_hot` (the `AL` mode, or the last-resort path). The foreground
    /// application is skipped while any other application still has
    /// reclaimable pages at the same level. Each victim is removed from its
    /// list and returned with the hotness it had.
    pub fn pick_victims(
        &mut self,
        count: usize,
        allow_hot: bool,
        foreground: Option<AppId>,
    ) -> Vec<(PageId, Hotness)> {
        let mut victims = Vec::with_capacity(count);
        let levels: &[Hotness] = if allow_hot {
            &[Hotness::Cold, Hotness::Warm, Hotness::Hot]
        } else {
            &[Hotness::Cold, Hotness::Warm]
        };
        // Applications in LRU order (least recently used first), foreground
        // last.
        let mut app_order: Vec<AppId> = self.app_lru.iter_lru().copied().collect();
        if let Some(fg) = foreground {
            app_order.retain(|a| *a != fg);
            app_order.push(fg);
        }

        for &level in levels {
            for &app in &app_order {
                if victims.len() >= count {
                    break;
                }
                if let Some(lists) = self.apps.get_mut(&app) {
                    let list = lists.list_mut(level);
                    while victims.len() < count {
                        match list.pop_lru() {
                            Some(page) => victims.push((page, level)),
                            None => break,
                        }
                    }
                }
            }
            if victims.len() >= count {
                break;
            }
        }
        victims
    }

    /// Total pages tracked across all lists and applications.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        Hotness::ALL.iter().map(|&level| self.pages_at(level)).sum()
    }

    /// Pages currently on the given list level, summed over applications.
    #[must_use]
    pub fn pages_at(&self, hotness: Hotness) -> usize {
        let level = |lists: &AppLists| match hotness {
            Hotness::Hot => lists.hot.len(),
            Hotness::Warm => lists.warm.len(),
            Hotness::Cold => lists.cold.len(),
        };
        self.apps.values().map(level).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::Pfn;

    fn page(app: u32, pfn: u64) -> PageId {
        PageId::new(AppId::new(app), Pfn::new(pfn))
    }

    #[test]
    fn new_execution_pages_start_cold_then_warm_on_reuse() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Cold);
        assert_eq!(org.hotness_of(page(1, 0)), Some(Hotness::Cold));
        org.on_execution_access(page(1, 0));
        assert_eq!(org.hotness_of(page(1, 0)), Some(Hotness::Warm));
        // A second execution access keeps it warm (no further promotion).
        org.on_execution_access(page(1, 0));
        assert_eq!(org.hotness_of(page(1, 0)), Some(Hotness::Warm));
    }

    #[test]
    fn relaunch_accesses_promote_to_hot() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Cold);
        org.on_relaunch_access(page(1, 0));
        assert_eq!(org.hotness_of(page(1, 0)), Some(Hotness::Hot));
        assert_eq!(org.list_sizes(AppId::new(1)), (1, 0, 0));
    }

    #[test]
    fn rotate_hot_list_demotes_everything_to_warm() {
        let mut org = HotnessOrg::new();
        for i in 0..5 {
            org.on_relaunch_access(page(1, i));
        }
        assert_eq!(org.list_sizes(AppId::new(1)), (5, 0, 0));
        let demoted = org.rotate_hot_list(AppId::new(1));
        assert_eq!(demoted, 5);
        assert_eq!(org.list_sizes(AppId::new(1)), (0, 5, 0));
        // Rotating an unknown app is a no-op.
        assert_eq!(org.rotate_hot_list(AppId::new(99)), 0);
    }

    #[test]
    fn victims_are_cold_first_from_the_lru_app() {
        let mut org = HotnessOrg::new();
        // App 1 used first (LRU), app 2 used later (MRU).
        org.insert(page(1, 0), Hotness::Cold);
        org.insert(page(1, 1), Hotness::Warm);
        org.insert(page(2, 0), Hotness::Cold);
        org.insert(page(2, 1), Hotness::Hot);

        let victims = org.pick_victims(2, false, None);
        assert_eq!(victims.len(), 2);
        // Cold data of the least-recently-used app (app 1) goes first, then
        // the cold data of app 2.
        assert_eq!(victims[0], (page(1, 0), Hotness::Cold));
        assert_eq!(victims[1], (page(2, 0), Hotness::Cold));
    }

    #[test]
    fn warm_data_is_taken_only_after_all_cold_data() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Cold);
        org.insert(page(1, 1), Hotness::Warm);
        org.insert(page(1, 2), Hotness::Warm);
        let victims = org.pick_victims(3, false, None);
        assert_eq!(victims[0].1, Hotness::Cold);
        assert_eq!(victims[1].1, Hotness::Warm);
        assert_eq!(victims[2].1, Hotness::Warm);
    }

    #[test]
    fn hot_data_is_protected_unless_allowed() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Hot);
        org.insert(page(1, 1), Hotness::Hot);
        assert!(org.pick_victims(2, false, None).is_empty());
        let victims = org.pick_victims(2, true, None);
        assert_eq!(victims.len(), 2);
        assert!(victims.iter().all(|(_, h)| *h == Hotness::Hot));
    }

    #[test]
    fn foreground_app_is_reclaimed_last() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Cold);
        org.insert(page(2, 0), Hotness::Cold);
        // App 2 is foreground: its cold page must be taken after app 1's even
        // though both are cold.
        org.touch_app(AppId::new(1)); // app 1 becomes MRU
        let victims = org.pick_victims(1, false, Some(AppId::new(2)));
        assert_eq!(victims[0].0, page(1, 0));
    }

    #[test]
    fn remove_reports_the_previous_hotness() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Warm);
        assert_eq!(org.remove(page(1, 0)), Some(Hotness::Warm));
        assert_eq!(org.remove(page(1, 0)), None);
        assert_eq!(org.hotness_of(page(1, 0)), None);
    }

    #[test]
    fn counters_track_totals_and_levels() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Hot);
        org.insert(page(1, 1), Hotness::Warm);
        org.insert(page(2, 0), Hotness::Cold);
        assert_eq!(org.total_pages(), 3);
        assert_eq!(org.pages_at(Hotness::Hot), 1);
        assert_eq!(org.pages_at(Hotness::Warm), 1);
        assert_eq!(org.pages_at(Hotness::Cold), 1);
    }

    #[test]
    fn insert_moves_pages_between_lists_without_duplication() {
        let mut org = HotnessOrg::new();
        org.insert(page(1, 0), Hotness::Cold);
        org.insert(page(1, 0), Hotness::Hot);
        assert_eq!(org.total_pages(), 1);
        assert_eq!(org.hotness_of(page(1, 0)), Some(Hotness::Hot));
    }

    #[test]
    fn hot_list_snapshot_is_mru_ordered() {
        let mut org = HotnessOrg::new();
        for i in 0..3 {
            org.on_relaunch_access(page(1, i));
        }
        org.on_relaunch_access(page(1, 0));
        let hot = org.hot_list(AppId::new(1));
        assert_eq!(hot[0], page(1, 0));
        assert_eq!(hot.len(), 3);
    }
}
