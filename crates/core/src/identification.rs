//! Coverage and accuracy of hot-data identification (Figure 14).
//!
//! The paper scores HotnessOrg's prediction quality with two metrics:
//!
//! * **Coverage** — the fraction of the data actually used during a relaunch
//!   that Ariadne had identified as hot beforehand (i.e. was on the hot
//!   list when the relaunch started). Missed pages were compressed with
//!   larger chunks and pay extra decompression latency.
//! * **Accuracy** — the fraction of the data on the hot list that really is
//!   used again, either during the relaunch or during the execution that
//!   follows (until the next relaunch). Inaccurate entries waste the DRAM
//!   that keeping them uncompressed costs.
//!
//! [`IdentificationTracker`] snapshots the hot list when a relaunch starts,
//! records which pages get used afterwards, and emits one
//! [`IdentificationMetrics`] sample per completed prediction window.

use ariadne_mem::{AppId, FxHashMap, FxHashSet, PageId};
use serde::{Deserialize, Serialize};

/// Coverage and accuracy of one prediction window (one relaunch-to-relaunch
/// interval of one application).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdentificationMetrics {
    /// Fraction of relaunch-used pages that had been predicted hot.
    pub coverage: f64,
    /// Fraction of predicted-hot pages that were used before the next
    /// relaunch.
    pub accuracy: f64,
    /// Number of pages in the prediction (hot list size at relaunch start).
    pub predicted_pages: usize,
    /// Number of pages actually touched by the relaunch.
    pub relaunch_pages: usize,
}

#[derive(Debug, Clone, Default)]
struct Window {
    predicted: FxHashSet<PageId>,
    relaunch_used: FxHashSet<PageId>,
    used_since: FxHashSet<PageId>,
    relaunch_done: bool,
}

/// Tracks prediction windows per application.
#[derive(Debug, Clone, Default)]
pub struct IdentificationTracker {
    windows: FxHashMap<AppId, Window>,
    completed: Vec<(AppId, IdentificationMetrics)>,
}

impl IdentificationTracker {
    /// Create an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        IdentificationTracker::default()
    }

    /// A relaunch of `app` is starting and `predicted_hot` is the hot list at
    /// this moment. Closes the previous window for the app (if any) and
    /// opens a new one.
    pub fn on_relaunch_start(&mut self, app: AppId, predicted_hot: Vec<PageId>) {
        if let Some(window) = self.windows.remove(&app) {
            if window.relaunch_done {
                self.completed.push((app, Self::score(&window)));
            }
        }
        self.windows.insert(
            app,
            Window {
                predicted: predicted_hot.into_iter().collect(),
                ..Window::default()
            },
        );
    }

    /// A page of `app` was accessed during its relaunch.
    pub fn on_relaunch_access(&mut self, app: AppId, page: PageId) {
        if let Some(window) = self.windows.get_mut(&app) {
            window.relaunch_used.insert(page);
            window.used_since.insert(page);
        }
    }

    /// The relaunch of `app` finished (subsequent accesses count toward
    /// accuracy but not coverage).
    pub fn on_relaunch_end(&mut self, app: AppId) {
        if let Some(window) = self.windows.get_mut(&app) {
            window.relaunch_done = true;
        }
    }

    /// A page of `app` was accessed during ordinary execution.
    pub fn on_execution_access(&mut self, app: AppId, page: PageId) {
        if let Some(window) = self.windows.get_mut(&app) {
            window.used_since.insert(page);
        }
    }

    /// Close every finished window (in ascending app-id order) and return
    /// all completed samples.
    #[must_use]
    pub fn finish(mut self) -> Vec<(AppId, IdentificationMetrics)> {
        self.close_finished();
        self.completed
    }

    /// Samples completed so far (windows closed by a subsequent relaunch).
    #[must_use]
    pub fn completed(&self) -> &[(AppId, IdentificationMetrics)] {
        &self.completed
    }

    /// Drop the open prediction window of `app` without recording a sample
    /// (the process was killed mid-window; an interrupted relaunch is not a
    /// fair identification sample).
    pub fn discard(&mut self, app: AppId) {
        self.windows.remove(&app);
    }

    /// Score every window whose relaunch already finished and move it to the
    /// completed list, in ascending app-id order, without waiting for the next
    /// relaunch. Used at the end of an experiment so the final prediction
    /// window is not lost.
    pub fn close_finished(&mut self) {
        let mut finished: Vec<AppId> = self
            .windows
            .iter()
            .filter(|(_, w)| w.relaunch_done)
            .map(|(app, _)| *app)
            .collect();
        finished.sort_unstable();
        for app in finished {
            if let Some(window) = self.windows.remove(&app) {
                self.completed.push((app, Self::score(&window)));
            }
        }
    }

    fn score(window: &Window) -> IdentificationMetrics {
        let coverage = if window.relaunch_used.is_empty() {
            1.0
        } else {
            window
                .relaunch_used
                .iter()
                .filter(|p| window.predicted.contains(p))
                .count() as f64
                / window.relaunch_used.len() as f64
        };
        let accuracy = if window.predicted.is_empty() {
            1.0
        } else {
            window
                .predicted
                .iter()
                .filter(|p| window.used_since.contains(p))
                .count() as f64
                / window.predicted.len() as f64
        };
        IdentificationMetrics {
            coverage,
            accuracy,
            predicted_pages: window.predicted.len(),
            relaunch_pages: window.relaunch_used.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_mem::Pfn;

    fn page(pfn: u64) -> PageId {
        PageId::new(AppId::new(1), Pfn::new(pfn))
    }
    const APP: AppId = AppId::new(1);

    #[test]
    fn perfect_prediction_scores_one() {
        let mut tracker = IdentificationTracker::new();
        tracker.on_relaunch_start(APP, vec![page(0), page(1)]);
        tracker.on_relaunch_access(APP, page(0));
        tracker.on_relaunch_access(APP, page(1));
        tracker.on_relaunch_end(APP);
        let samples = tracker.finish();
        assert_eq!(samples.len(), 1);
        let metrics = samples[0].1;
        assert!((metrics.coverage - 1.0).abs() < 1e-12);
        assert!((metrics.accuracy - 1.0).abs() < 1e-12);
        assert_eq!(metrics.predicted_pages, 2);
        assert_eq!(metrics.relaunch_pages, 2);
    }

    #[test]
    fn coverage_penalises_missed_relaunch_pages() {
        let mut tracker = IdentificationTracker::new();
        tracker.on_relaunch_start(APP, vec![page(0)]);
        tracker.on_relaunch_access(APP, page(0));
        tracker.on_relaunch_access(APP, page(5)); // not predicted
        tracker.on_relaunch_end(APP);
        let metrics = tracker.finish()[0].1;
        assert!((metrics.coverage - 0.5).abs() < 1e-12);
        assert!((metrics.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_penalises_unused_hot_pages_but_counts_execution_reuse() {
        let mut tracker = IdentificationTracker::new();
        tracker.on_relaunch_start(APP, vec![page(0), page(1), page(2), page(3)]);
        tracker.on_relaunch_access(APP, page(0));
        tracker.on_relaunch_end(APP);
        // Page 1 is used later during execution: still accurate.
        tracker.on_execution_access(APP, page(1));
        let metrics = tracker.finish()[0].1;
        assert!((metrics.accuracy - 0.5).abs() < 1e-12);
        assert!((metrics.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_close_when_the_next_relaunch_starts() {
        let mut tracker = IdentificationTracker::new();
        tracker.on_relaunch_start(APP, vec![page(0)]);
        tracker.on_relaunch_access(APP, page(0));
        tracker.on_relaunch_end(APP);
        tracker.on_relaunch_start(APP, vec![page(0)]);
        assert_eq!(tracker.completed().len(), 1);
        // The still-open second window is discarded only if its relaunch never
        // finished.
        let samples = tracker.finish();
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn unfinished_relaunches_are_not_scored() {
        let mut tracker = IdentificationTracker::new();
        tracker.on_relaunch_start(APP, vec![page(0)]);
        tracker.on_relaunch_access(APP, page(0));
        // No on_relaunch_end.
        assert!(tracker.finish().is_empty());
    }

    #[test]
    fn finished_windows_close_in_app_id_order() {
        let apps = [7u32, 2, 11, 5, 3, 13, 1, 8, 6];
        let mut tracker = IdentificationTracker::new();
        for &id in &apps {
            let app = AppId::new(id);
            tracker.on_relaunch_start(app, vec![PageId::new(app, Pfn::new(0))]);
            tracker.on_relaunch_end(app);
        }
        let mut sorted: Vec<AppId> = apps.iter().map(|&id| AppId::new(id)).collect();
        sorted.sort_unstable();
        let mut closed = tracker.clone();
        closed.close_finished();
        let order = |samples: &[(AppId, IdentificationMetrics)]| {
            samples.iter().map(|(app, _)| *app).collect::<Vec<_>>()
        };
        assert_eq!(order(closed.completed()), sorted);
        assert_eq!(order(&tracker.finish()), sorted);
    }

    #[test]
    fn events_for_untracked_apps_are_ignored() {
        let mut tracker = IdentificationTracker::new();
        tracker.on_relaunch_access(AppId::new(9), page(0));
        tracker.on_execution_access(AppId::new(9), page(0));
        tracker.on_relaunch_end(AppId::new(9));
        assert!(tracker.finish().is_empty());
    }
}
