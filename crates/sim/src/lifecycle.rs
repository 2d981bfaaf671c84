//! Process lifecycle: PSI-style pressure tracking and the lmkd model.
//!
//! On a real Android device the alternative to swapping is *killing*: when
//! compressed swap cannot absorb memory pressure, the low-memory killer
//! (lmkd) terminates cached background applications and the user pays a
//! full cold launch on the next tap instead of a warm relaunch. Without a
//! kill model every scheme silently gets credit for keeping every app
//! resident forever; with one, the end-to-end win of a better swap scheme
//! becomes visible — more apps alive in the zpool and on flash, fewer cold
//! launches, lower effective relaunch latency.
//!
//! Three pieces live here:
//!
//! * [`PsiTracker`] — an exponentially-smoothed memory-stall signal in the
//!   spirit of Linux PSI's "some" metric: the fraction of wall time the
//!   workload spent stalled on memory (page faults on compressed/swapped
//!   data, on-demand (de)compression, flash I/O stalls). Fixed-point
//!   integer arithmetic keeps the signal byte-deterministic.
//! * [`ProcessTable`] — the per-app state machine
//!   (`Alive → Killed → cold launch → Alive`) plus Android-style
//!   `oom_score_adj` ranking: the foreground app scores 0 and is never
//!   killed; cached background apps score 900–999, least recently
//!   foregrounded highest.
//! * [`Lmkd`] — the killer itself: it samples the PSI signal at `LmkdWake`
//!   events, and when the smoothed pressure crosses
//!   [`LMKD_KILL_THRESHOLD_PPM`] (and [`LMKD_MIN_KILL_INTERVAL_NANOS`] have
//!   passed since the last kill) it asks for the highest-scoring victim.
//!
//! The driver in [`crate::MobileSystem`] wires these to the event queue
//! (`LmkdWake`, event class 4) and executes kill decisions through
//! [`SwapScheme::release_app`](ariadne_zram::SwapScheme::release_app).

use ariadne_compress::CostNanos;
use ariadne_mem::LruList;
use ariadne_trace::AppName;
use std::collections::HashMap;

/// Fixed-point scale of PSI averages: parts per million of wall time.
pub const PSI_SCALE: u64 = 1_000_000;

/// The `oom_score_adj` of the foreground application (never killed).
pub const FOREGROUND_ADJ: i32 = 0;

/// The base `oom_score_adj` of cached background applications; the
/// least-recently-foregrounded app gets the highest score up to 999.
pub const CACHED_APP_MIN_ADJ: i32 = 900;

/// Exponentially-smoothed memory-stall tracker (PSI "some", fixed-point).
///
/// Feed it monotonically increasing cumulative stall time along with the
/// current simulated instant; it converts each window into an instantaneous
/// stall fraction and folds it into a single-pole IIR average with time
/// constant `tau`:
///
/// ```text
/// avg ← (avg · τ + instantaneous · window) / (τ + window)
/// ```
///
/// All arithmetic is integer (parts per million), so two replays of the
/// same event stream produce bit-identical averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsiTracker {
    tau_nanos: u64,
    last_sample_at: u128,
    last_stall: CostNanos,
    avg_ppm: u64,
}

impl PsiTracker {
    /// Create a tracker with smoothing time constant `tau_nanos`.
    #[must_use]
    pub fn new(tau_nanos: u64) -> Self {
        PsiTracker {
            tau_nanos: tau_nanos.max(1),
            last_sample_at: 0,
            last_stall: CostNanos::zero(),
            avg_ppm: 0,
        }
    }

    /// The current smoothed stall fraction, in parts per million.
    #[must_use]
    pub fn avg_ppm(&self) -> u64 {
        self.avg_ppm
    }

    /// Fold the window since the previous sample into the average.
    /// `stall_total` is the *cumulative* memory-stall time observed so far;
    /// a sample at (or before) the previous instant leaves the average
    /// untouched (the pending stall delta is picked up by the next real
    /// window). Returns the updated average in parts per million.
    pub fn sample(&mut self, now_nanos: u128, stall_total: CostNanos) -> u64 {
        if now_nanos <= self.last_sample_at {
            return self.avg_ppm;
        }
        let window = now_nanos - self.last_sample_at;
        let delta = stall_total
            .as_nanos()
            .saturating_sub(self.last_stall.as_nanos());
        let instantaneous = (delta.min(window) * u128::from(PSI_SCALE) / window) as u64;
        let tau = u128::from(self.tau_nanos);
        self.avg_ppm = ((u128::from(self.avg_ppm) * tau + u128::from(instantaneous) * window)
            / (tau + window)) as u64;
        self.last_sample_at = now_nanos;
        self.last_stall = stall_total;
        self.avg_ppm
    }
}

/// Execution state of one application in the lifecycle machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppState {
    /// The process exists; a relaunch is warm.
    Alive,
    /// The process was killed (by lmkd); the next relaunch is re-costed as
    /// a full cold launch, after which the app is `Alive` again.
    Killed,
}

/// Per-application process state plus the cached-app recency order that
/// `oom_score_adj` ranking derives from.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    states: HashMap<AppName, AppState>,
    foreground: Option<AppName>,
    /// Cached (background, alive) apps, least recently foregrounded first.
    cached: LruList<AppName>,
}

impl ProcessTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        ProcessTable::default()
    }

    /// The app moved to (or started in) the foreground; it is `Alive`.
    pub fn on_foreground(&mut self, app: AppName) {
        self.states.insert(app, AppState::Alive);
        self.cached.remove(&app);
        if let Some(previous) = self.foreground.take() {
            if previous != app && self.state(previous) == Some(AppState::Alive) {
                self.cached.touch(previous);
            }
        }
        self.foreground = Some(app);
    }

    /// The app moved to the background (it becomes a cached kill candidate).
    pub fn on_background(&mut self, app: AppName) {
        if self.foreground == Some(app) {
            self.foreground = None;
        }
        if self.state(app) == Some(AppState::Alive) {
            self.cached.touch(app);
        }
    }

    /// The app's process was killed.
    pub fn on_kill(&mut self, app: AppName) {
        self.states.insert(app, AppState::Killed);
        self.cached.remove(&app);
        if self.foreground == Some(app) {
            self.foreground = None;
        }
    }

    /// The state of `app`, if it ever ran.
    #[must_use]
    pub fn state(&self, app: AppName) -> Option<AppState> {
        self.states.get(&app).copied()
    }

    /// Whether `app` is currently killed (its next relaunch is cold).
    #[must_use]
    pub fn is_killed(&self, app: AppName) -> bool {
        self.state(app) == Some(AppState::Killed)
    }

    /// The current foreground application.
    #[must_use]
    pub fn foreground(&self) -> Option<AppName> {
        self.foreground
    }

    /// Number of applications currently alive.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.states
            .values()
            .filter(|s| **s == AppState::Alive)
            .count()
    }

    /// Android-style `oom_score_adj` per app: the foreground app scores
    /// [`FOREGROUND_ADJ`], cached apps score [`CACHED_APP_MIN_ADJ`]-and-up
    /// with the least recently foregrounded app highest (capped at 999).
    /// Killed apps have no process and are absent.
    #[must_use]
    pub fn oom_scores(&self) -> Vec<(AppName, i32)> {
        let mut scores = Vec::new();
        if let Some(fg) = self.foreground {
            scores.push((fg, FOREGROUND_ADJ));
        }
        let cached: Vec<AppName> = self.cached.iter_lru().copied().collect();
        let count = cached.len() as i32;
        for (rank, app) in cached.into_iter().enumerate() {
            // Oldest (rank 0) highest: 900 + (count - 1), ..., 900.
            let adj = (CACHED_APP_MIN_ADJ + count - 1 - rank as i32).min(999);
            scores.push((app, adj));
        }
        scores
    }

    /// The next kill victim: the cached app with the highest
    /// `oom_score_adj` (the least recently foregrounded background app).
    /// The foreground app is never a candidate.
    #[must_use]
    pub fn kill_candidate(&self) -> Option<AppName> {
        self.cached.peek_lru().copied()
    }
}

/// Smoothing time constant of lmkd's PSI tracker, in simulated nanoseconds.
pub const LMKD_TAU_NANOS: u64 = 100_000_000;

/// Smoothed stall fraction (parts per million of wall time) above which
/// lmkd issues a kill.
pub const LMKD_KILL_THRESHOLD_PPM: u64 = 60_000;

/// Minimum simulated time between two kills (lmkd's back-off: kill one
/// process, then wait and re-evaluate before killing the next).
pub const LMKD_MIN_KILL_INTERVAL_NANOS: u64 = 150_000_000;

/// The low-memory killer: PSI sampling plus the kill decision.
///
/// Its `LMKD_*` thresholds are calibrated against the kill-storm scenario: a
/// scheme that keeps relaunch stalls below ~6 % of wall time (smoothed over
/// 100 ms) rides out the storm; schemes that stall more get their cached
/// apps killed, at most one kill per 150 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lmkd {
    psi: PsiTracker,
    last_kill_at: Option<u128>,
}

impl Default for Lmkd {
    fn default() -> Self {
        Lmkd::new()
    }
}

impl Lmkd {
    /// Create a killer with no pressure sampled and no kill yet.
    #[must_use]
    pub fn new() -> Self {
        Lmkd {
            psi: PsiTracker::new(LMKD_TAU_NANOS),
            last_kill_at: None,
        }
    }

    /// The smoothed PSI signal, in parts per million.
    #[must_use]
    pub fn psi_ppm(&self) -> u64 {
        self.psi.avg_ppm()
    }

    /// Sample the PSI signal at `now_nanos` and decide whether a kill is
    /// warranted: the smoothed pressure is above the threshold and the
    /// back-off interval since the previous kill has elapsed. The caller
    /// picks the victim (via [`ProcessTable::kill_candidate`]) and reports
    /// the kill back through [`Lmkd::note_kill`].
    pub fn should_kill(&mut self, now_nanos: u128, stall_total: CostNanos) -> bool {
        let avg = self.psi.sample(now_nanos, stall_total);
        if avg < LMKD_KILL_THRESHOLD_PPM {
            return false;
        }
        match self.last_kill_at {
            Some(at) => now_nanos.saturating_sub(at) >= u128::from(LMKD_MIN_KILL_INTERVAL_NANOS),
            None => true,
        }
    }

    /// A victim was killed at `now_nanos` (starts the back-off interval).
    pub fn note_kill(&mut self, now_nanos: u128) {
        self.last_kill_at = Some(now_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_reacts_to_stall_and_decays_without_it() {
        let mut psi = PsiTracker::new(100_000_000);
        // 100 ms window, fully stalled: average rises to 50 % (window == τ).
        let avg = psi.sample(100_000_000, CostNanos(100_000_000));
        assert_eq!(avg, PSI_SCALE / 2);
        // Another 100 ms with no further stall: decays to 25 %.
        let avg = psi.sample(200_000_000, CostNanos(100_000_000));
        assert_eq!(avg, PSI_SCALE / 4);
    }

    #[test]
    fn psi_ignores_zero_length_windows_without_losing_stall() {
        let mut psi = PsiTracker::new(100_000_000);
        psi.sample(50_000_000, CostNanos::zero());
        // Same-instant sample: no change, and the stall delta is not lost.
        let before = psi.sample(50_000_000, CostNanos(25_000_000));
        assert_eq!(before, 0);
        // The next real window sees the full 25 ms of stall.
        let after = psi.sample(100_000_000, CostNanos(25_000_000));
        assert!(after > 0);
    }

    #[test]
    fn psi_caps_instantaneous_pressure_at_one() {
        let mut psi = PsiTracker::new(1);
        // 10 ns window but 1 ms of stall (latency outran the event spacing).
        let avg = psi.sample(10, CostNanos(1_000_000));
        assert!(avg <= PSI_SCALE);
    }

    #[test]
    fn process_table_tracks_foreground_and_cached_order() {
        let mut procs = ProcessTable::new();
        procs.on_foreground(AppName::Twitter);
        procs.on_foreground(AppName::Youtube); // Twitter becomes cached
        procs.on_background(AppName::Youtube);
        assert_eq!(procs.foreground(), None);
        assert_eq!(procs.alive_count(), 2);
        // Twitter left the foreground first, so it is the colder candidate.
        assert_eq!(procs.kill_candidate(), Some(AppName::Twitter));

        let scores = procs.oom_scores();
        let twitter = scores.iter().find(|(a, _)| *a == AppName::Twitter).unwrap();
        let youtube = scores.iter().find(|(a, _)| *a == AppName::Youtube).unwrap();
        assert!(twitter.1 > youtube.1, "older cached app scores higher");
        assert!(twitter.1 >= CACHED_APP_MIN_ADJ);
    }

    #[test]
    fn foreground_apps_are_never_kill_candidates() {
        let mut procs = ProcessTable::new();
        procs.on_foreground(AppName::Twitter);
        assert_eq!(procs.kill_candidate(), None);
        let scores = procs.oom_scores();
        assert_eq!(scores, vec![(AppName::Twitter, FOREGROUND_ADJ)]);
    }

    #[test]
    fn killed_apps_leave_the_candidate_list_until_relaunched() {
        let mut procs = ProcessTable::new();
        procs.on_foreground(AppName::Twitter);
        procs.on_background(AppName::Twitter);
        procs.on_kill(AppName::Twitter);
        assert!(procs.is_killed(AppName::Twitter));
        assert_eq!(procs.kill_candidate(), None);
        assert_eq!(procs.alive_count(), 0);
        // The cold launch brings it back alive.
        procs.on_foreground(AppName::Twitter);
        assert!(!procs.is_killed(AppName::Twitter));
        assert_eq!(procs.state(AppName::Twitter), Some(AppState::Alive));
    }

    #[test]
    fn lmkd_kills_above_threshold_with_back_off() {
        let mut lmkd = Lmkd::new();
        // Fully stalled window: pressure 50 % > 6 % threshold.
        assert!(lmkd.should_kill(100_000_000, CostNanos(100_000_000)));
        lmkd.note_kill(100_000_000);
        // Still above threshold but inside the 150 ms back-off interval.
        assert!(!lmkd.should_kill(120_000_000, CostNanos(120_000_000)));
        assert!(!lmkd.should_kill(240_000_000, CostNanos(240_000_000)));
        // After the back-off it may kill again.
        assert!(lmkd.should_kill(250_000_000, CostNanos(250_000_000)));
    }

    #[test]
    fn lmkd_stays_quiet_below_threshold() {
        let mut lmkd = Lmkd::new();
        for i in 1..=10u128 {
            assert!(!lmkd.should_kill(i * 100_000_000, CostNanos(1_000_000)));
        }
        assert!(lmkd.psi_ppm() < LMKD_KILL_THRESHOLD_PPM);
    }
}
