//! Workload generation: concrete pages, hotness ground truth, relaunch
//! traces and multi-application scenarios.
//!
//! [`WorkloadBuilder`] turns an [`AppProfile`] into an [`AppWorkload`]:
//!
//! * a set of anonymous pages with ground-truth hotness labels (hot pages are
//!   laid out in address-contiguous runs, which is what later produces the
//!   zpool-sector locality of Table 3 once they are compressed in batches);
//! * a sequence of relaunch traces whose hot sets overlap by the profile's
//!   `hot_similarity` and whose dropped pages are re-used as warm data with
//!   probability `reuse_fraction` (Figure 5);
//! * post-relaunch execution accesses over the warm set.
//!
//! [`Scenario`] strings several applications together into the usage patterns
//! the paper evaluates: the 10-application relaunch study and the light /
//! heavy switching workloads of Table 2.

use crate::locality::RunLengthSampler;
use crate::profiles::{AppMask, AppName, AppProfile};
use ariadne_mem::{AppId, Hotness, PageId, Pfn, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One anonymous page of an application, with its ground-truth hotness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageSpec {
    /// The page.
    pub page: PageId,
    /// Ground-truth hotness (what an oracle profiler would label the page).
    pub hotness: Hotness,
}

/// The access trace of one application relaunch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelaunchTrace {
    /// Pages accessed during the relaunch itself (the hot set of this
    /// relaunch), in access order.
    pub hot_accesses: Vec<PageId>,
    /// Pages accessed during execution shortly after the relaunch (drawn
    /// from the warm set), in access order.
    pub execution_accesses: Vec<PageId>,
}

impl RelaunchTrace {
    /// The hot set of this relaunch as a set.
    #[must_use]
    pub fn hot_set(&self) -> HashSet<PageId> {
        self.hot_accesses.iter().copied().collect()
    }

    /// The warm set (execution accesses) of this relaunch as a set.
    #[must_use]
    pub fn warm_set(&self) -> HashSet<PageId> {
        self.execution_accesses.iter().copied().collect()
    }
}

/// A complete synthetic workload for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppWorkload {
    /// Which application.
    pub name: AppName,
    /// The application id used in page identifiers.
    pub app: AppId,
    /// The profile the workload was generated from.
    pub profile: AppProfile,
    /// Every anonymous page of the application.
    pub pages: Vec<PageSpec>,
    /// One trace per relaunch.
    pub relaunches: Vec<RelaunchTrace>,
}

impl AppWorkload {
    /// Number of anonymous pages.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total anonymous bytes.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Pages with the given ground-truth hotness.
    pub fn pages_with(&self, hotness: Hotness) -> impl Iterator<Item = PageId> + '_ {
        self.pages
            .iter()
            .filter(move |p| p.hotness == hotness)
            .map(|p| p.page)
    }

    /// Ground-truth hotness of `page`, if it belongs to this workload.
    #[must_use]
    pub fn hotness_of(&self, page: PageId) -> Option<Hotness> {
        self.pages
            .iter()
            .find(|p| p.page == page)
            .map(|p| p.hotness)
    }

    /// Hot-data similarity between relaunch `i` and relaunch `i + 1`
    /// (the Figure 5 metric): |hot_i ∩ hot_{i+1}| / |hot_{i+1}|.
    #[must_use]
    pub fn hot_similarity_between(&self, i: usize) -> Option<f64> {
        let a = self.relaunches.get(i)?.hot_set();
        let b = self.relaunches.get(i + 1)?.hot_set();
        if b.is_empty() {
            return Some(0.0);
        }
        let shared = b.iter().filter(|p| a.contains(p)).count();
        Some(shared as f64 / b.len() as f64)
    }

    /// Reused-data fraction between relaunch `i` and `i + 1` (Figure 5):
    /// the fraction of relaunch `i`'s hot data present in relaunch
    /// `i + 1`'s hot or warm sets.
    #[must_use]
    pub fn reuse_between(&self, i: usize) -> Option<f64> {
        let a = self.relaunches.get(i)?.hot_set();
        let next = self.relaunches.get(i + 1)?;
        if a.is_empty() {
            return Some(0.0);
        }
        let union: HashSet<PageId> = next.hot_set().union(&next.warm_set()).copied().collect();
        let reused = a.iter().filter(|p| union.contains(p)).count();
        Some(reused as f64 / a.len() as f64)
    }
}

/// Builds [`AppWorkload`]s from [`AppProfile`]s.
///
/// ```
/// use ariadne_trace::{AppName, WorkloadBuilder};
///
/// let workload = WorkloadBuilder::new(42).scale(256).build(AppName::Twitter);
/// assert!(workload.total_pages() > 0);
/// assert_eq!(workload.relaunches.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadBuilder {
    seed: u64,
    scale_denominator: usize,
    relaunch_count: usize,
    use_steady_state_volume: bool,
    incompressible: AppMask,
}

impl WorkloadBuilder {
    /// Create a builder with the given deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WorkloadBuilder {
            seed,
            scale_denominator: 64,
            relaunch_count: 5,
            use_steady_state_volume: true,
            incompressible: AppMask::none(),
        }
    }

    /// Scale the paper's data volumes down by `denominator` (default 64).
    ///
    /// The paper's applications hold hundreds of megabytes of anonymous data;
    /// scaling keeps simulations fast while preserving every ratio the
    /// policies depend on. A denominator of 1 reproduces full volumes.
    #[must_use]
    pub fn scale(mut self, denominator: usize) -> Self {
        self.scale_denominator = denominator.max(1);
        self
    }

    /// Number of relaunch traces to generate (the paper relaunches each app
    /// five times).
    #[must_use]
    pub fn relaunches(mut self, count: usize) -> Self {
        self.relaunch_count = count.max(1);
        self
    }

    /// Use the 10-second data volume instead of the 5-minute steady state.
    #[must_use]
    pub fn early_volume(mut self) -> Self {
        self.use_steady_state_volume = false;
        self
    }

    /// The configured scale denominator.
    #[must_use]
    pub fn scale_denominator(&self) -> usize {
        self.scale_denominator
    }

    /// Give the applications in `mask` adversarially incompressible page
    /// data (see [`AppProfile::incompressible`]). The empty mask — the
    /// default — leaves every workload byte-identical to before this knob
    /// existed. Page identities, hotness labels and relaunch traces are
    /// unaffected either way: the same RNG stream drives them, so only the
    /// synthesised page *bytes* change.
    #[must_use]
    pub fn incompressible(mut self, mask: AppMask) -> Self {
        self.incompressible = mask;
        self
    }

    /// The configured incompressible-app mask.
    #[must_use]
    pub fn incompressible_apps(&self) -> AppMask {
        self.incompressible
    }

    /// Build the workload for one application.
    #[must_use]
    pub fn build(&self, app: AppName) -> AppWorkload {
        let profile = if self.incompressible.contains(app) {
            AppProfile::incompressible(app)
        } else {
            app.profile()
        };
        let app_id = AppId::new(app.uid());
        let mut rng = StdRng::seed_from_u64(self.seed ^ u64::from(app.uid()) << 16);

        let volume = if self.use_steady_state_volume {
            profile.anon_bytes_5min()
        } else {
            profile.anon_bytes_10s()
        };
        let total_pages = (volume / self.scale_denominator / PAGE_SIZE).max(64);

        let pages = self.assign_hotness(&profile, app_id, total_pages, &mut rng);
        let relaunches = self.generate_relaunches(&profile, &pages, &mut rng);

        AppWorkload {
            name: app,
            app: app_id,
            profile,
            pages,
            relaunches,
        }
    }

    /// Build workloads for every evaluated application.
    #[must_use]
    pub fn build_all(&self) -> Vec<AppWorkload> {
        AppName::ALL.iter().map(|&a| self.build(a)).collect()
    }

    /// Lay pages out in address-contiguous hotness runs. Contiguity matters:
    /// pages of the same hotness are compressed in batches, giving them
    /// adjacent zpool sectors, which is the physical origin of the swap-in
    /// locality of Table 3.
    fn assign_hotness(
        &self,
        profile: &AppProfile,
        app: AppId,
        total_pages: usize,
        rng: &mut StdRng,
    ) -> Vec<PageSpec> {
        // Stratified assignment: build run labels with exactly the profile's
        // hot/warm/cold proportions, then shuffle the runs. This keeps the
        // fractions faithful even for small scaled-down workloads while still
        // producing address-contiguous runs of equal hotness.
        let run_length = 16usize;
        let runs = total_pages.div_ceil(run_length);
        let hot_runs = ((runs as f64) * profile.hot_fraction).round() as usize;
        let warm_runs = ((runs as f64) * profile.warm_fraction).round() as usize;
        let cold_runs = runs.saturating_sub(hot_runs + warm_runs);
        let mut labels = Vec::with_capacity(runs);
        labels.extend(std::iter::repeat(Hotness::Hot).take(hot_runs));
        labels.extend(std::iter::repeat(Hotness::Warm).take(warm_runs));
        labels.extend(std::iter::repeat(Hotness::Cold).take(cold_runs));
        while labels.len() < runs {
            labels.push(Hotness::Cold);
        }
        labels.shuffle(rng);

        let mut pages = Vec::with_capacity(total_pages);
        let mut pfn = 0u64;
        for hotness in labels {
            let run = run_length.min(total_pages - pages.len());
            for _ in 0..run {
                pages.push(PageSpec {
                    page: PageId::new(app, Pfn::new(pfn)),
                    hotness,
                });
                pfn += 1;
            }
            if pages.len() >= total_pages {
                break;
            }
        }
        pages
    }

    fn generate_relaunches(
        &self,
        profile: &AppProfile,
        pages: &[PageSpec],
        rng: &mut StdRng,
    ) -> Vec<RelaunchTrace> {
        let hot_pages: Vec<PageId> = pages
            .iter()
            .filter(|p| p.hotness == Hotness::Hot)
            .map(|p| p.page)
            .collect();
        let warm_pages: Vec<PageId> = pages
            .iter()
            .filter(|p| p.hotness == Hotness::Warm)
            .map(|p| p.page)
            .collect();

        let sampler = RunLengthSampler::from_probabilities(profile.locality_2, profile.locality_4);
        let mut relaunches: Vec<RelaunchTrace> = Vec::with_capacity(self.relaunch_count);
        let mut current_hot: Vec<PageId> = hot_pages.clone();
        // Hot pages that fell out of the previous relaunch's hot set but are
        // still re-used as warm data (the behaviour behind Figure 5's ~98 %
        // "Reused Data").
        let mut demoted_to_warm: Vec<PageId> = Vec::new();

        for _ in 0..self.relaunch_count {
            let hot_accesses = Self::order_with_locality(&current_hot, &sampler, rng);

            // Execution accesses: a random sample of roughly half the warm
            // set, plus the pages demoted from the previous hot set.
            let mut exec: Vec<PageId> = warm_pages
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .copied()
                .collect();
            exec.extend(demoted_to_warm.iter().copied());
            exec.shuffle(rng);

            relaunches.push(RelaunchTrace {
                hot_accesses: hot_accesses.clone(),
                execution_accesses: exec,
            });

            // Evolve the hot set for the next relaunch: keep `hot_similarity`
            // of it, replace the rest with warm pages. Of the dropped pages,
            // enough stay warm that the overall reuse fraction matches the
            // profile; the remainder effectively go cold.
            let keep = ((current_hot.len() as f64) * profile.hot_similarity).round() as usize;
            let mut shuffled = current_hot.clone();
            shuffled.shuffle(rng);
            let next: Vec<PageId> = shuffled[..keep.min(shuffled.len())].to_vec();
            let dropped: Vec<PageId> = shuffled[keep.min(shuffled.len())..].to_vec();
            let drop_keep_prob = if profile.hot_similarity < 1.0 {
                ((profile.reuse_fraction - profile.hot_similarity) / (1.0 - profile.hot_similarity))
                    .clamp(0.0, 1.0)
            } else {
                1.0
            };
            demoted_to_warm = dropped
                .into_iter()
                .filter(|_| rng.gen_bool(drop_keep_prob))
                .collect();

            let replace = current_hot.len().saturating_sub(keep);
            let existing: HashSet<PageId> = next.iter().copied().collect();
            let mut candidates: Vec<PageId> = warm_pages
                .iter()
                .filter(|p| !existing.contains(p))
                .copied()
                .collect();
            candidates.shuffle(rng);
            let mut next = next;
            next.extend(candidates.into_iter().take(replace));
            next.sort_by_key(|p| p.pfn().value());
            current_hot = next;
        }
        relaunches
    }

    /// Order `pages` into an access sequence made of address-contiguous runs
    /// whose lengths follow the locality sampler.
    fn order_with_locality(
        pages: &[PageId],
        sampler: &RunLengthSampler,
        rng: &mut StdRng,
    ) -> Vec<PageId> {
        let mut sorted: Vec<PageId> = pages.to_vec();
        sorted.sort_by_key(|p| p.pfn().value());

        // Split the sorted pages into runs, then shuffle the run order.
        let mut runs: Vec<Vec<PageId>> = Vec::new();
        let mut cursor = 0usize;
        while cursor < sorted.len() {
            let len = sampler.sample_run(rng).min(sorted.len() - cursor);
            runs.push(sorted[cursor..cursor + len].to_vec());
            cursor += len;
        }
        runs.shuffle(rng);
        runs.into_iter().flatten().collect()
    }
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        WorkloadBuilder::new(0x0A71_AD4E)
    }
}

/// One step of a multi-application usage scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Cold-launch the application (allocate its pages, touch its hot set).
    Launch(AppName),
    /// Send the application to the background.
    Background(AppName),
    /// Hot-launch (relaunch) the application; the relaunch index selects
    /// which pre-generated relaunch trace to replay.
    Relaunch {
        /// The application being relaunched.
        app: AppName,
        /// Which relaunch trace of the workload to replay.
        relaunch_index: usize,
    },
    /// The user pauses for the given number of milliseconds.
    Idle {
        /// Pause length in milliseconds.
        millis: u64,
    },
    /// A memory-pressure spike: the platform (e.g. a camera burst, a large
    /// file-cache allocation) suddenly demands memory, forcing the scheme to
    /// proactively reclaim the given percentage of the currently resident
    /// anonymous data. Only emitted by the timed scenario DSL; the legacy
    /// scenarios never contain it.
    Pressure {
        /// Percentage (0–100) of resident anonymous bytes to reclaim.
        dram_percent: u8,
    },
}

/// The flavour of a scenario, used by the energy experiment (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Switching between applications with an intermission between switches.
    Light,
    /// Launching applications back-to-back with no intermission.
    Heavy,
    /// The relaunch-latency study of Figures 2 and 10.
    RelaunchStudy,
}

/// A multi-application usage scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scenario {
    /// The flavour of the scenario.
    pub kind: ScenarioKind,
    /// The events, in order.
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// The paper's relaunch study (§5): launch the target, background it,
    /// launch the nine other applications to build memory pressure, then
    /// relaunch the target.
    #[must_use]
    pub fn relaunch_study(target: AppName) -> Self {
        let mut events = vec![
            ScenarioEvent::Launch(target),
            ScenarioEvent::Background(target),
        ];
        for app in AppName::ALL.iter().filter(|&&a| a != target) {
            events.push(ScenarioEvent::Launch(*app));
            events.push(ScenarioEvent::Background(*app));
        }
        events.push(ScenarioEvent::Relaunch {
            app: target,
            relaunch_index: 0,
        });
        Scenario {
            kind: ScenarioKind::RelaunchStudy,
            events,
        }
    }

    /// The light workload of Table 2: switch between the ten applications
    /// with a one-second intermission between switches.
    #[must_use]
    pub fn light_switching(rounds: usize) -> Self {
        let mut events = Vec::new();
        for app in AppName::ALL {
            events.push(ScenarioEvent::Launch(app));
            events.push(ScenarioEvent::Background(app));
        }
        for round in 0..rounds {
            for app in AppName::ALL {
                events.push(ScenarioEvent::Relaunch {
                    app,
                    relaunch_index: round % 5,
                });
                events.push(ScenarioEvent::Idle { millis: 1000 });
                events.push(ScenarioEvent::Background(app));
            }
        }
        Scenario {
            kind: ScenarioKind::Light,
            events,
        }
    }

    /// The heavy workload of Table 2: launch the ten applications
    /// sequentially with no intermission.
    #[must_use]
    pub fn heavy_switching(rounds: usize) -> Self {
        let mut events = Vec::new();
        for app in AppName::ALL {
            events.push(ScenarioEvent::Launch(app));
            events.push(ScenarioEvent::Background(app));
        }
        for round in 0..rounds {
            for app in AppName::ALL {
                events.push(ScenarioEvent::Relaunch {
                    app,
                    relaunch_index: round % 5,
                });
                events.push(ScenarioEvent::Background(app));
            }
        }
        Scenario {
            kind: ScenarioKind::Heavy,
            events,
        }
    }

    /// Number of relaunch events in the scenario.
    #[must_use]
    pub fn relaunch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Relaunch { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_builder() -> WorkloadBuilder {
        WorkloadBuilder::new(7).scale(512)
    }

    #[test]
    fn workload_volume_matches_the_scaled_profile() {
        let builder = WorkloadBuilder::new(1).scale(64);
        let workload = builder.build(AppName::Youtube);
        let expected = AppName::Youtube.profile().anon_bytes_5min() / 64;
        let actual = workload.total_bytes();
        let tolerance = expected / 10 + 16 * PAGE_SIZE;
        assert!(
            actual.abs_diff(expected) <= tolerance,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn hotness_fractions_match_the_profile() {
        let workload = WorkloadBuilder::new(3).scale(64).build(AppName::Twitter);
        let profile = AppName::Twitter.profile();
        let total = workload.total_pages() as f64;
        let hot = workload.pages_with(Hotness::Hot).count() as f64 / total;
        let warm = workload.pages_with(Hotness::Warm).count() as f64 / total;
        assert!((hot - profile.hot_fraction).abs() < 0.08, "hot {hot}");
        assert!((warm - profile.warm_fraction).abs() < 0.08, "warm {warm}");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = WorkloadBuilder::new(9).scale(256).build(AppName::Firefox);
        let b = WorkloadBuilder::new(9).scale(256).build(AppName::Firefox);
        assert_eq!(a, b);
        let c = WorkloadBuilder::new(10).scale(256).build(AppName::Firefox);
        assert_ne!(a, c);
    }

    #[test]
    fn relaunch_similarity_tracks_the_profile() {
        let workload = WorkloadBuilder::new(11).scale(128).build(AppName::Youtube);
        let profile = AppName::Youtube.profile();
        let mut sims = Vec::new();
        for i in 0..workload.relaunches.len() - 1 {
            sims.push(workload.hot_similarity_between(i).unwrap());
        }
        let avg = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(
            (avg - profile.hot_similarity).abs() < 0.12,
            "similarity {avg} vs target {}",
            profile.hot_similarity
        );
    }

    #[test]
    fn reuse_fraction_is_high() {
        let workload = WorkloadBuilder::new(13).scale(128).build(AppName::Twitter);
        for i in 0..workload.relaunches.len() - 1 {
            let reuse = workload.reuse_between(i).unwrap();
            assert!(reuse > 0.85, "relaunch {i}: reuse {reuse}");
        }
    }

    #[test]
    fn relaunch_traces_access_real_pages() {
        let workload = small_builder().build(AppName::GoogleEarth);
        let all: HashSet<PageId> = workload.pages.iter().map(|p| p.page).collect();
        for trace in &workload.relaunches {
            assert!(!trace.hot_accesses.is_empty());
            for page in trace.hot_accesses.iter().chain(&trace.execution_accesses) {
                assert!(all.contains(page));
            }
        }
    }

    #[test]
    fn first_relaunch_hot_set_matches_ground_truth() {
        let workload = small_builder().build(AppName::Edge);
        let ground_truth: HashSet<PageId> = workload.pages_with(Hotness::Hot).collect();
        let first = workload.relaunches[0].hot_set();
        assert_eq!(first, ground_truth);
    }

    #[test]
    fn hotness_of_reports_ground_truth() {
        let workload = small_builder().build(AppName::TikTok);
        let hot_page = workload.pages_with(Hotness::Hot).next().unwrap();
        assert_eq!(workload.hotness_of(hot_page), Some(Hotness::Hot));
        let missing = PageId::new(AppId::new(999), Pfn::new(0));
        assert_eq!(workload.hotness_of(missing), None);
    }

    #[test]
    fn scenarios_have_the_expected_shape() {
        let study = Scenario::relaunch_study(AppName::Youtube);
        assert_eq!(study.relaunch_count(), 1);
        assert_eq!(study.events.len(), 2 + 9 * 2 + 1);
        assert!(matches!(
            study.events[0],
            ScenarioEvent::Launch(AppName::Youtube)
        ));
        assert!(matches!(
            *study.events.last().unwrap(),
            ScenarioEvent::Relaunch {
                app: AppName::Youtube,
                ..
            }
        ));

        let light = Scenario::light_switching(2);
        let heavy = Scenario::heavy_switching(2);
        assert_eq!(light.relaunch_count(), 20);
        assert_eq!(heavy.relaunch_count(), 20);
        // Light has idle intermissions, heavy does not.
        assert!(light
            .events
            .iter()
            .any(|e| matches!(e, ScenarioEvent::Idle { .. })));
        assert!(!heavy
            .events
            .iter()
            .any(|e| matches!(e, ScenarioEvent::Idle { .. })));
    }

    #[test]
    fn incompressible_mask_changes_only_the_profile() {
        use crate::profiles::AppMask;
        let builder = WorkloadBuilder::new(5).scale(256);
        let base = builder.build(AppName::Twitter);
        let hostile = builder
            .incompressible(AppMask::of(&[AppName::Twitter]))
            .build(AppName::Twitter);
        // Same pages, hotness labels and relaunch traces — only the profile
        // (and hence the synthesised bytes) turns hostile.
        assert_eq!(base.pages, hostile.pages);
        assert_eq!(base.relaunches, hostile.relaunches);
        assert!((hostile.profile.media_weight - 1.0).abs() < 1e-12);
        // Apps outside the mask are untouched.
        let other = builder
            .incompressible(AppMask::of(&[AppName::Twitter]))
            .build(AppName::Youtube);
        assert_eq!(other, builder.build(AppName::Youtube));
        // The empty mask reproduces the default builder exactly.
        assert_eq!(
            builder
                .incompressible(AppMask::none())
                .build(AppName::Twitter),
            base
        );
    }

    #[test]
    fn build_all_covers_every_application() {
        let workloads = WorkloadBuilder::new(2).scale(1024).build_all();
        assert_eq!(workloads.len(), 10);
        let names: HashSet<AppName> = workloads.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 10);
    }
}
