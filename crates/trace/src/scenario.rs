//! The timed scenario DSL: every workload the discrete-event engine runs.
//!
//! * [`TimedEvent`] — a [`ScenarioEvent`] stamped with the simulated instant
//!   at which it is injected;
//! * [`TimedScenario`] — a named stream of timed events, sorted by time with
//!   ties broken by insertion order (the engine's determinism contract);
//! * [`TimedScenario::sequence`] — a strictly ordered stream, event *i*
//!   stamped *i* nanoseconds after the epoch, so two applications are never
//!   mid-flight at once. The paper's fixed workloads are sequences:
//!   [`TimedScenario::relaunch_study`] (§5) and the light and heavy
//!   switching of Table 2;
//! * [`ScenarioBuilder`] — a cursor-based builder with combinators for the
//!   concurrent usage patterns the paper's setting implies: launch storms,
//!   background-app churn, relaunch-under-pressure and memory-pressure
//!   spikes.
//!
//! ```
//! use ariadne_trace::{AppName, ScenarioBuilder};
//!
//! let scenario = ScenarioBuilder::new("morning-rush")
//!     .launch_storm(&[AppName::Twitter, AppName::Youtube, AppName::TikTok], 200)
//!     .after_millis(500)
//!     .pressure(25)
//!     .relaunch(AppName::Twitter, 0)
//!     .at_millis(1_700)
//!     .relaunch(AppName::Youtube, 0)
//!     .build();
//! assert_eq!(scenario.relaunch_count(), 2);
//! assert!(scenario.events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
//! ```

use crate::profiles::AppName;
use crate::workload::ScenarioEvent;
use serde::{Deserialize, Serialize};

const NANOS_PER_MILLI: u128 = 1_000_000;

/// A scenario event stamped with its injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Simulated nanoseconds after the epoch at which the event fires.
    pub at_nanos: u128,
    /// The event itself.
    pub event: ScenarioEvent,
}

impl TimedEvent {
    /// The injection time in milliseconds (rounded down).
    #[must_use]
    pub fn at_millis(&self) -> u64 {
        u64::try_from(self.at_nanos / NANOS_PER_MILLI).unwrap_or(u64::MAX)
    }
}

/// A timestamped multi-application scenario, ready for the event engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedScenario {
    /// Human-readable scenario name (used in reports and experiment tables).
    pub name: String,
    /// The events, sorted by `at_nanos`; ties keep builder insertion order.
    pub events: Vec<TimedEvent>,
    /// Whether the engine may schedule deferred background work (ZSWAP-style
    /// writeback flushes, Ariadne pre-decompression drains) between events.
    /// Sequences and the default builder leave it off.
    pub background_drains: bool,
    /// Whether the low-memory killer (lmkd) is armed for this scenario: the
    /// engine then samples PSI-style memory pressure and may kill cached
    /// background apps, turning their next relaunch into a cold launch.
    /// Sequences and the default builder leave it off.
    pub lmkd: bool,
}

impl TimedScenario {
    /// A strictly ordered sequence: event *i* is stamped *i* nanoseconds
    /// after the epoch, with background drains and lmkd off. Each event —
    /// and the kswapd pass it schedules — therefore finishes before the
    /// next one starts.
    #[must_use]
    pub fn sequence(
        name: impl Into<String>,
        events: impl IntoIterator<Item = ScenarioEvent>,
    ) -> Self {
        TimedScenario {
            name: name.into(),
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| TimedEvent {
                    at_nanos: i as u128,
                    event,
                })
                .collect(),
            background_drains: false,
            lmkd: false,
        }
    }

    /// The paper's relaunch study (§5): launch the target, background it,
    /// launch the nine other applications to build memory pressure, then
    /// relaunch the target.
    #[must_use]
    pub fn relaunch_study(target: AppName) -> Self {
        let mut events = vec![
            ScenarioEvent::Launch(target),
            ScenarioEvent::Background(target),
        ];
        for app in AppName::ALL.into_iter().filter(|&app| app != target) {
            events.extend([ScenarioEvent::Launch(app), ScenarioEvent::Background(app)]);
        }
        events.push(ScenarioEvent::Relaunch {
            app: target,
            relaunch_index: 0,
        });
        Self::sequence("relaunch-study", events)
    }

    /// The light workload of Table 2: launch the ten applications, then
    /// switch between them for `rounds` rounds with a one-second
    /// intermission after each relaunch.
    #[must_use]
    pub fn light_switching(rounds: usize) -> Self {
        Self::switching(
            "light-switching",
            rounds,
            Some(ScenarioEvent::Idle { millis: 1000 }),
        )
    }

    /// The heavy workload of Table 2: launch the ten applications, then
    /// relaunch them back to back for `rounds` rounds with no intermission.
    #[must_use]
    pub fn heavy_switching(rounds: usize) -> Self {
        Self::switching("heavy-switching", rounds, None)
    }

    fn switching(name: &str, rounds: usize, intermission: Option<ScenarioEvent>) -> Self {
        let mut events = Vec::new();
        for app in AppName::ALL {
            events.extend([ScenarioEvent::Launch(app), ScenarioEvent::Background(app)]);
        }
        for round in 0..rounds {
            for app in AppName::ALL {
                events.push(ScenarioEvent::Relaunch {
                    app,
                    relaunch_index: round % 5,
                });
                events.extend(intermission);
                events.push(ScenarioEvent::Background(app));
            }
        }
        Self::sequence(name, events)
    }

    /// Number of relaunch events in the scenario.
    #[must_use]
    pub fn relaunch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Relaunch { .. }))
            .count()
    }

    /// Distinct applications referenced by the scenario, in first-appearance
    /// order.
    #[must_use]
    pub fn apps(&self) -> Vec<AppName> {
        let mut apps = Vec::new();
        for timed in &self.events {
            let app = match timed.event {
                ScenarioEvent::Launch(app)
                | ScenarioEvent::Background(app)
                | ScenarioEvent::Relaunch { app, .. } => app,
                ScenarioEvent::Idle { .. } | ScenarioEvent::Pressure { .. } => continue,
            };
            if !apps.contains(&app) {
                apps.push(app);
            }
        }
        apps
    }

    /// The timestamp of the last event, in milliseconds.
    #[must_use]
    pub fn duration_millis(&self) -> u64 {
        self.events.last().map_or(0, TimedEvent::at_millis)
    }

    /// `true` if at least two applications have overlapping live intervals
    /// (one is launched or relaunched before another is backgrounded).
    #[must_use]
    pub fn has_overlap(&self) -> bool {
        let mut live: Vec<AppName> = Vec::new();
        for timed in &self.events {
            match timed.event {
                ScenarioEvent::Launch(app) | ScenarioEvent::Relaunch { app, .. } => {
                    if !live.contains(&app) {
                        live.push(app);
                    }
                    if live.len() >= 2 {
                        return true;
                    }
                }
                ScenarioEvent::Background(app) => live.retain(|a| *a != app),
                ScenarioEvent::Idle { .. } | ScenarioEvent::Pressure { .. } => {}
            }
        }
        false
    }

    /// The canonical concurrent workload used by the `multiapp` experiment,
    /// the reachability tests and the `concurrent_storm` example: six
    /// applications launched in an overlapping storm, three of them churning
    /// in the background, and relaunches of three different targets arriving
    /// while memory-pressure spikes are still being absorbed.
    #[must_use]
    pub fn concurrent_relaunch_storm() -> Self {
        let storm = [
            AppName::Twitter,
            AppName::Youtube,
            AppName::TikTok,
            AppName::Firefox,
            AppName::Edge,
            AppName::GoogleMaps,
        ];
        let churn = [AppName::Firefox, AppName::Edge, AppName::GoogleMaps];
        ScenarioBuilder::new("concurrent-relaunch-storm")
            .launch_storm(&storm, 150)
            .after_millis(400)
            .background_churn(&churn, 250, 2)
            .after_millis(300)
            .relaunch_under_pressure(AppName::Twitter, 0, 20)
            .after_millis(150)
            .relaunch(AppName::Youtube, 0)
            .pressure(35)
            .after_millis(100)
            .relaunch(AppName::TikTok, 0)
            .after_millis(200)
            .background(AppName::Twitter)
            .background(AppName::Youtube)
            .background(AppName::TikTok)
            .with_background_drains()
            .build()
    }

    /// The canonical *I/O-heavy* workload used by the `writeback` experiment
    /// and the async-I/O tests: six applications launched in a storm (which
    /// fills DRAM and keeps the compressed pool overflowing to flash), a
    /// modest pressure wave that sustains the writeback backlog without
    /// emptying DRAM, background churn that refills DRAM right before the
    /// measured relaunches — so relaunch faults run direct reclaim while
    /// writeback is still in flight — and one relaunch arriving at the same
    /// instant as a critical spike, so its faults race the flush commands
    /// the spike just submitted.
    #[must_use]
    pub fn writeback_storm() -> Self {
        let storm = [
            AppName::Twitter,
            AppName::Youtube,
            AppName::TikTok,
            AppName::Firefox,
            AppName::Edge,
            AppName::GoogleMaps,
        ];
        let churn = [AppName::Firefox, AppName::Edge, AppName::GoogleMaps];
        ScenarioBuilder::new("writeback-storm")
            .launch_storm(&storm, 120)
            .after_millis(200)
            .pressure_wave(3, 150, 15)
            .after_millis(100)
            .background_churn(&churn, 200, 1)
            .after_millis(100)
            .relaunch(AppName::Twitter, 0)
            .after_millis(120)
            .relaunch_under_pressure(AppName::Youtube, 0, 55)
            .after_millis(120)
            .relaunch(AppName::TikTok, 1)
            .after_millis(150)
            .background(AppName::Twitter)
            .background(AppName::Youtube)
            .background(AppName::TikTok)
            .with_background_drains()
            .build()
    }

    /// The canonical *kill* workload used by the `lifecycle` experiment, the
    /// release-app invariant tests and the `kill_storm` example: six
    /// applications launched in an overlapping storm, a foreground memory
    /// hog (BangDream, the heaviest app) allocating in critical bursts,
    /// background churn that keeps faulting while pressure is high — the
    /// stalls that feed the PSI signal — and a final relaunch sweep over all
    /// six stormed apps, so every app lmkd killed along the way comes back
    /// as a measured *cold* launch. The low-memory killer is armed.
    #[must_use]
    pub fn kill_storm() -> Self {
        let storm = [
            AppName::Twitter,
            AppName::Youtube,
            AppName::TikTok,
            AppName::Firefox,
            AppName::Edge,
            AppName::GoogleMaps,
        ];
        let churn = [AppName::Firefox, AppName::Edge, AppName::GoogleMaps];
        let mut builder = ScenarioBuilder::new("kill-storm")
            .kill_storm(&storm, AppName::BangDream, 120, 55)
            .after_millis(120)
            .background_churn(&churn, 150, 2)
            .after_millis(150);
        for &app in &storm {
            builder = builder.relaunch(app, 1).after_millis(100);
        }
        builder = builder.after_millis(50);
        for &app in &storm {
            builder = builder.background(app);
        }
        builder.with_background_drains().build()
    }

    /// The long-horizon workload of the `lifetime` experiment: `hours`
    /// simulated hours of sustained use under the given adversarial `mix`,
    /// with the low-memory killer armed and background drains on.
    ///
    /// Every hour plays one usage block — chosen by the mix — followed by a
    /// relaunch sweep over the six stormed applications, so apps killed
    /// during the block come back as measured *cold* launches:
    ///
    /// * [`AdversarialMix::Baseline`](crate::profiles::AdversarialMix::Baseline) and [`AdversarialMix::Incompressible`](crate::profiles::AdversarialMix::Incompressible)
    ///   share the *same event stream* (background churn plus a modest
    ///   pressure wave); the incompressible mix differs only in the page
    ///   bytes, which the workload builder poisons via
    ///   [`AdversarialMix::incompressible_apps`](crate::profiles::AdversarialMix::incompressible_apps).
    /// * [`AdversarialMix::FlipLoop`](crate::profiles::AdversarialMix::FlipLoop) runs tight relaunch/background flips
    ///   over all six apps.
    /// * [`AdversarialMix::HogChurn`](crate::profiles::AdversarialMix::HogChurn) runs hog-then-exit cycles of the
    ///   heaviest app (BangDream) at kill-storm pressure.
    ///
    /// Event emission is compressed: the stream grows with `hours`, not
    /// with simulated nanoseconds, so a day-long soak stays replayable in
    /// milliseconds of host time.
    #[must_use]
    pub fn lifetime(mix: crate::profiles::AdversarialMix, hours: u64) -> Self {
        use crate::profiles::AdversarialMix;
        let storm = [
            AppName::Twitter,
            AppName::Youtube,
            AppName::TikTok,
            AppName::Firefox,
            AppName::Edge,
            AppName::GoogleMaps,
        ];
        let churn = [AppName::Firefox, AppName::Edge, AppName::GoogleMaps];
        ScenarioBuilder::new(format!("lifetime-{mix}"))
            .launch_storm(&storm, 120)
            .after_millis(240)
            .repeat_blocks(hours.max(1), 3_600_000, move |builder, hour| {
                let builder = match mix {
                    AdversarialMix::Baseline | AdversarialMix::Incompressible => builder
                        .background_churn(&churn, 150, 2)
                        .after_millis(150)
                        .pressure_wave(2, 200, 25),
                    AdversarialMix::FlipLoop => builder.flip_loop(&storm, 80, 3),
                    AdversarialMix::HogChurn => {
                        builder.hog_exit_cycles(AppName::BangDream, 2, 150, 55)
                    }
                };
                // The sweep relaunches every stormed app *under pressure* —
                // the regime where a scheme's swap-in latency decides
                // whether lmkd reaches for the trigger.
                let mut builder = builder.after_millis(150);
                for &app in &storm {
                    builder = builder
                        .relaunch_under_pressure(app, (hour as usize) % 5, 45)
                        .after_millis(100);
                }
                let mut builder = builder.after_millis(50);
                for &app in &storm {
                    builder = builder.background(app);
                }
                builder
            })
            .with_background_drains()
            .with_lmkd()
            .build()
    }
}

/// Cursor-based builder for [`TimedScenario`]s.
///
/// The builder keeps a time cursor in milliseconds. Event-emitting methods
/// stamp events at the cursor; [`ScenarioBuilder::at_millis`] and
/// [`ScenarioBuilder::after_millis`] move it. Combinators emit several
/// events with per-app offsets so application timelines overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioBuilder {
    name: String,
    cursor_millis: u64,
    events: Vec<(u64, ScenarioEvent)>,
    background_drains: bool,
    lmkd: bool,
}

impl ScenarioBuilder {
    /// Start a builder for a named concurrent scenario, cursor at the epoch.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            name: name.into(),
            cursor_millis: 0,
            events: Vec::new(),
            background_drains: false,
            lmkd: false,
        }
    }

    /// Move the cursor to an absolute time.
    #[must_use]
    pub fn at_millis(mut self, millis: u64) -> Self {
        self.cursor_millis = millis;
        self
    }

    /// Advance the cursor by `millis`.
    #[must_use]
    pub fn after_millis(mut self, millis: u64) -> Self {
        self.cursor_millis += millis;
        self
    }

    /// The current cursor position in milliseconds.
    #[must_use]
    pub fn cursor_millis(&self) -> u64 {
        self.cursor_millis
    }

    fn push(&mut self, at_millis: u64, event: ScenarioEvent) {
        self.events.push((at_millis, event));
    }

    /// Cold-launch `app` at the cursor.
    #[must_use]
    pub fn launch(mut self, app: AppName) -> Self {
        self.push(self.cursor_millis, ScenarioEvent::Launch(app));
        self
    }

    /// Background `app` at the cursor.
    #[must_use]
    pub fn background(mut self, app: AppName) -> Self {
        self.push(self.cursor_millis, ScenarioEvent::Background(app));
        self
    }

    /// Relaunch `app` at the cursor, replaying relaunch trace `index`.
    #[must_use]
    pub fn relaunch(mut self, app: AppName, index: usize) -> Self {
        self.push(
            self.cursor_millis,
            ScenarioEvent::Relaunch {
                app,
                relaunch_index: index,
            },
        );
        self
    }

    /// Insert an idle pause of `millis` at the cursor and advance the cursor
    /// past it.
    #[must_use]
    pub fn idle(mut self, millis: u64) -> Self {
        self.push(self.cursor_millis, ScenarioEvent::Idle { millis });
        self.cursor_millis += millis;
        self
    }

    /// Inject a memory-pressure spike at the cursor reclaiming `dram_percent`
    /// of the resident anonymous data.
    #[must_use]
    pub fn pressure(mut self, dram_percent: u8) -> Self {
        self.push(
            self.cursor_millis,
            ScenarioEvent::Pressure {
                dram_percent: dram_percent.min(100),
            },
        );
        self
    }

    /// Launch storm: each app in `apps` is launched `stagger_millis` after
    /// the previous one and backgrounded two stagger periods after its own
    /// launch, so consecutive lifetimes overlap. The cursor ends after the
    /// last background.
    #[must_use]
    pub fn launch_storm(mut self, apps: &[AppName], stagger_millis: u64) -> Self {
        let start = self.cursor_millis;
        let mut last = start;
        for (i, &app) in apps.iter().enumerate() {
            let at = start + i as u64 * stagger_millis;
            self.push(at, ScenarioEvent::Launch(app));
            let bg_at = at + 2 * stagger_millis;
            self.push(bg_at, ScenarioEvent::Background(app));
            last = last.max(bg_at);
        }
        self.cursor_millis = last;
        self
    }

    /// Background churn: for `rounds` rounds, each app in `apps` is
    /// relaunched (cycling through its relaunch traces) and backgrounded
    /// half a period later, with app *i + 1*'s relaunch landing before app
    /// *i*'s background so the timelines interleave.
    #[must_use]
    pub fn background_churn(mut self, apps: &[AppName], period_millis: u64, rounds: usize) -> Self {
        let start = self.cursor_millis;
        let mut last = start;
        for round in 0..rounds {
            for (i, &app) in apps.iter().enumerate() {
                let at = start + (round * apps.len() + i) as u64 * period_millis;
                self.push(
                    at,
                    ScenarioEvent::Relaunch {
                        app,
                        relaunch_index: round % 5,
                    },
                );
                let bg_at = at + period_millis + period_millis / 2;
                self.push(bg_at, ScenarioEvent::Background(app));
                last = last.max(bg_at);
            }
        }
        self.cursor_millis = last;
        self
    }

    /// Relaunch `app` at the cursor *while* a pressure spike of
    /// `dram_percent` lands at the same instant (the spike is injected
    /// first; the tie-breaking rule keeps that order deterministic).
    #[must_use]
    pub fn relaunch_under_pressure(self, app: AppName, index: usize, dram_percent: u8) -> Self {
        self.pressure(dram_percent).relaunch(app, index)
    }

    /// Pressure wave: `count` spikes of `dram_percent` each, spaced
    /// `interval_millis` apart, starting at the cursor. The cursor ends on
    /// the last spike. Sustained waves are the knob that keeps a
    /// writeback-capable scheme's flash queue busy (each spike squeezes
    /// resident data into the zpool, which overflows to flash), so
    /// I/O-heavy scenarios compose this with concurrent relaunches.
    #[must_use]
    pub fn pressure_wave(mut self, count: usize, interval_millis: u64, dram_percent: u8) -> Self {
        let start = self.cursor_millis;
        for i in 0..count {
            let at = start + i as u64 * interval_millis;
            self.push(
                at,
                ScenarioEvent::Pressure {
                    dram_percent: dram_percent.min(100),
                },
            );
            self.cursor_millis = at;
        }
        self
    }

    /// Memory hog: `app` cold-launches in the foreground and then allocates
    /// aggressively — `bursts` pressure spikes of `dram_percent`, spaced
    /// `interval_millis` apart (a camera burst, a game loading level data).
    /// This is the pattern that drives the system past what the zpool can
    /// absorb. The cursor ends on the last burst.
    #[must_use]
    pub fn memory_hog(
        self,
        app: AppName,
        bursts: usize,
        interval_millis: u64,
        dram_percent: u8,
    ) -> Self {
        self.launch(app)
            .after_millis(interval_millis)
            .pressure_wave(bursts, interval_millis, dram_percent)
    }

    /// Rapid dirty/clean flip loop: for `rounds` rounds each app in `apps`
    /// is relaunched (dirtying its hot set) and backgrounded a quarter
    /// period later (letting reclaim clean/compress it again), in a tight
    /// cycle. This is the adversarial pattern that pushes the same pages
    /// through compress/decompress over and over without creating any new
    /// data — a compression-savings oracle must not count those pages
    /// again on every lap. The cursor ends after the last background.
    #[must_use]
    pub fn flip_loop(mut self, apps: &[AppName], period_millis: u64, rounds: usize) -> Self {
        let start = self.cursor_millis;
        let mut last = start;
        for round in 0..rounds {
            for (i, &app) in apps.iter().enumerate() {
                let at = start + (round * apps.len() + i) as u64 * period_millis;
                self.push(
                    at,
                    ScenarioEvent::Relaunch {
                        app,
                        relaunch_index: round % 5,
                    },
                );
                let bg_at = at + (period_millis / 4).max(1);
                self.push(bg_at, ScenarioEvent::Background(app));
                last = last.max(bg_at);
            }
        }
        self.cursor_millis = last;
        self
    }

    /// Hog-then-exit cycles: `cycles` times, `hog` comes to the foreground
    /// (an implicit cold launch the first time), allocates in two critical
    /// bursts of `dram_percent`, and leaves again — the pattern that
    /// squeezes cached apps out and then releases the hog's own pages while
    /// writeback of its victims may still be in flight. The cursor ends
    /// half an interval after the last exit.
    #[must_use]
    pub fn hog_exit_cycles(
        mut self,
        hog: AppName,
        cycles: usize,
        interval_millis: u64,
        dram_percent: u8,
    ) -> Self {
        for cycle in 0..cycles {
            self = self
                .relaunch(hog, cycle % 5)
                .after_millis(interval_millis)
                .pressure_wave(2, interval_millis, dram_percent)
                .after_millis(interval_millis)
                .background(hog)
                .after_millis((interval_millis / 2).max(1));
        }
        self
    }

    /// Long-horizon repetition: emit `count` blocks, the *i*-th generated by
    /// `block(builder, i)` with the cursor reset to `i × period_millis`
    /// past the current cursor. Simulated time spans hours or days while
    /// the emitted event stream stays proportional to `count` — idle gaps
    /// between blocks cost nothing to replay, which is what makes
    /// device-lifetime scenarios tractable.
    #[must_use]
    pub fn repeat_blocks<F>(mut self, count: u64, period_millis: u64, block: F) -> Self
    where
        F: Fn(Self, u64) -> Self,
    {
        let start = self.cursor_millis;
        for i in 0..count {
            self = block(self.at_millis(start + i * period_millis), i);
        }
        self
    }

    /// Kill storm: launch `apps` in an overlapping storm (filling memory),
    /// then let `hog` squeeze them out with three critical allocation
    /// bursts of `dram_percent` — and arm the low-memory killer, so schemes
    /// that cannot absorb the pressure see their cached apps killed and pay
    /// cold launches on the next relaunch. The cursor ends on the hog's
    /// last burst.
    #[must_use]
    pub fn kill_storm(
        self,
        apps: &[AppName],
        hog: AppName,
        stagger_millis: u64,
        dram_percent: u8,
    ) -> Self {
        self.launch_storm(apps, stagger_millis)
            .after_millis(stagger_millis)
            .memory_hog(hog, 3, stagger_millis, dram_percent)
            .with_lmkd()
    }

    /// Allow the engine to schedule deferred background work (writeback
    /// flushes, pre-decompression drains) for this scenario.
    #[must_use]
    pub fn with_background_drains(mut self) -> Self {
        self.background_drains = true;
        self
    }

    /// Arm the low-memory killer for this scenario: the engine samples
    /// PSI-style pressure after app events and may kill cached apps.
    #[must_use]
    pub fn with_lmkd(mut self) -> Self {
        self.lmkd = true;
        self
    }

    /// Finish the scenario: events are stably sorted by timestamp, so
    /// same-instant events keep their insertion order.
    #[must_use]
    pub fn build(self) -> TimedScenario {
        let mut events = self.events;
        events.sort_by_key(|(at, _)| *at);
        TimedScenario {
            name: self.name,
            events: events
                .into_iter()
                .map(|(at, event)| TimedEvent {
                    at_nanos: u128::from(at) * NANOS_PER_MILLI,
                    event,
                })
                .collect(),
            background_drains: self.background_drains,
            lmkd: self.lmkd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_stamps_events_at_the_cursor() {
        let scenario = ScenarioBuilder::new("t")
            .launch(AppName::Twitter)
            .after_millis(100)
            .background(AppName::Twitter)
            .at_millis(50)
            .pressure(10)
            .build();
        assert_eq!(scenario.events.len(), 3);
        // Sorted by time: launch@0, pressure@50, background@100.
        assert_eq!(scenario.events[0].at_millis(), 0);
        assert!(matches!(
            scenario.events[1].event,
            ScenarioEvent::Pressure { dram_percent: 10 }
        ));
        assert_eq!(scenario.events[2].at_millis(), 100);
    }

    #[test]
    fn same_instant_events_keep_insertion_order() {
        let scenario = ScenarioBuilder::new("ties")
            .relaunch_under_pressure(AppName::Youtube, 0, 30)
            .build();
        assert_eq!(scenario.events[0].at_nanos, scenario.events[1].at_nanos);
        assert!(matches!(
            scenario.events[0].event,
            ScenarioEvent::Pressure { .. }
        ));
        assert!(matches!(
            scenario.events[1].event,
            ScenarioEvent::Relaunch { .. }
        ));
    }

    #[test]
    fn launch_storm_overlaps_lifetimes() {
        let apps = [AppName::Twitter, AppName::Youtube, AppName::TikTok];
        let scenario = ScenarioBuilder::new("storm")
            .launch_storm(&apps, 100)
            .build();
        assert!(scenario.has_overlap());
        assert_eq!(scenario.apps().len(), 3);
        // Youtube launches (t=100) before Twitter backgrounds (t=200).
        let youtube_launch = scenario
            .events
            .iter()
            .find(|e| matches!(e.event, ScenarioEvent::Launch(AppName::Youtube)))
            .unwrap();
        let twitter_bg = scenario
            .events
            .iter()
            .find(|e| matches!(e.event, ScenarioEvent::Background(AppName::Twitter)))
            .unwrap();
        assert!(youtube_launch.at_nanos < twitter_bg.at_nanos);
    }

    /// A sequence (the paper's strictly ordered workload shape) stamps
    /// event *i* at *i* ns, keeps the given order, and arms nothing.
    #[test]
    fn legacy_timeline_preserves_total_order() {
        let events = [
            ScenarioEvent::Launch(AppName::Twitter),
            ScenarioEvent::Idle { millis: 5 },
            ScenarioEvent::Background(AppName::Twitter),
            ScenarioEvent::Relaunch {
                app: AppName::Twitter,
                relaunch_index: 2,
            },
        ];
        let sequence = TimedScenario::sequence("seq", events);
        assert_eq!(sequence.name, "seq");
        assert!(!sequence.background_drains);
        assert!(!sequence.lmkd);
        assert_eq!(sequence.events.len(), events.len());
        for (i, timed) in sequence.events.iter().enumerate() {
            assert_eq!(timed.at_nanos, i as u128);
            assert_eq!(timed.event, events[i]);
        }
    }

    /// The paper's fixed sequences never overlap two apps; the storm does.
    #[test]
    fn legacy_scenarios_do_not_overlap_but_the_storm_does() {
        for sequence in [
            TimedScenario::relaunch_study(AppName::Edge),
            TimedScenario::light_switching(1),
            TimedScenario::heavy_switching(1),
        ] {
            assert!(!sequence.has_overlap(), "{}", sequence.name);
        }
        let storm = TimedScenario::concurrent_relaunch_storm();
        assert!(storm.has_overlap());
        assert!(storm.apps().len() >= 3);
        assert!(storm.relaunch_count() >= 3);
        assert!(storm.background_drains);
        assert!(storm
            .events
            .iter()
            .any(|e| matches!(e.event, ScenarioEvent::Pressure { .. })));
    }

    #[test]
    fn background_churn_interleaves_relaunches() {
        let apps = [AppName::Firefox, AppName::Edge];
        let scenario = ScenarioBuilder::new("churn")
            .background_churn(&apps, 200, 2)
            .build();
        assert_eq!(scenario.relaunch_count(), 4);
        // Edge's first relaunch (t=200) lands before Firefox's background
        // (t=300): the timelines interleave.
        let edge_relaunch = scenario
            .events
            .iter()
            .find(|e| {
                matches!(
                    e.event,
                    ScenarioEvent::Relaunch {
                        app: AppName::Edge,
                        ..
                    }
                )
            })
            .unwrap();
        let firefox_bg = scenario
            .events
            .iter()
            .find(|e| matches!(e.event, ScenarioEvent::Background(AppName::Firefox)))
            .unwrap();
        assert!(edge_relaunch.at_nanos < firefox_bg.at_nanos);
    }

    #[test]
    fn pressure_wave_emits_evenly_spaced_spikes() {
        let scenario = ScenarioBuilder::new("wave")
            .at_millis(100)
            .pressure_wave(3, 50, 25)
            .build();
        let spikes: Vec<u64> = scenario
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Pressure { dram_percent: 25 }))
            .map(TimedEvent::at_millis)
            .collect();
        assert_eq!(spikes, vec![100, 150, 200]);
    }

    #[test]
    fn writeback_storm_is_io_heavy_and_concurrent() {
        let storm = TimedScenario::writeback_storm();
        assert!(storm.has_overlap());
        assert!(storm.background_drains);
        assert!(storm.relaunch_count() >= 3);
        let spikes = storm
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Pressure { .. }))
            .count();
        assert!(spikes >= 4, "a writeback storm needs a pressure wave");
        // One relaunch lands at the same instant as a critical spike, so its
        // faults race the flush commands the spike just submitted.
        assert!(storm.events.windows(2).any(|w| {
            matches!(w[0].event, ScenarioEvent::Pressure { dram_percent } if dram_percent >= 50)
                && matches!(w[1].event, ScenarioEvent::Relaunch { .. })
                && w[0].at_nanos == w[1].at_nanos
        }));
    }

    #[test]
    fn memory_hog_launches_then_bursts() {
        let scenario = ScenarioBuilder::new("hog")
            .memory_hog(AppName::BangDream, 3, 100, 60)
            .build();
        assert!(matches!(
            scenario.events[0].event,
            ScenarioEvent::Launch(AppName::BangDream)
        ));
        let spikes: Vec<u64> = scenario
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Pressure { dram_percent: 60 }))
            .map(TimedEvent::at_millis)
            .collect();
        assert_eq!(spikes, vec![100, 200, 300]);
        assert!(!scenario.lmkd, "memory_hog alone does not arm lmkd");
    }

    #[test]
    fn kill_storm_combinator_arms_lmkd_over_a_storm_and_hog() {
        let apps = [AppName::Twitter, AppName::Youtube];
        let scenario = ScenarioBuilder::new("ks")
            .kill_storm(&apps, AppName::BangDream, 100, 50)
            .build();
        assert!(scenario.lmkd);
        assert!(scenario.has_overlap());
        assert!(scenario
            .events
            .iter()
            .any(|e| matches!(e.event, ScenarioEvent::Launch(AppName::BangDream))));
        assert!(scenario
            .events
            .iter()
            .any(|e| matches!(e.event, ScenarioEvent::Pressure { dram_percent: 50 })));
    }

    #[test]
    fn kill_storm_preset_relaunches_every_stormed_app() {
        let storm = TimedScenario::kill_storm();
        assert!(storm.lmkd);
        assert!(storm.background_drains);
        assert!(storm.has_overlap());
        assert!(storm.apps().len() >= 7, "six stormed apps plus the hog");
        // The relaunch sweep revisits all six stormed apps (the churn adds
        // more), and the sweep lands after the hog's last pressure burst.
        assert!(storm.relaunch_count() >= 6);
        let last_spike = storm
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Pressure { .. }))
            .map(|e| e.at_nanos)
            .max()
            .unwrap();
        let last_relaunch = storm
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Relaunch { .. }))
            .map(|e| e.at_nanos)
            .max()
            .unwrap();
        assert!(last_relaunch > last_spike);
    }

    #[test]
    fn flip_loop_relaunches_and_backgrounds_in_tight_cycles() {
        let apps = [AppName::Twitter, AppName::Youtube];
        let scenario = ScenarioBuilder::new("flip").flip_loop(&apps, 80, 3).build();
        assert_eq!(scenario.relaunch_count(), 6);
        let backgrounds = scenario
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Background(_)))
            .count();
        assert_eq!(backgrounds, 6);
        // Each background lands a quarter period after its relaunch — the
        // flip is far faster than the churn combinator's half-period dwell.
        let first_relaunch = scenario
            .events
            .iter()
            .find(|e| matches!(e.event, ScenarioEvent::Relaunch { .. }))
            .unwrap();
        let first_bg = scenario
            .events
            .iter()
            .find(|e| matches!(e.event, ScenarioEvent::Background(_)))
            .unwrap();
        assert_eq!(
            first_bg.at_nanos - first_relaunch.at_nanos,
            20 * 1_000_000,
            "dirty/clean flip must be a quarter period"
        );
    }

    #[test]
    fn hog_exit_cycles_interleave_pressure_with_foreground_time() {
        let scenario = ScenarioBuilder::new("hog-exit")
            .hog_exit_cycles(AppName::BangDream, 3, 100, 50)
            .build();
        // Three cycles: one relaunch, two spikes and one background each.
        assert_eq!(scenario.relaunch_count(), 3);
        let spikes = scenario
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Pressure { dram_percent: 50 }))
            .count();
        assert_eq!(spikes, 6);
        let exits = scenario
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Background(AppName::BangDream)))
            .count();
        assert_eq!(exits, 3);
    }

    #[test]
    fn repeat_blocks_pins_each_block_to_its_period() {
        let scenario = ScenarioBuilder::new("blocks")
            .at_millis(500)
            .repeat_blocks(3, 10_000, |b, i| b.after_millis(i).pressure(10))
            .build();
        let spikes: Vec<u64> = scenario
            .events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Pressure { .. }))
            .map(TimedEvent::at_millis)
            .collect();
        assert_eq!(spikes, vec![500, 10_501, 20_502]);
    }

    #[test]
    fn lifetime_scenarios_span_hours_with_compressed_event_streams() {
        use crate::profiles::AdversarialMix;
        for mix in AdversarialMix::ALL {
            let scenario = TimedScenario::lifetime(mix, 6);
            assert!(scenario.lmkd, "{mix}: the killer must be armed");
            assert!(scenario.background_drains);
            assert!(scenario.has_overlap());
            // Five full hour boundaries passed: at least 5 simulated hours.
            assert!(
                scenario.duration_millis() >= 5 * 3_600_000,
                "{mix}: only {} ms simulated",
                scenario.duration_millis()
            );
            // Compressed emission: hours of simulated time, yet only a
            // bounded stream of events (not per-tick emission).
            assert!(
                scenario.events.len() < 600,
                "{mix}: {} events is not compressed emission",
                scenario.events.len()
            );
            // Every hour ends in a relaunch sweep over the six stormed apps.
            assert!(scenario.relaunch_count() >= 6 * 6);
        }
    }

    #[test]
    fn baseline_and_incompressible_lifetime_mixes_share_one_event_stream() {
        use crate::profiles::AdversarialMix;
        let baseline = TimedScenario::lifetime(AdversarialMix::Baseline, 4);
        let hostile = TimedScenario::lifetime(AdversarialMix::Incompressible, 4);
        assert_eq!(baseline.events, hostile.events);
        assert_ne!(baseline.name, hostile.name);
    }

    /// The paper's fixed sequences and the two non-kill storms leave lmkd
    /// off.
    #[test]
    fn legacy_timelines_never_arm_lmkd() {
        for sequence in [
            TimedScenario::relaunch_study(AppName::Edge),
            TimedScenario::light_switching(1),
            TimedScenario::heavy_switching(1),
        ] {
            assert!(!sequence.lmkd, "{}", sequence.name);
            assert!(!sequence.background_drains, "{}", sequence.name);
        }
        assert!(!TimedScenario::concurrent_relaunch_storm().lmkd);
        assert!(!TimedScenario::writeback_storm().lmkd);
    }

    #[test]
    fn pressure_percent_is_clamped() {
        let scenario = ScenarioBuilder::new("clamp").pressure(250).build();
        assert!(matches!(
            scenario.events[0].event,
            ScenarioEvent::Pressure { dram_percent: 100 }
        ));
    }
}
