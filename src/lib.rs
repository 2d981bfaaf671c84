//! Ariadne reproduction — facade crate.
//!
//! This crate re-exports the whole workspace behind a single dependency so
//! downstream users (and the bundled examples and integration tests) can
//! write `use ariadne::...` and reach every layer:
//!
//! * [`compress`] — LZ4-style / LZO-style / BDI codecs, chunked framing and
//!   the chunk-size latency model;
//! * [`mem`] — the simulated memory hierarchy (DRAM, LRU lists, zpool, flash
//!   swap, clock, CPU accounting, reclaim control);
//! * [`trace`] — calibrated synthetic workloads for the ten applications the
//!   paper evaluates;
//! * [`zram`] — the `SwapScheme` abstraction and the DRAM / SWAP / ZRAM
//!   baselines;
//! * [`core`] — Ariadne itself (HotnessOrg, AdaptiveComp, PreDecomp);
//! * [`sim`] — the whole-system simulator and the experiment harness that
//!   regenerates every table and figure of the paper.
//!
//! # Quickstart
//!
//! Every workload is a [`trace::TimedScenario`] run by the discrete-event
//! engine; the paper's relaunch study is one of its constructors:
//!
//! ```
//! use ariadne::sim::{MobileSystem, SchemeSpec, SimulationConfig};
//! use ariadne::trace::{AppName, TimedScenario};
//!
//! let config = SimulationConfig::new(42).with_scale(512);
//! let mut system = MobileSystem::new(SchemeSpec::Zram, config);
//! system.run_timed(&TimedScenario::relaunch_study(AppName::Twitter));
//! assert_eq!(system.measurements().len(), 1);
//! ```
//!
//! # Concurrent scenarios
//!
//! Overlapping multi-app timelines are composed with the scenario DSL and
//! replayed through the deterministic discrete-event engine (the same
//! snippet appears in README.md):
//!
//! ```
//! use ariadne::sim::{MobileSystem, SchemeSpec, SimulationConfig};
//! use ariadne::trace::{AppName, ScenarioBuilder};
//!
//! let scenario = ScenarioBuilder::new("morning-rush")
//!     // staggered launches whose lifetimes overlap
//!     .launch_storm(&[AppName::Twitter, AppName::Youtube, AppName::TikTok], 200)
//!     .after_millis(500)
//!     // a 30 % pressure spike lands at the same instant as the relaunch
//!     .relaunch_under_pressure(AppName::Twitter, 0, 30)
//!     .after_millis(250)
//!     .relaunch(AppName::Youtube, 0)
//!     // let ZSWAP flush / Ariadne pre-decompress between events
//!     .with_background_drains()
//!     .build();
//! assert!(scenario.has_overlap());
//!
//! let config = SimulationConfig::new(42).with_scale(512);
//! let mut system = MobileSystem::new(SchemeSpec::Zram, config);
//! system.run_timed(&scenario);
//! assert_eq!(system.measurements().len(), 2);
//! ```
//!
//! # Process lifecycle (lmkd kills and cold launches)
//!
//! When a scheme cannot absorb memory pressure, the low-memory killer
//! terminates cached background apps — their entire footprint is freed
//! through `SwapScheme::release_app` and the next relaunch is re-costed
//! as a full cold launch:
//!
//! ```
//! use ariadne::sim::{AppState, MobileSystem, RelaunchKind, SchemeSpec, SimulationConfig};
//! use ariadne::trace::ScenarioEvent::{Background, Launch, Relaunch};
//! use ariadne::trace::{AppName::Twitter, TimedScenario};
//!
//! let config = SimulationConfig::new(42).with_scale(512);
//! let mut system = MobileSystem::new(SchemeSpec::Zram, config);
//! system.run_timed(&TimedScenario::sequence("launch", [Launch(Twitter), Background(Twitter)]));
//!
//! // What lmkd does when the PSI stall signal crosses its threshold
//! // (scenarios built with `.with_lmkd()` arm it on the event queue):
//! let freed = system.kill_app(Twitter);
//! assert!(freed.total_pages() > 0);
//! assert_eq!(system.app_state(Twitter), Some(AppState::Killed));
//!
//! // The process is gone: the next relaunch pays the full cold launch.
//! let relaunch = Relaunch { app: Twitter, relaunch_index: 0 };
//! system.run_timed(&TimedScenario::sequence("relaunch", [relaunch]));
//! assert_eq!(system.measurements()[0].kind, RelaunchKind::Cold);
//! assert_eq!(system.app_state(Twitter), Some(AppState::Alive));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ariadne_compress as compress;
pub use ariadne_core as core;
pub use ariadne_mem as mem;
pub use ariadne_sim as sim;
pub use ariadne_trace as trace;
pub use ariadne_zram as zram;

/// The workspace version (all crates are released in lockstep).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
