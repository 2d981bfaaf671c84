//! Workload substrate for the Ariadne reproduction.
//!
//! The paper evaluates Ariadne by replaying traces collected from ten popular
//! Android applications on a Google Pixel 7 (Twitter, YouTube, TikTok, Edge,
//! Firefox, Google Earth, Google Maps, BangDream, Angry Birds and TwitchTV).
//! Those traces are not shipped with the paper's artifact in a form we can
//! rely on here, so this crate generates **synthetic but calibrated**
//! workloads that reproduce the published statistical properties the
//! policies depend on:
//!
//! * per-application anonymous-data volumes at 10 s and 5 min (Table 1);
//! * the hot / warm / cold composition of that data and the ~70 % hot-data
//!   similarity plus ~98 % reuse across consecutive relaunches (Figure 5);
//! * the fine-grained (128 B-region) redundancy inside anonymous pages that
//!   makes small-chunk compression effective and the cross-page redundancy
//!   that makes large-chunk compression pay off (Figure 6);
//! * the sequential-access locality of swap-in streams (Table 3).
//!
//! The main entry points are [`AppProfile`] (per-application parameters),
//! [`WorkloadBuilder`] (turns profiles into an [`AppWorkload`] with concrete
//! pages, ground-truth hotness labels and relaunch access traces) and
//! [`PageDataGenerator`] (deterministically synthesises the *bytes* of any
//! page so compression ratios are real without storing gigabytes).
//!
//! Every workload is a [`TimedScenario`], the event stream the
//! discrete-event engine in `ariadne-sim` consumes. The paper's fixed
//! workloads — [`TimedScenario::relaunch_study`] and the light and heavy
//! switching of Table 2 — are strictly ordered
//! [`TimedScenario::sequence`]s; [`ScenarioBuilder`] composes overlapping
//! multi-application scenarios — launch storms, background churn,
//! relaunch-under-pressure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod device;
pub mod locality;
pub mod profiles;
pub mod scenario;
pub mod workload;

pub use content::{ContentClass, PageDataGenerator};
pub use device::DeviceClass;
pub use locality::{measure_consecutive_probability, RunLengthSampler};
pub use profiles::{AdversarialMix, AppMask, AppName, AppProfile};
pub use scenario::{ScenarioBuilder, TimedEvent, TimedScenario};
pub use workload::{AppWorkload, PageSpec, RelaunchTrace, ScenarioEvent, WorkloadBuilder};
