//! Whole-system mobile memory simulator and experiment harness.
//!
//! This crate drives the swap schemes (the baselines from `ariadne-zram` and
//! Ariadne from `ariadne-core`) through the multi-application usage scenarios
//! of the paper's evaluation and regenerates every table and figure:
//!
//! | Experiment | Module |
//! |---|---|
//! | Table 1 (anonymous data volume) | [`experiments::characterization`] |
//! | Figure 2 / Figure 3 / Table 2 (baseline motivation) | [`experiments::baselines`] |
//! | Figure 4 / Figure 5 / Figure 6 / Table 3 (insights) | [`experiments::characterization`] |
//! | Figure 10–13, Figure 15 (Ariadne evaluation) | [`experiments::evaluation`] |
//! | Figure 14 (identification quality) | [`experiments::identification`] |
//! | Multi-app concurrent storm | [`experiments::concurrent`] |
//! | Writeback study (sync/async/batched I/O) | [`experiments::writeback`] |
//! | Process lifecycle (lmkd kills, cold launches) | [`experiments::lifecycle`] |
//!
//! The building blocks are [`MobileSystem`] (a deterministic discrete-event
//! driver — see [`engine`] — that launches, backgrounds and relaunches
//! applications against a scheme), [`SchemeSpec`] (a factory for every
//! evaluated scheme), [`EnergyModel`] (the Table 2 energy accounting) and
//! [`experiments::runner`] (the parallel experiment runner that regenerates
//! all tables using every host core with byte-identical output).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod engine;
pub mod experiments;
pub mod lifecycle;
pub mod report;
pub mod schemes;
pub mod system;

pub use energy::EnergyModel;
pub use engine::{EngineEvent, EventQueue};
pub use lifecycle::{AppState, Lmkd, ProcessTable, PsiTracker};
pub use report::Table;
pub use schemes::SchemeSpec;
pub use system::{KillRecord, MobileSystem, RelaunchKind, RelaunchMeasurement, SimulationConfig};
