//! Experiment harness for the FLARE reproduction.
//!
//! This crate glues the substrates together — the LTE cell
//! ([`flare_lte::ENodeB`]), HAS players ([`flare_has::Player`]), the
//! adaptation algorithms ([`flare_abr`], [`flare_core`]) — into runnable
//! scenarios, and exposes one entry point per table and figure of the
//! paper's evaluation (Section IV). See `DESIGN.md` for the experiment
//! index.
//!
//! * [`SimConfig`] / [`CellSim`] — the generic single-cell simulation.
//! * [`testbed`] — the femtocell experiments (Tables I–II, Figures 4–5).
//! * [`cell`] — the ns-3-style experiments (Figures 6, 7, 10).
//! * [`sweeps`] — the α and δ parameter sweeps (Figures 11–12) and the
//!   relaxed-solver comparison (Figure 8).
//! * [`scaling`] — solver computation-time scaling (Figure 9).
//! * [`experiments`] — typed result tables with text rendering, one per
//!   paper artifact.
//!
//! # Example
//!
//! ```
//! use flare_scenarios::{CellSim, ChannelKind, SchedulerKind, SchemeKind, SimConfig};
//! use flare_sim::TimeDelta;
//!
//! let config = SimConfig::builder()
//!     .seed(7)
//!     .duration(TimeDelta::from_secs(60))
//!     .videos(2)
//!     .data_flows(1)
//!     .channel(ChannelKind::Static { itbs: 10 })
//!     .scheme(SchemeKind::Festive)
//!     .build();
//! let result = CellSim::new(config).run();
//! assert_eq!(result.videos.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
mod config;
pub mod experiments;
pub mod faults;
mod runner;
pub mod scaling;
pub mod sweeps;
pub mod testbed;
pub mod tracing;

pub use config::{
    default_check_invariants, set_default_check_invariants, ChannelKind, SchedulerKind, SchemeKind,
    SimConfig, SimConfigBuilder,
};
pub use runner::{CellSim, CellStepper, RobustnessReport, RunResult, VideoFlowResult};
