//! FLARE — Fair and Link-Aware RatE adaptation (Im et al., ICDCS 2017).
//!
//! FLARE is a *coordinated* HAS system: a network-side entity (modelled on
//! the OMA OneAPI server) and a light-weight plugin in each client's video
//! player jointly decide every video flow's bitrate, once per bitrate
//! assignment interval (BAI). This crate is the paper's primary
//! contribution:
//!
//! * [`FlareConfig`] — the algorithm parameters (`α`, `δ`, `β_u`, `θ_u`,
//!   BAI length, exact vs. relaxed solver).
//! * [`OneApiServer`] — gathers per-flow MAC statistics and client
//!   information, builds the utility-maximization problem of equations
//!   (3)–(4), runs Algorithm 1 (solver + stability filter), and emits
//!   per-flow assignments (bitrate for the plugin, GBR for the PCEF/eNodeB).
//! * [`FlarePlugin`] — the UE-side rate adapter: it *always* requests the
//!   network-assigned encoding, eliminating the client/network
//!   mis-coordination of AVIS-style systems.
//! * [`PcrfRegistry`] — the policy function's view of which flows exist,
//!   giving the server the data-flow count `n`.
//! * [`messages`] — the wire protocol between plugin and
//!   server, carrying only privacy-preserving information.
//!
//! # Example
//!
//! ```
//! use flare_core::{ClientInfo, FlareConfig, OneApiServer};
//! use flare_has::BitrateLadder;
//! use flare_lte::channel::StaticChannel;
//! use flare_lte::scheduler::TwoPhaseGbr;
//! use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
//! use flare_sim::Time;
//!
//! let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
//! let flow = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(12))));
//!
//! let mut server = OneApiServer::new(FlareConfig::default());
//! server.register_video(ClientInfo::new(flow, BitrateLadder::testbed()));
//!
//! // One BAI of MAC activity, then assignment:
//! for ms in 0..10_000u64 {
//!     enb.step_tti(Time::from_millis(ms));
//! }
//! let report = enb.take_report(Time::from_secs(10));
//! let assignments = server.assign(&report, enb.link_adaptation(), enb.config().rbs_per_tti);
//! assert_eq!(assignments.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod client;
mod clock;
mod config;
pub mod control;
pub mod messages;
mod pcrf;
mod plugin;
mod server;

pub use algorithm::{StabilityFilter, StabilityState};
pub use client::{ClientInfo, ClientPrefs};
pub use clock::{ManualClock, SolveClock, WallClock};
pub use config::{FlareConfig, RobustnessConfig, SolveMode};
pub use control::{ControlPlane, ControlPlaneStats, FaultModel, OutageWindow};
pub use pcrf::PcrfRegistry;
pub use plugin::{FlarePlugin, ResilientPlugin};
pub use server::{Assignment, OneApiServer};
