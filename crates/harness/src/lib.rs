//! `flare-harness`: parallel experiment execution plus runtime invariants.
//!
//! Two cooperating pieces:
//!
//! 1. A [work-stealing thread pool](pool) that fans independent simulation
//!    runs across cores while preserving bit-identical output: jobs construct
//!    all of their state (configs, RNG streams, trace recorders) inside the
//!    job closure, so the pool only changes which thread executes a run.
//!    [`serial_parallel_divergence`] makes that contract executable.
//! 2. A [runtime invariant layer](invariant) that checks the paper's
//!    feasibility constraints — Eq. (4a) RB-budget feasibility, Eq. (4b)
//!    one-step-up, MAC-layer RB conservation, GBR lease return, player
//!    buffer sanity, and monotone versioned installs — inline while a run
//!    executes, surfacing violations as structured trace events with an
//!    optional hard-failure (panic) mode for tests and CI.
//!
//! The crate deliberately depends only on `flare-sim` (time) and
//! `flare-trace` (event surface): observations are plain numbers, and job
//! closures are generic, so every experiment family in `flare-scenarios`
//! can adopt the harness without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariant;
pub mod pool;

pub use invariant::{
    Invariant, InvariantSet, LeaseReturn, MonotoneInstall, Observation, OneStepUp, PlayerSanity,
    RateFeasibility, RbConservation, Violation,
};
pub use pool::{run_indexed, serial_parallel_divergence};
