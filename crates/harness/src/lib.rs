//! `flare-harness`: parallel experiment execution plus runtime invariants.
//!
//! Two cooperating pieces:
//!
//! 1. A [thread pool](pool) that fans independent simulation runs across
//!    cores while preserving bit-identical output: jobs construct all of
//!    their state (configs, RNG streams, trace recorders) inside the job
//!    closure, so the pool only changes which thread executes a run.
//!    [`serial_parallel_divergence`] makes that contract executable.
//! 2. A [runtime invariant battery](invariant) that checks the paper's
//!    feasibility constraints — Eq. (4a) RB-budget feasibility, Eq. (4b)
//!    one-step-up, MAC-layer RB conservation, GBR lease return, player
//!    buffer sanity, and monotone versioned installs — inline while a run
//!    executes; a violation is recorded as a structured trace event and
//!    then panics, naming the invariant.
//!
//! The crate deliberately depends only on `flare-sim` (time) and
//! `flare-trace` (event surface): observations are plain numbers, and job
//! closures are generic, so every experiment family in `flare-scenarios`
//! can adopt the harness without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariant;
pub mod pool;

pub use invariant::{InvariantSet, Observation, Violation};
pub use pool::{run_indexed, serial_parallel_divergence};
