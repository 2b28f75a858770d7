//! Optimization substrate for FLARE's per-BAI bitrate assignment.
//!
//! The paper solves, once per bitrate assignment interval (BAI):
//!
//! ```text
//! max_{r ∈ [0,1], R_u ∈ ladder_u}  Σ_u β_u (1 − θ_u/R_u) + n·α·log(1 − r)   (3)
//! s.t.  Σ_u w_u · R_u ≤ r · N,     R_u ≤ ladder_u(L_u^{prev} + 1)           (4)
//! ```
//!
//! where `w_u = B·n_u / bits_u` converts a bitrate into the resource blocks
//! flow `u` will need, extrapolating from the previous BAI's `(n_u, b_u)`
//! counters. The paper uses KNITRO; this crate replaces it with two solvers
//! that exploit the problem's structure:
//!
//! * [`solve_relaxed`] — the continuous relaxation of Proposition 1. Since
//!   the objective is strictly decreasing in `r`, the optimum sets
//!   `r = Σ w_u R_u / N`, leaving a separable concave program whose KKT
//!   conditions give `R_u(μ) = clamp(√(β_u θ_u / (w_u μ)), lo_u, hi_u)` for
//!   a scalar price `μ`; the right `μ` is found by bisection.
//! * [`solve_discrete`] — the exact problem over the ladder, solved by
//!   greedy marginal-gain ascent plus a local-search polish; property tests
//!   validate it against [`solve_exhaustive`] on small instances.
//!
//! [`round_down`] converts a relaxed solution into ladder levels the way
//! Algorithm 1 does (`L = max{k : r(k) ≤ R*}`).
//!
//! # Example
//!
//! ```
//! use flare_solver::{FlowSpec, ProblemSpec, solve_relaxed, solve_discrete, round_down};
//!
//! let spec = ProblemSpec::builder()
//!     .total_rbs(500_000.0)
//!     .data_flows(1, 1.0)
//!     .flow(FlowSpec::new(vec![200e3, 450e3, 790e3, 1100e3], 10.0, 200e3, 0.15, 3))
//!     .build()?;
//! let relaxed = solve_relaxed(&spec);
//! let rounded = round_down(&spec, &relaxed);
//! let exact = solve_discrete(&spec);
//! assert!(exact.objective + 1e-9 >= rounded.objective);
//! # Ok::<(), flare_solver::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod barrier;
mod discrete;
mod relaxed;
mod spec;
pub mod utility;

pub use discrete::{solve_discrete, solve_exhaustive};
pub use relaxed::{solve_relaxed, ContinuousSolution};
pub use spec::{FlowSpec, ProblemSpec, ProblemSpecBuilder, SpecError};

/// A discrete assignment: one ladder level per video flow.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSolution {
    /// Chosen ladder index per flow, in `ProblemSpec` flow order.
    pub levels: Vec<usize>,
    /// The corresponding bitrates in bits/second.
    pub rates: Vec<f64>,
    /// The fraction of the cell's RBs the chosen levels need for video
    /// (their RB cost over [`ProblemSpec::total_rbs`]). At most the RB cap
    /// on a feasible instance. On an overloaded one the levels are the
    /// floors and `r` is what the floors alone need, which exceeds the cap
    /// and can exceed 1: 1.5 means the floors would take one and a half
    /// cells' worth of RBs, so the MAC cannot deliver them all. `r` is
    /// kept unclamped so it still says how far the cell is overloaded.
    pub r: f64,
    /// The achieved objective value of (3).
    pub objective: f64,
    /// Solver work counter, for profiling/tracing: accepted state
    /// transitions for [`solve_discrete`], leaf evaluations for
    /// [`solve_exhaustive`], and the producing relaxation's bisection
    /// iterations for [`round_down`].
    pub steps: u64,
}

/// Rounds a relaxed solution down to ladder levels, as Algorithm 1 does:
/// `L_u = max{k : r_u(k) ≤ R_u*}` (falling back to the lowest level when
/// even it exceeds `R_u*`).
pub fn round_down(spec: &ProblemSpec, relaxed: &ContinuousSolution) -> DiscreteSolution {
    let levels: Vec<usize> = spec
        .flows()
        .iter()
        .zip(&relaxed.rates)
        .map(|(f, &r)| {
            let mut level = f.min_level();
            for k in f.min_level()..=f.max_level() {
                if f.ladder()[k] <= r + 1e-9 {
                    level = k;
                }
            }
            level
        })
        .collect();
    let mut sol = finish(spec, levels);
    sol.steps = relaxed.steps;
    sol
}

/// Builds a [`DiscreteSolution`] from levels, computing `r` and the
/// objective.
pub(crate) fn finish(spec: &ProblemSpec, levels: Vec<usize>) -> DiscreteSolution {
    let rates: Vec<f64> = spec
        .flows()
        .iter()
        .zip(&levels)
        .map(|(f, &l)| f.ladder()[l])
        .collect();
    let r = spec.video_fraction(&rates);
    let objective = spec.objective(&rates);
    DiscreteSolution {
        levels,
        rates,
        r,
        objective,
        steps: 0,
    }
}
