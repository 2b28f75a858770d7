//! The continuous relaxation solver (Proposition 1).
//!
//! Replacing `R_u ∈ ladder_u` with `r_u(1) ≤ R_u ≤ r_u(M_u)` yields a convex
//! program. Because the objective strictly decreases in `r`, the optimal `r`
//! is the smallest feasible one, `r = Σ w_u R_u / N`, and the problem
//! becomes: maximize `Σ β_u(1 − θ_u/R_u) + n·α·log(1 − Σ w_u R_u / N)` over
//! a box. The KKT stationarity condition introduces a single scalar price
//! `μ` on resource-block consumption:
//!
//! ```text
//! β_u θ_u / R_u² = w_u · μ          ⇒   R_u(μ) = clamp(√(β_u θ_u / (w_u μ)), lo_u, hi_u)
//! μ = n·α / (N·(1 − r(μ)))          (from the data term)
//! ```
//!
//! `μ ↦ μ·N·(1 − r(μ)) − n·α` is strictly increasing, so the fixed point is
//! found by bisection; a second bisection enforces the hard cap `r ≤ r_cap`
//! when it binds (always the case when there are no data flows).

use crate::spec::ProblemSpec;

/// A solution of the continuous relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousSolution {
    /// Optimal (continuous) bitrate per flow, in spec order.
    pub rates: Vec<f64>,
    /// The implied video RB fraction `r`: the rates' RB cost over the
    /// cell's RBs. As for [`crate::DiscreteSolution::r`], an overloaded
    /// instance reports the floors' own fraction, above the cap and
    /// possibly above 1, unclamped.
    pub r: f64,
    /// The objective (3) at this point (`-inf` when the instance is
    /// overloaded).
    pub objective: f64,
    /// `false` when even the all-minimum assignment violates the RB cap; the
    /// returned rates are then the per-flow floors.
    pub feasible: bool,
    /// The RB shadow price `μ` at the optimum (0 when no constraint binds).
    pub price: f64,
    /// Bisection iterations performed, for profiling/tracing (0 when the
    /// instance is solved without any bisection).
    pub steps: u64,
}

const BISECT_ITERS: usize = 200;

/// Per-flow stationary point at price `mu`, clamped into the box.
fn rate_at_price(lo: f64, hi: f64, beta: f64, theta: f64, weight: f64, mu: f64) -> f64 {
    if weight <= 0.0 {
        // The flow consumes no RBs per unit rate: saturate it.
        return hi;
    }
    let num = beta * theta;
    if num <= 0.0 {
        // No marginal utility at any rate: keep the floor.
        return lo;
    }
    if mu <= 0.0 {
        return hi;
    }
    (num / (weight * mu)).sqrt().clamp(lo, hi)
}

fn rates_at_price(spec: &ProblemSpec, mu: f64) -> Vec<f64> {
    spec.flows()
        .iter()
        .map(|f| {
            let (lo, hi) = f.bounds();
            rate_at_price(lo, hi, f.beta(), f.theta(), f.weight(), mu)
        })
        .collect()
}

fn fraction_at_price(spec: &ProblemSpec, mu: f64) -> f64 {
    spec.video_fraction(&rates_at_price(spec, mu))
}

/// Finds `mu` such that `r(mu) ≈ target` (assuming `r(0) > target`).
/// Adds the iterations performed to `steps`.
fn price_for_fraction(spec: &ProblemSpec, target: f64, steps: &mut u64) -> f64 {
    let mut lo = 0.0;
    let mut hi = 1.0;
    while fraction_at_price(spec, hi) > target {
        hi *= 4.0;
        *steps += 1;
        if hi > 1e30 {
            break;
        }
    }
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        *steps += 1;
        if fraction_at_price(spec, mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Solves the continuous relaxation of (3)–(4).
///
/// Runs in `O(flows · iterations)` with two nested bisections at most; for
/// the paper's 128-client scaling experiment this is tens of microseconds.
///
/// # Example
///
/// ```
/// use flare_solver::{FlowSpec, ProblemSpec, solve_relaxed};
///
/// let spec = ProblemSpec::builder()
///     .total_rbs(500_000.0)
///     .data_flows(2, 1.0)
///     .flow(FlowSpec::new(vec![100e3, 500e3, 3000e3], 10.0, 200e3, 0.2, 2))
///     .build()?;
/// let sol = solve_relaxed(&spec);
/// assert!(sol.feasible);
/// assert!(sol.rates[0] >= 100e3 && sol.rates[0] <= 3000e3);
/// # Ok::<(), flare_solver::SpecError>(())
/// ```
pub fn solve_relaxed(spec: &ProblemSpec) -> ContinuousSolution {
    if spec.is_overloaded() {
        let rates: Vec<f64> = spec.flows().iter().map(|f| f.bounds().0).collect();
        let r = spec.video_fraction(&rates);
        return ContinuousSolution {
            objective: f64::NEG_INFINITY,
            r,
            rates,
            feasible: false,
            price: f64::INFINITY,
            steps: 0,
        };
    }

    let n = spec.total_rbs();
    let penalty = spec.n_data() as f64 * spec.alpha();
    let mut steps: u64 = 0;

    let mut mu = if penalty > 0.0 {
        // Fixed point of g(mu) = mu*N*(1 - r(mu)) - n*alpha, strictly
        // increasing in mu.
        let g = |mu: f64| mu * n * (1.0 - fraction_at_price(spec, mu)) - penalty;
        let mut lo = 0.0;
        let mut hi = 1.0;
        while g(hi) < 0.0 {
            hi *= 4.0;
            steps += 1;
            if hi > 1e30 {
                break;
            }
        }
        for _ in 0..BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            steps += 1;
            if g(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    } else {
        0.0
    };

    // Enforce the hard cap r <= r_cap if it still binds.
    if fraction_at_price(spec, mu) > spec.r_cap() {
        mu = mu.max(price_for_fraction(spec, spec.r_cap(), &mut steps));
    }

    let rates = rates_at_price(spec, mu);
    let r = spec.video_fraction(&rates);
    let objective = spec.objective(&rates);
    ContinuousSolution {
        rates,
        r,
        objective,
        feasible: true,
        price: mu,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FlowSpec;
    use crate::utility::video_marginal;
    use proptest::prelude::*;

    /// Paper-style flow: ladder 100..3000 kbps, beta 10, theta 0.2 Mbps.
    fn paper_flow(weight: f64) -> FlowSpec {
        FlowSpec::new(
            vec![100e3, 250e3, 500e3, 1000e3, 2000e3, 3000e3],
            10.0,
            0.2e6,
            weight,
            5,
        )
    }

    /// A BAI of 10 s at 50 RB/TTI.
    const N: f64 = 500_000.0;

    /// Weight for a flow whose link sustains `bits_per_rb` bits per RB over
    /// a 10 s BAI: w = B / bits_per_rb = 10 / bits_per_rb.
    fn weight(bits_per_rb: f64) -> f64 {
        10.0 / bits_per_rb
    }

    #[test]
    fn saturates_when_cell_is_underloaded() {
        // One video flow on a great channel (656 bits/RB), no data flows:
        // capacity = 656*50k/10s = 3.28 Mbps > max ladder rate.
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(weight(656.0)))
            .build()
            .unwrap();
        let sol = solve_relaxed(&spec);
        assert!(sol.feasible);
        assert_eq!(sol.rates[0], 3000e3);
        assert!(sol.r < 1.0);
    }

    #[test]
    fn capacity_cap_binds_without_data_flows() {
        // Poor channel: 32 bits/RB -> whole-cell capacity = 1.6 Mbps, below
        // the 3 Mbps ladder top, so the r <= 1 cap must bind.
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(weight(32.0)))
            .build()
            .unwrap();
        let sol = solve_relaxed(&spec);
        assert!(sol.feasible);
        assert!(
            (sol.r - 1.0).abs() < 1e-6,
            "r should hit the cap, got {}",
            sol.r
        );
        assert!((sol.rates[0] - 1600e3).abs() < 1e3, "rate {}", sol.rates[0]);
    }

    #[test]
    fn data_flows_pull_video_rates_down() {
        let mk = |n_data| {
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, 1.0)
                .flow(paper_flow(weight(128.0)))
                .build()
                .unwrap();
            solve_relaxed(&spec)
        };
        let none = mk(0);
        let some = mk(2);
        let many = mk(8);
        assert!(some.rates[0] < none.rates[0]);
        assert!(many.rates[0] < some.rates[0]);
        assert!(many.r < some.r);
    }

    #[test]
    fn alpha_trades_video_for_data() {
        let mk = |alpha: f64| {
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(4, alpha)
                .flow(paper_flow(weight(128.0)))
                .build()
                .unwrap();
            solve_relaxed(&spec)
        };
        let low = mk(0.25);
        let high = mk(4.0);
        assert!(
            high.rates[0] < low.rates[0],
            "higher alpha must lower video rates"
        );
        assert!(high.r < low.r);
    }

    #[test]
    fn kkt_stationarity_holds_for_interior_flows() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(4, 1.0)
            .flow(paper_flow(weight(128.0)))
            .flow(paper_flow(weight(256.0)))
            .build()
            .unwrap();
        let sol = solve_relaxed(&spec);
        for (f, &rate) in spec.flows().iter().zip(&sol.rates) {
            let (lo, hi) = f.bounds();
            if rate > lo * 1.0001 && rate < hi * 0.9999 {
                // marginal utility == weight * price
                let lhs = video_marginal(f.beta(), f.theta(), rate);
                let rhs = f.weight() * sol.price;
                assert!(
                    (lhs - rhs).abs() / rhs < 1e-6,
                    "stationarity violated: {lhs} vs {rhs}"
                );
            }
        }
        // Fixed point of the data term.
        let want = spec.n_data() as f64 * spec.alpha() / (N * (1.0 - sol.r));
        assert!((sol.price - want).abs() / want < 1e-6);
    }

    #[test]
    fn overloaded_instance_returns_floors() {
        // Terrible channel and a huge ladder floor: even minimum rates
        // exceed the cell.
        let f = FlowSpec::new(vec![5000e3, 6000e3], 10.0, 0.2e6, weight(16.0), 1);
        let spec = ProblemSpec::builder().total_rbs(N).flow(f).build().unwrap();
        let sol = solve_relaxed(&spec);
        assert!(!sol.feasible);
        assert_eq!(sol.rates, vec![5000e3]);
        assert_eq!(sol.objective, f64::NEG_INFINITY);
    }

    #[test]
    fn no_video_flows_is_trivially_solved() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(3, 1.0)
            .build()
            .unwrap();
        let sol = solve_relaxed(&spec);
        assert!(sol.feasible);
        assert!(sol.rates.is_empty());
        assert_eq!(sol.r, 0.0);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn solution_beats_grid_search() {
        // Brute-force the 2-flow relaxation on a grid and confirm the solver
        // is at least as good (within tolerance).
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(3, 1.0)
            .flow(paper_flow(weight(128.0)))
            .flow(paper_flow(weight(328.0)))
            .build()
            .unwrap();
        let sol = solve_relaxed(&spec);
        let mut best = f64::NEG_INFINITY;
        let steps = 200;
        for i in 0..=steps {
            for j in 0..=steps {
                let r0 = 100e3 + (3000e3 - 100e3) * i as f64 / steps as f64;
                let r1 = 100e3 + (3000e3 - 100e3) * j as f64 / steps as f64;
                best = best.max(spec.objective(&[r0, r1]));
            }
        }
        assert!(
            sol.objective >= best - 1e-6,
            "solver {} worse than grid {}",
            sol.objective,
            best
        );
    }

    proptest! {
        #[test]
        fn feasibility_and_bounds_always_hold(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..12),
            n_data in 0usize..8,
            alpha in 0.1f64..4.0,
        ) {
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, alpha)
                .flows(bits_per_rb.iter().map(|&b| paper_flow(weight(b))))
                .build()
                .unwrap();
            let sol = solve_relaxed(&spec);
            prop_assert!(sol.feasible);
            prop_assert!(sol.r <= spec.r_cap() + 1e-6);
            for (f, &rate) in spec.flows().iter().zip(&sol.rates) {
                let (lo, hi) = f.bounds();
                prop_assert!(rate >= lo - 1e-9 && rate <= hi + 1e-9);
            }
        }

        #[test]
        fn local_perturbations_never_improve(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..6),
            n_data in 1usize..6,
        ) {
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, 1.0)
                .flows(bits_per_rb.iter().map(|&b| paper_flow(weight(b))))
                .build()
                .unwrap();
            let sol = solve_relaxed(&spec);
            for i in 0..sol.rates.len() {
                for delta in [-1e3, 1e3] {
                    let mut rates = sol.rates.clone();
                    let (lo, hi) = spec.flows()[i].bounds();
                    rates[i] = (rates[i] + delta).clamp(lo, hi);
                    prop_assert!(
                        spec.objective(&rates) <= sol.objective + 1e-7,
                        "perturbation improved the objective"
                    );
                }
            }
        }
    }
}
