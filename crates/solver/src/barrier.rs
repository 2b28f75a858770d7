//! An independent barrier-method solver for the continuous relaxation.
//!
//! [`crate::solve_relaxed`] exploits the problem's KKT structure; this
//! module solves the *same* convex program by a structure-agnostic interior
//! point method: a logarithmic barrier on the resource-block budget plus
//! cyclic coordinate ascent (per-coordinate golden-section search), with
//! the barrier weight annealed towards zero. It is a test-only oracle: the
//! tests below assert both solvers land on the same optimum.

use crate::relaxed::ContinuousSolution;
use crate::spec::ProblemSpec;
use crate::utility::{data_utility, video_utility};

/// Barrier weights, annealed in order (each is the `1/t` factor on the
/// `ln(budget − used)` term, in objective units).
const WEIGHTS: [f64; 5] = [1.0, 1e-2, 1e-4, 1e-6, 1e-8];
/// Coordinate-ascent passes per barrier stage. Coordinate ascent zigzags
/// slowly along the budget face when several flows share it, so this is
/// deliberately generous.
const PASSES_PER_STAGE: usize = 400;
/// Golden-section iterations per coordinate (60 ≈ machine precision on a
/// Mbps-scale interval).
const GOLDEN_ITERS: usize = 80;

/// Solves the continuous relaxation by an annealed log-barrier interior
/// point method with coordinate ascent.
///
/// Returns the same [`ContinuousSolution`] shape as
/// [`crate::solve_relaxed`] (with `price` reported as the data term's
/// shadow price at the solution). Overloaded instances return the floor
/// assignment, marked infeasible.
fn solve_barrier(spec: &ProblemSpec) -> ContinuousSolution {
    let floors: Vec<f64> = spec.flows().iter().map(|f| f.bounds().0).collect();
    let budget = spec.r_cap() * spec.total_rbs();
    let floor_used: f64 = spec
        .flows()
        .iter()
        .zip(&floors)
        .map(|(f, &r)| f.weight() * r)
        .sum();
    if spec.is_overloaded() || floor_used >= budget {
        let r = spec.video_fraction(&floors);
        return ContinuousSolution {
            objective: if spec.is_overloaded() {
                f64::NEG_INFINITY
            } else {
                spec.objective(&floors)
            },
            r,
            rates: floors,
            feasible: !spec.is_overloaded(),
            price: f64::INFINITY,
            steps: 0,
        };
    }

    let n = spec.total_rbs();
    let n_data = spec.n_data();
    let alpha = spec.alpha();

    // Barrier objective pieces, evaluated incrementally around `used`.
    let barrier_obj = |spec: &ProblemSpec, rates: &[f64], used: f64, w: f64| -> f64 {
        if used >= budget {
            return f64::NEG_INFINITY;
        }
        let video: f64 = spec
            .flows()
            .iter()
            .zip(rates)
            .map(|(f, &r)| video_utility(f.beta(), f.theta(), r))
            .sum();
        video + data_utility(n_data, alpha, (used / n).min(1.0)) + w * (budget - used).ln()
    };

    let mut rates = floors;
    let mut used = floor_used;
    let golden = (5f64.sqrt() - 1.0) / 2.0;
    // Coordinate-ascent line searches performed, reported as `steps`.
    let mut steps: u64 = 0;

    for w in WEIGHTS {
        for _ in 0..PASSES_PER_STAGE {
            let mut moved = false;
            for i in 0..rates.len() {
                let f = &spec.flows()[i];
                let (lo, hi) = f.bounds();
                let used_others = used - f.weight() * rates[i];
                // Stay strictly inside the barrier domain.
                let cap = if f.weight() > 0.0 {
                    ((budget - used_others) / f.weight()).min(hi)
                } else {
                    hi
                };
                if cap <= lo {
                    continue;
                }
                let eval = |x: f64| {
                    let mut probe = rates.clone();
                    probe[i] = x;
                    barrier_obj(spec, &probe, used_others + f.weight() * x, w)
                };
                let (mut a, mut b) = (lo, cap);
                steps += 1;
                for _ in 0..GOLDEN_ITERS {
                    let c = b - golden * (b - a);
                    let d = a + golden * (b - a);
                    if eval(c) < eval(d) {
                        a = c;
                    } else {
                        b = d;
                    }
                }
                let x = 0.5 * (a + b);
                if (x - rates[i]).abs() > 1e-6 {
                    moved = true;
                }
                used = used_others + f.weight() * x;
                rates[i] = x;
            }
            if !moved {
                break;
            }
        }
    }

    let r = spec.video_fraction(&rates);
    let penalty = n_data as f64 * alpha;
    let price = if penalty > 0.0 {
        penalty / (n * (1.0 - r).max(1e-12))
    } else {
        0.0
    };
    ContinuousSolution {
        objective: spec.objective(&rates),
        r,
        rates,
        feasible: true,
        price,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relaxed::solve_relaxed;
    use crate::spec::FlowSpec;
    use proptest::prelude::*;

    const N: f64 = 500_000.0;

    fn paper_flow(bits_per_rb: f64) -> FlowSpec {
        FlowSpec::new(
            vec![100e3, 250e3, 500e3, 1000e3, 2000e3, 3000e3],
            10.0,
            0.2e6,
            10.0 / bits_per_rb,
            5,
        )
    }

    #[test]
    fn agrees_with_kkt_solver_on_a_paper_instance() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(3, 1.0)
            .flow(paper_flow(128.0))
            .flow(paper_flow(328.0))
            .flow(paper_flow(656.0))
            .build()
            .unwrap();
        let kkt = solve_relaxed(&spec);
        let barrier = solve_barrier(&spec);
        assert!(
            (kkt.objective - barrier.objective).abs() < 1e-4,
            "objectives diverge: kkt {} vs barrier {}",
            kkt.objective,
            barrier.objective
        );
    }

    #[test]
    fn agrees_with_kkt_solver_on_a_single_flow_instance() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(2, 1.0)
            .flow(FlowSpec::new(
                vec![100e3, 500e3, 3000e3],
                10.0,
                200e3,
                0.02,
                2,
            ))
            .build()
            .unwrap();
        let kkt = solve_relaxed(&spec);
        let barrier = solve_barrier(&spec);
        assert!((kkt.objective - barrier.objective).abs() < 1e-4);
    }

    #[test]
    fn handles_capacity_bound_instances() {
        // No data flows: the optimum sits on the budget face, which is the
        // regime a naive box-projected coordinate method jams in.
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(32.0))
            .flow(paper_flow(714.0))
            .build()
            .unwrap();
        let kkt = solve_relaxed(&spec);
        let barrier = solve_barrier(&spec);
        assert!(
            (kkt.objective - barrier.objective).abs() < 1e-3,
            "kkt {} vs barrier {}",
            kkt.objective,
            barrier.objective
        );
        assert!(barrier.r <= spec.r_cap() + 1e-9);
    }

    #[test]
    fn overloaded_matches_kkt_behaviour() {
        let f = FlowSpec::new(vec![5000e3, 6000e3], 10.0, 0.2e6, 10.0 / 16.0, 1);
        let spec = ProblemSpec::builder().total_rbs(N).flow(f).build().unwrap();
        let barrier = solve_barrier(&spec);
        assert!(!barrier.feasible);
        assert_eq!(barrier.objective, f64::NEG_INFINITY);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn two_solvers_agree(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..6),
            n_data in 0usize..6,
            alpha in 0.25f64..4.0,
        ) {
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, alpha)
                .flows(bits_per_rb.iter().map(|&b| paper_flow(b)))
                .build()
                .unwrap();
            let kkt = solve_relaxed(&spec);
            let barrier = solve_barrier(&spec);
            // The program is convex: any gap means one solver is wrong.
            prop_assert!(
                (kkt.objective - barrier.objective).abs() <= 1e-3_f64.max(kkt.objective.abs() * 1e-4),
                "kkt {} vs barrier {}", kkt.objective, barrier.objective
            );
            prop_assert!(barrier.r <= spec.r_cap() + 1e-6);
        }
    }
}
