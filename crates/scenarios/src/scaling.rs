//! Solver computation-time scaling (Figure 9).
//!
//! The paper plots CDFs of the per-BAI bitrate-selection time with 32, 64,
//! and 128 video clients in a cell, reporting times far below a segment
//! duration (≤ ~12 ms with KNITRO). We measure our solvers the same way:
//! per-BAI problems whose weights come from seeded, realistically
//! distributed channel states.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flare_core::SolveMode;
use flare_sim::rng::stream;
use flare_solver::{round_down, solve_discrete, solve_relaxed, FlowSpec, ProblemSpec};
use rand::Rng;

/// Builds one per-BAI assignment problem with `n_clients` video flows whose
/// channel efficiencies are drawn from the full iTbs range.
pub fn synthetic_problem(n_clients: usize, seed: u64) -> ProblemSpec {
    let mut rng = stream(seed, "scaling", n_clients as u64);
    let ladder: Vec<f64> = vec![100e3, 250e3, 500e3, 1000e3, 2000e3, 3000e3];
    let flows: Vec<FlowSpec> = (0..n_clients)
        .map(|_| {
            // Bits per RB spanning iTbs 0..=26 with 2x MIMO: 32..=1424.
            let bits_per_rb = rng.gen_range(32.0..1424.0);
            let weight = 10.0 / bits_per_rb;
            let max_level = rng.gen_range(0..ladder.len());
            FlowSpec::new(ladder.clone(), 10.0, 0.2e6, weight, max_level)
        })
        .collect();
    ProblemSpec::builder()
        .total_rbs(500_000.0)
        .data_flows(4, 1.0)
        .flows(flows)
        .build()
        .expect("valid synthetic spec")
}

/// Measures `iterations` per-BAI solves with `n_clients` flows, returning
/// one wall-clock duration per solve. The solves run serially on the
/// calling thread, so no worker contention inflates the Figure 9 numbers.
pub fn measure_solve_times(
    n_clients: usize,
    iterations: usize,
    mode: SolveMode,
    seed: u64,
) -> Vec<Duration> {
    (0..iterations)
        .map(|i| {
            let spec = synthetic_problem(n_clients, seed + i as u64);
            let started = Instant::now();
            let solution = match mode {
                SolveMode::Exact => solve_discrete(&spec),
                SolveMode::Relaxed => round_down(&spec, &solve_relaxed(&spec)),
            };
            black_box(solution);
            started.elapsed()
        })
        .collect()
}

/// Milliseconds as `f64` for CDF construction.
pub fn as_millis(times: &[Duration]) -> Vec<f64> {
    times.iter().map(|t| t.as_secs_f64() * 1000.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_problems_are_solvable() {
        for &n in &[32usize, 64, 128] {
            let spec = synthetic_problem(n, 5);
            assert_eq!(spec.flows().len(), n);
            let sol = solve_discrete(&spec);
            assert_eq!(sol.levels.len(), n);
            assert!(sol.objective.is_finite());
        }
    }

    #[test]
    fn solve_times_scale_but_stay_below_segment_duration() {
        let t32 = as_millis(&measure_solve_times(32, 10, SolveMode::Exact, 1));
        let t128 = as_millis(&measure_solve_times(128, 10, SolveMode::Exact, 1));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // The paper's headline: far below a segment duration (seconds).
        assert!(
            mean(&t128) < 1000.0,
            "128-client solve too slow: {} ms",
            mean(&t128)
        );
        // And not absurdly non-monotone (allow noise at these tiny times).
        assert!(mean(&t128) >= mean(&t32) * 0.2);
    }

    #[test]
    fn relaxed_mode_measures_too() {
        let times = measure_solve_times(64, 5, SolveMode::Relaxed, 9);
        assert_eq!(times.len(), 5);
        assert!(as_millis(&times).iter().all(|&ms| ms < 1000.0));
    }
}
