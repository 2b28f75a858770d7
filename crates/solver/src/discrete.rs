//! Discrete solvers for the exact ladder-constrained problem.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::spec::{FlowSpec, ProblemSpec};
use crate::utility::data_utility;
use crate::{finish, DiscreteSolution};

/// Precomputes `utility(ladder[l])` for every level of one flow.
///
/// The table holds the *same* `f64`s `FlowSpec::utility` would return (a
/// pure function of `(beta, theta, rate)`), so table-driven evaluation is
/// bit-identical to inline evaluation — it only trades repeated arithmetic
/// for a lookup.
fn level_utils(f: &FlowSpec) -> Vec<f64> {
    f.ladder().iter().map(|&rate| f.utility(rate)).collect()
}

/// Incremental evaluation state: video utility sum and RBs consumed.
///
/// `utils[i][l]` must equal `spec.flows()[i].utility(ladder[l])` (see
/// [`level_utils`]); `cur_penalty` caches `penalty(used_rbs)` for the
/// current state so `delta` does one penalty evaluation instead of two.
struct Eval<'a> {
    spec: &'a ProblemSpec,
    utils: &'a [Vec<f64>],
    levels: Vec<usize>,
    video_util: f64,
    used_rbs: f64,
    cur_penalty: f64,
}

impl<'a> Eval<'a> {
    fn new(spec: &'a ProblemSpec, utils: &'a [Vec<f64>]) -> Self {
        let levels: Vec<usize> = spec.flows().iter().map(|f| f.min_level()).collect();
        let mut e = Eval {
            spec,
            utils,
            levels,
            video_util: 0.0,
            used_rbs: 0.0,
            cur_penalty: 0.0,
        };
        for (i, f) in spec.flows().iter().enumerate() {
            let rate = f.ladder()[e.levels[i]];
            e.video_util += e.utils[i][e.levels[i]];
            e.used_rbs += f.weight() * rate;
        }
        e.cur_penalty = e.penalty(e.used_rbs);
        e
    }

    fn penalty(&self, used_rbs: f64) -> f64 {
        let r = used_rbs / self.spec.total_rbs();
        if r > self.spec.r_cap() + 1e-12 {
            return f64::NEG_INFINITY;
        }
        data_utility(self.spec.n_data(), self.spec.alpha(), r.clamp(0.0, 1.0))
    }

    fn objective(&self) -> f64 {
        self.video_util + self.cur_penalty
    }

    /// Objective change from moving flow `i` to `to_level`.
    fn delta(&self, i: usize, to_level: usize) -> f64 {
        let f = &self.spec.flows()[i];
        let from = f.ladder()[self.levels[i]];
        let to = f.ladder()[to_level];
        let new_used = self.used_rbs + f.weight() * (to - from);
        let new_pen = self.penalty(new_used);
        if new_pen == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        (self.utils[i][to_level] - self.utils[i][self.levels[i]]) + (new_pen - self.cur_penalty)
    }

    fn apply(&mut self, i: usize, to_level: usize) {
        let f = &self.spec.flows()[i];
        let from = f.ladder()[self.levels[i]];
        let to = f.ladder()[to_level];
        self.video_util += self.utils[i][to_level] - self.utils[i][self.levels[i]];
        self.used_rbs += f.weight() * (to - from);
        self.levels[i] = to_level;
        self.cur_penalty = self.penalty(self.used_rbs);
    }
}

/// A cached marginal gain for upgrading one flow a single ladder level,
/// ordered so the [`BinaryHeap`] pops the largest gain first and breaks
/// exact ties toward the lowest flow index (matching the strict `>` of the
/// linear scan this heap replaces).
struct Upgrade {
    delta: f64,
    flow: usize,
}

impl Ord for Upgrade {
    fn cmp(&self, other: &Self) -> Ordering {
        self.delta
            .total_cmp(&other.delta)
            .then_with(|| Reverse(self.flow).cmp(&Reverse(other.flow)))
    }
}

impl PartialOrd for Upgrade {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Upgrade {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Upgrade {}

/// Solves the exact discrete problem by greedy marginal-gain ascent followed
/// by a single-move and pairwise-swap local search.
///
/// Starting from every flow at its floor, the upgrade with the largest
/// positive objective gain is applied repeatedly; the polish phase then
/// tries single up/down moves and `(down_i, up_j)` swaps until none improve.
/// Property tests pin this against [`solve_exhaustive`] on randomized small
/// instances.
///
/// For an overloaded instance (floors already violate the RB cap) the floor
/// assignment is returned with a `-inf` objective, matching
/// [`crate::solve_relaxed`].
pub fn solve_discrete(spec: &ProblemSpec) -> DiscreteSolution {
    let utils: Vec<Vec<f64>> = spec.flows().iter().map(level_utils).collect();
    let mut eval = Eval::new(spec, &utils);
    if spec.is_overloaded() {
        return finish(spec, eval.levels);
    }

    const EPS: f64 = 1e-12;
    // Accepted state transitions, reported as `DiscreteSolution::steps`.
    let mut steps: u64 = 0;

    // Greedy ascent on single-level upgrades, organised as a CELF-style
    // lazy-invalidation max-heap over cached marginal gains instead of an
    // O(n) rescan per accepted step. The data-utility penalty is concave in
    // used RBs and ladders ascend strictly, so accepting any upgrade only
    // *shrinks* every other flow's gain: cached keys are upper bounds, and
    // a popped entry whose freshly recomputed gain still tops the heap is
    // the true argmax. The accepted sequence (and thus `steps` and the
    // final levels) is identical to the scan's, step for step.
    let mut heap: BinaryHeap<Upgrade> = BinaryHeap::with_capacity(eval.levels.len());
    for i in 0..eval.levels.len() {
        if eval.levels[i] >= spec.flows()[i].max_level() {
            continue;
        }
        let delta = eval.delta(i, eval.levels[i] + 1);
        if delta > EPS {
            heap.push(Upgrade { delta, flow: i });
        }
    }
    while let Some(popped) = heap.pop() {
        let i = popped.flow;
        let delta = eval.delta(i, eval.levels[i] + 1);
        if delta > EPS {
            let fresh = Upgrade { delta, flow: i };
            if heap.peek().is_some_and(|top| *top > fresh) {
                // Stale: a rival's cached bound beats the fresh gain.
                heap.push(fresh);
            } else {
                let to = eval.levels[i] + 1;
                eval.apply(i, to);
                steps += 1;
                if eval.levels[i] < spec.flows()[i].max_level() {
                    let next = eval.delta(i, eval.levels[i] + 1);
                    if next > EPS {
                        heap.push(Upgrade {
                            delta: next,
                            flow: i,
                        });
                    }
                }
            }
        }
        // A non-positive fresh gain can never recover (monotone shrinkage),
        // so the flow simply leaves the ascent.
    }

    // Local-search polish: single moves and pairwise swaps.
    let n = eval.levels.len();
    loop {
        let mut improved = false;
        // Single up/down moves.
        for i in 0..n {
            let f = &spec.flows()[i];
            let candidates = [
                eval.levels[i]
                    .checked_sub(1)
                    .filter(|&l| l >= f.min_level()),
                Some(eval.levels[i] + 1).filter(|&l| l <= f.max_level()),
            ];
            for cand in candidates.into_iter().flatten() {
                if eval.delta(i, cand) > EPS {
                    eval.apply(i, cand);
                    improved = true;
                    steps += 1;
                }
            }
        }
        // Pairwise swaps: downgrade i to fund an upgrade of j. A swap is
        // kept when it strictly improves the objective, or keeps it equal
        // while strictly freeing resource blocks (the freed budget enables
        // later single-move upgrades; the lexicographic potential
        // (objective, −used RBs) strictly increases, so no cycles).
        for i in 0..n {
            for j in 0..n {
                // Re-check every iteration: a successful swap may have moved
                // flow i down to its floor already.
                if eval.levels[i] <= spec.flows()[i].min_level() {
                    break;
                }
                if i == j || eval.levels[j] >= spec.flows()[j].max_level() {
                    continue;
                }
                let before = eval.objective();
                let used_before = eval.used_rbs;
                let li = eval.levels[i];
                let lj = eval.levels[j];
                eval.apply(i, li - 1);
                eval.apply(j, lj + 1);
                let after = eval.objective();
                let keeps = after > before + EPS
                    || (after >= before - EPS && eval.used_rbs < used_before - 1e-9);
                if keeps {
                    improved = true;
                    steps += 1;
                } else {
                    eval.apply(j, lj);
                    eval.apply(i, li);
                }
            }
        }
        if !improved {
            break;
        }
    }

    let mut sol = finish(spec, eval.levels);
    sol.steps = steps;
    sol
}

/// Exhaustively enumerates every feasible level combination.
///
/// Intended for validating [`solve_discrete`] in tests and for tiny
/// instances only.
///
/// # Panics
///
/// Panics if the search space exceeds 2²² combinations.
pub fn solve_exhaustive(spec: &ProblemSpec) -> DiscreteSolution {
    let space: f64 = spec
        .flows()
        .iter()
        .map(|f| (f.max_level() - f.min_level() + 1) as f64)
        .product();
    assert!(
        space <= (1 << 22) as f64,
        "exhaustive search space too large: {space}"
    );

    let n = spec.flows().len();
    let mut best_levels: Vec<usize> = spec.flows().iter().map(|f| f.min_level()).collect();
    let mut best_obj = f64::NEG_INFINITY;
    let mut current = best_levels.clone();

    fn recurse(
        spec: &ProblemSpec,
        i: usize,
        n: usize,
        current: &mut Vec<usize>,
        best_levels: &mut Vec<usize>,
        best_obj: &mut f64,
    ) {
        if i == n {
            let rates: Vec<f64> = spec
                .flows()
                .iter()
                .zip(current.iter())
                .map(|(f, &l)| f.ladder()[l])
                .collect();
            let obj = spec.objective(&rates);
            if obj > *best_obj {
                *best_obj = obj;
                best_levels.clone_from(current);
            }
            return;
        }
        let f = &spec.flows()[i];
        for l in f.min_level()..=f.max_level() {
            current[i] = l;
            recurse(spec, i + 1, n, current, best_levels, best_obj);
        }
        current[i] = f.min_level();
    }

    recurse(spec, 0, n, &mut current, &mut best_levels, &mut best_obj);
    let mut sol = finish(spec, best_levels);
    sol.steps = space as u64;
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FlowSpec;
    use proptest::prelude::*;

    const N: f64 = 500_000.0;

    fn paper_flow(bits_per_rb: f64, max_level: usize) -> FlowSpec {
        FlowSpec::new(
            vec![100e3, 250e3, 500e3, 1000e3, 2000e3, 3000e3],
            10.0,
            0.2e6,
            10.0 / bits_per_rb,
            max_level,
        )
    }

    #[test]
    fn underloaded_cell_saturates_all_flows() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(1424.0, 5))
            .flow(paper_flow(1424.0, 5))
            .build()
            .unwrap();
        let sol = solve_discrete(&spec);
        assert_eq!(sol.levels, vec![5, 5]);
    }

    #[test]
    fn stability_cap_is_respected() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(1424.0, 2))
            .build()
            .unwrap();
        let sol = solve_discrete(&spec);
        assert_eq!(sol.levels, vec![2]);
    }

    #[test]
    fn capacity_limits_levels() {
        // 32 bits/RB -> whole-cell capacity 1.6 Mbps: flows must share.
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(32.0, 5))
            .flow(paper_flow(32.0, 5))
            .build()
            .unwrap();
        let sol = solve_discrete(&spec);
        assert!(sol.r <= 1.0 + 1e-9);
        // Best feasible split of 1.6 Mbps over the ladder is {500k, 1000k}
        // (utility 6 + 8), beating {250k, 1000k} (2 + 8) and any symmetric
        // pair; verify against brute force too.
        let mut sorted = sol.levels.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3]);
        let opt = solve_exhaustive(&spec);
        assert!((sol.objective - opt.objective).abs() < 1e-9);
    }

    #[test]
    fn data_flows_temper_the_assignment() {
        let without = ProblemSpec::builder()
            .total_rbs(N)
            .flow(paper_flow(256.0, 5))
            .build()
            .unwrap();
        let with = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(4, 1.0)
            .flow(paper_flow(256.0, 5))
            .build()
            .unwrap();
        assert!(solve_discrete(&with).levels[0] <= solve_discrete(&without).levels[0]);
    }

    #[test]
    fn matches_exhaustive_on_paper_shaped_instance() {
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .data_flows(2, 1.0)
            .flow(paper_flow(128.0, 5))
            .flow(paper_flow(328.0, 5))
            .flow(paper_flow(656.0, 5))
            .build()
            .unwrap();
        let greedy = solve_discrete(&spec);
        let opt = solve_exhaustive(&spec);
        assert!(
            greedy.objective >= opt.objective - 1e-9,
            "greedy {} < optimal {}",
            greedy.objective,
            opt.objective
        );
    }

    #[test]
    fn overloaded_returns_floors() {
        let f = FlowSpec::new(vec![5000e3, 6000e3], 10.0, 0.2e6, 10.0 / 16.0, 1);
        let spec = ProblemSpec::builder().total_rbs(N).flow(f).build().unwrap();
        let sol = solve_discrete(&spec);
        assert_eq!(sol.levels, vec![0]);
        assert_eq!(sol.objective, f64::NEG_INFINITY);
    }

    #[test]
    fn min_level_constraints_hold() {
        let f = paper_flow(128.0, 5).with_min_level(2);
        let spec = ProblemSpec::builder().total_rbs(N).flow(f).build().unwrap();
        let sol = solve_discrete(&spec);
        assert!(sol.levels[0] >= 2);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exhaustive_guards_search_space() {
        let flows: Vec<FlowSpec> = (0..10)
            .map(|_| {
                FlowSpec::new(
                    (1..=12).map(|k| k as f64 * 100e3).collect(),
                    10.0,
                    0.2e6,
                    1e-5,
                    11,
                )
            })
            .collect();
        let spec = ProblemSpec::builder()
            .total_rbs(N)
            .flows(flows)
            .build()
            .unwrap();
        let _ = solve_exhaustive(&spec);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn greedy_matches_exhaustive(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..5),
            n_data in 0usize..5,
            alpha in 0.25f64..4.0,
            caps in prop::collection::vec(0usize..6, 1..5),
        ) {
            let flows: Vec<FlowSpec> = bits_per_rb
                .iter()
                .zip(caps.iter().cycle())
                .map(|(&b, &cap)| paper_flow(b, cap))
                .collect();
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, alpha)
                .flows(flows)
                .build()
                .unwrap();
            let greedy = solve_discrete(&spec);
            let opt = solve_exhaustive(&spec);
            prop_assert!(
                greedy.objective >= opt.objective - 1e-9,
                "greedy {} < optimal {} (levels {:?} vs {:?})",
                greedy.objective, opt.objective, greedy.levels, opt.levels
            );
        }

        #[test]
        fn round_down_preserves_feasibility_and_never_beats_exact(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..8),
            n_data in 0usize..6,
        ) {
            use crate::{round_down, solve_relaxed};
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, 1.0)
                .flows(bits_per_rb.iter().map(|&b| paper_flow(b, 5)))
                .build()
                .unwrap();
            let relaxed = solve_relaxed(&spec);
            let rounded = round_down(&spec, &relaxed);
            // Rounding down only lowers rates, so the RB fraction shrinks.
            prop_assert!(rounded.r <= relaxed.r + 1e-9);
            for (f, &l) in spec.flows().iter().zip(&rounded.levels) {
                prop_assert!(l >= f.min_level() && l <= f.max_level());
            }
            // Algorithm 1's rounding is a heuristic: it can never beat the
            // exact discrete solver.
            let exact = solve_discrete(&spec);
            prop_assert!(exact.objective >= rounded.objective - 1e-9);
            // And the relaxation upper-bounds every discrete solution.
            if relaxed.feasible {
                prop_assert!(relaxed.objective >= exact.objective - 1e-9);
            }
        }

        #[test]
        fn output_satisfies_rb_budget_4a_within_one_rb(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..10),
            n_data in 0usize..8,
            alpha in 0.25f64..4.0,
        ) {
            // Constraint (4a): Σ w_u·R_u ≤ r_cap·N. Recompute the left side
            // from the returned levels (not the solver's own bookkeeping)
            // and allow one RB of slack for float accumulation.
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, alpha)
                .flows(bits_per_rb.iter().map(|&b| paper_flow(b, 5)))
                .build()
                .unwrap();
            let sol = solve_discrete(&spec);
            prop_assume!(!spec.is_overloaded());
            let used_rbs: f64 = spec
                .flows()
                .iter()
                .zip(&sol.levels)
                .map(|(f, &l)| f.weight() * f.ladder()[l])
                .sum();
            prop_assert!(
                used_rbs <= spec.r_cap() * spec.total_rbs() + 1.0,
                "(4a) violated: {used_rbs} RBs used of {} allowed",
                spec.r_cap() * spec.total_rbs()
            );
        }

        #[test]
        fn output_never_exceeds_one_step_up_4b(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..10),
            prev_levels in prop::collection::vec(0usize..6, 1..10),
            n_data in 0usize..4,
        ) {
            // Constraint (4b): R_u ≤ ladder(L_prev + 1). The server encodes
            // it as each flow's max_level; the solution may never assign a
            // level (or rate) above one step over the previous BAI's.
            let ladder_len = 6usize;
            let flows: Vec<FlowSpec> = bits_per_rb
                .iter()
                .zip(prev_levels.iter().cycle())
                .map(|(&b, &prev)| paper_flow(b, (prev + 1).min(ladder_len - 1)))
                .collect();
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, 1.0)
                .flows(flows)
                .build()
                .unwrap();
            let sol = solve_discrete(&spec);
            for ((f, &l), &prev) in
                spec.flows().iter().zip(&sol.levels).zip(prev_levels.iter().cycle())
            {
                prop_assert!(l <= prev + 1, "level {l} skips above prev {prev} + 1");
                let cap_rate = f.ladder()[(prev + 1).min(ladder_len - 1)];
                prop_assert!(f.ladder()[l] <= cap_rate + 1e-9);
            }
        }

        #[test]
        fn solutions_are_always_feasible(
            bits_per_rb in prop::collection::vec(32.0f64..1424.0, 1..10),
            n_data in 0usize..8,
        ) {
            let spec = ProblemSpec::builder()
                .total_rbs(N)
                .data_flows(n_data, 1.0)
                .flows(bits_per_rb.iter().map(|&b| paper_flow(b, 5)))
                .build()
                .unwrap();
            let sol = solve_discrete(&spec);
            for (f, &l) in spec.flows().iter().zip(&sol.levels) {
                prop_assert!(l >= f.min_level() && l <= f.max_level());
            }
            if !spec.is_overloaded() {
                prop_assert!(sol.r <= spec.r_cap() + 1e-9);
                prop_assert!(sol.objective.is_finite());
            }
        }
    }
}
