//! Discrete solvers for the exact ladder-constrained problem.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::spec::ProblemSpec;
use crate::utility::data_utility;
use crate::{finish, DiscreteSolution};

/// Objective tolerance: a move is taken only when it gains more than this.
const EPS: f64 = 1e-12;

/// `utility(ladder[l])` for every level of every flow in one flat table:
/// flow `i`'s level `l` sits at `start[i] + l`.
///
/// The table holds the *same* `f64`s `FlowSpec::utility` would return (a
/// pure function of `(beta, theta, rate)`), so table-driven evaluation is
/// bit-identical to inline evaluation — it only trades repeated arithmetic
/// for a lookup.
struct Utils {
    values: Vec<f64>,
    start: Vec<usize>,
}

impl Utils {
    fn new(spec: &ProblemSpec) -> Self {
        let mut values = Vec::with_capacity(spec.flows().iter().map(|f| f.ladder().len()).sum());
        let start = spec
            .flows()
            .iter()
            .map(|f| {
                let start = values.len();
                values.extend(f.ladder().iter().map(|&rate| f.utility(rate)));
                start
            })
            .collect();
        Utils { values, start }
    }

    fn at(&self, i: usize, level: usize) -> f64 {
        self.values[self.start[i] + level]
    }
}

/// What moving one flow between two levels adds to the video utility sum
/// (`du`) and to the RBs consumed (`dw`).
#[derive(Clone, Copy)]
struct Rung {
    du: f64,
    dw: f64,
}

impl Rung {
    /// The entry of a move the flow's floor or cap forbids; never read.
    const NONE: Rung = Rung {
        du: f64::NAN,
        dw: f64::NAN,
    };

    fn bits(self) -> (u64, u64) {
        (self.du.to_bits(), self.dw.to_bits())
    }
}

/// Incremental evaluation state: video utility sum and RBs consumed.
///
/// `cur_penalty` caches `penalty(used_rbs)` for the current state. Each
/// move evaluates the penalty of the state it reaches once:
/// [`Eval::price`] hands it to [`Eval::commit`], and a swap trial
/// [`Eval::shift`]s both flows unpriced and prices only the moved state.
///
/// `down[i]` and `up[i]` are flow `i`'s one-rung-down and one-rung-up moves
/// from its current level, [`Eval::rung`]'s exact `f64`s; every level change
/// goes through [`Eval::shift`], which refreshes that flow's two entries.
struct Eval<'a> {
    spec: &'a ProblemSpec,
    utils: Utils,
    levels: Vec<usize>,
    down: Vec<Rung>,
    up: Vec<Rung>,
    video_util: f64,
    used_rbs: f64,
    cur_penalty: f64,
    /// `p′(used_rbs)` as of the `used_rbs` whose bits are `slope_at`.
    slope: f64,
    slope_at: u64,
}

/// A priced single move: its objective change and the data penalty of the
/// state it leads to (`-inf` gain when that state breaks the RB cap).
struct Price {
    gain: f64,
    penalty: f64,
}

impl<'a> Eval<'a> {
    fn new(spec: &'a ProblemSpec) -> Self {
        let levels: Vec<usize> = spec.flows().iter().map(|f| f.min_level()).collect();
        let n = levels.len();
        let mut e = Eval {
            spec,
            utils: Utils::new(spec),
            levels,
            down: vec![Rung::NONE; n],
            up: vec![Rung::NONE; n],
            video_util: 0.0,
            used_rbs: 0.0,
            cur_penalty: 0.0,
            slope: f64::NAN,
            slope_at: f64::NAN.to_bits(),
        };
        for (i, f) in spec.flows().iter().enumerate() {
            let rate = f.ladder()[e.levels[i]];
            e.video_util += e.utils.at(i, e.levels[i]);
            e.used_rbs += f.weight() * rate;
            e.refresh(i);
        }
        e.reprice();
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

    /// The deltas of moving flow `i` from level `from` to level `to`: the
    /// one expression [`Eval::price`], [`Eval::shift`] and the move tables
    /// share.
    fn rung(&self, i: usize, from: usize, to: usize) -> Rung {
        let f = &self.spec.flows()[i];
        Rung {
            du: self.utils.at(i, to) - self.utils.at(i, from),
            dw: f.weight() * (f.ladder()[to] - f.ladder()[from]),
        }
    }

    /// Prices moving flow `i` to `to_level` without moving it.
    fn price(&self, i: usize, to_level: usize) -> Price {
        let m = self.rung(i, self.levels[i], to_level);
        // The same sum `shift` accumulates, so `commit` can reuse this
        // penalty as `penalty(used_rbs)` of the moved state.
        let penalty = self.penalty(self.used_rbs + m.dw);
        let gain = if penalty == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            m.du + (penalty - self.cur_penalty)
        };
        Price { gain, penalty }
    }

    /// Moves flow `i` to `to_level`, taking `penalty` from the [`Price`] of
    /// that same move.
    fn commit(&mut self, i: usize, to_level: usize, penalty: f64) {
        self.shift(i, to_level);
        self.cur_penalty = penalty;
    }

    /// Moves flow `i` to `to_level` but leaves `cur_penalty` stale: the
    /// caller must [`Eval::reprice`] or restore it before reading the
    /// objective.
    fn shift(&mut self, i: usize, to_level: usize) {
        let m = self.rung(i, self.levels[i], to_level);
        self.video_util += m.du;
        self.used_rbs += m.dw;
        self.levels[i] = to_level;
        self.refresh(i);
    }

    /// Recomputes flow `i`'s move-table entries at its current level.
    fn refresh(&mut self, i: usize) {
        let f = &self.spec.flows()[i];
        let l = self.levels[i];
        self.down[i] = if l > f.min_level() {
            self.rung(i, l, l - 1)
        } else {
            Rung::NONE
        };
        self.up[i] = if l < f.max_level() {
            self.rung(i, l, l + 1)
        } else {
            Rung::NONE
        };
    }

    /// Whether flow `i`'s move-table entries are the ones [`Eval::refresh`]
    /// would compute now, bit for bit.
    fn rungs_in_sync(&self, i: usize) -> bool {
        let f = &self.spec.flows()[i];
        let l = self.levels[i];
        (l <= f.min_level() || self.down[i].bits() == self.rung(i, l, l - 1).bits())
            && (l >= f.max_level() || self.up[i].bits() == self.rung(i, l, l + 1).bits())
    }

    fn reprice(&mut self) {
        self.cur_penalty = self.penalty(self.used_rbs);
    }

    /// The slope `p′(used) = −n·α/(N − used)` of the data penalty at the
    /// current state, recomputed only when `used_rbs`'s bits have changed.
    fn slope(&mut self) -> f64 {
        let at = self.used_rbs.to_bits();
        if at != self.slope_at {
            self.slope = if self.spec.n_data() == 0 {
                0.0
            } else {
                -(self.spec.n_data() as f64) * self.spec.alpha()
                    / (self.spec.total_rbs() - self.used_rbs)
            };
            self.slope_at = at;
        }
        self.slope
    }

    /// The bound on swap trials that move flow `i` one rung down, with the
    /// terms of `i`'s side computed once for every partner `j`.
    fn swap_bound(&mut self, i: usize) -> SwapBound {
        let slope = self.slope();
        let down = self.down[i];
        let tangent = slope * down.dw;
        SwapBound {
            slope,
            gain: down.du + tangent,
            scale: 1.0
                + self.video_util.abs()
                + self.cur_penalty.abs()
                + down.du.abs()
                + tangent.abs(),
        }
    }

    /// Makes, from the move tables, the four adds of a swap trial that
    /// moves flow `i` down and flow `j` up and is then undone: the same
    /// operands in the same order as two [`Eval::shift`]s there and two
    /// back (`a - b` is `-(b - a)` exactly), so `video_util` and `used_rbs`
    /// pick up the same rounding. Levels, tables and `cur_penalty` stay.
    fn replay_rejected_swap(&mut self, i: usize, j: usize) {
        let (down, up) = (self.down[i], self.up[j]);
        self.video_util += down.du;
        self.used_rbs += down.dw;
        self.video_util += up.du;
        self.used_rbs += up.dw;
        self.video_util -= up.du;
        self.used_rbs -= up.dw;
        self.video_util -= down.du;
        self.used_rbs -= down.dw;
    }
}

/// The tangent bound on swap trials "flow `i` one rung down, flow `j` one
/// rung up", with `i`'s terms hoisted out of the loop over `j`.
///
/// The penalty is concave in used RBs, so its tangent at the current state
/// bounds a trial's gain from above:
/// `Δu_i + Δu_j + p′(used)·(Δw_i + Δw_j)`. When that bound is below `-EPS`
/// by more than a `1e-9` relative margin — far above the priced trial's
/// rounding error — the priced objective must fall below `before - EPS`,
/// where neither keep condition of the swap loop holds. A trial that breaks
/// the RB cap prices at `-inf` and is rejected either way.
///
/// A bound is valid while flow `i`'s level and `used_rbs` stay as they
/// were; the swap loop rebuilds it when either changes. `scale` may miss
/// the few-ulp drift pruned trials leave in `video_util`: over one row of
/// `j`s that is a few hundred ulps at most, under `1e-4` of the margin.
struct SwapBound {
    slope: f64,
    /// `Δu_i + p′(used)·Δw_i`.
    gain: f64,
    /// `1 + |video_util| + |cur_penalty| + |Δu_i| + |p′(used)·Δw_i|`.
    scale: f64,
}

impl SwapBound {
    /// Whether this bound has the slope and `i`-side gain of `fresh`, one
    /// built from the current state. `scale` may differ by the drift above.
    fn is_current(&self, fresh: &SwapBound) -> bool {
        self.slope.to_bits() == fresh.slope.to_bits() && self.gain.to_bits() == fresh.gain.to_bits()
    }

    /// Whether the trial that moves the partner by `up` is sure to be
    /// rejected, proved without pricing it.
    fn rules_out(&self, up: Rung) -> bool {
        let tangent = self.slope * up.dw;
        let margin = 1e-9 * (self.scale + up.du.abs() + tangent.abs());
        self.gain + (up.du + tangent) < -EPS - margin
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
    let mut eval = Eval::new(spec);
    if spec.is_overloaded() {
        return finish(spec, eval.levels);
    }

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
        let delta = eval.price(i, eval.levels[i] + 1).gain;
        if delta > EPS {
            heap.push(Upgrade { delta, flow: i });
        }
    }
    while let Some(popped) = heap.pop() {
        let i = popped.flow;
        let to = eval.levels[i] + 1;
        let price = eval.price(i, to);
        if price.gain > EPS {
            let fresh = Upgrade {
                delta: price.gain,
                flow: i,
            };
            if heap.peek().is_some_and(|top| *top > fresh) {
                // Stale: a rival's cached bound beats the fresh gain.
                heap.push(fresh);
            } else {
                eval.commit(i, to, price.penalty);
                steps += 1;
                if to < spec.flows()[i].max_level() {
                    let next = eval.price(i, to + 1).gain;
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
            // Both candidates come from the level before the pass, so after
            // a down move the up candidate is two rungs above the new level.
            for cand in candidates.into_iter().flatten() {
                let price = eval.price(i, cand);
                if price.gain > EPS {
                    eval.commit(i, cand, price.penalty);
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
            if eval.levels[i] <= spec.flows()[i].min_level() {
                continue;
            }
            let mut bound = eval.swap_bound(i);
            for j in 0..n {
                // Re-check every iteration: a successful swap may have moved
                // flow i down to its floor already.
                if eval.levels[i] <= spec.flows()[i].min_level() {
                    break;
                }
                if i == j || eval.levels[j] >= spec.flows()[j].max_level() {
                    continue;
                }
                debug_assert!(eval.rungs_in_sync(i) && eval.rungs_in_sync(j));
                debug_assert!(bound.is_current(&eval.swap_bound(i)));
                let used_before = eval.used_rbs;
                let pen_before = eval.cur_penalty;
                let keeps = if bound.rules_out(eval.up[j]) {
                    eval.replay_rejected_swap(i, j);
                    false
                } else {
                    let before = eval.objective();
                    let li = eval.levels[i];
                    let lj = eval.levels[j];
                    eval.shift(i, li - 1);
                    eval.shift(j, lj + 1);
                    eval.reprice();
                    let after = eval.objective();
                    let keeps = after > before + EPS
                        || (after >= before - EPS && eval.used_rbs < used_before - 1e-9);
                    if !keeps {
                        eval.shift(j, lj);
                        eval.shift(i, li);
                    }
                    keeps
                };
                let moved = eval.used_rbs.to_bits() != used_before.to_bits();
                if keeps {
                    improved = true;
                    steps += 1;
                } else if moved {
                    eval.reprice();
                } else {
                    // The penalty is a pure function of `used_rbs`, so when
                    // undoing the two adds lands on the same bits the saved
                    // penalty is the one `reprice` would compute.
                    eval.cur_penalty = pen_before;
                }
                if keeps || moved {
                    bound = eval.swap_bound(i);
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

    /// The reference solver's moves: `apply` prices every state it reaches.
    /// It keeps the move tables in sync too, so tests can set states with
    /// it and then query the swap bound.
    impl Eval<'_> {
        fn delta(&self, i: usize, to_level: usize) -> f64 {
            let f = &self.spec.flows()[i];
            let from = f.ladder()[self.levels[i]];
            let to = f.ladder()[to_level];
            let new_used = self.used_rbs + f.weight() * (to - from);
            let new_pen = self.penalty(new_used);
            if new_pen == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            (self.utils.at(i, to_level) - self.utils.at(i, self.levels[i]))
                + (new_pen - self.cur_penalty)
        }

        fn apply(&mut self, i: usize, to_level: usize) {
            let f = &self.spec.flows()[i];
            let from = f.ladder()[self.levels[i]];
            let to = f.ladder()[to_level];
            self.video_util += self.utils.at(i, to_level) - self.utils.at(i, self.levels[i]);
            self.used_rbs += f.weight() * (to - from);
            self.levels[i] = to_level;
            self.cur_penalty = self.penalty(self.used_rbs);
            self.refresh(i);
        }
    }

    /// [`solve_discrete`] with every state priced: each rejected swap trial
    /// makes four `apply` calls. The differential tests below hold the
    /// solver to this one's levels, `steps` and objective bits. Also
    /// returns the number of polish passes.
    fn solve_discrete_reference(spec: &ProblemSpec) -> (DiscreteSolution, usize) {
        let mut eval = Eval::new(spec);
        if spec.is_overloaded() {
            return (finish(spec, eval.levels), 0);
        }

        const EPS: f64 = 1e-12;
        let mut steps: u64 = 0;

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
        }

        let n = eval.levels.len();
        let mut passes = 0;
        loop {
            passes += 1;
            let mut improved = false;
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
            for i in 0..n {
                for j in 0..n {
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
        (sol, passes)
    }

    /// Asserts `solve_discrete` reproduces the reference bit for bit and
    /// returns the reference's polish passes.
    fn assert_matches_reference(spec: &ProblemSpec) -> usize {
        let (want, passes) = solve_discrete_reference(spec);
        let got = solve_discrete(spec);
        assert_eq!(got.levels, want.levels);
        assert_eq!(got.steps, want.steps);
        assert_eq!(got.objective.to_bits(), want.objective.to_bits());
        assert_eq!(got.r.to_bits(), want.r.to_bits());
        passes
    }

    /// One flow of a random differential instance: bits/RB, the lowest
    /// rate, 1–11 rung-to-rung factors, θ, the previous level and a floor.
    type RandomFlow = (f64, f64, Vec<f64>, f64, usize, usize);

    fn random_flow() -> impl Strategy<Value = RandomFlow> {
        (
            32.0f64..1424.0,
            50e3f64..400e3,
            prop::collection::vec(1.05f64..2.5, 1..12),
            0.05e6f64..0.5e6,
            0usize..12,
            0usize..12,
        )
    }

    /// A 2–12 rung ladder capped one rung above the previous level
    /// (constraint (4b)), with a floor of its own.
    fn random_flow_spec(flow: &RandomFlow) -> FlowSpec {
        let (bits_per_rb, base_rate, rung_factors, theta, prev, min) = flow;
        let mut ladder = vec![*base_rate];
        for &k in rung_factors {
            ladder.push(ladder[ladder.len() - 1] * k);
        }
        let prev = prev % ladder.len();
        let min = min % ladder.len();
        FlowSpec::new(ladder, 10.0, *theta, 10.0 / bits_per_rb, prev + 1).with_min_level(min)
    }

    /// A random differential instance. `load` places the RB budget between
    /// the floors (0) and every flow at its cap (1): near 0 the cap binds
    /// hard, above 1 it is slack, and below 0 the floors alone overload the
    /// cell.
    fn random_spec(flows: &[RandomFlow], n_data: usize, alpha: f64, load: f64) -> ProblemSpec {
        let flows: Vec<FlowSpec> = flows.iter().map(random_flow_spec).collect();
        let r_cap = if n_data > 0 { 0.999 } else { 1.0 };
        let rbs_at = |pick: fn(&FlowSpec) -> usize| -> f64 {
            flows.iter().map(|f| f.weight() * f.ladder()[pick(f)]).sum()
        };
        let floor = rbs_at(FlowSpec::min_level);
        let top = rbs_at(FlowSpec::max_level);
        let target = if load < 0.0 {
            floor * (1.0 + load)
        } else {
            floor + load * (top - floor)
        };
        let spec = ProblemSpec::builder()
            .total_rbs(target / r_cap)
            .data_flows(n_data, alpha)
            .flows(flows)
            .build()
            .unwrap();
        assert_eq!(spec.r_cap(), r_cap);
        spec
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

    #[test]
    fn matches_reference_on_fig9_shaped_instance() {
        // 256 clients, channels spread over 32–1424 bits/RB and stability
        // caps over rungs 1–5. The budget is half the fig9_decide cell's
        // 1600 RBs/TTI over a 10 s BAI, so (4a) binds and the polish keeps
        // swaps over several passes. Besides fig9_decide's 16 data flows,
        // run it with none (the swap bound's slope is 0) and with floors
        // over rungs 0–2.
        for (n_data, floors) in [(16, false), (0, false), (16, true)] {
            let flows = (0..256usize).map(|k| {
                let bits_per_rb = 32.0 + 1392.0 * ((k * 97) % 256) as f64 / 255.0;
                let f = paper_flow(bits_per_rb, 1 + (k * 7) % 6);
                if floors {
                    f.with_min_level((k * 5) % 3)
                } else {
                    f
                }
            });
            let spec = ProblemSpec::builder()
                .total_rbs(8e6)
                .data_flows(n_data, 1.0)
                .flows(flows)
                .build()
                .unwrap();
            assert!(!spec.is_overloaded());
            if floors {
                assert!(spec.flows().iter().any(|f| f.min_level() > 0));
            }
            let passes = assert_matches_reference(&spec);
            assert!(
                passes > 1,
                "n_data {n_data}, floors {floors}: only {passes} polish pass(es), no swap kept"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn matches_reference_bit_for_bit(
            flows in prop::collection::vec(random_flow(), 1..=48),
            n_data in 0usize..=16,
            alpha in 0.25f64..4.0,
            load in -0.1f64..1.2,
        ) {
            assert_matches_reference(&random_spec(&flows, n_data, alpha, load));
        }

        #[test]
        fn pruned_swaps_are_ones_pricing_rejects(
            flows in prop::collection::vec(random_flow(), 1..=48),
            picks in prop::collection::vec(0.0f64..1.0, 48),
            n_data in 0usize..=16,
            alpha in 0.25f64..4.0,
            load in -0.1f64..1.2,
        ) {
            let spec = random_spec(&flows, n_data, alpha, load);
            prop_assume!(!spec.is_overloaded());
            let mut eval = Eval::new(&spec);
            // A random state between each flow's floor and cap, lowered
            // back to the floors flow by flow until it fits the RB cap.
            for (i, f) in spec.flows().iter().enumerate() {
                let span = (f.max_level() - f.min_level() + 1) as f64;
                eval.apply(i, f.min_level() + (picks[i] * span) as usize);
            }
            for (i, f) in spec.flows().iter().enumerate() {
                if eval.objective().is_finite() {
                    break;
                }
                eval.apply(i, f.min_level());
            }
            prop_assert!(eval.objective().is_finite());
            let levels = eval.levels.clone();
            let (video_util, used_rbs, cur_penalty) =
                (eval.video_util, eval.used_rbs, eval.cur_penalty);
            let before = eval.objective();
            for (i, fi) in spec.flows().iter().enumerate() {
                if levels[i] <= fi.min_level() {
                    continue;
                }
                let bound = eval.swap_bound(i);
                for (j, fj) in spec.flows().iter().enumerate() {
                    let (li, lj) = (levels[i], levels[j]);
                    if i == j || lj >= fj.max_level() || !bound.rules_out(eval.up[j]) {
                        continue;
                    }
                    // Price the trial as the swap loop does, then put the
                    // state back exactly.
                    eval.shift(i, li - 1);
                    eval.shift(j, lj + 1);
                    eval.reprice();
                    let after = eval.objective();
                    let keeps = after > before + EPS
                        || (after >= before - EPS && eval.used_rbs < used_rbs - 1e-9);
                    prop_assert!(
                        !keeps,
                        "pruned swap ({} down, {} up) is kept: {} -> {}",
                        i, j, before, after
                    );
                    eval.shift(j, lj);
                    eval.shift(i, li);
                    (eval.video_util, eval.used_rbs, eval.cur_penalty) =
                        (video_util, used_rbs, cur_penalty);
                }
            }
        }

        #[test]
        fn relaxation_upper_bounds_exact_on_random_instances(
            flows in prop::collection::vec(random_flow(), 1..=48),
            n_data in 0usize..=16,
            alpha in 0.25f64..4.0,
            load in -0.1f64..1.2,
        ) {
            // Proposition 1: the relaxation's box contains every ladder
            // point, so on any instance whose floors fit it is feasible and
            // its optimum is at least the exact discrete one.
            let spec = random_spec(&flows, n_data, alpha, load);
            prop_assume!(!spec.is_overloaded());
            let relaxed = crate::solve_relaxed(&spec);
            let exact = solve_discrete(&spec);
            prop_assert!(relaxed.feasible);
            prop_assert!(
                relaxed.objective >= exact.objective - 1e-9 * (1.0 + exact.objective.abs()),
                "relaxed {} < exact {}",
                relaxed.objective,
                exact.objective
            );
        }

        #[test]
        fn rescaling_rates_against_weights_changes_nothing(
            flows in prop::collection::vec(random_flow(), 1..=48),
            n_data in 0usize..=16,
            alpha in 0.25f64..4.0,
            load in -0.1f64..1.2,
        ) {
            // Metamorphic: the solver sees rates only through θ/R and w·R.
            // Scaling every ladder rate and θ by k and every weight by 1/k
            // keeps both exact for powers of two, so the solution must not
            // move by a single bit.
            let spec = random_spec(&flows, n_data, alpha, load);
            let want = solve_discrete(&spec);
            for k in [0.5, 2.0, 4.0] {
                let flows = spec.flows().iter().map(|f| {
                    let ladder = f.ladder().iter().map(|r| r * k).collect();
                    FlowSpec::new(ladder, f.beta(), f.theta() * k, f.weight() / k, f.max_level())
                        .with_min_level(f.min_level())
                });
                let scaled = ProblemSpec::builder()
                    .total_rbs(spec.total_rbs())
                    .data_flows(n_data, alpha)
                    .flows(flows)
                    .build()
                    .unwrap();
                let got = solve_discrete(&scaled);
                prop_assert_eq!(&got.levels, &want.levels, "k = {}", k);
                prop_assert_eq!(got.steps, want.steps, "k = {}", k);
                prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "k = {}", k);
                prop_assert_eq!(got.r.to_bits(), want.r.to_bits(), "k = {}", k);
            }
        }
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
