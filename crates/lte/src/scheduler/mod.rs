//! Per-TTI MAC schedulers.
//!
//! The policies match the systems the paper builds on, plus one classical
//! baseline:
//!
//! * [`ProportionalFair`] — the legacy PF scheduler every policy falls back
//!   to for non-GBR traffic.
//! * [`TwoPhaseGbr`] — the paper's femtocell Scheduler Module: phase 1
//!   serves video flows up to their GBR, phase 2 hands the remaining RBs to
//!   proportional fair across all backlogged flows (this is what lets FLARE
//!   opportunistically reuse data-flow RBs for video when the optimizer lags
//!   link dynamics, cf. Section IV-A).
//! * [`RoundRobin`] — the classical channel-blind baseline, for ablations
//!   quantifying proportional fair's multi-user-diversity gain.
//! * [`PrioritySetScheduler`] — the ns-3 scheduler used in Section IV-B:
//!   GBR flows below their target rate get strict priority ordered by
//!   deficit; the remainder is proportional fair. It also honours MBR caps,
//!   which is how AVIS enforces its per-flow allocations.

mod pf;
mod priority_set;
mod round_robin;
mod two_phase;

pub use pf::ProportionalFair;
pub use priority_set::PrioritySetScheduler;
pub use round_robin::RoundRobin;
pub use two_phase::{StrictGbrPartition, TwoPhaseGbr};

use flare_sim::units::ByteCount;

use crate::flows::{FlowClass, FlowId};

/// Everything a scheduler may consult about one flow in one TTI.
#[derive(Debug, Clone, Copy)]
pub struct FlowTtiState {
    /// The flow being scheduled.
    pub flow: FlowId,
    /// Its traffic class.
    pub class: FlowClass,
    /// Bytes waiting to be sent, already clamped by any MBR allowance.
    pub backlog: ByteCount,
    /// Deliverable bits per resource block at the flow's current iTbs.
    pub bits_per_rb: f64,
    /// Outstanding GBR service credit in bytes (zero for non-GBR bearers).
    pub gbr_credit: ByteCount,
}

impl FlowTtiState {
    /// RBs needed to move `bytes` at this flow's current operating point:
    /// the ceiling of `bits / bits_per_rb`, saturating at `u32::MAX`.
    pub fn rbs_for_bytes(&self, bytes: ByteCount) -> u32 {
        if bytes.is_zero() {
            return 0;
        }
        let q = (bytes.as_bits() as f64) / self.bits_per_rb;
        // Ceiling without a libm call: below 2^32 the truncation `t` is
        // exact, so `t < q` holds exactly when `q` has a fraction to round
        // up; above it `t` saturates and so does the increment. NaN and
        // negative quotients give 0, as `ceil` then `as` does.
        let t = q as u32;
        t.saturating_add(u32::from(f64::from(t) < q))
    }

    /// Whole bytes deliverable with `rbs` resource blocks.
    pub fn bytes_for_rbs(&self, rbs: u32) -> ByteCount {
        // `as` truncates toward zero, which is `floor` for the non-negative
        // product; a negative or NaN product casts to 0 either way. Same
        // bits as `floor`, without the libm call.
        ByteCount::new((self.bits_per_rb * f64::from(rbs) / 8.0) as u64)
    }
}

/// One flow's share of a TTI's resource blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbAllocation {
    /// The flow receiving the grant.
    pub flow: FlowId,
    /// Number of RBs granted this TTI.
    pub rbs: u32,
    /// Bytes the grant delivers: `bytes_for_rbs(rbs)` capped by the flow's
    /// backlog. The scheduler fills it in once the grant is final, so the
    /// eNodeB delivers without costing the grant again.
    pub bytes: ByteCount,
}

/// A per-TTI downlink MAC scheduler.
///
/// Implementations must be deterministic and must never allocate more than
/// `n_rbs` blocks in total (the eNodeB asserts this).
pub trait MacScheduler {
    /// Distributes `n_rbs` resource blocks among `flows` for one TTI,
    /// writing the grants into the caller-owned `grants` buffer.
    ///
    /// `grants` is cleared first and then filled, at most one grant per
    /// flow, each carrying its [`RbAllocation::bytes`]; reusing one buffer
    /// across TTIs keeps the hot path allocation-free after warm-up (the
    /// eNodeB does exactly that). `flows[i]` describes `FlowId(i)`: one
    /// entry per flow, in flow-id order, as the eNodeB's flow table holds
    /// them. Implementations must break metric ties by flow id to keep runs
    /// reproducible.
    fn allocate_into(&mut self, n_rbs: u32, flows: &[FlowTtiState], grants: &mut Vec<RbAllocation>);

    /// Distributes `n_rbs` resource blocks among `flows` for one TTI,
    /// returning a freshly allocated grant list.
    ///
    /// Convenience wrapper over [`MacScheduler::allocate_into`] for callers
    /// outside the per-TTI hot path; the vector is pre-sized to the flow
    /// count so grant pushes never reallocate mid-TTI.
    fn allocate(&mut self, n_rbs: u32, flows: &[FlowTtiState]) -> Vec<RbAllocation> {
        let mut grants = Vec::with_capacity(flows.len());
        self.allocate_into(n_rbs, flows, &mut grants);
        grants
    }

    /// Settles one all-idle TTI (every `flows[i].backlog` is zero) without a
    /// full allocation pass, returning `true` on success.
    ///
    /// Policies whose all-idle TTI provably grants nothing and only decays
    /// internal averages may override this with that cheaper settle; the
    /// default returns `false`, telling the eNodeB to run
    /// [`MacScheduler::allocate_into`] as usual. [`StrictGbrPartition`]
    /// must keep the default: it reserves RBs for idle sliced flows, so even
    /// a backlog-free TTI produces grants.
    fn idle_tick(&mut self, flows: &[FlowTtiState]) -> bool {
        let _ = flows;
        false
    }

    /// A short human-readable policy name (for experiment logs).
    fn name(&self) -> &'static str;
}

/// Shared helper: exponentially averaged per-flow throughput used by the PF
/// metric. The time constant is in TTIs (1 ms each); ns-3's PF default is
/// an effective window of about one second.
#[derive(Debug, Clone)]
pub(crate) struct PfAverages {
    /// `1 − 1/tc`, precomputed so the per-flow-per-TTI update divides never.
    decay: f64,
    /// `1/tc`, the complementary EWMA gain.
    gain: f64,
    avgs: Vec<f64>,
}

impl PfAverages {
    pub(crate) fn new(tc_ttis: f64) -> Self {
        assert!(tc_ttis >= 1.0, "PF time constant must be >= 1 TTI");
        PfAverages {
            decay: 1.0 - 1.0 / tc_ttis,
            gain: 1.0 / tc_ttis,
            avgs: Vec::new(),
        }
    }

    /// Grows the table to `len` flows. Called once per TTI, before that
    /// TTI's [`PfAverages::metric`], [`PfAverages::decay`] and
    /// [`PfAverages::credit`] calls.
    fn fit(&mut self, len: usize) {
        if len > self.avgs.len() {
            // Small positive prior so brand-new flows don't divide by zero
            // and immediately win every RB forever.
            self.avgs.resize(len, 1.0);
        }
    }

    /// PF metric: achievable rate over averaged rate.
    pub(crate) fn metric(&self, state: &FlowTtiState) -> f64 {
        let inst_bps = state.bits_per_rb * 1000.0; // one RB every TTI
        inst_bps / self.avgs[state.flow.index()]
    }

    /// Steps the averages of flows `0..n` through one TTI without delivery.
    /// For a flow served this TTI, [`PfAverages::credit`] then adds its
    /// bits.
    fn decay(&mut self, n: usize) {
        for a in &mut self.avgs[..n] {
            *a *= self.decay;
        }
    }

    /// Adds one TTI's delivered bits to an average [`PfAverages::decay`]
    /// already stepped. Together they compute the EWMA
    /// `decay·a + gain·bits·1000` as `(a·decay) + (gain·bits)·1000`: the
    /// same IEEE operations, so the same bits. A zero delivery adds
    /// nothing (`x + 0.0 == x` for the non-negative averages).
    fn credit(&mut self, flow: FlowId, delivered_bits: f64) {
        if delivered_bits != 0.0 {
            self.avgs[flow.index()] += self.gain * delivered_bits * 1000.0;
        }
    }
}

/// Reused per-TTI scratch for [`pf_pass`]: remaining backlog and the
/// memoized PF metric per eligible flow, plus an O(1) granted-RBs lookup
/// keyed by flow id (the grant list itself stays ordered for output).
/// Owned by each scheduler so the pass is allocation-free once capacities
/// stabilize.
#[derive(Debug, Clone, Default)]
pub(crate) struct PfScratch {
    remaining: Vec<ByteCount>,
    metrics: Vec<f64>,
    granted: Vec<u32>,
}

/// Checks the [`MacScheduler::allocate_into`] contract that `flows[i]`
/// describes `FlowId(i)`, which lets per-flow tables be indexed by flow id.
fn debug_assert_dense(flows: &[FlowTtiState]) {
    debug_assert!(
        flows.iter().enumerate().all(|(i, f)| f.flow.index() == i),
        "flows[i] must describe FlowId(i)"
    );
}

impl PfScratch {
    /// Sizes the averages for `flows` and zeroes the granted-RBs table in
    /// place. Must be called once at the top of every `allocate_into`,
    /// before any [`push_grant`] or [`pf_pass`].
    pub(crate) fn begin_tti(&mut self, averages: &mut PfAverages, flows: &[FlowTtiState]) {
        debug_assert_dense(flows);
        averages.fit(flows.len());
        self.granted.clear();
        self.granted.resize(flows.len(), 0);
    }

    /// RBs granted to `flow` so far this TTI.
    pub(crate) fn granted(&self, flow: FlowId) -> u32 {
        self.granted[flow.index()]
    }
}

/// Shared helper: greedy PF pass over whatever backlog remains.
///
/// Repeatedly grants the metric-argmax flow enough RBs to drain its backlog
/// (or whatever is left), updating `grants`. Only flows for which
/// `eligible` holds take part; the argmax visits flows in id order, so
/// metric ties resolve to the lowest flow id. PF metrics depend only on the
/// averages, which this pass never mutates, so they are computed once per
/// call instead of once per argmax iteration — same floats, same
/// selections — and the first argmax is taken while they are computed.
/// Returns the RBs still free.
pub(crate) fn pf_pass(
    averages: &PfAverages,
    mut rbs_left: u32,
    flows: &[FlowTtiState],
    eligible: impl Fn(&FlowTtiState) -> bool,
    grants: &mut Vec<RbAllocation>,
    scratch: &mut PfScratch,
) -> u32 {
    // Remaining backlog after earlier phases (zero for ineligible flows),
    // plus the per-flow metric. The metric (a float division) is only
    // computed for flows that can still receive a grant; zero-remaining
    // flows are never examined by the argmax, so their placeholder is
    // unobservable.
    scratch.remaining.clear();
    scratch.metrics.clear();
    let mut best = Best::default();
    for (i, f) in flows.iter().enumerate() {
        let granted = scratch.granted(f.flow);
        let remaining = if !eligible(f) {
            ByteCount::ZERO
        } else if granted == 0 {
            f.backlog
        } else {
            f.backlog.saturating_sub(f.bytes_for_rbs(granted))
        };
        let metric = if remaining.is_zero() {
            0.0
        } else {
            let m = averages.metric(f);
            best.offer(i, m);
            m
        };
        scratch.remaining.push(remaining);
        scratch.metrics.push(metric);
    }

    while rbs_left > 0 {
        let Some(i) = best.index else { break };
        let f = &flows[i];
        let want = f.rbs_for_bytes(scratch.remaining[i]).min(rbs_left);
        let grant = want.max(1).min(rbs_left);
        push_grant(grants, scratch, f.flow, grant);
        let delivered = f.bytes_for_rbs(grant).min(scratch.remaining[i]);
        scratch.remaining[i] = scratch.remaining[i].saturating_sub(delivered);
        rbs_left -= grant;
        if rbs_left > 0 {
            best = Best::default();
            for (i, r) in scratch.remaining.iter().enumerate() {
                if !r.is_zero() {
                    best.offer(i, scratch.metrics[i]);
                }
            }
        }
    }
    rbs_left
}

/// Running PF argmax over flows offered in ascending id order.
#[derive(Default)]
struct Best {
    index: Option<usize>,
    metric: f64,
}

impl Best {
    fn offer(&mut self, j: usize, metric: f64) {
        // Strictly-greater keeps ties on the lowest flow id.
        if self.index.is_none() || metric > self.metric {
            *self = Best {
                index: Some(j),
                metric,
            };
        }
    }
}

/// Adds `rbs` to an existing grant for `flow`, or appends a new one, keeping
/// the scratch granted-RBs table in sync.
pub(crate) fn push_grant(
    grants: &mut Vec<RbAllocation>,
    scratch: &mut PfScratch,
    flow: FlowId,
    rbs: u32,
) {
    if rbs == 0 {
        return;
    }
    let idx = flow.index();
    if scratch.granted[idx] > 0 {
        if let Some(g) = grants.iter_mut().find(|g| g.flow == flow) {
            g.rbs += rbs;
        }
    } else {
        // `bytes` is costed once the grant is final, in `settle_averages`.
        grants.push(RbAllocation {
            flow,
            rbs,
            bytes: ByteCount::ZERO,
        });
    }
    scratch.granted[idx] += rbs;
}

/// Settles the PF averages for a grant-free TTI: every flow folds in a zero
/// delivery, i.e. a pure decay. Exactly [`settle_averages`] with no grants.
pub(crate) fn settle_all_idle(averages: &mut PfAverages, flows: &[FlowTtiState]) {
    debug_assert_dense(flows);
    averages.fit(flows.len());
    averages.decay(flows.len());
}

/// Finalizes one TTI's grants: costs each grant's [`RbAllocation::bytes`]
/// once and folds the deliveries into the PF averages of all flows.
pub(crate) fn settle_averages(
    averages: &mut PfAverages,
    flows: &[FlowTtiState],
    grants: &mut [RbAllocation],
) {
    averages.decay(flows.len());
    for g in grants {
        let f = &flows[g.flow.index()];
        g.bytes = f.bytes_for_rbs(g.rbs).min(f.backlog);
        averages.credit(g.flow, g.bytes.as_bits() as f64);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Builds a flow TTI state for scheduler tests.
    pub(crate) fn flow(
        id: u32,
        class: FlowClass,
        backlog: u64,
        bits_per_rb: f64,
        gbr_credit: u64,
    ) -> FlowTtiState {
        FlowTtiState {
            flow: FlowId(id),
            class,
            backlog: ByteCount::new(backlog),
            bits_per_rb,
            gbr_credit: ByteCount::new(gbr_credit),
        }
    }

    /// Total RBs in a grant list.
    pub(crate) fn total(grants: &[RbAllocation]) -> u32 {
        grants.iter().map(|g| g.rbs).sum()
    }

    /// RBs granted to one flow.
    pub(crate) fn rbs_of(grants: &[RbAllocation], id: u32) -> u32 {
        grants
            .iter()
            .find(|g| g.flow == FlowId(id))
            .map_or(0, |g| g.rbs)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::tbs::{Itbs, LinkAdaptation, ITBS_MAX};

    #[test]
    fn rbs_for_bytes_round_trip() {
        let f = flow(0, FlowClass::Video, 0, 128.0, 0);
        assert_eq!(f.rbs_for_bytes(ByteCount::new(0)), 0);
        // 16 bytes = 128 bits = exactly 1 RB.
        assert_eq!(f.rbs_for_bytes(ByteCount::new(16)), 1);
        assert_eq!(f.rbs_for_bytes(ByteCount::new(17)), 2);
        assert_eq!(f.bytes_for_rbs(2), ByteCount::new(32));
    }

    /// The libm forms of the two rounding helpers, kept only as the oracle
    /// of the tests below.
    fn ceil_rbs(f: &FlowTtiState, bytes: ByteCount) -> u32 {
        if bytes.is_zero() {
            return 0;
        }
        ((bytes.as_bits() as f64) / f.bits_per_rb).ceil() as u32
    }

    fn floor_bytes(f: &FlowTtiState, rbs: u32) -> ByteCount {
        ByteCount::new((f.bits_per_rb * f64::from(rbs) / 8.0).floor() as u64)
    }

    #[test]
    fn rounding_edge_cases_match_floor_and_ceil() {
        let cases: [(f64, u64); 10] = [
            (128.0, 0),
            (128.0, 16), // exact: 1 RB
            (128.0, 32), // exact: 2 RBs
            (128.0, 17),
            (8.0, u64::from(u32::MAX)), // quotient exactly u32::MAX
            (16.0, 2 * u64::from(u32::MAX) - 1), // u32::MAX − 0.5 rounds up
            (8.0, 1 << 32),             // 2^32 saturates
            (16.0, u64::MAX / 2),       // far above 2^32
            (0.0, 1),                   // infinite quotient
            (f64::NAN, 1),
        ];
        for (bits_per_rb, bytes) in cases {
            let f = flow(0, FlowClass::Data, 0, bits_per_rb, 0);
            let b = ByteCount::new(bytes);
            assert_eq!(
                f.rbs_for_bytes(b),
                ceil_rbs(&f, b),
                "{bits_per_rb} b/RB, {bytes} B"
            );
        }
        let f = flow(0, FlowClass::Data, 0, 8.0, 0);
        assert_eq!(f.rbs_for_bytes(ByteCount::new(1 << 32)), u32::MAX);
        for rbs in [0, 1, u32::MAX] {
            for bits_per_rb in [0.0, 16.0, 712.0 * 8.0, f64::NAN] {
                let f = flow(0, FlowClass::Data, 0, bits_per_rb, 0);
                assert_eq!(f.bytes_for_rbs(rbs), floor_bytes(&f, rbs));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn rounding_matches_floor_and_ceil(
            gain in f64::MIN_POSITIVE..=8.0,
            rbs in 0u32..=u32::MAX,
            few_rbs in 0u32..=100,
            bytes in 0u64..=u64::MAX / 2,
            few_bytes in 0u64..=200_000,
        ) {
            // Every TBS entry at a random spatial-multiplexing gain, and at
            // the integral gains whose quotients are often exact.
            for la in [
                LinkAdaptation::new(gain),
                LinkAdaptation::new(1.0),
                LinkAdaptation::new(2.0),
            ] {
                for i in 0..=ITBS_MAX {
                    let f = flow(0, FlowClass::Data, 0, la.bits_per_rb(Itbs::new(i)), 0);
                    for r in [rbs, few_rbs] {
                        proptest::prop_assert_eq!(f.bytes_for_rbs(r), floor_bytes(&f, r));
                    }
                    // `bytes_for_rbs(few_rbs)` lands on or next to a whole
                    // number of RBs, the edge `ceil` is most sensitive to.
                    for b in [bytes, few_bytes, f.bytes_for_rbs(few_rbs).as_u64()] {
                        let b = ByteCount::new(b);
                        proptest::prop_assert_eq!(f.rbs_for_bytes(b), ceil_rbs(&f, b));
                    }
                }
            }
        }
    }

    #[test]
    fn push_grant_merges() {
        let mut g = Vec::new();
        let mut scratch = PfScratch::default();
        let flows = [
            flow(0, FlowClass::Data, 0, 128.0, 0),
            flow(1, FlowClass::Data, 0, 128.0, 0),
            flow(2, FlowClass::Data, 0, 128.0, 0),
        ];
        scratch.begin_tti(&mut PfAverages::new(1000.0), &flows);
        push_grant(&mut g, &mut scratch, FlowId(1), 3);
        push_grant(&mut g, &mut scratch, FlowId(1), 2);
        push_grant(&mut g, &mut scratch, FlowId(2), 0);
        assert_eq!(scratch.granted(FlowId(1)), 5);
        assert_eq!(
            g,
            vec![RbAllocation {
                flow: FlowId(1),
                rbs: 5,
                bytes: ByteCount::ZERO,
            }]
        );
    }

    #[test]
    fn pf_averages_prior_prevents_div_by_zero() {
        let mut avg = PfAverages::new(1000.0);
        let f = flow(0, FlowClass::Data, 100, 128.0, 0);
        avg.fit(1);
        let m = avg.metric(&f);
        assert!(m.is_finite() && m > 0.0);
    }

    #[test]
    fn pf_averages_decay_towards_service_rate() {
        let mut avg = PfAverages::new(100.0);
        let id = FlowId(0);
        avg.fit(1);
        for _ in 0..5000 {
            avg.decay(1);
            avg.credit(id, 1000.0); // 1000 bits per TTI = 1 Mbps
        }
        let f = flow(0, FlowClass::Data, 100, 128.0, 0);
        let m = avg.metric(&f);
        // metric = 128k / ~1M
        assert!((m - 0.128).abs() < 0.01, "metric {m}");
    }
}
