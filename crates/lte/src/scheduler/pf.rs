//! The legacy proportional fair scheduler.

use super::{
    pf_pass, settle_all_idle, settle_averages, FlowTtiState, MacScheduler, PfAverages, PfScratch,
    RbAllocation,
};

/// Pure proportional fair scheduling: every TTI, backlogged flows are served
/// greedily in order of `achievable rate / average throughput`.
///
/// This is the baseline policy of both the femtocell MAC and ns-3, and the
/// phase-2 policy inside [`super::TwoPhaseGbr`] and
/// [`super::PrioritySetScheduler`].
///
/// # Example
///
/// ```
/// use flare_lte::scheduler::{MacScheduler, ProportionalFair};
/// let mut pf = ProportionalFair::default();
/// assert_eq!(pf.name(), "pf");
/// assert!(pf.allocate(50, &[]).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ProportionalFair {
    averages: PfAverages,
    /// Reused per-TTI scratch for the PF pass.
    scratch: PfScratch,
}

impl ProportionalFair {
    /// Creates a PF scheduler with the given averaging time constant in TTIs.
    ///
    /// # Panics
    ///
    /// Panics if `tc_ttis < 1`.
    pub fn new(tc_ttis: f64) -> Self {
        ProportionalFair {
            averages: PfAverages::new(tc_ttis),
            scratch: PfScratch::default(),
        }
    }
}

impl Default for ProportionalFair {
    /// One-second averaging window (1000 TTIs), the common LTE default.
    fn default() -> Self {
        ProportionalFair::new(1000.0)
    }
}

impl MacScheduler for ProportionalFair {
    fn allocate_into(
        &mut self,
        n_rbs: u32,
        flows: &[FlowTtiState],
        grants: &mut Vec<RbAllocation>,
    ) {
        grants.clear();
        self.scratch.begin_tti(&mut self.averages, flows);
        pf_pass(
            &self.averages,
            n_rbs,
            flows,
            |_| true,
            grants,
            &mut self.scratch,
        );
        settle_averages(&mut self.averages, flows, grants);
    }

    fn idle_tick(&mut self, flows: &[FlowTtiState]) -> bool {
        // A backlog-free PF pass grants nothing; only the averages decay.
        settle_all_idle(&mut self.averages, flows);
        true
    }

    fn name(&self) -> &'static str {
        "pf"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::flows::FlowClass;
    use flare_sim::units::ByteCount;

    #[test]
    fn never_exceeds_rb_budget() {
        let mut pf = ProportionalFair::default();
        let flows = vec![
            flow(0, FlowClass::Data, 1_000_000, 128.0, 0),
            flow(1, FlowClass::Data, 1_000_000, 256.0, 0),
        ];
        let grants = pf.allocate(50, &flows);
        assert_eq!(total(&grants), 50);
    }

    #[test]
    fn idle_flows_get_nothing() {
        let mut pf = ProportionalFair::default();
        let flows = vec![
            flow(0, FlowClass::Data, 0, 128.0, 0),
            flow(1, FlowClass::Data, 500, 128.0, 0),
        ];
        let grants = pf.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 0);
        assert!(rbs_of(&grants, 1) > 0);
    }

    #[test]
    fn small_backlogs_do_not_waste_rbs() {
        let mut pf = ProportionalFair::default();
        // 16 bytes = exactly 1 RB at 128 bits/RB; the rest should go to flow 1.
        let flows = vec![
            flow(0, FlowClass::Data, 16, 128.0, 0),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
        ];
        let grants = pf.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 1);
        assert_eq!(rbs_of(&grants, 1), 49);
    }

    #[test]
    fn long_run_shares_are_proportional_fair() {
        // Two always-backlogged flows with equal channels should converge to
        // an equal RB split; with a 2x better channel the splits stay equal
        // in RBs (PF equalizes *time*, rates differ).
        let mut pf = ProportionalFair::new(200.0);
        let flows = vec![
            flow(0, FlowClass::Data, u64::MAX / 2, 128.0, 0),
            flow(1, FlowClass::Data, u64::MAX / 2, 256.0, 0),
        ];
        let mut tot = [0u64; 2];
        for _ in 0..5000 {
            for g in pf.allocate(50, &flows) {
                tot[g.flow.index()] += u64::from(g.rbs);
            }
        }
        let share0 = tot[0] as f64 / (tot[0] + tot[1]) as f64;
        assert!((share0 - 0.5).abs() < 0.05, "share {share0} should be ~0.5");
    }

    #[test]
    fn starved_flow_eventually_wins() {
        let mut pf = ProportionalFair::new(100.0);
        // Serve only flow 0 for a while by making flow 1 idle...
        let warm = vec![flow(0, FlowClass::Data, u64::MAX / 2, 128.0, 0)];
        for _ in 0..1000 {
            pf.allocate(50, &warm);
        }
        // ...then flow 1 appears and must immediately out-rank flow 0.
        let flows = vec![
            flow(0, FlowClass::Data, u64::MAX / 2, 128.0, 0),
            flow(
                1,
                FlowClass::Data,
                ByteCount::new(u64::MAX / 2).as_u64(),
                128.0,
                0,
            ),
        ];
        let grants = pf.allocate(50, &flows);
        assert!(rbs_of(&grants, 1) >= rbs_of(&grants, 0));
    }

    #[test]
    fn deterministic_across_reruns() {
        let run = || {
            let mut pf = ProportionalFair::default();
            let flows = vec![
                flow(0, FlowClass::Data, 1_000_000, 144.0, 0),
                flow(1, FlowClass::Data, 1_000_000, 208.0, 0),
                flow(2, FlowClass::Data, 1_000_000, 64.0, 0),
            ];
            (0..200)
                .map(|_| pf.allocate(50, &flows))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
