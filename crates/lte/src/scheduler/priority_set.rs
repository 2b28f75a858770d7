//! The ns-3 Priority Set Scheduler analogue used by the simulation study.

use std::cmp::Reverse;

use flare_sim::units::ByteCount;

use super::{
    pf_pass, push_grant, settle_all_idle, settle_averages, FlowTtiState, MacScheduler, PfAverages,
    PfScratch, RbAllocation,
};
use crate::flows::FlowId;

/// Priority-Set scheduling (Monghal et al., the scheduler the paper modifies
/// in ns-3): flows below their target (GBR) rate form a priority set served
/// strictly first, ordered by *descending deficit*; remaining RBs go to
/// proportional fair across all backlogged flows.
///
/// The difference from [`super::TwoPhaseGbr`] is the deficit ordering inside
/// the priority set — under overload, the most-starved GBR flow is served
/// first instead of the lowest flow id, which matters when many video flows
/// compete (the Section IV-B scenarios).
///
/// # Example
///
/// ```
/// use flare_lte::scheduler::{MacScheduler, PrioritySetScheduler};
/// let mut s = PrioritySetScheduler::default();
/// assert_eq!(s.name(), "priority-set");
/// assert!(s.allocate(50, &[]).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PrioritySetScheduler {
    averages: PfAverages,
    /// Reused per-TTI scratch for the PF pass.
    scratch: PfScratch,
    /// Reused per-TTI priority set as sort keys `(Reverse(credit), flow
    /// id)`: most-starved first, ties by flow id.
    prio: Vec<(Reverse<ByteCount>, FlowId)>,
}

impl PrioritySetScheduler {
    /// Creates the scheduler with a PF time constant in TTIs.
    ///
    /// # Panics
    ///
    /// Panics if `tc_ttis < 1`.
    pub fn new(tc_ttis: f64) -> Self {
        PrioritySetScheduler {
            averages: PfAverages::new(tc_ttis),
            scratch: PfScratch::default(),
            prio: Vec::new(),
        }
    }
}

impl Default for PrioritySetScheduler {
    /// One-second PF averaging window.
    fn default() -> Self {
        PrioritySetScheduler::new(1000.0)
    }
}

impl MacScheduler for PrioritySetScheduler {
    fn allocate_into(
        &mut self,
        n_rbs: u32,
        flows: &[FlowTtiState],
        grants: &mut Vec<RbAllocation>,
    ) {
        grants.clear();
        self.scratch.begin_tti(&mut self.averages, flows);
        let mut rbs_left = n_rbs;

        // Priority set: flows with outstanding GBR credit, most-starved first,
        // ties broken by flow id. Flow ids are unique, so the keys are too
        // and the unstable sort gives the one order a stable sort would.
        self.prio.clear();
        self.prio.extend(
            flows
                .iter()
                .filter(|f| !f.gbr_credit.min(f.backlog).is_zero())
                .map(|f| (Reverse(f.gbr_credit), f.flow)),
        );
        self.prio.sort_unstable();
        for &(_, id) in &self.prio {
            if rbs_left == 0 {
                break;
            }
            let f = &flows[id.index()];
            let owed = f.gbr_credit.min(f.backlog);
            let want = f.rbs_for_bytes(owed).min(rbs_left);
            push_grant(grants, &mut self.scratch, f.flow, want);
            rbs_left -= want;
        }

        pf_pass(
            &self.averages,
            rbs_left,
            flows,
            |_| true,
            grants,
            &mut self.scratch,
        );
        settle_averages(&mut self.averages, flows, grants);
    }

    fn idle_tick(&mut self, flows: &[FlowTtiState]) -> bool {
        // The priority set requires `min(credit, backlog) > 0`, so an
        // all-idle TTI grants nothing; only the averages decay.
        settle_all_idle(&mut self.averages, flows);
        true
    }

    fn name(&self) -> &'static str {
        "priority-set"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::flows::FlowClass;

    #[test]
    fn most_starved_flow_served_first_under_overload() {
        let mut s = PrioritySetScheduler::default();
        // Flow 1 is owed more than flow 0; under a 50-RB budget flow 1 wins.
        let flows = vec![
            flow(0, FlowClass::Video, 1_000_000, 128.0, 800),
            flow(1, FlowClass::Video, 1_000_000, 128.0, 1600),
        ];
        let grants = s.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 1), 50);
        assert_eq!(rbs_of(&grants, 0), 0);
    }

    #[test]
    fn equal_deficits_break_ties_by_flow_id() {
        let mut s = PrioritySetScheduler::default();
        let flows = vec![
            flow(0, FlowClass::Video, 1_000_000, 128.0, 1600),
            flow(1, FlowClass::Video, 1_000_000, 128.0, 1600),
        ];
        let grants = s.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 50);
    }

    #[test]
    fn leftover_goes_to_pf() {
        let mut s = PrioritySetScheduler::default();
        let flows = vec![
            flow(0, FlowClass::Video, 160, 128.0, 160),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
        ];
        let grants = s.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 10);
        assert_eq!(rbs_of(&grants, 1), 40);
    }

    #[test]
    fn never_over_allocates() {
        let mut s = PrioritySetScheduler::default();
        let flows: Vec<_> = (0..16)
            .map(|i| flow(i, FlowClass::Video, 1_000_000, 64.0 + f64::from(i), 500))
            .collect();
        for _ in 0..100 {
            let grants = s.allocate(50, &flows);
            assert!(total(&grants) <= 50);
        }
    }
}
