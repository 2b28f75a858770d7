//! The femtocell Scheduler Module: GBR phase + proportional-fair phase.

use super::{
    pf_pass, push_grant, settle_all_idle, settle_averages, FlowTtiState, MacScheduler, PfAverages,
    PfScratch, RbAllocation,
};

/// Two-phase GBR scheduling, as implemented in the paper's eNodeB MAC
/// (Section III-B):
///
/// * **Phase 1** serves each flow's outstanding GBR credit, in flow-id
///   order, until the credit or the TTI's RBs run out.
/// * **Phase 2** hands every remaining RB to legacy proportional fair over
///   *all* backlogged flows — video and data alike — which is what lets the
///   cell opportunistically reuse slack for video when the network-side
///   optimizer lags the channel.
///
/// # Example
///
/// ```
/// use flare_lte::scheduler::{MacScheduler, TwoPhaseGbr};
/// let mut s = TwoPhaseGbr::default();
/// assert_eq!(s.name(), "two-phase-gbr");
/// assert!(s.allocate(50, &[]).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoPhaseGbr {
    averages: PfAverages,
    /// Reused per-TTI scratch for the phase-2 PF pass.
    scratch: PfScratch,
}

impl MacScheduler for TwoPhaseGbr {
    fn allocate_into(
        &mut self,
        n_rbs: u32,
        flows: &[FlowTtiState],
        grants: &mut Vec<RbAllocation>,
    ) {
        grants.clear();
        self.scratch.begin_tti(&mut self.averages, flows);
        let mut rbs_left = n_rbs;

        // Phase 1: clear GBR credit in flow-id order.
        for f in flows {
            if rbs_left == 0 {
                break;
            }
            let owed = f.gbr_credit.min(f.backlog);
            if owed.is_zero() {
                continue;
            }
            let want = f.rbs_for_bytes(owed).min(rbs_left);
            push_grant(grants, &mut self.scratch, f.flow, want);
            rbs_left -= want;
        }

        // Phase 2: PF over whatever backlog remains.
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
        // Phase 1 is capped by backlog and phase 2 only serves backlog, so
        // an all-idle TTI grants nothing; only the averages decay.
        settle_all_idle(&mut self.averages, flows);
        true
    }

    fn name(&self) -> &'static str {
        "two-phase-gbr"
    }
}

/// Suppresses phase-2 sharing: GBR flows get exactly their credit and data
/// flows split the rest, never vice versa. Used by the ablation that shows
/// why the paper's opportunistic phase 2 matters.
#[derive(Debug, Clone, Default)]
pub struct StrictGbrPartition {
    averages: PfAverages,
    /// Reused per-TTI scratch for the phase-2 PF pass.
    scratch: PfScratch,
}

impl MacScheduler for StrictGbrPartition {
    fn allocate_into(
        &mut self,
        n_rbs: u32,
        flows: &[FlowTtiState],
        grants: &mut Vec<RbAllocation>,
    ) {
        grants.clear();
        self.scratch.begin_tti(&mut self.averages, flows);
        let mut rbs_left = n_rbs;
        for f in flows {
            if rbs_left == 0 {
                break;
            }
            // Reserve by *credit*, not by backlog: an idle sliced flow still
            // holds its RBs, modelling AVIS-style static resource slicing
            // (the reserved-but-unused blocks are the waste the paper's
            // Section I-B attributes to static partitioning).
            let owed = f.gbr_credit;
            if owed.is_zero() {
                continue;
            }
            let want = f.rbs_for_bytes(owed).min(rbs_left);
            push_grant(grants, &mut self.scratch, f.flow, want);
            rbs_left -= want;
        }
        // Phase 2 restricted to flows *without* GBR credit.
        pf_pass(
            &self.averages,
            rbs_left,
            flows,
            |f| f.gbr_credit.is_zero(),
            grants,
            &mut self.scratch,
        );
        settle_averages(&mut self.averages, flows, grants);
    }

    fn name(&self) -> &'static str {
        "strict-gbr-partition"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::flows::FlowClass;

    #[test]
    fn gbr_credit_served_first() {
        let mut s = TwoPhaseGbr::default();
        // Flow 0 is a GBR video flow owed 160 bytes (10 RBs at 128 b/RB);
        // flow 1 is greedy data.
        let flows = vec![
            flow(0, FlowClass::Video, 10_000, 128.0, 160),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
        ];
        let grants = s.allocate(50, &flows);
        assert!(
            rbs_of(&grants, 0) >= 10,
            "GBR flow must get its credit first"
        );
        assert_eq!(total(&grants), 50);
    }

    #[test]
    fn gbr_flow_can_exceed_credit_via_phase2() {
        let mut s = TwoPhaseGbr::default();
        // Only the video flow is backlogged; it should absorb all 50 RBs
        // even though its credit covers just 10.
        let flows = vec![flow(0, FlowClass::Video, 1_000_000, 128.0, 160)];
        let grants = s.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 50);
    }

    #[test]
    fn strict_partition_wastes_slack() {
        let mut s = StrictGbrPartition::default();
        let flows = vec![flow(0, FlowClass::Video, 1_000_000, 128.0, 160)];
        let grants = s.allocate(50, &flows);
        // Credit = 160 bytes = 10 RBs; strict partitioning stops there.
        assert_eq!(rbs_of(&grants, 0), 10);
    }

    #[test]
    fn strict_partition_reserves_for_idle_sliced_flows() {
        let mut s = StrictGbrPartition::default();
        // The sliced video flow has credit but *no backlog* (player buffer
        // full); a greedy data flow wants everything. The slice's 10 RBs
        // are reserved anyway and go to waste — AVIS's inefficiency.
        let flows = vec![
            flow(0, FlowClass::Video, 0, 128.0, 160),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
        ];
        let grants = s.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 1), 40, "data must not reclaim the slice");
    }

    #[test]
    fn credit_capped_by_backlog() {
        let mut s = TwoPhaseGbr::default();
        // Credit says 160 bytes but only 16 bytes are queued.
        let flows = vec![
            flow(0, FlowClass::Video, 16, 128.0, 160),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
        ];
        let grants = s.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 1);
        assert_eq!(rbs_of(&grants, 1), 49);
    }

    #[test]
    fn budget_exhaustion_in_phase1() {
        let mut s = TwoPhaseGbr::default();
        // Two GBR flows each owed 100 RBs worth; only 50 available.
        let flows = vec![
            flow(0, FlowClass::Video, 1_000_000, 128.0, 1600),
            flow(1, FlowClass::Video, 1_000_000, 128.0, 1600),
        ];
        let grants = s.allocate(50, &flows);
        assert_eq!(total(&grants), 50);
        // Flow-id order: flow 0 is served first.
        assert_eq!(rbs_of(&grants, 0), 50);
        assert_eq!(rbs_of(&grants, 1), 0);
    }

    #[test]
    fn strict_partition_matches_two_phase_without_credit() {
        // The schedulers only diverge through GBR credit: phase 1 is empty
        // on both sides when nobody is owed anything, and strict's phase-2
        // filter keeps every zero-credit flow. This is the boundary of the
        // AVIS-waste model — divergence begins exactly when an idle sliced
        // flow holds credit (see strict_partition_reserves_for_idle_sliced_flows).
        let flows = vec![
            flow(0, FlowClass::Video, 5_000, 96.0, 0),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
            flow(2, FlowClass::Video, 0, 64.0, 0),
        ];
        let mut two_phase = TwoPhaseGbr::default();
        let mut strict = StrictGbrPartition::default();
        for tti in 0..500 {
            let a = two_phase.allocate(50, &flows);
            let b = strict.allocate(50, &flows);
            assert_eq!(a, b, "grants diverged at TTI {tti}");
        }
    }

    proptest::proptest! {
        #[test]
        fn schedulers_are_identical_when_no_flow_holds_credit(
            n_rbs in 1u32..100,
            specs in proptest::collection::vec(
                (0u64..1_000_000, 16u32..512, 0u32..2),
                1..8,
            ),
            ttis in 1usize..50,
        ) {
            // Differential property: with every gbr_credit at zero, the
            // two-phase and strict-partition schedulers produce identical
            // per-flow grants TTI after TTI (identical grants ⇒ identical
            // per-flow bytes, since bytes_for_rbs is a pure per-flow map).
            // The PF state also stays in lockstep because it is settled
            // from the very grants that just matched.
            let flows: Vec<FlowTtiState> = specs
                .iter()
                .enumerate()
                .map(|(i, &(backlog, bits_per_rb, is_video))| {
                    let class = if is_video == 1 { FlowClass::Video } else { FlowClass::Data };
                    flow(i as u32, class, backlog, f64::from(bits_per_rb), 0)
                })
                .collect();
            let mut two_phase = TwoPhaseGbr::default();
            let mut strict = StrictGbrPartition::default();
            for tti in 0..ttis {
                let a = two_phase.allocate(n_rbs, &flows);
                let b = strict.allocate(n_rbs, &flows);
                proptest::prop_assert_eq!(&a, &b, "grants diverged at TTI {}", tti);
            }
        }
    }

    #[test]
    fn data_flows_share_leftover() {
        let mut s = TwoPhaseGbr::default();
        let flows = vec![
            flow(0, FlowClass::Video, 160, 128.0, 160),
            flow(1, FlowClass::Data, 1_000_000, 128.0, 0),
            flow(2, FlowClass::Data, 1_000_000, 128.0, 0),
        ];
        let mut tot = [0u64; 3];
        for _ in 0..2000 {
            for g in s.allocate(50, &flows) {
                tot[g.flow.index()] += u64::from(g.rbs);
            }
        }
        // Video gets its 10 RBs/TTI; data flows split the remaining 40.
        let d1 = tot[1] as f64;
        let d2 = tot[2] as f64;
        assert!((d1 / d2 - 1.0).abs() < 0.1, "data split {d1}/{d2} not even");
    }
}
