//! A round-robin scheduler: the simplest fair baseline.

use flare_sim::units::ByteCount;

use super::{FlowTtiState, MacScheduler, RbAllocation};
use crate::flows::FlowId;

/// Round-robin scheduling: backlogged flows take turns receiving whole
/// TTIs, regardless of channel quality.
///
/// Not used by any paper scenario; it serves as the classical
/// channel-oblivious reference point against which proportional fair's
/// multi-user-diversity gain (and FLARE's utility gain) can be measured in
/// ablations.
///
/// # Example
///
/// ```
/// use flare_lte::scheduler::{MacScheduler, RoundRobin};
/// let mut rr = RoundRobin::new();
/// assert_eq!(rr.name(), "round-robin");
/// assert!(rr.allocate(50, &[]).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: Option<FlowId>,
    /// Reused per-TTI index list of the backlogged flows.
    backlogged: Vec<usize>,
    /// Reused per-TTI scratch: remaining backlog per backlogged flow.
    remaining: Vec<ByteCount>,
}

impl RoundRobin {
    /// Creates the scheduler.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl MacScheduler for RoundRobin {
    fn allocate_into(
        &mut self,
        n_rbs: u32,
        flows: &[FlowTtiState],
        grants: &mut Vec<RbAllocation>,
    ) {
        grants.clear();
        let mut rbs_left = n_rbs;
        self.backlogged.clear();
        self.backlogged.extend(
            flows
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.backlog.is_zero())
                .map(|(i, _)| i),
        );
        if self.backlogged.is_empty() {
            return;
        }
        // Start from the remembered turn (or the lowest id) and hand out
        // RBs in id order, wrapping, each flow taking what its backlog
        // needs.
        let start = self
            .next
            .and_then(|next| self.backlogged.iter().position(|&f| flows[f].flow >= next))
            .unwrap_or(0);
        self.remaining.clear();
        self.remaining
            .extend(self.backlogged.iter().map(|&f| flows[f].backlog));
        let count = self.backlogged.len();
        let mut i = start;
        let mut visited = 0;
        while rbs_left > 0 && visited < count {
            let idx = i % count;
            let f = &flows[self.backlogged[idx]];
            let want = f.rbs_for_bytes(self.remaining[idx]).min(rbs_left);
            if want > 0 {
                // Each backlogged flow is visited at most once per TTI
                // (`visited < count`), so a plain push never needs merging,
                // and its remaining backlog is still its whole backlog.
                let delivered = f.bytes_for_rbs(want).min(self.remaining[idx]);
                grants.push(RbAllocation {
                    flow: f.flow,
                    rbs: want,
                    bytes: delivered,
                });
                self.remaining[idx] = self.remaining[idx].saturating_sub(delivered);
                rbs_left -= want;
            }
            i += 1;
            visited += 1;
        }
        // Next TTI starts with the flow after the last one served.
        self.next = Some(flows[self.backlogged[i % count]].flow);
    }

    fn idle_tick(&mut self, flows: &[FlowTtiState]) -> bool {
        // With nothing backlogged the turn pointer does not move and no
        // grants are made; there is no state to settle.
        let _ = flows;
        true
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::flows::FlowClass;

    #[test]
    fn turns_rotate_across_ttis() {
        let mut rr = RoundRobin::new();
        let flows = vec![
            flow(0, FlowClass::Data, u64::MAX / 4, 128.0, 0),
            flow(1, FlowClass::Data, u64::MAX / 4, 128.0, 0),
            flow(2, FlowClass::Data, u64::MAX / 4, 128.0, 0),
        ];
        let mut tot = [0u64; 3];
        for _ in 0..300 {
            for g in rr.allocate(50, &flows) {
                tot[g.flow.index()] += u64::from(g.rbs);
            }
        }
        let max = *tot.iter().max().unwrap() as f64;
        let min = *tot.iter().min().unwrap() as f64;
        assert!(max / min < 1.05, "RB shares must equalize: {tot:?}");
    }

    #[test]
    fn channel_quality_is_ignored() {
        // Unlike PF, a flow with a 10x better channel gets the same RBs.
        let mut rr = RoundRobin::new();
        let flows = vec![
            flow(0, FlowClass::Data, u64::MAX / 4, 64.0, 0),
            flow(1, FlowClass::Data, u64::MAX / 4, 640.0, 0),
        ];
        let mut tot = [0u64; 2];
        for _ in 0..200 {
            for g in rr.allocate(50, &flows) {
                tot[g.flow.index()] += u64::from(g.rbs);
            }
        }
        let ratio = tot[0] as f64 / tot[1] as f64;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "RR must be channel-blind: {tot:?}"
        );
    }

    #[test]
    fn small_backlogs_release_the_turn() {
        let mut rr = RoundRobin::new();
        let flows = vec![
            flow(0, FlowClass::Data, 16, 128.0, 0), // exactly 1 RB
            flow(1, FlowClass::Data, u64::MAX / 4, 128.0, 0),
        ];
        let grants = rr.allocate(50, &flows);
        assert_eq!(rbs_of(&grants, 0), 1);
        assert_eq!(rbs_of(&grants, 1), 49);
    }

    #[test]
    fn idle_cell_grants_nothing() {
        let mut rr = RoundRobin::new();
        let flows = vec![flow(0, FlowClass::Data, 0, 128.0, 0)];
        assert!(rr.allocate(50, &flows).is_empty());
    }

    #[test]
    fn never_over_allocates() {
        let mut rr = RoundRobin::new();
        let flows: Vec<_> = (0..7)
            .map(|i| flow(i, FlowClass::Data, 1000 + u64::from(i) * 50, 64.0, 0))
            .collect();
        for _ in 0..50 {
            assert!(total(&rr.allocate(50, &flows)) <= 50);
        }
    }
}
