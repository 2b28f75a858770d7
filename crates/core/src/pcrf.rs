//! The PCRF's flow registry.
//!
//! The Policy, Charging, and Rules Function "manages and monitors all flows
//! in the network; thus, it can provide the OneAPI server with all relevant
//! network information, such as the number of non-video flows" (Section
//! I-C). This registry is that view: which flows exist and what class they
//! are.

use flare_lte::{FlowClass, FlowId};

/// The PCRF's registry of flows in one cell.
#[derive(Debug, Clone, Default)]
pub struct PcrfRegistry {
    flows: Vec<(FlowId, FlowClass)>,
    /// The largest flow id ever registered. The eNodeB hands out ids in
    /// increasing order, so a flow above it is new and registers without
    /// scanning `flows` (registering a whole cell is linear, not quadratic).
    max_flow: Option<FlowId>,
}

impl PcrfRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PcrfRegistry::default()
    }

    /// Registers a flow; re-registering updates its class.
    pub fn register(&mut self, flow: FlowId, class: FlowClass) {
        if self.max_flow.is_none_or(|max| flow > max) {
            self.max_flow = Some(flow);
            self.flows.push((flow, class));
            return;
        }
        match self.flows.iter_mut().find(|(f, _)| *f == flow) {
            Some(entry) => entry.1 = class,
            None => self.flows.push((flow, class)),
        }
    }

    /// Removes a flow (bearer teardown). Returns whether it was present.
    pub fn deregister(&mut self, flow: FlowId) -> bool {
        let before = self.flows.len();
        self.flows.retain(|(f, _)| *f != flow);
        self.flows.len() != before
    }

    /// Number of data flows (`n` in the objective).
    pub fn data_flow_count(&self) -> usize {
        self.flows
            .iter()
            .filter(|(_, c)| *c == FlowClass::Data)
            .count()
    }

    /// Iterates over all registered flows.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, FlowClass)> + '_ {
        self.flows.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_lte::channel::StaticChannel;
    use flare_lte::scheduler::ProportionalFair;
    use flare_lte::{CellConfig, ENodeB, Itbs};

    fn flows(n: usize) -> Vec<FlowId> {
        let mut enb = ENodeB::new(CellConfig::default(), Box::new(ProportionalFair::default()));
        (0..n)
            .map(|_| enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(1)))))
            .collect()
    }

    #[test]
    fn counts_by_class() {
        let ids = flows(4);
        let mut reg = PcrfRegistry::new();
        reg.register(ids[0], FlowClass::Video);
        reg.register(ids[1], FlowClass::Data);
        reg.register(ids[2], FlowClass::Data);
        assert_eq!(reg.data_flow_count(), 2);
        assert_eq!(
            reg.iter().collect::<Vec<_>>(),
            vec![
                (ids[0], FlowClass::Video),
                (ids[1], FlowClass::Data),
                (ids[2], FlowClass::Data)
            ]
        );
    }

    #[test]
    fn reregistration_updates_class() {
        let ids = flows(1);
        let mut reg = PcrfRegistry::new();
        reg.register(ids[0], FlowClass::Data);
        reg.register(ids[0], FlowClass::Video);
        assert_eq!(reg.data_flow_count(), 0);
        assert_eq!(
            reg.iter().collect::<Vec<_>>(),
            vec![(ids[0], FlowClass::Video)]
        );

        // Out of id order, and again after a teardown.
        let ids = flows(3);
        let mut reg = PcrfRegistry::new();
        reg.register(ids[2], FlowClass::Data);
        reg.register(ids[0], FlowClass::Video);
        reg.register(ids[2], FlowClass::Video);
        assert!(reg.deregister(ids[0]));
        reg.register(ids[0], FlowClass::Data);
        reg.register(ids[1], FlowClass::Data);
        assert_eq!(
            reg.iter().collect::<Vec<_>>(),
            vec![
                (ids[2], FlowClass::Video),
                (ids[0], FlowClass::Data),
                (ids[1], FlowClass::Data)
            ]
        );
    }

    #[test]
    fn deregistration() {
        let ids = flows(2);
        let mut reg = PcrfRegistry::new();
        reg.register(ids[0], FlowClass::Data);
        assert!(reg.deregister(ids[0]));
        assert!(!reg.deregister(ids[0]));
        assert_eq!(reg.data_flow_count(), 0);
    }
}
