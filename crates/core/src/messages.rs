//! The server → plugin assignment message.
//!
//! The paper leaves the concrete message formats to future standardization
//! ("these message exchange procedures can be standardized by extending
//! related existing standards for telecommunications APIs"). Two of the
//! loop's three messages need no type of their own: the plugin's hello is
//! the anonymized [`crate::ClientInfo`] handed to
//! [`crate::OneApiServer::register_video`], and the eNodeB's statistics
//! report is the MAC layer's [`flare_lte::IntervalReport`], carried as is
//! over the [`crate::ControlPlane`]. Only the decision travels in its own
//! format, [`AssignmentMsg`], in plain integers with explicit units (kbps)
//! so it is implementation-independent.

/// Server → plugin (and PCEF): the decision for one BAI.
///
/// FLARE-R's assignments are *versioned*: `seq` counts the server's BAIs.
/// Receivers reject any assignment whose sequence number does not advance
/// their view, so a message delayed by an unreliable control plane can
/// never roll a client back to an older decision. The naive FLARE schemes
/// send unversioned messages (`seq == 0`), converted from an
/// [`crate::Assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentMsg {
    /// The video flow being assigned.
    pub flow_id: u32,
    /// The ladder level the plugin must request next.
    pub level: u32,
    /// The GBR the PCEF installs, in kbps.
    pub gbr_kbps: u32,
    /// The server's BAI sequence number at issue time (monotonic per
    /// server; receivers reject non-advancing values). 0 when unversioned.
    pub seq: u64,
}

impl From<&crate::server::Assignment> for AssignmentMsg {
    fn from(a: &crate::server::Assignment) -> Self {
        AssignmentMsg {
            flow_id: a.flow.index() as u32,
            level: a.level.index() as u32,
            gbr_kbps: a.rate.as_kbps().round() as u32,
            seq: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_has::Level;
    use flare_lte::channel::StaticChannel;
    use flare_lte::scheduler::ProportionalFair;
    use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
    use flare_sim::units::Rate;

    #[test]
    fn assignment_msg_converts() {
        let mut enb = ENodeB::new(CellConfig::default(), Box::new(ProportionalFair::default()));
        let flow = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        let a = crate::server::Assignment {
            flow,
            level: Level::new(3),
            rate: Rate::from_kbps(790.0),
        };
        let msg = AssignmentMsg::from(&a);
        assert_eq!(msg.level, 3);
        assert_eq!(msg.gbr_kbps, 790);
        // The plain conversion carries no version; FLARE-R's server stamps
        // seq in `bai_tick`.
        assert_eq!(msg.seq, 0);
        assert_eq!(msg, AssignmentMsg::from(&a));
    }
}
