//! The plugin ↔ OneAPI server wire protocol.
//!
//! The paper leaves the concrete message formats to future standardization
//! ("these message exchange procedures can be standardized by extending
//! related existing standards for telecommunications APIs"), but FLARE's
//! privacy argument rests on *what* the messages carry. These types pin
//! that down:
//!
//! * [`ClientHello`] — sent when a video starts: the anonymized bitrate
//!   list (no title, no URL) plus whatever preferences the client opts to
//!   disclose.
//! * [`AssignmentMsg`] — server → plugin, once per BAI.
//! * [`StatsReportMsg`] — eNodeB → server: the per-flow `(n_u, b_u)`
//!   counters of the Statistics Reporter module.
//!
//! All quantities are plain integers in explicit units (kbps, bytes, ms) so
//! the wire format is implementation-independent.

use flare_has::{BitrateLadder, Level};
use flare_lte::{FlowId, IntervalReport};
use flare_sim::units::Rate;

use crate::client::{ClientInfo, ClientPrefs};

/// Plugin → server: a video stream is starting on `flow_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientHello {
    /// The flow carrying the video (dense cell-local index).
    pub flow_id: u32,
    /// Available encodings in kbps — the anonymized MPD projection.
    pub bitrates_kbps: Vec<u32>,
    /// Optional self-imposed rate cap in kbps.
    pub max_rate_kbps: Option<u32>,
    /// Optional floor on the assigned level.
    pub min_level: Option<u32>,
    /// Whether the client disclosed that the user is skimming.
    pub skimming: bool,
    /// Optional disclosed importance weight `β_u`.
    pub beta: Option<f64>,
    /// Optional disclosed screen parameter `θ_u` in kbps.
    pub theta_kbps: Option<u32>,
}

impl ClientHello {
    /// Builds the hello a plugin would send for `info`.
    pub fn from_client_info(info: &ClientInfo) -> Self {
        ClientHello {
            flow_id: info.flow().index() as u32,
            bitrates_kbps: info
                .ladder()
                .rates()
                .iter()
                .map(|r| r.as_kbps().round() as u32)
                .collect(),
            max_rate_kbps: info.prefs().max_rate.map(|r| r.as_kbps().round() as u32),
            min_level: info.prefs().min_level.map(|l| l.index() as u32),
            skimming: info.prefs().skimming,
            beta: info.prefs().beta,
            theta_kbps: info.prefs().theta.map(|r| r.as_kbps().round() as u32),
        }
    }

    /// Reconstructs the server-side [`ClientInfo`]. The caller supplies the
    /// authenticated [`FlowId`] (flow identity comes from the bearer, not
    /// from the message body).
    ///
    /// # Panics
    ///
    /// Panics if the bitrate list is not a valid ladder.
    pub fn into_client_info(self, flow: FlowId) -> ClientInfo {
        let ladder = BitrateLadder::from_kbps(&self.bitrates_kbps);
        let prefs = ClientPrefs {
            max_rate: self.max_rate_kbps.map(|k| Rate::from_kbps(f64::from(k))),
            min_level: self.min_level.map(|l| Level::new(l as usize)),
            skimming: self.skimming,
            beta: self.beta,
            theta: self.theta_kbps.map(|k| Rate::from_kbps(f64::from(k))),
        };
        ClientInfo::new(flow, ladder).with_prefs(prefs)
    }
}

/// Server → plugin (and PCEF): the decision for one BAI.
///
/// Assignments are *versioned*: `seq` counts the server's BAIs and
/// `issued_ms` timestamps the decision. Receivers reject any assignment
/// whose sequence number does not advance their view, so a message delayed
/// or reordered by an unreliable control plane can never roll a client back
/// to an older decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentMsg {
    /// The video flow being assigned.
    pub flow_id: u32,
    /// The ladder level the plugin must request next.
    pub level: u32,
    /// The GBR the PCEF installs, in kbps.
    pub gbr_kbps: u32,
    /// The server's BAI sequence number at issue time (monotonic per
    /// server; receivers reject non-advancing values).
    pub seq: u64,
    /// When the server issued the decision, in ms since simulation start.
    pub issued_ms: u64,
}

impl From<&crate::server::Assignment> for AssignmentMsg {
    fn from(a: &crate::server::Assignment) -> Self {
        AssignmentMsg {
            flow_id: a.flow.index() as u32,
            level: a.level.index() as u32,
            gbr_kbps: a.rate.as_kbps().round() as u32,
            seq: 0,
            issued_ms: 0,
        }
    }
}

/// One flow's counters inside a [`StatsReportMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStatsMsg {
    /// The flow the counters describe.
    pub flow_id: u32,
    /// Resource blocks assigned during the interval (`n_u`).
    pub rbs: u64,
    /// Bytes transmitted during the interval (`b_u`).
    pub bytes: u64,
    /// The flow's iTbs operating point at the end of the interval.
    pub itbs: u8,
}

/// eNodeB → server: the periodic statistics report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReportMsg {
    /// Interval start, in ms since simulation start.
    pub start_ms: u64,
    /// Interval end, in ms since simulation start.
    pub end_ms: u64,
    /// Per-flow counters.
    pub flows: Vec<FlowStatsMsg>,
}

impl StatsReportMsg {
    /// The counters for one flow, if present in the report.
    pub fn flow(&self, flow_id: u32) -> Option<&FlowStatsMsg> {
        self.flows.iter().find(|f| f.flow_id == flow_id)
    }

    /// The covered interval's length in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

impl From<&IntervalReport> for StatsReportMsg {
    fn from(report: &IntervalReport) -> Self {
        StatsReportMsg {
            start_ms: report.start.as_millis(),
            end_ms: report.end.as_millis(),
            flows: report
                .flows
                .iter()
                .map(|f| FlowStatsMsg {
                    flow_id: f.flow.index() as u32,
                    rbs: f.rbs,
                    bytes: f.bytes.as_u64(),
                    itbs: f.itbs.index(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_lte::channel::StaticChannel;
    use flare_lte::scheduler::ProportionalFair;
    use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};

    fn flow() -> FlowId {
        let mut enb = ENodeB::new(CellConfig::default(), Box::new(ProportionalFair::default()));
        enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))))
    }

    #[test]
    fn hello_round_trips_through_client_info() {
        let prefs = ClientPrefs {
            max_rate: Some(Rate::from_kbps(800.0)),
            min_level: Some(Level::new(1)),
            skimming: false,
            beta: Some(12.0),
            theta: Some(Rate::from_kbps(300.0)),
        };
        let info = ClientInfo::new(flow(), BitrateLadder::testbed()).with_prefs(prefs);
        let hello = ClientHello::from_client_info(&info);
        // The message is value-semantic: an identical hello reconstructs an
        // identical server-side view.
        assert_eq!(hello, ClientHello::from_client_info(&info));
        let rebuilt = hello.into_client_info(flow());
        assert_eq!(rebuilt, info);
    }

    #[test]
    fn hello_contains_no_identifying_information() {
        let info = ClientInfo::new(flow(), BitrateLadder::testbed());
        let dump = format!("{:?}", ClientHello::from_client_info(&info));
        // The anonymized message carries bitrates only: no title/url fields
        // exist in the schema at all.
        assert!(!dump.contains("title"));
        assert!(!dump.contains("url"));
    }

    #[test]
    fn assignment_msg_converts() {
        let a = crate::server::Assignment {
            flow: flow(),
            level: Level::new(3),
            rate: Rate::from_kbps(790.0),
        };
        let msg = AssignmentMsg::from(&a);
        assert_eq!(msg.level, 3);
        assert_eq!(msg.gbr_kbps, 790);
        // The plain conversion carries no version; the server stamps seq
        // and issue time when it emits over the control plane.
        assert_eq!(msg.seq, 0);
        assert_eq!(msg.issued_ms, 0);
        assert_eq!(msg, AssignmentMsg::from(&a));
    }

    #[test]
    fn stats_report_converts() {
        use flare_sim::Time;
        let mut enb = ENodeB::new(CellConfig::default(), Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(5))));
        for ms in 0..100 {
            enb.step_tti(Time::from_millis(ms));
        }
        let report = enb.take_report(Time::from_millis(100));
        let msg = StatsReportMsg::from(&report);
        assert_eq!(msg.end_ms, 100);
        assert_eq!(msg.flows.len(), 1);
        assert_eq!(msg.flows[0].flow_id, f.index() as u32);
        assert!(msg.flows[0].rbs > 0);
        assert_eq!(msg, StatsReportMsg::from(&report));
    }
}
