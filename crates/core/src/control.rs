//! A fault-injectable control plane for the OneAPI coordination loop.
//!
//! The paper treats the plugin ↔ server ↔ eNodeB message exchange as
//! lossless and instantaneous. Real deployments run it over a mobile
//! operator's signalling path: messages get dropped, delayed, reordered,
//! and the server itself goes away for maintenance windows. This module
//! models that path explicitly:
//!
//! * [`FaultModel`] — per-message drop probability, fixed delay plus
//!   uniform jitter, reordering (a message held back long enough for its
//!   successor to overtake it), and scheduled server outage windows.
//! * [`ControlPlane`] — two delay queues (uplink statistics reports,
//!   downlink assignments) through which every message passes. Fault
//!   decisions come from a dedicated seeded RNG stream, so a faulty run is
//!   exactly reproducible and fault randomness never perturbs the
//!   simulation's other stochastic processes.
//!
//! With [`FaultModel::perfect`] every message is delivered unmodified at
//! the instant it is sent and the RNG is never consulted — the loop behaves
//! exactly as the paper assumes.

use flare_sim::rng::stream;
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceHandle};
use rand::Rng;

use crate::messages::{AssignmentMsg, StatsReportMsg};

/// A closed interval of simulation time during which the OneAPI server is
/// unreachable (crash, failover, maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First instant of the outage.
    pub start: Time,
    /// First instant after the outage.
    pub end: Time,
}

impl OutageWindow {
    /// An outage covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end > start, "outage window must have positive length");
        OutageWindow { start, end }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Time) -> bool {
        now >= self.start && now < self.end
    }
}

/// Describes how the control plane misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Probability that any individual message is silently dropped.
    pub drop_prob: f64,
    /// Fixed one-way delivery delay applied to every message.
    pub delay: TimeDelta,
    /// Extra uniformly distributed delay in `[0, jitter]` per message.
    pub jitter: TimeDelta,
    /// Probability that a message is held back by [`FaultModel::reorder_delay`],
    /// letting later messages overtake it.
    pub reorder_prob: f64,
    /// How long a reordered message is held back (default: one 10 s BAI, so
    /// the *next* assignment always overtakes it).
    pub reorder_delay: TimeDelta,
    /// Scheduled windows during which the server is down: uplink messages
    /// due in a window are lost, and no assignments are issued.
    pub outages: Vec<OutageWindow>,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::perfect()
    }
}

impl FaultModel {
    /// The lossless, instantaneous control plane the paper assumes.
    pub fn perfect() -> Self {
        FaultModel {
            drop_prob: 0.0,
            delay: TimeDelta::ZERO,
            jitter: TimeDelta::ZERO,
            reorder_prob: 0.0,
            reorder_delay: TimeDelta::from_secs(10),
            outages: Vec::new(),
        }
    }

    /// Returns a copy with a per-message drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.drop_prob = p;
        self
    }

    /// Returns a copy with a fixed delivery delay.
    pub fn with_delay(mut self, delay: TimeDelta) -> Self {
        self.delay = delay;
        self
    }

    /// Returns a copy with uniform per-message jitter in `[0, jitter]`.
    pub fn with_jitter(mut self, jitter: TimeDelta) -> Self {
        self.jitter = jitter;
        self
    }

    /// Returns a copy with a reordering probability.
    pub fn with_reorder_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.reorder_prob = p;
        self
    }

    /// Returns a copy with a different hold-back time for reordered
    /// messages.
    pub fn with_reorder_delay(mut self, delay: TimeDelta) -> Self {
        self.reorder_delay = delay;
        self
    }

    /// Returns a copy with an additional server outage window.
    pub fn with_outage(mut self, window: OutageWindow) -> Self {
        self.outages.push(window);
        self
    }

    /// Whether this model never alters any message.
    pub fn is_perfect(&self) -> bool {
        self.drop_prob == 0.0
            && self.delay.is_zero()
            && self.jitter.is_zero()
            && self.reorder_prob == 0.0
            && self.outages.is_empty()
    }

    /// Whether the server is inside an outage window at `now`.
    pub fn in_outage(&self, now: Time) -> bool {
        self.outages.iter().any(|w| w.contains(now))
    }
}

/// Delivery and loss counters, for experiment telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Messages handed to receivers.
    pub delivered: u64,
    /// Messages dropped by the loss process.
    pub dropped: u64,
    /// Uplink messages lost because they arrived during a server outage.
    pub lost_to_outage: u64,
    /// Messages that were held back by the reordering process.
    pub reordered: u64,
}

#[derive(Debug)]
struct InFlight<M> {
    deliver_at: Time,
    /// Tie-breaker preserving send order among equal delivery times.
    sent_seq: u64,
    msg: M,
}

/// The message path between eNodeB/plugins and the OneAPI server.
///
/// All randomness comes from the seeded `"control"` RNG stream, so two runs
/// with the same seed and fault model see identical fault patterns.
#[derive(Debug)]
pub struct ControlPlane {
    faults: FaultModel,
    rng: rand::rngs::SmallRng,
    uplink: Vec<InFlight<StatsReportMsg>>,
    downlink: Vec<InFlight<AssignmentMsg>>,
    sent: u64,
    stats: ControlPlaneStats,
    trace: TraceHandle,
}

impl ControlPlane {
    /// A control plane with the given fault model, seeded from the
    /// simulation's master seed.
    pub fn new(faults: FaultModel, seed: u64) -> Self {
        ControlPlane {
            faults,
            rng: stream(seed, "control", 0),
            uplink: Vec::new(),
            downlink: Vec::new(),
            sent: 0,
            stats: ControlPlaneStats::default(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Returns this control plane with a trace recorder attached. Message
    /// fates become [`Category::Control`] events, and the delivery/loss
    /// counters are mirrored into the registry (`control.*`). Trace
    /// recording never consults the fault RNG, so attaching a recorder
    /// cannot perturb the fault pattern.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        // The delivery counter exists from the start even if nothing is
        // ever delivered (the receive paths skip empty links).
        trace.incr("control.delivered", 0);
        self.trace = trace;
        self
    }

    /// The active fault model.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Delivery/loss counters so far.
    pub fn stats(&self) -> ControlPlaneStats {
        self.stats
    }

    /// Whether the server is unreachable at `now`.
    pub fn in_outage(&self, now: Time) -> bool {
        self.faults.in_outage(now)
    }

    /// Draws the fate of one message: `None` when dropped, otherwise its
    /// delivery time. The RNG is only consulted for faults that are
    /// actually enabled, so a perfect model stays RNG-silent.
    fn fate(&mut self, now: Time, link: &'static str) -> Option<Time> {
        if self.faults.drop_prob > 0.0 && self.rng.gen_bool(self.faults.drop_prob) {
            self.stats.dropped += 1;
            self.trace.incr("control.dropped", 1);
            self.trace.record(now, Category::Control, "drop", |e| {
                e.str("link", link);
            });
            return None;
        }
        let mut at = now + self.faults.delay;
        if !self.faults.jitter.is_zero() {
            let extra = self.rng.gen_range(0..=self.faults.jitter.as_millis());
            at += TimeDelta::from_millis(extra);
        }
        let mut reordered = false;
        if self.faults.reorder_prob > 0.0 && self.rng.gen_bool(self.faults.reorder_prob) {
            self.stats.reordered += 1;
            self.trace.incr("control.reordered", 1);
            at += self.faults.reorder_delay;
            reordered = true;
        }
        self.trace
            .record_debug(now, Category::Control, "sent", |e| {
                e.str("link", link)
                    .u64("delay_ms", at.saturating_since(now).as_millis())
                    .bool("reordered", reordered);
            });
        Some(at)
    }

    /// eNodeB → server: submits one statistics report at time `now`.
    pub fn send_report(&mut self, now: Time, msg: StatsReportMsg) {
        if let Some(deliver_at) = self.fate(now, "up") {
            self.sent += 1;
            self.uplink.push(InFlight {
                deliver_at,
                sent_seq: self.sent,
                msg,
            });
        }
    }

    /// Server side: receives every report due by `now`, in delivery order.
    ///
    /// Reports due while the server is inside an outage window are lost
    /// (the server was not there to take the connection).
    pub fn recv_reports(&mut self, now: Time) -> Vec<StatsReportMsg> {
        if self.uplink.is_empty() {
            return Vec::new();
        }
        let due = Self::take_due(&mut self.uplink, now);
        let mut out = Vec::with_capacity(due.len());
        for m in due {
            if self.faults.in_outage(m.deliver_at) {
                self.stats.lost_to_outage += 1;
                self.trace.incr("control.lost_to_outage", 1);
                self.trace
                    .record(now, Category::Control, "outage_loss", |e| {
                        e.str("link", "up");
                    });
            } else {
                self.stats.delivered += 1;
                self.trace.incr("control.delivered", 1);
                out.push(m.msg);
            }
        }
        out
    }

    /// Server → plugins/PCEF: submits one BAI's assignments at time `now`.
    pub fn send_assignments(&mut self, now: Time, msgs: Vec<AssignmentMsg>) {
        for msg in msgs {
            if let Some(deliver_at) = self.fate(now, "down") {
                self.sent += 1;
                self.downlink.push(InFlight {
                    deliver_at,
                    sent_seq: self.sent,
                    msg,
                });
            }
        }
    }

    /// Client side: receives every assignment due by `now`, in delivery
    /// order (reordered messages genuinely arrive late).
    pub fn recv_assignments(&mut self, now: Time) -> Vec<AssignmentMsg> {
        if self.downlink.is_empty() {
            return Vec::new();
        }
        let due = Self::take_due(&mut self.downlink, now);
        self.stats.delivered += due.len() as u64;
        self.trace.incr("control.delivered", due.len() as u64);
        due.into_iter().map(|m| m.msg).collect()
    }

    /// Messages still in flight on both links.
    pub fn in_flight(&self) -> usize {
        self.uplink.len() + self.downlink.len()
    }

    fn take_due<M>(queue: &mut Vec<InFlight<M>>, now: Time) -> Vec<InFlight<M>> {
        let mut due: Vec<InFlight<M>> = Vec::new();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].deliver_at <= now {
                due.push(queue.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|m| (m.deliver_at, m.sent_seq));
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(end_ms: u64) -> StatsReportMsg {
        StatsReportMsg {
            start_ms: end_ms.saturating_sub(10_000),
            end_ms,
            flows: vec![],
        }
    }

    fn assignment(seq: u64) -> AssignmentMsg {
        AssignmentMsg {
            flow_id: 0,
            level: 1,
            gbr_kbps: 500,
            seq,
            issued_ms: seq * 10_000,
        }
    }

    #[test]
    fn perfect_plane_delivers_immediately_in_order() {
        let mut cp = ControlPlane::new(FaultModel::perfect(), 1);
        cp.send_report(Time::from_secs(10), report(10_000));
        let got = cp.recv_reports(Time::from_secs(10));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].end_ms, 10_000);
        cp.send_assignments(Time::from_secs(10), vec![assignment(1), assignment(2)]);
        let got = cp.recv_assignments(Time::from_secs(10));
        assert_eq!(got.iter().map(|a| a.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(cp.in_flight(), 0);
        assert_eq!(cp.stats().dropped, 0);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut cp = ControlPlane::new(FaultModel::perfect().with_drop_prob(1.0), 1);
        cp.send_report(Time::ZERO, report(0));
        cp.send_assignments(Time::ZERO, vec![assignment(1)]);
        assert!(cp.recv_reports(Time::from_secs(100)).is_empty());
        assert!(cp.recv_assignments(Time::from_secs(100)).is_empty());
        assert_eq!(cp.stats().dropped, 2);
        assert_eq!(cp.in_flight(), 0);
    }

    #[test]
    fn delay_holds_messages_until_due() {
        let fm = FaultModel::perfect().with_delay(TimeDelta::from_secs(3));
        let mut cp = ControlPlane::new(fm, 1);
        cp.send_assignments(Time::from_secs(10), vec![assignment(1)]);
        assert!(cp.recv_assignments(Time::from_secs(12)).is_empty());
        assert_eq!(cp.recv_assignments(Time::from_secs(13)).len(), 1);
    }

    #[test]
    fn reordered_assignment_arrives_after_its_successor() {
        // Hold back every message by one BAI: the assignment sent at t=10
        // arrives after the one sent at t=20.
        let fm = FaultModel::perfect()
            .with_reorder_prob(1.0)
            .with_reorder_delay(TimeDelta::from_secs(10));
        let mut cp = ControlPlane::new(fm, 1);
        cp.send_assignments(Time::from_secs(10), vec![assignment(1)]);
        cp.send_assignments(Time::from_secs(20), vec![assignment(2)]);
        let at20 = cp.recv_assignments(Time::from_secs(20));
        assert_eq!(at20.iter().map(|a| a.seq).collect::<Vec<_>>(), vec![1]);
        let at30 = cp.recv_assignments(Time::from_secs(30));
        assert_eq!(at30.iter().map(|a| a.seq).collect::<Vec<_>>(), vec![2]);
        assert_eq!(cp.stats().reordered, 2);
    }

    #[test]
    fn outage_swallows_uplink_reports() {
        let fm = FaultModel::perfect()
            .with_outage(OutageWindow::new(Time::from_secs(10), Time::from_secs(30)));
        let mut cp = ControlPlane::new(fm, 1);
        assert!(!cp.in_outage(Time::from_secs(9)));
        assert!(cp.in_outage(Time::from_secs(10)));
        assert!(cp.in_outage(Time::from_secs(29)));
        assert!(!cp.in_outage(Time::from_secs(30)));
        cp.send_report(Time::from_secs(20), report(20_000));
        assert!(cp.recv_reports(Time::from_secs(20)).is_empty());
        assert_eq!(cp.stats().lost_to_outage, 1);
        // After the outage, fresh reports flow again.
        cp.send_report(Time::from_secs(30), report(30_000));
        assert_eq!(cp.recv_reports(Time::from_secs(30)).len(), 1);
    }

    #[test]
    fn faulty_plane_is_deterministic_per_seed() {
        let fm = FaultModel::perfect()
            .with_drop_prob(0.3)
            .with_jitter(TimeDelta::from_millis(500));
        let run = |seed: u64| {
            let mut cp = ControlPlane::new(fm.clone(), seed);
            for bai in 0..50u64 {
                cp.send_assignments(Time::from_secs(bai * 10), vec![assignment(bai)]);
            }
            let got = cp.recv_assignments(Time::from_secs(1000));
            (got.iter().map(|a| a.seq).collect::<Vec<_>>(), cp.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds see different faults");
    }

    #[test]
    fn perfect_model_reports_itself() {
        assert!(FaultModel::perfect().is_perfect());
        assert!(!FaultModel::perfect().with_drop_prob(0.1).is_perfect());
        assert!(!FaultModel::perfect()
            .with_outage(OutageWindow::new(Time::ZERO, Time::from_secs(1)))
            .is_perfect());
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_outage_panics() {
        let _ = OutageWindow::new(Time::from_secs(5), Time::from_secs(5));
    }
}
