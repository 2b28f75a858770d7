//! The cell: per-TTI scheduling, delivery, counters, and enforcement knobs.

use flare_sim::units::{ByteCount, Rate};
use flare_sim::Time;
use flare_trace::{Category, TraceHandle};

use crate::bearer::{BearerQos, TokenBucket};
use crate::channel::ChannelModel;
use crate::flows::{FlowClass, FlowId};
use crate::scheduler::{FlowTtiState, MacScheduler, RbAllocation};
use crate::stats::{FlowIntervalStats, IntervalReport};
use crate::tbs::{Itbs, LinkAdaptation};

/// Cell-wide radio configuration.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Resource blocks available per TTI (50 for the paper's 10 MHz FDD
    /// femtocell).
    pub rbs_per_tti: u32,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig { rbs_per_tti: 50 }
    }
}

/// Bytes delivered to one flow during one TTI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The receiving flow.
    pub flow: FlowId,
    /// Bytes handed to the flow this TTI.
    pub bytes: ByteCount,
}

#[derive(Debug)]
struct FlowState {
    class: FlowClass,
    channel: Box<dyn ChannelModel>,
    qos: BearerQos,
    gbr_bucket: Option<TokenBucket>,
    /// When set, the GBR is a *lease*: it clears itself at this time unless
    /// renewed. `None` means the GBR is persistent (classic bearer setup).
    gbr_expires: Option<Time>,
    mbr_bucket: Option<TokenBucket>,
    /// Pending bytes; `None` means always backlogged (greedy data flow).
    backlog: Option<ByteCount>,
    // Counters since the last report.
    interval_rbs: u64,
    interval_bytes: ByteCount,
    // Lifetime counters.
    total_bytes: ByteCount,
    last_itbs: Itbs,
    /// When the channel must next be polled: `last_itbs` holds until then
    /// ([`ChannelModel::valid_until`]). `Time::ZERO` until the first poll.
    poll_at: Time,
}

impl std::fmt::Debug for Box<dyn ChannelModel> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelModel")
    }
}

/// A simulated LTE cell (eNodeB MAC + per-UE channels).
///
/// Drive it by calling [`ENodeB::step_tti`] once per millisecond with a
/// monotonically increasing time; collect `(n_u, b_u)` statistics with
/// [`ENodeB::take_report`] once per bitrate assignment interval.
pub struct ENodeB {
    config: CellConfig,
    /// The 2×2 MIMO iTbs → bits-per-RB table.
    link_adaptation: LinkAdaptation,
    scheduler: Box<dyn MacScheduler>,
    flows: Vec<FlowState>,
    report_start: Time,
    now: Time,
    /// A lower bound on the earliest open lease's expiry (`Time::MAX` when
    /// none has been granted since the last scan). The expiry scan runs
    /// only once a TTI reaches it, and sets it to the exact earliest expiry
    /// still open. A cancelled or renewed lease leaves it early, which
    /// costs one scan that finds nothing due.
    lease_due: Time,
    /// RBs granted in the most recent TTI (as summed over scheduler grants).
    last_tti_granted: u32,
    /// Test-only distortion added to [`ENodeB::last_tti_granted_rbs`]; lets
    /// invariant-layer tests observe a deliberately over-granted TTI without
    /// tripping the scheduler's internal assertion. Always 0 in real runs.
    reported_grant_inflation: u32,
    trace: TraceHandle,
    /// The scheduler's per-flow view, one entry per flow in flow-id order.
    /// Built by [`ENodeB::add_flow`] and updated in place every TTI: backlog
    /// and GBR credit always, `bits_per_rb` only when the flow's iTbs moves
    /// (the channel→iTbs→TBS cache).
    tti_states: Vec<FlowTtiState>,
    // Persistent per-TTI scratch buffers. Cleared and refilled every
    // [`ENodeB::step_tti`] so the hot path performs no allocation once their
    // capacities stabilize (after warm-up).
    tti_grants: Vec<RbAllocation>,
    tti_delivered: Vec<Delivered>,
    tti_expired: Vec<u64>,
    /// True while the cell is provably inert: no backlog, every bearer
    /// bucket at its burst cap, and a scheduler whose idle TTI is a pure
    /// settle. Until `lease_due`, [`ENodeB::step_tti`] then reduces to that
    /// settle plus the trace tick and skips the channel polls — the outcome
    /// is bit-identical to the full path. Cleared by any flow mutation (see
    /// [`ENodeB::flow_mut`]) and re-derived after each fully idle TTI.
    quiescent: bool,
    /// A quiescent TTI skipped the channel polls that fell due in it. The
    /// next full TTI polls them; [`ENodeB::take_report`] catches them up
    /// first if it comes sooner.
    polls_skipped: bool,
}

impl std::fmt::Debug for ENodeB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ENodeB")
            .field("scheduler", &self.scheduler.name())
            .field("flows", &self.flows.len())
            .field("now", &self.now)
            .finish()
    }
}

impl ENodeB {
    /// Creates a cell with the given configuration and MAC scheduler.
    pub fn new(config: CellConfig, scheduler: Box<dyn MacScheduler>) -> Self {
        assert!(
            config.rbs_per_tti > 0,
            "cell must have at least one RB per TTI"
        );
        ENodeB {
            config,
            link_adaptation: LinkAdaptation::default(),
            scheduler,
            flows: Vec::new(),
            report_start: Time::ZERO,
            now: Time::ZERO,
            lease_due: Time::MAX,
            last_tti_granted: 0,
            reported_grant_inflation: 0,
            trace: TraceHandle::disabled(),
            tti_states: Vec::new(),
            tti_grants: Vec::new(),
            tti_delivered: Vec::new(),
            tti_expired: Vec::new(),
            quiescent: false,
            polls_skipped: false,
        }
    }

    /// Attaches a trace recorder. MAC events ([`Category::Mac`]) are
    /// tick-sampled per the handle's configuration; enforcement events
    /// ([`Category::Enforce`]) record GBR/lease lifecycle.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attaches a flow with its own channel process. Data flows are greedy
    /// (always backlogged); video flows start with an empty queue.
    pub fn add_flow(&mut self, class: FlowClass, channel: Box<dyn ChannelModel>) -> FlowId {
        // Bring the existing flows up to date first, so a report taken
        // before the next TTI catches up none but them.
        self.catch_up_polls();
        let id = FlowId(self.flows.len() as u32);
        self.quiescent = false;
        let initial_itbs = Itbs::new(0);
        self.tti_states.push(FlowTtiState {
            flow: id,
            class,
            backlog: ByteCount::ZERO,
            bits_per_rb: self.link_adaptation.bits_per_rb(initial_itbs),
            gbr_credit: ByteCount::ZERO,
        });
        self.flows.push(FlowState {
            class,
            channel,
            qos: BearerQos::default(),
            gbr_bucket: None,
            gbr_expires: None,
            mbr_bucket: None,
            backlog: match class {
                FlowClass::Video => Some(ByteCount::ZERO),
                FlowClass::Data => None,
            },
            interval_rbs: 0,
            interval_bytes: ByteCount::ZERO,
            total_bytes: ByteCount::ZERO,
            last_itbs: initial_itbs,
            poll_at: Time::ZERO,
        });
        id
    }

    /// The cell configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// The link adaptation table (shared with network-side optimizers).
    pub fn link_adaptation(&self) -> &LinkAdaptation {
        &self.link_adaptation
    }

    /// Sets or clears a flow's guaranteed bit rate (the Continuous GBR
    /// Updater: the paper re-assigns GBRs every BAI, not just at bearer
    /// setup).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is unknown.
    pub fn set_gbr(&mut self, flow: FlowId, gbr: Option<Rate>) {
        let now = self.now;
        self.trace.record_debug(now, Category::Enforce, "gbr", |e| {
            e.u64("flow", flow.index() as u64);
            match gbr {
                Some(rate) => e.f64("kbps", rate.as_kbps()),
                None => e.bool("cleared", true),
            };
        });
        let st = self.flow_mut(flow);
        // A plain set is persistent: it cancels any outstanding lease.
        st.gbr_expires = None;
        st.qos.gbr = gbr;
        match (gbr, st.gbr_bucket.as_mut()) {
            (Some(rate), Some(bucket)) => bucket.set_rate(rate),
            (Some(rate), None) => {
                let mut bucket = TokenBucket::new(rate);
                bucket.advance(now);
                bucket.drain();
                st.gbr_bucket = Some(bucket);
            }
            (None, _) => st.gbr_bucket = None,
        }
    }

    /// Sets a flow's guaranteed bit rate as a *lease* that self-destructs at
    /// `expires_at` unless renewed (by another lease or a plain
    /// [`ENodeB::set_gbr`]).
    ///
    /// A robust control plane grants leases instead of persistent GBRs: if
    /// the OneAPI server dies mid-experiment, stale reservations evaporate
    /// after a bounded number of BAIs and the radio resources return to the
    /// proportional-fair pool, instead of staying pinned to whatever the
    /// last solve decided forever.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is unknown or `expires_at` is not in the future.
    pub fn set_gbr_lease(&mut self, flow: FlowId, gbr: Rate, expires_at: Time) {
        assert!(
            expires_at > self.now,
            "a GBR lease must expire in the future"
        );
        self.trace
            .record(self.now, Category::Enforce, "lease_grant", |e| {
                e.u64("flow", flow.index() as u64)
                    .f64("kbps", gbr.as_kbps())
                    .u64("expires_ms", expires_at.as_millis());
            });
        self.trace.incr("enforce.lease_grants", 1);
        self.set_gbr(flow, Some(gbr));
        self.flow_mut(flow).gbr_expires = Some(expires_at);
        self.lease_due = self.lease_due.min(expires_at);
    }

    /// When the flow's GBR lease expires (`None`: no GBR, or persistent).
    pub fn lease_expiry(&self, flow: FlowId) -> Option<Time> {
        self.flows[flow.index()].gbr_expires
    }

    /// Sets or clears a flow's maximum bit rate (AVIS-style cap).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is unknown.
    pub fn set_mbr(&mut self, flow: FlowId, mbr: Option<Rate>) {
        let now = self.now;
        let st = self.flow_mut(flow);
        st.qos.mbr = mbr;
        match (mbr, st.mbr_bucket.as_mut()) {
            (Some(rate), Some(bucket)) => bucket.set_rate(rate),
            (Some(rate), None) => {
                let mut bucket = TokenBucket::new(rate);
                bucket.advance(now);
                // An MBR bucket starts full: the flow may immediately burst
                // one window's worth.
                st.mbr_bucket = Some(bucket);
            }
            (None, _) => st.mbr_bucket = None,
        }
    }

    /// Returns a flow's current QoS configuration.
    pub fn qos(&self, flow: FlowId) -> BearerQos {
        self.flows[flow.index()].qos
    }

    /// Queues `bytes` for downlink delivery on a video flow (one HAS segment
    /// arriving at the eNodeB from the media server).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is a greedy data flow (those are always backlogged).
    pub fn push_backlog(&mut self, flow: FlowId, bytes: ByteCount) {
        let st = self.flow_mut(flow);
        match st.backlog.as_mut() {
            Some(b) => *b += bytes,
            None => panic!("cannot push backlog on an always-backlogged data flow"),
        }
    }

    /// Remaining queued bytes of a finite flow (`None` for greedy flows).
    pub fn backlog(&self, flow: FlowId) -> Option<ByteCount> {
        self.flows[flow.index()].backlog
    }

    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowState {
        // Every externally driven flow mutation (backlog, QoS, leases) comes
        // through here, so this is the one choke point that must re-arm the
        // full per-TTI path.
        self.quiescent = false;
        &mut self.flows[flow.index()]
    }

    /// Runs one TTI of MAC scheduling at time `now`, returning the bytes
    /// delivered to each flow.
    ///
    /// The returned slice borrows a scratch buffer owned by the cell; it is
    /// valid until the next `step_tti` call. Callers that need the results
    /// past that point must copy them out (`Delivered` is `Copy`).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes a previous TTI, or if the scheduler
    /// over-allocates the RB budget (a scheduler bug).
    pub fn step_tti(&mut self, now: Time) -> &[Delivered] {
        debug_assert!(now >= self.now, "TTIs must advance monotonically");
        self.now = now;

        // Quiescent fast path: when the previous TTI proved the cell inert
        // (see the `quiescent` field) and no lease falls due, the full path
        // below would grant nothing and deliver nothing. Its only observable
        // effects — the scheduler's idle settle and the MAC trace tick — are
        // replayed here verbatim. The settle reads no channel state, so the
        // channel polls wait: every model's value is a function of time
        // alone, and a later poll catches up with the same draws.
        if self.quiescent && now < self.lease_due {
            self.polls_skipped = true;
            let idled = self.scheduler.idle_tick(&self.tti_states);
            debug_assert!(idled, "a quiescent cell's scheduler must idle");
            self.tti_grants.clear();
            self.last_tti_granted = 0;
            self.tti_delivered.clear();
            if self.trace.tick() {
                let n_flows = self.tti_states.len() as u64;
                self.trace.record(now, Category::Mac, "tti", |e| {
                    e.u64("rbs", 0).u64("sched", 0).u64("flows", n_flows);
                });
            }
            return &self.tti_delivered;
        }

        // 0. Expire GBR leases that were not renewed. `lease_due` never
        // passes an open lease's expiry, so each lease ends on its own TTI.
        self.tti_expired.clear();
        if now >= self.lease_due {
            let mut next_due = Time::MAX;
            for (i, st) in self.flows.iter_mut().enumerate() {
                match st.gbr_expires {
                    Some(expires_at) if now >= expires_at => {
                        st.gbr_expires = None;
                        st.qos.gbr = None;
                        st.gbr_bucket = None;
                        self.tti_expired.push(i as u64);
                    }
                    Some(expires_at) => next_due = next_due.min(expires_at),
                    None => {}
                }
            }
            self.lease_due = next_due;
        }
        if !self.tti_expired.is_empty() {
            self.trace
                .incr("enforce.lease_expiries", self.tti_expired.len() as u64);
            for &f in &self.tti_expired {
                self.trace
                    .record(now, Category::Enforce, "lease_expired", |e| {
                        e.u64("flow", f);
                    });
            }
        }

        // 1. Refresh channels and bearer buckets into the flow table. A
        // channel is polled only once its last value's validity ends.
        let mut any_backlog = false;
        for (st, state) in self.flows.iter_mut().zip(&mut self.tti_states) {
            if now >= st.poll_at {
                poll_channel(st, state, &self.link_adaptation, now);
            }
            if let Some(b) = st.gbr_bucket.as_mut() {
                b.advance(now);
            }
            if let Some(b) = st.mbr_bucket.as_mut() {
                b.advance(now);
            }
            let mbr_allowance = st
                .mbr_bucket
                .as_ref()
                .map_or(ByteCount::new(u64::MAX), |b| b.available());
            let raw_backlog = st.backlog.unwrap_or(ByteCount::new(u64::MAX / 2));
            state.backlog = raw_backlog.min(mbr_allowance);
            any_backlog |= !state.backlog.is_zero();
            state.gbr_credit = st
                .gbr_bucket
                .as_ref()
                .map_or(ByteCount::ZERO, |b| b.available());
        }
        self.polls_skipped = false;

        // 2. Schedule into the reused grants buffer. A backlog-free TTI
        // takes the scheduler's idle settle when the policy offers one
        // (grants stay empty either way, so the outcome is identical).
        let took_idle = !any_backlog && self.scheduler.idle_tick(&self.tti_states);
        if took_idle {
            self.tti_grants.clear();
        } else {
            self.scheduler.allocate_into(
                self.config.rbs_per_tti,
                &self.tti_states,
                &mut self.tti_grants,
            );
        }
        let granted_total: u32 = self.tti_grants.iter().map(|g| g.rbs).sum();
        assert!(
            granted_total <= self.config.rbs_per_tti,
            "scheduler over-allocated: {granted_total} > {}",
            self.config.rbs_per_tti
        );
        self.last_tti_granted = granted_total;

        // 3. Deliver.
        let mac_sampled = self.trace.tick();
        let grant_debug = mac_sampled && self.trace.debug_enabled();
        self.tti_delivered.clear();
        for gi in 0..self.tti_grants.len() {
            let g = self.tti_grants[gi];
            let bytes = g.bytes;
            debug_assert_eq!(
                bytes,
                {
                    let state = &self.tti_states[g.flow.index()];
                    state.bytes_for_rbs(g.rbs).min(state.backlog)
                },
                "a grant must carry bytes_for_rbs(rbs) capped by the backlog"
            );
            if grant_debug {
                let st = &self.flows[g.flow.index()];
                self.trace.record_debug(now, Category::Mac, "grant", |e| {
                    e.u64("flow", g.flow.index() as u64)
                        .u64("rbs", u64::from(g.rbs))
                        .u64("bytes", bytes.as_u64())
                        .u64("itbs", st.last_itbs.index() as u64);
                });
            }
            let st = &mut self.flows[g.flow.index()];
            if let Some(backlog) = st.backlog.as_mut() {
                *backlog = backlog.saturating_sub(bytes);
            }
            if let Some(b) = st.gbr_bucket.as_mut() {
                b.consume(bytes.min(b.available()));
            }
            if let Some(b) = st.mbr_bucket.as_mut() {
                b.consume(bytes);
            }
            st.interval_rbs += u64::from(g.rbs);
            st.interval_bytes += bytes;
            st.total_bytes += bytes;
            if !bytes.is_zero() || g.rbs > 0 {
                self.tti_delivered.push(Delivered {
                    flow: g.flow,
                    bytes,
                });
            }
        }
        if mac_sampled {
            let sched = self.tti_delivered.len() as u64;
            let n_flows = self.tti_states.len() as u64;
            self.trace.record(now, Category::Mac, "tti", |e| {
                e.u64("rbs", u64::from(granted_total))
                    .u64("sched", sched)
                    .u64("flows", n_flows);
            });
        }

        // Arm the quiescent fast path for the next TTI: an idle settle just
        // happened and every bucket is already at its cap, so until new
        // traffic, a QoS change or a lease expiry the next TTI can only
        // repeat this one.
        self.quiescent = took_idle
            && self.flows.iter().all(|st| {
                st.gbr_bucket.as_ref().is_none_or(TokenBucket::is_full)
                    && st.mbr_bucket.as_ref().is_none_or(TokenBucket::is_full)
            });
        &self.tti_delivered
    }

    /// Drains and returns the per-flow `(n_u, b_u)` counters accumulated
    /// since the previous report — the paper's periodic Statistics Reporter
    /// message to the OneAPI server.
    pub fn take_report(&mut self, now: Time) -> IntervalReport {
        // Each flow reports the iTbs of the most recent TTI, as if it had
        // been polled through the quiescent TTIs too.
        self.catch_up_polls();
        let start = self.report_start;
        self.report_start = now;
        let flows = self
            .flows
            .iter_mut()
            .enumerate()
            .map(|(i, st)| {
                let s = FlowIntervalStats {
                    flow: FlowId(i as u32),
                    class: st.class,
                    rbs: st.interval_rbs,
                    bytes: st.interval_bytes,
                    itbs: st.last_itbs,
                };
                st.interval_rbs = 0;
                st.interval_bytes = ByteCount::ZERO;
                s
            })
            .collect();
        let report = IntervalReport {
            start,
            end: now,
            flows,
        };
        if self.trace.is_attached() {
            self.trace.incr("mac.reports", 1);
            self.trace.incr("mac.report_rbs", report.total_rbs());
            self.trace
                .incr("mac.report_bytes", report.total_bytes().as_u64());
            self.trace.gauge("mac.flows", self.flows.len() as f64);
        }
        report
    }

    /// Polls, at the most recent TTI's time, the channels whose polls
    /// quiescent TTIs skipped.
    fn catch_up_polls(&mut self) {
        if !self.polls_skipped {
            return;
        }
        self.polls_skipped = false;
        let now = self.now;
        for (st, state) in self.flows.iter_mut().zip(&mut self.tti_states) {
            if now >= st.poll_at {
                poll_channel(st, state, &self.link_adaptation, now);
            }
        }
    }

    /// Lifetime bytes delivered to a flow.
    pub fn total_bytes(&self, flow: FlowId) -> ByteCount {
        self.flows[flow.index()].total_bytes
    }

    /// RBs granted in the most recent TTI, as reported to external
    /// observers (the runtime invariant layer reads this after every
    /// [`ENodeB::step_tti`] to check RB conservation against
    /// [`CellConfig::rbs_per_tti`]).
    pub fn last_tti_granted_rbs(&self) -> u32 {
        self.last_tti_granted
            .saturating_add(self.reported_grant_inflation)
    }

    /// Test-only hook: inflates the grant total *reported* by
    /// [`ENodeB::last_tti_granted_rbs`] by `extra` RBs without touching the
    /// actual allocation. A real over-allocation trips the hard assertion in
    /// [`ENodeB::step_tti`] before any observer sees it; this hook lets
    /// tests verify that the invariant layer would catch one.
    #[doc(hidden)]
    pub fn debug_inflate_reported_grants(&mut self, extra: u32) {
        self.reported_grant_inflation = extra;
    }
}

/// Polls a flow's channel at `now` and refreshes its cached bits/RB when the
/// iTbs moved (the channel→iTbs→TBS cache).
fn poll_channel(st: &mut FlowState, state: &mut FlowTtiState, la: &LinkAdaptation, now: Time) {
    let itbs = st.channel.itbs_at(now);
    st.poll_at = st.channel.valid_until(now);
    if itbs != st.last_itbs {
        st.last_itbs = itbs;
        state.bits_per_rb = la.bits_per_rb(itbs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{StaticChannel, TriangleWave};
    use crate::scheduler::{ProportionalFair, TwoPhaseGbr};
    use flare_sim::{TimeDelta, TTI};

    fn cell(scheduler: Box<dyn MacScheduler>) -> ENodeB {
        ENodeB::new(CellConfig::default(), scheduler)
    }

    /// A two-phase GBR cell counting into a registry-only trace, for the
    /// lease tests.
    fn gbr_cell() -> ENodeB {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        enb.set_trace(TraceHandle::registry_only());
        enb
    }

    /// GBR leases that expired unrenewed so far (`enforce.lease_expiries`).
    fn lease_expiries(enb: &ENodeB) -> u64 {
        enb.trace.snapshot().counter("enforce.lease_expiries")
    }

    fn run_ttis(enb: &mut ENodeB, start_ms: u64, n: u64) -> Vec<Vec<Delivered>> {
        (0..n)
            .map(|i| enb.step_tti(Time::from_millis(start_ms + i)).to_vec())
            .collect()
    }

    #[test]
    fn data_flow_absorbs_full_cell() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(2))));
        run_ttis(&mut enb, 0, 1000);
        let report = enb.take_report(Time::from_secs(1));
        let stats = report.flow(f).unwrap();
        // iTbs 2 with default 2x MIMO = 64 bits/RB; 50 RB * 1000 TTI.
        assert_eq!(stats.rbs, 50_000);
        let tput = stats.throughput(report.duration());
        assert!((tput.as_mbps() - 3.2).abs() < 0.01, "tput {tput}");
    }

    #[test]
    fn video_flow_drains_exact_backlog() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(
            FlowClass::Video,
            Box::new(StaticChannel::new(Itbs::new(12))),
        );
        enb.push_backlog(f, ByteCount::new(10_000));
        let mut total = ByteCount::ZERO;
        let mut t = Time::ZERO;
        while enb.backlog(f).unwrap() > ByteCount::ZERO {
            for d in enb.step_tti(t) {
                total += d.bytes;
            }
            t += TTI;
            assert!(t < Time::from_secs(10), "drain took too long");
        }
        assert_eq!(total, ByteCount::new(10_000));
        // Nothing more is delivered once the queue is empty.
        let extra: ByteCount = enb.step_tti(t).iter().map(|d| d.bytes).sum();
        assert_eq!(extra, ByteCount::ZERO);
    }

    #[test]
    fn gbr_flow_paced_at_guaranteed_rate() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let video = enb.add_flow(
            FlowClass::Video,
            Box::new(StaticChannel::new(Itbs::new(12))),
        );
        let _data = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(12))));
        enb.set_gbr(video, Some(Rate::from_kbps(790.0)));
        enb.push_backlog(video, ByteCount::new(10_000_000));
        run_ttis(&mut enb, 0, 10_000);
        let report = enb.take_report(Time::from_secs(10));
        let tput = report.flow(video).unwrap().throughput(report.duration());
        // Phase 2 also serves the video flow, so throughput >= GBR; with a
        // greedy data competitor the PF split gives each ~half the slack.
        assert!(tput.as_kbps() >= 780.0, "GBR not met: {tput}");
    }

    #[test]
    fn mbr_caps_data_flow() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(12))));
        enb.set_mbr(f, Some(Rate::from_mbps(1.0)));
        run_ttis(&mut enb, 0, 10_000);
        let report = enb.take_report(Time::from_secs(10));
        let tput = report.flow(f).unwrap().throughput(report.duration());
        assert!(
            (tput.as_mbps() - 1.0).abs() < 0.05,
            "MBR cap violated or overly strict: {tput}"
        );
    }

    #[test]
    fn report_resets_counters() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(5))));
        run_ttis(&mut enb, 0, 100);
        let r1 = enb.take_report(Time::from_millis(100));
        assert!(r1.flow(f).unwrap().rbs > 0);
        let r2 = enb.take_report(Time::from_millis(100));
        assert_eq!(r2.flow(f).unwrap().rbs, 0);
        assert_eq!(r2.duration(), TimeDelta::ZERO);
    }

    #[test]
    fn two_videos_share_via_gbr() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let a = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(8))));
        let b = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(8))));
        enb.set_gbr(a, Some(Rate::from_kbps(450.0)));
        enb.set_gbr(b, Some(Rate::from_kbps(1100.0)));
        enb.push_backlog(a, ByteCount::new(50_000_000));
        enb.push_backlog(b, ByteCount::new(50_000_000));
        run_ttis(&mut enb, 0, 20_000);
        let report = enb.take_report(Time::from_secs(20));
        let ta = report.flow(a).unwrap().throughput(report.duration());
        let tb = report.flow(b).unwrap().throughput(report.duration());
        assert!(ta.as_kbps() >= 440.0, "flow a below GBR: {ta}");
        assert!(tb.as_kbps() >= 1080.0, "flow b below GBR: {tb}");
        assert!(tb > ta);
    }

    #[test]
    fn total_bytes_accumulates_across_reports() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(5))));
        run_ttis(&mut enb, 0, 100);
        enb.take_report(Time::from_millis(100));
        run_ttis(&mut enb, 100, 100);
        enb.take_report(Time::from_millis(200));
        assert!(enb.total_bytes(f).as_u64() > 0);
    }

    #[test]
    fn rb_conservation_under_many_flows() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        for i in 0..8 {
            let class = if i % 2 == 0 {
                FlowClass::Video
            } else {
                FlowClass::Data
            };
            let f = enb.add_flow(class, Box::new(StaticChannel::new(Itbs::new(3 + i))));
            if class == FlowClass::Video {
                enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
                enb.push_backlog(f, ByteCount::new(10_000_000));
            }
        }
        run_ttis(&mut enb, 0, 5000);
        let report = enb.take_report(Time::from_secs(5));
        // 50 RB/TTI * 5000 TTIs is the hard ceiling.
        assert!(report.total_rbs() <= 250_000);
        // With greedy data flows present the cell should be fully loaded.
        assert!(
            report.total_rbs() >= 249_000,
            "cell idle: {}",
            report.total_rbs()
        );
    }

    #[test]
    fn conservation_under_random_workloads() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        let mut runner = TestRunner::default();
        runner
            .run(
                &(
                    proptest::collection::vec(0u8..=26, 1..10),
                    proptest::collection::vec(1_000u64..5_000_000, 1..10),
                    1u64..u64::MAX,
                ),
                |(itbs_list, backlogs, _seed)| {
                    let mut enb = cell(Box::new(TwoPhaseGbr::default()));
                    let n = itbs_list.len().min(backlogs.len());
                    let mut flows = Vec::new();
                    for i in 0..n {
                        let f = enb.add_flow(
                            FlowClass::Video,
                            Box::new(StaticChannel::new(Itbs::new(itbs_list[i]))),
                        );
                        enb.push_backlog(f, ByteCount::new(backlogs[i]));
                        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
                        flows.push(f);
                    }
                    let mut delivered_total = ByteCount::ZERO;
                    for ms in 0..2_000u64 {
                        for d in enb.step_tti(Time::from_millis(ms)) {
                            delivered_total += d.bytes;
                        }
                    }
                    let report = enb.take_report(Time::from_secs(2));
                    // 1. RB conservation: never more than 50 RB/TTI * TTIs.
                    prop_assert!(report.total_rbs() <= 50 * 2_000);
                    // 2. Byte conservation: delivered == counted == pushed - left.
                    prop_assert_eq!(report.total_bytes(), delivered_total);
                    let pushed: u64 = backlogs[..n].iter().sum();
                    let left: u64 = flows
                        .iter()
                        .map(|&f| enb.backlog(f).unwrap().as_u64())
                        .sum();
                    prop_assert_eq!(delivered_total.as_u64() + left, pushed);
                    // 3. Physical limit: bytes <= RBs * best-channel bits/RB.
                    let best = itbs_list[..n]
                        .iter()
                        .map(|&i| enb.link_adaptation().bits_per_rb(Itbs::new(i)))
                        .fold(0.0f64, f64::max);
                    prop_assert!(
                        (report.total_bytes().as_bits() as f64)
                            <= report.total_rbs() as f64 * best + 1.0
                    );
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "always-backlogged")]
    fn pushing_backlog_on_data_flow_panics() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(2))));
        enb.push_backlog(f, ByteCount::new(1));
    }

    #[test]
    fn set_gbr_updates_and_clears() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        enb.set_gbr(f, Some(Rate::from_kbps(790.0)));
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(790.0)));
        enb.set_gbr(f, None);
        assert_eq!(enb.qos(f).gbr, None);
    }

    #[test]
    fn flow_added_mid_run_is_served_at_its_channel_rate() {
        // Static channels are polled once; a flow attached later must still
        // have its own channel polled before it is scheduled.
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let first = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(4))));
        run_ttis(&mut enb, 0, 10);
        let late = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(9))));
        run_ttis(&mut enb, 10, 10);
        let report = enb.take_report(Time::from_millis(20));
        assert_eq!(report.flow(first).unwrap().itbs, Itbs::new(4));
        assert_eq!(report.flow(late).unwrap().itbs, Itbs::new(9));
        let stats = report.flow(late).unwrap();
        let bytes_per_rb = enb.link_adaptation().bits_per_rb(Itbs::new(9)) / 8.0;
        assert_eq!(stats.bytes.as_u64() as f64, stats.rbs as f64 * bytes_per_rb);
    }

    #[test]
    fn gbr_lease_expires_without_renewal() {
        let mut enb = gbr_cell();
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(100));
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.lease_expiry(f), Some(Time::from_millis(100)));
        run_ttis(&mut enb, 0, 99);
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        enb.step_tti(Time::from_millis(100));
        assert_eq!(enb.qos(f).gbr, None);
        assert_eq!(enb.lease_expiry(f), None);
        assert_eq!(lease_expiries(&enb), 1);
    }

    #[test]
    fn renewed_lease_does_not_expire() {
        let mut enb = gbr_cell();
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(100));
        run_ttis(&mut enb, 0, 50);
        // Renewal pushes the expiry out; the old deadline passes harmlessly.
        enb.set_gbr_lease(f, Rate::from_kbps(790.0), Time::from_millis(200));
        run_ttis(&mut enb, 50, 100);
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(790.0)));
        assert_eq!(lease_expiries(&enb), 0);
    }

    #[test]
    fn plain_set_gbr_cancels_lease() {
        let mut enb = gbr_cell();
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(100));
        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.lease_expiry(f), None);
        run_ttis(&mut enb, 0, 200);
        // Persistent GBR outlives the would-be lease deadline.
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        assert_eq!(lease_expiries(&enb), 0);
    }

    #[test]
    fn expired_lease_returns_rbs_to_pf_pool() {
        // A leased video flow and a greedy data flow: while the lease is
        // live the video's GBR is honoured; after expiry the data flow's
        // share grows because nothing is reserved any more.
        let mut enb = gbr_cell();
        let video = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(8))));
        let data = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(8))));
        enb.set_gbr_lease(video, Rate::from_kbps(1500.0), Time::from_secs(5));
        enb.push_backlog(video, ByteCount::new(100_000_000));
        run_ttis(&mut enb, 0, 5_000);
        let leased = enb.take_report(Time::from_secs(5));
        run_ttis(&mut enb, 5_000, 5_000);
        let expired = enb.take_report(Time::from_secs(10));
        assert_eq!(lease_expiries(&enb), 1);
        let d_before = leased.flow(data).unwrap().rbs;
        let d_after = expired.flow(data).unwrap().rbs;
        assert!(
            d_after > d_before,
            "data flow RBs should grow after lease expiry: {d_before} -> {d_after}"
        );
    }

    /// A one-video cell on a static channel whose trace records lease
    /// lifecycle events.
    fn leased_cell() -> (ENodeB, FlowId, TraceHandle) {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let trace = TraceHandle::new(flare_trace::TraceLevel::Info);
        enb.set_trace(trace.clone());
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        (enb, f, trace)
    }

    /// The times (ms) of every recorded `lease_expired` event.
    fn expiry_times(trace: &TraceHandle) -> Vec<u64> {
        trace
            .events()
            .iter()
            .filter(|e| e.name == "lease_expired")
            .map(|e| e.time_ms)
            .collect()
    }

    #[test]
    fn lease_expiring_in_a_quiescent_span_expires_on_its_own_tti() {
        let (mut enb, f, trace) = leased_cell();
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(1_000));
        run_ttis(&mut enb, 0, 1_000);
        assert!(enb.quiescent, "the idle leased cell must go quiescent");
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        assert!(expiry_times(&trace).is_empty());
        enb.step_tti(Time::from_millis(1_000));
        assert_eq!(enb.qos(f).gbr, None);
        assert_eq!(enb.lease_expiry(f), None);
        assert_eq!(lease_expiries(&enb), 1);
        assert_eq!(expiry_times(&trace), vec![1_000]);
    }

    #[test]
    fn renewed_lease_expires_on_its_new_tti_after_a_quiescent_span() {
        let (mut enb, f, trace) = leased_cell();
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(1_000));
        run_ttis(&mut enb, 0, 600);
        assert!(enb.quiescent);
        enb.set_gbr_lease(f, Rate::from_kbps(790.0), Time::from_millis(1_500));
        // The old deadline passes harmlessly; the cell idles on to the new.
        run_ttis(&mut enb, 600, 900);
        assert!(enb.quiescent);
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(790.0)));
        assert_eq!(lease_expiries(&enb), 0);
        enb.step_tti(Time::from_millis(1_500));
        assert_eq!(enb.qos(f).gbr, None);
        assert_eq!(lease_expiries(&enb), 1);
        assert_eq!(expiry_times(&trace), vec![1_500]);
    }

    #[test]
    fn cancelled_lease_never_expires_after_a_quiescent_span() {
        let (mut enb, kept, trace) = leased_cell();
        let cleared = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        for f in [kept, cleared] {
            enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(1_000));
        }
        run_ttis(&mut enb, 0, 600);
        assert!(enb.quiescent);
        enb.set_gbr(kept, Some(Rate::from_kbps(500.0)));
        enb.set_gbr(cleared, None);
        run_ttis(&mut enb, 600, 1_400);
        assert!(enb.quiescent);
        assert_eq!(enb.qos(kept).gbr, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.qos(cleared).gbr, None);
        assert_eq!(lease_expiries(&enb), 0);
        assert!(expiry_times(&trace).is_empty());
    }

    #[test]
    fn quiescent_span_on_a_moving_channel_reports_and_serves_the_current_itbs() {
        let wave = || {
            TriangleWave::new(
                Itbs::new(1),
                Itbs::new(12),
                TimeDelta::from_secs(240),
                TimeDelta::ZERO,
            )
        };
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(wave()));
        run_ttis(&mut enb, 0, 60_000);
        assert!(
            enb.quiescent,
            "an idle cell goes quiescent on a moving channel"
        );
        let mut oracle = wave();
        let last = oracle.itbs_at(Time::from_millis(59_999));
        assert_ne!(
            last,
            Itbs::new(1),
            "the channel must have moved since t = 0"
        );
        let report = enb.take_report(Time::from_secs(60));
        assert_eq!(report.flow(f).unwrap().itbs, last);
        // The next TTI crosses an index step: new backlog is served at the
        // index of its own TTI, not at the one last reported.
        let now = Time::from_millis(60_000);
        let current = oracle.itbs_at(now);
        assert_ne!(current, last);
        enb.push_backlog(f, ByteCount::new(1_000_000));
        let served: ByteCount = enb.step_tti(now).iter().map(|d| d.bytes).sum();
        let bits_per_rb = enb.link_adaptation().bits_per_rb(current);
        assert_eq!(served.as_u64(), (bits_per_rb * 50.0 / 8.0) as u64);
    }

    #[test]
    fn report_before_a_flows_first_tti_reports_itbs_zero() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let first = enb.add_flow(
            FlowClass::Video,
            Box::new(TriangleWave::new(
                Itbs::new(1),
                Itbs::new(12),
                TimeDelta::from_secs(2),
                TimeDelta::ZERO,
            )),
        );
        let report = enb.take_report(Time::ZERO);
        assert_eq!(report.flow(first).unwrap().itbs, Itbs::new(0));
        // A flow attached after a quiescent span has not been polled yet;
        // the flows that were there report their last TTI's index.
        run_ttis(&mut enb, 0, 500);
        assert!(enb.quiescent);
        let late = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(9))));
        let report = enb.take_report(Time::from_millis(500));
        assert_eq!(report.flow(late).unwrap().itbs, Itbs::new(0));
        let mut oracle = TriangleWave::new(
            Itbs::new(1),
            Itbs::new(12),
            TimeDelta::from_secs(2),
            TimeDelta::ZERO,
        );
        assert_eq!(
            report.flow(first).unwrap().itbs,
            oracle.itbs_at(Time::from_millis(499))
        );
    }

    #[test]
    #[should_panic(expected = "expire in the future")]
    fn lease_in_the_past_panics() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.step_tti(Time::from_millis(10));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(10));
    }
}
