//! Per-scheme plugin dispatch: adapter selection, controller construction,
//! and the BAI/control-plane handlers for each adaptation scheme.
//!
//! Moved out of the main runner so [`CellSim`](super::CellSim)'s TTI loop
//! stays readable from harness call sites. Every FLARE-family run carries
//! its coordination loop (statistics reports up, assignments down, once per
//! BAI) over one [`ControlPlane`], which is lossless and instantaneous
//! unless `SimConfig::faults` injects faults. The `flare-harness` invariant
//! observations (guarded by `SimConfig::check_invariants`) sit at the solve
//! and install checkpoints.

use std::time::Duration;

use flare_abr::avis::AvisAllocator;
use flare_abr::{Festive, Google, RateBased, SharedAssignment, VersionedAssignment};
use flare_core::messages::AssignmentMsg;
use flare_core::{
    ClientInfo, ControlPlane, FlareConfig, FlarePlugin, OneApiServer, ResilientPlugin,
    RobustnessConfig,
};
use flare_harness::Observation;
use flare_has::{Level, RateAdapter};
use flare_lte::{FlowId, IntervalReport, LinkAdaptation};
use flare_sim::units::Rate;
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceHandle};

use super::CellSim;
use crate::config::{SchemeKind, SimConfig};

/// Client-side assignment cells of a FLARE run.
pub(super) enum MsgCells {
    /// Naive: last-write-wins cells, persistent GBRs — the paper's FLARE
    /// over a (possibly faulty) control plane. FLARE-GBR-ONLY has no cells:
    /// its players adapt on their own under the installed GBRs.
    Naive(Vec<SharedAssignment>),
    /// Resilient (FLARE-R): versioned cells with staleness fallback, GBR
    /// leases, and the server's degrading `bai_tick`.
    Versioned(Vec<VersionedAssignment>),
}

impl MsgCells {
    /// No cells yet, of the kind `scheme`'s plugins use.
    pub(super) fn for_scheme(scheme: &SchemeKind) -> Self {
        match scheme {
            SchemeKind::Flare(FlareConfig {
                robustness: Some(RobustnessConfig),
                ..
            }) => MsgCells::Versioned(Vec::new()),
            _ => MsgCells::Naive(Vec::new()),
        }
    }

    /// A FLARE plugin reading a new cell, which the controller writes.
    fn plugin(&mut self) -> Box<dyn RateAdapter> {
        match self {
            MsgCells::Naive(cs) => {
                let cell = SharedAssignment::new();
                cs.push(cell.clone());
                Box::new(FlarePlugin::new(cell))
            }
            MsgCells::Versioned(cs) => {
                let cell = VersionedAssignment::new();
                cs.push(cell.clone());
                Box::new(ResilientPlugin::new(cell))
            }
        }
    }
}

// One live instance per simulation; the size spread between variants is
// irrelevant next to boxing noise.
#[allow(clippy::large_enum_variant)]
pub(super) enum Controller {
    None,
    /// FLARE with its coordination loop carried over an explicit control
    /// plane, perfect unless `SimConfig::faults` injects faults.
    FlareMsg {
        server: OneApiServer,
        control: ControlPlane,
        cells: MsgCells,
        /// Freshest statistics report delivered to the server so far and
        /// not yet consumed by a solve.
        latest_report: Option<IntervalReport>,
    },
    Avis(AvisAllocator),
}

/// Eq. (4a) recomputed from the statistics a solve used, for the invariant
/// battery: weight `w_u = BAI / (8 b_u / n_u)` (the link-adaptation table's
/// bits/RB at the reported iTbs for a flow given no RBs), rate `R_u` of the
/// assigned level, budget `N = rbs_per_tti * BAI` TTIs (see
/// `OneApiServer::assign`). The floors' share under the same weights bounds
/// an overloaded BAI. `None` for an empty interval or no assignments.
fn rate_budget(
    config: &SimConfig,
    server: &OneApiServer,
    report: &IntervalReport,
    la: &LinkAdaptation,
    rbs_per_tti: u32,
    assigned: impl IntoIterator<Item = (FlowId, Level)>,
) -> Option<Observation> {
    let bai_ms = report.duration().as_millis();
    let bai_secs = bai_ms as f64 / 1000.0;
    let total_rbs = f64::from(rbs_per_tti) * bai_ms as f64;
    let mut any = false;
    let mut used = 0.0;
    let mut floor_used = 0.0;
    for (flow, level) in assigned {
        any = true;
        let Some(stats) = report.flow(flow) else {
            continue;
        };
        let bits_per_rb = stats
            .bytes_per_rb()
            .map(|b| b * 8.0)
            .unwrap_or_else(|| la.bits_per_rb(stats.itbs))
            .max(1.0);
        let weight = bai_secs / bits_per_rb;
        let floor = server
            .min_allowed_level(flow)
            .map(|l| config.ladder.rate(l))
            .expect("assignment for an unregistered client");
        used += weight * config.ladder.rate(level).as_bps();
        floor_used += weight * floor.as_bps();
    }
    if !any || total_rbs <= 0.0 {
        return None;
    }
    // The PCRF registers legacy players as data flows, so they count
    // towards the r_cap < 1 headroom rule.
    let has_data = config.n_data + config.legacy_video > 0;
    Some(Observation::RateBudget {
        used_fraction: used / total_rbs,
        r_cap: if has_data { 0.999 } else { 1.0 },
        floor_fraction: floor_used / total_rbs,
        tolerance: 1e-6,
    })
}

/// Builds the rate adapter one video player runs under `scheme`.
///
/// `legacy` players always get a conventional FESTIVE adapter (a FLARE
/// deployment services them as plain data traffic). FLARE plugins register
/// their assignment cell into `cells` so the controller can write to it.
pub(super) fn player_adapter(
    scheme: &SchemeKind,
    legacy: bool,
    cells: &mut MsgCells,
) -> Box<dyn RateAdapter> {
    if legacy {
        return Box::new(Festive::default());
    }
    match scheme {
        SchemeKind::Festive => Box::new(Festive::default()),
        SchemeKind::Google => Box::new(Google::default()),
        SchemeKind::Flare(_) => cells.plugin(),
        SchemeKind::FlareGbrOnly | SchemeKind::Avis => Box::new(RateBased::default()),
    }
}

/// Builds the network-side controller for `config`'s scheme.
pub(super) fn build_controller(
    config: &SimConfig,
    trace: &TraceHandle,
    video_flows: &[FlowId],
    data_flows: &[FlowId],
    coordinated: usize,
    cells: MsgCells,
) -> Controller {
    let fc = match &config.scheme {
        SchemeKind::Festive | SchemeKind::Google => return Controller::None,
        SchemeKind::Avis => return Controller::Avis(AvisAllocator::default()),
        SchemeKind::Flare(fc) => fc.clone(),
        SchemeKind::FlareGbrOnly => FlareConfig::default(),
    };
    let mut server = OneApiServer::new(fc);
    server.set_trace(trace.clone());
    for (i, &flow) in video_flows.iter().enumerate().take(coordinated) {
        let mut info = ClientInfo::new(flow, config.ladder.clone());
        if let Some(Some(prefs)) = config.prefs.get(i) {
            info = info.with_prefs(prefs.clone());
        }
        server.register_video(info);
    }
    // Legacy players are serviced like data: registered at the PCRF as
    // best-effort flows, never assigned a GBR.
    for &flow in video_flows.iter().skip(coordinated) {
        server.register_data(flow);
    }
    for &flow in data_flows {
        server.register_data(flow);
    }
    Controller::FlareMsg {
        server,
        control: ControlPlane::new(config.faults.clone(), config.seed).with_trace(trace.clone()),
        cells,
        latest_report: None,
    }
}

/// Moves every statistics report due by `now` into `latest`, keeping only
/// the freshest interval: an old report overtaken in flight must not
/// overwrite newer counters.
fn take_fresh_reports(control: &mut ControlPlane, now: Time, latest: &mut Option<IntervalReport>) {
    for r in control.recv_reports(now) {
        if latest.as_ref().is_none_or(|cur| r.end >= cur.end) {
            *latest = Some(r);
        }
    }
}

impl CellSim {
    /// Delivers every control-plane message due by `now`: reports reach the
    /// server's inbox, assignments reach the plugins' cells and the eNodeB's
    /// PCEF. No-op for controllers without a control plane.
    pub(super) fn poll_control(&mut self, now: Time) {
        let Controller::FlareMsg {
            control,
            cells,
            latest_report,
            ..
        } = &mut self.controller
        else {
            return;
        };
        // Called every TTI; almost every TTI has nothing in flight.
        if control.in_flight() == 0 {
            return;
        }
        take_fresh_reports(control, now, latest_report);
        for a in control.recv_assignments(now) {
            let Some(idx) = self
                .video_flows
                .iter()
                .position(|f| f.index() as u32 == a.flow_id)
            else {
                continue;
            };
            let flow = self.video_flows[idx];
            let rate = Rate::from_kbps(f64::from(a.gbr_kbps));
            let level = Level::new(a.level as usize);
            match cells {
                MsgCells::Naive(cs) => {
                    // Last write wins, GBRs persist: the paper's lossless-
                    // world behaviour, exposed to whatever faults are set.
                    if let Some(cell) = cs.get(idx) {
                        cell.set(level);
                    }
                    self.enb.set_gbr(flow, Some(rate));
                    self.trace
                        .record_debug(now, Category::Plugin, "apply", |e| {
                            e.u64("ue", idx as u64)
                                .u64("level", u64::from(a.level))
                                .u64("gbr_kbps", u64::from(a.gbr_kbps));
                        });
                }
                MsgCells::Versioned(cs) => {
                    // Client and PCEF share the versioned view: a stale
                    // assignment neither moves the plugin nor touches QoS.
                    let prev_seq = cs[idx].seq();
                    let accepted = cs[idx].install(a.seq, level);
                    if let Some(inv) = self.invariants.as_mut() {
                        inv.observe(
                            now,
                            &Observation::Install {
                                ue: idx as u64,
                                seq: a.seq,
                                prev_seq,
                                accepted,
                            },
                        );
                    }
                    if accepted {
                        let lease = TimeDelta::from_millis(
                            self.config.bai.as_millis() * u64::from(RobustnessConfig::LEASE_BAIS),
                        );
                        self.enb.set_gbr_lease(flow, rate, now + lease);
                        self.trace.incr("plugin.installs", 1);
                        self.trace.record(now, Category::Plugin, "install", |e| {
                            e.u64("ue", idx as u64)
                                .u64("assign_seq", a.seq)
                                .u64("level", u64::from(a.level))
                                .u64("gbr_kbps", u64::from(a.gbr_kbps));
                        });
                    } else {
                        self.trace.incr("plugin.stale_rejections", 1);
                        self.trace
                            .record(now, Category::Plugin, "stale_reject", |e| {
                                e.u64("ue", idx as u64).u64("assign_seq", a.seq);
                            });
                    }
                }
            }
        }
    }

    pub(super) fn run_bai(&mut self, now: Time, solve_times: &mut Vec<Duration>) {
        let report = self.enb.take_report(now);
        let check = self.invariants.is_some();
        let max_level = self.config.ladder.len().saturating_sub(1);
        let rbs = self.enb.config().rbs_per_tti;
        let la = self.enb.link_adaptation();
        match &mut self.controller {
            Controller::None => {}
            Controller::FlareMsg {
                server,
                control,
                cells,
                latest_report,
            } => {
                // eNodeB -> server: this BAI's statistics, via the (possibly
                // faulty) control plane.
                control.send_report(now, report);
                take_fresh_reports(control, now, latest_report);
                // Server side: during an outage window the server is down
                // and issues nothing; clients notice via staleness.
                if !control.in_outage(now) {
                    // Eq. (4b) is a server-side constraint: snapshot the
                    // server's own pre-solve levels, not the (possibly
                    // stale) client cells.
                    let prev_levels: Vec<Option<Level>> = if check {
                        self.video_flows
                            .iter()
                            .map(|&f| server.current_level(f))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let solved_on = latest_report.take();
                    let msgs = if let MsgCells::Versioned(..) = cells {
                        server.bai_tick(now, solved_on.as_ref(), self.config.bai, la, rbs)
                    } else {
                        solved_on.as_ref().map_or_else(Vec::new, |r| {
                            server
                                .assign(r, la, rbs)
                                .iter()
                                .map(AssignmentMsg::from)
                                .collect()
                        })
                    };
                    if let Some(inv) = self.invariants.as_mut() {
                        let mut assigned = Vec::with_capacity(msgs.len());
                        for m in &msgs {
                            let Some(idx) = self
                                .video_flows
                                .iter()
                                .position(|f| f.index() as u32 == m.flow_id)
                            else {
                                continue;
                            };
                            inv.observe(
                                now,
                                &Observation::Assignment {
                                    flow: u64::from(m.flow_id),
                                    prev_level: prev_levels[idx].map(Level::index),
                                    new_level: m.level as usize,
                                    max_level,
                                },
                            );
                            assigned.push((self.video_flows[idx], Level::new(m.level as usize)));
                        }
                        // Eq. (4a) is recomputable when the server weighted
                        // every client by the counters of one report: the
                        // report it solved on covers all of them. Otherwise
                        // (no report, or a client missing from it) it solved
                        // on aged observations or skipped clients.
                        if let Some(r) = solved_on.as_ref().filter(|r| {
                            assigned.len() == server.client_count()
                                && assigned.iter().all(|&(f, _)| r.flow(f).is_some())
                        }) {
                            if let Some(o) = rate_budget(&self.config, server, r, la, rbs, assigned)
                            {
                                inv.observe(now, &o);
                            }
                        }
                    }
                    if !msgs.is_empty() {
                        if let Some(t) = server.last_solve_time() {
                            solve_times.push(t);
                        }
                        control.send_assignments(now, msgs);
                    }
                }
                // Deliveries due right now are applied by the caller's
                // poll_control immediately after this returns.
            }
            Controller::Avis(alloc) => {
                for a in alloc.assign(&report, la, rbs) {
                    self.enb.set_gbr(a.flow, Some(a.gbr));
                    self.enb.set_mbr(a.flow, Some(a.mbr));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_core::FaultModel;

    fn report(end_s: u64) -> IntervalReport {
        IntervalReport {
            start: Time::from_secs(end_s - 10),
            end: Time::from_secs(end_s),
            flows: Vec::new(),
        }
    }

    #[test]
    fn an_older_report_landing_late_does_not_replace_a_newer_one() {
        let mut control = ControlPlane::new(FaultModel::perfect(), 1);
        let mut latest = None;
        // Within one delivery batch: the newer interval lands first.
        control.send_report(Time::from_secs(20), report(20));
        control.send_report(Time::from_secs(20), report(10));
        take_fresh_reports(&mut control, Time::from_secs(20), &mut latest);
        assert_eq!(latest.as_ref().map(|r| r.end), Some(Time::from_secs(20)));
        // In a later batch: the held report is still the freshest.
        control.send_report(Time::from_secs(25), report(15));
        take_fresh_reports(&mut control, Time::from_secs(25), &mut latest);
        assert_eq!(latest.as_ref().map(|r| r.end), Some(Time::from_secs(20)));
        // A newer interval (or a repeat of the same one) does replace it.
        control.send_report(Time::from_secs(30), report(30));
        take_fresh_reports(&mut control, Time::from_secs(30), &mut latest);
        assert_eq!(latest.map(|r| r.end), Some(Time::from_secs(30)));
    }
}
