//! Per-scheme plugin dispatch: adapter selection, controller construction,
//! and the BAI/control-plane handlers for each adaptation scheme.
//!
//! Moved out of the main runner so [`CellSim`](super::CellSim)'s TTI loop
//! stays readable from harness call sites; the types and control flow are
//! unchanged. The only additions are the `flare-harness` invariant
//! observations (guarded by `SimConfig::check_invariants`) at the solve and
//! install checkpoints.

use std::time::Duration;

use flare_abr::avis::AvisAllocator;
use flare_abr::{BufferBased, Festive, Google, RateBased, SharedAssignment, VersionedAssignment};
use flare_core::messages::StatsReportMsg;
use flare_core::{
    ClientInfo, ControlPlane, FaultModel, FlarePlugin, OneApiServer, ResilientPlugin,
    RobustnessConfig,
};
use flare_harness::Observation;
use flare_has::{Level, RateAdapter};
use flare_lte::FlowId;
use flare_sim::units::Rate;
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceHandle};

use super::CellSim;
use crate::config::{SchemeKind, SimConfig};

/// Client-side assignment cells of a message-path FLARE run.
pub(super) enum MsgCells {
    /// Naive: last-write-wins cells, persistent GBRs — the paper's FLARE
    /// run unchanged over a (possibly faulty) control plane.
    Naive(Vec<SharedAssignment>),
    /// Resilient: versioned cells with staleness fallback, GBR leases.
    Versioned(Vec<VersionedAssignment>),
}

// One live instance per simulation; the size spread between variants is
// irrelevant next to boxing noise.
#[allow(clippy::large_enum_variant)]
pub(super) enum Controller {
    None,
    Flare {
        server: OneApiServer,
        cells: Vec<SharedAssignment>,
        gbr_only: bool,
    },
    /// FLARE with its coordination loop carried over an explicit (fault-
    /// injectable) control plane instead of lossless in-process calls.
    FlareMsg {
        server: OneApiServer,
        control: ControlPlane,
        cells: MsgCells,
        /// Freshest statistics report delivered to the server so far and
        /// not yet consumed by a solve.
        latest_report: Option<StatsReportMsg>,
        robustness: Option<RobustnessConfig>,
    },
    Avis(AvisAllocator),
}

/// The robustness configuration a scheme carries, if any.
pub(super) fn robustness_of(scheme: &SchemeKind) -> Option<RobustnessConfig> {
    match scheme {
        SchemeKind::Flare(fc) => fc.robustness,
        _ => None,
    }
}

/// Builds the rate adapter one video player runs under `scheme`.
///
/// `legacy` players always get a conventional FESTIVE adapter (a FLARE
/// deployment services them as plain data traffic). FLARE plugins register
/// their shared assignment cell into `cells`/`versioned_cells` so the
/// controller can write to them.
pub(super) fn player_adapter(
    scheme: &SchemeKind,
    legacy: bool,
    robustness: Option<RobustnessConfig>,
    cells: &mut Vec<SharedAssignment>,
    versioned_cells: &mut Vec<VersionedAssignment>,
) -> Box<dyn RateAdapter> {
    if legacy {
        return Box::new(Festive::default());
    }
    match scheme {
        SchemeKind::Festive => Box::new(Festive::default()),
        SchemeKind::Google => Box::new(Google::default()),
        SchemeKind::BufferBased => Box::new(BufferBased::default()),
        SchemeKind::Flare(_) => {
            if let Some(r) = robustness {
                let cell = VersionedAssignment::new(r.stale_bais, r.rejoin_bais);
                versioned_cells.push(cell.clone());
                Box::new(ResilientPlugin::new(cell)) as Box<dyn RateAdapter>
            } else {
                let cell = SharedAssignment::new();
                cells.push(cell.clone());
                Box::new(FlarePlugin::new(cell)) as Box<dyn RateAdapter>
            }
        }
        SchemeKind::FlareGbrOnly(_) | SchemeKind::Avis(_) => Box::new(RateBased::default()),
    }
}

/// Builds the network-side controller for `config`'s scheme.
#[allow(clippy::too_many_arguments)]
pub(super) fn build_controller(
    config: &SimConfig,
    trace: &TraceHandle,
    video_flows: &[FlowId],
    data_flows: &[FlowId],
    coordinated: usize,
    msg_path: bool,
    robustness: Option<RobustnessConfig>,
    mut cells: Vec<SharedAssignment>,
    versioned_cells: Vec<VersionedAssignment>,
) -> Controller {
    match &config.scheme {
        SchemeKind::Festive | SchemeKind::Google | SchemeKind::BufferBased => Controller::None,
        SchemeKind::Flare(fc) | SchemeKind::FlareGbrOnly(fc) => {
            let gbr_only = matches!(config.scheme, SchemeKind::FlareGbrOnly(_));
            let mut server = OneApiServer::new(fc.clone().with_bai(config.bai));
            server.set_trace(trace.clone());
            for (i, &flow) in video_flows.iter().enumerate().take(coordinated) {
                let mut info = ClientInfo::new(flow, config.ladder.clone());
                if let Some(Some(prefs)) = config.prefs.get(i) {
                    info = info.with_prefs(prefs.clone());
                }
                server.register_video(info);
            }
            // Legacy players are serviced like data: registered at the
            // PCRF as best-effort flows, never assigned a GBR.
            for &flow in video_flows.iter().skip(coordinated) {
                server.register_data(flow);
            }
            for &flow in data_flows {
                server.register_data(flow);
            }
            if msg_path {
                let faults = config.faults.clone().unwrap_or_else(FaultModel::perfect);
                Controller::FlareMsg {
                    server,
                    control: ControlPlane::new(faults, config.seed).with_trace(trace.clone()),
                    cells: if robustness.is_some() {
                        MsgCells::Versioned(versioned_cells)
                    } else {
                        MsgCells::Naive(cells)
                    },
                    latest_report: None,
                    robustness,
                }
            } else {
                if gbr_only {
                    cells.clear();
                }
                Controller::Flare {
                    server,
                    cells,
                    gbr_only,
                }
            }
        }
        SchemeKind::Avis(ac) => Controller::Avis(AvisAllocator::new(ac.clone())),
    }
}

impl CellSim {
    /// Delivers every control-plane message due by `now`: reports reach the
    /// server's inbox, assignments reach the plugins' cells and the eNodeB's
    /// PCEF. No-op for controllers without a message path.
    pub(super) fn poll_control(&mut self, now: Time) {
        let Controller::FlareMsg {
            control,
            cells,
            latest_report,
            robustness,
            ..
        } = &mut self.controller
        else {
            return;
        };
        for r in control.recv_reports(now) {
            // Keep only the freshest interval: a reordered old report must
            // not overwrite newer counters.
            if latest_report
                .as_ref()
                .is_none_or(|cur| r.end_ms >= cur.end_ms)
            {
                *latest_report = Some(r);
            }
        }
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
                    // Last write wins, GBRs persist — exactly the lossless-
                    // world behaviour, now exposed to faults.
                    cs[idx].set(level);
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
                    let accepted = cs[idx].install(a.seq, a.issued_ms, level);
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
                        let lease_bais = robustness.unwrap_or_default().lease_bais;
                        let lease = TimeDelta::from_millis(
                            self.config.bai.as_millis() * u64::from(lease_bais),
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
        match &mut self.controller {
            Controller::None => {}
            Controller::FlareMsg {
                server,
                control,
                latest_report,
                robustness,
                ..
            } => {
                let rbs = self.enb.config().rbs_per_tti;
                let la = self.enb.link_adaptation().clone();
                // eNodeB -> server: this BAI's statistics, via the (possibly
                // faulty) control plane.
                control.send_report(now, StatsReportMsg::from(&report));
                for r in control.recv_reports(now) {
                    if latest_report
                        .as_ref()
                        .is_none_or(|cur| r.end_ms >= cur.end_ms)
                    {
                        *latest_report = Some(r);
                    }
                }
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
                    let msgs = if robustness.is_some() {
                        server.bai_tick(now, latest_report.take().as_ref(), &la, rbs)
                    } else {
                        match latest_report.take() {
                            Some(r) => server.assign_msg(&r, &la, rbs),
                            None => Vec::new(),
                        }
                    };
                    if let Some(inv) = self.invariants.as_mut() {
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
            Controller::Flare {
                server,
                cells,
                gbr_only,
            } => {
                let rbs = self.enb.config().rbs_per_tti;
                // The link adaptation table is cloned to satisfy borrowing;
                // it is a tiny value object.
                let la = self.enb.link_adaptation().clone();
                let prev_levels: Vec<Option<Level>> = if check {
                    self.video_flows
                        .iter()
                        .map(|&f| server.current_level(f))
                        .collect()
                } else {
                    Vec::new()
                };
                let assignments = server.assign(&report, &la, rbs);
                if let Some(t) = server.last_solve_time() {
                    solve_times.push(t);
                }
                for a in &assignments {
                    self.enb.set_gbr(a.flow, Some(a.rate));
                    if !*gbr_only {
                        let video_idx = self
                            .video_flows
                            .iter()
                            .position(|&f| f == a.flow)
                            .expect("assignment for unknown flow");
                        cells[video_idx].set(a.level);
                    }
                }
                if let Some(inv) = self.invariants.as_mut() {
                    // Recompute Eq. (4a) from the very statistics the server
                    // solved against: weight w_u = BAI / (8 b_u / n_u), rate
                    // R_u from the assignment, budget N = rbs_per_tti * BAI
                    // TTIs (see `OneApiServer::assign`). The floors' share
                    // under the same weights bounds an overloaded BAI.
                    let bai_secs = report.duration().as_secs_f64();
                    let total_rbs = f64::from(rbs) * report.duration().as_millis() as f64;
                    let mut used = 0.0;
                    let mut floor_used = 0.0;
                    for a in &assignments {
                        let idx = self.video_flows.iter().position(|&f| f == a.flow);
                        if let Some(idx) = idx {
                            inv.observe(
                                now,
                                &Observation::Assignment {
                                    flow: a.flow.index() as u64,
                                    prev_level: prev_levels[idx].map(Level::index),
                                    new_level: a.level.index(),
                                    max_level,
                                },
                            );
                        }
                        if let Some(stats) = report.flow(a.flow) {
                            let bits_per_rb = stats
                                .bytes_per_rb()
                                .map(|b| b * 8.0)
                                .unwrap_or_else(|| la.bits_per_rb(stats.itbs))
                                .max(1.0);
                            let weight = bai_secs / bits_per_rb;
                            let floor = server
                                .min_allowed_level(a.flow)
                                .map(|l| self.config.ladder.rate(l))
                                .expect("assignment for an unregistered client");
                            used += weight * a.rate.as_bps();
                            floor_used += weight * floor.as_bps();
                        }
                    }
                    if !assignments.is_empty() && total_rbs > 0.0 {
                        // The PCRF registers legacy players as data flows, so
                        // they count towards the r_cap < 1 headroom rule.
                        let has_data = self.config.n_data + self.config.legacy_video > 0;
                        inv.observe(
                            now,
                            &Observation::RateBudget {
                                used_fraction: used / total_rbs,
                                r_cap: if has_data { 0.999 } else { 1.0 },
                                floor_fraction: floor_used / total_rbs,
                                tolerance: 1e-6,
                            },
                        );
                    }
                }
            }
            Controller::Avis(alloc) => {
                let rbs = self.enb.config().rbs_per_tti;
                let la = self.enb.link_adaptation().clone();
                for a in alloc.assign(&report, &la, rbs) {
                    self.enb.set_gbr(a.flow, Some(a.gbr));
                    self.enb.set_mbr(a.flow, Some(a.mbr));
                }
            }
        }
    }
}
