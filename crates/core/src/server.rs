//! The OneAPI server: FLARE's network-side brain.

use std::time::Duration;

use flare_has::Level;
use flare_lte::{FlowClass, FlowId, IntervalReport, Itbs, LinkAdaptation};
use flare_sim::units::Rate;
use flare_sim::Time;
use flare_solver::{round_down, solve_discrete, solve_relaxed, FlowSpec, ProblemSpec};
use flare_trace::{Category, TraceHandle};

use crate::algorithm::{StabilityFilter, StabilityState};
use crate::client::ClientInfo;
use crate::clock::{SolveClock, WallClock};
use crate::config::{FlareConfig, SolveMode};
use crate::messages::{AssignmentMsg, StatsReportMsg};
use crate::pcrf::PcrfRegistry;

/// One BAI's decision for one video flow: the level the plugin must request
/// and the GBR the PCEF/eNodeB must enforce (they are the same rate — that
/// equality *is* FLARE's dual enforcement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The video flow.
    pub flow: FlowId,
    /// Ladder level the plugin will request.
    pub level: Level,
    /// The level's bitrate, installed as the flow's GBR.
    pub rate: Rate,
}

#[derive(Debug, Clone)]
struct ClientEntry {
    info: ClientInfo,
    state: StabilityState,
    /// Last observed link efficiency (bits per RB), aged while the
    /// client's statistics are missing. `None` until first observed.
    cached_bits_per_rb: Option<f64>,
    /// Consecutive BAIs without statistics for this client.
    silent_bais: u32,
}

/// FLARE's network-side controller.
///
/// Once per BAI, feed it the cell's [`IntervalReport`]; it rebuilds the
/// utility-maximization problem (3)–(4) from the fresh `(n_u, b_u)`
/// counters, solves it (exactly or via the convex relaxation), pushes the
/// recommendations through Algorithm 1's δ stability filter, and returns the
/// assignments to enforce.
#[derive(Debug)]
pub struct OneApiServer {
    config: FlareConfig,
    filter: StabilityFilter,
    clients: Vec<ClientEntry>,
    pcrf: PcrfRegistry,
    clock: Box<dyn SolveClock>,
    last_solve_time: Option<Duration>,
    /// BAI sequence number stamped onto versioned assignments.
    seq: u64,
    /// Clients evicted for prolonged statistics silence (telemetry).
    evicted: u64,
    trace: TraceHandle,
}

impl OneApiServer {
    /// Creates a server timing its solves with the wall clock.
    pub fn new(config: FlareConfig) -> Self {
        OneApiServer::with_clock(config, Box::new(WallClock::default()))
    }

    /// Creates a server with an injected solve clock (tests use
    /// [`crate::ManualClock`]; Figure 9 keeps [`WallClock`]).
    pub fn with_clock(config: FlareConfig, clock: Box<dyn SolveClock>) -> Self {
        let filter = StabilityFilter::new(config.delta);
        OneApiServer {
            config,
            filter,
            clients: Vec::new(),
            pcrf: PcrfRegistry::new(),
            clock,
            last_solve_time: None,
            seq: 0,
            evicted: 0,
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches a trace recorder. Solver events ([`Category::Solver`])
    /// record each BAI solve round, per-client assignments (debug level),
    /// and client evictions; solve wall time goes to the registry histogram
    /// `solver.wall_ms` only, never into the event stream.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The active configuration.
    pub fn config(&self) -> &FlareConfig {
        &self.config
    }

    /// Registers a video client (the plugin's hello message). The client
    /// starts at its lowest allowed level.
    pub fn register_video(&mut self, info: ClientInfo) {
        self.pcrf.register(info.flow(), FlowClass::Video);
        let start = info.min_allowed_level().index();
        self.clients.push(ClientEntry {
            info,
            state: StabilityState::starting_at(start),
            cached_bits_per_rb: None,
            silent_bais: 0,
        });
    }

    /// Registers a best-effort data flow (via the PCRF, not the plugin).
    pub fn register_data(&mut self, flow: FlowId) {
        self.pcrf.register(flow, FlowClass::Data);
    }

    /// The PCRF's flow registry.
    pub fn pcrf(&self) -> &PcrfRegistry {
        &self.pcrf
    }

    /// Wall-clock time of the most recent solve (Figure 9's metric).
    pub fn last_solve_time(&self) -> Option<Duration> {
        self.last_solve_time
    }

    /// The server's current BAI sequence number (the version stamped onto
    /// the most recently emitted assignments).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of registered video clients still being served.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Clients evicted so far for prolonged statistics silence.
    pub fn evicted_clients(&self) -> u64 {
        self.evicted
    }

    /// The level currently applied to `flow`, if it is a registered client.
    pub fn current_level(&self, flow: FlowId) -> Option<Level> {
        self.clients
            .iter()
            .find(|c| c.info.flow() == flow)
            .map(|c| Level::new(c.state.level))
    }

    /// The lowest level `flow` accepts, if it is a registered client: its
    /// level in the floor assignment of an overloaded BAI.
    pub fn min_allowed_level(&self, flow: FlowId) -> Option<Level> {
        self.clients
            .iter()
            .find(|c| c.info.flow() == flow)
            .map(|c| c.info.min_allowed_level())
    }

    /// Runs one BAI of Algorithm 1.
    ///
    /// `report` is the eNodeB's statistics for the elapsed BAI; `la` and
    /// `rbs_per_tti` describe the cell (used to size the RB budget and to
    /// estimate link efficiency for flows that were idle).
    ///
    /// Returns one [`Assignment`] per registered video client present in the
    /// report. An empty report interval returns no assignments.
    pub fn assign(
        &mut self,
        report: &IntervalReport,
        la: &LinkAdaptation,
        rbs_per_tti: u32,
    ) -> Vec<Assignment> {
        let interval = report.duration();
        if interval.is_zero() || self.clients.is_empty() {
            return Vec::new();
        }
        let bai_secs = interval.as_secs_f64();
        let total_rbs = f64::from(rbs_per_tti) * interval.as_millis() as f64;

        // Fresh MAC statistics only; clients missing from the report are
        // skipped (the paper's lossless-world semantics).
        let obs: Vec<Option<f64>> = self
            .clients
            .iter()
            .map(|client| {
                report.flow(client.info.flow()).map(|stats| {
                    stats
                        .bytes_per_rb()
                        .map(|b| b * 8.0)
                        .unwrap_or_else(|| la.bits_per_rb(stats.itbs))
                        .max(1.0)
                })
            })
            .collect();

        self.solve_clients(report.end.as_millis(), bai_secs, total_rbs, &obs)
            .into_iter()
            .map(|(ci, level)| {
                let client = &self.clients[ci];
                Assignment {
                    flow: client.info.flow(),
                    level,
                    rate: client.info.ladder().rate(level),
                }
            })
            .collect()
    }

    /// Message-path variant of [`OneApiServer::assign`] with the same
    /// lossless-world semantics (clients missing from the report are
    /// skipped, nothing ages, nobody is evicted) — the *naive* server of
    /// the fault experiments. Emitted assignments are stamped with the
    /// server's BAI sequence number and the report's end time.
    pub fn assign_msg(
        &mut self,
        report: &StatsReportMsg,
        la: &LinkAdaptation,
        rbs_per_tti: u32,
    ) -> Vec<AssignmentMsg> {
        let duration_ms = report.duration_ms();
        if duration_ms == 0 || self.clients.is_empty() {
            return Vec::new();
        }
        self.seq += 1;
        let seq = self.seq;
        let bai_secs = duration_ms as f64 / 1000.0;
        let total_rbs = f64::from(rbs_per_tti) * duration_ms as f64;
        let obs: Vec<Option<f64>> = self
            .clients
            .iter()
            .map(|client| {
                report
                    .flow(client.info.flow().index() as u32)
                    .map(|s| Self::msg_bits_per_rb(s, la))
            })
            .collect();
        let issued_ms = report.end_ms;
        self.solve_clients(issued_ms, bai_secs, total_rbs, &obs)
            .into_iter()
            .map(|(ci, level)| self.assignment_msg(ci, level, seq, issued_ms))
            .collect()
    }

    /// One robust BAI: the graceful-degradation entry point used when the
    /// control plane may lose or delay messages.
    ///
    /// Unlike [`OneApiServer::assign`], this always issues a decision for
    /// every surviving client:
    ///
    /// * clients present in `report` refresh their cached link efficiency;
    /// * clients missing from it (or the whole report, when `None`) reuse
    ///   their previous `(n_u, b_u)` observation, exponentially aged so the
    ///   server grows conservative about flows it cannot see;
    /// * clients silent for `evict_bais` consecutive BAIs are evicted and
    ///   deregistered from the PCRF.
    ///
    /// Assignments carry the server's BAI sequence number and `now`, so
    /// receivers can reject stale or reordered deliveries. The robustness
    /// parameters come from the config's [`crate::RobustnessConfig`]
    /// (defaults apply if none was set).
    pub fn bai_tick(
        &mut self,
        now: Time,
        report: Option<&StatsReportMsg>,
        la: &LinkAdaptation,
        rbs_per_tti: u32,
    ) -> Vec<AssignmentMsg> {
        let r = self.config.robustness.unwrap_or_default();
        self.seq += 1;
        let seq = self.seq;
        // An empty interval carries no usable counters.
        let report = report.filter(|m| m.duration_ms() > 0);

        // 1. Refresh or age each client's cached link efficiency.
        for client in &mut self.clients {
            let flow_id = client.info.flow().index() as u32;
            match report.and_then(|m| m.flow(flow_id)) {
                Some(stats) => {
                    client.cached_bits_per_rb = Some(Self::msg_bits_per_rb(stats, la));
                    client.silent_bais = 0;
                }
                None => {
                    client.silent_bais += 1;
                    if let Some(b) = client.cached_bits_per_rb.as_mut() {
                        *b = (*b * r.stats_aging).max(1.0);
                    }
                }
            }
        }

        // 2. Evict clients the server has not heard from in `m` BAIs.
        let evicted: Vec<FlowId> = self
            .clients
            .iter()
            .filter(|c| c.silent_bais >= r.evict_bais)
            .map(|c| c.info.flow())
            .collect();
        if !evicted.is_empty() {
            self.clients.retain(|c| c.silent_bais < r.evict_bais);
            for flow in &evicted {
                self.pcrf.deregister(*flow);
                self.trace.record(now, Category::Solver, "evict", |e| {
                    e.u64("flow", flow.index() as u64);
                });
            }
            self.evicted += evicted.len() as u64;
            self.trace.incr("server.evicted", evicted.len() as u64);
        }
        if self.clients.is_empty() {
            return Vec::new();
        }

        // 3. Solve over cached observations; a client never observed at all
        // is assumed to sit at the worst link-adaptation operating point.
        let bai_ms = report
            .map(StatsReportMsg::duration_ms)
            .unwrap_or_else(|| self.config.bai.as_millis());
        let bai_secs = bai_ms as f64 / 1000.0;
        let total_rbs = f64::from(rbs_per_tti) * bai_ms as f64;
        let floor = la.bits_per_rb(Itbs::new(0)).max(1.0);
        let obs: Vec<Option<f64>> = self
            .clients
            .iter()
            .map(|c| Some(c.cached_bits_per_rb.unwrap_or(floor)))
            .collect();
        let issued_ms = now.as_millis();
        self.solve_clients(issued_ms, bai_secs, total_rbs, &obs)
            .into_iter()
            .map(|(ci, level)| self.assignment_msg(ci, level, seq, issued_ms))
            .collect()
    }

    /// Link efficiency (bits/RB) from one flow's wire-format counters.
    fn msg_bits_per_rb(stats: &crate::messages::FlowStatsMsg, la: &LinkAdaptation) -> f64 {
        let from_counters = if stats.rbs > 0 {
            (stats.bytes as f64 / stats.rbs as f64) * 8.0
        } else {
            la.bits_per_rb(Itbs::new(stats.itbs))
        };
        from_counters.max(1.0)
    }

    fn assignment_msg(&self, ci: usize, level: Level, seq: u64, issued_ms: u64) -> AssignmentMsg {
        let client = &self.clients[ci];
        AssignmentMsg {
            flow_id: client.info.flow().index() as u32,
            level: level.index() as u32,
            gbr_kbps: client.info.ladder().rate(level).as_kbps().round() as u32,
            seq,
            issued_ms,
        }
    }

    /// The shared core of Algorithm 1: builds problem (3)–(4) from one
    /// observation (bits/RB) per participating client, solves it, and runs
    /// the δ stability filter. `obs[i] == None` excludes client `i` from
    /// this BAI. Returns `(client index, applied level)` pairs. `now_ms` is
    /// the simulation time stamped onto trace events.
    fn solve_clients(
        &mut self,
        now_ms: u64,
        bai_secs: f64,
        total_rbs: f64,
        obs: &[Option<f64>],
    ) -> Vec<(usize, Level)> {
        let mut solver_index: Vec<usize> = Vec::new();
        let mut flows: Vec<FlowSpec> = Vec::new();
        for (i, client) in self.clients.iter_mut().enumerate() {
            let Some(bits_per_rb) = obs[i] else {
                continue;
            };
            let weight = bai_secs / bits_per_rb;
            let ladder: Vec<f64> = client
                .info
                .ladder()
                .rates()
                .iter()
                .map(|r| r.as_bps())
                .collect();
            let beta = client.info.prefs().beta.unwrap_or(self.config.beta);
            let theta = client
                .info
                .prefs()
                .theta
                .unwrap_or(self.config.theta)
                .as_bps();
            let max_allowed = client.info.max_allowed_level().index();
            let min_allowed = client.info.min_allowed_level().index();
            // Keep the persistent state inside the currently allowed band
            // (preferences may have tightened since the last BAI).
            client.state.level = client.state.level.clamp(min_allowed, max_allowed);
            // Constraint (4): at most one step above the previous level.
            let max_level = (client.state.level + 1).min(max_allowed);
            flows.push(
                FlowSpec::new(ladder, beta, theta, weight, max_level).with_min_level(min_allowed),
            );
            solver_index.push(i);
        }
        if flows.is_empty() {
            return Vec::new();
        }

        let spec = ProblemSpec::builder()
            .total_rbs(total_rbs)
            .data_flows(self.pcrf.data_flow_count(), self.config.alpha)
            .flows(flows)
            .build()
            .expect("validated inputs");

        let started = self.clock.now();
        let solution = match self.config.solve_mode {
            SolveMode::Exact => solve_discrete(&spec),
            SolveMode::Relaxed => round_down(&spec, &solve_relaxed(&spec)),
        };
        let wall = self.clock.now().saturating_sub(started);
        self.last_solve_time = Some(wall);
        if spec.is_overloaded() {
            self.trace.incr("solver.overloaded", 1);
        }

        let now = Time::from_millis(now_ms);
        if self.trace.is_attached() {
            // Wall-clock solve time goes into the registry only: putting it
            // in an event would break the byte-identical-trace guarantee.
            self.trace.incr("solver.solves", 1);
            self.trace
                .observe("solver.wall_ms", wall.as_secs_f64() * 1e3);
            self.trace.observe("solver.steps", solution.steps as f64);
            self.trace.record(now, Category::Solver, "solve", |e| {
                e.u64("clients", solver_index.len() as u64)
                    .u64("data_flows", self.pcrf.data_flow_count() as u64)
                    .f64("total_rbs", total_rbs)
                    .str(
                        "mode",
                        match self.config.solve_mode {
                            SolveMode::Exact => "exact",
                            SolveMode::Relaxed => "relaxed",
                        },
                    )
                    .u64("steps", solution.steps)
                    .f64("r", solution.r);
                if solution.objective.is_finite() {
                    e.f64("objective", solution.objective);
                } else {
                    e.bool("overloaded", true);
                }
            });
        }

        // Stability filter, then report the applied levels.
        let assign_debug = self.trace.debug_enabled(Category::Solver);
        let mut deferrals: u64 = 0;
        let mut out = Vec::with_capacity(solver_index.len());
        for (&ci, &recommended) in solver_index.iter().zip(&solution.levels) {
            let client = &mut self.clients[ci];
            let applied = self.filter.apply(&mut client.state, recommended);
            let deferred = applied != recommended;
            if deferred {
                deferrals += 1;
            }
            if assign_debug {
                let flow = client.info.flow().index() as u64;
                let bits_per_rb = obs[ci].unwrap_or(0.0);
                self.trace
                    .record_debug(now, Category::Solver, "assign", |e| {
                        e.u64("flow", flow)
                            .f64("bits_per_rb", bits_per_rb)
                            .u64("recommended", recommended as u64)
                            .u64("applied", applied as u64)
                            .bool("deferred", deferred);
                    });
            }
            out.push((ci, Level::new(applied)));
        }
        if deferrals > 0 {
            self.trace.incr("solver.deferrals", deferrals);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientPrefs;
    use flare_has::BitrateLadder;
    use flare_lte::channel::StaticChannel;
    use flare_lte::scheduler::TwoPhaseGbr;
    use flare_lte::{CellConfig, ENodeB, FlowIntervalStats, Itbs};
    use flare_sim::Time;

    /// A cell with `n_video` great-channel video flows and `n_data` data
    /// flows, plus one BAI of traffic so the report is meaningful.
    fn cell(n_video: usize, n_data: usize, itbs: u8) -> (ENodeB, Vec<FlowId>, Vec<FlowId>) {
        let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
        let videos: Vec<FlowId> = (0..n_video)
            .map(|_| {
                let f = enb.add_flow(
                    FlowClass::Video,
                    Box::new(StaticChannel::new(Itbs::new(itbs))),
                );
                enb.push_backlog(f, flare_sim::units::ByteCount::new(50_000_000));
                f
            })
            .collect();
        let datas: Vec<FlowId> = (0..n_data)
            .map(|_| {
                enb.add_flow(
                    FlowClass::Data,
                    Box::new(StaticChannel::new(Itbs::new(itbs))),
                )
            })
            .collect();
        (enb, videos, datas)
    }

    fn run_bai(enb: &mut ENodeB, bai_index: u64) -> IntervalReport {
        let start = bai_index * 10_000;
        for ms in start..start + 10_000 {
            enb.step_tti(Time::from_millis(ms));
        }
        enb.take_report(Time::from_millis(start + 10_000))
    }

    #[test]
    fn assigns_one_level_per_client() {
        let (mut enb, videos, datas) = cell(3, 1, 12);
        let mut server = OneApiServer::new(FlareConfig::default());
        for &v in &videos {
            server.register_video(ClientInfo::new(v, BitrateLadder::testbed()));
        }
        for &d in &datas {
            server.register_data(d);
        }
        let report = run_bai(&mut enb, 0);
        let assignments = server.assign(&report, enb.link_adaptation(), 50);
        assert_eq!(assignments.len(), 3);
        for a in &assignments {
            assert_eq!(a.rate, BitrateLadder::testbed().rate(a.level));
        }
        assert!(server.last_solve_time().is_some());
    }

    #[test]
    fn levels_climb_one_step_per_threshold() {
        let (mut enb, videos, _) = cell(1, 0, 14);
        let config = FlareConfig::default().with_delta(1);
        let mut server = OneApiServer::new(config);
        server.register_video(ClientInfo::new(videos[0], BitrateLadder::testbed()));
        let mut levels = Vec::new();
        for bai in 0..30 {
            let report = run_bai(&mut enb, bai);
            let assignments = server.assign(&report, enb.link_adaptation(), 50);
            levels.push(assignments[0].level.index());
            // Keep the flow backlogged so statistics stay meaningful.
            enb.push_backlog(videos[0], flare_sim::units::ByteCount::new(50_000_000));
        }
        // Never skips a level.
        assert!(levels.windows(2).all(|w| w[1] <= w[0] + 1), "{levels:?}");
        // With delta=1 and a great channel it climbs steadily.
        assert!(*levels.last().unwrap() > levels[0], "{levels:?}");
    }

    #[test]
    fn data_flow_count_tempers_assignments() {
        let run = |n_video: usize, n_data: usize, itbs: u8| {
            let (mut enb, videos, datas) = cell(n_video, n_data, itbs);
            let mut server = OneApiServer::new(FlareConfig::default().with_delta(0));
            for &v in &videos {
                server.register_video(ClientInfo::new(v, BitrateLadder::testbed()));
            }
            for &d in &datas {
                server.register_data(d);
            }
            let mut last = Vec::new();
            for bai in 0..10 {
                let report = run_bai(&mut enb, bai);
                last = server.assign(&report, enb.link_adaptation(), 50);
                for &v in &videos {
                    enb.push_backlog(v, flare_sim::units::ByteCount::new(50_000_000));
                }
            }
            last.iter().map(|a| a.level.index()).collect::<Vec<_>>()
        };
        let sum = |levels: Vec<usize>| levels.iter().sum::<usize>();
        assert!(
            sum(run(2, 6, 6)) <= sum(run(2, 0, 6)),
            "more data flows must not raise video levels"
        );
        // Load and channel set a cell's levels: a crowded poor-channel cell
        // stays below a light great-channel one, which reaches the top.
        let top = |levels: Vec<usize>| levels.into_iter().max().unwrap();
        let light = top(run(2, 0, 20));
        assert_eq!(light, BitrateLadder::testbed().len() - 1);
        assert!(top(run(6, 0, 4)) < light);
    }

    #[test]
    fn client_rate_cap_is_respected() {
        let (mut enb, videos, _) = cell(1, 0, 20);
        let mut server = OneApiServer::new(FlareConfig::default().with_delta(0));
        let prefs = ClientPrefs {
            max_rate: Some(Rate::from_kbps(800.0)),
            ..ClientPrefs::default()
        };
        server
            .register_video(ClientInfo::new(videos[0], BitrateLadder::testbed()).with_prefs(prefs));
        for bai in 0..12 {
            let report = run_bai(&mut enb, bai);
            let assignments = server.assign(&report, enb.link_adaptation(), 50);
            assert!(
                assignments[0].rate <= Rate::from_kbps(800.0),
                "cap violated: {:?}",
                assignments[0]
            );
            enb.push_backlog(videos[0], flare_sim::units::ByteCount::new(50_000_000));
        }
    }

    #[test]
    fn skimming_client_pinned_to_lowest() {
        let (mut enb, videos, _) = cell(1, 0, 20);
        let mut server = OneApiServer::new(FlareConfig::default().with_delta(0));
        let prefs = ClientPrefs {
            skimming: true,
            ..ClientPrefs::default()
        };
        server
            .register_video(ClientInfo::new(videos[0], BitrateLadder::testbed()).with_prefs(prefs));
        for bai in 0..5 {
            let report = run_bai(&mut enb, bai);
            let assignments = server.assign(&report, enb.link_adaptation(), 50);
            assert_eq!(assignments[0].level, Level::new(0));
        }
    }

    #[test]
    fn relaxed_mode_also_assigns() {
        let (mut enb, videos, datas) = cell(2, 1, 10);
        let mut server =
            OneApiServer::new(FlareConfig::default().with_solve_mode(SolveMode::Relaxed));
        for &v in &videos {
            server.register_video(ClientInfo::new(v, BitrateLadder::simulation()));
        }
        server.register_data(datas[0]);
        let report = run_bai(&mut enb, 0);
        let assignments = server.assign(&report, enb.link_adaptation(), 50);
        assert_eq!(assignments.len(), 2);
    }

    #[test]
    fn empty_report_yields_nothing() {
        let (_, videos, _) = cell(1, 0, 5);
        let mut server = OneApiServer::new(FlareConfig::default());
        server.register_video(ClientInfo::new(videos[0], BitrateLadder::testbed()));
        let empty = IntervalReport {
            start: Time::ZERO,
            end: Time::ZERO,
            flows: vec![],
        };
        assert!(server
            .assign(&empty, &LinkAdaptation::default(), 50)
            .is_empty());
    }

    #[test]
    fn unknown_flows_are_skipped() {
        let (mut enb, _videos, _) = cell(1, 0, 5);
        let (_, other_videos, _) = cell(3, 0, 5);
        let mut server = OneApiServer::new(FlareConfig::default());
        // Register a flow id (index 2) that the reporting cell doesn't have.
        server.register_video(ClientInfo::new(other_videos[2], BitrateLadder::testbed()));
        let report = run_bai(&mut enb, 0);
        // The report covers flow 0 only; the registered client is flow 2.
        assert!(server.assign(&report, enb.link_adaptation(), 50).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn rescaling_ladder_theta_and_bytes_changes_no_level(
            n_video in 1usize..=6,
            n_data in 0usize..=4,
            delta in 0u32..=4,
            counters in proptest::collection::vec((1u64..=100_000, 1u64..=44), 6 * BAIS),
        ) {
            // Metamorphic, end to end through Algorithm 1: the server sees
            // rates only through θ/R and the RB cost n_u·R/b_u. Scaling the
            // ladder, θ and every report's bytes by the same power of two
            // keeps both exact, so no applied level may move in any BAI,
            // δ filter included. Every flow reports RBs, so the link-
            // adaptation fallback (which does not scale) is never used.
            let (_, videos, datas) = cell(n_video, n_data, 10);
            let run = |k: f64| {
                let ladder = BitrateLadder::new(
                    BitrateLadder::simulation().rates().iter().map(|&r| r * k).collect(),
                );
                let base = FlareConfig::default().with_delta(delta);
                let mut server = OneApiServer::new(FlareConfig { theta: base.theta * k, ..base });
                for &v in &videos {
                    server.register_video(ClientInfo::new(v, ladder.clone()));
                }
                for &d in &datas {
                    server.register_data(d);
                }
                (0..BAIS)
                    .map(|bai| {
                        let start = bai as u64 * 10_000;
                        let flows = videos
                            .iter()
                            .enumerate()
                            .map(|(i, &flow)| {
                                let (rbs, bytes_per_rb) = counters[bai * 6 + i];
                                // Multiples of 4 bytes stay whole at k = 0.5.
                                let bytes = (4 * rbs * bytes_per_rb) as f64 * k;
                                FlowIntervalStats {
                                    flow,
                                    class: FlowClass::Video,
                                    rbs,
                                    bytes: flare_sim::units::ByteCount::new(bytes as u64),
                                    itbs: Itbs::new(10),
                                }
                            })
                            .collect();
                        let report = IntervalReport {
                            start: Time::from_millis(start),
                            end: Time::from_millis(start + 10_000),
                            flows,
                        };
                        server.assign(&report, &LinkAdaptation::default(), 50)
                    })
                    .collect::<Vec<_>>()
            };
            let want = run(1.0);
            for k in [0.5, 2.0, 4.0] {
                for (bai, (got, want)) in run(k).iter().zip(&want).enumerate() {
                    let levels = |v: &[Assignment]| v.iter().map(|a| a.level).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(levels(got), levels(want), "k = {}, BAI {}", k, bai);
                    for (g, w) in got.iter().zip(want) {
                        proptest::prop_assert_eq!(g.rate, w.rate * k);
                    }
                }
            }
        }
    }

    /// BAIs per case of the rescaling property: enough for the δ filter to
    /// admit increases.
    const BAIS: usize = 8;

    use crate::messages::StatsReportMsg;
    use crate::RobustnessConfig;

    fn servers(videos: &[FlowId]) -> (OneApiServer, OneApiServer) {
        let mk = || {
            let mut s = OneApiServer::new(
                FlareConfig::default().with_robustness(RobustnessConfig::default()),
            );
            for &v in videos {
                s.register_video(ClientInfo::new(v, BitrateLadder::testbed()));
            }
            s
        };
        (mk(), mk())
    }

    #[test]
    fn bai_tick_matches_assign_when_reports_are_fresh() {
        // With every client present in every report, the robust path must
        // reproduce the lossless path's levels exactly.
        let (mut enb, videos, _) = cell(3, 0, 10);
        let (mut lossless, mut robust) = servers(&videos);
        for bai in 0..8 {
            let report = run_bai(&mut enb, bai);
            let la = enb.link_adaptation().clone();
            let legacy = lossless.assign(&report, &la, 50);
            let msg = StatsReportMsg::from(&report);
            let ticked = robust.bai_tick(report.end, Some(&msg), &la, 50);
            assert_eq!(legacy.len(), ticked.len());
            for (a, m) in legacy.iter().zip(&ticked) {
                assert_eq!(a.flow.index() as u32, m.flow_id);
                assert_eq!(a.level.index() as u32, m.level);
            }
            for &v in &videos {
                enb.push_backlog(v, flare_sim::units::ByteCount::new(50_000_000));
            }
        }
    }

    #[test]
    fn bai_tick_stamps_monotonic_seq_and_issue_time() {
        let (mut enb, videos, _) = cell(1, 0, 10);
        let (_, mut server) = servers(&videos);
        let report = run_bai(&mut enb, 0);
        let msg = StatsReportMsg::from(&report);
        let la = enb.link_adaptation().clone();
        let first = server.bai_tick(Time::from_secs(10), Some(&msg), &la, 50);
        let second = server.bai_tick(Time::from_secs(20), None, &la, 50);
        assert_eq!(first[0].seq, 1);
        assert_eq!(second[0].seq, 2);
        assert_eq!(first[0].issued_ms, 10_000);
        assert_eq!(second[0].issued_ms, 20_000);
        assert_eq!(server.seq(), 2);
    }

    #[test]
    fn silent_clients_are_served_from_aged_cache_then_evicted() {
        let (mut enb, videos, _) = cell(2, 0, 10);
        let r = RobustnessConfig::default();
        let mut server = OneApiServer::new(FlareConfig::default().with_robustness(r));
        for &v in &videos {
            server.register_video(ClientInfo::new(v, BitrateLadder::testbed()));
        }
        let full = StatsReportMsg::from(&run_bai(&mut enb, 0));
        let la = enb.link_adaptation().clone();
        let msgs = server.bai_tick(Time::from_secs(10), Some(&full), &la, 50);
        assert_eq!(msgs.len(), 2);

        // From here on, flow 1 goes silent: reports only cover flow 0.
        let partial = StatsReportMsg {
            flows: full
                .flows
                .iter()
                .filter(|f| f.flow_id == 0)
                .copied()
                .collect(),
            ..full.clone()
        };
        let mut now = Time::from_secs(10);
        for i in 1..r.evict_bais {
            now += flare_sim::TimeDelta::from_secs(10);
            let msgs = server.bai_tick(now, Some(&partial), &la, 50);
            assert_eq!(
                msgs.len(),
                2,
                "silent client still served from aged cache (BAI {i})"
            );
        }
        // The next silent BAI crosses the eviction threshold.
        now += flare_sim::TimeDelta::from_secs(10);
        let msgs = server.bai_tick(now, Some(&partial), &la, 50);
        assert_eq!(msgs.len(), 1, "evicted client no longer assigned");
        assert_eq!(msgs[0].flow_id, 0);
        assert_eq!(server.client_count(), 1);
        assert_eq!(server.evicted_clients(), 1);
        // The PCRF forgot the flow too (it is not a data flow now either).
        assert_eq!(server.pcrf().data_flow_count(), 0);
    }

    #[test]
    fn aging_makes_the_server_conservative_about_silent_clients() {
        // One client with a good cached observation goes silent while the
        // other keeps reporting; aging shrinks the silent client's weight
        // so its level must never rise while silent.
        let (mut enb, videos, _) = cell(2, 0, 12);
        let mut server = OneApiServer::new(
            FlareConfig::default()
                .with_delta(0)
                .with_robustness(RobustnessConfig::default().with_evict_bais(100)),
        );
        for &v in &videos {
            server.register_video(ClientInfo::new(v, BitrateLadder::testbed()));
        }
        let la = enb.link_adaptation().clone();
        let full = StatsReportMsg::from(&run_bai(&mut enb, 0));
        server.bai_tick(Time::from_secs(10), Some(&full), &la, 50);
        let partial = StatsReportMsg {
            flows: full
                .flows
                .iter()
                .filter(|f| f.flow_id == 0)
                .copied()
                .collect(),
            ..full.clone()
        };
        let mut silent_levels = Vec::new();
        for bai in 2..14u64 {
            let msgs = server.bai_tick(Time::from_secs(bai * 10), Some(&partial), &la, 50);
            silent_levels.push(msgs.iter().find(|m| m.flow_id == 1).unwrap().level);
        }
        // The one-step-up ramp may climb for a few BAIs on the still-good
        // cache, but compounding decay must win: once past its peak the
        // level only falls, and it ends strictly below the peak.
        let peak_at = silent_levels
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap();
        let peak = silent_levels[peak_at];
        assert!(
            silent_levels[peak_at..].windows(2).all(|w| w[1] <= w[0]),
            "level must decay after its peak: {silent_levels:?}"
        );
        assert!(
            *silent_levels.last().unwrap() < peak,
            "aging must pull the silent client down: {silent_levels:?}"
        );
    }

    /// A deterministic clock advancing a fixed step per observation.
    #[derive(Debug)]
    struct SteppingClock {
        now: Duration,
        step: Duration,
    }

    impl crate::SolveClock for SteppingClock {
        fn now(&mut self) -> Duration {
            let t = self.now;
            self.now += self.step;
            t
        }
    }

    #[test]
    fn injected_clock_times_solves() {
        let (mut enb, videos, _) = cell(1, 0, 10);
        let clock = SteppingClock {
            now: Duration::ZERO,
            step: Duration::from_millis(7),
        };
        let mut server = OneApiServer::with_clock(FlareConfig::default(), Box::new(clock));
        server.register_video(ClientInfo::new(videos[0], BitrateLadder::testbed()));
        let report = run_bai(&mut enb, 0);
        server.assign(&report, enb.link_adaptation(), 50);
        // One solve = exactly one clock step between the two observations.
        assert_eq!(server.last_solve_time(), Some(Duration::from_millis(7)));
    }
}
