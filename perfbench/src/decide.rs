//! fig9_decide: the OneAPI server's per-BAI decision at twice the paper's
//! largest Fig. 9 cell.
//!
//! A server with 256 video clients and 16 data flows gets synthetic
//! `IntervalReport`s for consecutive BAIs. Channel efficiencies are spread
//! over iTbs 0–26 and a churn fraction of them is redrawn every BAI. The RB
//! budget scales with the client count, so that every instance is feasible:
//! an infeasible one returns in a fraction of a millisecond and would time
//! an early exit instead of a solve.

use std::time::{Duration, Instant};

use flare_core::{Assignment, ClientInfo, FlareConfig, OneApiServer};
use flare_has::BitrateLadder;
use flare_lte::channel::StaticChannel;
use flare_lte::scheduler::ProportionalFair;
use flare_lte::{
    CellConfig, ENodeB, FlowClass, FlowId, FlowIntervalStats, IntervalReport, Itbs, LinkAdaptation,
    ITBS_MAX,
};
use flare_sim::rng::stream;
use flare_sim::units::ByteCount;
use flare_sim::{Time, TimeDelta};
use flare_trace::TraceHandle;
use rand::Rng;

use crate::layers::Layers;
use crate::spans::{SpanId, Spans};
use crate::stats::{input_seed, mean, median, quantile, ratio, secs, Metric, Outcome};

const CLIENTS: usize = 256;
const DATA_FLOWS: usize = 16;
/// Consecutive BAIs per session: long enough for δ = 4 to let clients climb
/// the whole ladder.
const BAIS: usize = 60;
/// Share of flows whose channel moves between consecutive BAIs.
const CHURN: f64 = 0.2;
/// Distinct sessions per run.
pub const SESSIONS: usize = 6;
const BAI: TimeDelta = TimeDelta::from_secs(10);
/// The paper's 50 RBs per TTI for 8 clients, scaled to `CLIENTS`: even
/// with every flow on the worst channel at the lowest rung the video floor
/// needs under half of it.
const RBS_PER_TTI: u32 = 50 * CLIENTS as u32 / 8;

/// The cell the server decides for: flow ids come from `ENodeB::add_flow`.
struct Cell {
    videos: Vec<FlowId>,
    data: Vec<FlowId>,
    la: LinkAdaptation,
    rbs_per_tti: u32,
    ladder: BitrateLadder,
}

impl Cell {
    fn new() -> Self {
        let config = CellConfig {
            rbs_per_tti: RBS_PER_TTI,
            ..CellConfig::default()
        };
        let mut enb = ENodeB::new(config, Box::new(ProportionalFair::default()));
        let mut add = |class| enb.add_flow(class, Box::new(StaticChannel::new(Itbs::new(0))));
        let videos = (0..CLIENTS).map(|_| add(FlowClass::Video)).collect();
        let data = (0..DATA_FLOWS).map(|_| add(FlowClass::Data)).collect();
        Cell {
            videos,
            data,
            la: enb.link_adaptation().clone(),
            rbs_per_tti: enb.config().rbs_per_tti,
            ladder: BitrateLadder::simulation(),
        }
    }

    /// Server construction and client registration: the set-up.
    fn server(&self) -> OneApiServer {
        let mut server = OneApiServer::new(FlareConfig::default());
        for &flow in &self.videos {
            server.register_video(ClientInfo::new(flow, self.ladder.clone()));
        }
        for &flow in &self.data {
            server.register_data(flow);
        }
        server
    }

    fn stats(&self, flow: FlowId, class: FlowClass, itbs: u8, rbs: u64) -> FlowIntervalStats {
        let itbs = Itbs::new(itbs);
        let bits = self.la.bits_per_rb(itbs) * rbs as f64;
        FlowIntervalStats {
            flow,
            class,
            rbs,
            bytes: ByteCount::new((bits / 8.0) as u64),
            itbs,
        }
    }

    /// The consecutive reports of one session.
    fn session(&self, seed: u64) -> Vec<IntervalReport> {
        let mut rng = stream(seed, "perfbench-decide", 0);
        let mut itbs: Vec<u8> = (0..CLIENTS).map(|_| rng.gen_range(0..=ITBS_MAX)).collect();
        (0..BAIS)
            .map(|b| {
                if b > 0 {
                    for i in itbs.iter_mut() {
                        if rng.gen_bool(CHURN) {
                            *i = rng.gen_range(0..=ITBS_MAX);
                        }
                    }
                }
                let mut flows: Vec<FlowIntervalStats> = self
                    .videos
                    .iter()
                    .zip(&itbs)
                    .map(|(&f, &i)| self.stats(f, FlowClass::Video, i, rng.gen_range(500..40_000)))
                    .collect();
                for &f in &self.data {
                    let i = rng.gen_range(0..=ITBS_MAX);
                    flows.push(self.stats(f, FlowClass::Data, i, rng.gen_range(500..400_000)));
                }
                flows.sort_by_key(|s| s.flow);
                let start = Time::ZERO + TimeDelta::from_millis(BAI.as_millis() * b as u64);
                IntervalReport {
                    start,
                    end: start + BAI,
                    flows,
                }
            })
            .collect()
    }

    /// RBs the video flows would use at the given rates (bps), priced as
    /// constraint (4a) prices them: `B · R_u · n_u / b_u`.
    fn video_rbs(
        &self,
        report: &IntervalReport,
        rates: impl Iterator<Item = (FlowId, f64)>,
    ) -> Option<f64> {
        let bai_secs = report.duration().as_secs_f64();
        let mut used = 0.0;
        for (flow, rate) in rates {
            let stats = report.flow(flow)?;
            let bits_per_rb = stats
                .bytes_per_rb()
                .map(|b| b * 8.0)
                .unwrap_or_else(|| self.la.bits_per_rb(stats.itbs))
                .max(1.0);
            used += bai_secs * rate / bits_per_rb;
        }
        Some(used)
    }

    fn budget(&self, report: &IntervalReport) -> f64 {
        f64::from(self.rbs_per_tti) * report.duration().as_millis() as f64
    }

    /// The instance is feasible: every client fits at the lowest rung,
    /// within the video share the solver allows when data flows exist.
    fn feasible(&self, report: &IntervalReport) -> bool {
        let floor = self.ladder.rates()[0].as_bps();
        self.video_rbs(report, self.videos.iter().map(|&f| (f, floor)))
            .is_some_and(|used| used <= 0.999 * self.budget(report))
    }

    /// Checks one decision from the benchmark's own report: one assignment
    /// per client whose rate is its level's, (4a) `Σ B·R_u·n_u/b_u ≤ N` and
    /// (4b) at most one step above the previous level. Updates `levels`.
    fn check(&self, report: &IntervalReport, levels: &mut [usize], out: &[Assignment]) -> bool {
        if out.len() != self.videos.len() {
            return false;
        }
        let mut ok = true;
        for a in out {
            let Some(i) = self.videos.iter().position(|&f| f == a.flow) else {
                return false;
            };
            let level = a.level.index();
            ok &= level < self.ladder.len()
                && level <= levels[i] + 1
                && a.rate == self.ladder.rate(a.level);
            levels[i] = level;
        }
        let used = self.video_rbs(report, out.iter().map(|a| (a.flow, a.rate.as_bps())));
        ok && used.is_some_and(|u| u <= self.budget(report) * (1.0 + 1e-9))
    }
}

/// The applied levels of one session, one row per BAI.
type Levels = Vec<Vec<usize>>;

fn levels_of(out: &[Assignment]) -> Vec<usize> {
    out.iter().map(|a| a.level.index()).collect()
}

/// Untimed reference pass over one session: the levels, and whether every
/// instance was feasible and every decision passed its check.
fn reference(cell: &Cell, reports: &[IntervalReport]) -> (Levels, bool) {
    let mut server = cell.server();
    let mut prev = vec![0; CLIENTS];
    let mut ok = true;
    let mut levels = Vec::with_capacity(reports.len());
    for report in reports {
        ok &= cell.feasible(report);
        let out = server.assign(report, &cell.la, cell.rbs_per_tti);
        ok &= cell.check(report, &mut prev, &out);
        levels.push(levels_of(&out));
    }
    (levels, ok)
}

/// Mean assigned rate (kbps), level changes per client, and Jain fairness
/// of the per-client mean rates, over one session's levels.
fn session_figures(cell: &Cell, levels: &Levels) -> [f64; 3] {
    let kbps = |l: usize| cell.ladder.rates()[l].as_kbps();
    let per_client: Vec<f64> = (0..CLIENTS)
        .map(|c| mean(&levels.iter().map(|row| kbps(row[c])).collect::<Vec<_>>()))
        .collect();
    let changes = levels
        .windows(2)
        .map(|w| w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count())
        .sum::<usize>() as f64
        / CLIENTS as f64;
    let sum: f64 = per_client.iter().sum();
    let squares: f64 = per_client.iter().map(|x| x * x).sum();
    [
        mean(&per_client),
        changes,
        ratio(sum * sum, CLIENTS as f64 * squares),
    ]
}

/// Runs fig9_decide over `inputs` distinct sessions: timed or traced
/// sessions, each after its reference pass, until `seconds` have passed and
/// every session ran at least once.
pub fn run(
    inputs: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Vec<String>,
) -> Outcome {
    let cell = Cell::new();
    let sessions: Vec<Vec<IntervalReport>> = (0..inputs as u64)
        .map(|i| cell.session(input_seed(seed, i)))
        .collect();
    let mut setups: Vec<Duration> = Vec::new();
    let mut refs: Vec<(Levels, bool)> = Vec::with_capacity(sessions.len());

    let mut outcome = Outcome::default();
    let mut calls: Vec<Duration> = Vec::new();
    // Each decision's fastest timed repeat, indexed by session and BAI. A
    // session is replayed on a fresh server, so a decision's repeats do
    // identical work and host load can only add to their time.
    let mut best = vec![[f64::INFINITY; BAIS]; sessions.len()];
    let mut spans = Spans::with_capacity(8192);
    let mut traced_wall = Duration::ZERO;
    let mut untraced_wall = Duration::ZERO;
    let mut counters = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < sessions.len() || Instant::now() < deadline {
        let k = i % sessions.len();
        // As on the cell workloads: each session's reference pass runs just
        // before its first timed run.
        if k == refs.len() {
            refs.push(reference(&cell, &sessions[k]));
        }
        let (want, valid) = &refs[k];
        if traced {
            let started = Instant::now();
            let mut server = cell.server();
            let outs: Vec<Vec<Assignment>> = sessions[k]
                .iter()
                .map(|r| server.assign(r, &cell.la, cell.rbs_per_tti))
                .collect();
            untraced_wall += started.elapsed();
            record_session(&cell, &sessions[k], &outs, want, *valid, &mut outcome);
            let trace = TraceHandle::registry_only();
            let (outs, wall) = traced_session(&cell, &sessions[k], trace.clone(), &mut spans);
            traced_wall += wall;
            counters.push(trace.snapshot());
            record_session(&cell, &sessions[k], &outs, want, *valid, &mut outcome);
        } else {
            for _ in 0..SETUPS_PER_SESSION {
                let started = Instant::now();
                let server = cell.server();
                setups.push(started.elapsed());
                drop(server);
            }
            let started = Instant::now();
            let mut server = cell.server();
            setups.push(started.elapsed());
            let mut outs = Vec::with_capacity(BAIS);
            for (r, best) in sessions[k].iter().zip(best[k].iter_mut()) {
                let started = Instant::now();
                let out = server.assign(r, &cell.la, cell.rbs_per_tti);
                let took = started.elapsed();
                calls.push(took);
                *best = best.min(took.as_secs_f64());
                outs.push(out);
            }
            record_session(&cell, &sessions[k], &outs, want, *valid, &mut outcome);
        }
        i += 1;
    }

    report.push(format!(
        "{} sessions of {BAIS} BAIs, {CLIENTS} clients + {DATA_FLOWS} data flows, \
         {RBS_PER_TTI} RBs/TTI, churn {CHURN}; all instances feasible: {}",
        sessions.len(),
        refs.iter().all(|r| r.1)
    ));
    let figures: Vec<[f64; 3]> = refs
        .iter()
        .map(|(l, _)| session_figures(&cell, l))
        .collect();
    let figure = |j: usize| mean(&figures.iter().map(|f| f[j]).collect::<Vec<_>>());
    if traced {
        let assign = spans.micros("assign");
        let solve = spans.micros("solve");
        let own: Vec<f64> = assign.iter().zip(&solve).map(|(a, s)| a - s).collect();
        let per_session = |f: &dyn Fn(&flare_trace::RegistrySnapshot) -> f64| {
            mean(&counters.iter().map(f).collect::<Vec<_>>())
        };
        let layers = Layers {
            setup_us: median(&spans.micros("setup")),
            step_tti_ns: crate::cell::step_tti_ns(seed),
            bai_boundary_us_p50: median(&assign),
            bai_boundary_us_p90: quantile(&assign, 0.9),
            decide_self_us_p50: median(&own),
            solve_us_p50: median(&solve),
            solve_us_p90: quantile(&solve, 0.9),
            solve_share: ratio(solve.iter().sum(), assign.iter().sum()),
            steps_per_solve: per_session(&|s| s.histogram("solver.steps").map_or(0.0, |h| h.mean)),
            warm_hit_ratio: per_session(&|s| {
                let hits = s.counter("solver.warm_hits") as f64;
                ratio(hits, hits + s.counter("solver.warm_misses") as f64)
            }),
            deferrals_per_bai: per_session(&|s| s.counter("solver.deferrals") as f64 / BAIS as f64),
            overhead_ratio: traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
            unattributed_ratio: spans.unattributed_ratio(),
            ..Layers::default()
        };
        report.push(spans.render(&format!(
            "span table ({} traced sessions)",
            spans.micros("session").len()
        )));
        outcome.metrics = layers.metrics();
    } else {
        let call_s = secs(&calls);
        let best: Vec<f64> = best.into_iter().flatten().collect();
        report.push(format!(
            "{} timed decisions, p50 {:.3} ms, p90 {:.3} ms; fastest repeat of each of \
             the {} decisions: p50 {:.3} ms, p90 {:.3} ms",
            calls.len(),
            median(&call_s) * 1e3,
            quantile(&call_s, 0.9) * 1e3,
            best.len(),
            median(&best) * 1e3,
            quantile(&best, 0.9) * 1e3
        ));
        outcome.metrics = vec![
            Metric::new("call_ms", "ms", median(&best) * 1e3),
            Metric::new("setup_s", "s", median(&secs(&setups))),
            Metric::new("video_kbps", "kbps", figure(0)),
            Metric::new("switches", "count", figure(1)),
            Metric::new("jain", "ratio", figure(2)),
        ];
    }
    outcome
}

/// Extra set-ups timed before each timed session, spread over the run so
/// that their median is as steady as the decisions'.
const SETUPS_PER_SESSION: usize = 8;

/// Counts one operation per decision: it fails when its levels differ from
/// the reference pass, or the reference pass found it infeasible or broken.
fn record_session(
    cell: &Cell,
    reports: &[IntervalReport],
    outs: &[Vec<Assignment>],
    want: &Levels,
    valid: bool,
    outcome: &mut Outcome,
) {
    let mut prev = vec![0; CLIENTS];
    for ((report, out), want) in reports.iter().zip(outs).zip(want) {
        let checked = cell.check(report, &mut prev, out);
        outcome.record(valid && checked && levels_of(out) == *want);
    }
}

/// One session with a span around the set-up and every `assign`; the
/// server's own solve time is the `assign` span's child.
fn traced_session(
    cell: &Cell,
    reports: &[IntervalReport],
    trace: TraceHandle,
    spans: &mut Spans,
) -> (Vec<Vec<Assignment>>, Duration) {
    let root = spans.open("session", None);
    let setup = spans.open("setup", Some(root));
    let mut server = cell.server();
    server.set_trace(trace);
    spans.close(setup);
    let mut outs = Vec::with_capacity(reports.len());
    let mut assigns: Vec<(SpanId, Option<Duration>)> = Vec::with_capacity(reports.len());
    for r in reports {
        let assign = spans.open("assign", Some(root));
        let out = server.assign(r, &cell.la, cell.rbs_per_tti);
        spans.close(assign);
        assigns.push((assign, server.last_solve_time()));
        outs.push(out);
    }
    let wall = spans.close(root);
    for (assign, solve) in assigns {
        spans.child("solve", assign, solve.unwrap_or_default());
    }
    (outs, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instances_are_feasible() {
        let cell = Cell::new();
        for seed in 0..8 {
            for report in cell.session(seed) {
                assert!(cell.feasible(&report), "seed {seed}: infeasible instance");
            }
        }
    }

    #[test]
    fn a_corrupted_level_fails_its_decision() {
        let cell = Cell::new();
        let reports = cell.session(3);
        let mut server = cell.server();
        let mut prev = vec![0; CLIENTS];
        let good = server.assign(&reports[0], &cell.la, cell.rbs_per_tti);
        let mut bad = good.clone();
        assert!(cell.check(&reports[0], &mut prev.clone(), &good));

        // One client raised by two rungs breaks (4b).
        let level = bad[5].level.index() + 2;
        bad[5].level = flare_has::Level::new(level);
        bad[5].rate = cell.ladder.rate(bad[5].level);
        assert!(!cell.check(&reports[0], &mut prev, &bad));

        let want = vec![levels_of(&good)];
        let mut outcome = Outcome::default();
        record_session(&cell, &reports[..1], &[bad], &want, true, &mut outcome);
        assert_eq!((outcome.attempted, outcome.failed), (1, 1));
    }

    #[test]
    fn a_budget_overrun_fails_its_decision() {
        let cell = Cell::new();
        // Every client on the worst channel: the floor fits, the top rung
        // for everyone breaks (4a).
        let report = IntervalReport {
            start: Time::ZERO,
            end: Time::ZERO + BAI,
            flows: cell
                .videos
                .iter()
                .map(|&f| cell.stats(f, FlowClass::Video, 0, 10_000))
                .collect(),
        };
        assert!(cell.feasible(&report));
        let top = cell.ladder.highest();
        let all_top: Vec<Assignment> = cell
            .videos
            .iter()
            .map(|&flow| Assignment {
                flow,
                level: top,
                rate: cell.ladder.rate(top),
            })
            .collect();
        let mut prev = vec![top.index() - 1; CLIENTS];
        assert!(!cell.check(&report, &mut prev, &all_top));
        let mut prev = vec![top.index() - 1; CLIENTS];
        let floor: Vec<Assignment> = all_top
            .iter()
            .map(|a| Assignment {
                level: cell.ladder.lowest(),
                rate: cell.ladder.rate(cell.ladder.lowest()),
                ..*a
            })
            .collect();
        assert!(cell.check(&report, &mut prev, &floor));
    }

    #[test]
    fn same_seed_runs_give_identical_simulated_metrics() {
        let simulated =
            |o: &Outcome| -> Vec<f64> { o.metrics[2..].iter().map(|m| m.value).collect() };
        let mut report = Vec::new();
        let a = run(1, 5, 0.0, false, &mut report);
        let b = run(1, 5, 0.0, false, &mut report);
        assert_eq!((a.attempted, a.failed), (BAIS as u64, 0));
        assert_eq!(simulated(&a), simulated(&b));
        let traced = run(1, 5, 0.0, true, &mut report);
        assert_eq!((traced.attempted, traced.failed), (2 * BAIS as u64, 0));
    }

    #[test]
    fn same_seed_sessions_repeat() {
        let cell = Cell::new();
        let reports = cell.session(9);
        assert_eq!(reports, cell.session(9));
        let (a, ok) = reference(&cell, &reports[..12]);
        assert!(ok);
        assert_eq!(a, reference(&cell, &reports[..12]).0);
    }
}
