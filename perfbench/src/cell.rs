//! The loaded-cell workloads: whole 1200 s sessions through `CellSim`.
//!
//! Timed runs go through `CellSim::new` + `CellSim::run` only. The traced
//! run drives `CellSim::into_stepper` so it can time each `advance_to_bai`
//! and `bai_boundary` from outside the program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use flare_core::{FaultModel, FlareConfig, RobustnessConfig};
use flare_has::PlayerStats;
use flare_lte::mobility::MobilityConfig;
use flare_lte::scheduler::PrioritySetScheduler;
use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
use flare_scenarios::cell::cell_config;
use flare_scenarios::{CellSim, ChannelKind, RobustnessReport, RunResult, SchemeKind, SimConfig};
use flare_sim::rng::stream;
use flare_sim::units::Rate;
use flare_sim::{Time, TimeDelta};
use rand::Rng;

use crate::layers::Layers;
use crate::spans::Spans;
use crate::stats::{input_seed, mean, median, quantile, ratio, secs, Metric, Outcome};

/// The paper's Table III session length. Short runs would time the start-up
/// transient, while players still sit on the lowest rung.
const SESSION: TimeDelta = TimeDelta::from_secs(1200);

/// A loaded single-cell workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// FLARE, 8 video + 8 always-backlogged data flows, stationary UEs.
    Fig10Mixed,
    /// FLARE-R, 8 vehicular video UEs, 20% control-message loss.
    Fig7Faults,
}

impl CellWorkload {
    pub fn name(self) -> &'static str {
        match self {
            CellWorkload::Fig10Mixed => "fig10_mixed",
            CellWorkload::Fig7Faults => "fig7_faults",
        }
    }

    /// Distinct inputs per run. Host time and QoE per session depend on
    /// where the UEs stand, so every run covers several placements.
    pub fn inputs(self) -> usize {
        match self {
            CellWorkload::Fig10Mixed => 8,
            CellWorkload::Fig7Faults => 8,
        }
    }

    /// The session configuration for one input seed.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            CellWorkload::Fig10Mixed => cell_config(
                SchemeKind::Flare(FlareConfig::default()),
                ChannelKind::StationaryRandom(MobilityConfig::default()),
                8,
                8,
                seed,
                SESSION,
            ),
            // The 20% point of the `faults` sweep.
            CellWorkload::Fig7Faults => SimConfig::builder()
                .seed(seed)
                .duration(SESSION)
                .videos(8)
                .data_flows(0)
                .channel(ChannelKind::Mobile(MobilityConfig::default()))
                .scheme(SchemeKind::Flare(
                    FlareConfig::default().with_robustness(RobustnessConfig::default()),
                ))
                .faults(FaultModel::perfect().with_drop_prob(0.2))
                .build(),
        }
    }

    pub fn describe(self) -> &'static str {
        match self {
            CellWorkload::Fig10Mixed => {
                "FLARE, 8 video + 8 backlogged data flows, stationary-random channels, \
                 in-process OneAPI path; the MAC scheduler does most of the work"
            }
            CellWorkload::Fig7Faults => {
                "FLARE-R, 8 vehicular video UEs, 20% control-message loss; player \
                 stepping, mobility channels, the control plane and the fallback plugin"
            }
        }
    }
}

/// The simulated outputs of a session, which must repeat exactly per seed.
#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    videos: Vec<(PlayerStats, Rate)>,
    data: Vec<Rate>,
    robustness: Option<RobustnessReport>,
    solves: usize,
}

impl Outputs {
    fn of(r: &RunResult) -> Self {
        Outputs {
            videos: r
                .videos
                .iter()
                .map(|v| (v.stats.clone(), v.average_throughput))
                .collect(),
            data: r.data.iter().map(|d| d.average_throughput).collect(),
            robustness: r.robustness,
            solves: r.solve_times.len(),
        }
    }
}

/// Untimed check pass: the session with the invariant battery on. `None`
/// when an invariant was violated (the run panics on the first one).
fn check_pass(config: &SimConfig, setups: &mut Vec<Duration>) -> Option<RunResult> {
    let mut config = config.clone();
    config.check_invariants = true;
    catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let sim = CellSim::new(config);
        setups.push(started.elapsed());
        sim.run()
    }))
    .ok()
}

/// Extra set-ups timed before each timed run. A process's set-ups taken
/// back to back would all see the same moment of host load; spread over
/// the whole run, their median is as steady as the runs'.
const SETUPS_PER_RUN: usize = 16;

/// Runs a cell workload over `inputs` distinct sessions: timed or traced
/// runs, each input's after its check pass, until `seconds` have passed
/// and every input ran at least once.
pub fn run(
    w: CellWorkload,
    inputs: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Vec<String>,
) -> Outcome {
    let configs: Vec<SimConfig> = (0..inputs as u64)
        .map(|i| w.config(input_seed(seed, i)))
        .collect();
    let mut setups: Vec<Duration> = Vec::new();
    let mut refs: Vec<Option<RunResult>> = Vec::with_capacity(configs.len());
    let same = |reference: &Option<RunResult>, r: &RunResult| {
        reference
            .as_ref()
            .is_some_and(|reference| Outputs::of(reference) == Outputs::of(r))
    };

    let mut outcome = Outcome::default();
    let mut calls: Vec<Duration> = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let mut untraced_wall = Duration::ZERO;
    let mut spans = Spans::with_capacity(1024);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < configs.len() || Instant::now() < deadline {
        let k = i % configs.len();
        // Each input's check pass runs just before its first timed run, so
        // the timed runs spread over the whole measured time and their
        // median averages over more changes of host load.
        if k == refs.len() {
            refs.push(check_pass(&configs[k], &mut setups));
        }
        if traced {
            let config = configs[k].clone();
            let started = Instant::now();
            let r = CellSim::new(config).run();
            std::hint::black_box(summary(&r));
            untraced_wall += started.elapsed();
            outcome.record(same(&refs[k], &r));
            let (r, wall) = traced_run(configs[k].clone(), &mut spans);
            traced_wall += wall;
            outcome.record(same(&refs[k], &r));
        } else {
            for _ in 0..SETUPS_PER_RUN {
                let config = configs[k].clone();
                let started = Instant::now();
                let sim = CellSim::new(config);
                setups.push(started.elapsed());
                drop(sim);
            }
            let config = configs[k].clone();
            let started = Instant::now();
            let sim = CellSim::new(config);
            let built = Instant::now();
            let r = sim.run();
            let done = Instant::now();
            setups.push(built - started);
            calls.push(done - built);
            outcome.record(same(&refs[k], &r));
        }
        i += 1;
    }

    let valid: Vec<&RunResult> = refs.iter().flatten().collect();
    let per_run =
        |f: &dyn Fn(&RunResult) -> f64| mean(&valid.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ttis = SESSION.as_millis() as f64;
    report.push(format!(
        "inputs {}, session {} s, {} check passes clean",
        configs.len(),
        SESSION.as_millis() / 1000,
        valid.len()
    ));
    if traced {
        let mut layers = Layers {
            step_tti_ns: step_tti_ns(seed),
            overhead_ratio: traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
            unattributed_ratio: spans.unattributed_ratio(),
            ..Layers::default()
        };
        fill_span_layers(&mut layers, &spans, ttis);
        fill_counter_layers(&mut layers, &valid);
        report.push(spans.render(&format!(
            "span table ({} traced runs)",
            spans.micros("run").len()
        )));
        outcome.metrics = layers.metrics();
    } else {
        // The mean, not the median: host load comes in phases of tens of
        // seconds, so a run's session times are often split between a fast
        // and a slow cluster, and their median jumps between the two where
        // their mean moves with the share of time spent in each.
        let call_s = secs(&calls);
        report.push(format!(
            "{} timed runs: min {:.1} ms, median {:.1} ms, mean {:.1} ms ({:.0} TTIs/s), max {:.1} ms",
            calls.len(),
            quantile(&call_s, 0.0) * 1e3,
            median(&call_s) * 1e3,
            mean(&call_s) * 1e3,
            ttis / mean(&call_s),
            quantile(&call_s, 1.0) * 1e3,
        ));
        outcome.metrics = vec![
            Metric::new("call_ms", "ms", mean(&call_s) * 1e3),
            Metric::new("setup_s", "s", median(&secs(&setups))),
            Metric::new(
                "video_kbps",
                "kbps",
                per_run(&RunResult::average_video_rate_kbps),
            ),
            Metric::new(
                "switches",
                "count",
                per_run(&RunResult::average_bitrate_changes),
            ),
            Metric::new("jain", "ratio", per_run(&RunResult::jain_of_video_rates)),
        ];
    }
    outcome
}

/// The summary figures the benchmark reads from every run.
fn summary(r: &RunResult) -> [f64; 5] {
    [
        r.average_video_rate_kbps(),
        r.average_bitrate_changes(),
        r.average_underflow_secs(),
        r.jain_of_video_rates(),
        r.average_data_throughput_kbps(),
    ]
}

/// One session driven through the stepper, with a span around every call.
/// Returns the result and the root span's duration.
fn traced_run(config: SimConfig, spans: &mut Spans) -> (RunResult, Duration) {
    let root = spans.open("run", None);
    let setup = spans.open("setup", Some(root));
    let mut stepper = CellSim::new(config).into_stepper();
    spans.close(setup);
    let mut boundaries = Vec::with_capacity(128);
    loop {
        let advance = spans.open("advance_to_bai", Some(root));
        let more = stepper.advance_to_bai().is_some();
        spans.close(advance);
        if !more {
            break;
        }
        let boundary = spans.open("bai_boundary", Some(root));
        stepper.bai_boundary();
        spans.close(boundary);
        boundaries.push(boundary);
    }
    let result = spans.open("result", Some(root));
    let r = stepper.into_result();
    std::hint::black_box(summary(&r));
    spans.close(result);
    let wall = spans.close(root);
    // The solve times the run measured are children of the boundaries that
    // ran them; a boundary without a solve (a server outage) has none.
    if r.solve_times.len() == boundaries.len() {
        for (&b, &t) in boundaries.iter().zip(&r.solve_times) {
            spans.child("solve", b, t);
        }
    }
    (r, wall)
}

fn fill_span_layers(layers: &mut Layers, spans: &Spans, ttis: f64) {
    let runs = spans.micros("run").len() as f64;
    let boundary = spans.micros("bai_boundary");
    let solve = spans.micros("solve");
    layers.setup_us = median(&spans.micros("setup"));
    layers.tti_loop_ns_per_tti =
        spans.micros("advance_to_bai").iter().sum::<f64>() * 1e3 / (ttis * runs);
    layers.result_us = median(&spans.micros("result"));
    layers.bai_boundary_us_p50 = median(&boundary);
    layers.bai_boundary_us_p90 = quantile(&boundary, 0.9);
    layers.solve_us_p50 = median(&solve);
    layers.solve_us_p90 = quantile(&solve, 0.9);
    layers.solve_share = ratio(solve.iter().sum(), boundary.iter().sum());
    if solve.len() == boundary.len() {
        let own: Vec<f64> = boundary.iter().zip(&solve).map(|(b, s)| b - s).collect();
        layers.decide_self_us_p50 = median(&own);
    } else {
        // Some run's solves could not be matched to its boundaries.
        layers.decide_self_us_p50 = median(&boundary);
    }
}

fn fill_counter_layers(layers: &mut Layers, runs: &[&RunResult]) {
    let per_run =
        |f: &dyn Fn(&RunResult) -> f64| mean(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let bais = |r: &RunResult| (r.duration.as_millis() / 10_000) as f64;
    let rbs_offered = CellConfig::default().rbs_per_tti as f64;
    layers.rb_utilization = per_run(&|r| {
        ratio(
            r.telemetry.counter("mac.report_rbs") as f64,
            rbs_offered * r.duration.as_millis() as f64,
        )
    });
    layers.lease_expiries = per_run(&|r| r.telemetry.counter("enforce.lease_expiries") as f64);
    layers.control_loss_ratio = per_run(&|r| {
        let t = &r.telemetry;
        let lost = (t.counter("control.dropped") + t.counter("control.lost_to_outage")) as f64;
        ratio(lost, lost + t.counter("control.delivered") as f64)
    });
    layers.fallback_bai_ratio = per_run(&|r| {
        ratio(
            r.telemetry.counter("plugin.fallback_bais") as f64,
            bais(r) * r.videos.len() as f64,
        )
    });
    layers.installs_per_bai =
        per_run(&|r| ratio(r.telemetry.counter("plugin.installs") as f64, bais(r)));
    layers.stale_rejections = per_run(&|r| r.telemetry.counter("plugin.stale_rejections") as f64);
    layers.steps_per_solve = per_run(&|r| {
        r.telemetry
            .histogram("solver.steps")
            .map_or(0.0, |h| h.mean)
    });
    layers.warm_hit_ratio = per_run(&|r| {
        let hits = r.telemetry.counter("solver.warm_hits") as f64;
        ratio(
            hits,
            hits + r.telemetry.counter("solver.warm_misses") as f64,
        )
    });
    layers.deferrals_per_bai =
        per_run(&|r| ratio(r.telemetry.counter("solver.deferrals") as f64, bais(r)));
    layers.segments_per_run = per_run(&|r| r.telemetry.counter("player.segments") as f64);
    layers.stalls_per_run = per_run(&|r| r.telemetry.counter("player.stalls") as f64);
    layers.rebuffer_s = per_run(&RunResult::average_underflow_secs);
    layers.data_kbps = per_run(&RunResult::average_data_throughput_kbps);
    layers.download_ms_mean = per_run(&|r| {
        r.telemetry
            .histogram("player.download_ms")
            .map_or(0.0, |h| h.mean)
    });
}

/// TTIs the standalone MAC probe times.
const PROBE_TTIS: u64 = 100_000;

/// Host ns per `ENodeB::step_tti` in a cell built like fig10_mixed's: the
/// Priority Set Scheduler, 8 video flows holding a GBR and fetching a 10 s
/// segment every 10 s, and 8 data flows, which the MAC keeps backlogged.
pub fn step_tti_ns(seed: u64) -> f64 {
    let mut rng = stream(seed, "perfbench-mac", 0);
    let mut enb = ENodeB::new(
        CellConfig::default(),
        Box::new(PrioritySetScheduler::default()),
    );
    let channel = |rng: &mut rand::rngs::SmallRng| {
        Box::new(flare_lte::channel::StaticChannel::new(Itbs::new(
            rng.gen_range(0..=26),
        )))
    };
    let rates_kbps = [100.0, 250.0, 500.0, 1000.0];
    let videos: Vec<_> = (0..8)
        .map(|_| {
            let flow = enb.add_flow(FlowClass::Video, channel(&mut rng));
            let rate = Rate::from_kbps(rates_kbps[rng.gen_range(0..rates_kbps.len())]);
            enb.set_gbr(flow, Some(rate));
            (flow, rate, rng.gen_range(0..10_000u64))
        })
        .collect();
    for _ in 0..8 {
        enb.add_flow(FlowClass::Data, channel(&mut rng));
    }
    let mut delivered = 0u64;
    let started = Instant::now();
    for ms in 0..PROBE_TTIS {
        for &(flow, rate, phase) in &videos {
            if ms % 10_000 == phase {
                enb.push_backlog(flow, rate.bytes_over(TimeDelta::from_secs(10)));
            }
        }
        for d in enb.step_tti(Time::from_millis(ms)) {
            delivered += d.bytes.as_u64();
        }
    }
    let elapsed = started.elapsed();
    std::hint::black_box(delivered);
    elapsed.as_secs_f64() * 1e9 / PROBE_TTIS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulated(outcome: &Outcome) -> Vec<(&'static str, f64)> {
        outcome
            .metrics
            .iter()
            .filter(|m| ["video_kbps", "switches", "jain"].contains(&m.name))
            .map(|m| (m.name, m.value))
            .collect()
    }

    #[test]
    fn same_seed_runs_give_identical_simulated_metrics() {
        for w in [CellWorkload::Fig10Mixed, CellWorkload::Fig7Faults] {
            let mut report = Vec::new();
            let a = run(w, 2, 5, 0.0, false, &mut report);
            let b = run(w, 2, 5, 0.0, false, &mut report);
            assert_eq!((a.attempted, a.failed), (2, 0), "{}", w.name());
            assert_eq!(simulated(&a).len(), 3);
            assert_eq!(simulated(&a), simulated(&b), "{}", w.name());
        }
    }

    #[test]
    fn traced_runs_match_untraced_ones() {
        let mut report = Vec::new();
        let outcome = run(CellWorkload::Fig7Faults, 1, 8, 0.0, true, &mut report);
        assert_eq!((outcome.attempted, outcome.failed), (2, 0));
        let unattributed = outcome
            .metrics
            .iter()
            .find(|m| m.name == "trace.unattributed_ratio")
            .expect("reported");
        assert!(unattributed.value < 0.05);
    }

    #[test]
    fn a_changed_output_is_caught() {
        let config = CellWorkload::Fig7Faults.config(3);
        let r = CellSim::new(config.clone()).run();
        let mut changed = r.clone();
        changed.videos[0].stats.bitrate_changes += 1;
        assert_eq!(Outputs::of(&r), Outputs::of(&CellSim::new(config).run()));
        assert_ne!(Outputs::of(&r), Outputs::of(&changed));
    }
}
