//! Golden-trace regression tests.
//!
//! Each test re-runs one representative configuration with a recorder
//! attached (an experiment's, from
//! `flare_scenarios::tracing::representative_trace`, or a baseline cell
//! built here) and compares the resulting JSONL event stream byte-for-byte
//! against a checked-in snapshot under `tests/golden/`. Traces are
//! timestamped with simulated time only, so these are exact-equality
//! checks: any drift in scheduling, solver decisions, RNG streams, or trace
//! formatting fails the diff.
//!
//! To refresh the snapshots after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! then commit the rewritten files with a note explaining why the traces
//! legitimately changed.

use std::path::PathBuf;

use flare_core::{FaultModel, FlareConfig, RobustnessConfig};
use flare_lte::mobility::MobilityConfig;
use flare_scenarios::cell::cell_config;
use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::testbed::static_config;
use flare_scenarios::tracing::representative_trace;
use flare_scenarios::{CellSim, ChannelKind, SchedulerKind, SchemeKind, SimConfig};
use flare_sim::TimeDelta;
use flare_trace::{TraceHandle, TraceLevel};

fn golden_params() -> ExperimentParams {
    ExperimentParams {
        runs: 1,
        duration: TimeDelta::from_secs(60),
        testbed_duration: TimeDelta::from_secs(60),
        seed: 1,
        jobs: 1,
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.jsonl"))
}

fn check_golden(experiment: &str) {
    let artifact =
        representative_trace(experiment, &golden_params()).expect("experiment is traceable");
    compare_golden(experiment, &artifact.jsonl);
}

/// Runs `config` with an info-level recorder attached and compares its
/// trace against `tests/golden/{name}.jsonl`. For runs that no `repro`
/// experiment traces, such as the baselines.
fn check_golden_run(name: &str, mut config: SimConfig) -> String {
    let trace = TraceHandle::new(TraceLevel::Info);
    config.trace = trace.clone();
    let _ = CellSim::new(config).run();
    let jsonl = trace.to_jsonl();
    compare_golden(name, &jsonl);
    jsonl
}

fn compare_golden(name: &str, jsonl: &str) {
    assert!(!jsonl.is_empty(), "{name}: trace must not be empty");
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, jsonl).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert!(
        jsonl == golden,
        "{name}: trace deviates from {} — if the change is intentional, \
         refresh with UPDATE_GOLDEN=1 cargo test --test golden",
        path.display()
    );
}

/// The fig. 6 static cell (8 stationary video UEs, no data) under `scheme`.
fn static_cell(scheme: SchemeKind) -> SimConfig {
    let p = golden_params();
    cell_config(
        scheme,
        ChannelKind::StationaryRandom(MobilityConfig),
        8,
        0,
        p.seed,
        p.duration,
    )
}

/// FLARE on the static cell: the coordination loop with a perfect control
/// plane (assignments, GBR enforcement, player events).
#[test]
fn golden_static_flare_trace() {
    check_golden("fig6");
}

/// FLARE-R under message loss and jitter: the message path with versioned
/// installs, fallback transitions, and lease expiries.
#[test]
fn golden_faulty_flare_trace() {
    check_golden("faults");
}

/// The GBR-only ablation: server-side enforcement without plugin obedience.
#[test]
fn golden_gbr_only_trace() {
    check_golden("ablation");
}

/// FLARE on a loaded static cell (4 video + 4 backlogged data flows under
/// the Priority Set scheduler): pins the PF phase with greedy data flows,
/// which the video-only snapshots never exercise.
#[test]
fn golden_mixed_flare_trace() {
    check_golden("fig10");
}

/// FLARE on the paper's vehicular mobile cell (8 UEs, random-waypoint
/// mobility with shadowing): the only snapshot whose channels move, so it
/// pins channel polling and the idle-TTI path under time-varying iTbs.
#[test]
fn golden_mobile_flare_trace() {
    check_golden("fig7");
}

/// FESTIVE on the fig. 6 static cell: pins the client-side baseline's
/// harmonic-mean estimate, gradual switching and delayed update.
#[test]
fn golden_static_festive_trace() {
    check_golden_run("festive_static", static_cell(SchemeKind::Festive));
}

/// AVIS on the fig. 6 static cell: pins the network-side allocator's
/// demand smoothing, partition and GBR/MBR caps under rate-based clients.
#[test]
fn golden_static_avis_trace() {
    check_golden_run("avis_static", static_cell(SchemeKind::Avis));
}

/// GOOGLE on the Table I testbed cell (3 video + 1 data UEs at iTbs 2):
/// pins the reference player's dual-window estimate and safety factor.
#[test]
fn golden_testbed_google_trace() {
    let p = golden_params();
    check_golden_run(
        "google_testbed",
        static_config(SchemeKind::Google, p.seed, p.testbed_duration),
    );
}

/// FLARE on the static-partitioning ablation's cell (4 video + 4 data UEs
/// pinned at iTbs 8) under strict partitioning: pins the scheduler that
/// keeps idle GBR reservations, which no experiment snapshot runs.
#[test]
fn golden_partition_static_trace() {
    let p = golden_params();
    let config = SimConfig::builder()
        .seed(p.seed)
        .duration(p.duration)
        .videos(4)
        .data_flows(4)
        .scheduler(SchedulerKind::StrictPartition)
        .channel(ChannelKind::Static { itbs: 8 })
        .scheme(SchemeKind::Flare(FlareConfig::default()))
        .build();
    check_golden_run("partition_static", config);
}

/// FESTIVE on the diversity ablation's mobile cell (8 vehicular UEs) under
/// legacy proportional fair: pins the PF averaging window and the
/// random-waypoint channel outside FLARE.
#[test]
fn golden_pf_mobile_trace() {
    let p = golden_params();
    let config = SimConfig::builder()
        .seed(p.seed)
        .duration(p.duration)
        .videos(8)
        .data_flows(0)
        .scheduler(SchedulerKind::ProportionalFair)
        .channel(ChannelKind::Mobile(MobilityConfig))
        .scheme(SchemeKind::Festive)
        .build();
    check_golden_run("pf_mobile", config);
}

/// FLARE-R on the Table I testbed cell (2 s BAI) under heavy control-plane
/// loss: pins stats aging for silent clients and at least one eviction,
/// which the fault snapshot's 10 s BAI never reaches in a minute.
#[test]
fn golden_resilient_evict_trace() {
    let p = golden_params();
    let scheme = SchemeKind::Flare(FlareConfig::default().with_robustness(RobustnessConfig));
    let mut config = static_config(scheme, p.seed, p.testbed_duration);
    config.faults = FaultModel::perfect().with_drop_prob(0.8);
    let jsonl = check_golden_run("resilient_evict", config);
    assert!(
        jsonl.contains(r#""cat":"solver","ev":"evict""#),
        "the run must evict at least one client"
    );
}
