//! End-to-end guarantees of the trace subsystem (PR 2's acceptance bar):
//! same-seed runs trace byte-identically, real traces survive a JSONL
//! round trip, the registry-backed telemetry agrees with the degradation
//! report, and a run without a user recorder still yields telemetry.

use flare_core::{FaultModel, FlareConfig, RobustnessConfig};
use flare_scenarios::{CellSim, ChannelKind, SchemeKind, SimConfig};
use flare_sim::TimeDelta;
use flare_trace::{Category, TraceHandle, TraceLevel};

/// A faulty FLARE-R run: exercises every instrumented category (MAC, solver,
/// control, plugin, player, enforcement).
fn faulty_config(trace: TraceHandle) -> SimConfig {
    SimConfig::builder()
        .seed(11)
        .duration(TimeDelta::from_secs(150))
        .bai(TimeDelta::from_secs(10))
        .videos(3)
        .data_flows(1)
        .channel(ChannelKind::Static { itbs: 10 })
        .scheme(SchemeKind::Flare(
            FlareConfig::default().with_robustness(RobustnessConfig),
        ))
        .faults(
            FaultModel::perfect()
                .with_drop_prob(0.3)
                .with_jitter(TimeDelta::from_millis(800)),
        )
        .trace(trace)
        .build()
}

#[test]
fn same_seed_runs_trace_byte_identically() {
    let run = || {
        let trace = TraceHandle::new(TraceLevel::Debug);
        CellSim::new(faulty_config(trace.clone())).run();
        trace.to_jsonl()
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce a byte-identical trace");
}

#[test]
fn real_traces_round_trip_through_jsonl() {
    let trace = TraceHandle::new(TraceLevel::Info);
    CellSim::new(faulty_config(trace.clone())).run();
    let jsonl = trace.to_jsonl();
    let parsed = flare_trace::parse_jsonl(&jsonl).expect("trace must parse");
    assert_eq!(parsed.len(), trace.event_count());
    assert_eq!(parsed, trace.events(), "parse must reconstruct the events");

    // Every instrumented category shows up in a faulty FLARE-R run.
    for cat in [
        Category::Solver,
        Category::Control,
        Category::Plugin,
        Category::Player,
        Category::Mac,
    ] {
        assert!(
            parsed.iter().any(|e| e.category == cat),
            "no {cat} events in the trace"
        );
    }
}

#[test]
fn telemetry_counters_agree_with_the_robustness_report() {
    let result = CellSim::new(faulty_config(TraceHandle::new(TraceLevel::Info))).run();
    let r = result.robustness.expect("message path reports telemetry");
    let t = &result.telemetry;
    assert_eq!(t.counter("control.delivered"), r.delivered);
    assert_eq!(t.counter("control.dropped"), r.dropped);
    assert_eq!(t.counter("plugin.installs"), r.installs);
    assert_eq!(t.counter("plugin.fallback_bais"), r.fallback_bais);
    assert_eq!(t.counter("plugin.stale_rejections"), r.stale_rejections);
    assert!(r.dropped > 0, "the fault model must actually drop messages");
    assert!(
        t.counter("solver.solves") > 0,
        "the server must have solved at least once"
    );
    assert!(
        t.histogram("solver.wall_ms").is_some(),
        "solve wall time must be recorded"
    );
}

#[test]
fn detached_user_handle_still_yields_telemetry() {
    let user = TraceHandle::disabled();
    let result = CellSim::new(faulty_config(user.clone())).run();
    // The user's handle stays empty…
    assert!(!user.is_attached());
    assert_eq!(user.event_count(), 0);
    // …but the run's internal registry-only recorder fills the telemetry.
    assert!(!result.telemetry.is_empty());
    assert!(result.telemetry.counter("player.segments") > 0);
    assert!(result.telemetry.counter("mac.reports") > 0);
}
