//! Integration tests for the parallel execution harness: the determinism
//! contract (serial and parallel sweeps are bit-identical) and the runtime
//! invariant layer wired through the experiment entry points.

use flare_harness::{run_indexed, serial_parallel_divergence};
use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::{ChannelKind, SchemeKind, SimConfig};
use flare_sim::TimeDelta;
use flare_trace::{TraceHandle, TraceLevel};

/// Builds one fully traced run inside the job closure — the simulation, its
/// RNG streams, and the recorder are all owned by the job, which is what
/// makes parallel execution bit-identical to serial.
fn traced_run(seed: u64, check_invariants: bool) -> String {
    let trace = TraceHandle::new(TraceLevel::Info);
    let config = SimConfig::builder()
        .seed(seed)
        .duration(TimeDelta::from_secs(60))
        .bai(TimeDelta::from_secs(10))
        .videos(3)
        .data_flows(1)
        .channel(ChannelKind::Static { itbs: 10 })
        .scheme(SchemeKind::Flare(flare_core::FlareConfig::default()))
        .trace(trace.clone())
        .check_invariants(check_invariants)
        .build();
    let _ = flare_scenarios::CellSim::new(config).run();
    trace.to_jsonl()
}

#[test]
fn parallel_traces_are_byte_identical_to_serial() {
    // The tentpole acceptance criterion: same-seed serial vs `--jobs 4`
    // execution produces byte-identical per-run JSONL traces.
    let divergence = serial_parallel_divergence(6, 4, |i| traced_run(100 + i as u64, false));
    assert_eq!(divergence, None, "run {divergence:?} diverged");
}

#[test]
fn parallel_traces_stay_identical_with_invariants_on() {
    // The invariant layer is observation-only, so it must not perturb the
    // determinism contract either.
    let divergence = serial_parallel_divergence(4, 4, |i| traced_run(200 + i as u64, true));
    assert_eq!(divergence, None, "run {divergence:?} diverged");
}

#[test]
fn parallel_sweep_results_match_serial_results() {
    let job = |i: usize| {
        let r = flare_scenarios::cell::static_run(
            SchemeKind::Flare(flare_core::FlareConfig::default()),
            300 + i as u64,
            TimeDelta::from_secs(90),
        );
        (
            r.videos
                .iter()
                .map(|v| v.rate_series.points().to_vec())
                .collect::<Vec<_>>(),
            r.average_video_rate_kbps(),
        )
    };
    let serial = run_indexed(4, 1, job);
    let parallel = run_indexed(4, 4, job);
    assert_eq!(serial, parallel);
}

#[test]
fn quick_experiments_pass_with_invariants_enabled() {
    // `repro --check-invariants` routes through this process-global
    // default; every shipped experiment must run clean under the battery.
    // (The checks are observation-only, so the flag leaking to concurrently
    // running tests in this binary cannot change their results.)
    flare_scenarios::set_default_check_invariants(true);
    let p = ExperimentParams {
        runs: 1,
        duration: TimeDelta::from_secs(120),
        testbed_duration: TimeDelta::from_secs(120),
        seed: 5,
        jobs: 2,
    };
    let table = flare_scenarios::experiments::table1(p);
    assert_eq!(table.rows.len(), 3);
    let fig = flare_scenarios::experiments::fig6(p);
    assert_eq!(fig.panels.len(), 3);
    let faults = flare_scenarios::faults::faults(p);
    assert!(!faults.points.is_empty());
    flare_scenarios::set_default_check_invariants(false);
    assert!(!flare_scenarios::default_check_invariants());
}

#[test]
fn hard_invariant_failure_aborts_a_parallel_sweep() {
    // A violation in any run must surface through the pool, not vanish on
    // a worker thread.
    let outcome = std::panic::catch_unwind(|| {
        run_indexed(3, 2, |i| {
            let config = SimConfig::builder()
                .seed(400 + i as u64)
                .duration(TimeDelta::from_secs(10))
                .videos(1)
                .data_flows(0)
                .channel(ChannelKind::Static { itbs: 10 })
                .scheme(SchemeKind::Festive)
                .check_invariants(true)
                .build();
            let mut sim = flare_scenarios::CellSim::new(config);
            if i == 1 {
                sim.debug_enb_mut().debug_inflate_reported_grants(51);
            }
            sim.run().average_video_rate_kbps()
        })
    });
    let payload = outcome.expect_err("the injected violation must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("rb_conservation"),
        "panic payload should name the invariant: {msg}"
    );
}
