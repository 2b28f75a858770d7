//! Golden-trace regression tests.
//!
//! Each test re-runs one representative experiment configuration with a
//! recorder attached (`flare_scenarios::tracing::representative_trace`) and
//! compares the resulting JSONL event stream byte-for-byte against a
//! checked-in snapshot under `tests/golden/`. Traces are timestamped with
//! simulated time only, so these are exact-equality checks: any drift in
//! scheduling, solver decisions, RNG streams, or trace formatting fails the
//! diff.
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

use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::tracing::representative_trace;
use flare_sim::TimeDelta;

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
    assert!(artifact.events > 0, "{experiment}: trace must not be empty");
    let path = golden_path(experiment);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &artifact.jsonl).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert!(
        artifact.jsonl == golden,
        "{experiment}: trace deviates from {} — if the change is intentional, \
         refresh with UPDATE_GOLDEN=1 cargo test --test golden",
        path.display()
    );
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
