//! Measures end-to-end TTI throughput on the loaded fig10 cell and records it.
//!
//! ```text
//! tti_bench [--runs N] [--secs S] [--seed K]
//!           [--baseline TTIS_PER_SEC] [--floor TTIS_PER_SEC] [OUT.json]
//! ```
//!
//! The workload is the paper's fig10 mixed cell (8 stationary video UEs
//! under FLARE plus 8 always-backlogged data flows, Priority Set
//! Scheduler), run serially. The data flows keep every TTI busy, so the
//! idle and quiescent fast paths never hide the MAC's cost: every simulated
//! millisecond is one full `step_tti` plus the player/controller loop around
//! it, and the number is an honest end-to-end TTI rate, not a scheduler
//! microbenchmark. Without `--runs`/`--secs` it measures 4 runs of 30 s.
//!
//! * `--baseline X` embeds a previously measured TTIs/sec (e.g. from running
//!   this binary at the pre-optimization commit) so the output records both
//!   sides of a before/after comparison.
//! * `--floor X` exits non-zero when the measured rate falls below `X` —
//!   the CI perf-smoke gate.
//!
//! Before measuring, the run is executed twice at a short duration and the
//! per-client rate series and data throughputs are compared, so the file
//! never reports a speed for a simulation that lost determinism. The output
//! names the host's core count and the git revision measured.

use std::process::Command;
use std::time::Instant;

use flare_bench::parse_params_from;
use flare_core::FlareConfig;
use flare_scenarios::cell::mixed_run;
use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::{RunResult, SchemeKind};
use flare_sim::TimeDelta;

const N_VIDEO: usize = 8;
const N_DATA: usize = 8;

fn run(seed: u64, duration: TimeDelta) -> RunResult {
    mixed_run(
        SchemeKind::Flare(FlareConfig::default()),
        N_VIDEO,
        N_DATA,
        seed,
        duration,
    )
}

/// The checked-out git revision (`-dirty` when the tree has local
/// changes), or `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev)
            if git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty()) =>
        {
            format!("{rev}-dirty")
        }
        Some(rev) => rev,
        None => "unknown".to_owned(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Paper-scale defaults are oversized for a TTI throughput probe.
    let defaults = ExperimentParams {
        runs: 4,
        duration: TimeDelta::from_secs(30),
        ..ExperimentParams::paper()
    };
    let (params, rest) = parse_params_from(defaults, &args);

    let mut baseline: Option<f64> = None;
    let mut floor: Option<f64> = None;
    let mut out = "BENCH_tti.json".to_owned();
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                let v = it.next().expect("--baseline needs a TTIs/sec value");
                baseline = Some(v.parse().expect("--baseline must be a number"));
            }
            "--floor" => {
                let v = it.next().expect("--floor needs a TTIs/sec value");
                floor = Some(v.parse().expect("--floor must be a number"));
            }
            other => out = other.to_owned(),
        }
    }

    // Determinism gate: a fast simulation that drifts between reruns would
    // make the golden traces lie, so refuse to report a rate for one.
    let check = TimeDelta::from_secs(10);
    let a = run(params.seed, check);
    let b = run(params.seed, check);
    for (va, vb) in a.videos.iter().zip(&b.videos) {
        assert_eq!(
            va.rate_series.points(),
            vb.rate_series.points(),
            "mixed run is not deterministic; refusing to benchmark"
        );
    }
    for (da, db) in a.data.iter().zip(&b.data) {
        assert_eq!(
            da.average_throughput, db.average_throughput,
            "mixed run is not deterministic; refusing to benchmark"
        );
    }

    // Warm-up run (page in code, size caches), then the measured runs.
    let _ = run(params.seed, params.duration);
    let started = Instant::now();
    for i in 0..params.runs {
        let r = run(params.seed + i as u64, params.duration);
        assert!(
            r.videos.len() == N_VIDEO && r.data.len() == N_DATA,
            "mixed run must simulate its clients"
        );
    }
    let wall = started.elapsed();
    let ttis = params.runs as u64 * params.duration.as_millis();
    let ttis_per_sec = ttis as f64 / wall.as_secs_f64().max(1e-9);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    let mut json = format!(
        "{{\n  \"benchmark\": \"fig10 mixed end-to-end TTI throughput\",\n  \
         \"workload\": \"static cell, FLARE, {N_VIDEO} video + {N_DATA} backlogged data UEs, \
         priority-set scheduler, serial\",\n  \
         \"runs\": {},\n  \"run_secs\": {},\n  \"seed\": {},\n  \
         \"ttis\": {ttis},\n  \"wall_ms\": {:.1},\n  \
         \"ttis_per_sec\": {ttis_per_sec:.0},\n  \"deterministic\": true,\n  \
         \"host_cores\": {host_cores},\n  \"git_rev\": \"{}\"",
        params.runs,
        params.duration.as_millis() / 1000,
        params.seed,
        wall.as_secs_f64() * 1000.0,
        git_rev(),
    );
    if let Some(base) = baseline {
        let speedup = ttis_per_sec / base.max(1e-9);
        json.push_str(&format!(
            ",\n  \"baseline_ttis_per_sec\": {base:.0},\n  \"speedup\": {speedup:.2}"
        ));
    }
    json.push_str("\n}\n");
    std::fs::write(&out, &json).expect("write benchmark file");
    println!("{json}");
    eprintln!("wrote {out}");

    if let Some(min) = floor {
        assert!(
            ttis_per_sec >= min,
            "TTI throughput regressed: {ttis_per_sec:.0} TTIs/sec < floor {min:.0}"
        );
    }
}
