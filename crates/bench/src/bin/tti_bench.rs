//! Measures end-to-end TTI throughput on the fig6 workload and records it.
//!
//! ```text
//! tti_bench [--runs N] [--secs S] [--seed K]
//!           [--baseline TTIS_PER_SEC] [--floor TTIS_PER_SEC] [OUT.json]
//! ```
//!
//! The workload is the paper's fig6 static-cell scenario (8 stationary
//! video UEs under FLARE), run serially: every simulated millisecond is one
//! `step_tti` plus the full player/controller loop around it, so the number
//! is an honest end-to-end TTI rate, not a scheduler microbenchmark.
//! Without `--runs`/`--secs` it measures 4 runs of 30 s.
//!
//! * `--baseline X` embeds a previously measured TTIs/sec (e.g. from running
//!   this binary at the pre-optimization commit) so the output records both
//!   sides of a before/after comparison.
//! * `--floor X` exits non-zero when the measured rate falls below `X` —
//!   the CI perf-smoke gate.
//!
//! Before measuring, the fig6 run is executed twice at a short duration and
//! the per-client rate series are compared, so the file never reports a
//! speed for a simulation that lost determinism.

use std::time::Instant;

use flare_bench::parse_params_from;
use flare_core::FlareConfig;
use flare_scenarios::cell::static_run;
use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::SchemeKind;
use flare_sim::TimeDelta;

fn scheme() -> SchemeKind {
    SchemeKind::Flare(FlareConfig::default())
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
    let a = static_run(scheme(), params.seed, check);
    let b = static_run(scheme(), params.seed, check);
    for (va, vb) in a.videos.iter().zip(&b.videos) {
        assert_eq!(
            va.rate_series.points(),
            vb.rate_series.points(),
            "fig6 run is not deterministic; refusing to benchmark"
        );
    }

    // Warm-up run (page in code, size caches), then the measured runs.
    let _ = static_run(scheme(), params.seed, params.duration);
    let started = Instant::now();
    for i in 0..params.runs {
        let r = static_run(scheme(), params.seed + i as u64, params.duration);
        assert!(!r.videos.is_empty(), "fig6 run must simulate its clients");
    }
    let wall = started.elapsed();
    let ttis = params.runs as u64 * params.duration.as_millis();
    let ttis_per_sec = ttis as f64 / wall.as_secs_f64().max(1e-9);

    let mut json = format!(
        "{{\n  \"benchmark\": \"fig6 end-to-end TTI throughput\",\n  \
         \"workload\": \"static cell, FLARE, 8 video UEs, serial\",\n  \
         \"runs\": {},\n  \"run_secs\": {},\n  \"seed\": {},\n  \
         \"ttis\": {ttis},\n  \"wall_ms\": {:.1},\n  \
         \"ttis_per_sec\": {ttis_per_sec:.0},\n  \"deterministic\": true",
        params.runs,
        params.duration.as_millis() / 1000,
        params.seed,
        wall.as_secs_f64() * 1000.0,
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
