//! Measures the parallel-execution harness and records the result.
//!
//! ```text
//! harness_bench [--runs N] [--secs S] [--seed K] [--jobs N] [OUT.json]
//! ```
//!
//! Runs the same batch of independent cell simulations twice — serially and
//! on `--jobs` worker threads (default 4) — verifies the per-run JSONL
//! traces are byte-identical, and writes the measured wall-clock times to
//! `OUT.json` (default `BENCH_harness.json`). Without `--runs`/`--secs` it
//! runs 8 cells of 120 s. The speedup is whatever the machine actually
//! delivers: on a single-core container it is ~1x, and the file records the
//! core count so readers can interpret the number.

use std::time::Instant;

use flare_bench::parse_params_from;
use flare_harness::{effective_jobs, run_indexed, serial_parallel_divergence};
use flare_scenarios::cell::static_run;
use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::SchemeKind;
use flare_trace::{TraceConfig, TraceHandle};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Paper-scale defaults are oversized for a harness benchmark.
    let defaults = ExperimentParams {
        runs: 8,
        duration: flare_sim::TimeDelta::from_secs(120),
        ..ExperimentParams::paper()
    };
    let (params, rest) = parse_params_from(defaults, &args);
    let jobs = if params.jobs <= 1 { 4 } else { params.jobs };
    let out = rest
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_harness.json".to_owned());

    let scheme = || SchemeKind::Flare(flare_core::FlareConfig::default());
    let run = |i: usize| static_run(scheme(), params.seed + i as u64, params.duration);
    // Trace-level determinism check: each job builds its own recorder and
    // simulation, so serial and parallel executions must produce the same
    // JSONL byte-for-byte.
    let traced = |i: usize| {
        let trace = TraceHandle::new(TraceConfig::info());
        let mut config = flare_scenarios::cell::cell_config(
            scheme(),
            flare_scenarios::ChannelKind::Static { itbs: 10 },
            4,
            0,
            params.seed + i as u64,
            flare_sim::TimeDelta::from_secs(60),
        );
        config.trace = trace.clone();
        let _ = flare_scenarios::CellSim::new(config).run();
        trace.to_jsonl()
    };
    let divergence = serial_parallel_divergence(params.runs, jobs, traced);
    assert!(
        divergence.is_none(),
        "serial/parallel trace divergence at run {divergence:?}"
    );

    let started = Instant::now();
    let serial = run_indexed(params.runs, 1, run);
    let serial_ms = started.elapsed().as_secs_f64() * 1000.0;
    let started = Instant::now();
    let parallel = run_indexed(params.runs, jobs, run);
    let parallel_ms = started.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        for (va, vb) in a.videos.iter().zip(&b.videos) {
            assert_eq!(
                va.rate_series.points(),
                vb.rate_series.points(),
                "parallel run diverged from serial"
            );
        }
    }

    let cores = effective_jobs(0);
    let speedup = serial_ms / parallel_ms.max(1e-9);
    let json = format!(
        "{{\n  \"benchmark\": \"flare-harness parallel sweep\",\n  \
         \"cores\": {cores},\n  \"jobs\": {jobs},\n  \"runs\": {},\n  \
         \"run_secs\": {},\n  \"seed\": {},\n  \
         \"serial_ms\": {serial_ms:.1},\n  \"parallel_ms\": {parallel_ms:.1},\n  \
         \"speedup\": {speedup:.2},\n  \"traces_identical\": true\n}}\n",
        params.runs,
        params.duration.as_millis() / 1000,
        params.seed,
    );
    std::fs::write(&out, &json).expect("write benchmark file");
    println!("{json}");
    eprintln!("wrote {out}");
}
