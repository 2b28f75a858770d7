//! Trace inspector: digest a recorded structured trace, or run one traced
//! FLARE cell scenario live and digest that.
//!
//! ```text
//! inspect [static|mobile] [secs] [--emit FILE]   run live, digest the trace
//! inspect --trace FILE                           digest a recorded JSONL trace
//! ```
//!
//! The digest shows per-category event counts, the solver's BAI-by-BAI
//! timeline (chosen `r`, search steps, objective), and — for live runs —
//! the end-of-run registry summary. Recorded traces come from
//! `repro --trace DIR` or [`flare_trace::TraceHandle::to_jsonl`].

use std::collections::BTreeMap;

use flare_bench::{parse_inspect, InspectCommand, INSPECT_USAGE};
use flare_scenarios::experiments::ExperimentParams;
use flare_scenarios::tracing::representative_trace;
use flare_sim::TimeDelta;
use flare_trace::{Category, TraceEvent, Value};

/// Prints per-category/event counts and the solver timeline.
fn digest(events: &[TraceEvent]) {
    if events.is_empty() {
        println!("trace is empty");
        return;
    }
    let first = events.first().expect("non-empty").time_ms;
    let last = events.last().expect("non-empty").time_ms;
    println!(
        "{} events spanning {:.1} s of simulated time",
        events.len(),
        (last.saturating_sub(first)) as f64 / 1000.0
    );

    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for ev in events {
        *counts.entry((ev.category.as_str(), &ev.name)).or_default() += 1;
    }
    println!("\nevent counts:");
    for ((cat, name), n) in &counts {
        println!("  {cat:>8}/{name:<16} {n:>8}");
    }

    let solves: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.category == Category::Solver && e.name == "solve")
        .collect();
    if !solves.is_empty() {
        println!("\nsolver timeline (one line per BAI):");
        for ev in solves {
            let field = |k: &str| {
                ev.field(k)
                    .map_or_else(|| "-".to_owned(), |v: &Value| v.to_string())
            };
            println!(
                "  t={:>7.1}s clients={} r={} steps={} mode={} objective={}",
                ev.time_ms as f64 / 1000.0,
                field("clients"),
                field("r"),
                field("steps"),
                field("mode"),
                field("objective"),
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mobile, secs, emit) = match parse_inspect(&args) {
        Ok(InspectCommand::Replay(path)) => {
            let events = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| flare_trace::parse_jsonl(&text).map_err(|e| e.to_string()))
                .unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                });
            println!("trace: {path}");
            digest(&events);
            return;
        }
        Ok(InspectCommand::Live { mobile, secs, emit }) => (mobile, secs, emit),
        Err(e) => {
            eprintln!("inspect: {e}\n{INSPECT_USAGE}");
            std::process::exit(2);
        }
    };

    // Live mode: one representative traced cell run.
    let mut params = ExperimentParams::quick();
    params.duration = TimeDelta::from_secs(secs);
    params.testbed_duration = TimeDelta::from_secs(secs);
    let experiment = if mobile { "fig7" } else { "fig6" };
    let artifact =
        representative_trace(experiment, &params).expect("fig6/fig7 are always traceable");

    println!(
        "live {} run ({} s, scheme {})",
        if mobile { "mobile" } else { "static" },
        secs,
        artifact.scheme
    );
    let events = flare_trace::parse_jsonl(&artifact.jsonl).expect("own trace must parse");
    digest(&events);
    println!("\nregistry:\n{}", artifact.summary);

    if let Some(path) = emit {
        std::fs::write(&path, &artifact.jsonl).expect("write trace file");
        eprintln!("wrote {} events to {path}", artifact.events);
    }
}
