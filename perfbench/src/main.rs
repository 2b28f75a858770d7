//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fig10_mixed|fig7_faults|fig9_decide|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, checks every timed
//! operation's outputs, and measures for `--seconds`. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` a separate traced run
//! prints the per-layer metrics and a span table. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is non-zero when any operation failed. `all` runs the three
//! workloads serially in this one process and exits non-zero if any failed.

mod cell;
mod decide;
mod layers;
mod spans;
mod stats;

use std::process::ExitCode;

use cell::CellWorkload;
use stats::{Metric, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cell(CellWorkload),
    Decide,
}

const WORKLOADS: [Workload; 3] = [
    Workload::Cell(CellWorkload::Fig10Mixed),
    Workload::Cell(CellWorkload::Fig7Faults),
    Workload::Decide,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Cell(w) => w.name(),
            Workload::Decide => "fig9_decide",
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Workload::Cell(w) => w.describe(),
            Workload::Decide => {
                "OneApiServer::assign, 256 video clients + 16 data flows, feasible \
                 synthetic reports; flare-solver and flare-core do all the work"
            }
        }
    }

    /// Runs the workload; `report` collects the lines for standard error.
    fn run(self, args: &Args, report: &mut Vec<String>) -> Outcome {
        let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
        let mut outcome = match self {
            Workload::Cell(w) => cell::run(w, w.inputs(), seed, seconds, trace, report),
            Workload::Decide => decide::run(decide::SESSIONS, seed, seconds, trace, report),
        };
        if !args.trace {
            // A missing reading is a failed measurement, not a zero.
            let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
            outcome
                .metrics
                .insert(2, Metric::new("peak_rss_mb", "MB", rss));
        }
        outcome
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig10_mixed|fig7_faults|fig9_decide|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name => vec![*WORKLOADS
            .iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name}"))?],
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut failed = 0;
    let mut lines = Vec::new();
    for &w in &args.workloads {
        let mut report = Vec::new();
        report.push(format!(
            "== {} (seed {}, {} s, trace {}, host_cores {host_cores}): {}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            w.describe()
        ));
        let outcome = w.run(&args, &mut report);
        for m in &outcome.metrics {
            report.push(format!("{:<34}{:>18.6} {}", m.name, m.value, m.unit));
        }
        report.push(format!(
            "attempted {}, failed {}",
            outcome.attempted, outcome.failed
        ));
        eprintln!("{}", report.join("\n"));
        failed += outcome.failed;
        lines.push(outcome.to_json());
    }
    // With `all`, one result line per workload, in order.
    println!("{}", lines.join("\n"));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
