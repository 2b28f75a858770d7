//! Command-line helpers for the FLARE reproduction's binaries.
//!
//! * the **`repro` binary** (`cargo run --release -p flare-bench --bin
//!   repro -- <experiment>`) regenerates every table and figure of the
//!   paper's evaluation and prints the rows/series the paper reports;
//! * the **`inspect` binary** digests a structured trace, recorded or live.
//!
//! The repository benchmark is the separate `perfbench/` package.
//!
//! This library only hosts `repro`'s command-line parsing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flare_scenarios::experiments::ExperimentParams;
use flare_sim::TimeDelta;

/// Parses the sizing flags: `--quick`, `--runs N`, `--secs S`, `--seed K`,
/// `--jobs N`, starting from the paper-scale sizes.
///
/// Unrecognized arguments are returned for the caller to interpret.
pub fn parse_params(args: &[String]) -> (ExperimentParams, Vec<String>) {
    let mut params = ExperimentParams::paper();
    let mut jobs = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                params = ExperimentParams::quick();
            }
            "--jobs" => {
                let v = it.next().expect("--jobs needs a value");
                jobs = Some(
                    v.parse()
                        .expect("--jobs must be an integer (0 = all cores)"),
                );
            }
            "--runs" => {
                let v = it.next().expect("--runs needs a value");
                params.runs = v.parse().expect("--runs must be an integer");
            }
            "--secs" => {
                let v = it.next().expect("--secs needs a value");
                let secs: u64 = v.parse().expect("--secs must be an integer");
                params.duration = TimeDelta::from_secs(secs);
                params.testbed_duration = TimeDelta::from_secs(secs);
            }
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                params.seed = v.parse().expect("--seed must be an integer");
            }
            other => rest.push(other.to_owned()),
        }
    }
    // `--quick` resets params, so the jobs override applies last.
    if let Some(jobs) = jobs {
        params.jobs = jobs;
    }
    (params, rest)
}

/// Fully parsed `repro` command line: sizing parameters, the optional
/// trace-export directory, and the experiment names.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Experiment sizing (runs, durations, seed).
    pub params: ExperimentParams,
    /// Directory for per-experiment JSONL traces (`--trace DIR`), if any.
    pub trace_dir: Option<String>,
    /// Run the inline invariant battery on every simulation
    /// (`--check-invariants`): violations are recorded as trace events and
    /// abort the run.
    pub check_invariants: bool,
    /// Remaining positional arguments (experiment names).
    pub rest: Vec<String>,
}

/// Parses the full `repro` command line: everything [`parse_params`]
/// accepts plus `--trace DIR` and `--check-invariants`.
pub fn parse_cli(args: &[String]) -> CliOptions {
    let (params, unparsed) = parse_params(args);
    let mut trace_dir = None;
    let mut check_invariants = false;
    let mut rest = Vec::new();
    let mut it = unparsed.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            trace_dir = Some(it.next().expect("--trace needs a directory"));
        } else if arg == "--check-invariants" {
            check_invariants = true;
        } else {
            rest.push(arg);
        }
    }
    CliOptions {
        params,
        trace_dir,
        check_invariants,
        rest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let (p, rest) = parse_params(&args(&["table1"]));
        assert_eq!(p.runs, 20);
        assert_eq!(rest, vec!["table1".to_owned()]);
    }

    #[test]
    fn quick_flag_shrinks() {
        let (p, _) = parse_params(&args(&["--quick", "fig6"]));
        assert_eq!(p.runs, 2);
    }

    #[test]
    fn explicit_overrides() {
        let (p, rest) = parse_params(&args(&[
            "--runs", "5", "--secs", "300", "--seed", "9", "all",
        ]));
        assert_eq!(p.runs, 5);
        assert_eq!(p.duration, TimeDelta::from_secs(300));
        assert_eq!(p.testbed_duration, TimeDelta::from_secs(300));
        assert_eq!(p.seed, 9);
        assert_eq!(rest, vec!["all".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "--runs needs a value")]
    fn missing_value_panics() {
        let _ = parse_params(&args(&["--runs"]));
    }

    #[test]
    fn jobs_flag_overrides_quick() {
        let (p, rest) = parse_params(&args(&["--jobs", "4", "--quick", "fig6"]));
        assert_eq!(p.jobs, 4);
        assert_eq!(p.runs, 2, "--quick still applies");
        assert_eq!(rest, vec!["fig6".to_owned()]);
        let (p, _) = parse_params(&args(&["table1"]));
        assert_eq!(p.jobs, 1, "serial by default");
    }

    #[test]
    fn check_invariants_flag_is_extracted() {
        let cli = parse_cli(&args(&["--check-invariants", "--quick", "fig6"]));
        assert!(cli.check_invariants);
        assert_eq!(cli.rest, vec!["fig6".to_owned()]);
        assert!(!parse_cli(&args(&["fig6"])).check_invariants);
    }

    #[test]
    fn trace_flag_is_extracted() {
        let cli = parse_cli(&args(&["--quick", "--trace", "out", "fig6", "fig7"]));
        assert_eq!(cli.params.runs, 2);
        assert_eq!(cli.trace_dir.as_deref(), Some("out"));
        assert_eq!(cli.rest, vec!["fig6".to_owned(), "fig7".to_owned()]);
    }

    #[test]
    fn trace_flag_defaults_off() {
        let cli = parse_cli(&args(&["table1"]));
        assert!(cli.trace_dir.is_none());
        assert_eq!(cli.rest, vec!["table1".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "--trace needs a directory")]
    fn trace_without_dir_panics() {
        let _ = parse_cli(&args(&["fig6", "--trace"]));
    }
}
