//! Benchmark harness for the FLARE reproduction.
//!
//! Two entry points:
//!
//! * the **`repro` binary** (`cargo run --release -p flare-bench --bin
//!   repro -- <experiment>`) regenerates every table and figure of the
//!   paper's evaluation and prints the rows/series the paper reports;
//! * the **Criterion benches** (`cargo bench -p flare-bench`) measure the
//!   performance-sensitive components: the per-BAI solvers at the paper's
//!   32/64/128-client scale (Figure 9's workload), the per-TTI MAC
//!   schedulers, the throughput estimators, and a full-stack simulation
//!   slice per scheme.
//!
//! This library only hosts shared helpers for those targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flare_scenarios::experiments::ExperimentParams;
use flare_sim::TimeDelta;

/// Parses the common sizing flags used by `repro` and the benches:
/// `--quick`, `--runs N`, `--secs S`, `--seed K`, `--jobs N`.
///
/// Unrecognized arguments are returned for the caller to interpret.
pub fn parse_params(args: &[String]) -> (ExperimentParams, Vec<String>) {
    parse_params_from(ExperimentParams::paper(), args)
}

/// [`parse_params`] starting from `defaults` instead of the paper-scale
/// sizes. The bench binaries pass their own run count and duration here;
/// `--quick`, `--runs` and `--secs` override them exactly as they override
/// the paper defaults.
pub fn parse_params_from(
    defaults: ExperimentParams,
    args: &[String],
) -> (ExperimentParams, Vec<String>) {
    let mut params = defaults;
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
    fn bench_defaults_apply_only_when_flags_are_absent() {
        let defaults = ExperimentParams {
            runs: 4,
            duration: TimeDelta::from_secs(30),
            ..ExperimentParams::paper()
        };
        let (p, _) = parse_params_from(defaults, &args(&["--runs", "20", "--secs", "60"]));
        assert_eq!(p.runs, 20, "an explicit --runs 20 is honoured");
        assert_eq!(p.duration, TimeDelta::from_secs(60));
        let (p, _) = parse_params_from(defaults, &args(&["--secs", "60"]));
        assert_eq!(p.runs, 4, "absent --runs keeps the bench default");
        assert_eq!(p.duration, TimeDelta::from_secs(60), "--secs is kept");
        let (p, rest) = parse_params_from(defaults, &args(&["out.json"]));
        assert_eq!((p.runs, p.duration), (4, TimeDelta::from_secs(30)));
        assert_eq!(rest, vec!["out.json".to_owned()]);
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
