//! Command-line helpers for the FLARE reproduction's binaries.
//!
//! * the **`repro` binary** (`cargo run --release -p flare-bench --bin
//!   repro -- <experiment>`) regenerates every table and figure of the
//!   paper's evaluation and prints the rows/series the paper reports;
//! * the **`inspect` binary** digests a structured trace, recorded or live.
//!
//! The repository benchmark is the separate `perfbench/` package.
//!
//! This library only hosts the binaries' command-line parsing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flare_scenarios::experiments::ExperimentParams;
use flare_sim::TimeDelta;
use std::str::FromStr;

/// Parses the sizing flags: `--quick`, `--runs N`, `--secs S`, `--seed K`,
/// `--jobs N`, starting from the paper-scale sizes.
///
/// Unrecognized arguments are returned for the caller to interpret. A
/// sizing flag without a value, or with a value that is not a
/// non-negative integer, is an error, and so is a zero `--runs` or
/// `--secs`.
pub fn parse_params(args: &[String]) -> Result<(ExperimentParams, Vec<String>), String> {
    let mut params = ExperimentParams::paper();
    let mut jobs = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => params = ExperimentParams::quick(),
            "--jobs" => jobs = Some(flag_value(arg, it.next())?),
            "--runs" => params.runs = nonzero(arg, flag_value(arg, it.next())?)?,
            "--secs" => {
                let secs = nonzero(arg, flag_value(arg, it.next())?)?;
                params.duration = TimeDelta::from_secs(secs);
                params.testbed_duration = TimeDelta::from_secs(secs);
            }
            "--seed" => params.seed = flag_value(arg, it.next())?,
            other => rest.push(other.to_owned()),
        }
    }
    // `--quick` resets params, so the jobs override applies last.
    if let Some(jobs) = jobs {
        params.jobs = jobs;
    }
    Ok((params, rest))
}

/// Parses the integer value that follows `flag`.
fn flag_value<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} must be a non-negative integer, got {v}"))
}

/// Rejects a zero `--runs` or `--secs`: no experiment can summarise zero
/// runs or zero-length sessions.
fn nonzero<T: Default + PartialEq>(flag: &str, value: T) -> Result<T, String> {
    if value == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(value)
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
pub fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
    let (params, unparsed) = parse_params(args)?;
    let mut trace_dir = None;
    let mut check_invariants = false;
    let mut rest = Vec::new();
    let mut it = unparsed.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            let dir = it.next().filter(|dir| !dir.starts_with("--"));
            trace_dir = Some(dir.ok_or("--trace needs a directory")?);
        } else if arg == "--check-invariants" {
            check_invariants = true;
        } else {
            rest.push(arg);
        }
    }
    Ok(CliOptions {
        params,
        trace_dir,
        check_invariants,
        rest,
    })
}

/// What one `inspect` command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InspectCommand {
    /// `--trace FILE`: digest a recorded JSONL trace.
    Replay(String),
    /// Run one representative traced cell live and digest its trace.
    Live {
        /// Fig. 7's mobile cell rather than fig. 6's static one.
        mobile: bool,
        /// Simulated seconds.
        secs: u64,
        /// `--emit FILE`: also write the live trace to this file.
        emit: Option<String>,
    },
}

/// `inspect`'s usage text.
pub const INSPECT_USAGE: &str = "usage: inspect [static|mobile] [secs] [--emit FILE]\n       \
                                 inspect --trace FILE";

/// Parses the `inspect` command line.
///
/// `--trace FILE` selects replay. Otherwise `--emit FILE` may appear
/// anywhere, and the positional arguments are an optional scenario
/// (`static`, the default, or `mobile`) followed by an optional duration in
/// whole seconds (default 300); a lone number is the duration. Unknown
/// options, scenarios and bad durations are errors.
pub fn parse_inspect(args: &[String]) -> Result<InspectCommand, String> {
    let mut emit = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                let path = it.next().ok_or("--trace needs a file")?;
                return Ok(InspectCommand::Replay(path.clone()));
            }
            "--emit" => emit = Some(it.next().ok_or("--emit needs a file")?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            other => positional.push(other),
        }
    }
    let (scenario, secs) = match positional[..] {
        [] => (None, None),
        [one] if one.starts_with(|c: char| c.is_ascii_digit()) => (None, Some(one)),
        [scenario] => (Some(scenario), None),
        [scenario, secs] => (Some(scenario), Some(secs)),
        [_, _, extra, ..] => return Err(format!("unexpected argument: {extra}")),
    };
    let mobile = match scenario {
        None | Some("static") => false,
        Some("mobile") => true,
        Some(other) => return Err(format!("unknown scenario: {other}")),
    };
    let secs = match secs {
        None => 300,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad duration: {s} (whole seconds > 0)"))?,
    };
    Ok(InspectCommand::Live { mobile, secs, emit })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let (p, rest) = parse_params(&args(&["table1"])).unwrap();
        assert_eq!(p.runs, 20);
        assert_eq!(rest, vec!["table1".to_owned()]);
    }

    #[test]
    fn quick_flag_shrinks() {
        let (p, _) = parse_params(&args(&["--quick", "fig6"])).unwrap();
        assert_eq!(p.runs, 2);
    }

    #[test]
    fn explicit_overrides() {
        let (p, rest) = parse_params(&args(&[
            "--runs", "5", "--secs", "300", "--seed", "9", "all",
        ]))
        .unwrap();
        assert_eq!(p.runs, 5);
        assert_eq!(p.duration, TimeDelta::from_secs(300));
        assert_eq!(p.testbed_duration, TimeDelta::from_secs(300));
        assert_eq!(p.seed, 9);
        assert_eq!(rest, vec!["all".to_owned()]);
    }

    /// Asserts `parse_cli` rejects `bad` with an error starting `why`.
    fn assert_rejected(bad: &[&str], why: &str) {
        let err = parse_cli(&args(bad)).expect_err(why);
        assert!(err.starts_with(why), "{bad:?}: {err}");
    }

    fn assert_not_an_integer(flag: &str, value: &str) {
        let why = format!("{flag} must be a non-negative integer, got {value}");
        assert_rejected(&[flag, value, "fig6"], &why);
    }

    #[test]
    fn sizing_flag_without_value_is_an_error() {
        for flag in ["--runs", "--secs", "--seed", "--jobs"] {
            assert_rejected(&["--quick", flag], &format!("{flag} needs a value"));
        }
    }

    #[test]
    fn non_integer_runs_is_an_error() {
        assert_not_an_integer("--runs", "two");
    }

    #[test]
    fn non_integer_secs_is_an_error() {
        assert_not_an_integer("--secs", "1.5");
    }

    #[test]
    fn non_integer_seed_is_an_error() {
        assert_not_an_integer("--seed", "-1");
    }

    #[test]
    fn non_integer_jobs_is_an_error() {
        assert_not_an_integer("--jobs", "all");
    }

    #[test]
    fn zero_runs_or_secs_is_an_error() {
        assert_rejected(&["--runs", "0", "fig6"], "--runs must be at least 1");
        assert_rejected(&["--secs", "0", "fig6"], "--secs must be at least 1");
        let (p, _) = parse_params(&args(&["--seed", "0", "--jobs", "0"])).unwrap();
        assert_eq!((p.seed, p.jobs), (0, 0), "zero seed and jobs stay valid");
    }

    #[test]
    fn jobs_flag_overrides_quick() {
        let (p, rest) = parse_params(&args(&["--jobs", "4", "--quick", "fig6"])).unwrap();
        assert_eq!(p.jobs, 4);
        assert_eq!(p.runs, 2, "--quick still applies");
        assert_eq!(rest, vec!["fig6".to_owned()]);
        let (p, _) = parse_params(&args(&["table1"])).unwrap();
        assert_eq!(p.jobs, 1, "serial by default");
    }

    #[test]
    fn check_invariants_flag_is_extracted() {
        let cli = parse_cli(&args(&["--check-invariants", "--quick", "fig6"])).unwrap();
        assert!(cli.check_invariants);
        assert_eq!(cli.rest, vec!["fig6".to_owned()]);
        assert!(!parse_cli(&args(&["fig6"])).unwrap().check_invariants);
    }

    #[test]
    fn trace_flag_is_extracted() {
        let cli = parse_cli(&args(&["--quick", "--trace", "out", "fig6", "fig7"])).unwrap();
        assert_eq!(cli.params.runs, 2);
        assert_eq!(cli.trace_dir.as_deref(), Some("out"));
        assert_eq!(cli.rest, vec!["fig6".to_owned(), "fig7".to_owned()]);
    }

    #[test]
    fn trace_flag_defaults_off() {
        let cli = parse_cli(&args(&["table1"])).unwrap();
        assert!(cli.trace_dir.is_none());
        assert_eq!(cli.rest, vec!["table1".to_owned()]);
    }

    #[test]
    fn trace_without_dir_is_an_error() {
        assert_rejected(&["fig6", "--trace"], "--trace needs a directory");
        assert_rejected(
            &["--trace", "--check-invariants", "fig6"],
            "--trace needs a directory",
        );
    }

    fn live(mobile: bool, secs: u64, emit: Option<&str>) -> InspectCommand {
        InspectCommand::Live {
            mobile,
            secs,
            emit: emit.map(str::to_owned),
        }
    }

    #[test]
    fn inspect_reads_scenario_then_duration_around_emit() {
        let want = live(true, 30, Some("out.jsonl"));
        for order in [
            ["--emit", "out.jsonl", "mobile", "30"],
            ["mobile", "--emit", "out.jsonl", "30"],
            ["mobile", "30", "--emit", "out.jsonl"],
        ] {
            assert_eq!(parse_inspect(&args(&order)), Ok(want.clone()), "{order:?}");
        }
        assert_eq!(parse_inspect(&args(&["30"])), Ok(live(false, 30, None)));
        assert_eq!(
            parse_inspect(&args(&["static", "45"])),
            Ok(live(false, 45, None))
        );
        assert_eq!(parse_inspect(&args(&["mobile"])), Ok(live(true, 300, None)));
        assert_eq!(parse_inspect(&args(&[])), Ok(live(false, 300, None)));
        assert_eq!(
            parse_inspect(&args(&["--trace", "t.jsonl"])),
            Ok(InspectCommand::Replay("t.jsonl".to_owned()))
        );
    }

    #[test]
    fn inspect_rejects_bad_arguments() {
        for (bad, why) in [
            (&["highway"][..], "unknown scenario: highway"),
            (&["highway", "30"], "unknown scenario: highway"),
            (&["mobile", "soon"], "bad duration: soon"),
            (&["30s"], "bad duration: 30s"),
            (&["0"], "bad duration: 0"),
            (&["static", "30", "9"], "unexpected argument: 9"),
            (&["--emit"], "--emit needs a file"),
            (&["--trace"], "--trace needs a file"),
            (&["--secs", "30"], "unknown option: --secs"),
        ] {
            let err = parse_inspect(&args(bad)).expect_err(why);
            assert!(err.starts_with(why), "{bad:?}: {err}");
        }
    }
}
