//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--runs N] [--secs S] [--seed K] [--jobs N]
//!       [--check-invariants] [--trace DIR] <experiment>...
//!
//! experiments:
//!   table1 table2        testbed scenario summaries
//!   fig4 fig5            testbed time series
//!   fig6 fig7            cell-scenario CDFs (static / mobile)
//!   fig8                 exact vs relaxed solver
//!   fig9                 solver computation-time scaling
//!   fig10                video/data coexistence
//!   fig11 fig12          alpha / delta sweeps
//!   ablation             dual-enforcement ablation
//!   faults               control-plane loss/outage robustness sweep
//!   all                  everything above
//! ```
//!
//! With no sizing flags the paper's scale is used (20 runs × 1200 s cell
//! simulations — several minutes in release). `--quick` shrinks everything
//! for a smoke pass.
//!
//! `--jobs N` fans independent runs across N worker threads (0 = all
//! cores) with bit-identical results; `--check-invariants` runs the inline
//! invariant battery on every simulation and aborts on the first violation.
//!
//! `--trace DIR` additionally re-runs one representative configuration of
//! each requested experiment with a structured trace recorder attached and
//! writes `DIR/<experiment>.jsonl` (inspect it with `inspect --trace`).

use flare_bench::parse_cli;
use flare_scenarios::experiments::{
    ablation_diversity, ablation_dual_enforcement, ablation_static_partition, fig10, fig11, fig12,
    fig4, fig5, fig6, fig7, fig8, fig9, legacy_coexistence, table1, table2, ExperimentParams,
};
use flare_scenarios::faults::faults;

fn run_one(name: &str, p: ExperimentParams) -> bool {
    match name {
        "table1" => println!("{}", table1(p).render()),
        "table2" => println!("{}", table2(p).render()),
        "fig4" => println!("{}", fig4(p).render(30.0)),
        "fig5" => println!("{}", fig5(p).render(30.0)),
        "fig6" => println!("{}", fig6(p).render()),
        "fig7" => println!("{}", fig7(p).render()),
        "fig8" => println!("{}", fig8(p).render()),
        "fig9" => {
            // Figure 9 measures per-solve wall time; iterations scale with
            // the requested run count.
            println!("{}", fig9(p.runs.max(2) * 25, p.seed).render());
        }
        "fig10" => println!("{}", fig10(p).render()),
        "fig11" => println!("{}", fig11(p).render()),
        "fig12" => println!("{}", fig12(p).render()),
        "ablation" => println!("{}", ablation_dual_enforcement(p).render()),
        "partition" => println!("{}", ablation_static_partition(p).render()),
        "diversity" => println!("{}", ablation_diversity(p).render()),
        "legacy" => println!("{}", legacy_coexistence(p).render()),
        "faults" => println!("{}", faults(p).render()),
        _ => return false,
    }
    true
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation",
    "partition",
    "diversity",
    "legacy",
    "faults",
];

/// Writes the representative trace of `name` to `dir/<name>.jsonl`.
fn export_trace(dir: &str, name: &str, params: ExperimentParams) {
    let Some(artifact) = flare_scenarios::tracing::representative_trace(name, &params) else {
        return;
    };
    std::fs::create_dir_all(dir).expect("create trace directory");
    let path = std::path::Path::new(dir).join(format!("{name}.jsonl"));
    std::fs::write(&path, &artifact.jsonl).expect("write trace file");
    eprintln!(
        "trace: {} ({} events, {} scheme) -> {}",
        name,
        artifact.events,
        artifact.scheme,
        path.display()
    );
}

/// Prints the usage text and exits with status 2.
fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--runs N] [--secs S] [--seed K] [--jobs N] \
         [--check-invariants] [--trace DIR] <experiment>...\n\
         experiments: {} all",
        ALL.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).unwrap_or_else(|err| {
        eprintln!("repro: {err}");
        usage()
    });
    let params = cli.params;
    flare_scenarios::set_default_check_invariants(cli.check_invariants);
    if cli.rest.is_empty() {
        usage();
    }
    for name in &cli.rest {
        if name == "all" {
            for exp in ALL {
                eprintln!("== running {exp} ==");
                run_one(exp, params);
                if let Some(dir) = &cli.trace_dir {
                    export_trace(dir, exp, params);
                }
            }
        } else if run_one(name, params) {
            if let Some(dir) = &cli.trace_dir {
                export_trace(dir, name, params);
            }
        } else {
            eprintln!("unknown experiment: {name}");
            std::process::exit(2);
        }
    }
}
