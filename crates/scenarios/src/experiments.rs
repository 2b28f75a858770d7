//! One reproduction entry point per paper table and figure.
//!
//! Each function returns a typed result with a `render()` method producing
//! the rows/series the paper reports. [`ExperimentParams::paper`] uses the
//! paper's run counts and durations; [`ExperimentParams::quick`] shrinks
//! them for smoke tests and CI.

use flare_core::SolveMode;
use flare_metrics::{Cdf, Summary, TimeSeries};
use flare_sim::TimeDelta;

use crate::cell::{
    mean_jain, mixed_run, mobile_run, pooled_changes, pooled_data_throughput, pooled_rates,
    pooled_video_throughput, repeat, static_run,
};
use crate::config::SchemeKind;
use crate::runner::RunResult;
use crate::scaling::{as_millis, measure_solve_times};
use crate::sweeps::{alpha_sweep, delta_sweep, solver_comparison, AlphaPoint, DeltaPoint};
use crate::testbed;

/// Sizing knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Independent runs per scheme/point.
    pub runs: usize,
    /// Simulated duration of cell-simulation runs.
    pub duration: TimeDelta,
    /// Simulated duration of testbed runs.
    pub testbed_duration: TimeDelta,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for independent runs (`0` = all cores, `1` = serial).
    /// Parallel execution is bit-identical to serial: every run owns its
    /// seeded RNG streams and trace recorder (see `flare_harness`).
    pub jobs: usize,
}

impl ExperimentParams {
    /// The paper's sizes: 20 runs × 1200 s (cell), 600 s (testbed).
    pub fn paper() -> Self {
        ExperimentParams {
            runs: 20,
            duration: TimeDelta::from_secs(1200),
            testbed_duration: TimeDelta::from_secs(600),
            seed: 1,
            jobs: 1,
        }
    }

    /// Shrunk sizes for smoke tests.
    pub fn quick() -> Self {
        ExperimentParams {
            runs: 2,
            duration: TimeDelta::from_secs(200),
            testbed_duration: TimeDelta::from_secs(200),
            seed: 1,
            jobs: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Tables I and II
// ---------------------------------------------------------------------------

/// One scheme's row in Table I/II.
#[derive(Debug, Clone)]
pub struct SchemeSummaryRow {
    /// Scheme name.
    pub scheme: String,
    /// Average video rate (kbps).
    pub average_rate_kbps: f64,
    /// Average buffer-underflow time (seconds).
    pub underflow_secs: f64,
    /// Average number of bitrate changes.
    pub bitrate_changes: f64,
    /// Jain's fairness index of average video rates.
    pub jain: f64,
    /// Average throughput of the data flow (kbps).
    pub data_throughput_kbps: f64,
}

impl SchemeSummaryRow {
    fn from_runs(scheme: &str, runs: &[RunResult]) -> Self {
        let n = runs.len() as f64;
        SchemeSummaryRow {
            scheme: scheme.to_owned(),
            average_rate_kbps: runs
                .iter()
                .map(RunResult::average_video_rate_kbps)
                .sum::<f64>()
                / n,
            underflow_secs: runs
                .iter()
                .map(RunResult::average_underflow_secs)
                .sum::<f64>()
                / n,
            bitrate_changes: runs
                .iter()
                .map(RunResult::average_bitrate_changes)
                .sum::<f64>()
                / n,
            jain: runs.iter().map(RunResult::jain_of_video_rates).sum::<f64>() / n,
            data_throughput_kbps: runs
                .iter()
                .map(RunResult::average_data_throughput_kbps)
                .sum::<f64>()
                / n,
        }
    }
}

/// A Table I/II-style result.
#[derive(Debug, Clone)]
pub struct SchemeSummaryTable {
    /// Table title.
    pub title: String,
    /// One row per scheme, paper order.
    pub rows: Vec<SchemeSummaryRow>,
}

impl SchemeSummaryTable {
    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!(
            "{:<34}{:>10}{:>10}{:>10}\n",
            "metric",
            self.rows.first().map(|r| r.scheme.as_str()).unwrap_or(""),
            self.rows.get(1).map(|r| r.scheme.as_str()).unwrap_or(""),
            self.rows.get(2).map(|r| r.scheme.as_str()).unwrap_or(""),
        ));
        let metric = |label: &str, f: &dyn Fn(&SchemeSummaryRow) -> String| {
            let mut line = format!("{label:<34}");
            for row in &self.rows {
                line.push_str(&format!("{:>10}", f(row)));
            }
            line.push('\n');
            line
        };
        out.push_str(&metric("Average video rate (Kbps)", &|r| {
            format!("{:.0}", r.average_rate_kbps)
        }));
        out.push_str(&metric("Avg. buffer underflow time (sec)", &|r| {
            format!("{:.1}", r.underflow_secs)
        }));
        out.push_str(&metric("Average number of bitrate changes", &|r| {
            format!("{:.1}", r.bitrate_changes)
        }));
        out.push_str(&metric("Jain's fairness index", &|r| {
            format!("{:.3}", r.jain)
        }));
        out.push_str(&metric("Avg. data flow throughput (Kbps)", &|r| {
            format!("{:.0}", r.data_throughput_kbps)
        }));
        out
    }
}

/// Table I: the static testbed scenario summary.
pub fn table1(p: ExperimentParams) -> SchemeSummaryTable {
    let rows = testbed::schemes()
        .into_iter()
        .map(|scheme| {
            let name = scheme.name().to_owned();
            let runs: Vec<RunResult> = flare_harness::run_indexed(p.runs, p.jobs, |i| {
                crate::runner::CellSim::new(testbed::static_config(
                    scheme.clone(),
                    p.seed + i as u64,
                    p.testbed_duration,
                ))
                .run()
            });
            SchemeSummaryRow::from_runs(&name, &runs)
        })
        .collect();
    SchemeSummaryTable {
        title: "Table I: static testbed scenario".to_owned(),
        rows,
    }
}

/// Table II: the dynamic testbed scenario summary.
pub fn table2(p: ExperimentParams) -> SchemeSummaryTable {
    let rows = testbed::schemes()
        .into_iter()
        .map(|scheme| {
            let name = scheme.name().to_owned();
            let runs: Vec<RunResult> = flare_harness::run_indexed(p.runs, p.jobs, |i| {
                crate::runner::CellSim::new(testbed::dynamic_config(
                    scheme.clone(),
                    p.seed + i as u64,
                    p.testbed_duration,
                ))
                .run()
            });
            SchemeSummaryRow::from_runs(&name, &runs)
        })
        .collect();
    SchemeSummaryTable {
        title: "Table II: dynamic testbed scenario".to_owned(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: testbed time series
// ---------------------------------------------------------------------------

/// One scheme's panel in Figure 4/5.
#[derive(Debug, Clone)]
pub struct TimeSeriesPanel {
    /// Scheme name.
    pub scheme: String,
    /// Selected video rate per video UE.
    pub video_rates: Vec<TimeSeries>,
    /// Buffered media per video UE.
    pub buffers: Vec<TimeSeries>,
    /// Data flow throughput.
    pub data_throughput: Vec<TimeSeries>,
}

/// A Figure 4/5-style result.
#[derive(Debug, Clone)]
pub struct TimeSeriesFigure {
    /// Figure title.
    pub title: String,
    /// One panel per scheme.
    pub panels: Vec<TimeSeriesPanel>,
}

impl TimeSeriesFigure {
    /// Renders each panel, sampling the series every `step_secs`.
    pub fn render(&self, step_secs: f64) -> String {
        let mut out = format!("{}\n", self.title);
        for panel in &self.panels {
            out.push_str(&format!("-- {} --\n", panel.scheme));
            out.push_str("t(s)      video rates (kbps)          buffers (s)      data (kbps)\n");
            let end = panel
                .buffers
                .first()
                .and_then(|b| b.points().last().map(|p| p.0))
                .unwrap_or(0.0);
            let mut t = step_secs;
            while t <= end + 1e-9 {
                let rates: Vec<String> = panel
                    .video_rates
                    .iter()
                    .map(|s| format!("{:>5.0}", s.value_at(t).unwrap_or(0.0)))
                    .collect();
                let bufs: Vec<String> = panel
                    .buffers
                    .iter()
                    .map(|s| format!("{:>5.1}", s.value_at(t).unwrap_or(0.0)))
                    .collect();
                let data: Vec<String> = panel
                    .data_throughput
                    .iter()
                    .map(|s| format!("{:>6.0}", s.value_at(t).unwrap_or(0.0)))
                    .collect();
                out.push_str(&format!(
                    "{:>5.0}  {}   {}   {}\n",
                    t,
                    rates.join(" "),
                    bufs.join(" "),
                    data.join(" ")
                ));
                t += step_secs;
            }
        }
        out
    }
}

fn timeseries_figure(title: &str, dynamic: bool, p: ExperimentParams) -> TimeSeriesFigure {
    let panels = testbed::schemes()
        .into_iter()
        .map(|scheme| {
            let name = scheme.name().to_owned();
            let cfg = if dynamic {
                testbed::dynamic_config(scheme, p.seed, p.testbed_duration)
            } else {
                testbed::static_config(scheme, p.seed, p.testbed_duration)
            };
            let r = crate::runner::CellSim::new(cfg).run();
            TimeSeriesPanel {
                scheme: name,
                video_rates: r.videos.iter().map(|v| v.rate_series.clone()).collect(),
                buffers: r.videos.iter().map(|v| v.buffer_series.clone()).collect(),
                data_throughput: r.data.iter().map(|d| d.throughput_series.clone()).collect(),
            }
        })
        .collect();
    TimeSeriesFigure {
        title: title.to_owned(),
        panels,
    }
}

/// Figure 4: static testbed time series (rates, buffers, data throughput).
pub fn fig4(p: ExperimentParams) -> TimeSeriesFigure {
    timeseries_figure("Figure 4: static testbed time series", false, p)
}

/// Figure 5: dynamic testbed time series.
pub fn fig5(p: ExperimentParams) -> TimeSeriesFigure {
    timeseries_figure("Figure 5: dynamic testbed time series", true, p)
}

// ---------------------------------------------------------------------------
// Figures 6, 7, 10: CDFs over pooled clients
// ---------------------------------------------------------------------------

/// One scheme's CDF pair in Figure 6/7.
#[derive(Debug, Clone)]
pub struct CdfPanel {
    /// Scheme name.
    pub scheme: String,
    /// CDF of per-client average bitrate (kbps).
    pub rate_cdf: Cdf,
    /// CDF of per-client bitrate changes.
    pub changes_cdf: Cdf,
    /// Mean Jain's fairness index across runs.
    pub jain: f64,
}

/// A Figure 6/7-style result.
#[derive(Debug, Clone)]
pub struct CdfFigure {
    /// Figure title.
    pub title: String,
    /// One panel per scheme.
    pub panels: Vec<CdfPanel>,
}

impl CdfFigure {
    /// Renders per-scheme percentiles of both CDFs.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!(
            "{:<10}{:>9}{:>9}{:>9}{:>9} |{:>8}{:>8}{:>8} |{:>7}\n",
            "scheme", "rate p10", "p50", "p90", "mean", "chg p10", "p50", "p90", "jain"
        ));
        for panel in &self.panels {
            out.push_str(&format!(
                "{:<10}{:>9.0}{:>9.0}{:>9.0}{:>9.0} |{:>8.1}{:>8.1}{:>8.1} |{:>7.3}\n",
                panel.scheme,
                panel.rate_cdf.percentile(10.0),
                panel.rate_cdf.percentile(50.0),
                panel.rate_cdf.percentile(90.0),
                panel.rate_cdf.mean(),
                panel.changes_cdf.percentile(10.0),
                panel.changes_cdf.percentile(50.0),
                panel.changes_cdf.percentile(90.0),
                panel.jain,
            ));
        }
        out
    }
}

fn cdf_figure(title: &str, mobile: bool, p: ExperimentParams) -> CdfFigure {
    let panels = crate::cell::schemes()
        .into_iter()
        .map(|scheme| {
            let name = scheme.name().to_owned();
            let runs = repeat(p.runs, p.seed, p.jobs, |s| {
                if mobile {
                    mobile_run(scheme.clone(), s, p.duration)
                } else {
                    static_run(scheme.clone(), s, p.duration)
                }
            });
            CdfPanel {
                scheme: name,
                rate_cdf: Cdf::from_samples(pooled_rates(&runs)),
                changes_cdf: Cdf::from_samples(pooled_changes(&runs)),
                jain: mean_jain(&runs),
            }
        })
        .collect();
    CdfFigure {
        title: title.to_owned(),
        panels,
    }
}

/// Figure 6: static cell scenario CDFs over pooled clients.
pub fn fig6(p: ExperimentParams) -> CdfFigure {
    cdf_figure("Figure 6: static cell scenario CDFs", false, p)
}

/// Figure 7: mobile cell scenario CDFs over pooled clients.
pub fn fig7(p: ExperimentParams) -> CdfFigure {
    cdf_figure("Figure 7: mobile cell scenario CDFs", true, p)
}

/// Figure 10's result: video/data coexistence under FLARE.
#[derive(Debug, Clone)]
pub struct CoexistenceFigure {
    /// CDF of per-video-flow throughput (kbps).
    pub video_throughput_cdf: Cdf,
    /// CDF of per-data-flow throughput (kbps).
    pub data_throughput_cdf: Cdf,
    /// CDF of per-client bitrate changes.
    pub changes_cdf: Cdf,
}

impl CoexistenceFigure {
    /// Renders throughput and stability percentiles.
    pub fn render(&self) -> String {
        format!(
            "Figure 10: FLARE with 8 video + 8 data flows\n\
             video tput kbps: p10 {:.0}  p50 {:.0}  p90 {:.0}  mean {:.0}\n\
             data tput kbps:  p10 {:.0}  p50 {:.0}  p90 {:.0}  mean {:.0}\n\
             bitrate changes: p10 {:.1}  p50 {:.1}  p90 {:.1}  mean {:.1}\n",
            self.video_throughput_cdf.percentile(10.0),
            self.video_throughput_cdf.percentile(50.0),
            self.video_throughput_cdf.percentile(90.0),
            self.video_throughput_cdf.mean(),
            self.data_throughput_cdf.percentile(10.0),
            self.data_throughput_cdf.percentile(50.0),
            self.data_throughput_cdf.percentile(90.0),
            self.data_throughput_cdf.mean(),
            self.changes_cdf.percentile(10.0),
            self.changes_cdf.percentile(50.0),
            self.changes_cdf.percentile(90.0),
            self.changes_cdf.mean(),
        )
    }
}

/// Figure 10: throughput balance with 8 video and 8 data clients.
pub fn fig10(p: ExperimentParams) -> CoexistenceFigure {
    let runs = repeat(p.runs, p.seed, p.jobs, |s| {
        mixed_run(
            SchemeKind::Flare(flare_core::FlareConfig::default()),
            8,
            8,
            s,
            p.duration,
        )
    });
    CoexistenceFigure {
        video_throughput_cdf: Cdf::from_samples(pooled_video_throughput(&runs)),
        data_throughput_cdf: Cdf::from_samples(pooled_data_throughput(&runs)),
        changes_cdf: Cdf::from_samples(pooled_changes(&runs)),
    }
}

// ---------------------------------------------------------------------------
// Figure 8: continuous relaxation fidelity
// ---------------------------------------------------------------------------

/// Figure 8's result: exact vs relaxed FLARE on both scenarios.
#[derive(Debug, Clone)]
pub struct RelaxationFigure {
    /// Per-scenario panels: (scenario, exact CDFs, relaxed CDFs).
    pub panels: Vec<RelaxationPanel>,
}

/// One scenario's exact/relaxed comparison.
#[derive(Debug, Clone)]
pub struct RelaxationPanel {
    /// "static" or "mobile".
    pub scenario: &'static str,
    /// Exact-solver per-client rate CDF (kbps).
    pub exact_rates: Cdf,
    /// Relaxed-solver per-client rate CDF (kbps).
    pub relaxed_rates: Cdf,
    /// Exact-solver change-count CDF.
    pub exact_changes: Cdf,
    /// Relaxed-solver change-count CDF.
    pub relaxed_changes: Cdf,
}

impl RelaxationFigure {
    /// Renders the mean rate/stability loss per scenario.
    pub fn render(&self) -> String {
        let mut out = "Figure 8: FLARE with continuous bitrate optimization\n".to_owned();
        for p in &self.panels {
            let loss = 100.0 * (1.0 - p.relaxed_rates.mean() / p.exact_rates.mean().max(1e-9));
            out.push_str(&format!(
                "{:<8} rate mean: exact {:.0} kbps, relaxed {:.0} kbps ({:+.1}% loss); \
                 changes mean: exact {:.1}, relaxed {:.1}\n",
                p.scenario,
                p.exact_rates.mean(),
                p.relaxed_rates.mean(),
                loss,
                p.exact_changes.mean(),
                p.relaxed_changes.mean(),
            ));
        }
        out
    }
}

/// Figure 8: exact vs relaxed solver, static and mobile scenarios.
pub fn fig8(p: ExperimentParams) -> RelaxationFigure {
    let panels = [false, true]
        .into_iter()
        .map(|mobile| {
            let cmp = solver_comparison(mobile, p.runs, p.duration, p.seed, p.jobs);
            RelaxationPanel {
                scenario: cmp.scenario,
                exact_rates: Cdf::from_samples(pooled_rates(&cmp.exact)),
                relaxed_rates: Cdf::from_samples(pooled_rates(&cmp.relaxed)),
                exact_changes: Cdf::from_samples(pooled_changes(&cmp.exact)),
                relaxed_changes: Cdf::from_samples(pooled_changes(&cmp.relaxed)),
            }
        })
        .collect();
    RelaxationFigure { panels }
}

// ---------------------------------------------------------------------------
// Figure 9: computation-time scaling
// ---------------------------------------------------------------------------

/// Figure 9's result: per-BAI solve-time CDFs by client count.
#[derive(Debug, Clone)]
pub struct ScalingFigure {
    /// `(client count, exact-solver CDF in ms, relaxed-solver CDF in ms)`.
    pub points: Vec<(usize, Cdf, Cdf)>,
}

impl ScalingFigure {
    /// Renders solve-time percentiles per client count.
    pub fn render(&self) -> String {
        let mut out = "Figure 9: bitrate-selection computation time (ms)\n".to_owned();
        out.push_str(&format!(
            "{:<10}{:>12}{:>12}{:>12}{:>14}\n",
            "clients", "exact p50", "exact p99", "relaxed p50", "relaxed p99"
        ));
        for (n, exact, relaxed) in &self.points {
            out.push_str(&format!(
                "{:<10}{:>12.3}{:>12.3}{:>12.3}{:>14.3}\n",
                n,
                exact.percentile(50.0),
                exact.percentile(99.0),
                relaxed.percentile(50.0),
                relaxed.percentile(99.0),
            ));
        }
        out
    }
}

/// Figure 9: solve-time CDFs for 32, 64, and 128 video clients, each solve
/// timed serially on the calling thread (see [`measure_solve_times`]).
pub fn fig9(iterations: usize, seed: u64) -> ScalingFigure {
    let points = [32usize, 64, 128]
        .into_iter()
        .map(|n| {
            let exact = as_millis(&measure_solve_times(n, iterations, SolveMode::Exact, seed));
            let relaxed = as_millis(&measure_solve_times(
                n,
                iterations,
                SolveMode::Relaxed,
                seed,
            ));
            (n, Cdf::from_samples(exact), Cdf::from_samples(relaxed))
        })
        .collect();
    ScalingFigure { points }
}

// ---------------------------------------------------------------------------
// Figures 11 and 12: parameter sweeps
// ---------------------------------------------------------------------------

/// Figure 11's result.
#[derive(Debug, Clone)]
pub struct AlphaFigure {
    /// One point per α.
    pub points: Vec<AlphaPoint>,
}

impl AlphaFigure {
    /// Renders mean ± std throughput for each flow class per α.
    pub fn render(&self) -> String {
        let mut out = "Figure 11: flow throughputs vs alpha\n".to_owned();
        out.push_str(&format!(
            "{:<8}{:>24}{:>24}\n",
            "alpha", "video tput (kbps)", "data tput (kbps)"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<8}{:>24}{:>24}\n",
                p.alpha,
                p.video_throughput.to_string(),
                p.data_throughput.to_string()
            ));
        }
        out
    }
}

/// Figure 11: α sweep (0.25 → 4), 8 video + 8 data UEs.
pub fn fig11(p: ExperimentParams) -> AlphaFigure {
    AlphaFigure {
        points: alpha_sweep(
            &[0.25, 0.5, 1.0, 2.0, 4.0],
            p.runs,
            8,
            8,
            p.duration,
            p.seed,
            p.jobs,
        ),
    }
}

/// Figure 12's result.
#[derive(Debug, Clone)]
pub struct DeltaFigure {
    /// One point per δ.
    pub points: Vec<DeltaPoint>,
}

impl DeltaFigure {
    /// Renders mean bitrate and change count per δ.
    pub fn render(&self) -> String {
        let mut out = "Figure 12: bitrate and stability vs delta\n".to_owned();
        out.push_str(&format!(
            "{:<8}{:>24}{:>24}\n",
            "delta", "avg bitrate (kbps)", "bitrate changes"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<8}{:>24}{:>24}\n",
                p.delta,
                p.average_rate.to_string(),
                p.bitrate_changes.to_string()
            ));
        }
        out
    }
}

/// Figure 12: δ sweep (1 → 12).
pub fn fig12(p: ExperimentParams) -> DeltaFigure {
    DeltaFigure {
        points: delta_sweep(&[1, 2, 4, 6, 8, 10, 12], p.runs, p.duration, p.seed, p.jobs),
    }
}

// ---------------------------------------------------------------------------
// Ablation: dual enforcement
// ---------------------------------------------------------------------------

/// The dual-enforcement ablation: full FLARE vs GBR-only FLARE.
#[derive(Debug, Clone)]
pub struct DualEnforcementAblation {
    /// Per-client change-count summary for full FLARE.
    pub full_changes: Summary,
    /// Per-client change-count summary when only GBR is enforced.
    pub gbr_only_changes: Summary,
    /// Per-client average-rate summary for full FLARE (kbps).
    pub full_rates: Summary,
    /// Per-client average-rate summary for GBR-only FLARE (kbps).
    pub gbr_only_rates: Summary,
    /// Mean stalled seconds per client for full FLARE.
    pub full_underflow_secs: f64,
    /// Mean stalled seconds per client for GBR-only FLARE (the nominal-rate
    /// overshoot of the uncoordinated client shows up here).
    pub gbr_only_underflow_secs: f64,
}

impl DualEnforcementAblation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Ablation: dual enforcement (plugin + GBR) vs GBR-only\n\
             full FLARE:  rate {} kbps, changes {}, stalled {:.1} s/client\n\
             GBR only:    rate {} kbps, changes {}, stalled {:.1} s/client\n",
            self.full_rates,
            self.full_changes,
            self.full_underflow_secs,
            self.gbr_only_rates,
            self.gbr_only_changes,
            self.gbr_only_underflow_secs,
        )
    }
}

/// Runs the dual-enforcement ablation on the mobile scenario.
pub fn ablation_dual_enforcement(p: ExperimentParams) -> DualEnforcementAblation {
    let full = repeat(p.runs, p.seed, p.jobs, |s| {
        mobile_run(
            SchemeKind::Flare(flare_core::FlareConfig::default()),
            s,
            p.duration,
        )
    });
    let gbr_only = repeat(p.runs, p.seed, p.jobs, |s| {
        mobile_run(SchemeKind::FlareGbrOnly, s, p.duration)
    });
    let mean_underflow = |runs: &[RunResult]| {
        runs.iter()
            .map(RunResult::average_underflow_secs)
            .sum::<f64>()
            / runs.len() as f64
    };
    DualEnforcementAblation {
        full_changes: Summary::of(&pooled_changes(&full)),
        gbr_only_changes: Summary::of(&pooled_changes(&gbr_only)),
        full_rates: Summary::of(&pooled_rates(&full)),
        gbr_only_rates: Summary::of(&pooled_rates(&gbr_only)),
        full_underflow_secs: mean_underflow(&full),
        gbr_only_underflow_secs: mean_underflow(&gbr_only),
    }
}

// ---------------------------------------------------------------------------
// Deployment: coexistence with conventional HAS players (Section V)
// ---------------------------------------------------------------------------

/// The legacy-coexistence result: FLARE and conventional players sharing a
/// cell, with the conventional players serviced as best-effort data.
#[derive(Debug, Clone)]
pub struct LegacyCoexistence {
    /// Per-client average rate (kbps) of the FLARE-coordinated players.
    pub flare_rates: Summary,
    /// Per-client average rate (kbps) of the conventional players.
    pub legacy_rates: Summary,
    /// Per-client change counts of the FLARE players.
    pub flare_changes: Summary,
    /// Per-client change counts of the conventional players.
    pub legacy_changes: Summary,
    /// Total stalled seconds of the FLARE players.
    pub flare_underflow_secs: f64,
}

impl LegacyCoexistence {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Deployment: FLARE clients coexisting with conventional players\n\
             FLARE clients:  rate {} kbps, changes {}, stalled {:.1} s\n\
             legacy clients: rate {} kbps, changes {}\n",
            self.flare_rates,
            self.flare_changes,
            self.flare_underflow_secs,
            self.legacy_rates,
            self.legacy_changes,
        )
    }
}

/// Runs the Section V deployment scenario: half the video UEs use FLARE
/// plugins (GBR-protected), half run conventional FESTIVE players serviced
/// like data traffic.
pub fn legacy_coexistence(p: ExperimentParams) -> LegacyCoexistence {
    use crate::config::{ChannelKind, SimConfig};
    use flare_lte::mobility::MobilityConfig;

    let runs = flare_harness::run_indexed(p.runs, p.jobs, |i| {
        let config = SimConfig::builder()
            .seed(p.seed + i as u64)
            .duration(p.duration)
            .videos(8)
            .legacy_video(4)
            .data_flows(0)
            .channel(ChannelKind::StationaryRandom(MobilityConfig))
            .scheme(SchemeKind::Flare(flare_core::FlareConfig::default()))
            .build();
        crate::runner::CellSim::new(config).run()
    });
    let mut flare_rates = Vec::new();
    let mut legacy_rates = Vec::new();
    let mut flare_changes = Vec::new();
    let mut legacy_changes = Vec::new();
    let mut flare_underflow = 0.0;
    for r in &runs {
        for v in &r.videos {
            if v.index < 4 {
                flare_rates.push(v.stats.average_rate.as_kbps());
                flare_changes.push(v.stats.bitrate_changes as f64);
                flare_underflow += v.stats.underflow_time.as_secs_f64();
            } else {
                legacy_rates.push(v.stats.average_rate.as_kbps());
                legacy_changes.push(v.stats.bitrate_changes as f64);
            }
        }
    }
    LegacyCoexistence {
        flare_rates: Summary::of(&flare_rates),
        legacy_rates: Summary::of(&legacy_rates),
        flare_changes: Summary::of(&flare_changes),
        legacy_changes: Summary::of(&legacy_changes),
        flare_underflow_secs: flare_underflow,
    }
}

// ---------------------------------------------------------------------------
// Ablation: static partitioning vs unified allocation
// ---------------------------------------------------------------------------

/// The static-partitioning ablation: the same FLARE assignment enforced by
/// the opportunistic two-phase scheduler vs an AVIS-style static slice.
#[derive(Debug, Clone)]
pub struct PartitionAblation {
    /// Mean data-flow throughput (kbps) under the opportunistic scheduler.
    pub unified_data_kbps: f64,
    /// Mean data-flow throughput (kbps) under static slicing.
    pub partitioned_data_kbps: f64,
    /// Mean video rate (kbps) under the opportunistic scheduler.
    pub unified_video_kbps: f64,
    /// Mean video rate (kbps) under static slicing.
    pub partitioned_video_kbps: f64,
}

impl PartitionAblation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Ablation: unified allocation vs static partitioning\n\
             unified (two-phase):  video {:.0} kbps, data {:.0} kbps\n\
             static partitioning:  video {:.0} kbps, data {:.0} kbps\n",
            self.unified_video_kbps,
            self.unified_data_kbps,
            self.partitioned_video_kbps,
            self.partitioned_data_kbps,
        )
    }
}

/// Runs FLARE with the opportunistic two-phase scheduler vs static slicing
/// (Section I-B's critique of AVIS-style partitioning: reserved-but-unused
/// blocks starve data flows).
pub fn ablation_static_partition(p: ExperimentParams) -> PartitionAblation {
    use crate::config::{ChannelKind, SchedulerKind, SimConfig};

    let run = |scheduler: SchedulerKind, seed: u64| {
        let config = SimConfig::builder()
            .seed(seed)
            .duration(p.duration)
            .videos(4)
            .data_flows(4)
            .scheduler(scheduler)
            .channel(ChannelKind::Static { itbs: 8 })
            .scheme(SchemeKind::Flare(flare_core::FlareConfig::default()))
            .build();
        crate::runner::CellSim::new(config).run()
    };
    let pairs = flare_harness::run_indexed(p.runs, p.jobs, |i| {
        (
            run(SchedulerKind::TwoPhaseGbr, p.seed + i as u64),
            run(SchedulerKind::StrictPartition, p.seed + i as u64),
        )
    });
    let mut unified_data = Vec::new();
    let mut part_data = Vec::new();
    let mut unified_video = Vec::new();
    let mut part_video = Vec::new();
    for (u, s) in &pairs {
        unified_data.push(u.average_data_throughput_kbps());
        part_data.push(s.average_data_throughput_kbps());
        unified_video.push(u.average_video_rate_kbps());
        part_video.push(s.average_video_rate_kbps());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    PartitionAblation {
        unified_data_kbps: mean(&unified_data),
        partitioned_data_kbps: mean(&part_data),
        unified_video_kbps: mean(&unified_video),
        partitioned_video_kbps: mean(&part_video),
    }
}

// ---------------------------------------------------------------------------
// Ablation: multi-user diversity (PF vs round robin)
// ---------------------------------------------------------------------------

/// The scheduler-diversity ablation: the same client-side workload over
/// proportional fair vs channel-blind round robin.
#[derive(Debug, Clone)]
pub struct DiversityAblation {
    /// Aggregate delivered video throughput (kbps) under proportional fair.
    pub pf_total_kbps: f64,
    /// Aggregate delivered video throughput (kbps) under round robin.
    pub rr_total_kbps: f64,
}

impl DiversityAblation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Ablation: multi-user diversity (PF vs round robin)\n\
             proportional fair: {:.0} kbps aggregate video throughput\n\
             round robin:       {:.0} kbps aggregate video throughput\n",
            self.pf_total_kbps, self.rr_total_kbps,
        )
    }
}

/// Quantifies the multi-user-diversity gain PF extracts from heterogeneous
/// mobile channels — the capacity pool every scheme in the paper draws
/// from (and part of why GBR pacing trades aggregate rate for guarantees).
pub fn ablation_diversity(p: ExperimentParams) -> DiversityAblation {
    use crate::config::{ChannelKind, SchedulerKind, SimConfig};
    use flare_lte::mobility::MobilityConfig;

    let run = |scheduler: SchedulerKind, seed: u64| {
        let config = SimConfig::builder()
            .seed(seed)
            .duration(p.duration)
            .videos(8)
            .data_flows(0)
            .scheduler(scheduler)
            .channel(ChannelKind::Mobile(MobilityConfig))
            .scheme(SchemeKind::Festive)
            .build();
        crate::runner::CellSim::new(config).run()
    };
    let total = |r: &RunResult| {
        r.videos
            .iter()
            .map(|v| v.average_throughput.as_kbps())
            .sum::<f64>()
    };
    let pairs = flare_harness::run_indexed(p.runs, p.jobs, |i| {
        (
            total(&run(SchedulerKind::ProportionalFair, p.seed + i as u64)),
            total(&run(SchedulerKind::RoundRobin, p.seed + i as u64)),
        )
    });
    let mut pf = 0.0;
    let mut rr = 0.0;
    for (a, b) in &pairs {
        pf += a;
        rr += b;
    }
    DiversityAblation {
        pf_total_kbps: pf / p.runs as f64,
        rr_total_kbps: rr / p.runs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pf_extracts_diversity_gain_over_round_robin() {
        let p = ExperimentParams {
            runs: 1,
            duration: TimeDelta::from_secs(300),
            testbed_duration: TimeDelta::from_secs(120),
            seed: 4,
            jobs: 1,
        };
        let a = ablation_diversity(p);
        assert!(
            a.pf_total_kbps >= a.rr_total_kbps,
            "PF must not lose to round robin: {} vs {}",
            a.pf_total_kbps,
            a.rr_total_kbps
        );
        assert!(a.render().contains("round robin"));
    }

    #[test]
    fn legacy_coexistence_keeps_flare_clients_whole() {
        let p = ExperimentParams {
            runs: 1,
            duration: TimeDelta::from_secs(300),
            testbed_duration: TimeDelta::from_secs(120),
            seed: 7,
            jobs: 1,
        };
        let r = legacy_coexistence(p);
        // FLARE clients keep their GBR protection: no stalls, and their
        // rates are not collapsed by the legacy players' presence.
        assert_eq!(r.flare_underflow_secs, 0.0);
        assert!(r.flare_rates.mean > 0.0);
        assert!(r.legacy_rates.mean > 0.0);
        assert!(r.render().contains("legacy clients"));
    }

    #[test]
    fn static_partitioning_starves_data() {
        let p = ExperimentParams {
            runs: 1,
            duration: TimeDelta::from_secs(300),
            testbed_duration: TimeDelta::from_secs(120),
            seed: 8,
            jobs: 1,
        };
        let a = ablation_static_partition(p);
        assert!(
            a.partitioned_data_kbps <= a.unified_data_kbps,
            "static slicing must not help data flows: {} vs {}",
            a.partitioned_data_kbps,
            a.unified_data_kbps
        );
    }

    #[test]
    fn gbr_only_flare_stalls_where_dual_enforcement_does_not() {
        // EXPERIMENTS.md's dual-enforcement ablation: with the plugin
        // ignored, clients self-adapt against a GBR they cannot see.
        let a = ablation_dual_enforcement(ExperimentParams::quick());
        assert_eq!(a.full_underflow_secs, 0.0, "full FLARE must not stall");
        assert!(
            a.gbr_only_underflow_secs > 0.0,
            "FLARE-GBR-ONLY must stall: {} s per client",
            a.gbr_only_underflow_secs
        );
    }

    #[test]
    fn table1_quick_has_three_schemes() {
        let t = table1(ExperimentParams::quick());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].scheme, "FESTIVE");
        assert_eq!(t.rows[2].scheme, "FLARE");
        let rendered = t.render();
        assert!(rendered.contains("Average video rate"));
        assert!(rendered.contains("FLARE"));
    }

    #[test]
    fn fig9_renders() {
        let f = fig9(5, 3);
        assert_eq!(f.points.len(), 3);
        let rendered = f.render();
        assert!(rendered.contains("128"));
    }

    #[test]
    fn fig12_quick_is_monotone_enough() {
        let p = ExperimentParams {
            runs: 1,
            duration: TimeDelta::from_secs(200),
            testbed_duration: TimeDelta::from_secs(120),
            seed: 5,
            jobs: 1,
        };
        let f = fig12(p);
        assert_eq!(f.points.len(), 7);
        assert!(f.render().contains("delta"));
    }
}
