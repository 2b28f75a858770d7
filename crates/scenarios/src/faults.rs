//! Control-plane robustness experiment: FLARE under an unreliable
//! coordination loop.
//!
//! The paper assumes the OneAPI exchange (statistics reports up,
//! assignments down) is lossless and instantaneous. This experiment drops
//! that assumption: the same workload runs with the coordination loop
//! routed through a fault-injectable [`flare_core::ControlPlane`], sweeping
//! message loss and a mid-run server outage, and compares
//!
//! * **FLARE-R** — FLARE with the graceful-degradation extensions
//!   (versioned assignments, staleness fallback, GBR leases, stats aging
//!   and eviction),
//! * **FLARE** — the paper's design exposed naively to the same faults
//!   (assignments applied whenever they arrive, GBRs persist forever), and
//! * **FESTIVE** — a client-side scheme with no control plane at all,
//!   which bounds how well pure local adaptation does.
//!
//! Reported per point: the Table I/II QoE metrics plus degradation
//! telemetry — the fraction of client-BAIs spent in fallback, stale
//! rejections, expired GBR leases, and server-side evictions.

use flare_core::{FaultModel, FlareConfig, OutageWindow, RobustnessConfig};
use flare_sim::{Time, TimeDelta};

use crate::config::{ChannelKind, SchemeKind, SimConfig};
use crate::experiments::ExperimentParams;
use crate::runner::{CellSim, RobustnessReport, RunResult};
use flare_lte::mobility::MobilityConfig;

/// One scheme's averaged outcome at one fault point.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheme name ("FLARE-R", "FLARE", "FESTIVE").
    pub scheme: String,
    /// Average video rate (kbps).
    pub average_rate_kbps: f64,
    /// Average buffer-underflow time per client (seconds).
    pub underflow_secs: f64,
    /// Average number of bitrate changes per client.
    pub bitrate_changes: f64,
    /// Mean fraction of client-BAIs spent in fallback mode (0 for schemes
    /// without a fallback policy).
    pub fallback_fraction: f64,
    /// Mean stale (overtaken or repeated) assignments rejected per run.
    pub stale_rejections: f64,
    /// Mean control-plane messages dropped or lost to outages per run.
    pub lost_messages: f64,
    /// Mean GBR leases expired unrenewed per run.
    pub expired_leases: f64,
    /// Mean clients evicted by the server for statistics silence per run.
    pub evicted_clients: f64,
}

/// One fault point: a label plus one row per scheme.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Human-readable description of the injected faults.
    pub label: String,
    /// One row per scheme, FLARE-R first.
    pub rows: Vec<FaultRow>,
}

/// The robustness experiment's result: a loss sweep plus an outage point.
#[derive(Debug, Clone)]
pub struct FaultFigure {
    /// One entry per fault point, loss sweep first.
    pub points: Vec<FaultPoint>,
}

impl FaultFigure {
    /// Renders the sweep as aligned text.
    pub fn render(&self) -> String {
        let mut out = "Robustness: FLARE under an unreliable control plane\n".to_owned();
        for point in &self.points {
            out.push_str(&format!("-- {} --\n", point.label));
            out.push_str(&format!(
                "{:<16}{:>10}{:>10}{:>9}{:>10}{:>8}{:>8}{:>8}{:>8}\n",
                "scheme",
                "rate",
                "underflow",
                "changes",
                "fallback",
                "stale",
                "lost",
                "leases",
                "evicted"
            ));
            for row in &point.rows {
                out.push_str(&format!(
                    "{:<16}{:>10.0}{:>10.1}{:>9.1}{:>9.0}%{:>8.1}{:>8.1}{:>8.1}{:>8.1}\n",
                    row.scheme,
                    row.average_rate_kbps,
                    row.underflow_secs,
                    row.bitrate_changes,
                    100.0 * row.fallback_fraction,
                    row.stale_rejections,
                    row.lost_messages,
                    row.expired_leases,
                    row.evicted_clients,
                ));
            }
        }
        out
    }
}

/// The three schemes compared at every fault point, FLARE-R first.
fn schemes() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Flare(FlareConfig::default().with_robustness(RobustnessConfig)),
        SchemeKind::Flare(FlareConfig::default()),
        SchemeKind::Festive,
    ]
}

fn faulty_config(
    scheme: SchemeKind,
    faults: &FaultModel,
    seed: u64,
    duration: TimeDelta,
) -> SimConfig {
    // Mobile channels make staleness *costly*: an assignment computed for
    // last BAI's radio conditions can be far too aggressive for this one,
    // which is exactly the regime the fallback policy exists for. On a
    // static channel stale assignments stay valid and naive FLARE never
    // pays for them.
    SimConfig::builder()
        .seed(seed)
        .duration(duration)
        .videos(8)
        .data_flows(0)
        .channel(ChannelKind::Mobile(MobilityConfig))
        .scheme(scheme)
        .faults(faults.clone())
        .build()
}

fn row_from_runs(name: &str, bais_per_run: f64, n_video: f64, runs: &[RunResult]) -> FaultRow {
    let n = runs.len() as f64;
    // Note: the empty f64 sum is -0.0, so schemes without telemetry need an
    // explicit zero.
    let reports: Vec<&RobustnessReport> =
        runs.iter().filter_map(|r| r.robustness.as_ref()).collect();
    let mean_robust = |f: &dyn Fn(&RobustnessReport) -> u64| {
        if reports.is_empty() {
            0.0
        } else {
            reports.iter().map(|rb| f(rb) as f64).sum::<f64>() / n
        }
    };
    let client_bais = (bais_per_run * n_video).max(1.0);
    FaultRow {
        scheme: name.to_owned(),
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
        fallback_fraction: mean_robust(&|rb| rb.fallback_bais) / client_bais,
        stale_rejections: mean_robust(&|rb| rb.stale_rejections),
        lost_messages: mean_robust(&|rb| rb.dropped + rb.lost_to_outage),
        expired_leases: mean_robust(&|rb| rb.expired_leases),
        evicted_clients: mean_robust(&|rb| rb.evicted_clients),
    }
}

fn fault_point(label: String, faults: &FaultModel, p: ExperimentParams) -> FaultPoint {
    let bais_per_run = p.duration.as_millis() as f64 / 10_000.0;
    let rows = schemes()
        .into_iter()
        .map(|scheme| {
            let name = scheme.name().to_owned();
            let runs: Vec<RunResult> = flare_harness::run_indexed(p.runs, p.jobs, |i| {
                CellSim::new(faulty_config(
                    scheme.clone(),
                    faults,
                    p.seed + i as u64,
                    p.duration,
                ))
                .run()
            });
            row_from_runs(&name, bais_per_run, 8.0, &runs)
        })
        .collect();
    FaultPoint { label, rows }
}

/// The loss rates swept by [`faults`].
pub const LOSS_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// Runs the robustness experiment: a control-plane loss sweep
/// ([`LOSS_RATES`]) plus a 60 s server outage in the middle of the run,
/// comparing FLARE-R, naive FLARE, and FESTIVE at every point.
pub fn faults(p: ExperimentParams) -> FaultFigure {
    let mut points: Vec<FaultPoint> = LOSS_RATES
        .iter()
        .map(|&loss| {
            fault_point(
                format!("message loss {:.0}%", 100.0 * loss),
                &FaultModel::perfect().with_drop_prob(loss),
                p,
            )
        })
        .collect();

    // A 60 s server outage starting halfway through (clamped so it fits
    // even under --quick durations).
    let start_ms = p.duration.as_millis() / 2;
    let outage_len = TimeDelta::from_secs(60).min(TimeDelta::from_millis(
        (p.duration.as_millis() - start_ms).max(1),
    ));
    let outage = OutageWindow::new(
        Time::ZERO + TimeDelta::from_millis(start_ms),
        Time::ZERO + TimeDelta::from_millis(start_ms) + outage_len,
    );
    points.push(fault_point(
        format!("server outage {} s", outage_len.as_millis() / 1000),
        &FaultModel::perfect().with_outage(outage),
        p,
    ));
    FaultFigure { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        ExperimentParams {
            runs: 1,
            duration: TimeDelta::from_secs(200),
            testbed_duration: TimeDelta::from_secs(120),
            seed: 11,
            jobs: 1,
        }
    }

    #[test]
    fn figure_has_loss_sweep_plus_outage() {
        let f = faults(quick());
        assert_eq!(f.points.len(), LOSS_RATES.len() + 1);
        for point in &f.points {
            assert_eq!(point.rows.len(), 3);
            assert_eq!(point.rows[0].scheme, "FLARE-R");
            assert_eq!(point.rows[1].scheme, "FLARE");
            assert_eq!(point.rows[2].scheme, "FESTIVE");
        }
        let rendered = f.render();
        assert!(rendered.contains("message loss 0%"));
        assert!(rendered.contains("server outage"));
        assert!(rendered.contains("FLARE-R"));
    }

    #[test]
    fn zero_loss_point_has_no_degradation() {
        let point = fault_point("perfect".into(), &FaultModel::perfect(), quick());
        let flare_r = &point.rows[0];
        assert_eq!(flare_r.fallback_fraction, 0.0);
        assert_eq!(flare_r.stale_rejections, 0.0);
        assert_eq!(flare_r.lost_messages, 0.0);
    }

    #[test]
    fn heavy_loss_puts_resilient_flare_into_fallback() {
        let point = fault_point(
            "heavy".into(),
            &FaultModel::perfect().with_drop_prob(0.9),
            quick(),
        );
        let flare_r = &point.rows[0];
        assert!(
            flare_r.fallback_fraction > 0.0,
            "90% loss must force fallback BAIs, got {}",
            flare_r.fallback_fraction
        );
        assert!(flare_r.lost_messages > 0.0);
        // The fallback policy must keep video flowing.
        assert!(flare_r.average_rate_kbps > 0.0);
    }

    #[test]
    fn robustness_telemetry_present_only_for_flare() {
        let fm = FaultModel::perfect().with_drop_prob(0.5);
        let d = TimeDelta::from_secs(120);
        let telemetry = |scheme| {
            CellSim::new(faulty_config(scheme, &fm, 3, d))
                .run()
                .robustness
        };
        assert!(telemetry(SchemeKind::Flare(FlareConfig::default())).is_some());
        assert!(telemetry(SchemeKind::Festive).is_none());
    }
}
