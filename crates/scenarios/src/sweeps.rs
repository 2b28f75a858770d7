//! Parameter sweeps: α (Figure 11), δ (Figure 12), and the exact-vs-relaxed
//! solver comparison (Figure 8).

use flare_core::{FlareConfig, SolveMode};
use flare_has::BitrateLadder;
use flare_lte::mobility::MobilityConfig;
use flare_metrics::Summary;
use flare_sim::TimeDelta;

use crate::config::{ChannelKind, SchemeKind, SimConfig};
use crate::runner::{CellSim, RunResult};

/// One α operating point: the throughput each flow class achieved.
#[derive(Debug, Clone)]
pub struct AlphaPoint {
    /// The α value.
    pub alpha: f64,
    /// Per-video-flow average throughput (kbps) across runs.
    pub video_throughput: Summary,
    /// Per-data-flow average throughput (kbps) across runs.
    pub data_throughput: Summary,
}

/// Sweeps α over FLARE runs with coexisting video and data flows
/// (Figure 11: α from 0.25 to 4 doubling; 8 video + 8 data UEs).
#[allow(clippy::too_many_arguments)]
pub fn alpha_sweep(
    alphas: &[f64],
    n_runs: usize,
    n_video: usize,
    n_data: usize,
    duration: TimeDelta,
    seed0: u64,
    jobs: usize,
) -> Vec<AlphaPoint> {
    alphas
        .iter()
        .map(|&alpha| {
            let runs = flare_harness::run_indexed(n_runs, jobs, |i| {
                let config = FlareConfig::default().with_alpha(alpha);
                let sim = SimConfig::builder()
                    .seed(seed0 + i as u64)
                    .duration(duration)
                    .videos(n_video)
                    .data_flows(n_data)
                    .channel(ChannelKind::StationaryRandom(MobilityConfig))
                    .scheme(SchemeKind::Flare(config))
                    .build();
                CellSim::new(sim).run()
            });
            let mut video = Vec::new();
            let mut data = Vec::new();
            for r in &runs {
                video.extend(r.videos.iter().map(|v| v.average_throughput.as_kbps()));
                data.extend(r.data.iter().map(|d| d.average_throughput.as_kbps()));
            }
            AlphaPoint {
                alpha,
                video_throughput: Summary::of(&video),
                data_throughput: Summary::of(&data),
            }
        })
        .collect()
}

/// One δ operating point: bitrate and stability.
#[derive(Debug, Clone)]
pub struct DeltaPoint {
    /// The δ value.
    pub delta: u32,
    /// Per-client average bitrate (kbps) across runs.
    pub average_rate: Summary,
    /// Per-client bitrate-change count across runs.
    pub bitrate_changes: Summary,
}

/// Sweeps δ over FLARE runs (Figure 12: δ from 1 to 12). Run on the mobile
/// scenario so that the stability filter actually has variation to damp.
pub fn delta_sweep(
    deltas: &[u32],
    n_runs: usize,
    duration: TimeDelta,
    seed0: u64,
    jobs: usize,
) -> Vec<DeltaPoint> {
    deltas
        .iter()
        .map(|&delta| {
            let runs = flare_harness::run_indexed(n_runs, jobs, |i| {
                let config = FlareConfig::default().with_delta(delta);
                let sim = SimConfig::builder()
                    .seed(seed0 + i as u64)
                    .duration(duration)
                    .videos(8)
                    .data_flows(0)
                    .channel(ChannelKind::Mobile(MobilityConfig))
                    .scheme(SchemeKind::Flare(config))
                    .build();
                CellSim::new(sim).run()
            });
            let mut rates = Vec::new();
            let mut changes = Vec::new();
            for r in &runs {
                rates.extend(r.videos.iter().map(|v| v.stats.average_rate.as_kbps()));
                changes.extend(r.videos.iter().map(|v| v.stats.bitrate_changes as f64));
            }
            DeltaPoint {
                delta,
                average_rate: Summary::of(&rates),
                bitrate_changes: Summary::of(&changes),
            }
        })
        .collect()
}

/// A FLARE run pair for Figure 8: the same scenario solved exactly and via
/// the continuous relaxation (with the fine-grained {100..1200} ladder the
/// figure uses).
#[derive(Debug, Clone)]
pub struct SolverComparison {
    /// Scenario label ("static" / "mobile").
    pub scenario: &'static str,
    /// Runs with the exact discrete solver.
    pub exact: Vec<RunResult>,
    /// Runs with the continuous relaxation + rounding.
    pub relaxed: Vec<RunResult>,
}

/// Runs the exact-vs-relaxed comparison on one scenario kind.
pub fn solver_comparison(
    mobile: bool,
    n_runs: usize,
    duration: TimeDelta,
    seed0: u64,
    jobs: usize,
) -> SolverComparison {
    let channel = || {
        if mobile {
            ChannelKind::Mobile(MobilityConfig)
        } else {
            ChannelKind::StationaryRandom(MobilityConfig)
        }
    };
    let run = |mode: SolveMode, seed: u64| {
        let config = FlareConfig::default().with_solve_mode(mode);
        let sim = SimConfig::builder()
            .seed(seed)
            .duration(duration)
            .videos(8)
            .data_flows(0)
            .ladder(BitrateLadder::fine_grained())
            .channel(channel())
            .scheme(SchemeKind::Flare(config))
            .build();
        CellSim::new(sim).run()
    };
    SolverComparison {
        scenario: if mobile { "mobile" } else { "static" },
        exact: flare_harness::run_indexed(n_runs, jobs, |i| {
            run(SolveMode::Exact, seed0 + i as u64)
        }),
        relaxed: flare_harness::run_indexed(n_runs, jobs, |i| {
            run(SolveMode::Relaxed, seed0 + i as u64)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::pooled_rates;

    const SHORT: TimeDelta = TimeDelta::from_secs(200);

    #[test]
    fn alpha_trades_video_for_data() {
        let points = alpha_sweep(&[0.25, 4.0], 1, 4, 4, SHORT, 21, 1);
        assert_eq!(points.len(), 2);
        // Raising alpha must raise data throughput and lower video's.
        assert!(
            points[1].data_throughput.mean >= points[0].data_throughput.mean,
            "data: {} vs {}",
            points[1].data_throughput.mean,
            points[0].data_throughput.mean
        );
        assert!(
            points[1].video_throughput.mean <= points[0].video_throughput.mean,
            "video: {} vs {}",
            points[1].video_throughput.mean,
            points[0].video_throughput.mean
        );
    }

    #[test]
    fn delta_increases_stability() {
        let points = delta_sweep(&[1, 12], 1, SHORT, 22, 1);
        assert!(
            points[1].bitrate_changes.mean <= points[0].bitrate_changes.mean,
            "changes: {} vs {}",
            points[1].bitrate_changes.mean,
            points[0].bitrate_changes.mean
        );
        assert!(
            points[1].average_rate.mean <= points[0].average_rate.mean + 1.0,
            "rate: {} vs {}",
            points[1].average_rate.mean,
            points[0].average_rate.mean
        );
    }

    #[test]
    fn relaxation_stays_close_to_exact() {
        let cmp = solver_comparison(false, 1, SHORT, 23, 2);
        let exact = flare_metrics::Summary::of(&pooled_rates(&cmp.exact)).mean;
        let relaxed = flare_metrics::Summary::of(&pooled_rates(&cmp.relaxed)).mean;
        // Paper: the relaxation loses at most ~15% average bitrate.
        assert!(
            relaxed >= exact * 0.7,
            "relaxed {relaxed} too far below exact {exact}"
        );
        assert!(
            relaxed <= exact * 1.15,
            "relaxed {relaxed} unexpectedly above exact {exact}"
        );
    }
}
