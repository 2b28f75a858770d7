//! The ns-3-style cell simulation scenarios (Section IV-B).
//!
//! Table III settings: 1200 s runs, a 2000 m × 2000 m area with random UE
//! placement, trace-based channels, 10 s segments, the {100, 250, 500,
//! 1000, 2000, 3000} kbps ladder, and the Priority Set Scheduler. Eight
//! clients per run, twenty runs per plot (= 160 client samples for the
//! CDFs). Three schemes are compared: FLARE, AVIS, and FESTIVE.

use flare_core::FlareConfig;
use flare_lte::mobility::MobilityConfig;
use flare_sim::TimeDelta;

use crate::config::{ChannelKind, SchemeKind, SimConfig};
use crate::runner::{CellSim, RunResult};

/// The three schemes the simulation study compares, in paper order.
pub fn schemes() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Flare(FlareConfig::default()),
        SchemeKind::Avis,
        SchemeKind::Festive,
    ]
}

/// Base Table III configuration for a scheme, a channel, and a flow mix.
pub fn cell_config(
    scheme: SchemeKind,
    channel: ChannelKind,
    n_video: usize,
    n_data: usize,
    seed: u64,
    duration: TimeDelta,
) -> SimConfig {
    SimConfig::builder()
        .seed(seed)
        .duration(duration)
        .videos(n_video)
        .data_flows(n_data)
        .channel(channel)
        .scheme(scheme)
        .build()
}

/// One static-scenario run: stationary UEs at seeded random positions.
pub fn static_run(scheme: SchemeKind, seed: u64, duration: TimeDelta) -> RunResult {
    let channel = ChannelKind::StationaryRandom(MobilityConfig);
    CellSim::new(cell_config(scheme, channel, 8, 0, seed, duration)).run()
}

/// One mobile-scenario run: vehicular random-waypoint UEs.
pub fn mobile_run(scheme: SchemeKind, seed: u64, duration: TimeDelta) -> RunResult {
    let channel = ChannelKind::Mobile(MobilityConfig);
    CellSim::new(cell_config(scheme, channel, 8, 0, seed, duration)).run()
}

/// One mixed run with video and data flows (Figure 10: 8 + 8).
pub fn mixed_run(
    scheme: SchemeKind,
    n_video: usize,
    n_data: usize,
    seed: u64,
    duration: TimeDelta,
) -> RunResult {
    let channel = ChannelKind::StationaryRandom(MobilityConfig);
    CellSim::new(cell_config(
        scheme, channel, n_video, n_data, seed, duration,
    ))
    .run()
}

/// Executes `n_runs` independent runs (seeds `seed0..seed0+n_runs`) on up
/// to `jobs` worker threads (`0` = all cores, `1` = serial).
///
/// Each job builds its whole simulation inside the closure, so runs share
/// nothing and the result vector is bit-identical to a serial loop — the
/// harness contract [`flare_harness::run_indexed`] enforces.
pub fn repeat(
    n_runs: usize,
    seed0: u64,
    jobs: usize,
    one: impl Fn(u64) -> RunResult + Sync,
) -> Vec<RunResult> {
    flare_harness::run_indexed(n_runs, jobs, |i| one(seed0 + i as u64))
}

/// Pools every client's average bitrate (kbps) across runs — the sample
/// behind the paper's "CDF over 160 clients".
pub fn pooled_rates(runs: &[RunResult]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.videos.iter().map(|v| v.stats.average_rate.as_kbps()))
        .collect()
}

/// Pools every client's bitrate-change count across runs.
pub fn pooled_changes(runs: &[RunResult]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.videos.iter().map(|v| v.stats.bitrate_changes as f64))
        .collect()
}

/// Pools every video flow's average MAC throughput (kbps).
pub fn pooled_video_throughput(runs: &[RunResult]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.videos.iter().map(|v| v.average_throughput.as_kbps()))
        .collect()
}

/// Pools every data flow's average throughput (kbps).
pub fn pooled_data_throughput(runs: &[RunResult]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.data.iter().map(|d| d.average_throughput.as_kbps()))
        .collect()
}

/// Mean Jain's fairness index across runs.
pub fn mean_jain(runs: &[RunResult]) -> f64 {
    if runs.is_empty() {
        return 1.0;
    }
    runs.iter().map(|r| r.jain_of_video_rates()).sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: TimeDelta = TimeDelta::from_secs(200);

    #[test]
    fn static_runs_pool_correctly() {
        let runs = repeat(2, 40, 2, |s| static_run(SchemeKind::Festive, s, SHORT));
        assert_eq!(runs.len(), 2);
        assert_eq!(pooled_rates(&runs).len(), 16);
        assert_eq!(pooled_changes(&runs).len(), 16);
        assert!(pooled_rates(&runs).iter().all(|&r| r >= 100.0));
        assert!(mean_jain(&runs) > 0.3);
    }

    #[test]
    fn different_seeds_differ() {
        let a = static_run(SchemeKind::Festive, 1, SHORT);
        let b = static_run(SchemeKind::Festive, 2, SHORT);
        // Random UE placement means per-client channels differ, which shows
        // up in download *timing* (per-second delivered bytes) even when an
        // underloaded cell lets both runs fetch identical segment totals.
        assert_ne!(
            a.videos[0].throughput_series.points(),
            b.videos[0].throughput_series.points()
        );
    }

    #[test]
    fn flare_beats_festive_on_stability_in_mobile_runs() {
        let flare = mobile_run(SchemeKind::Flare(FlareConfig::default()), 7, SHORT);
        let festive = mobile_run(SchemeKind::Festive, 7, SHORT);
        assert!(
            flare.average_bitrate_changes() <= festive.average_bitrate_changes(),
            "flare {} vs festive {}",
            flare.average_bitrate_changes(),
            festive.average_bitrate_changes()
        );
    }

    #[test]
    fn mixed_run_balances_classes() {
        let r = mixed_run(SchemeKind::Flare(FlareConfig::default()), 4, 4, 9, SHORT);
        assert_eq!(r.videos.len(), 4);
        assert_eq!(r.data.len(), 4);
        assert!(r.average_data_throughput_kbps() > 0.0);
        assert!(r.average_video_rate_kbps() > 0.0);
    }
}
