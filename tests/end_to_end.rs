//! End-to-end integration tests spanning every crate: cell + players +
//! adaptation + metrics, exercised through the public API only.

use flare_core::FlareConfig;
use flare_scenarios::{CellSim, ChannelKind, SchedulerKind, SchemeKind, SimConfig};
use flare_sim::TimeDelta;

fn sim(scheme: SchemeKind, itbs: u8, videos: usize, data: usize, secs: u64) -> SimConfig {
    SimConfig::builder()
        .seed(42)
        .duration(TimeDelta::from_secs(secs))
        .videos(videos)
        .data_flows(data)
        .channel(ChannelKind::Static { itbs })
        .scheduler(SchedulerKind::TwoPhaseGbr)
        .scheme(scheme)
        .build()
}

/// Cell capacity at the given iTbs with the default 2x MIMO table, kbps.
fn capacity_kbps(itbs: u8) -> f64 {
    let la = flare_lte::LinkAdaptation::default();
    la.cell_capacity(flare_lte::Itbs::new(itbs), 50).as_kbps()
}

#[test]
fn throughput_never_exceeds_cell_capacity() {
    for scheme in [
        SchemeKind::Festive,
        SchemeKind::Google,
        SchemeKind::Flare(FlareConfig::default()),
        SchemeKind::Avis,
    ] {
        let r = CellSim::new(sim(scheme, 8, 2, 1, 120)).run();
        let total: f64 = r
            .videos
            .iter()
            .map(|v| v.average_throughput.as_kbps())
            .chain(r.data.iter().map(|d| d.average_throughput.as_kbps()))
            .sum();
        let cap = capacity_kbps(8);
        assert!(
            total <= cap * 1.01,
            "{}: delivered {total:.0} kbps exceeds capacity {cap:.0}",
            r.scheme
        );
    }
}

#[test]
fn greedy_data_flow_saturates_leftover_capacity() {
    // One data flow and one low-rate FLARE video: the cell should be almost
    // fully utilized (the video is paced; data soaks up the slack).
    let r = CellSim::new(sim(SchemeKind::Flare(FlareConfig::default()), 8, 1, 1, 120)).run();
    let total: f64 =
        r.videos[0].average_throughput.as_kbps() + r.data[0].average_throughput.as_kbps();
    let cap = capacity_kbps(8);
    assert!(
        total >= cap * 0.95,
        "cell underutilized: {total:.0} of {cap:.0} kbps"
    );
}

#[test]
fn video_only_cell_never_exceeds_demand() {
    // With an excellent channel, players are demand-limited: delivered
    // bytes must not exceed what the selected segments contain.
    let r = CellSim::new(sim(
        SchemeKind::Flare(FlareConfig::default()),
        20,
        2,
        0,
        120,
    ))
    .run();
    for v in &r.videos {
        let demand_kbps = v.stats.average_rate.as_kbps();
        // Delivered throughput averaged over the run can't beat the nominal
        // segment rate by more than the buffering headroom.
        assert!(
            v.average_throughput.as_kbps() <= demand_kbps * 1.5 + 100.0,
            "client {} delivered {:.0} kbps for {:.0} kbps demand",
            v.index,
            v.average_throughput.as_kbps(),
            demand_kbps
        );
    }
}

#[test]
fn all_schemes_make_playback_progress() {
    for scheme in [
        SchemeKind::Festive,
        SchemeKind::Google,
        SchemeKind::Flare(FlareConfig::default()),
        SchemeKind::FlareGbrOnly,
        SchemeKind::Avis,
    ] {
        let name = scheme.name();
        let r = CellSim::new(sim(scheme, 10, 2, 0, 120)).run();
        for v in &r.videos {
            // 120 s at 10 s segments: a healthy player downloads ~12.
            assert!(
                v.stats.segments >= 8,
                "{name} client {} downloaded only {} segments",
                v.index,
                v.stats.segments
            );
            assert!(
                v.stats.playback_started_at.is_some(),
                "{name}: never started"
            );
        }
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let run = |scheme: SchemeKind| {
        let r = CellSim::new(sim(scheme, 6, 3, 1, 90)).run();
        (
            r.videos
                .iter()
                .map(|v| v.rate_series.points().to_vec())
                .collect::<Vec<_>>(),
            r.data[0].throughput_series.points().to_vec(),
        )
    };
    for scheme in [
        SchemeKind::Festive,
        SchemeKind::Flare(FlareConfig::default()),
        SchemeKind::Avis,
    ] {
        assert_eq!(
            run(scheme.clone()),
            run(scheme.clone()),
            "{}",
            scheme.name()
        );
    }
}

#[test]
fn mobile_cell_full_pipeline() {
    let cfg = SimConfig::builder()
        .seed(8)
        .duration(TimeDelta::from_secs(120))
        .videos(4)
        .data_flows(1)
        .channel(ChannelKind::Mobile(flare_lte::mobility::MobilityConfig))
        .scheme(SchemeKind::Flare(FlareConfig::default()))
        .build();
    let r = CellSim::new(cfg).run();
    assert_eq!(r.videos.len(), 4);
    assert!(r.solve_times.len() >= 10, "one solve per BAI expected");
    assert!(r.jain_of_video_rates() > 0.5);
}
