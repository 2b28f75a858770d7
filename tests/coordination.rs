//! Tests of FLARE's coordination loop across crates: the OneAPI server,
//! the eNodeB's GBR enforcement, and the plugin's request enforcement.

use flare_abr::SharedAssignment;
use flare_core::{ClientInfo, FlareConfig, FlarePlugin, OneApiServer};
use flare_has::{BitrateLadder, Level, Mpd, Player, PlayerConfig};
use flare_lte::channel::StaticChannel;
use flare_lte::scheduler::TwoPhaseGbr;
use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
use flare_sim::units::Rate;
use flare_sim::{Time, TimeDelta, TTI};

/// Hand-rolled coordination loop (no scenarios crate): one video client and
/// one data flow, a OneAPI server assigning every 10 s, the plugin obeying.
#[test]
fn assigned_level_is_what_the_player_requests() {
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let video = enb.add_flow(
        FlowClass::Video,
        Box::new(StaticChannel::new(Itbs::new(14))),
    );
    let data = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(14))));

    let ladder = BitrateLadder::testbed();
    let mut server = OneApiServer::new(FlareConfig::default().with_delta(1));
    server.register_video(ClientInfo::new(video, ladder.clone()));
    server.register_data(data);

    let assignment = SharedAssignment::new();
    let mpd = Mpd::new(
        ladder.clone(),
        TimeDelta::from_secs(10),
        TimeDelta::from_secs(400),
    );
    let mut player = Player::new(
        mpd,
        PlayerConfig::default(),
        Box::new(FlarePlugin::new(assignment.clone())),
    );

    let mut requested: Vec<(u64, Level)> = Vec::new();
    let mut assigned: Vec<(u64, Level)> = Vec::new();
    for ms in 0..300_000u64 {
        let t_end = Time::from_millis(ms + 1);
        if let Some(req) = player.step(t_end, TTI) {
            enb.push_backlog(video, req.bytes);
            requested.push((ms, req.level));
        }
        for d in enb.step_tti(Time::from_millis(ms)) {
            if d.flow == video {
                player.on_delivered(t_end, d.bytes);
            }
        }
        if (ms + 1) % 10_000 == 0 {
            let report = enb.take_report(t_end);
            let la = enb.link_adaptation().clone();
            for a in server.assign(&report, &la, 50) {
                enb.set_gbr(a.flow, Some(a.rate));
                assignment.set(a.level);
                assigned.push((ms, a.level));
            }
        }
    }

    assert!(!assigned.is_empty(), "server must assign");
    // Every request after the first assignment matches the latest
    // assignment exactly — the mis-coordination AVIS suffers cannot occur.
    let first_assign = assigned[0].0;
    for &(t, level) in requested.iter().filter(|(t, _)| *t > first_assign) {
        let current = assigned
            .iter()
            .rev()
            .find(|(at, _)| *at <= t)
            .map(|(_, l)| *l)
            .expect("an assignment precedes this request");
        assert_eq!(level, current, "request at {t} ms deviated from assignment");
    }
    // And the GBR installed in the MAC equals the assigned encoding's rate.
    let last_level = assigned.last().unwrap().1;
    assert_eq!(enb.qos(video).gbr, Some(ladder.rate(last_level)));
}

#[test]
fn stability_filter_gates_the_live_loop() {
    // delta = 4: with a 10 s BAI, the first climb (into 0-based level 1)
    // needs 4 consecutive recommendations = 40 s.
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let video = enb.add_flow(
        FlowClass::Video,
        Box::new(StaticChannel::new(Itbs::new(20))),
    );
    enb.push_backlog(video, flare_sim::units::ByteCount::new(u64::MAX / 4));

    let ladder = BitrateLadder::simulation();
    let mut server = OneApiServer::new(FlareConfig::default().with_delta(4));
    server.register_video(ClientInfo::new(video, ladder));

    let mut levels = Vec::new();
    for bai in 0..12u64 {
        for ms in bai * 10_000..(bai + 1) * 10_000 {
            enb.step_tti(Time::from_millis(ms));
        }
        let report = enb.take_report(Time::from_millis((bai + 1) * 10_000));
        let la = enb.link_adaptation().clone();
        let assignments = server.assign(&report, &la, 50);
        levels.push(assignments[0].level.index());
    }
    // Threshold to enter 0-based level 1 is 4 BAIs.
    assert!(
        levels[..3].iter().all(|&l| l == 0),
        "climbed before the threshold: {levels:?}"
    );
    assert_eq!(
        levels[3], 1,
        "4th consecutive recommendation applies: {levels:?}"
    );
    assert!(
        levels.contains(&1),
        "never climbed despite a great channel: {levels:?}"
    );
}

#[test]
fn gbr_enforcement_protects_video_from_data_pressure() {
    // A video flow assigned 1100 kbps must actually receive it even with
    // four greedy data flows hammering the cell.
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let video = enb.add_flow(
        FlowClass::Video,
        Box::new(StaticChannel::new(Itbs::new(10))),
    );
    for _ in 0..4 {
        enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(10))));
    }
    enb.set_gbr(video, Some(Rate::from_kbps(1100.0)));
    enb.push_backlog(video, flare_sim::units::ByteCount::new(u64::MAX / 4));
    for ms in 0..60_000u64 {
        enb.step_tti(Time::from_millis(ms));
    }
    let report = enb.take_report(Time::from_secs(60));
    let tput = report.flow(video).unwrap().throughput(report.duration());
    assert!(
        tput.as_kbps() >= 1080.0,
        "GBR violated under data pressure: {tput}"
    );
}
