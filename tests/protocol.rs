//! Protocol-level integration: the statistics report travels over the
//! control plane as the MAC's own counters, and the assignment message
//! carries the server's decision.

use flare_core::messages::AssignmentMsg;
use flare_core::{ClientInfo, ControlPlane, FaultModel, FlareConfig, OneApiServer};
use flare_has::BitrateLadder;
use flare_lte::channel::StaticChannel;
use flare_lte::scheduler::TwoPhaseGbr;
use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
use flare_sim::units::ByteCount;
use flare_sim::{Time, TimeDelta};

fn cell_with_video(itbs: u8) -> (ENodeB, flare_lte::FlowId) {
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let video = enb.add_flow(
        FlowClass::Video,
        Box::new(StaticChannel::new(Itbs::new(itbs))),
    );
    enb.push_backlog(video, ByteCount::new(u64::MAX / 4));
    (enb, video)
}

#[test]
fn stats_report_message_matches_mac_counters() {
    // The eNodeB's report crosses the (jittered) control plane as is: the
    // server receives exactly the MAC's (n_u, b_u) counters.
    let (mut enb, video) = cell_with_video(10);
    for ms in 0..10_000u64 {
        enb.step_tti(Time::from_millis(ms));
    }
    let report = enb.take_report(Time::from_secs(10));
    let stats = *report.flow(video).expect("video flow present");
    assert!(stats.rbs > 0 && stats.bytes.as_u64() > 0);
    let mut control = ControlPlane::new(
        FaultModel::perfect().with_jitter(TimeDelta::from_secs(3)),
        1,
    );
    control.send_report(Time::from_secs(10), report.clone());
    let delivered = control.recv_reports(Time::from_secs(13));
    assert_eq!(delivered, vec![report]);
    assert_eq!(delivered[0].start, Time::ZERO);
    assert_eq!(delivered[0].end, Time::from_secs(10));
    assert_eq!(delivered[0].flow(video), Some(&stats));
}

#[test]
fn assignment_messages_carry_the_decision() {
    let (mut enb, video) = cell_with_video(14);
    let mut server = OneApiServer::new(FlareConfig::default().with_delta(0));
    server.register_video(ClientInfo::new(video, BitrateLadder::simulation()));
    for ms in 0..10_000u64 {
        enb.step_tti(Time::from_millis(ms));
    }
    let report = enb.take_report(Time::from_secs(10));
    let la = enb.link_adaptation().clone();
    let assignments = server.assign(&report, &la, 50);
    let msgs: Vec<AssignmentMsg> = assignments.iter().map(AssignmentMsg::from).collect();
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].flow_id, video.index() as u32);
    assert_eq!(msgs[0].level as usize, assignments[0].level.index());
    assert_eq!(
        msgs[0].gbr_kbps,
        assignments[0].rate.as_kbps().round() as u32
    );
}
