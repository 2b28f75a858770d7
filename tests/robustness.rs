//! Failure injection and churn: the situations Section II-B's stability
//! constraint is designed for ("we do, however, permit large drops in the
//! flow's bitrate if necessary ... e.g., several new clients enter the
//! system").

use flare_abr::{CoordinationMode, VersionedAssignment};
use flare_core::{
    ClientInfo, FaultModel, FlareConfig, OneApiServer, OutageWindow, ResilientPlugin,
    RobustnessConfig,
};
use flare_has::{AdaptContext, BitrateLadder, DownloadSample, Level, RateAdapter};
use flare_lte::channel::{StaticChannel, TraceChannel};
use flare_lte::scheduler::TwoPhaseGbr;
use flare_lte::{CellConfig, ENodeB, FlowClass, FlowId, Itbs};
use flare_scenarios::{CellSim, ChannelKind, SchemeKind, SimConfig};
use flare_sim::units::ByteCount;
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceHandle, TraceLevel};
use proptest::prelude::*;

fn keep_backlogged(enb: &mut ENodeB, flows: &[FlowId]) {
    for &f in flows {
        enb.push_backlog(f, ByteCount::new(50_000_000));
    }
}

fn run_bai(enb: &mut ENodeB, bai: u64) -> flare_lte::IntervalReport {
    for ms in bai * 10_000..(bai + 1) * 10_000 {
        enb.step_tti(Time::from_millis(ms));
    }
    enb.take_report(Time::from_millis((bai + 1) * 10_000))
}

#[test]
fn channel_blackout_cuts_the_victim_but_not_to_zero() {
    // Four video clients plus two data flows; client 0's channel collapses
    // to iTbs 0 during t = 120..240 s while the others stay excellent.
    // With data flows present the RB shadow price is strictly positive, so
    // the optimizer cuts the newly expensive victim promptly (drops are
    // not δ-gated) — but does *not* abandon it: serving a bad channel has
    // enormous marginal utility under the α-fair objective, so the victim
    // keeps a low-but-positive tier. Recovery is δ-gated: one level at a
    // time.
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let victim_trace = TraceChannel::new(vec![
        (Time::ZERO, Itbs::new(18)),
        (Time::from_secs(120), Itbs::new(0)),
        (Time::from_secs(240), Itbs::new(18)),
    ]);
    let victim = enb.add_flow(FlowClass::Video, Box::new(victim_trace));
    let others: Vec<FlowId> = (0..3)
        .map(|_| {
            enb.add_flow(
                FlowClass::Video,
                Box::new(StaticChannel::new(Itbs::new(18))),
            )
        })
        .collect();
    let mut all = vec![victim];
    all.extend(&others);

    let mut server = OneApiServer::new(FlareConfig::default().with_delta(1));
    for &f in &all {
        server.register_video(ClientInfo::new(f, BitrateLadder::simulation()));
    }
    for _ in 0..2 {
        let d = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(18))));
        server.register_data(d);
    }

    let mut victim_levels = Vec::new();
    for bai in 0..40u64 {
        keep_backlogged(&mut enb, &all);
        let report = run_bai(&mut enb, bai);
        let la = enb.link_adaptation().clone();
        let assignments = server.assign(&report, &la, 50);
        for a in &assignments {
            enb.set_gbr(a.flow, Some(a.rate));
            if a.flow == victim {
                victim_levels.push(a.level.index());
            }
        }
    }

    let peak_before = *victim_levels[..12].iter().max().unwrap();
    assert!(
        peak_before >= 2,
        "victim should climb before the blackout: {victim_levels:?}"
    );
    // Within two BAIs of the collapse (one to observe, one to act) the
    // victim is cut below its peak and stays there for the blackout.
    let during = &victim_levels[14..24];
    assert!(
        during.iter().all(|&l| l < peak_before),
        "victim must be cut during the blackout: {victim_levels:?}"
    );
    // ... but never fully abandoned (α-fair utility floors it).
    assert!(
        during.iter().all(|&l| l <= 2),
        "victim should sit in the low tiers: {victim_levels:?}"
    );
    // Recovery climbs one step at a time (δ-gated, never skipping).
    let after = &victim_levels[24..];
    assert!(
        after.windows(2).all(|w| w[1] <= w[0] + 1),
        "recovery must not skip levels: {after:?}"
    );
    assert!(
        *after.last().unwrap() > *during.iter().max().unwrap(),
        "victim should re-climb after recovery: {victim_levels:?}"
    );
}

#[test]
fn client_churn_drops_incumbents_promptly() {
    // Four incumbents at a comfortable level; four newcomers join at BAI
    // 12. The optimizer must cut incumbent assignments within a couple of
    // BAIs (drops are not δ-gated), and newcomers enter at the bottom of
    // the ladder (at most one δ=1 step above the floor on their first
    // assignment).
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let incumbents: Vec<FlowId> = (0..4)
        .map(|_| enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(6)))))
        .collect();
    let newcomers: Vec<FlowId> = (0..4)
        .map(|_| enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(6)))))
        .collect();

    let mut server = OneApiServer::new(FlareConfig::default().with_delta(1));
    for &f in &incumbents {
        server.register_video(ClientInfo::new(f, BitrateLadder::simulation()));
    }

    let mut incumbent_levels: Vec<usize> = Vec::new();
    for bai in 0..24u64 {
        keep_backlogged(&mut enb, &incumbents);
        if bai >= 12 {
            keep_backlogged(&mut enb, &newcomers);
        }
        if bai == 12 {
            for &f in &newcomers {
                server.register_video(ClientInfo::new(f, BitrateLadder::simulation()));
            }
        }
        let report = run_bai(&mut enb, bai);
        let la = enb.link_adaptation().clone();
        let assignments = server.assign(&report, &la, 50);
        for a in &assignments {
            enb.set_gbr(a.flow, Some(a.rate));
        }
        let inc_max = assignments
            .iter()
            .filter(|a| incumbents.contains(&a.flow))
            .map(|a| a.level.index())
            .max()
            .unwrap();
        incumbent_levels.push(inc_max);
        if bai == 12 {
            for a in assignments.iter().filter(|a| newcomers.contains(&a.flow)) {
                assert!(
                    a.level.index() <= 1,
                    "newcomers must start near the floor, got {:?}",
                    a.level
                );
            }
        }
    }

    let before = incumbent_levels[11];
    // The cut propagates as the newcomers' one-step-per-BAI climb tightens
    // the budget; give it a few BAIs.
    let after = *incumbent_levels[16..].iter().max().unwrap();
    assert!(
        after < before,
        "incumbents must yield capacity to newcomers: {incumbent_levels:?}"
    );
}

// ---------------------------------------------------------------------------
// Control-plane faults: the coordination loop itself misbehaves.
// ---------------------------------------------------------------------------

/// A download that observed `kbps` over one second.
fn observed(kbps: u64) -> DownloadSample {
    DownloadSample {
        completed_at: Time::from_secs(1),
        level: Level::new(0),
        bytes: ByteCount::new(kbps * 1000 / 8),
        elapsed: TimeDelta::from_secs(1),
    }
}

#[test]
fn dropped_assignments_trigger_fallback_and_hysteresis_rejoins() {
    // The plugin-side state machine end to end: a client obeys fresh
    // assignments, degrades to capped self-adaptation when assignments
    // stop arriving, and rejoins only after a hysteresis streak.
    let cell = VersionedAssignment::new();
    let mut plugin = ResilientPlugin::new(cell.clone());
    let ladder = BitrateLadder::simulation();
    let ctx = AdaptContext {
        now: Time::from_secs(50),
        ladder: &ladder,
        buffer_level: TimeDelta::from_secs(30),
        last_level: Some(Level::new(0)),
        segment_duration: TimeDelta::from_secs(10),
        segment_index: 5,
    };

    // Fresh assignment: obeyed verbatim.
    cell.install(1, Level::new(3));
    cell.end_bai();
    assert_eq!(cell.mode(), CoordinationMode::Coordinated);
    assert_eq!(plugin.next_level(&ctx), Level::new(3));

    // The estimator has seen plenty of bandwidth, so once coordination is
    // lost the cap — not the estimate — must bind.
    for _ in 0..5 {
        plugin.on_download_complete(observed(5000));
    }
    cell.end_bai();
    cell.end_bai();
    assert_eq!(cell.mode(), CoordinationMode::Coordinated);
    cell.end_bai(); // third silent BAI: stale
    assert_eq!(cell.mode(), CoordinationMode::Fallback);
    assert_eq!(
        plugin.next_level(&ctx),
        Level::new(3),
        "fallback must cap at the last assigned level even with a rich estimate"
    );

    // One fresh assignment is not enough to rejoin (hysteresis)…
    cell.install(2, Level::new(4));
    cell.end_bai();
    assert_eq!(cell.mode(), CoordinationMode::Fallback);
    // …a second consecutive fresh BAI restores coordination.
    cell.install(3, Level::new(4));
    cell.end_bai();
    assert_eq!(cell.mode(), CoordinationMode::Coordinated);
    assert_eq!(plugin.next_level(&ctx), Level::new(4));
}

#[test]
fn server_outage_forces_fallback_and_expires_gbr_leases() {
    // A 60 s OneAPI outage in the middle of the run: reports due in the
    // window are lost, no assignments are issued, every client goes stale,
    // and the leased GBRs lapse at the eNodeB (freeing those RBs for
    // best-effort scheduling) — yet playback survives and coordination
    // resumes after the server returns.
    let outage = OutageWindow::new(Time::from_secs(100), Time::from_secs(160));
    let config = SimConfig::builder()
        .seed(5)
        .duration(TimeDelta::from_secs(260))
        .videos(4)
        .data_flows(2)
        .scheme(SchemeKind::Flare(
            FlareConfig::default().with_robustness(RobustnessConfig),
        ))
        .faults(FaultModel::perfect().with_outage(outage))
        .build();
    let r = CellSim::new(config).run();
    let rb = r.robustness.expect("FLARE-R must report telemetry");

    assert!(
        rb.lost_to_outage > 0,
        "uplink reports in the window are lost"
    );
    assert!(rb.fallback_bais >= 4, "every client must fall back: {rb:?}");
    assert!(
        rb.expired_leases >= 4,
        "each video flow's lease must lapse during the outage: {rb:?}"
    );
    // Hysteresis recovery: fallback is an episode, not the steady state.
    // 26 BAIs x 4 clients; the outage covers ~6 of them per client.
    assert!(
        rb.fallback_bais <= 4 * 12,
        "clients must rejoin after the outage: {rb:?}"
    );
    assert!(rb.installs > 0, "coordination must resume after the outage");
    for v in &r.videos {
        assert!(
            v.stats.average_rate.as_kbps() > 0.0,
            "playback must survive the outage"
        );
    }
    for d in &r.data {
        assert!(d.average_throughput.as_kbps() > 0.0);
    }
}

#[test]
fn reordered_assignments_are_rejected_not_rolled_back() {
    // Every message is delayed by up to 25 s — more than two BAIs — so
    // newer assignments regularly overtake older ones. The versioned cell
    // must reject the late arrivals instead of rolling clients back.
    let trace = TraceHandle::new(TraceLevel::Info);
    let config = SimConfig::builder()
        .seed(9)
        .duration(TimeDelta::from_secs(300))
        .videos(4)
        .scheme(SchemeKind::Flare(
            FlareConfig::default().with_robustness(RobustnessConfig),
        ))
        .faults(FaultModel::perfect().with_jitter(TimeDelta::from_secs(25)))
        .trace(trace.clone())
        .build();
    let r = CellSim::new(config).run();
    let rb = r.robustness.expect("FLARE-R must report telemetry");
    assert!(
        rb.stale_rejections > 0,
        "overtaken assignments must be rejected as stale: {rb:?}"
    );
    assert!(
        rb.installs > 0,
        "in-order assignments still install: {rb:?}"
    );
    assert_eq!(
        trace.dropped_events(),
        0,
        "the trace must hold every install"
    );
    let mut last_seq = [0u64; 4];
    let mut installs = 0;
    for e in trace.events() {
        if e.category != Category::Plugin || e.name != "install" {
            continue;
        }
        installs += 1;
        let ue = e.u64_field("ue").unwrap() as usize;
        let seq = e.u64_field("assign_seq").unwrap();
        assert!(
            seq > last_seq[ue],
            "UE {ue} installed seq {seq} after seq {} at {} ms",
            last_seq[ue],
            e.time_ms
        );
        last_seq[ue] = seq;
    }
    assert_eq!(installs, rb.installs);
    for v in &r.videos {
        assert!(v.stats.average_rate.as_kbps() > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// While a lease is live (i.e. in fallback, bounded by the last leased
    /// assignment), the plugin never requests a level above it — no matter
    /// what the estimator has seen or how full the buffer is.
    #[test]
    fn fallback_never_requests_above_the_last_leased_level(
        cap in 0usize..6,
        rates in prop::collection::vec(50u64..10_000, 1..8),
        buffer_secs in 0u64..60,
    ) {
        let cell = VersionedAssignment::new();
        let mut plugin = ResilientPlugin::new(cell.clone());
        cell.install(1, Level::new(cap));
        cell.end_bai(); // consumes the install as fresh
        for _ in 0..VersionedAssignment::STALE_BAIS {
            cell.end_bai(); // silent -> stale -> fallback
        }
        prop_assert_eq!(cell.mode(), CoordinationMode::Fallback);
        for r in &rates {
            plugin.on_download_complete(observed(*r));
        }
        let ladder = BitrateLadder::simulation();
        let ctx = AdaptContext {
            now: Time::from_secs(100),
            ladder: &ladder,
            buffer_level: TimeDelta::from_secs(buffer_secs),
            last_level: Some(Level::new(0)),
            segment_duration: TimeDelta::from_secs(10),
            segment_index: 7,
        };
        let level = plugin.next_level(&ctx);
        prop_assert!(
            level.index() <= cap,
            "fallback level {} exceeds leased cap {}", level.index(), cap
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fault-injected simulation is a pure function of its seed: two
    /// identically configured runs agree on every counter and sample.
    #[test]
    fn faulty_cellsim_is_deterministic_per_seed(seed in 1u64..500, drop_pct in 0u32..80) {
        let build = || SimConfig::builder()
            .seed(seed)
            .duration(TimeDelta::from_secs(80))
            .videos(2)
            .scheme(SchemeKind::Flare(
                FlareConfig::default().with_robustness(RobustnessConfig),
            ))
            .faults(
                FaultModel::perfect()
                    .with_drop_prob(f64::from(drop_pct) / 100.0)
                    .with_jitter(TimeDelta::from_millis(500)),
            )
            .build();
        let a = CellSim::new(build()).run();
        let b = CellSim::new(build()).run();
        prop_assert_eq!(a.robustness, b.robustness);
        for (va, vb) in a.videos.iter().zip(&b.videos) {
            prop_assert_eq!(va.rate_series.points(), vb.rate_series.points());
        }
    }
}

#[test]
fn overloaded_cell_starves_gracefully() {
    // Eight clients all at iTbs 0: the whole cell carries 1.6 Mbps, a fair
    // share of 200 kbps each. Despite the name the solver never sees an
    // overloaded instance: the floors (8 × 100 kbps) fit, so
    // `is_overloaded` is false. The optimizer packs what fits (a mix of
    // the two lowest tiers), nothing panics, and MAC byte accounting
    // matches the cell's physical capacity.
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let flows: Vec<FlowId> = (0..8)
        .map(|_| enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(0)))))
        .collect();
    let mut server = OneApiServer::new(FlareConfig::default());
    for &f in &flows {
        server.register_video(ClientInfo::new(f, BitrateLadder::simulation()));
    }
    for bai in 0..6u64 {
        keep_backlogged(&mut enb, &flows);
        let report = run_bai(&mut enb, bai);
        let la = enb.link_adaptation().clone();
        let assignments = server.assign(&report, &la, 50);
        assert_eq!(assignments.len(), 8);
        let mut budget = 0.0;
        for a in &assignments {
            assert!(
                a.level.index() <= 1,
                "no client can afford more than 250 kbps here: {:?}",
                a.level
            );
            budget += a.rate.as_kbps();
            enb.set_gbr(a.flow, Some(a.rate));
        }
        // The packed assignment must respect the 1.6 Mbps cell.
        assert!(
            budget <= 1600.0 + 1.0,
            "assignment overshoots capacity: {budget}"
        );
    }
    // The cell still moved bytes — 50 RBs/TTI at 32 bits/RB = 1.6 Mbps
    // (phase-2 PF tops flows up beyond their GBR, so the cell runs full).
    let total: u64 = flows.iter().map(|&f| enb.total_bytes(f).as_u64()).sum();
    let expected = 1_600_000.0 / 8.0 * 60.0; // bytes over 60 s
    assert!(
        (total as f64) > expected * 0.95 && (total as f64) <= expected * 1.01,
        "byte conservation violated: {total} vs ~{expected}"
    );
}

#[test]
fn overloaded_bais_return_floors_and_are_counted() {
    // 24 clients at iTbs 0: their 100 kbps floors add up to 2.4 Mbps, over
    // the 1.6 Mbps the whole cell carries, so every BAI's instance is
    // overloaded. The server hands out the floors, flags each solve event
    // and counts each such BAI.
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let flows: Vec<FlowId> = (0..24)
        .map(|_| enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(0)))))
        .collect();
    let mut server = OneApiServer::new(FlareConfig::default());
    let trace = TraceHandle::new(TraceLevel::Info);
    server.set_trace(trace.clone());
    for &f in &flows {
        server.register_video(ClientInfo::new(f, BitrateLadder::simulation()));
    }
    for bai in 0..3u64 {
        keep_backlogged(&mut enb, &flows);
        let report = run_bai(&mut enb, bai);
        let la = enb.link_adaptation().clone();
        let assignments = server.assign(&report, &la, 50);
        assert_eq!(assignments.len(), 24);
        for a in &assignments {
            assert_eq!(a.level.index(), 0, "overload must pin every floor");
            enb.set_gbr(a.flow, Some(a.rate));
        }
    }
    assert_eq!(trace.snapshot().counter("solver.overloaded"), 3);
    let solves: Vec<_> = trace
        .events()
        .into_iter()
        .filter(|e| e.category == Category::Solver && e.name == "solve")
        .collect();
    assert_eq!(solves.len(), 3);
    for e in &solves {
        assert_eq!(e.bool_field("overloaded"), Some(true), "{e:?}");
    }
}

#[test]
fn overloaded_cell_runs_end_to_end_at_the_floors() {
    // The same overload as above, driven through a whole `CellSim` run with
    // the invariant battery on, which panics on any violation: 24 FLARE
    // players at iTbs 0 cannot all stream even at 100 kbps. Every BAI is
    // overloaded, the server hands out the floors, and (4a)'s check accepts
    // them because they use no more of the budget than the floors
    // themselves.
    let config = SimConfig::builder()
        .videos(24)
        .data_flows(0)
        .channel(ChannelKind::Static { itbs: 0 })
        .scheme(SchemeKind::Flare(FlareConfig::default()))
        .duration(TimeDelta::from_secs(60))
        .bai(TimeDelta::from_secs(10))
        .check_invariants(true)
        .build();
    let lowest = config.ladder.rate(config.ladder.lowest()).as_kbps();
    let trace = TraceHandle::new(TraceLevel::Info);
    let mut config = config;
    config.trace = trace.clone();
    let result = CellSim::new(config).run();
    assert_eq!(result.videos.len(), 24);
    for v in &result.videos {
        assert!(
            !v.rate_series.is_empty(),
            "client {} never started",
            v.index
        );
        for &(t, kbps) in v.rate_series.points() {
            assert_eq!(kbps, lowest, "client {} left level 0 at {t} s", v.index);
        }
    }
    let bais = result.solve_times.len() as u64;
    assert_eq!(bais, 6, "one solve per 10 s BAI of the 60 s run");
    assert_eq!(result.telemetry.counter("solver.overloaded"), bais);
    // `r` stays the floors' own RB share: 24 floors need 1.5 cells.
    let solves: Vec<_> = trace
        .events()
        .into_iter()
        .filter(|e| e.category == Category::Solver && e.name == "solve")
        .collect();
    assert_eq!(solves.len() as u64, bais);
    for e in &solves {
        assert_eq!(e.bool_field("overloaded"), Some(true), "{e:?}");
        let r = e.f64_field("r").expect("solve events carry r");
        assert!((r - 1.5).abs() < 1e-9, "overloaded r {r} != 1.5");
    }
}
