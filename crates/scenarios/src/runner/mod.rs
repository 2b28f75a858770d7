//! The single-cell simulation engine.
//!
//! [`CellSim`] owns the TTI loop and result collection; the per-scheme
//! plugin dispatch (adapter selection, controller construction, BAI and
//! control-plane handling) lives in [`schemes`].

mod schemes;

use std::time::Duration;

use flare_abr::CoordinationMode;
use flare_harness::{InvariantSet, Observation};
use flare_has::{Mpd, Player, PlayerStats};
use flare_lte::channel::{ChannelModel, StaticChannel, TraceChannel, TriangleWave};
use flare_lte::mobility::{snr_to_itbs, MobilityChannel, Position};
use flare_lte::scheduler::{
    MacScheduler, PrioritySetScheduler, ProportionalFair, RoundRobin, StrictGbrPartition,
    TwoPhaseGbr,
};
use flare_lte::{ENodeB, FlowClass, FlowId};
use flare_metrics::{jain_index, TimeSeries};
use flare_sim::rng::{standard_normal, stream};
use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta, TTI};
use flare_trace::{Category, RegistrySnapshot, TraceHandle};
use rand::Rng;

use crate::config::{ChannelKind, SchedulerKind, SimConfig};
use schemes::{Controller, MsgCells};

/// Per-video-flow outcome of a run.
#[derive(Debug, Clone)]
pub struct VideoFlowResult {
    /// Index among the video UEs (0-based).
    pub index: usize,
    /// Player QoE statistics.
    pub stats: PlayerStats,
    /// Selected bitrate over time (kbps, stepped at segment requests).
    pub rate_series: TimeSeries,
    /// Buffered media over time (seconds, sampled each second).
    pub buffer_series: TimeSeries,
    /// Delivered MAC throughput over time (kbps, per second).
    pub throughput_series: TimeSeries,
    /// Average MAC throughput over the run.
    pub average_throughput: Rate,
}

/// Per-data-flow outcome of a run.
#[derive(Debug, Clone)]
pub struct DataFlowResult {
    /// Index among the data UEs (0-based).
    pub index: usize,
    /// Delivered throughput over time (kbps, per second).
    pub throughput_series: TimeSeries,
    /// Average throughput over the run.
    pub average_throughput: Rate,
}

/// Control-plane and degradation telemetry from a message-path run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Control-plane messages delivered.
    pub delivered: u64,
    /// Messages dropped by the loss process.
    pub dropped: u64,
    /// Uplink reports lost to server outage windows.
    pub lost_to_outage: u64,
    /// Messages held back by the reordering process.
    pub reordered: u64,
    /// Client-BAIs spent in fallback mode (summed over clients).
    pub fallback_bais: u64,
    /// Assignments rejected as stale/reordered (summed over clients).
    pub stale_rejections: u64,
    /// Assignments installed by clients (summed over clients).
    pub installs: u64,
    /// GBR leases that expired unrenewed at the eNodeB.
    pub expired_leases: u64,
    /// Clients the server evicted for statistics silence.
    pub evicted_clients: u64,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The scheme that produced it.
    pub scheme: String,
    /// Simulated length.
    pub duration: TimeDelta,
    /// Per-video outcomes, in UE order.
    pub videos: Vec<VideoFlowResult>,
    /// Per-data-flow outcomes, in UE order.
    pub data: Vec<DataFlowResult>,
    /// Wall-clock solver times, one per BAI (network-side schemes only).
    pub solve_times: Vec<Duration>,
    /// Control-plane telemetry (FLARE-family runs only).
    pub robustness: Option<RobustnessReport>,
    /// End-of-run counters, gauges, and timing histograms from the trace
    /// registry. Always populated: runs without an attached recorder use an
    /// internal registry-only one.
    pub telemetry: RegistrySnapshot,
}

impl RunResult {
    /// Mean of the per-client average video bitrates, in kbps.
    pub fn average_video_rate_kbps(&self) -> f64 {
        if self.videos.is_empty() {
            return 0.0;
        }
        self.videos
            .iter()
            .map(|v| v.stats.average_rate.as_kbps())
            .sum::<f64>()
            / self.videos.len() as f64
    }

    /// Mean number of bitrate changes per client.
    pub fn average_bitrate_changes(&self) -> f64 {
        if self.videos.is_empty() {
            return 0.0;
        }
        self.videos
            .iter()
            .map(|v| v.stats.bitrate_changes as f64)
            .sum::<f64>()
            / self.videos.len() as f64
    }

    /// Mean buffer-underflow time per client, in seconds.
    pub fn average_underflow_secs(&self) -> f64 {
        if self.videos.is_empty() {
            return 0.0;
        }
        self.videos
            .iter()
            .map(|v| v.stats.underflow_time.as_secs_f64())
            .sum::<f64>()
            / self.videos.len() as f64
    }

    /// Jain's fairness index over the clients' average video bitrates.
    pub fn jain_of_video_rates(&self) -> f64 {
        let rates: Vec<f64> = self
            .videos
            .iter()
            .map(|v| v.stats.average_rate.as_kbps())
            .collect();
        jain_index(&rates)
    }

    /// Mean data-flow throughput, in kbps.
    pub fn average_data_throughput_kbps(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data
            .iter()
            .map(|d| d.average_throughput.as_kbps())
            .sum::<f64>()
            / self.data.len() as f64
    }
}

/// A fully wired single-cell simulation. Construct with [`CellSim::new`],
/// execute with [`CellSim::run`].
pub struct CellSim {
    config: SimConfig,
    enb: ENodeB,
    video_flows: Vec<FlowId>,
    data_flows: Vec<FlowId>,
    players: Vec<Player>,
    controller: Controller,
    /// Per-UE RNG streams for transport request jitter.
    jitter_rngs: Vec<rand::rngs::SmallRng>,
    /// Segment payloads in transport flight: delivered to the cell at .0.
    pending_requests: Vec<(Time, usize, ByteCount)>,
    /// Shared trace recorder: the user's handle when one was attached via
    /// [`SimConfig::trace`], otherwise an internal registry-only recorder
    /// so counters back [`RunResult::telemetry`] in every run.
    trace: TraceHandle,
    /// Inline runtime invariant battery ([`SimConfig::check_invariants`]):
    /// the first violation panics the run after recording a structured
    /// trace event.
    invariants: Option<InvariantSet>,
    /// Per-video-flow GBR lease expiries snapshotted just before each TTI,
    /// so the lease-return invariant can observe expiries the TTI performs.
    lease_watch: Vec<Option<Time>>,
}

impl CellSim {
    /// Builds the cell, UEs, players, and (for coordinated schemes) the
    /// network-side controller described by `config`.
    pub fn new(config: SimConfig) -> Self {
        let scheduler: Box<dyn MacScheduler> = match config.scheduler {
            SchedulerKind::ProportionalFair => Box::new(ProportionalFair::default()),
            SchedulerKind::TwoPhaseGbr => Box::new(TwoPhaseGbr::default()),
            SchedulerKind::PrioritySet => Box::new(PrioritySetScheduler::default()),
            SchedulerKind::StrictPartition => Box::new(StrictGbrPartition::default()),
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
        };
        let trace = if config.trace.is_attached() {
            config.trace.clone()
        } else {
            TraceHandle::registry_only()
        };
        let mut enb = ENodeB::new(config.cell.clone(), scheduler);
        enb.set_trace(trace.clone());

        let n_total = config.n_video + config.n_data;
        let mut channels: Vec<Box<dyn ChannelModel>> = (0..n_total)
            .map(|i| Self::make_channel(&config, i as u64))
            .collect();

        let video_flows: Vec<FlowId> = (0..config.n_video)
            .map(|_| enb.add_flow(FlowClass::Video, channels.remove(0)))
            .collect();
        let data_flows: Vec<FlowId> = (0..config.n_data)
            .map(|_| enb.add_flow(FlowClass::Data, channels.remove(0)))
            .collect();

        // Media comfortably outlasting the run keeps every player busy.
        let media = config.duration + config.segment.times(4);
        let mpd = |i: usize| {
            Mpd::new(
                format!("video-{i}"),
                config.ladder.clone(),
                config.segment,
                media,
            )
        };

        // The first `coordinated` video UEs follow the configured scheme;
        // any trailing `legacy_video` UEs run a conventional FESTIVE player
        // that a FLARE deployment services as plain data traffic.
        let coordinated = config.n_video - config.legacy_video;

        let mut cells = MsgCells::for_scheme(&config.scheme);
        let mut players: Vec<Player> = (0..config.n_video)
            .map(|i| {
                let adapter = schemes::player_adapter(&config.scheme, i >= coordinated, &mut cells);
                Player::new(mpd(i), config.player.clone(), adapter)
            })
            .collect();

        let controller = schemes::build_controller(
            &config,
            &trace,
            &video_flows,
            &data_flows,
            coordinated,
            cells,
        );

        let jitter_rngs = (0..config.n_video as u64)
            .map(|ue| stream(config.seed, "jitter", ue))
            .collect();
        for (i, player) in players.iter_mut().enumerate() {
            player.set_trace(trace.clone(), i as u64);
        }
        let invariants = config
            .check_invariants
            .then(|| InvariantSet::new(trace.clone()));
        let lease_watch = vec![None; config.n_video];
        // One segment per `segment` interval per player bounds the record
        // count; reserving it up front keeps steady-state stepping
        // allocation-free (see `tests/alloc.rs`).
        for player in &mut players {
            player.reserve_records(player.mpd().segment_count() as usize);
        }
        CellSim {
            config,
            enb,
            video_flows,
            data_flows,
            players,
            controller,
            jitter_rngs,
            pending_requests: Vec::new(),
            trace,
            invariants,
            lease_watch,
        }
    }

    /// Test-only access to the eNodeB, for injecting deliberate violations
    /// (e.g. [`ENodeB::debug_inflate_reported_grants`]) into invariant
    /// tests. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_enb_mut(&mut self) -> &mut ENodeB {
        &mut self.enb
    }

    fn make_channel(config: &SimConfig, ue: u64) -> Box<dyn ChannelModel> {
        match &config.channel {
            ChannelKind::Static { itbs } => {
                Box::new(StaticChannel::new(flare_lte::Itbs::new(*itbs)))
            }
            ChannelKind::Triangle { min, max, period } => {
                let n = (config.n_video + config.n_data) as u64;
                let offset = TimeDelta::from_millis(period.as_millis() * ue / n.max(1));
                Box::new(TriangleWave::new(
                    flare_lte::Itbs::new(*min),
                    flare_lte::Itbs::new(*max),
                    *period,
                    offset,
                ))
            }
            ChannelKind::StationaryRandom(mc) => {
                let mut rng = stream(config.seed, "position", ue);
                let pos = Position {
                    x: rng.gen::<f64>() * mc.area.0,
                    y: rng.gen::<f64>() * mc.area.1,
                };
                let enb_pos = Position {
                    x: mc.area.0 / 2.0,
                    y: mc.area.1 / 2.0,
                };
                let shadow = standard_normal(&mut rng) * mc.propagation.shadowing_sigma_db;
                let snr = mc.propagation.mean_snr_db(pos.distance_to(enb_pos)) + shadow;
                Box::new(StaticChannel::new(snr_to_itbs(snr)))
            }
            ChannelKind::Mobile(mc) => Box::new(MobilityChannel::new(
                mc.clone(),
                stream(config.seed, "walk", ue),
                stream(config.seed, "fade", ue),
            )),
            ChannelKind::Traces(docs) => {
                assert!(!docs.is_empty(), "trace channel list must be non-empty");
                let doc = &docs[(ue as usize) % docs.len()];
                Box::new(
                    TraceChannel::from_csv(doc)
                        .expect("trace documents must be valid (TraceChannel::from_csv)"),
                )
            }
        }
    }

    /// Runs the simulation to completion and returns the collected results.
    ///
    /// Equivalent to driving [`CellSim::into_stepper`] by hand: advance to
    /// each BAI boundary, execute it, repeat until the duration is
    /// exhausted. The benchmark's traced run and the stepper allocation
    /// gate in `tests/alloc.rs` drive the stepper by hand, so what they time
    /// and count is exactly this loop.
    pub fn run(self) -> RunResult {
        let mut stepper = self.into_stepper();
        while stepper.advance_to_bai().is_some() {
            stepper.bai_boundary();
        }
        stepper.into_result()
    }

    /// Converts the simulation into an incrementally driven [`CellStepper`]
    /// so a caller can time or measure each BAI window on its own.
    pub fn into_stepper(self) -> CellStepper {
        let duration_ms = self.config.duration.as_millis();
        let bai_ms = self.config.bai.as_millis();
        let n_video = self.video_flows.len();
        let n_data = self.data_flows.len();

        // Pre-size every sampling vector for the whole run so steady-state
        // stepping never reallocates (the stepper alloc gate measures this
        // path; BAI boundaries are allowed to allocate, TTIs are not).
        let secs = (duration_ms / 1000 + 2) as usize;
        let series = |label: String| {
            let mut ts = TimeSeries::new(label);
            ts.reserve(secs);
            ts
        };
        let rate_series: Vec<TimeSeries> = (0..n_video)
            .map(|i| series(format!("video-{i} rate (kbps)")))
            .collect();
        let buffer_series: Vec<TimeSeries> = (0..n_video)
            .map(|i| series(format!("video-{i} buffer (s)")))
            .collect();
        let video_tput: Vec<TimeSeries> = (0..n_video)
            .map(|i| series(format!("video-{i} throughput (kbps)")))
            .collect();
        let data_tput: Vec<TimeSeries> = (0..n_data)
            .map(|i| series(format!("data-{i} throughput (kbps)")))
            .collect();
        let solve_times = Vec::with_capacity((duration_ms / bai_ms + 1) as usize);

        CellStepper {
            sim: self,
            duration_ms,
            bai_ms,
            ms: 0,
            // Countdown instead of `(ms + 1) % bai_ms`: the modulo is a
            // genuine 64-bit division against a runtime value, once per
            // simulated TTI.
            bai_countdown: bai_ms,
            pending_bai: None,
            rate_series,
            buffer_series,
            video_tput,
            data_tput,
            second_bytes: vec![0u64; n_video + n_data],
            total_bytes: vec![0u64; n_video + n_data],
            solve_times,
        }
    }

    /// Advances every versioned client's staleness clock at the end of a
    /// BAI, after all deliveries due in it.
    fn end_bai_clients(&mut self, now: Time) {
        if let Controller::FlareMsg {
            cells: MsgCells::Versioned(cs, _),
            ..
        } = &self.controller
        {
            for (i, cell) in cs.iter().enumerate() {
                let before = cell.mode();
                cell.end_bai();
                let after = cell.mode();
                if after == CoordinationMode::Fallback {
                    self.trace.incr("plugin.fallback_bais", 1);
                }
                if before != after {
                    let name = match after {
                        CoordinationMode::Fallback => "fallback_enter",
                        CoordinationMode::Coordinated => "fallback_exit",
                    };
                    self.trace.record(now, Category::Plugin, name, |e| {
                        e.u64("ue", i as u64)
                            .u64("stale_bais", u64::from(cell.bais_since_fresh()));
                    });
                }
            }
        }
    }

    /// Feeds the per-TTI observations (RB conservation, lease return,
    /// player sanity) to the invariant battery. Caller guarantees
    /// `self.invariants` is populated.
    fn observe_tti(&mut self, tti_start: Time, tti_end: Time) {
        let inv = self.invariants.as_mut().expect("caller checked");
        inv.observe(
            tti_end,
            &Observation::TtiGrant {
                granted: self.enb.last_tti_granted_rbs(),
                budget: self.enb.config().rbs_per_tti,
            },
        );
        for (i, &flow) in self.video_flows.iter().enumerate() {
            let Some(expiry) = self.lease_watch[i] else {
                continue;
            };
            if tti_start >= expiry {
                // The lease was due this TTI: the reservation must be gone
                // (observed before any control-plane delivery can renew it).
                let gbr_cleared =
                    self.enb.qos(flow).gbr.is_none() && self.enb.lease_expiry(flow).is_none();
                inv.observe(
                    tti_end,
                    &Observation::LeaseExpiry {
                        flow: flow.index() as u64,
                        gbr_cleared,
                    },
                );
            }
        }
        let resume_threshold_ms = self.config.player.resume_threshold.as_millis() as i64;
        for (i, player) in self.players.iter().enumerate() {
            inv.observe(
                tti_end,
                &Observation::PlayerState {
                    ue: i as u64,
                    buffer_ms: player.buffer_level().as_millis() as i64,
                    stalled: player.stalled(),
                    rebuffer_events: player.rebuffer_events(),
                    resume_threshold_ms,
                    finished: player.finished(),
                },
            );
        }
    }
}

/// A [`CellSim`] broken open at BAI granularity.
///
/// [`CellStepper::advance_to_bai`] runs the per-TTI work (playback, MAC
/// scheduling, per-second sampling, control-plane deliveries) up to and
/// including the TTI that closes a BAI, then pauses and reports the
/// boundary time; [`CellStepper::bai_boundary`] executes the coordination
/// step for that boundary (server solve, assignment installs, client
/// staleness clocks). Splitting the two lets a caller time or measure each
/// half on its own while keeping the statement order — and therefore every
/// trace byte and RNG draw — identical to [`CellSim::run`].
pub struct CellStepper {
    sim: CellSim,
    duration_ms: u64,
    bai_ms: u64,
    /// Next TTI to simulate, in ms since the start of the run.
    ms: u64,
    bai_countdown: u64,
    /// Set when a BAI boundary has been reached but not yet executed.
    pending_bai: Option<Time>,
    rate_series: Vec<TimeSeries>,
    buffer_series: Vec<TimeSeries>,
    video_tput: Vec<TimeSeries>,
    data_tput: Vec<TimeSeries>,
    second_bytes: Vec<u64>,
    total_bytes: Vec<u64>,
    solve_times: Vec<Duration>,
}

impl CellStepper {
    /// Simulates TTIs until the next BAI boundary and returns its time, or
    /// `None` once the configured duration is exhausted (any trailing
    /// partial BAI is still simulated before `None` is returned).
    ///
    /// A returned boundary must be executed with
    /// [`CellStepper::bai_boundary`] before advancing further.
    pub fn advance_to_bai(&mut self) -> Option<Time> {
        assert!(
            self.pending_bai.is_none(),
            "advance_to_bai called with an unexecuted BAI boundary pending"
        );
        let n_video = self.sim.video_flows.len();
        let n_data = self.sim.data_flows.len();
        while self.ms < self.duration_ms {
            let ms = self.ms;
            self.ms += 1;
            let tti_start = Time::from_millis(ms);
            let tti_end = Time::from_millis(ms + 1);

            // 1. Players play back 1 ms and may issue a segment request.
            let jitter_ms = self.sim.config.request_jitter.as_millis();
            for (i, player) in self.sim.players.iter_mut().enumerate() {
                if let Some(req) = player.step(tti_end, TTI) {
                    if jitter_ms == 0 {
                        self.sim
                            .enb
                            .push_backlog(self.sim.video_flows[i], req.bytes);
                    } else {
                        // The request spends a transport-dependent time in
                        // flight before bytes appear at the eNodeB.
                        let delay = self.sim.jitter_rngs[i].gen_range(0..=jitter_ms);
                        self.sim.pending_requests.push((
                            tti_end + TimeDelta::from_millis(delay),
                            i,
                            req.bytes,
                        ));
                    }
                    self.rate_series[i].push(
                        tti_end.as_secs_f64(),
                        self.sim.config.ladder.rate(req.level).as_kbps(),
                    );
                }
            }
            // Requests due by the end of this TTI reach the eNodeB in issue
            // order; the rest stay queued, in place, without allocating.
            let (enb, video_flows) = (&mut self.sim.enb, &self.sim.video_flows);
            self.sim.pending_requests.retain(|&(at, i, bytes)| {
                let due = at <= tti_end;
                if due {
                    enb.push_backlog(video_flows[i], bytes);
                }
                !due
            });

            // 2. One TTI of MAC scheduling and delivery. When invariants are
            // on, lease expiries performed inside the TTI are observed
            // against the pre-TTI snapshot.
            if self.sim.invariants.is_some() {
                for (i, &flow) in self.sim.video_flows.iter().enumerate() {
                    self.sim.lease_watch[i] = self.sim.enb.lease_expiry(flow);
                }
            }
            for d in self.sim.enb.step_tti(tti_start) {
                let idx = d.flow.index();
                self.second_bytes[idx] += d.bytes.as_u64();
                self.total_bytes[idx] += d.bytes.as_u64();
                if idx < n_video {
                    self.sim.players[idx].on_delivered(tti_end, d.bytes);
                }
            }
            if self.sim.invariants.is_some() {
                self.sim.observe_tti(tti_start, tti_end);
            }

            // 3. Per-second sampling.
            if (ms + 1).is_multiple_of(1000) {
                let t = tti_end.as_secs_f64();
                for i in 0..n_video {
                    self.buffer_series[i].push(t, self.sim.players[i].buffer_level().as_secs_f64());
                    self.video_tput[i].push(
                        t,
                        ByteCount::new(self.second_bytes[i]).as_bits() as f64 / 1000.0,
                    );
                    self.second_bytes[i] = 0;
                }
                for i in 0..n_data {
                    self.data_tput[i].push(
                        t,
                        ByteCount::new(self.second_bytes[n_video + i]).as_bits() as f64 / 1000.0,
                    );
                    self.second_bytes[n_video + i] = 0;
                }
            }

            // 4. Control-plane deliveries (delayed/reordered messages land
            // between BAIs), then — at a boundary — hand control back to
            // the caller so a coordinator can run the barrier step.
            self.sim.poll_control(tti_end);
            self.bai_countdown -= 1;
            if self.bai_countdown == 0 {
                self.bai_countdown = self.bai_ms;
                self.pending_bai = Some(tti_end);
                return self.pending_bai;
            }
        }
        None
    }

    /// Executes the BAI boundary reached by the last
    /// [`CellStepper::advance_to_bai`]: the coordination solve, the
    /// same-tick control-plane deliveries a perfect (zero-delay) plane
    /// makes, and the per-BAI client staleness clocks.
    pub fn bai_boundary(&mut self) {
        let now = self
            .pending_bai
            .take()
            .expect("bai_boundary called with no BAI boundary pending");
        self.sim.run_bai(now, &mut self.solve_times);
        // A perfect (zero-delay) control plane delivers this BAI's
        // messages within the same tick.
        self.sim.poll_control(now);
        // Client-side staleness clocks advance once per BAI, after all
        // deliveries due in it.
        self.sim.end_bai_clients(now);
    }

    /// Sim time at the start of the next TTI to be simulated.
    pub fn now(&self) -> Time {
        Time::from_millis(self.ms)
    }

    /// Consumes the stepper and assembles the [`RunResult`].
    pub fn into_result(mut self) -> RunResult {
        let n_video = self.sim.video_flows.len();
        let n_data = self.sim.data_flows.len();
        let videos = (0..n_video)
            .map(|i| {
                let stats: PlayerStats = self.sim.players[i].stats();
                VideoFlowResult {
                    index: i,
                    stats,
                    rate_series: std::mem::replace(&mut self.rate_series[i], TimeSeries::new("")),
                    buffer_series: std::mem::replace(
                        &mut self.buffer_series[i],
                        TimeSeries::new(""),
                    ),
                    throughput_series: std::mem::replace(
                        &mut self.video_tput[i],
                        TimeSeries::new(""),
                    ),
                    average_throughput: ByteCount::new(self.total_bytes[i])
                        .rate_over(self.sim.config.duration),
                }
            })
            .collect();
        let data = (0..n_data)
            .map(|i| DataFlowResult {
                index: i,
                throughput_series: std::mem::replace(&mut self.data_tput[i], TimeSeries::new("")),
                average_throughput: ByteCount::new(self.total_bytes[n_video + i])
                    .rate_over(self.sim.config.duration),
            })
            .collect();

        // The degradation report is read back from the trace registry: the
        // instrumented components (control plane, plugins, eNodeB PCEF,
        // server) mirror their counters into it as they run, so a single
        // snapshot replaces the per-component accessor sweep.
        let telemetry = self.sim.trace.snapshot();
        let robustness = match &self.sim.controller {
            Controller::FlareMsg { .. } => Some(RobustnessReport {
                delivered: telemetry.counter("control.delivered"),
                dropped: telemetry.counter("control.dropped"),
                lost_to_outage: telemetry.counter("control.lost_to_outage"),
                reordered: telemetry.counter("control.reordered"),
                fallback_bais: telemetry.counter("plugin.fallback_bais"),
                stale_rejections: telemetry.counter("plugin.stale_rejections"),
                installs: telemetry.counter("plugin.installs"),
                expired_leases: telemetry.counter("enforce.lease_expiries"),
                evicted_clients: telemetry.counter("server.evicted"),
            }),
            _ => None,
        };

        RunResult {
            scheme: self.sim.config.scheme.name().to_owned(),
            duration: self.sim.config.duration,
            videos,
            data,
            solve_times: self.solve_times,
            robustness,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use flare_core::FlareConfig;
    use flare_lte::mobility::MobilityConfig;
    use flare_trace::TraceConfig;

    fn base(scheme: SchemeKind) -> SimConfig {
        SimConfig::builder()
            .seed(3)
            .duration(TimeDelta::from_secs(120))
            .bai(TimeDelta::from_secs(10))
            .videos(2)
            .data_flows(1)
            .channel(ChannelKind::Static { itbs: 10 })
            .scheme(scheme)
            .build()
    }

    fn base_checked(scheme: SchemeKind) -> SimConfig {
        SimConfig::builder()
            .seed(3)
            .duration(TimeDelta::from_secs(120))
            .bai(TimeDelta::from_secs(10))
            .videos(2)
            .data_flows(1)
            .channel(ChannelKind::Static { itbs: 10 })
            .scheme(scheme)
            .check_invariants(true)
            .build()
    }

    /// FLARE-R, 3 video + 1 data UEs, over a control plane that drops 30 %
    /// of messages and jitters the rest by up to 800 ms.
    fn faulty_resilient(secs: u64) -> crate::config::SimConfigBuilder {
        SimConfig::builder()
            .seed(11)
            .duration(TimeDelta::from_secs(secs))
            .bai(TimeDelta::from_secs(10))
            .videos(3)
            .data_flows(1)
            .channel(ChannelKind::Static { itbs: 10 })
            .scheme(SchemeKind::Flare(
                FlareConfig::default().with_robustness(flare_core::RobustnessConfig::default()),
            ))
            .faults(
                flare_core::FaultModel::perfect()
                    .with_drop_prob(0.3)
                    .with_jitter(TimeDelta::from_millis(800)),
            )
    }

    #[test]
    fn festive_run_produces_complete_results() {
        let result = CellSim::new(base(SchemeKind::Festive)).run();
        assert_eq!(result.scheme, "FESTIVE");
        assert_eq!(result.videos.len(), 2);
        assert_eq!(result.data.len(), 1);
        assert!(result.videos[0].stats.segments > 3);
        assert!(result.average_video_rate_kbps() > 0.0);
        assert!(result.average_data_throughput_kbps() > 0.0);
        assert!(
            result.solve_times.is_empty(),
            "client-side scheme never solves"
        );
        // 120 s run -> 120 per-second samples.
        assert_eq!(result.videos[0].buffer_series.len(), 120);
        assert_eq!(result.data[0].throughput_series.len(), 120);
    }

    #[test]
    fn flare_run_assigns_and_enforces() {
        let result = CellSim::new(base(SchemeKind::Flare(FlareConfig::default()))).run();
        assert_eq!(result.scheme, "FLARE");
        // 120 s / 10 s BAI = 12 solves.
        assert_eq!(result.solve_times.len(), 12);
        assert!(result.videos.iter().all(|v| v.stats.segments > 0));
    }

    #[test]
    fn avis_run_caps_flows() {
        let result = CellSim::new(base(SchemeKind::Avis(Default::default()))).run();
        assert_eq!(result.scheme, "AVIS");
        assert!(result.videos.iter().all(|v| v.stats.segments > 0));
    }

    #[test]
    fn runs_are_deterministic() {
        let a = CellSim::new(base(SchemeKind::Flare(FlareConfig::default()))).run();
        let b = CellSim::new(base(SchemeKind::Flare(FlareConfig::default()))).run();
        assert_eq!(
            a.videos[0].rate_series.points(),
            b.videos[0].rate_series.points()
        );
        assert_eq!(
            a.data[0].throughput_series.points(),
            b.data[0].throughput_series.points()
        );
    }

    #[test]
    fn mobile_channel_runs() {
        let config = SimConfig::builder()
            .seed(5)
            .duration(TimeDelta::from_secs(60))
            .videos(2)
            .data_flows(0)
            .channel(ChannelKind::Mobile(MobilityConfig::default()))
            .scheme(SchemeKind::Festive)
            .build();
        let result = CellSim::new(config).run();
        assert!(result.videos[0].stats.segments > 0);
    }

    #[test]
    fn request_jitter_destabilizes_estimating_clients_but_not_flare() {
        // With per-request transport jitter, FESTIVE's throughput samples
        // get noisy and its selections flap more; FLARE's plugin ignores
        // client estimates entirely, so its stability budget is untouched.
        let mk = |scheme: SchemeKind, jitter_ms: u64| {
            let cfg = SimConfig::builder()
                .seed(13)
                .duration(TimeDelta::from_secs(400))
                .videos(4)
                .data_flows(0)
                .channel(ChannelKind::Static { itbs: 6 })
                .request_jitter(TimeDelta::from_millis(jitter_ms))
                .scheme(scheme)
                .build();
            CellSim::new(cfg).run()
        };
        let festive_ideal = mk(SchemeKind::Festive, 0);
        let festive_jitter = mk(SchemeKind::Festive, 1500);
        assert!(
            festive_jitter.average_bitrate_changes() >= festive_ideal.average_bitrate_changes(),
            "jitter should not stabilize FESTIVE: {} vs {}",
            festive_jitter.average_bitrate_changes(),
            festive_ideal.average_bitrate_changes()
        );
        let flare_ideal = mk(SchemeKind::Flare(FlareConfig::default()), 0);
        let flare_jitter = mk(SchemeKind::Flare(FlareConfig::default()), 1500);
        assert!(
            flare_jitter.average_bitrate_changes() <= flare_ideal.average_bitrate_changes() + 1.0,
            "FLARE must stay stable under jitter: {} vs {}",
            flare_jitter.average_bitrate_changes(),
            flare_ideal.average_bitrate_changes()
        );
        // And jittered FLARE still never stalls (GBR pacing absorbs it).
        assert_eq!(flare_jitter.average_underflow_secs(), 0.0);
    }

    #[test]
    fn recorded_traces_replay_identically_to_live_mobility() {
        use flare_lte::mobility::generate_trace;
        use flare_sim::rng::stream;

        // Record each UE's live mobility process to CSV, then run the same
        // scenario once live and once from the recorded traces: identical
        // channels must produce identical results.
        let mc = MobilityConfig::default();
        let n = 3usize;
        let seed = 6;
        let duration = TimeDelta::from_secs(90);
        let docs: Vec<String> = (0..n as u64)
            .map(|ue| {
                generate_trace(
                    &mc,
                    duration,
                    stream(seed, "walk", ue),
                    stream(seed, "fade", ue),
                )
                .to_csv()
            })
            .collect();
        let mk = |channel: ChannelKind| {
            SimConfig::builder()
                .seed(seed)
                .duration(duration)
                .videos(n)
                .data_flows(0)
                .channel(channel)
                .scheme(SchemeKind::Festive)
                .build()
        };
        let live = CellSim::new(mk(ChannelKind::Mobile(mc.clone()))).run();
        let replay = CellSim::new(mk(ChannelKind::Traces(docs))).run();
        for (a, b) in live.videos.iter().zip(&replay.videos) {
            assert_eq!(a.rate_series.points(), b.rate_series.points());
            assert_eq!(a.throughput_series.points(), b.throughput_series.points());
        }
    }

    #[test]
    fn jain_index_is_high_for_symmetric_clients() {
        let result = CellSim::new(base(SchemeKind::Flare(FlareConfig::default()))).run();
        assert!(result.jain_of_video_rates() > 0.9);
    }

    #[test]
    fn fault_free_flare_runs_over_a_lossless_control_plane() {
        // With no faults set, FLARE still carries every report and
        // assignment over the control plane, and the plane loses nothing.
        let trace = TraceHandle::new(TraceConfig::debug());
        let mut cfg = base(SchemeKind::Flare(FlareConfig::default()));
        cfg.trace = trace.clone();
        let result = CellSim::new(cfg).run();
        let r = result.robustness.expect("FLARE reports control telemetry");
        assert_eq!(
            (r.dropped, r.lost_to_outage, r.reordered, r.fallback_bais),
            (0, 0, 0, 0)
        );
        let sent = |link: &str| {
            trace
                .events()
                .iter()
                .filter(|e| {
                    e.category == Category::Control
                        && e.name == "sent"
                        && e.str_field("link") == Some(link)
                })
                .count() as u64
        };
        let (reports, assignments) = (sent("up"), sent("down"));
        // One report per 10 s BAI of the 120 s run, one assignment per
        // video client per BAI.
        assert_eq!((reports, assignments), (12, 24));
        assert_eq!(r.delivered, reports + assignments);
    }

    #[test]
    fn gbr_only_flare_obeys_the_fault_model() {
        let run = |faults| {
            let mut cfg = base(SchemeKind::FlareGbrOnly(FlareConfig::default()));
            cfg.faults = faults;
            CellSim::new(cfg)
                .run()
                .robustness
                .expect("GBR-only runs report telemetry")
        };
        let lossless = run(flare_core::FaultModel::perfect());
        assert_eq!(lossless.dropped, 0);
        assert!(lossless.delivered > 0);
        let lossy = run(flare_core::FaultModel::perfect().with_drop_prob(1.0));
        assert!(lossy.dropped > 0);
        assert_eq!(lossy.delivered, 0, "nothing can get through");
    }

    #[test]
    fn resilient_flare_survives_total_control_plane_loss() {
        let cfg = SimConfig::builder()
            .seed(3)
            .duration(TimeDelta::from_secs(200))
            .bai(TimeDelta::from_secs(10))
            .videos(2)
            .data_flows(0)
            .channel(ChannelKind::Static { itbs: 10 })
            .scheme(SchemeKind::Flare(
                FlareConfig::default().with_robustness(flare_core::RobustnessConfig::default()),
            ))
            .faults(flare_core::FaultModel::perfect().with_drop_prob(1.0))
            .build();
        let result = CellSim::new(cfg).run();
        assert_eq!(result.scheme, "FLARE-R");
        let r = result.robustness.unwrap();
        assert_eq!(r.installs, 0, "nothing can get through");
        assert!(r.dropped > 0);
        assert!(r.fallback_bais > 0, "clients must notice the dead loop");
        // Playback continues on the fallback policy.
        assert!(result.videos.iter().all(|v| v.stats.segments > 3));
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let mk = || CellSim::new(faulty_resilient(150).build()).run();
        let (a, b) = (mk(), mk());
        assert_eq!(a.robustness, b.robustness);
        for (va, vb) in a.videos.iter().zip(&b.videos) {
            assert_eq!(va.rate_series.points(), vb.rate_series.points());
        }
    }

    #[test]
    fn every_scheme_runs_clean_under_invariants() {
        // The standard invariant battery (RB conservation, lease return,
        // (4a)/(4b), player sanity, monotone installs) hard-fails, so simply
        // finishing these runs is the assertion.
        for scheme in [
            SchemeKind::Festive,
            SchemeKind::Google,
            SchemeKind::Flare(FlareConfig::default()),
            SchemeKind::FlareGbrOnly(FlareConfig::default()),
            SchemeKind::Avis(Default::default()),
        ] {
            let name = scheme.name();
            let result = CellSim::new(base_checked(scheme)).run();
            assert!(result.videos[0].stats.segments > 0, "{name} run degenerate");
        }
    }

    #[test]
    fn faulty_resilient_run_is_clean_under_invariants() {
        // The message path exercises the install and lease-return checks:
        // drops and reordering must produce stale *rejections*, never an
        // out-of-order install or a leaked lease.
        let cfg = faulty_resilient(150).check_invariants(true).build();
        let result = CellSim::new(cfg).run();
        assert!(result.robustness.unwrap().installs > 0);
    }

    #[test]
    #[should_panic(expected = "rb_conservation")]
    fn injected_over_grant_trips_rb_conservation() {
        // The test-only hook distorts only what the eNodeB *reports* to the
        // invariant layer, so this exercises exactly the detection path.
        let mut sim = CellSim::new(base_checked(SchemeKind::Festive));
        sim.debug_enb_mut().debug_inflate_reported_grants(51);
        let _ = sim.run();
    }

    #[test]
    fn injected_violation_is_recorded_as_a_trace_event_before_failing() {
        let trace = TraceHandle::new(TraceConfig::info());
        let cfg = SimConfig::builder()
            .seed(3)
            .duration(TimeDelta::from_secs(5))
            .videos(1)
            .data_flows(0)
            .channel(ChannelKind::Static { itbs: 10 })
            .scheme(SchemeKind::Festive)
            .trace(trace.clone())
            .check_invariants(true)
            .build();
        let mut sim = CellSim::new(cfg);
        sim.debug_enb_mut().debug_inflate_reported_grants(51);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(outcome.is_err(), "hard-fail mode must panic");
        let recorded = trace.events().into_iter().any(|e| {
            e.category == Category::Invariant
                && e.name == "violation"
                && e.str_field("inv") == Some("rb_conservation")
        });
        assert!(recorded, "violation must surface as a structured event");
        assert_eq!(trace.snapshot().counter("invariant.violations"), 1);
    }

    #[test]
    fn invariant_checking_does_not_change_results() {
        // The observation path is read-only: a checked and an unchecked run
        // of the same faulty cell write the same trace bytes and counters.
        let run = |check: bool| {
            let trace = TraceHandle::new(TraceConfig::info());
            let cfg = faulty_resilient(300)
                .trace(trace.clone())
                .check_invariants(check)
                .build();
            let _ = CellSim::new(cfg).run();
            (trace.to_jsonl(), trace.snapshot())
        };
        let (plain_jsonl, plain) = run(false);
        let (checked_jsonl, checked) = run(true);
        assert_eq!(plain_jsonl, checked_jsonl);
        assert_eq!(plain.counters, checked.counters);
        // The install and lease-expiry observations really ran.
        assert!(checked.counter("plugin.installs") > 0);
        assert!(checked.counter("enforce.lease_expiries") > 0);
    }
}
