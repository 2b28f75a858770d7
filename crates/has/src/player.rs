//! The HAS client player: request scheduling, buffer dynamics, statistics.

use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceHandle};

use crate::adapter::{AdaptContext, DownloadSample, RateAdapter};
use crate::buffer::PlaybackBuffer;
use crate::ladder::Level;
use crate::mpd::Mpd;

/// The resolution of [`Time`]: a deadline lands on the first step after the
/// buffer crosses a level.
const ONE_MS: TimeDelta = TimeDelta::from_millis(1);

/// Player timing configuration.
///
/// The reference player behaviours in the paper map onto these knobs: the
/// static-scenario GOOGLE player requests the next segment when the buffer
/// falls below 15 s (`request_threshold`), the dynamic-scenario variant
/// below 40 s, and playback stalls are declared when buffered media runs
/// out, resuming once a full segment is buffered again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayerConfig {
    /// Begin playback once this much media is buffered.
    pub startup_threshold: TimeDelta,
    /// After a stall, resume once this much media is buffered.
    pub resume_threshold: TimeDelta,
    /// Request the next segment while less than this much media is buffered.
    pub request_threshold: TimeDelta,
}

impl Default for PlayerConfig {
    /// Start and resume after one 10-second segment; keep up to 30 s
    /// buffered.
    fn default() -> Self {
        PlayerConfig {
            startup_threshold: TimeDelta::from_secs(10),
            resume_threshold: TimeDelta::from_secs(10),
            request_threshold: TimeDelta::from_secs(30),
        }
    }
}

/// A segment request the player wants sent to the media server.
///
/// The harness forwards `bytes` to the cell as downlink backlog for the
/// player's flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRequest {
    /// Zero-based index of the requested segment.
    pub segment_index: u64,
    /// The encoding requested.
    pub level: Level,
    /// Segment size in bytes.
    pub bytes: ByteCount,
}

/// One fully downloaded segment, for offline analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRecord {
    /// Zero-based segment index.
    pub segment_index: u64,
    /// Encoding that was downloaded.
    pub level: Level,
    /// The encoding's nominal bitrate.
    pub rate: Rate,
    /// Segment size in bytes.
    pub bytes: ByteCount,
    /// When the request was issued.
    pub requested_at: Time,
    /// When the last byte arrived.
    pub completed_at: Time,
    /// Buffered media right after this segment was appended.
    pub buffer_after: TimeDelta,
}

impl SegmentRecord {
    /// Average download throughput for this segment.
    pub fn throughput(&self) -> Rate {
        self.bytes
            .rate_over(self.completed_at.since(self.requested_at))
    }
}

/// Summary statistics over a finished run (the paper's QoE metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct PlayerStats {
    /// Mean nominal bitrate over all downloaded segments.
    pub average_rate: Rate,
    /// Number of times consecutive segments changed encoding.
    pub bitrate_changes: u64,
    /// Total time playback was stalled after it first started.
    pub underflow_time: TimeDelta,
    /// Number of distinct stall events.
    pub rebuffer_events: u64,
    /// Number of downloaded segments.
    pub segments: u64,
    /// When playback first started, if it did.
    pub playback_started_at: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
struct Download {
    segment_index: u64,
    level: Level,
    total: ByteCount,
    received: ByteCount,
    requested_at: Time,
}

/// The HAS client state machine.
///
/// Drive it with [`Player::step`] once per simulation tick; forward any
/// returned [`SegmentRequest`] to the network; report radio deliveries back
/// with [`Player::on_delivered`]. Steps must be contiguous and start at
/// time zero: each step's `now - dt` is the previous step's `now`.
///
/// Between segment completions the buffer is a linear function of time, so
/// after each full step the player computes a wake deadline: the first step
/// time at which it can do anything other than drain a non-empty buffer
/// (the buffer runs out, or falls below `request_threshold` with no download
/// in flight). While stalled or before playback starts only a delivery can
/// change its state, and the deadline is [`Time::MAX`]; a segment
/// completion makes the next step a full one. Steps before the deadline
/// only record their time. The skipped playback (drained media, or
/// underflow time while stalled) is caught up exactly before any full step
/// or completion, and the getters add it on the fly, so every getter,
/// record and trace event equals that of a player stepped in full each
/// tick.
pub struct Player {
    mpd: Mpd,
    config: PlayerConfig,
    adapter: Box<dyn RateAdapter>,
    buffer: PlaybackBuffer,
    download: Option<Download>,
    next_segment: u64,
    started: bool,
    stalled: bool,
    playback_started_at: Option<Time>,
    underflow_time: TimeDelta,
    rebuffer_events: u64,
    records: Vec<SegmentRecord>,
    trace: TraceHandle,
    ue: u64,
    /// `now` of the latest step.
    clock: Time,
    /// Time up to which `buffer` and `underflow_time` are accounted. The
    /// steps in `(synced, clock]` were skipped: each only drained the
    /// buffer, or added to the underflow time while stalled.
    synced: Time,
    /// Steps before this time are skipped.
    wake_at: Time,
}

impl std::fmt::Debug for Player {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Player")
            .field("adapter", &self.adapter.name())
            .field("next_segment", &self.next_segment)
            .field("buffer", &self.buffer_level())
            .field("stalled", &self.stalled)
            .finish()
    }
}

impl Player {
    /// Creates a player for `mpd` driven by `adapter`.
    pub fn new(mpd: Mpd, config: PlayerConfig, adapter: Box<dyn RateAdapter>) -> Self {
        Player {
            mpd,
            config,
            adapter,
            buffer: PlaybackBuffer::new(),
            download: None,
            next_segment: 0,
            started: false,
            stalled: false,
            playback_started_at: None,
            underflow_time: TimeDelta::ZERO,
            rebuffer_events: 0,
            records: Vec::new(),
            trace: TraceHandle::disabled(),
            ue: 0,
            clock: Time::ZERO,
            synced: Time::ZERO,
            wake_at: Time::ZERO,
        }
    }

    /// Attaches a trace recorder; `ue` tags this player's
    /// [`Category::Player`] events so traces from multiple players sharing
    /// one recorder stay distinguishable.
    pub fn set_trace(&mut self, trace: TraceHandle, ue: u64) {
        self.trace = trace;
        self.ue = ue;
    }

    /// The manifest being played.
    pub fn mpd(&self) -> &Mpd {
        &self.mpd
    }

    /// Seconds of media currently buffered.
    pub fn buffer_level(&self) -> TimeDelta {
        if self.started && !self.stalled {
            // Saturating: an idle player (all media played) skips steps
            // with an empty buffer.
            self.buffer.level().saturating_sub(self.lag())
        } else {
            self.buffer.level()
        }
    }

    /// Whether a download is currently in flight.
    pub fn downloading(&self) -> bool {
        self.download.is_some()
    }

    /// Whether every segment has been downloaded.
    pub fn finished(&self) -> bool {
        self.download.is_none() && self.next_segment >= self.mpd.segment_count()
    }

    /// Whether playback is currently stalled waiting for buffer to refill.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Number of rebuffering events so far (monotone over a run).
    pub fn rebuffer_events(&self) -> u64 {
        self.rebuffer_events
    }

    /// All completed segments so far.
    pub fn records(&self) -> &[SegmentRecord] {
        &self.records
    }

    /// Reserves capacity for `n` segment records up front so steady-state
    /// playback never reallocates the record log (a run completes at most
    /// one record per MPD segment).
    pub fn reserve_records(&mut self, n: usize) {
        self.records.reserve(n.saturating_sub(self.records.len()));
    }

    /// Advances playback by `dt` ending at time `now`, and issues the next
    /// segment request if the player is idle and hungry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dt` exceeds `now` (time under-run), or if
    /// the step does not start where the previous one ended.
    #[inline]
    pub fn step(&mut self, now: Time, dt: TimeDelta) -> Option<SegmentRequest> {
        debug_assert!(
            now.as_millis() >= dt.as_millis(),
            "dt larger than elapsed time"
        );
        debug_assert_eq!(now - dt, self.clock, "steps must be contiguous");
        if now < self.wake_at {
            self.clock = now;
            return None;
        }
        self.step_full(now, dt)
    }

    fn step_full(&mut self, now: Time, dt: TimeDelta) -> Option<SegmentRequest> {
        self.catch_up();
        self.advance_playback(now, dt);
        let request = self.maybe_request(now);
        self.clock = now;
        self.synced = now;
        self.wake_at = self.next_wake(now);
        request
    }

    /// Playback skipped since `synced`.
    fn lag(&self) -> TimeDelta {
        self.clock.since(self.synced)
    }

    /// Applies the playback of the skipped steps.
    fn catch_up(&mut self) {
        let lag = self.lag();
        self.synced = self.clock;
        if self.stalled {
            self.underflow_time += lag;
        } else if self.started {
            // The deadline keeps the buffer from running out while steps
            // are skipped, except for an idle player's empty buffer.
            self.buffer.drain(lag);
        }
    }

    /// The first step time at which the player, as it stands after a full
    /// step at `now`, can do anything other than drain a non-empty buffer.
    fn next_wake(&self, now: Time) -> Time {
        let level = self.buffer.level();
        if self.stalled {
            // A stall that began this step checks the resume threshold on
            // the next one.
            return if level >= self.config.resume_threshold {
                now
            } else {
                Time::MAX
            };
        }
        if !self.started || (self.buffer.is_empty() && self.finished()) {
            return Time::MAX;
        }
        // The step after the buffer runs out stalls or goes idle.
        let empty = now + level + ONE_MS;
        if self.download.is_some() || self.next_segment >= self.mpd.segment_count() {
            return empty;
        }
        // No request this step, so `level >= request_threshold`.
        empty.min(now + (level - self.config.request_threshold) + ONE_MS)
    }

    /// The per-tick step the deadline replaced: the oracle the deadline
    /// player is tested against.
    #[cfg(test)]
    fn step_every_tick(&mut self, now: Time, dt: TimeDelta) -> Option<SegmentRequest> {
        self.advance_playback(now, dt);
        self.maybe_request(now)
    }

    fn advance_playback(&mut self, now: Time, dt: TimeDelta) {
        if !self.started {
            if self.buffer.level() >= self.config.startup_threshold
                || (self.finished() && !self.buffer.is_empty())
            {
                self.started = true;
                self.playback_started_at = Some(now - dt);
            } else {
                return;
            }
        }
        if self.stalled {
            self.underflow_time += dt;
            if self.buffer.level() >= self.config.resume_threshold {
                self.stalled = false;
                let ue = self.ue;
                let buffer_ms = self.buffer.level().as_millis();
                self.trace.record(now, Category::Player, "resume", |e| {
                    e.u64("ue", ue).u64("buffer_ms", buffer_ms);
                });
            }
            return;
        }
        // Nothing left to play and nothing left to fetch: idle, not a stall.
        if self.finished() && self.buffer.is_empty() {
            return;
        }
        let starved = self.buffer.drain(dt);
        if !starved.is_zero() {
            self.stalled = true;
            self.rebuffer_events += 1;
            self.underflow_time += starved;
            self.trace.incr("player.stalls", 1);
            let ue = self.ue;
            self.trace.record(now, Category::Player, "stall", |e| {
                e.u64("ue", ue);
            });
        }
    }

    fn maybe_request(&mut self, now: Time) -> Option<SegmentRequest> {
        if self.download.is_some()
            || self.next_segment >= self.mpd.segment_count()
            || self.buffer.level() >= self.config.request_threshold
        {
            return None;
        }
        let ctx = AdaptContext {
            now,
            ladder: self.mpd.ladder(),
            buffer_level: self.buffer.level(),
            last_level: self.records.last().map(|r| r.level),
            segment_duration: self.mpd.segment_duration(),
            segment_index: self.next_segment,
        };
        let level = self.mpd.ladder().clamp(self.adapter.next_level(&ctx));
        let bytes = self
            .mpd
            .ladder()
            .rate(level)
            .bytes_over(self.mpd.segment_duration());
        self.download = Some(Download {
            segment_index: self.next_segment,
            level,
            total: bytes,
            received: ByteCount::ZERO,
            requested_at: now,
        });
        self.trace.incr("player.requests", 1);
        {
            let ue = self.ue;
            let segment = self.next_segment;
            let buffer_ms = self.buffer.level().as_millis();
            self.trace
                .record_debug(now, Category::Player, "request", |e| {
                    e.u64("ue", ue)
                        .u64("segment", segment)
                        .u64("level", level.index() as u64)
                        .u64("bytes", bytes.as_u64())
                        .u64("buffer_ms", buffer_ms);
                });
        }
        Some(SegmentRequest {
            segment_index: self.next_segment,
            level,
            bytes,
        })
    }

    /// Reports `bytes` of the in-flight segment as delivered at `now`.
    /// Returns the completed record when the segment finishes.
    ///
    /// Bytes arriving with no download in flight are ignored (the cell may
    /// flush a final transport block after completion).
    pub fn on_delivered(&mut self, now: Time, bytes: ByteCount) -> Option<SegmentRecord> {
        let dl = self.download.as_mut()?;
        dl.received += bytes;
        if dl.received < dl.total {
            return None;
        }
        let dl = self.download.take().expect("download in flight");
        self.catch_up();
        self.wake_at = Time::ZERO;
        self.buffer.push(self.mpd.segment_duration());
        self.next_segment = dl.segment_index + 1;
        let record = SegmentRecord {
            segment_index: dl.segment_index,
            level: dl.level,
            rate: self.mpd.ladder().rate(dl.level),
            bytes: dl.total,
            requested_at: dl.requested_at,
            completed_at: now,
            buffer_after: self.buffer.level(),
        };
        self.records.push(record);
        if self.trace.is_attached() {
            let download_ms = now.since(dl.requested_at).as_millis();
            self.trace.incr("player.segments", 1);
            self.trace.observe("player.download_ms", download_ms as f64);
            let ue = self.ue;
            let buffer_ms = self.buffer.level().as_millis();
            self.trace.record(now, Category::Player, "segment", |e| {
                e.u64("ue", ue)
                    .u64("segment", dl.segment_index)
                    .u64("level", dl.level.index() as u64)
                    .u64("bytes", dl.total.as_u64())
                    .u64("download_ms", download_ms)
                    .u64("buffer_ms", buffer_ms);
            });
        }
        self.adapter.on_download_complete(DownloadSample {
            completed_at: now,
            level: dl.level,
            bytes: dl.total,
            elapsed: now.since(dl.requested_at),
        });
        Some(record)
    }

    /// Summarizes the run so far.
    pub fn stats(&self) -> PlayerStats {
        let segments = self.records.len() as u64;
        let average_rate = if self.records.is_empty() {
            Rate::ZERO
        } else {
            self.records.iter().map(|r| r.rate).sum::<Rate>() / self.records.len() as f64
        };
        let bitrate_changes = self
            .records
            .windows(2)
            .filter(|w| w[0].level != w[1].level)
            .count() as u64;
        PlayerStats {
            average_rate,
            bitrate_changes,
            underflow_time: if self.stalled {
                self.underflow_time + self.lag()
            } else {
                self.underflow_time
            },
            rebuffer_events: self.rebuffer_events,
            segments,
            playback_started_at: self.playback_started_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::BitrateLadder;
    use flare_sim::TTI;

    /// Requests a fixed level forever.
    struct Fixed(Level);
    impl RateAdapter for Fixed {
        fn next_level(&mut self, _ctx: &AdaptContext) -> Level {
            self.0
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    fn mpd(media_s: u64) -> Mpd {
        Mpd::new(
            BitrateLadder::simulation(),
            TimeDelta::from_secs(10),
            TimeDelta::from_secs(media_s),
        )
    }

    fn player(level: usize, media_s: u64) -> Player {
        Player::new(
            mpd(media_s),
            PlayerConfig::default(),
            Box::new(Fixed(Level::new(level))),
        )
    }

    /// Drives the player against a fixed-rate link for `total` time.
    fn run(player: &mut Player, link: Rate, total: TimeDelta) {
        let mut now = Time::ZERO;
        let end = Time::ZERO + total;
        while now < end {
            now += TTI;
            let req = player.step(now, TTI);
            let _ = req;
            if player.downloading() {
                player.on_delivered(now, link.bytes_over(TTI));
            }
        }
    }

    #[test]
    fn first_request_is_immediate() {
        let mut p = player(2, 600);
        let req = p.step(Time::ZERO + TTI, TTI).expect("should request");
        assert_eq!(req.segment_index, 0);
        assert_eq!(req.level, Level::new(2));
        // 500 kbps * 10 s / 8 = 625,000 bytes.
        assert_eq!(req.bytes, ByteCount::new(625_000));
        // No duplicate request while in flight.
        assert!(p.step(Time::ZERO + TTI * 2, TTI).is_none());
    }

    #[test]
    fn fast_link_never_underflows() {
        let mut p = player(2, 300);
        run(&mut p, Rate::from_mbps(5.0), TimeDelta::from_secs(400));
        let stats = p.stats();
        assert_eq!(stats.underflow_time, TimeDelta::ZERO);
        assert_eq!(stats.rebuffer_events, 0);
        assert_eq!(stats.segments, 30);
        assert!(p.finished());
        assert_eq!(stats.bitrate_changes, 0);
        assert_eq!(stats.average_rate, Rate::from_kbps(500.0));
    }

    #[test]
    fn slow_link_stalls_playback() {
        // 3 Mbps encoding over a 1 Mbps link: every segment takes 3x real
        // time, guaranteeing stalls.
        let mut p = player(5, 300);
        run(&mut p, Rate::from_mbps(1.0), TimeDelta::from_secs(300));
        let stats = p.stats();
        assert!(stats.rebuffer_events > 0, "expected stalls");
        assert!(stats.underflow_time > TimeDelta::from_secs(30));
    }

    #[test]
    fn buffer_threshold_paces_requests() {
        let mut p = player(0, 600);
        run(&mut p, Rate::from_mbps(10.0), TimeDelta::from_secs(60));
        // With a 30 s request threshold the player holds 30-40 s of media
        // and stops fetching, rather than downloading all 60 segments.
        assert!(p.buffer_level() >= TimeDelta::from_secs(30) - TimeDelta::from_secs(10));
        let fetched = p.records().len();
        assert!(fetched < 12, "fetched {fetched} segments, pacing broken");
    }

    #[test]
    fn playback_starts_after_startup_threshold() {
        let mut p = player(2, 300);
        run(&mut p, Rate::from_mbps(5.0), TimeDelta::from_secs(30));
        let stats = p.stats();
        let started = stats.playback_started_at.expect("playback must start");
        // 625,000 bytes at 5 Mbps = 1 s for the first segment; startup
        // threshold is one segment, so playback starts right after.
        assert!(
            started >= Time::from_millis(900) && started <= Time::from_millis(1200),
            "started at {started:?}"
        );
    }

    #[test]
    fn stall_resumes_after_resume_threshold() {
        let cfg = PlayerConfig {
            request_threshold: TimeDelta::from_secs(15),
            ..PlayerConfig::default()
        };
        let mut p = Player::new(mpd(300), cfg, Box::new(Fixed(Level::new(3))));
        // 1 Mbps encoding over exactly 1 Mbps link: the second segment takes
        // 10 s to fetch while 10 s play out — borderline; throttle to 0.8.
        run(&mut p, Rate::from_kbps(800.0), TimeDelta::from_secs(200));
        let stats = p.stats();
        assert!(stats.rebuffer_events >= 1);
        // Playback keeps making progress after stalls.
        assert!(stats.segments >= 10);
    }

    #[test]
    fn records_expose_throughput() {
        let mut p = player(1, 300);
        run(&mut p, Rate::from_mbps(2.0), TimeDelta::from_secs(50));
        let r = p.records()[0];
        assert!(
            (r.throughput().as_mbps() - 2.0).abs() < 0.1,
            "tput {:?}",
            r.throughput()
        );
        assert_eq!(r.segment_index, 0);
        assert_eq!(r.buffer_after, TimeDelta::from_secs(10));
    }

    #[test]
    fn change_counting() {
        /// Alternates between two levels.
        struct Alternate(bool);
        impl RateAdapter for Alternate {
            fn next_level(&mut self, _ctx: &AdaptContext) -> Level {
                self.0 = !self.0;
                Level::new(if self.0 { 0 } else { 1 })
            }
            fn name(&self) -> &'static str {
                "alternate"
            }
        }
        let mut p = Player::new(
            mpd(100),
            PlayerConfig::default(),
            Box::new(Alternate(false)),
        );
        run(&mut p, Rate::from_mbps(10.0), TimeDelta::from_secs(200));
        let stats = p.stats();
        assert_eq!(stats.segments, 10);
        assert_eq!(stats.bitrate_changes, 9);
    }

    #[test]
    fn stray_bytes_after_completion_are_ignored() {
        let mut p = player(0, 100);
        assert!(p.on_delivered(Time::ZERO, ByteCount::new(1000)).is_none());
    }

    #[test]
    fn finished_player_goes_idle_without_stalling() {
        let mut p = player(0, 30); // 3 segments only
        run(&mut p, Rate::from_mbps(10.0), TimeDelta::from_secs(120));
        assert!(p.finished());
        let stats = p.stats();
        assert_eq!(stats.segments, 3);
        // Idle after the end of media is not a stall.
        assert_eq!(stats.rebuffer_events, 0);
        assert_eq!(stats.underflow_time, TimeDelta::ZERO);
    }

    #[test]
    fn invariants_hold_under_random_delivery_schedules() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        let mut runner = TestRunner::default();
        runner
            .run(
                // Per-TTI delivery rates in bytes (0 = outage), plus a level.
                &(proptest::collection::vec(0u64..4000, 50..400), 0usize..6),
                |(deliveries, level)| {
                    let mut p = player(level, 100);
                    let mut now = Time::ZERO;
                    let mut completed_indices = Vec::new();
                    for chunk in deliveries.iter().cycle().take(60_000) {
                        now += TTI;
                        p.step(now, TTI);
                        if p.downloading() {
                            if let Some(rec) = p.on_delivered(now, ByteCount::new(*chunk)) {
                                completed_indices.push(rec.segment_index);
                            }
                        }
                    }
                    // 1. Segments complete strictly in order, no skips.
                    prop_assert!(completed_indices.windows(2).all(|w| w[1] == w[0] + 1));
                    // 2. Stats are internally consistent.
                    let stats = p.stats();
                    prop_assert_eq!(stats.segments as usize, completed_indices.len());
                    prop_assert!(stats.bitrate_changes <= stats.segments.saturating_sub(1));
                    // 3. Stalls can only happen after playback started.
                    if stats.playback_started_at.is_none() {
                        prop_assert_eq!(stats.underflow_time, TimeDelta::ZERO);
                        prop_assert_eq!(stats.rebuffer_events, 0);
                    }
                    // 4. Records' timing is sane.
                    for r in p.records() {
                        prop_assert!(r.completed_at > r.requested_at);
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    /// The deadline player against the per-tick oracle, on random
    /// thresholds (startup above request included), segment counts,
    /// delivery chunks, stalling gaps and stray deliveries.
    #[test]
    fn deadline_player_matches_the_per_tick_oracle() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        /// Picks a level from the buffer, so a request issued with a wrong
        /// buffer level shows in the records.
        struct ByBuffer;
        impl RateAdapter for ByBuffer {
            fn next_level(&mut self, ctx: &AdaptContext) -> Level {
                Level::new((ctx.buffer_level.as_millis() / 700) as usize)
            }
            fn name(&self) -> &'static str {
                "by-buffer"
            }
        }

        // Startup, resume and request thresholds in 150 ms steps, so each
        // is often zero.
        let thresholds = (0u64..20, 0u64..20, 0u64..27);
        // Phases of (gap?, bytes per TTI, TTIs); half of them are gaps.
        let phases = proptest::collection::vec((0u8..2, 1u64..6000, 1u64..4000), 1..12);
        let mut runner = TestRunner::default();
        runner
            .run(
                &(thresholds, 1u64..20, 200u64..2000, phases, 0u64..3000),
                |((startup, resume, request), segments, segment_ms, phases, tail)| {
                    let config = PlayerConfig {
                        startup_threshold: TimeDelta::from_millis(150 * startup),
                        resume_threshold: TimeDelta::from_millis(150 * resume),
                        request_threshold: TimeDelta::from_millis(150 * request),
                    };
                    let mpd = Mpd::new(
                        BitrateLadder::simulation(),
                        TimeDelta::from_millis(segment_ms),
                        TimeDelta::from_millis(segment_ms * segments),
                    );
                    let mut lazy = Player::new(mpd.clone(), config.clone(), Box::new(ByBuffer));
                    let mut oracle = Player::new(mpd, config, Box::new(ByBuffer));
                    let mut now = Time::ZERO;
                    let schedule = phases
                        .iter()
                        .flat_map(|&(gap, bytes, ttis)| {
                            std::iter::repeat_n(if gap == 0 { 0 } else { bytes }, ttis as usize)
                        })
                        .chain(std::iter::repeat_n(0, tail as usize));
                    for chunk in schedule {
                        now += TTI;
                        prop_assert_eq!(lazy.step(now, TTI), oracle.step_every_tick(now, TTI));
                        if chunk > 0 {
                            // Sent whether or not a download is in flight.
                            let bytes = ByteCount::new(chunk);
                            prop_assert_eq!(
                                lazy.on_delivered(now, bytes),
                                oracle.on_delivered(now, bytes)
                            );
                        }
                        prop_assert_eq!(lazy.buffer_level(), oracle.buffer_level(), "at {:?}", now);
                        prop_assert_eq!(lazy.stalled(), oracle.stalled(), "at {:?}", now);
                        prop_assert_eq!(lazy.rebuffer_events(), oracle.rebuffer_events());
                        prop_assert_eq!(lazy.finished(), oracle.finished());
                        prop_assert_eq!(lazy.downloading(), oracle.downloading());
                    }
                    prop_assert_eq!(lazy.records(), oracle.records());
                    prop_assert_eq!(lazy.stats(), oracle.stats());
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn out_of_range_adapter_levels_are_clamped() {
        let mut p = Player::new(
            mpd(100),
            PlayerConfig::default(),
            Box::new(Fixed(Level::new(999))),
        );
        let req = p.step(Time::ZERO + TTI, TTI).unwrap();
        assert_eq!(req.level, Level::new(5));
    }
}
