//! Simulation configuration: who streams what, over which cell, under
//! which adaptation scheme.

use flare_core::{ClientPrefs, FaultModel, FlareConfig};
use flare_has::{BitrateLadder, PlayerConfig};
use flare_lte::mobility::MobilityConfig;
use flare_sim::TimeDelta;
use flare_trace::TraceHandle;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default for [`SimConfig::check_invariants`], read once by
/// each new [`SimConfigBuilder`]. `repro --check-invariants` flips it so
/// every run an experiment constructs — however deep in the call chain —
/// gets the runtime invariant battery without per-callsite plumbing.
static DEFAULT_CHECK_INVARIANTS: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide default for [`SimConfig::check_invariants`].
///
/// Affects builders created *after* the call; explicit
/// [`SimConfigBuilder::check_invariants`] calls always win.
pub fn set_default_check_invariants(on: bool) {
    DEFAULT_CHECK_INVARIANTS.store(on, Ordering::Relaxed);
}

/// The current process-wide invariant-checking default.
pub fn default_check_invariants() -> bool {
    DEFAULT_CHECK_INVARIANTS.load(Ordering::Relaxed)
}

/// How each UE's channel evolves.
#[derive(Debug, Clone)]
pub enum ChannelKind {
    /// Every UE pinned at the same iTbs (the testbed static scenario).
    Static {
        /// The operating point.
        itbs: u8,
    },
    /// Triangle-wave iTbs sweep with per-UE phase offsets (the testbed
    /// dynamic scenario: 1 → 12 → 1 over 4 minutes).
    Triangle {
        /// Lowest index of the sweep.
        min: u8,
        /// Highest index of the sweep.
        max: u8,
        /// Full cycle length.
        period: TimeDelta,
    },
    /// Stationary UEs at random positions: iTbs fixed per UE from path loss
    /// at its (seeded) random position — the ns-3 static scenarios.
    StationaryRandom(MobilityConfig),
    /// Vehicular random-waypoint mobility with shadowing — the ns-3 mobile
    /// scenarios ("trace based model").
    Mobile(MobilityConfig),
}

/// Which adaptation scheme controls the video flows.
#[derive(Debug, Clone)]
pub enum SchemeKind {
    /// Client-side FESTIVE on every video UE.
    Festive,
    /// The reference MPEG-DASH player ("GOOGLE") on every video UE.
    Google,
    /// FLARE: OneAPI server + plugins + GBR enforcement.
    Flare(FlareConfig),
    /// Ablation: the FLARE server assigns GBRs, but clients self-adapt with
    /// a rate-based controller instead of obeying the plugin — an
    /// AVIS-ified FLARE that demonstrates why dual enforcement matters.
    /// Runs the Table IV [`FlareConfig::default`].
    FlareGbrOnly,
    /// AVIS: network-side allocator setting GBR/MBR, rate-based clients.
    Avis,
}

impl SchemeKind {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Festive => "FESTIVE",
            SchemeKind::Google => "GOOGLE",
            // Robustness configured -> the graceful-degradation variant
            // (versioned assignments, fallback plugin, GBR leases).
            SchemeKind::Flare(fc) if fc.robustness.is_some() => "FLARE-R",
            SchemeKind::Flare(_) => "FLARE",
            SchemeKind::FlareGbrOnly => "FLARE-GBR-ONLY",
            SchemeKind::Avis => "AVIS",
        }
    }
}

/// Which MAC scheduler the cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Legacy proportional fair (no QoS awareness).
    ProportionalFair,
    /// The femtocell's two-phase GBR scheduler (testbed experiments).
    TwoPhaseGbr,
    /// The ns-3 Priority Set Scheduler (simulation experiments).
    PrioritySet,
    /// Static slicing: GBR flows keep their reservation even when idle
    /// (original-AVIS ablation).
    StrictPartition,
    /// Channel-blind round robin (multi-user-diversity ablation).
    RoundRobin,
}

/// Full configuration of one simulated cell run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Simulated wall-clock length.
    pub duration: TimeDelta,
    /// Bitrate assignment interval for network-side schemes.
    pub bai: TimeDelta,
    /// MAC scheduling policy.
    pub scheduler: SchedulerKind,
    /// Encodings available to every video.
    pub ladder: BitrateLadder,
    /// Segment length.
    pub segment: TimeDelta,
    /// Player timing knobs.
    pub player: PlayerConfig,
    /// Number of video UEs.
    pub n_video: usize,
    /// Number of greedy data UEs.
    pub n_data: usize,
    /// Channel processes.
    pub channel: ChannelKind,
    /// Adaptation scheme.
    pub scheme: SchemeKind,
    /// Optional per-client preferences (index-aligned with video UEs;
    /// missing entries mean no preferences).
    pub prefs: Vec<Option<ClientPrefs>>,
    /// Number of trailing video UEs that run a *conventional* (FESTIVE)
    /// player instead of the configured coordinated scheme. The paper's
    /// deployment discussion (Section V): FLARE services such players like
    /// other data traffic, with no bitrate guarantees. Only meaningful when
    /// the scheme is FLARE; ignored otherwise.
    pub legacy_video: usize,
    /// Control-plane fault model for coordinated (FLARE-family) schemes,
    /// whose statistics reports and assignments always travel through a
    /// [`flare_core::ControlPlane`]. Defaults to [`FaultModel::perfect`],
    /// the paper's lossless, instantaneous exchange. Ignored by the other
    /// schemes, which have no control plane.
    pub faults: FaultModel,
    /// Trace recorder shared by every instrumented component of the run.
    /// Defaults to a detached handle, in which case the simulation attaches
    /// an internal registry-only recorder (counters and histograms, no
    /// event ring) so end-of-run telemetry is always available. Attach a
    /// recording handle (e.g. `TraceHandle::new(TraceLevel::Info)`) to
    /// capture the structured event stream as well.
    pub trace: TraceHandle,
    /// Runs the `flare-harness` runtime invariant battery inline: per-TTI RB
    /// conservation and lease return, Eq. (4a)/(4b) checks on every solve,
    /// player buffer/stall sanity, and monotone versioned installs. A
    /// violation panics the run after recording a structured `invariant`
    /// trace event. Defaults to the process-wide setting
    /// ([`set_default_check_invariants`]), normally off.
    pub check_invariants: bool,
}

impl SimConfig {
    /// Starts a builder with Table III-style defaults: 1200 s, 10 s
    /// segments and BAI, the {100..3000} kbps ladder, 8 video UEs, the
    /// Priority Set Scheduler, and FLARE with Table IV parameters.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            config: SimConfig {
                seed: 1,
                duration: TimeDelta::from_secs(1200),
                bai: TimeDelta::from_secs(10),
                scheduler: SchedulerKind::PrioritySet,
                ladder: BitrateLadder::simulation(),
                segment: TimeDelta::from_secs(10),
                player: PlayerConfig::default(),
                n_video: 8,
                n_data: 0,
                channel: ChannelKind::StationaryRandom(MobilityConfig),
                scheme: SchemeKind::Flare(FlareConfig::default()),
                prefs: Vec::new(),
                legacy_video: 0,
                faults: FaultModel::perfect(),
                trace: TraceHandle::disabled(),
                check_invariants: default_check_invariants(),
            },
        }
    }
}

impl SimConfigBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the simulated duration.
    pub fn duration(mut self, duration: TimeDelta) -> Self {
        self.config.duration = duration;
        self
    }

    /// Sets the bitrate assignment interval.
    pub fn bai(mut self, bai: TimeDelta) -> Self {
        self.config.bai = bai;
        self
    }

    /// Sets the MAC scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Sets the bitrate ladder.
    pub fn ladder(mut self, ladder: BitrateLadder) -> Self {
        self.config.ladder = ladder;
        self
    }

    /// Sets the segment duration.
    pub fn segment(mut self, segment: TimeDelta) -> Self {
        self.config.segment = segment;
        self
    }

    /// Sets the player configuration.
    pub fn player(mut self, player: PlayerConfig) -> Self {
        self.config.player = player;
        self
    }

    /// Sets the number of video UEs.
    pub fn videos(mut self, n: usize) -> Self {
        self.config.n_video = n;
        self
    }

    /// Sets the number of data UEs.
    pub fn data_flows(mut self, n: usize) -> Self {
        self.config.n_data = n;
        self
    }

    /// Sets the channel model.
    pub fn channel(mut self, channel: ChannelKind) -> Self {
        self.config.channel = channel;
        self
    }

    /// Sets the adaptation scheme.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Sets preferences for one video UE (index into the video list).
    pub fn prefs_for(mut self, video_index: usize, prefs: ClientPrefs) -> Self {
        if self.config.prefs.len() <= video_index {
            self.config.prefs.resize(video_index + 1, None);
        }
        self.config.prefs[video_index] = Some(prefs);
        self
    }

    /// Makes the last `n` video UEs conventional (FESTIVE) players that the
    /// FLARE server services as best-effort data traffic.
    pub fn legacy_video(mut self, n: usize) -> Self {
        self.config.legacy_video = n;
        self
    }

    /// Sets the fault model of the FLARE control plane (default: perfect).
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.config.faults = faults;
        self
    }

    /// Attaches a trace recorder: every instrumented component (MAC
    /// scheduler, solver, control plane, plugins, players) records into it,
    /// and the run's `RunResult::telemetry` is read from its registry.
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.config.trace = trace;
        self
    }

    /// Enables (or disables) the inline runtime invariant battery for this
    /// run, overriding the process-wide default.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.config.check_invariants = on;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate settings (zero duration, zero BAI, no flows, or
    /// more legacy players than video UEs).
    pub fn build(self) -> SimConfig {
        let c = &self.config;
        assert!(!c.duration.is_zero(), "duration must be non-zero");
        assert!(!c.bai.is_zero(), "BAI must be non-zero");
        assert!(!c.segment.is_zero(), "segment must be non-zero");
        assert!(c.n_video + c.n_data > 0, "need at least one flow");
        assert!(
            c.legacy_video <= c.n_video,
            "legacy players cannot exceed video UEs"
        );
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let c = SimConfig::builder().build();
        assert_eq!(c.duration, TimeDelta::from_secs(1200));
        assert_eq!(c.segment, TimeDelta::from_secs(10));
        assert_eq!(c.n_video, 8);
        assert_eq!(c.ladder.len(), 6);
        assert_eq!(c.scheduler, SchedulerKind::PrioritySet);
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::builder()
            .seed(9)
            .videos(3)
            .data_flows(1)
            .scheme(SchemeKind::Google)
            .scheduler(SchedulerKind::TwoPhaseGbr)
            .build();
        assert_eq!(c.seed, 9);
        assert_eq!(c.n_video, 3);
        assert_eq!(c.n_data, 1);
        assert_eq!(c.scheme.name(), "GOOGLE");
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SchemeKind::Festive.name(), "FESTIVE");
        assert_eq!(SchemeKind::Flare(FlareConfig::default()).name(), "FLARE");
        assert_eq!(SchemeKind::Avis.name(), "AVIS");
        assert_eq!(SchemeKind::FlareGbrOnly.name(), "FLARE-GBR-ONLY");
        assert_eq!(
            SchemeKind::Flare(FlareConfig::default().with_robustness(flare_core::RobustnessConfig))
                .name(),
            "FLARE-R"
        );
    }

    #[test]
    fn faults_knob_defaults_off() {
        assert_eq!(SimConfig::builder().build().faults, FaultModel::perfect());
        let c = SimConfig::builder()
            .faults(FaultModel::perfect().with_drop_prob(0.2))
            .build();
        assert_eq!(c.faults.drop_prob, 0.2);
    }

    #[test]
    fn check_invariants_defaults_off_and_overrides() {
        assert!(!SimConfig::builder().build().check_invariants);
        assert!(
            SimConfig::builder()
                .check_invariants(true)
                .build()
                .check_invariants
        );
    }

    #[test]
    fn prefs_assignment() {
        let c = SimConfig::builder()
            .videos(3)
            .prefs_for(2, ClientPrefs::default())
            .build();
        assert_eq!(c.prefs.len(), 3);
        assert!(c.prefs[2].is_some());
        assert!(c.prefs[0].is_none());
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_cell_panics() {
        let _ = SimConfig::builder().videos(0).data_flows(0).build();
    }
}
