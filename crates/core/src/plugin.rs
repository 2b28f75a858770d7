//! The FLARE UE plugin: the client half of the coordination loop.

use flare_abr::{CoordinationMode, SharedAssignment, VersionedAssignment};
use flare_has::estimator::{HarmonicMean, ThroughputEstimator, ThroughputSample};
use flare_has::{AdaptContext, Level, RateAdapter};

/// The light-weight client-side plugin FLARE embeds in the HAS player.
///
/// Its adaptation policy is deliberately trivial: *always request the
/// network-assigned level* (clamped to the ladder). This is the half of the
/// paper's dual enforcement that AVIS lacks — the eNodeB guarantees the
/// assigned rate with a GBR while the plugin guarantees the player actually
/// requests it, so the two can never disagree.
///
/// Before the first assignment arrives the plugin streams at the lowest
/// encoding, which is also what bootstraps the MAC statistics the server's
/// optimizer needs.
///
/// # Example
///
/// ```
/// use flare_abr::SharedAssignment;
/// use flare_core::FlarePlugin;
/// use flare_has::RateAdapter;
///
/// let assignment = SharedAssignment::new();
/// let plugin = FlarePlugin::new(assignment.clone());
/// assert_eq!(plugin.name(), "flare");
/// ```
#[derive(Debug, Clone)]
pub struct FlarePlugin {
    assignment: SharedAssignment,
}

impl FlarePlugin {
    /// Creates a plugin reading assignments from `assignment` (the harness
    /// keeps the other clone and writes the OneAPI server's decisions into
    /// it).
    pub fn new(assignment: SharedAssignment) -> Self {
        FlarePlugin { assignment }
    }

    /// The assignment cell (for introspection/tests).
    pub fn assignment(&self) -> &SharedAssignment {
        &self.assignment
    }
}

impl RateAdapter for FlarePlugin {
    fn next_level(&mut self, ctx: &AdaptContext) -> Level {
        match self.assignment.get() {
            Some(level) => ctx.ladder.clamp(level),
            None => ctx.ladder.lowest(),
        }
    }

    fn name(&self) -> &'static str {
        "flare"
    }
}

/// The FLARE plugin hardened for an unreliable control plane.
///
/// While assignments are fresh it behaves exactly like [`FlarePlugin`]:
/// request the network-assigned level, nothing else. When its
/// [`VersionedAssignment`] cell reports staleness (no fresh assignment for
/// `k` BAIs — the server crashed, messages are being dropped), it falls
/// back to a conservative local policy built from the same machinery the
/// estimator-driven baselines use:
///
/// * a harmonic-mean throughput estimate with a safety factor picks the
///   candidate level (robust to outlier-fast segments, like FESTIVE);
/// * the candidate is **capped at the last assigned level** — the network's
///   last word is also the last GBR the eNodeB leased, so requesting above
///   it would demand bandwidth nobody reserved;
/// * a thin buffer (< one segment) forces the lowest encoding outright.
///
/// Rejoin hysteresis lives in the shared cell: coordination resumes only
/// after [`VersionedAssignment::REJOIN_BAIS`] consecutive BAIs with fresh
/// assignments, so a flapping control plane cannot whipsaw the player.
#[derive(Debug, Clone)]
pub struct ResilientPlugin {
    assignment: VersionedAssignment,
    estimator: HarmonicMean,
    safety: f64,
}

impl ResilientPlugin {
    /// FESTIVE's estimation window and safety factor — conservative by
    /// construction.
    const WINDOW: usize = 5;
    const SAFETY: f64 = 0.8;

    /// Creates a plugin reading versioned assignments from `assignment`
    /// (the harness keeps the other clone: it installs delivered
    /// assignments and ticks BAI boundaries).
    pub fn new(assignment: VersionedAssignment) -> Self {
        ResilientPlugin {
            assignment,
            estimator: HarmonicMean::new(Self::WINDOW),
            safety: Self::SAFETY,
        }
    }

    /// The shared assignment cell (for introspection/tests).
    pub fn assignment(&self) -> &VersionedAssignment {
        &self.assignment
    }

    /// The level the fallback policy would pick in `ctx`, ignoring mode.
    fn fallback_level(&self, ctx: &AdaptContext) -> Level {
        // The last assignment is the last rate anyone leased for us; never
        // request above it.
        let cap = match self.assignment.level() {
            Some(level) => ctx.ladder.clamp(level),
            None => ctx.ladder.lowest(),
        };
        if ctx.buffer_level < ctx.segment_duration {
            return ctx.ladder.lowest();
        }
        let candidate = match self.estimator.estimate() {
            Some(est) => ctx.ladder.highest_at_most_or_lowest(est * self.safety),
            None => ctx.ladder.lowest(),
        };
        candidate.min(cap)
    }
}

impl RateAdapter for ResilientPlugin {
    fn on_download_complete(&mut self, sample: flare_has::DownloadSample) {
        // Keep the estimator warm even while coordinated, so fallback
        // engages with real data instead of a cold start.
        self.estimator.record(ThroughputSample {
            bytes: sample.bytes,
            elapsed: sample.elapsed,
        });
    }

    fn next_level(&mut self, ctx: &AdaptContext) -> Level {
        match self.assignment.mode() {
            CoordinationMode::Coordinated => match self.assignment.level() {
                Some(level) => ctx.ladder.clamp(level),
                None => ctx.ladder.lowest(),
            },
            CoordinationMode::Fallback => self.fallback_level(ctx),
        }
    }

    fn name(&self) -> &'static str {
        "flare-resilient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_has::BitrateLadder;
    use flare_sim::{Time, TimeDelta};

    fn ctx<'a>(ladder: &'a BitrateLadder) -> AdaptContext<'a> {
        AdaptContext {
            now: Time::ZERO,
            ladder,
            buffer_level: TimeDelta::from_secs(20),
            last_level: Some(Level::new(1)),
            segment_duration: TimeDelta::from_secs(10),
            segment_index: 3,
        }
    }

    #[test]
    fn unassigned_plugin_streams_lowest() {
        let ladder = BitrateLadder::testbed();
        let mut plugin = FlarePlugin::new(SharedAssignment::new());
        assert_eq!(plugin.next_level(&ctx(&ladder)), Level::new(0));
    }

    #[test]
    fn follows_assignments_exactly() {
        let ladder = BitrateLadder::testbed();
        let cell = SharedAssignment::new();
        let mut plugin = FlarePlugin::new(cell.clone());
        cell.set(Level::new(3));
        assert_eq!(plugin.next_level(&ctx(&ladder)), Level::new(3));
        cell.set(Level::new(6));
        assert_eq!(plugin.next_level(&ctx(&ladder)), Level::new(6));
    }

    #[test]
    fn out_of_range_assignments_clamp() {
        let ladder = BitrateLadder::simulation();
        let cell = SharedAssignment::new();
        let mut plugin = FlarePlugin::new(cell.clone());
        cell.set(Level::new(99));
        assert_eq!(plugin.next_level(&ctx(&ladder)), ladder.highest());
    }

    use flare_has::DownloadSample;
    use flare_sim::units::{ByteCount, Rate};

    /// Runs silent BAIs on `cell` until the client falls back.
    fn go_stale(cell: &VersionedAssignment) {
        for _ in 0..VersionedAssignment::STALE_BAIS {
            cell.end_bai();
        }
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
    }

    /// A download sample whose observed throughput is `rate`.
    fn sample(rate: Rate) -> DownloadSample {
        let elapsed = TimeDelta::from_secs(1);
        DownloadSample {
            completed_at: Time::ZERO,
            level: Level::new(0),
            bytes: ByteCount::new((rate.as_bps() / 8.0) as u64),
            elapsed,
        }
    }

    #[test]
    fn resilient_follows_assignments_while_coordinated() {
        let ladder = BitrateLadder::testbed();
        let cell = VersionedAssignment::new();
        let mut plugin = ResilientPlugin::new(cell.clone());
        assert_eq!(plugin.next_level(&ctx(&ladder)), ladder.lowest());
        cell.install(1, Level::new(4));
        assert_eq!(plugin.next_level(&ctx(&ladder)), Level::new(4));
    }

    #[test]
    fn fallback_caps_at_last_assigned_level() {
        let ladder = BitrateLadder::testbed();
        let cell = VersionedAssignment::new();
        let mut plugin = ResilientPlugin::new(cell.clone());
        cell.install(1, Level::new(2));
        cell.end_bai();
        // Plenty of measured throughput — without the cap this would pick a
        // high level.
        plugin.on_download_complete(sample(ladder.rate(ladder.highest())));
        go_stale(&cell);
        assert!(plugin.next_level(&ctx(&ladder)) <= Level::new(2));
    }

    #[test]
    fn fallback_respects_estimator_below_cap() {
        let ladder = BitrateLadder::testbed();
        let cell = VersionedAssignment::new();
        let mut plugin = ResilientPlugin::new(cell.clone());
        cell.install(1, ladder.highest());
        cell.end_bai();
        go_stale(&cell);
        // Throughput only supports a bit more than the lowest encoding.
        let low = ladder.rate(Level::new(1));
        plugin.on_download_complete(sample(low));
        let picked = plugin.next_level(&ctx(&ladder));
        assert!(picked <= ladder.highest_at_most_or_lowest(low));
    }

    #[test]
    fn fallback_with_thin_buffer_streams_lowest() {
        let ladder = BitrateLadder::testbed();
        let cell = VersionedAssignment::new();
        let mut plugin = ResilientPlugin::new(cell.clone());
        cell.install(1, ladder.highest());
        cell.end_bai();
        go_stale(&cell);
        plugin.on_download_complete(sample(ladder.rate(ladder.highest())));
        let mut c = ctx(&ladder);
        c.buffer_level = TimeDelta::from_secs(3); // < one 10 s segment
        assert_eq!(plugin.next_level(&c), ladder.lowest());
    }

    #[test]
    fn fallback_without_estimate_streams_lowest() {
        let ladder = BitrateLadder::testbed();
        let cell = VersionedAssignment::new();
        let mut plugin = ResilientPlugin::new(cell.clone());
        cell.install(1, ladder.highest());
        cell.end_bai();
        go_stale(&cell);
        assert_eq!(plugin.next_level(&ctx(&ladder)), ladder.lowest());
    }
}
