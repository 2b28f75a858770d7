//! FLARE algorithm parameters.

use flare_sim::units::Rate;

/// How the OneAPI server solves the per-BAI optimization (Figure 8 compares
/// the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Solve the discrete problem directly (the paper's default, "we solve
    /// the exact bitrate optimization problem (3–4)").
    #[default]
    Exact,
    /// Solve the convex continuous relaxation of Proposition 1, then round
    /// each rate down to the nearest ladder entry.
    Relaxed,
}

/// Selects FLARE-R: graceful degradation over an unreliable control plane.
///
/// The paper assumes the OneAPI coordination loop is lossless; FLARE-R
/// degrades when statistics reports or assignments go missing (dropped,
/// delayed, or lost to a server outage). Its horizons are counted in BAIs,
/// the loop's natural heartbeat, and are constants (DESIGN.md §8): the
/// eNodeB and server ones below, and the plugin's
/// [`flare_abr::VersionedAssignment::STALE_BAIS`] (`k`) and
/// [`flare_abr::VersionedAssignment::REJOIN_BAIS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessConfig;

impl RobustnessConfig {
    /// eNodeB: a GBR installed by the server is a *lease* expiring after
    /// this many BAIs without renewal (`l`), returning the reservation to
    /// the proportional-fair pool.
    pub const LEASE_BAIS: u32 = 3;
    /// Server: clients whose statistics have been missing for this many
    /// consecutive BAIs are evicted (`m`).
    pub const EVICT_BAIS: u32 = 6;
    /// Server: per-missed-BAI decay applied to a client's last observed
    /// link efficiency when its `(n_u, b_u)` counters are missing. Below 1,
    /// it makes the server progressively more conservative about clients it
    /// cannot see.
    pub const STATS_AGING: f64 = 0.7;
}

/// Parameters of FLARE's coordination algorithm.
///
/// Defaults come from the paper's Table IV: `α = 1.0`, `δ = 4`. The
/// per-client utility parameters are the constants [`FlareConfig::BETA`]
/// and [`FlareConfig::THETA`] unless a client discloses its own in
/// [`crate::ClientPrefs`]. The BAI is the caller's: the server solves over
/// each report's own interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FlareConfig {
    /// Relative priority of data flows versus video flows (`α` in (3);
    /// Figure 11 sweeps it from 0.25 to 4).
    pub alpha: f64,
    /// Stability knob: a recommended one-step increase to level `L+1`
    /// (1-based) is applied only after `δ · (L+1)` consecutive BAIs of the
    /// same recommendation (Figure 12 sweeps δ from 1 to 12).
    pub delta: u32,
    /// Which solver backs Algorithm 1.
    pub solve_mode: SolveMode,
    /// Graceful degradation under control-plane faults. `None` (the
    /// default) reproduces the paper exactly: assignments persist forever
    /// and missing statistics simply skip a client.
    pub robustness: Option<RobustnessConfig>,
}

impl Default for FlareConfig {
    fn default() -> Self {
        FlareConfig {
            alpha: 1.0,
            delta: 4,
            solve_mode: SolveMode::Exact,
            robustness: None,
        }
    }
}

impl FlareConfig {
    /// Importance weight `β_u` of a client that discloses none (Table IV:
    /// `β_u = 10`).
    pub const BETA: f64 = 10.0;
    /// Screen-size parameter `θ_u` of a client that discloses none (Table
    /// IV: `θ_u = 0.2 Mbps`).
    pub const THETA: Rate = Rate::from_mbps(0.2);

    /// Returns a copy with a different `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be non-negative"
        );
        self.alpha = alpha;
        self
    }

    /// Returns a copy with a different `δ`.
    pub fn with_delta(mut self, delta: u32) -> Self {
        self.delta = delta;
        self
    }

    /// Returns a copy with a different solver.
    pub fn with_solve_mode(mut self, mode: SolveMode) -> Self {
        self.solve_mode = mode;
        self
    }

    /// Returns a copy with graceful degradation enabled.
    pub fn with_robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.robustness = Some(robustness);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let c = FlareConfig::default();
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.delta, 4);
        assert_eq!(c.solve_mode, SolveMode::Exact);
    }

    #[test]
    fn builder_style_overrides() {
        let c = FlareConfig::default()
            .with_alpha(2.0)
            .with_delta(8)
            .with_solve_mode(SolveMode::Relaxed);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.delta, 8);
        assert_eq!(c.solve_mode, SolveMode::Relaxed);
    }

    #[test]
    fn robustness_defaults_and_builders() {
        assert!(FlareConfig::default().robustness.is_none());
        let c = FlareConfig::default().with_robustness(RobustnessConfig);
        assert_eq!(c.robustness, Some(RobustnessConfig));
    }
}
