//! FLARE algorithm parameters.

use flare_sim::units::Rate;
use flare_sim::TimeDelta;

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

/// Graceful-degradation parameters for an unreliable control plane.
///
/// The paper assumes the OneAPI coordination loop is lossless; these knobs
/// govern how each side degrades when statistics reports or assignments go
/// missing (dropped, delayed, or lost to a server outage). All horizons are
/// counted in BAIs, the loop's natural heartbeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessConfig {
    /// Plugin: BAIs without a fresh assignment before it falls back to its
    /// local conservative policy (`k`).
    pub stale_bais: u32,
    /// Plugin: consecutive BAIs with fresh assignments required before it
    /// rejoins coordination (hysteresis against flapping).
    pub rejoin_bais: u32,
    /// eNodeB: a GBR installed by the server is a *lease* expiring after
    /// this many BAIs without renewal (`l`), returning the reservation to
    /// the proportional-fair pool.
    pub lease_bais: u32,
    /// Server: clients whose statistics have been missing for this many
    /// consecutive BAIs are evicted (`m`).
    pub evict_bais: u32,
    /// Server: per-missed-BAI decay applied to a client's last observed
    /// link efficiency when its `(n_u, b_u)` counters are missing. Values
    /// below 1 make the server progressively more conservative about
    /// clients it cannot see.
    pub stats_aging: f64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            stale_bais: 3,
            rejoin_bais: 2,
            lease_bais: 3,
            evict_bais: 6,
            stats_aging: 0.7,
        }
    }
}

impl RobustnessConfig {
    /// Returns a copy with a different fallback threshold `k`.
    pub fn with_stale_bais(mut self, k: u32) -> Self {
        assert!(k > 0, "stale threshold must be at least one BAI");
        self.stale_bais = k;
        self
    }

    /// Returns a copy with a different rejoin hysteresis.
    pub fn with_rejoin_bais(mut self, n: u32) -> Self {
        self.rejoin_bais = n;
        self
    }

    /// Returns a copy with a different lease length `l`.
    pub fn with_lease_bais(mut self, l: u32) -> Self {
        assert!(l > 0, "lease must last at least one BAI");
        self.lease_bais = l;
        self
    }

    /// Returns a copy with a different eviction horizon `m`.
    pub fn with_evict_bais(mut self, m: u32) -> Self {
        assert!(m > 0, "eviction horizon must be at least one BAI");
        self.evict_bais = m;
        self
    }

    /// Returns a copy with a different aging factor.
    pub fn with_stats_aging(mut self, aging: f64) -> Self {
        assert!(
            aging.is_finite() && (0.0..=1.0).contains(&aging),
            "aging factor must be in [0, 1]"
        );
        self.stats_aging = aging;
        self
    }
}

/// Parameters of FLARE's coordination algorithm.
///
/// Defaults come from the paper's Table IV: `α = 1.0`, `δ = 4`,
/// `θ_u = 0.2 Mbps`, `β_u = 10`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlareConfig {
    /// Relative priority of data flows versus video flows (`α` in (3);
    /// Figure 11 sweeps it from 0.25 to 4).
    pub alpha: f64,
    /// Stability knob: a recommended one-step increase to level `L+1`
    /// (1-based) is applied only after `δ · (L+1)` consecutive BAIs of the
    /// same recommendation (Figure 12 sweeps δ from 1 to 12).
    pub delta: u32,
    /// Default importance weight `β_u` for clients that don't send one.
    pub beta: f64,
    /// Default screen-size parameter `θ_u` for clients that don't send one.
    pub theta: Rate,
    /// Bitrate assignment interval `B`.
    pub bai: TimeDelta,
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
            beta: 10.0,
            theta: Rate::from_mbps(0.2),
            bai: TimeDelta::from_secs(10),
            solve_mode: SolveMode::Exact,
            robustness: None,
        }
    }
}

impl FlareConfig {
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

    /// Returns a copy with a different BAI.
    ///
    /// # Panics
    ///
    /// Panics if `bai` is zero.
    pub fn with_bai(mut self, bai: TimeDelta) -> Self {
        assert!(!bai.is_zero(), "BAI must be non-zero");
        self.bai = bai;
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
        assert_eq!(c.beta, 10.0);
        assert_eq!(c.theta, Rate::from_mbps(0.2));
        assert_eq!(c.bai, TimeDelta::from_secs(10));
        assert_eq!(c.solve_mode, SolveMode::Exact);
    }

    #[test]
    fn builder_style_overrides() {
        let c = FlareConfig::default()
            .with_alpha(2.0)
            .with_delta(8)
            .with_bai(TimeDelta::from_secs(2))
            .with_solve_mode(SolveMode::Relaxed);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.delta, 8);
        assert_eq!(c.bai, TimeDelta::from_secs(2));
        assert_eq!(c.solve_mode, SolveMode::Relaxed);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bai_panics() {
        let _ = FlareConfig::default().with_bai(TimeDelta::ZERO);
    }

    #[test]
    fn robustness_defaults_and_builders() {
        assert!(FlareConfig::default().robustness.is_none());
        let r = RobustnessConfig::default()
            .with_stale_bais(2)
            .with_rejoin_bais(3)
            .with_lease_bais(4)
            .with_evict_bais(8)
            .with_stats_aging(0.5);
        assert_eq!(r.stale_bais, 2);
        assert_eq!(r.rejoin_bais, 3);
        assert_eq!(r.lease_bais, 4);
        assert_eq!(r.evict_bais, 8);
        assert_eq!(r.stats_aging, 0.5);
        let c = FlareConfig::default().with_robustness(r);
        assert_eq!(c.robustness, Some(r));
    }

    #[test]
    #[should_panic(expected = "lease")]
    fn zero_lease_panics() {
        let _ = RobustnessConfig::default().with_lease_bais(0);
    }
}
