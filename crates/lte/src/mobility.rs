//! UE mobility and radio propagation: the ns-3 "trace based model".
//!
//! The paper's simulations place UEs randomly in a 2000 m × 2000 m area and,
//! for the mobile scenarios, move them like vehicles; link quality comes from
//! a trace-based channel model. We reproduce that pipeline end to end:
//!
//! 1. [`RandomWaypoint`] moves a UE between uniformly random waypoints at a
//!    uniformly random vehicular speed,
//! 2. [`Propagation`] converts eNodeB distance to SNR with a 3GPP-style
//!    log-distance path loss plus AR(1) lognormal shadowing,
//! 3. [`snr_to_itbs`] maps SNR to the iTbs operating point used by link
//!    adaptation, and
//! 4. [`MobilityChannel`] packages 1–3 as a [`ChannelModel`], generating
//!    the trace live as the cell polls it.

use flare_sim::rng::standard_normal;
use flare_sim::{Time, TimeDelta};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::channel::ChannelModel;
use crate::tbs::Itbs;

/// A planar position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other` in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Random-waypoint mobility in a rectangular area.
///
/// The UE repeatedly picks a uniform waypoint and a uniform speed from
/// `speed_range`, travels there in a straight line, pauses for `pause`, and
/// repeats. Queries must use non-decreasing times.
///
/// # Example
///
/// ```
/// use flare_lte::mobility::RandomWaypoint;
/// use flare_sim::rng::stream;
/// use flare_sim::{Time, TimeDelta};
///
/// let mut rw = RandomWaypoint::new((2000.0, 2000.0), (10.0, 25.0), TimeDelta::ZERO, stream(1, "ue", 0));
/// let p0 = rw.position_at(Time::ZERO);
/// let p1 = rw.position_at(Time::from_secs(60));
/// assert!(p0.distance_to(p1) > 0.0);
/// ```
#[derive(Debug)]
pub struct RandomWaypoint {
    area: (f64, f64),
    speed_range: (f64, f64),
    pause: TimeDelta,
    rng: SmallRng,
    // Current leg: from `leg_start_pos` at `leg_start`, arriving at
    // `waypoint` at `leg_arrive`, then pausing until `leg_end`.
    leg_start: Time,
    leg_arrive: Time,
    leg_end: Time,
    leg_start_pos: Position,
    waypoint: Position,
}

impl RandomWaypoint {
    /// Creates a random-waypoint walker.
    ///
    /// # Panics
    ///
    /// Panics if the area is not positive or the speed range is invalid
    /// (non-positive or reversed).
    pub fn new(
        area: (f64, f64),
        speed_range: (f64, f64),
        pause: TimeDelta,
        mut rng: SmallRng,
    ) -> Self {
        assert!(area.0 > 0.0 && area.1 > 0.0, "area must be positive");
        assert!(
            speed_range.0 > 0.0 && speed_range.1 >= speed_range.0,
            "speed range must be positive and ordered"
        );
        let start = Position {
            x: rng.gen::<f64>() * area.0,
            y: rng.gen::<f64>() * area.1,
        };
        let mut rw = RandomWaypoint {
            area,
            speed_range,
            pause,
            rng,
            leg_start: Time::ZERO,
            leg_arrive: Time::ZERO,
            leg_end: Time::ZERO,
            leg_start_pos: start,
            waypoint: start,
        };
        rw.next_leg(Time::ZERO);
        rw
    }

    fn next_leg(&mut self, now: Time) {
        self.leg_start_pos = self.waypoint;
        self.waypoint = Position {
            x: self.rng.gen::<f64>() * self.area.0,
            y: self.rng.gen::<f64>() * self.area.1,
        };
        let dist = self.leg_start_pos.distance_to(self.waypoint);
        let speed = self.rng.gen_range(self.speed_range.0..=self.speed_range.1);
        let travel = TimeDelta::from_secs_f64((dist / speed).max(1e-3));
        self.leg_start = now;
        self.leg_arrive = now + travel;
        self.leg_end = self.leg_arrive + self.pause;
    }

    /// Returns the UE position at time `t` (non-decreasing queries).
    pub fn position_at(&mut self, t: Time) -> Position {
        while t >= self.leg_end {
            let end = self.leg_end;
            self.next_leg(end);
        }
        if t >= self.leg_arrive {
            return self.waypoint;
        }
        let total = self.leg_arrive.since(self.leg_start).as_secs_f64();
        let done = t.saturating_since(self.leg_start).as_secs_f64();
        let f = if total > 0.0 {
            (done / total).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Position {
            x: self.leg_start_pos.x + f * (self.waypoint.x - self.leg_start_pos.x),
            y: self.leg_start_pos.y + f * (self.waypoint.y - self.leg_start_pos.y),
        }
    }
}

/// Log-distance path loss with AR(1) lognormal shadowing, plus a link budget.
///
/// Defaults follow the 3GPP macro model (`PL = 128.1 + 37.6·log10(d_km)`)
/// with an interference-adjusted link budget calibrated so that a UE at the
/// cell edge of the paper's 2000 m × 2000 m area operates around iTbs 4–8 and
/// a UE near the eNodeB saturates link adaptation — the spread the mobile
/// scenarios need.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Transmit power minus fixed margins, in dBm.
    pub tx_power_dbm: f64,
    /// Effective noise-plus-interference floor, in dBm.
    pub noise_dbm: f64,
    /// Path loss at the reference distance of 1 km, in dB.
    pub pl_1km_db: f64,
    /// Path loss slope per decade of distance, in dB.
    pub slope_db_per_decade: f64,
    /// Standard deviation of lognormal shadowing, in dB.
    pub shadowing_sigma_db: f64,
    /// AR(1) correlation of shadowing between consecutive samples.
    pub shadowing_rho: f64,
}

impl Default for Propagation {
    fn default() -> Self {
        Propagation {
            tx_power_dbm: 32.0,
            noise_dbm: -95.0,
            pl_1km_db: 128.1,
            slope_db_per_decade: 37.6,
            shadowing_sigma_db: 4.0,
            shadowing_rho: 0.98,
        }
    }
}

impl Propagation {
    /// Deterministic path loss in dB at distance `d` metres.
    pub fn path_loss_db(&self, d_m: f64) -> f64 {
        let d_km = (d_m / 1000.0).max(0.01);
        self.pl_1km_db + self.slope_db_per_decade * d_km.log10()
    }

    /// Mean SNR in dB (no shadowing) at distance `d` metres.
    pub fn mean_snr_db(&self, d_m: f64) -> f64 {
        self.tx_power_dbm - self.path_loss_db(d_m) - self.noise_dbm
    }
}

/// Maps an SNR in dB to an iTbs operating point.
///
/// Linear link adaptation: −6 dB maps to iTbs 0 and each additional
/// 1.15 dB buys one index, saturating at [`crate::ITBS_MAX`]. This mirrors
/// the roughly linear SNR→MCS curves of LTE link-level studies.
///
/// # Example
///
/// ```
/// use flare_lte::mobility::snr_to_itbs;
/// use flare_lte::Itbs;
///
/// assert_eq!(snr_to_itbs(-10.0), Itbs::new(0));
/// assert_eq!(snr_to_itbs(50.0), Itbs::new(26));
/// assert!(snr_to_itbs(10.0) > snr_to_itbs(0.0));
/// ```
pub fn snr_to_itbs(snr_db: f64) -> Itbs {
    let idx = ((snr_db + 6.0) / 1.15).floor();
    Itbs::saturating_new(idx.clamp(0.0, 255.0) as u8)
}

/// Configuration for mobility-driven channels.
#[derive(Debug, Clone)]
pub struct MobilityConfig {
    /// Simulation area in metres (the paper uses 2000 × 2000).
    pub area: (f64, f64),
    /// UE speed range in m/s (vehicular: 10–25 m/s).
    pub speed_range: (f64, f64),
    /// Pause at each waypoint.
    pub pause: TimeDelta,
    /// How often the channel (position + shadowing) is re-sampled.
    pub update_interval: TimeDelta,
    /// Radio propagation parameters.
    pub propagation: Propagation,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            area: (2000.0, 2000.0),
            speed_range: (10.0, 25.0),
            pause: TimeDelta::from_secs(2),
            update_interval: TimeDelta::from_millis(100),
            propagation: Propagation::default(),
        }
    }
}

/// A live mobility-driven channel: random waypoint + path loss + shadowing.
///
/// The eNodeB sits at the centre of the area. Between `update_interval`
/// samples the iTbs is held constant, like a real CQI reporting period.
#[derive(Debug)]
pub struct MobilityChannel {
    walker: RandomWaypoint,
    config: MobilityConfig,
    enb: Position,
    shadow_db: f64,
    sigma_db: f64,
    rng: SmallRng,
    current: Itbs,
    next_update: Time,
}

impl MobilityChannel {
    /// Creates a mobility channel; `walk_rng` drives movement and
    /// `fade_rng` drives shadowing so the two processes are independent.
    pub fn new(config: MobilityConfig, walk_rng: SmallRng, fade_rng: SmallRng) -> Self {
        let walker = RandomWaypoint::new(config.area, config.speed_range, config.pause, walk_rng);
        let enb = Position {
            x: config.area.0 / 2.0,
            y: config.area.1 / 2.0,
        };
        let sigma = config.propagation.shadowing_sigma_db.max(0.0);
        let mut ch = MobilityChannel {
            walker,
            config,
            enb,
            shadow_db: 0.0,
            sigma_db: sigma,
            rng: fade_rng,
            current: Itbs::new(0),
            next_update: Time::ZERO,
        };
        ch.resample(Time::ZERO);
        ch
    }

    fn resample(&mut self, t: Time) {
        let pos = self.walker.position_at(t);
        let d = pos.distance_to(self.enb);
        let rho = self.config.propagation.shadowing_rho;
        let innovation = standard_normal(&mut self.rng) * self.sigma_db * (1.0 - rho * rho).sqrt();
        self.shadow_db = rho * self.shadow_db + innovation;
        let snr = self.config.propagation.mean_snr_db(d) + self.shadow_db;
        self.current = snr_to_itbs(snr);
        self.next_update = t + self.config.update_interval;
    }
}

impl ChannelModel for MobilityChannel {
    fn itbs_at(&mut self, t: Time) -> Itbs {
        while t >= self.next_update {
            let due = self.next_update;
            self.resample(due);
        }
        self.current
    }

    fn valid_until(&self, _t: Time) -> Time {
        self.next_update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_sim::rng::stream;

    fn walker(seed: u64) -> RandomWaypoint {
        RandomWaypoint::new(
            (2000.0, 2000.0),
            (10.0, 25.0),
            TimeDelta::from_secs(2),
            stream(seed, "walk", 0),
        )
    }

    #[test]
    fn waypoint_stays_in_area() {
        let mut rw = walker(3);
        for s in 0..2000 {
            let p = rw.position_at(Time::from_secs(s));
            assert!((0.0..=2000.0).contains(&p.x), "x out of area: {}", p.x);
            assert!((0.0..=2000.0).contains(&p.y), "y out of area: {}", p.y);
        }
    }

    #[test]
    fn waypoint_speed_is_bounded() {
        let mut rw = walker(4);
        let mut prev = rw.position_at(Time::ZERO);
        for s in 1..1200 {
            let cur = rw.position_at(Time::from_secs(s));
            let speed = prev.distance_to(cur);
            // Max configured speed is 25 m/s; one-second displacement can
            // never exceed it.
            assert!(speed <= 25.0 + 1e-6, "speed {speed} too high at {s}s");
            prev = cur;
        }
    }

    #[test]
    fn waypoint_is_reproducible() {
        let mut a = walker(9);
        let mut b = walker(9);
        for s in (0..600).step_by(7) {
            let t = Time::from_secs(s);
            assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    #[test]
    fn path_loss_increases_with_distance() {
        let p = Propagation::default();
        assert!(p.path_loss_db(100.0) < p.path_loss_db(500.0));
        assert!(p.path_loss_db(500.0) < p.path_loss_db(1400.0));
        assert!(p.mean_snr_db(100.0) > p.mean_snr_db(1400.0));
    }

    #[test]
    fn snr_mapping_is_monotone_and_saturating() {
        let mut prev = snr_to_itbs(-20.0);
        for i in -19..60 {
            let cur = snr_to_itbs(f64::from(i));
            assert!(cur >= prev);
            prev = cur;
        }
        assert_eq!(snr_to_itbs(-20.0), Itbs::new(0));
        assert_eq!(snr_to_itbs(100.0), Itbs::new(26));
    }

    #[test]
    fn operating_points_span_a_useful_range() {
        // Near-centre UEs should saturate; far-corner UEs should be low but
        // usable — this spread is what makes the mobile scenarios vary.
        let p = Propagation::default();
        assert!(snr_to_itbs(p.mean_snr_db(50.0)) >= Itbs::new(24));
        let edge = snr_to_itbs(p.mean_snr_db(1414.0));
        assert!(
            edge <= Itbs::new(10),
            "edge operating point too high: {edge:?}"
        );
    }

    #[test]
    fn mobility_channel_varies_and_reproduces() {
        let cfg = MobilityConfig::default();
        let mk = || MobilityChannel::new(cfg.clone(), stream(5, "walk", 1), stream(5, "fade", 1));
        let mut a = mk();
        let mut b = mk();
        let mut distinct = std::collections::HashSet::new();
        for s in 0..600 {
            let t = Time::from_secs(s);
            let v = a.itbs_at(t);
            assert_eq!(v, b.itbs_at(t));
            distinct.insert(v);
        }
        assert!(
            distinct.len() >= 3,
            "mobile channel should vary, got {distinct:?}"
        );
    }
}
