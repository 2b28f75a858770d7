//! UE mobility and radio propagation: the ns-3 "trace based model".
//!
//! The paper's simulations place UEs randomly in a 2000 m × 2000 m area and,
//! for the mobile scenarios, move them like vehicles; link quality comes from
//! a trace-based channel model. We reproduce that pipeline end to end:
//!
//! 1. [`RandomWaypoint`] moves a UE between uniformly random waypoints at a
//!    uniformly random vehicular speed,
//! 2. `mean_snr_db` converts eNodeB distance to SNR with a 3GPP-style
//!    log-distance path loss, to which [`MobilityChannel`] adds AR(1)
//!    lognormal shadowing,
//! 3. [`snr_to_itbs`] maps SNR to the iTbs operating point used by link
//!    adaptation, and
//! 4. [`MobilityChannel`] packages 1–3 as a [`ChannelModel`], generating
//!    the trace live as the cell polls it; [`stationary_itbs`] is the
//!    static scenarios' frozen sample of 2–3.
//!
//! Every parameter is the paper's Table III cell or the calibration in
//! DESIGN.md, and each is a constant: no experiment varies them.

use flare_sim::rng::standard_normal;
use flare_sim::{Time, TimeDelta};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::channel::ChannelModel;
use crate::tbs::Itbs;

/// Side of the square simulation area in metres (Table III: 2000 m ×
/// 2000 m).
const AREA_SIDE_M: f64 = 2000.0;

/// The eNodeB's position: the centre of the area.
const ENB: Position = Position {
    x: AREA_SIDE_M / 2.0,
    y: AREA_SIDE_M / 2.0,
};

/// UE speed range in m/s (vehicular).
const SPEED_RANGE_MPS: (f64, f64) = (10.0, 25.0);

/// Pause at each waypoint.
const PAUSE: TimeDelta = TimeDelta::from_secs(2);

/// How often a [`MobilityChannel`] re-samples position and shadowing.
const UPDATE_INTERVAL: TimeDelta = TimeDelta::from_millis(100);

/// Transmit power minus fixed margins, in dBm.
const TX_POWER_DBM: f64 = 32.0;

/// Effective noise-plus-interference floor, in dBm.
const NOISE_DBM: f64 = -95.0;

/// Path loss at the reference distance of 1 km, in dB.
const PL_1KM_DB: f64 = 128.1;

/// Path loss slope per decade of distance, in dB.
const SLOPE_DB_PER_DECADE: f64 = 37.6;

/// Standard deviation of lognormal shadowing, in dB.
const SHADOWING_SIGMA_DB: f64 = 4.0;

/// AR(1) correlation of shadowing between consecutive samples.
const SHADOWING_RHO: f64 = 0.98;

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

/// Random-waypoint mobility in the paper's 2000 m × 2000 m area.
///
/// The UE repeatedly picks a uniform waypoint and a uniform vehicular speed
/// (10–25 m/s), travels there in a straight line, pauses for 2 s, and
/// repeats. Queries must use non-decreasing times.
///
/// # Example
///
/// ```
/// use flare_lte::mobility::RandomWaypoint;
/// use flare_sim::rng::stream;
/// use flare_sim::Time;
///
/// let mut rw = RandomWaypoint::new(stream(1, "ue", 0));
/// let p0 = rw.position_at(Time::ZERO);
/// let p1 = rw.position_at(Time::from_secs(60));
/// assert!(p0.distance_to(p1) > 0.0);
/// ```
#[derive(Debug)]
pub struct RandomWaypoint {
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
    /// Creates a random-waypoint walker starting at a uniform position.
    pub fn new(mut rng: SmallRng) -> Self {
        let start = Position {
            x: rng.gen::<f64>() * AREA_SIDE_M,
            y: rng.gen::<f64>() * AREA_SIDE_M,
        };
        let mut rw = RandomWaypoint {
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
            x: self.rng.gen::<f64>() * AREA_SIDE_M,
            y: self.rng.gen::<f64>() * AREA_SIDE_M,
        };
        let dist = self.leg_start_pos.distance_to(self.waypoint);
        let speed = self.rng.gen_range(SPEED_RANGE_MPS.0..=SPEED_RANGE_MPS.1);
        let travel = TimeDelta::from_secs_f64((dist / speed).max(1e-3));
        self.leg_start = now;
        self.leg_arrive = now + travel;
        self.leg_end = self.leg_arrive + PAUSE;
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

/// Deterministic path loss in dB at distance `d_m` metres: the 3GPP macro
/// model `PL = 128.1 + 37.6·log10(d_km)`, floored at 10 m.
fn path_loss_db(d_m: f64) -> f64 {
    let d_km = (d_m / 1000.0).max(0.01);
    PL_1KM_DB + SLOPE_DB_PER_DECADE * d_km.log10()
}

/// Mean SNR in dB (no shadowing) at distance `d_m` metres.
///
/// The interference-adjusted link budget is calibrated so that a UE at the
/// cell edge of the paper's 2000 m × 2000 m area operates around iTbs 4–8
/// and a UE near the eNodeB saturates link adaptation — the spread the
/// mobile scenarios need.
fn mean_snr_db(d_m: f64) -> f64 {
    TX_POWER_DBM - path_loss_db(d_m) - NOISE_DBM
}

/// The operating point of a stationary UE: a uniform position in the area
/// plus one lognormal shadowing draw, both from `rng` (the ns-3 static
/// scenarios).
pub fn stationary_itbs(mut rng: SmallRng) -> Itbs {
    let pos = Position {
        x: rng.gen::<f64>() * AREA_SIDE_M,
        y: rng.gen::<f64>() * AREA_SIDE_M,
    };
    let shadow = standard_normal(&mut rng) * SHADOWING_SIGMA_DB;
    snr_to_itbs(mean_snr_db(pos.distance_to(ENB)) + shadow)
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

/// Selects the Table III vehicular mobility model. It has no settings: the
/// area, speeds, pause, sampling interval and propagation are this module's
/// constants.
#[derive(Debug, Clone, Default)]
pub struct MobilityConfig;

/// A live mobility-driven channel: random waypoint + path loss + shadowing.
///
/// The eNodeB sits at the centre of the area. Between 100 ms samples the
/// iTbs is held constant, like a real CQI reporting period.
#[derive(Debug)]
pub struct MobilityChannel {
    walker: RandomWaypoint,
    shadow_db: f64,
    rng: SmallRng,
    current: Itbs,
    next_update: Time,
}

impl MobilityChannel {
    /// Creates a mobility channel; `walk_rng` drives movement and
    /// `fade_rng` drives shadowing so the two processes are independent.
    pub fn new(walk_rng: SmallRng, fade_rng: SmallRng) -> Self {
        let mut ch = MobilityChannel {
            walker: RandomWaypoint::new(walk_rng),
            shadow_db: 0.0,
            rng: fade_rng,
            current: Itbs::new(0),
            next_update: Time::ZERO,
        };
        ch.resample(Time::ZERO);
        ch
    }

    fn resample(&mut self, t: Time) {
        let pos = self.walker.position_at(t);
        let d = pos.distance_to(ENB);
        let rho = SHADOWING_RHO;
        let innovation =
            standard_normal(&mut self.rng) * SHADOWING_SIGMA_DB * (1.0 - rho * rho).sqrt();
        self.shadow_db = rho * self.shadow_db + innovation;
        let snr = mean_snr_db(d) + self.shadow_db;
        self.current = snr_to_itbs(snr);
        self.next_update = t + UPDATE_INTERVAL;
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
        RandomWaypoint::new(stream(seed, "walk", 0))
    }

    #[test]
    fn waypoint_stays_in_area() {
        let mut rw = walker(3);
        for s in 0..2000 {
            let p = rw.position_at(Time::from_secs(s));
            assert!((0.0..=AREA_SIDE_M).contains(&p.x), "x out of area: {}", p.x);
            assert!((0.0..=AREA_SIDE_M).contains(&p.y), "y out of area: {}", p.y);
        }
    }

    #[test]
    fn waypoint_speed_is_bounded() {
        let mut rw = walker(4);
        let mut prev = rw.position_at(Time::ZERO);
        for s in 1..1200 {
            let cur = rw.position_at(Time::from_secs(s));
            let speed = prev.distance_to(cur);
            // One-second displacement can never exceed the top speed.
            assert!(
                speed <= SPEED_RANGE_MPS.1 + 1e-6,
                "speed {speed} too high at {s}s"
            );
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
        assert!(path_loss_db(100.0) < path_loss_db(500.0));
        assert!(path_loss_db(500.0) < path_loss_db(1400.0));
        assert!(mean_snr_db(100.0) > mean_snr_db(1400.0));
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
        assert!(snr_to_itbs(mean_snr_db(50.0)) >= Itbs::new(24));
        let edge = snr_to_itbs(mean_snr_db(1414.0));
        assert!(
            edge <= Itbs::new(10),
            "edge operating point too high: {edge:?}"
        );
    }

    #[test]
    fn mobility_channel_varies_and_reproduces() {
        let mk = || MobilityChannel::new(stream(5, "walk", 1), stream(5, "fade", 1));
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
