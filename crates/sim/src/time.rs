//! Millisecond-resolution simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Length of one LTE transmission time interval (TTI).
///
/// The FLARE paper's femtocell (JL-620) and the ns-3 LTE module both schedule
/// resource blocks once per 1 ms TTI, so the kernel's native tick is 1 ms.
pub const TTI: TimeDelta = TimeDelta::from_millis(1);

/// An absolute simulation time, measured in milliseconds since the start of
/// the simulation.
///
/// `Time` is a newtype over `u64`; arithmetic with [`TimeDelta`] is checked in
/// debug builds via the underlying integer operations.
///
/// # Example
///
/// ```
/// use flare_sim::{Time, TimeDelta};
///
/// let t = Time::from_secs(3) + TimeDelta::from_millis(250);
/// assert_eq!(t.as_millis(), 3250);
/// assert_eq!(t.as_secs_f64(), 3.25);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulation time, measured in milliseconds.
///
/// # Example
///
/// ```
/// use flare_sim::TimeDelta;
///
/// let bai = TimeDelta::from_secs(10);
/// assert_eq!(bai.as_millis(), 10_000);
/// assert_eq!(bai / TimeDelta::from_millis(1), 10_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// The end of simulated time: a deadline that never falls due.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Time(secs * 1000)
    }

    /// Returns the time in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the time in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns the time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> TimeDelta {
        debug_assert!(earlier <= self, "since() requires earlier <= self");
        TimeDelta(self.0 - earlier.0)
    }

    /// Returns the time elapsed since `earlier`, or zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// The zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeDelta(ms)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        TimeDelta(secs * 1000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// millisecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "span must be non-negative");
        TimeDelta((secs * 1000.0).round() as u64)
    }

    /// Returns the span in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the span by an integer factor.
    pub const fn times(self, factor: u64) -> TimeDelta {
        TimeDelta(self.0 * factor)
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<TimeDelta> for TimeDelta {
    type Output = u64;
    /// Returns how many whole `rhs` spans fit in `self`.
    fn div(self, rhs: TimeDelta) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_and_accessors() {
        assert_eq!(Time::from_secs(2), Time::from_millis(2000));
        assert_eq!(Time::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(Time::ZERO.as_millis(), 0);
    }

    #[test]
    fn delta_construction_and_accessors() {
        assert_eq!(TimeDelta::from_secs(10).as_millis(), 10_000);
        assert_eq!(TimeDelta::from_secs_f64(0.25).as_millis(), 250);
        assert!(TimeDelta::ZERO.is_zero());
        assert!(!TTI.is_zero());
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = Time::from_secs(1) + TimeDelta::from_millis(500);
        assert_eq!(t.as_millis(), 1500);
        assert_eq!((t - TimeDelta::from_millis(500)).as_millis(), 1000);
        assert_eq!(t.since(Time::from_secs(1)).as_millis(), 500);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Time::from_millis(10);
        let late = Time::from_millis(20);
        assert_eq!(early.saturating_since(late), TimeDelta::ZERO);
        assert_eq!(late.saturating_since(early).as_millis(), 10);
    }

    #[test]
    fn delta_division_counts_whole_spans() {
        assert_eq!(TimeDelta::from_secs(10) / TTI, 10_000);
        assert_eq!(TimeDelta::from_millis(999) / TimeDelta::from_millis(500), 1);
    }

    #[test]
    fn delta_mul_and_times_agree() {
        assert_eq!(TTI * 50, TTI.times(50));
        assert_eq!((TTI * 50).as_millis(), 50);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(TimeDelta::from_millis(1) < TimeDelta::from_secs(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_millis(1250).to_string(), "1.250s");
        assert_eq!(format!("{:?}", Time::from_millis(5)), "t=5ms");
        assert_eq!(TimeDelta::from_millis(30).to_string(), "0.030s");
    }

    #[test]
    fn saturating_sub_delta() {
        let a = TimeDelta::from_millis(5);
        let b = TimeDelta::from_millis(7);
        assert_eq!(a.saturating_sub(b), TimeDelta::ZERO);
        assert_eq!(b.saturating_sub(a).as_millis(), 2);
    }
}
