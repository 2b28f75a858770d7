//! Shared physical quantities: bit rates and byte counts.
//!
//! Every crate in the workspace moves data around, so the unit newtypes live
//! in the kernel crate. [`Rate`] is a bit rate in bits/second backed by `f64`
//! (rates are the output of estimators and optimizers, which are inherently
//! fractional); [`ByteCount`] is an exact byte tally backed by `u64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::TimeDelta;

/// A bit rate in bits per second.
///
/// # Example
///
/// ```
/// use flare_sim::units::Rate;
///
/// let r = Rate::from_kbps(790.0);
/// assert_eq!(r.as_bps(), 790_000.0);
/// assert_eq!(r.as_kbps(), 790.0);
/// assert!(Rate::from_mbps(1.0) > r);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// The zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// Creates a rate from bits per second.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `bps` is negative or NaN.
    pub fn from_bps(bps: f64) -> Self {
        debug_assert!(bps >= 0.0 && !bps.is_nan(), "rate must be non-negative");
        Rate(bps)
    }

    /// Creates a rate from kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        Rate::from_bps(kbps * 1e3)
    }

    /// Creates a rate from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Rate::from_bps(mbps * 1e6)
    }

    /// Returns the rate in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Returns the rate in kilobits per second.
    pub fn as_kbps(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the rate in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the number of whole bytes transferred at this rate over `dt`.
    pub fn bytes_over(self, dt: TimeDelta) -> ByteCount {
        ByteCount::new((self.0 * dt.as_secs_f64() / 8.0).floor() as u64)
    }

    /// Returns the smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Returns the larger of two rates.
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// Returns `true` if the rate is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    /// Saturating at zero: rates are never negative.
    fn sub(self, rhs: Rate) -> Rate {
        Rate((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    fn mul(self, rhs: f64) -> Rate {
        Rate::from_bps(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    fn div(self, rhs: f64) -> Rate {
        Rate::from_bps(self.0 / rhs)
    }
}

impl Div<Rate> for Rate {
    type Output = f64;
    /// Dimensionless ratio of two rates.
    fn div(self, rhs: Rate) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}kbps", self.as_kbps())
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2} Mbps", self.as_mbps())
        } else {
            write!(f, "{:.0} kbps", self.as_kbps())
        }
    }
}

/// An exact count of bytes.
///
/// # Example
///
/// ```
/// use flare_sim::units::{ByteCount, Rate};
/// use flare_sim::TimeDelta;
///
/// // A 10-second segment at 790 kbps is 987,500 bytes.
/// let seg = Rate::from_kbps(790.0).bytes_over(TimeDelta::from_secs(10));
/// assert_eq!(seg, ByteCount::new(987_500));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteCount(u64);

impl ByteCount {
    /// The zero count.
    pub const ZERO: ByteCount = ByteCount(0);

    /// Creates a byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteCount(bytes)
    }

    /// Returns the raw number of bytes.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the count in bits, saturating at `u64::MAX` (greedy flows are
    /// modelled with effectively infinite backlogs).
    pub const fn as_bits(self) -> u64 {
        self.0.saturating_mul(8)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two counts.
    #[inline]
    pub fn min(self, other: ByteCount) -> ByteCount {
        ByteCount(self.0.min(other.0))
    }

    /// Returns the average rate achieved by transferring this many bytes over
    /// `dt`, or zero for an empty interval.
    pub fn rate_over(self, dt: TimeDelta) -> Rate {
        if dt.is_zero() {
            Rate::ZERO
        } else {
            Rate::from_bps(self.as_bits() as f64 / dt.as_secs_f64())
        }
    }

    /// Returns `true` if the count is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for ByteCount {
    type Output = ByteCount;
    fn add(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0 + rhs.0)
    }
}

impl AddAssign for ByteCount {
    fn add_assign(&mut self, rhs: ByteCount) {
        self.0 += rhs.0;
    }
}

impl Sum for ByteCount {
    fn sum<I: Iterator<Item = ByteCount>>(iter: I) -> ByteCount {
        iter.fold(ByteCount::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl fmt::Display for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bytes", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_unit_conversions() {
        let r = Rate::from_mbps(2.5);
        assert_eq!(r.as_kbps(), 2500.0);
        assert_eq!(r.as_bps(), 2_500_000.0);
        assert_eq!(Rate::from_kbps(100.0).as_mbps(), 0.1);
    }

    #[test]
    fn rate_arithmetic() {
        let a = Rate::from_kbps(100.0);
        let b = Rate::from_kbps(250.0);
        assert_eq!((a + b).as_kbps(), 350.0);
        assert_eq!((b - a).as_kbps(), 150.0);
        // Subtraction saturates at zero.
        assert_eq!((a - b), Rate::ZERO);
        assert_eq!((a * 3.0).as_kbps(), 300.0);
        assert_eq!((b / 2.0).as_kbps(), 125.0);
        assert_eq!(b / a, 2.5);
    }

    #[test]
    fn rate_min_max_sum() {
        let rates = [
            Rate::from_kbps(1.0),
            Rate::from_kbps(2.0),
            Rate::from_kbps(3.0),
        ];
        assert_eq!(rates.iter().copied().sum::<Rate>().as_kbps(), 6.0);
        assert_eq!(rates[0].max(rates[2]), rates[2]);
        assert_eq!(rates[0].min(rates[2]), rates[0]);
    }

    #[test]
    fn bytes_over_matches_hand_computation() {
        // 1 Mbps over 1 ms = 125 bytes.
        assert_eq!(
            Rate::from_mbps(1.0).bytes_over(TimeDelta::from_millis(1)),
            ByteCount::new(125)
        );
        // Fractional byte counts are floored.
        assert_eq!(
            Rate::from_bps(9.0).bytes_over(TimeDelta::from_secs(1)),
            ByteCount::new(1)
        );
    }

    #[test]
    fn rate_over_inverts_bytes_over() {
        let dt = TimeDelta::from_secs(10);
        let bytes = Rate::from_kbps(790.0).bytes_over(dt);
        let back = bytes.rate_over(dt);
        assert!((back.as_kbps() - 790.0).abs() < 0.01);
    }

    #[test]
    fn rate_over_empty_interval_is_zero() {
        assert_eq!(ByteCount::new(1000).rate_over(TimeDelta::ZERO), Rate::ZERO);
    }

    #[test]
    fn byte_count_arithmetic() {
        let a = ByteCount::new(10);
        let b = ByteCount::new(4);
        assert_eq!((a + b).as_u64(), 14);
        assert_eq!(a.saturating_sub(b).as_u64(), 6);
        assert_eq!(b.saturating_sub(a), ByteCount::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.as_bits(), 80);
        assert!(ByteCount::ZERO.is_zero());
    }

    #[test]
    fn byte_count_sum() {
        let total: ByteCount = (1..=4).map(ByteCount::new).sum();
        assert_eq!(total, ByteCount::new(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rate::from_kbps(790.0).to_string(), "790 kbps");
        assert_eq!(Rate::from_mbps(2.5).to_string(), "2.50 Mbps");
        assert_eq!(ByteCount::new(5).to_string(), "5 bytes");
        assert_eq!(format!("{:?}", ByteCount::new(5)), "5B");
    }
}
