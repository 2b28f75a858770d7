//! Bearer QoS: guaranteed and maximum bit rates, enforced by token buckets.
//!
//! The paper's eNodeB modules map here directly: the **Continuous GBR
//! Updater** is [`crate::ENodeB::set_gbr`] re-writing a bearer's
//! [`BearerQos::gbr`] at every bitrate assignment interval, and AVIS's
//! MBR clamping is [`BearerQos::mbr`]. Both are paced by a [`TokenBucket`]:
//! the GBR bucket accumulates a *service credit* that phase-1 scheduling
//! tries to clear, and the MBR bucket caps how many bytes a flow may receive.

use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta, TTI};

/// Per-bearer QoS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BearerQos {
    /// Guaranteed bit rate: the MAC serves this flow with strict priority up
    /// to this rate.
    pub gbr: Option<Rate>,
    /// Maximum bit rate: the MAC never serves this flow above this rate
    /// (measured at token-bucket granularity).
    pub mbr: Option<Rate>,
}

/// A byte-denominated token bucket.
///
/// Tokens accrue at `rate` and cap at `burst`; consumers spend tokens as
/// bytes are served. Used for both GBR credit (how much the cell *owes* a
/// flow) and MBR allowance (how much a flow may still receive).
///
/// # Example
///
/// ```
/// use flare_lte::bearer::TokenBucket;
/// use flare_sim::units::{ByteCount, Rate};
/// use flare_sim::{Time, TimeDelta};
///
/// let mut tb = TokenBucket::new(Rate::from_mbps(1.0), TimeDelta::from_millis(200));
/// tb.advance(Time::from_millis(100));
/// // 1 Mbps for 100 ms = 12,500 bytes accrued.
/// assert_eq!(tb.available(), ByteCount::new(12_500));
/// tb.consume(ByteCount::new(500));
/// assert_eq!(tb.available(), ByteCount::new(12_000));
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Rate,
    burst_window: TimeDelta,
    /// `rate × burst_window` in bytes, recomputed only when the rate
    /// changes so the per-TTI clamp is a compare, not two multiplies.
    cap: f64,
    /// Tokens accrued over one TTI, `rate × 1 ms / 8`: the same float
    /// operations in the same order as the general accrual, so caching it
    /// changes no bit, and the per-TTI advance needs no division.
    tti_step: f64,
    tokens: f64,
    last: Time,
}

impl TokenBucket {
    /// Creates a bucket that accrues at `rate` and holds at most
    /// `rate × burst_window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `burst_window` is zero.
    pub fn new(rate: Rate, burst_window: TimeDelta) -> Self {
        assert!(!burst_window.is_zero(), "burst window must be non-zero");
        TokenBucket {
            rate,
            burst_window,
            cap: rate.as_bps() * burst_window.as_secs_f64() / 8.0,
            tti_step: accrual(rate, TTI),
            tokens: 0.0,
            last: Time::ZERO,
        }
    }

    /// Updates the accrual rate, keeping accumulated tokens (the Continuous
    /// GBR Updater path).
    pub fn set_rate(&mut self, rate: Rate) {
        self.rate = rate;
        self.cap = rate.as_bps() * self.burst_window.as_secs_f64() / 8.0;
        self.tti_step = accrual(rate, TTI);
        self.clamp_to_burst();
    }

    /// Returns the current accrual rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Accrues tokens up to time `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the previous call.
    pub fn advance(&mut self, now: Time) {
        debug_assert!(now >= self.last, "token bucket time must be monotone");
        // A full bucket stays exactly full under any accrual-then-clamp, so
        // the float work can be skipped outright.
        if self.tokens >= self.cap {
            self.last = now;
            return;
        }
        let dt = now.saturating_since(self.last);
        self.tokens += if dt == TTI {
            self.tti_step
        } else {
            accrual(self.rate, dt)
        };
        self.last = now;
        self.clamp_to_burst();
    }

    /// True when the bucket holds its full burst allowance, i.e. an
    /// [`TokenBucket::advance`] of any length cannot change it.
    pub fn is_full(&self) -> bool {
        self.tokens >= self.cap
    }

    fn clamp_to_burst(&mut self) {
        if self.tokens > self.cap {
            self.tokens = self.cap;
        }
    }

    /// Whole bytes currently available.
    pub fn available(&self) -> ByteCount {
        ByteCount::new(self.tokens.max(0.0) as u64)
    }

    /// Spends `bytes` tokens (may drive the bucket slightly negative when a
    /// transport block overshoots the remaining allowance, which models MBR
    /// enforcement at TB granularity).
    pub fn consume(&mut self, bytes: ByteCount) {
        self.tokens -= bytes.as_u64() as f64;
    }

    /// Empties the bucket.
    pub fn drain(&mut self) {
        self.tokens = 0.0;
    }
}

/// Bytes a bucket filling at `rate` accrues over `dt`.
fn accrual(rate: Rate, dt: TimeDelta) -> f64 {
    rate.as_bps() * dt.as_secs_f64() / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accrues_at_rate() {
        let mut tb = TokenBucket::new(Rate::from_kbps(800.0), TimeDelta::from_secs(10));
        tb.advance(Time::from_secs(1));
        assert_eq!(tb.available(), ByteCount::new(100_000));
    }

    #[test]
    fn burst_caps_accrual() {
        let mut tb = TokenBucket::new(Rate::from_mbps(1.0), TimeDelta::from_millis(200));
        tb.advance(Time::from_secs(60));
        // Cap = 1 Mbps * 0.2 s / 8 = 25,000 bytes.
        assert_eq!(tb.available(), ByteCount::new(25_000));
    }

    #[test]
    fn consume_and_negative_balance() {
        let mut tb = TokenBucket::new(Rate::from_mbps(1.0), TimeDelta::from_millis(200));
        tb.advance(Time::from_millis(8));
        assert_eq!(tb.available(), ByteCount::new(1000));
        tb.consume(ByteCount::new(1500));
        assert_eq!(tb.available(), ByteCount::ZERO);
        // The deficit must be paid back before tokens reappear.
        tb.advance(Time::from_millis(10));
        assert_eq!(tb.available(), ByteCount::ZERO);
        tb.advance(Time::from_millis(20));
        assert_eq!(tb.available(), ByteCount::new(1000));
    }

    #[test]
    fn set_rate_reclamps() {
        let mut tb = TokenBucket::new(Rate::from_mbps(8.0), TimeDelta::from_millis(100));
        tb.advance(Time::from_secs(1));
        assert_eq!(tb.available(), ByteCount::new(100_000));
        tb.set_rate(Rate::from_kbps(800.0));
        // New cap = 800 kbps * 0.1 s / 8 = 10,000 bytes.
        assert_eq!(tb.available(), ByteCount::new(10_000));
        assert_eq!(tb.rate(), Rate::from_kbps(800.0));
    }

    #[test]
    fn drain_empties() {
        let mut tb = TokenBucket::new(Rate::from_mbps(1.0), TimeDelta::from_secs(1));
        tb.advance(Time::from_millis(500));
        assert!(!tb.available().is_zero());
        tb.drain();
        assert_eq!(tb.available(), ByteCount::ZERO);
    }

    #[test]
    fn zero_rate_never_accrues() {
        let mut tb = TokenBucket::new(Rate::ZERO, TimeDelta::from_secs(1));
        tb.advance(Time::from_secs(100));
        assert_eq!(tb.available(), ByteCount::ZERO);
    }

    #[test]
    #[should_panic(expected = "burst window")]
    fn zero_burst_window_panics() {
        let _ = TokenBucket::new(Rate::from_mbps(1.0), TimeDelta::ZERO);
    }

    #[test]
    fn qos_default_is_best_effort() {
        let qos = BearerQos::default();
        assert!(qos.gbr.is_none());
        assert!(qos.mbr.is_none());
    }
}
