//! Client-side throughput estimators.
//!
//! Client-side HAS algorithms estimate available bandwidth from the
//! throughput history of recently downloaded segments (Section I-B). The
//! estimators here are the ones the evaluated players use:
//!
//! * [`SlidingMean`] — arithmetic mean over the last *n* samples.
//! * [`HarmonicMean`] — FESTIVE's estimator, robust to outlier-fast
//!   segments.
//! * [`DualWindow`] — the reference MPEG-DASH player's long/short pair
//!   (`b^l`, `b^s`); GOOGLE picks the highest encoding
//!   `≤ 0.85 · min(b^l, b^s)`.

use std::collections::VecDeque;

use flare_sim::units::{ByteCount, Rate};
use flare_sim::TimeDelta;

/// One completed download, as seen by an estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// Bytes transferred.
    pub bytes: ByteCount,
    /// Wall-clock transfer time.
    pub elapsed: TimeDelta,
}

impl ThroughputSample {
    /// The sample's average rate (zero for an instantaneous transfer).
    pub fn rate(&self) -> Rate {
        self.bytes.rate_over(self.elapsed)
    }
}

/// An online throughput estimator.
pub trait ThroughputEstimator {
    /// Feeds one completed download.
    fn record(&mut self, sample: ThroughputSample);

    /// Current estimate, or `None` before the first sample.
    fn estimate(&self) -> Option<Rate>;
}

/// Arithmetic mean of the last `window` samples.
///
/// # Example
///
/// ```
/// use flare_has::estimator::{SlidingMean, ThroughputEstimator, ThroughputSample};
/// use flare_sim::units::ByteCount;
/// use flare_sim::TimeDelta;
///
/// let mut est = SlidingMean::new(3);
/// assert!(est.estimate().is_none());
/// est.record(ThroughputSample { bytes: ByteCount::new(125_000), elapsed: TimeDelta::from_secs(1) });
/// assert_eq!(est.estimate().unwrap().as_mbps(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingMean {
    window: usize,
    samples: VecDeque<Rate>,
}

impl SlidingMean {
    /// Creates a mean over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        SlidingMean {
            window,
            samples: VecDeque::new(),
        }
    }
}

impl ThroughputEstimator for SlidingMean {
    fn record(&mut self, sample: ThroughputSample) {
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(sample.rate());
    }

    fn estimate(&self) -> Option<Rate> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: Rate = self.samples.iter().copied().sum();
        Some(sum / self.samples.len() as f64)
    }
}

/// Harmonic mean of the last `window` samples — FESTIVE's bandwidth
/// estimator (robust against short bursts of overestimation).
#[derive(Debug, Clone)]
pub struct HarmonicMean {
    window: usize,
    samples: VecDeque<Rate>,
}

impl HarmonicMean {
    /// Creates a harmonic mean over the last `window` samples (FESTIVE
    /// uses 20).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        HarmonicMean {
            window,
            samples: VecDeque::new(),
        }
    }
}

impl ThroughputEstimator for HarmonicMean {
    fn record(&mut self, sample: ThroughputSample) {
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(sample.rate());
    }

    fn estimate(&self) -> Option<Rate> {
        if self.samples.is_empty() {
            return None;
        }
        let inv_sum: f64 = self.samples.iter().map(|r| 1.0 / r.as_bps().max(1.0)).sum();
        Some(Rate::from_bps(self.samples.len() as f64 / inv_sum))
    }
}

/// The reference player's long/short window pair.
///
/// `GOOGLE` (the MPEG-DASH/Media Source demo player) keeps two bandwidth
/// estimates over long- and short-term histories and selects the highest
/// encoding `≤ safety · min(b_long, b_short)` with `safety = 0.85`.
#[derive(Debug, Clone)]
pub struct DualWindow {
    long: SlidingMean,
    short: SlidingMean,
}

impl DualWindow {
    /// Creates the pair from the two window lengths, in segments.
    ///
    /// # Panics
    ///
    /// Panics if either window is zero or `long_window < short_window`.
    pub fn new(long_window: usize, short_window: usize) -> Self {
        assert!(
            long_window >= short_window,
            "long window must be at least the short window"
        );
        DualWindow {
            long: SlidingMean::new(long_window),
            short: SlidingMean::new(short_window),
        }
    }

    /// The conservative estimate `min(b_long, b_short)`.
    pub fn conservative(&self) -> Option<Rate> {
        match (self.long.estimate(), self.short.estimate()) {
            (Some(l), Some(s)) => Some(l.min(s)),
            _ => None,
        }
    }
}

impl ThroughputEstimator for DualWindow {
    fn record(&mut self, sample: ThroughputSample) {
        self.long.record(sample);
        self.short.record(sample);
    }

    fn estimate(&self) -> Option<Rate> {
        self.conservative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(mbps: f64) -> ThroughputSample {
        ThroughputSample {
            bytes: Rate::from_mbps(mbps).bytes_over(TimeDelta::from_secs(1)),
            elapsed: TimeDelta::from_secs(1),
        }
    }

    #[test]
    fn sample_rate_round_trips() {
        let s = sample(2.0);
        assert!((s.rate().as_mbps() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sliding_mean_windows() {
        let mut est = SlidingMean::new(2);
        est.record(sample(1.0));
        est.record(sample(3.0));
        assert!((est.estimate().unwrap().as_mbps() - 2.0).abs() < 1e-6);
        // Third sample evicts the first.
        est.record(sample(5.0));
        assert!((est.estimate().unwrap().as_mbps() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn harmonic_mean_is_below_arithmetic() {
        let mut h = HarmonicMean::new(10);
        let mut a = SlidingMean::new(10);
        for m in [1.0, 1.0, 10.0] {
            h.record(sample(m));
            a.record(sample(m));
        }
        let hm = h.estimate().unwrap();
        let am = a.estimate().unwrap();
        assert!(hm < am, "harmonic {hm} must undercut arithmetic {am}");
        // Harmonic mean of {1, 1, 10} = 3 / (1 + 1 + 0.1) = ~1.43 Mbps.
        assert!((hm.as_mbps() - 1.4286).abs() < 0.01);
    }

    #[test]
    fn dual_window_takes_min() {
        let mut d = DualWindow::new(3, 1);
        d.record(sample(4.0));
        d.record(sample(4.0));
        // Short window sees only the dip; long window still remembers 4.0.
        d.record(sample(1.0));
        let est = d.estimate().unwrap();
        assert!(
            (est.as_mbps() - 1.0).abs() < 1e-6,
            "short dip must dominate: {est}"
        );
    }

    #[test]
    fn estimators_start_empty() {
        assert!(SlidingMean::new(3).estimate().is_none());
        assert!(HarmonicMean::new(3).estimate().is_none());
        assert!(DualWindow::new(3, 1).estimate().is_none());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = SlidingMean::new(0);
    }

    proptest! {
        #[test]
        fn means_stay_within_sample_range(samples in prop::collection::vec(0.1f64..100.0, 1..30)) {
            let mut sm = SlidingMean::new(50);
            let mut hm = HarmonicMean::new(50);
            for &m in &samples {
                sm.record(sample(m));
                hm.record(sample(m));
            }
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(0.0, f64::max);
            let s = sm.estimate().unwrap().as_mbps();
            let h = hm.estimate().unwrap().as_mbps();
            // Samples are quantized to whole bytes, so allow ~100 bps slack.
            let eps = 1e-4;
            prop_assert!(s >= lo - eps && s <= hi + eps);
            prop_assert!(h >= lo - eps && h <= hi + eps);
            prop_assert!(h <= s + eps, "harmonic must not exceed arithmetic");
        }
    }
}
