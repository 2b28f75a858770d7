//! The MPEG-DASH/Media Source demo player — "GOOGLE" in the paper.

use flare_has::estimator::{DualWindow, ThroughputEstimator, ThroughputSample};
use flare_has::{AdaptContext, DownloadSample, Level, RateAdapter};
use flare_sim::units::Rate;

/// The reference player's rate control: two arithmetic-mean bandwidth
/// estimates over long- and short-term histories, then "the highest
/// available video rate ≤ 0.85 · min(b^l, b^s)" (Section IV-A).
///
/// Unlike FESTIVE there is no gradual switching and no stability score: the
/// player jumps straight to the computed level. That aggressiveness is what
/// produces the frequent re-buffering the paper observes (Figure 4b).
#[derive(Debug, Clone)]
pub struct Google {
    estimator: DualWindow,
}

impl Google {
    /// Long-window length in segments (`b^l`). The paper names the two
    /// windows but not their lengths; 20 and 5 are this reproduction's.
    const LONG_WINDOW: usize = 20;
    /// Short-window length in segments (`b^s`).
    const SHORT_WINDOW: usize = 5;
    /// Safety factor: select the highest rate `≤ 0.85 · min(b^l, b^s)`
    /// (Section IV-A).
    const SAFETY: f64 = 0.85;
}

impl Default for Google {
    fn default() -> Self {
        Google {
            estimator: DualWindow::new(Self::LONG_WINDOW, Self::SHORT_WINDOW),
        }
    }
}

impl RateAdapter for Google {
    fn on_download_complete(&mut self, sample: DownloadSample) {
        self.estimator.record(ThroughputSample {
            bytes: sample.bytes,
            elapsed: sample.elapsed,
        });
    }

    fn next_level(&mut self, ctx: &AdaptContext) -> Level {
        match self.estimator.estimate() {
            None => ctx.ladder.lowest(),
            Some(est) => {
                let budget = Rate::from_bps(est.as_bps() * Self::SAFETY);
                ctx.ladder.highest_at_most_or_lowest(budget)
            }
        }
    }

    fn name(&self) -> &'static str {
        "google"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_has::BitrateLadder;
    use flare_sim::{Time, TimeDelta};

    fn ctx<'a>(ladder: &'a BitrateLadder, last: Option<Level>) -> AdaptContext<'a> {
        AdaptContext {
            now: Time::ZERO,
            ladder,
            buffer_level: TimeDelta::from_secs(15),
            last_level: last,
            segment_duration: TimeDelta::from_secs(10),
            segment_index: 0,
        }
    }

    fn feed(g: &mut Google, mbps: f64) {
        g.on_download_complete(DownloadSample {
            completed_at: Time::ZERO,
            level: Level::new(0),
            bytes: Rate::from_mbps(mbps).bytes_over(TimeDelta::from_secs(1)),
            elapsed: TimeDelta::from_secs(1),
        });
    }

    #[test]
    fn starts_at_lowest_without_history() {
        let ladder = BitrateLadder::testbed();
        let mut g = Google::default();
        assert_eq!(g.next_level(&ctx(&ladder, None)), Level::new(0));
    }

    #[test]
    fn applies_safety_factor_to_min_estimate() {
        let ladder = BitrateLadder::testbed();
        let mut g = Google::default();
        for _ in 0..10 {
            feed(&mut g, 1.0); // 1 Mbps steady
        }
        // 0.85 Mbps budget -> 790 kbps (level 3).
        assert_eq!(
            g.next_level(&ctx(&ladder, Some(Level::new(0)))),
            Level::new(3)
        );
    }

    #[test]
    fn jumps_multiple_levels_at_once() {
        let ladder = BitrateLadder::testbed();
        let mut g = Google::default();
        for _ in 0..10 {
            feed(&mut g, 4.0);
        }
        // 3.4 Mbps budget -> top of the ladder, straight from level 0:
        // the aggressiveness FESTIVE's gradual switching avoids.
        assert_eq!(
            g.next_level(&ctx(&ladder, Some(Level::new(0)))),
            Level::new(7)
        );
    }

    #[test]
    fn short_window_dips_pull_the_estimate_down() {
        let ladder = BitrateLadder::testbed();
        let mut g = Google::default();
        for _ in 0..10 {
            feed(&mut g, 4.0);
        }
        for _ in 0..5 {
            feed(&mut g, 0.4); // a short outage filling the 5-sample window
        }
        // Short window now sees 0.4 Mbps: budget 0.34 Mbps -> 310 kbps.
        assert_eq!(
            g.next_level(&ctx(&ladder, Some(Level::new(7)))),
            Level::new(1)
        );
    }
}
