//! The plain rate-based controller AVIS pairs with on the UE.

use flare_has::estimator::{HarmonicMean, ThroughputEstimator, ThroughputSample};
use flare_has::{AdaptContext, DownloadSample, Level, RateAdapter};

/// "A simple rate adaptation algorithm on a UE that requests the highest
/// possible rate based on the estimated throughput" (Section IV-B's AVIS
/// setup) — no safety factor, no switching discipline.
///
/// The network side separately clamps the flow with an MBR, so the estimate
/// converges towards whatever cap the allocator chose; but since the cap
/// rarely coincides with a ladder rate, the client keeps straddling two
/// levels — the requested/assigned mismatch the paper attributes AVIS's
/// instability to.
#[derive(Debug, Clone)]
pub struct RateBased {
    estimator: HarmonicMean,
}

/// Estimation window in segments: short and reactive, as the AVIS client is
/// described.
const WINDOW: usize = 5;

impl Default for RateBased {
    fn default() -> Self {
        RateBased {
            estimator: HarmonicMean::new(WINDOW),
        }
    }
}

impl RateAdapter for RateBased {
    fn on_download_complete(&mut self, sample: DownloadSample) {
        self.estimator.record(ThroughputSample {
            bytes: sample.bytes,
            elapsed: sample.elapsed,
        });
    }

    fn next_level(&mut self, ctx: &AdaptContext) -> Level {
        match self.estimator.estimate() {
            None => ctx.ladder.lowest(),
            Some(est) => ctx.ladder.highest_at_most_or_lowest(est),
        }
    }

    fn name(&self) -> &'static str {
        "rate-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_has::BitrateLadder;
    use flare_sim::units::Rate;
    use flare_sim::{Time, TimeDelta};

    fn ctx<'a>(ladder: &'a BitrateLadder) -> AdaptContext<'a> {
        AdaptContext {
            now: Time::ZERO,
            ladder,
            buffer_level: TimeDelta::from_secs(15),
            last_level: Some(Level::new(0)),
            segment_duration: TimeDelta::from_secs(10),
            segment_index: 1,
        }
    }

    fn feed(r: &mut RateBased, mbps: f64) {
        r.on_download_complete(DownloadSample {
            completed_at: Time::ZERO,
            level: Level::new(0),
            bytes: Rate::from_mbps(mbps).bytes_over(TimeDelta::from_secs(1)),
            elapsed: TimeDelta::from_secs(1),
        });
    }

    #[test]
    fn requests_highest_at_estimate() {
        let ladder = BitrateLadder::simulation();
        let mut r = RateBased::default();
        assert_eq!(r.next_level(&ctx(&ladder)), Level::new(0));
        for _ in 0..5 {
            feed(&mut r, 2.1);
        }
        // 2.1 Mbps estimate, no safety factor -> 2000 kbps (level 4).
        assert_eq!(r.next_level(&ctx(&ladder)), Level::new(4));
    }

    #[test]
    fn straddles_levels_when_capped_between_rungs() {
        // An MBR just above 1 Mbps keeps the estimate wobbling around the
        // 1000 kbps rung: the pick flips between levels 2 and 3.
        let ladder = BitrateLadder::simulation();
        let mut r = RateBased::default();
        let mut picks = Vec::new();
        for i in 0..20 {
            feed(&mut r, if i % 2 == 0 { 0.9 } else { 1.15 });
            picks.push(r.next_level(&ctx(&ladder)));
        }
        let distinct: std::collections::HashSet<_> = picks[5..].iter().collect();
        assert!(
            distinct.len() >= 2,
            "expected level straddling, got {picks:?}"
        );
    }
}
