//! FESTIVE (Jiang, Sekar, Zhang — CoNEXT 2012), as configured in Table IV.

use flare_has::estimator::{HarmonicMean, ThroughputEstimator, ThroughputSample};
use flare_has::{AdaptContext, DownloadSample, Level, RateAdapter};

/// The FESTIVE rate controller, with the paper's Table IV parameters.
///
/// Per segment:
/// 1. estimate bandwidth `w` as the harmonic mean of the last 20 samples;
/// 2. compute the reference `b_ref = max{b : b ≤ p·w}`;
/// 3. apply *gradual switching*: move at most one level towards `b_ref`,
///    and only switch up after staying `k·(level+1)` segments;
/// 4. apply *delayed update*: actually switch only if the combined
///    stability/efficiency score of the candidate beats the current level's.
///
/// The stability score counts level switches over the recent history, so a
/// player that has been flapping stops switching — FESTIVE's signature
/// behaviour. The paper's Section IV shows FESTIVE is nevertheless unstable
/// in LTE cells because its estimates cannot see the shared radio state.
#[derive(Debug, Clone)]
pub struct Festive {
    estimator: HarmonicMean,
    segments_at_level: u32,
    recent_switches: Vec<bool>,
}

impl Festive {
    /// Gradual-switching constant (Table IV: `k = 4`): an up-switch from
    /// level `L` requires having stayed `k · (L + 1)` segments at the
    /// current level.
    const K: u32 = 4;
    /// Bandwidth safety factor (Table IV: `p = 0.85`): the target rate is
    /// the highest encoding `≤ p · estimate`.
    const P: f64 = 0.85;
    /// Weight of the efficiency term in the delayed-update score
    /// `score_stability + α · score_efficiency` (Table IV: `α = 12`).
    const ALPHA: f64 = 12.0;
    /// Harmonic-mean window in segments (Table IV: 20 samples).
    const WINDOW: usize = 20;

    fn score(switches: usize, candidate: f64, reference: f64) -> f64 {
        let stability = (switches as f64).exp2();
        let efficiency = (candidate / reference - 1.0).abs();
        stability + Self::ALPHA * efficiency
    }

    fn recent_switch_count(&self) -> usize {
        let n = self.recent_switches.len();
        self.recent_switches[n.saturating_sub(10)..]
            .iter()
            .filter(|&&s| s)
            .count()
    }
}

impl Default for Festive {
    fn default() -> Self {
        Festive {
            estimator: HarmonicMean::new(Self::WINDOW),
            segments_at_level: 0,
            recent_switches: Vec::new(),
        }
    }
}

impl RateAdapter for Festive {
    fn on_download_complete(&mut self, sample: DownloadSample) {
        self.estimator.record(ThroughputSample {
            bytes: sample.bytes,
            elapsed: sample.elapsed,
        });
    }

    fn next_level(&mut self, ctx: &AdaptContext) -> Level {
        let Some(last) = ctx.last_level else {
            // First segment: start at the bottom, like the reference player.
            self.segments_at_level = 1;
            return ctx.ladder.lowest();
        };
        let Some(estimate) = self.estimator.estimate() else {
            self.segments_at_level += 1;
            return last;
        };

        let reference = estimate.as_bps() * Self::P;
        let b_ref = ctx
            .ladder
            .highest_at_most_or_lowest(flare_sim::units::Rate::from_bps(reference));

        // Gradual switching: move one level at a time; up-switches are gated
        // on dwell time proportional to the current level.
        let candidate = if b_ref > last {
            let dwell_needed = Self::K * (last.index() as u32 + 1);
            if self.segments_at_level >= dwell_needed {
                ctx.ladder.clamp(last.up())
            } else {
                last
            }
        } else if b_ref < last {
            last.down()
        } else {
            last
        };

        // Delayed update: act towards the target only if doing so wins the
        // combined stability/efficiency score. The efficiency term is
        // evaluated at the target `b_ref` (the rate the switching process
        // converges to), the stability term charges one extra switch.
        let chosen = if candidate != last {
            let cur_rate = ctx.ladder.rate(last).as_bps();
            let target_rate = ctx.ladder.rate(b_ref).as_bps();
            let reference_rate = ctx.ladder.rate(b_ref).as_bps();
            let switches = self.recent_switch_count();
            let score_stay = Self::score(switches, cur_rate, reference_rate);
            let score_move = Self::score(switches + 1, target_rate, reference_rate);
            if score_move < score_stay {
                candidate
            } else {
                last
            }
        } else {
            last
        };

        let switched = chosen != last;
        self.recent_switches.push(switched);
        if self.recent_switches.len() > 64 {
            self.recent_switches.remove(0);
        }
        if switched {
            self.segments_at_level = 1;
        } else {
            self.segments_at_level += 1;
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "festive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_has::BitrateLadder;
    use flare_sim::units::Rate;
    use flare_sim::{Time, TimeDelta};

    fn ctx<'a>(ladder: &'a BitrateLadder, last: Option<Level>, idx: u64) -> AdaptContext<'a> {
        AdaptContext {
            now: Time::from_secs(idx * 10),
            ladder,
            buffer_level: TimeDelta::from_secs(20),
            last_level: last,
            segment_duration: TimeDelta::from_secs(10),
            segment_index: idx,
        }
    }

    fn feed(f: &mut Festive, level: Level, mbps: f64, idx: u64) {
        f.on_download_complete(DownloadSample {
            completed_at: Time::from_secs(idx * 10),
            level,
            bytes: Rate::from_mbps(mbps).bytes_over(TimeDelta::from_secs(1)),
            elapsed: TimeDelta::from_secs(1),
        });
    }

    #[test]
    fn starts_at_lowest() {
        let ladder = BitrateLadder::simulation();
        let mut f = Festive::default();
        assert_eq!(f.next_level(&ctx(&ladder, None, 0)), Level::new(0));
    }

    #[test]
    fn holds_level_without_estimate() {
        let ladder = BitrateLadder::simulation();
        let mut f = Festive::default();
        assert_eq!(
            f.next_level(&ctx(&ladder, Some(Level::new(2)), 1)),
            Level::new(2)
        );
    }

    #[test]
    fn climbs_gradually_under_plentiful_bandwidth() {
        let ladder = BitrateLadder::simulation();
        let mut f = Festive::default();
        let mut level = f.next_level(&ctx(&ladder, None, 0));
        let mut max_jump = 0usize;
        for i in 1..200 {
            feed(&mut f, level, 10.0, i);
            let next = f.next_level(&ctx(&ladder, Some(level), i));
            max_jump = max_jump.max(next.index().saturating_sub(level.index()));
            level = next;
        }
        assert_eq!(level, ladder.highest(), "should eventually reach the top");
        assert!(max_jump <= 1, "up-switches must be one level at a time");
    }

    #[test]
    fn dwell_time_gates_up_switches() {
        let ladder = BitrateLadder::simulation();
        let mut f = Festive::default();
        let mut level = f.next_level(&ctx(&ladder, None, 0));
        // k=4: from level 0 the first up-switch needs 4 segments of dwell.
        let mut history = vec![level];
        for i in 1..=4 {
            feed(&mut f, level, 10.0, i);
            level = f.next_level(&ctx(&ladder, Some(level), i));
            history.push(level);
        }
        assert_eq!(history[1], Level::new(0), "too early to switch");
        assert_eq!(
            history[4],
            Level::new(1),
            "dwell satisfied by segment 4: {history:?}"
        );
    }

    #[test]
    fn drops_when_bandwidth_collapses() {
        let ladder = BitrateLadder::simulation();
        let mut f = Festive::default();
        let mut level = Level::new(4);
        // Saturate the estimator low.
        for i in 0..25 {
            feed(&mut f, level, 0.2, i);
        }
        let next = f.next_level(&ctx(&ladder, Some(level), 30));
        assert_eq!(
            next,
            level.down(),
            "down-switches are immediate (one level)"
        );
        level = next;
        let next = f.next_level(&ctx(&ladder, Some(level), 31));
        assert!(next <= level);
    }

    #[test]
    fn respects_safety_factor() {
        let ladder = BitrateLadder::simulation();
        let mut f = Festive::default();
        // Estimate exactly 1000 kbps: p=0.85 -> target 850 kbps -> level 2
        // (500 kbps), so from level 2 it must not climb to 1000 kbps.
        let mut level = Level::new(2);
        for i in 0..25 {
            feed(&mut f, level, 1.0, i);
        }
        for i in 25..60 {
            feed(&mut f, level, 1.0, i);
            level = f.next_level(&ctx(&ladder, Some(level), i));
        }
        assert_eq!(level, Level::new(2));
    }

    #[test]
    fn deterministic() {
        let ladder = BitrateLadder::simulation();
        let run = || {
            let mut f = Festive::default();
            let mut level = f.next_level(&ctx(&ladder, None, 0));
            let mut out = vec![level];
            for i in 1..100 {
                feed(&mut f, level, if i % 7 < 3 { 0.5 } else { 3.0 }, i);
                level = f.next_level(&ctx(&ladder, Some(level), i));
                out.push(level);
            }
            out
        };
        assert_eq!(run(), run());
    }
}
