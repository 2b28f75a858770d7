//! Per-UE channel processes: how a UE's iTbs operating point evolves.
//!
//! The paper drives link dynamics three ways, all reproduced here:
//!
//! * **Static** — the testbed static scenario pins iTbs = 2
//!   ([`StaticChannel`]).
//! * **Triangle wave** — the testbed dynamic scenario sweeps iTbs 1 → 12 → 1
//!   over a four-minute cycle, each UE starting at a different offset
//!   ([`TriangleWave`]).
//! * **Mobility** — the ns-3 experiments use a "trace based model", which
//!   [`crate::mobility::MobilityChannel`] generates live.
//!
//! [`TraceChannel`] replays a scripted `(time, iTbs)` list, for tests that
//! need a channel to change at chosen times.

use flare_sim::{Time, TimeDelta, TTI};

use crate::tbs::Itbs;

/// A time-varying channel quality process for one UE.
///
/// # Contract
///
/// * **A function of time.** Over non-decreasing queries, `itbs_at(t)`
///   depends only on `t`: it returns the same value whether the channel was
///   polled every millisecond up to `t` or first at `t`. A model that draws
///   random numbers draws them per internal update step, not per query, and
///   catches up every step it missed. The eNodeB relies on this to skip
///   polls while a cell idles and catch up later with the same draws.
/// * **Validity deadline.** After `itbs_at(t)`, [`ChannelModel::valid_until`]
///   returns a time `u > t` such that `itbs_at` returns the same value at
///   every time in `[t, u)`. The eNodeB polls the channel again only once
///   that time is reached. A later deadline saves polls; an earlier one is
///   always safe.
pub trait ChannelModel {
    /// Returns the iTbs operating point at simulation time `t`.
    ///
    /// Callers must pass non-decreasing `t` values (the eNodeB does).
    fn itbs_at(&mut self, t: Time) -> Itbs;

    /// The first time after `t` at which the value `itbs_at(t)` returned may
    /// change; called right after `itbs_at(t)`. The default, one TTI later,
    /// asks to be polled every TTI.
    fn valid_until(&self, t: Time) -> Time {
        t + TTI
    }
}

/// A channel that never changes — the paper's static testbed scenario.
///
/// # Example
///
/// ```
/// use flare_lte::channel::{ChannelModel, StaticChannel};
/// use flare_lte::Itbs;
/// use flare_sim::Time;
///
/// let mut ch = StaticChannel::new(Itbs::new(2));
/// assert_eq!(ch.itbs_at(Time::ZERO), Itbs::new(2));
/// assert_eq!(ch.itbs_at(Time::from_secs(600)), Itbs::new(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticChannel {
    itbs: Itbs,
}

impl StaticChannel {
    /// Creates a channel pinned at `itbs`.
    pub fn new(itbs: Itbs) -> Self {
        StaticChannel { itbs }
    }
}

impl ChannelModel for StaticChannel {
    fn itbs_at(&mut self, _t: Time) -> Itbs {
        self.itbs
    }

    fn valid_until(&self, _t: Time) -> Time {
        Time::MAX
    }
}

/// A triangle-wave iTbs sweep — the paper's dynamic testbed scenario.
///
/// The index ramps linearly from `min` to `max` over half a `period`, then
/// back down, repeating. `offset` shifts the phase so that heterogeneous UEs
/// start at different points of the cycle, exactly as in Section IV-A.
///
/// # Example
///
/// ```
/// use flare_lte::channel::{ChannelModel, TriangleWave};
/// use flare_lte::Itbs;
/// use flare_sim::{Time, TimeDelta};
///
/// // Paper setting: iTbs 1..=12, 4-minute cycle.
/// let mut ch = TriangleWave::new(Itbs::new(1), Itbs::new(12), TimeDelta::from_secs(240), TimeDelta::ZERO);
/// assert_eq!(ch.itbs_at(Time::ZERO), Itbs::new(1));
/// assert_eq!(ch.itbs_at(Time::from_secs(120)), Itbs::new(12));
/// assert_eq!(ch.itbs_at(Time::from_secs(240)), Itbs::new(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangleWave {
    min: Itbs,
    max: Itbs,
    period: TimeDelta,
    offset: TimeDelta,
}

impl TriangleWave {
    /// Creates a triangle sweep between `min` and `max` with the given cycle
    /// `period`, phase-shifted by `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `period` is zero.
    pub fn new(min: Itbs, max: Itbs, period: TimeDelta, offset: TimeDelta) -> Self {
        assert!(min <= max, "triangle wave requires min <= max");
        assert!(
            !period.is_zero(),
            "triangle wave requires a non-zero period"
        );
        TriangleWave {
            min,
            max,
            period,
            offset,
        }
    }
}

impl ChannelModel for TriangleWave {
    fn itbs_at(&mut self, t: Time) -> Itbs {
        let pos_ms = (t.as_millis() + self.offset.as_millis()) % self.period.as_millis();
        let half = self.period.as_millis() as f64 / 2.0;
        let span = f64::from(self.max.index() - self.min.index());
        let frac = if (pos_ms as f64) < half {
            pos_ms as f64 / half
        } else {
            (self.period.as_millis() - pos_ms) as f64 / half
        };
        let idx = f64::from(self.min.index()) + frac * span;
        Itbs::saturating_new(idx.round() as u8)
    }
}

/// Replays a scripted `(time, iTbs)` trace, holding each value until the
/// next entry.
///
/// # Example
///
/// ```
/// use flare_lte::channel::{ChannelModel, TraceChannel};
/// use flare_lte::Itbs;
/// use flare_sim::Time;
///
/// let mut ch = TraceChannel::new(vec![
///     (Time::ZERO, Itbs::new(5)),
///     (Time::from_secs(10), Itbs::new(9)),
/// ]);
/// assert_eq!(ch.itbs_at(Time::from_secs(3)), Itbs::new(5));
/// assert_eq!(ch.itbs_at(Time::from_secs(12)), Itbs::new(9));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceChannel {
    trace: Vec<(Time, Itbs)>,
    cursor: usize,
}

impl TraceChannel {
    /// Creates a trace playback channel.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, does not start at time zero, or is not
    /// sorted by time.
    pub fn new(trace: Vec<(Time, Itbs)>) -> Self {
        assert!(!trace.is_empty(), "trace must be non-empty");
        assert_eq!(trace[0].0, Time::ZERO, "trace must start at t=0");
        assert!(
            trace.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace must be sorted by time"
        );
        TraceChannel { trace, cursor: 0 }
    }
}

impl ChannelModel for TraceChannel {
    fn itbs_at(&mut self, t: Time) -> Itbs {
        // Monotone queries: advance a cursor instead of binary-searching.
        while self.cursor + 1 < self.trace.len() && self.trace[self.cursor + 1].0 <= t {
            self.cursor += 1;
        }
        // Support occasional rewinds (e.g. a fresh component querying t=0):
        // land on the last entry at or before `t`, as the forward walk does.
        if self.trace[self.cursor].0 > t {
            self.cursor = self.trace.partition_point(|e| e.0 <= t) - 1;
        }
        self.trace[self.cursor].1
    }

    fn valid_until(&self, _t: Time) -> Time {
        self.trace
            .get(self.cursor + 1)
            .map_or(Time::MAX, |&(next, _)| next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_sim::rng::stream;
    use proptest::prelude::*;

    #[test]
    fn static_channel_is_constant() {
        let mut ch = StaticChannel::new(Itbs::new(7));
        for s in 0..100 {
            assert_eq!(ch.itbs_at(Time::from_secs(s)), Itbs::new(7));
        }
    }

    #[test]
    fn triangle_hits_min_and_max() {
        let mut ch = TriangleWave::new(
            Itbs::new(1),
            Itbs::new(12),
            TimeDelta::from_secs(240),
            TimeDelta::ZERO,
        );
        assert_eq!(ch.itbs_at(Time::ZERO), Itbs::new(1));
        assert_eq!(ch.itbs_at(Time::from_secs(120)), Itbs::new(12));
        assert_eq!(ch.itbs_at(Time::from_secs(240)), Itbs::new(1));
        assert_eq!(ch.itbs_at(Time::from_secs(360)), Itbs::new(12));
    }

    #[test]
    fn triangle_offset_shifts_phase() {
        let period = TimeDelta::from_secs(240);
        let mut a = TriangleWave::new(Itbs::new(1), Itbs::new(12), period, TimeDelta::ZERO);
        let mut b = TriangleWave::new(
            Itbs::new(1),
            Itbs::new(12),
            period,
            TimeDelta::from_secs(120),
        );
        assert_eq!(b.itbs_at(Time::ZERO), a.itbs_at(Time::from_secs(120)));
        assert_eq!(
            b.itbs_at(Time::from_secs(120)),
            a.itbs_at(Time::from_secs(240))
        );
    }

    #[test]
    fn triangle_is_continuous_enough() {
        // Neighbouring milliseconds never jump more than one index.
        let mut ch = TriangleWave::new(
            Itbs::new(1),
            Itbs::new(12),
            TimeDelta::from_secs(240),
            TimeDelta::from_secs(33),
        );
        let mut prev = ch.itbs_at(Time::ZERO);
        for ms in 1..=480_000u64 {
            let cur = ch.itbs_at(Time::from_millis(ms));
            let delta = i16::from(cur.index()) - i16::from(prev.index());
            assert!(delta.abs() <= 1, "jump of {delta} at {ms}ms");
            prev = cur;
        }
    }

    #[test]
    fn trace_holds_between_entries() {
        let mut ch = TraceChannel::new(vec![
            (Time::ZERO, Itbs::new(3)),
            (Time::from_secs(5), Itbs::new(8)),
            (Time::from_secs(9), Itbs::new(1)),
        ]);
        assert_eq!(ch.itbs_at(Time::ZERO), Itbs::new(3));
        assert_eq!(ch.itbs_at(Time::from_millis(4999)), Itbs::new(3));
        assert_eq!(ch.itbs_at(Time::from_secs(5)), Itbs::new(8));
        assert_eq!(ch.itbs_at(Time::from_secs(100)), Itbs::new(1));
    }

    #[test]
    fn trace_supports_rewind() {
        let mut ch = TraceChannel::new(vec![
            (Time::ZERO, Itbs::new(3)),
            (Time::from_secs(5), Itbs::new(8)),
        ]);
        assert_eq!(ch.itbs_at(Time::from_secs(7)), Itbs::new(8));
        assert_eq!(ch.itbs_at(Time::from_secs(1)), Itbs::new(3));
        // A repeated timestamp resolves to its last entry either way.
        let mut ch = TraceChannel::new(vec![
            (Time::ZERO, Itbs::new(3)),
            (Time::from_secs(5), Itbs::new(8)),
            (Time::from_secs(5), Itbs::new(9)),
            (Time::from_secs(5), Itbs::new(10)),
            (Time::from_secs(9), Itbs::new(1)),
        ]);
        assert_eq!(ch.itbs_at(Time::from_secs(5)), Itbs::new(10));
        assert_eq!(ch.itbs_at(Time::from_secs(9)), Itbs::new(1));
        assert_eq!(ch.itbs_at(Time::from_secs(5)), Itbs::new(10));
    }

    #[test]
    #[should_panic(expected = "start at t=0")]
    fn trace_must_start_at_zero() {
        let _ = TraceChannel::new(vec![(Time::from_secs(1), Itbs::new(0))]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn trace_must_be_non_empty() {
        let _ = TraceChannel::new(vec![]);
    }

    #[test]
    fn valid_until_follows_each_model() {
        let mut st = StaticChannel::new(Itbs::new(4));
        st.itbs_at(Time::from_secs(3));
        assert_eq!(st.valid_until(Time::from_secs(3)), Time::MAX);
        let mut tr = TraceChannel::new(vec![
            (Time::ZERO, Itbs::new(3)),
            (Time::from_secs(5), Itbs::new(8)),
        ]);
        tr.itbs_at(Time::from_secs(1));
        assert_eq!(tr.valid_until(Time::from_secs(1)), Time::from_secs(5));
        tr.itbs_at(Time::from_secs(5));
        assert_eq!(tr.valid_until(Time::from_secs(5)), Time::MAX);
        let mut tw = TriangleWave::new(
            Itbs::new(1),
            Itbs::new(12),
            TimeDelta::from_secs(240),
            TimeDelta::ZERO,
        );
        tw.itbs_at(Time::from_secs(7));
        assert_eq!(tw.valid_until(Time::from_secs(7)), Time::from_millis(7_001));
    }

    /// Milliseconds over which the channel contract is checked.
    const CONTRACT_HORIZON_MS: u64 = 30_000;

    /// One channel of every model, built identically for the same `seed`.
    fn every_model(seed: u64) -> Vec<Box<dyn ChannelModel>> {
        use crate::mobility::MobilityChannel;
        use crate::tbs::ITBS_MAX;
        use rand::Rng;
        // Entries 0–2 s apart (repeated times included) past the horizon.
        let mut rng = stream(seed, "trace", 0);
        let mut t = Time::ZERO;
        let mut trace = vec![(t, Itbs::new(rng.gen_range(0..=ITBS_MAX)))];
        while t.as_millis() <= CONTRACT_HORIZON_MS {
            t += TimeDelta::from_millis(rng.gen_range(0..2_000));
            trace.push((t, Itbs::new(rng.gen_range(0..=ITBS_MAX))));
        }
        vec![
            Box::new(StaticChannel::new(Itbs::new((seed % 27) as u8))),
            Box::new(TriangleWave::new(
                Itbs::new(1),
                Itbs::new(12),
                TimeDelta::from_secs(10 + seed % 240),
                TimeDelta::from_millis(seed % 7_000),
            )),
            Box::new(TraceChannel::new(trace)),
            Box::new(MobilityChannel::new(
                stream(seed, "walk", 1),
                stream(seed, "fade", 1),
            )),
        ]
    }

    proptest! {
        /// The [`ChannelModel`] contract for every model: sparse increasing
        /// polls see what per-millisecond polls see, and each value holds
        /// on `[t, valid_until(t))`.
        #[test]
        fn sparse_polls_match_per_ms_polls_and_hold_until_valid_until(
            seed in 0u64..10_000,
            gaps in proptest::collection::vec(1u64..3_000, 1..40)
        ) {
            let dense = every_model(seed);
            let sparse = every_model(seed);
            for (model, (mut dense, mut sparse)) in dense.into_iter().zip(sparse).enumerate() {
                let per_ms: Vec<Itbs> = (0..=CONTRACT_HORIZON_MS)
                    .map(|ms| dense.itbs_at(Time::from_millis(ms)))
                    .collect();
                // Query times: the running sums of `gaps`, minus one so the
                // first may be t = 0.
                let mut end = 0;
                for gap in &gaps {
                    end += gap;
                    let ms = end - 1;
                    if ms > CONTRACT_HORIZON_MS {
                        break;
                    }
                    let t = Time::from_millis(ms);
                    let v = sparse.itbs_at(t);
                    prop_assert_eq!(v, per_ms[ms as usize], "model {} at {} ms", model, ms);
                    let until = sparse.valid_until(t).as_millis();
                    prop_assert!(until > ms, "model {} valid_until({}) = {}", model, ms, until);
                    for held in ms..until.min(CONTRACT_HORIZON_MS + 1) {
                        prop_assert_eq!(
                            per_ms[held as usize], v,
                            "model {} changed at {} ms, before valid_until({}) = {}",
                            model, held, ms, until
                        );
                    }
                }
            }
        }

        #[test]
        fn triangle_always_within_bounds(
            min in 0u8..10, span in 1u8..16, period_s in 1u64..600, off_s in 0u64..600, t_s in 0u64..3600
        ) {
            let lo = Itbs::new(min);
            let hi = Itbs::new(min + span);
            let mut ch = TriangleWave::new(lo, hi, TimeDelta::from_secs(period_s), TimeDelta::from_secs(off_s));
            let v = ch.itbs_at(Time::from_secs(t_s));
            prop_assert!(v >= lo && v <= hi);
        }

        #[test]
        fn triangle_is_periodic(period_s in 2u64..600, t_s in 0u64..1200) {
            let mut ch = TriangleWave::new(Itbs::new(1), Itbs::new(12), TimeDelta::from_secs(period_s), TimeDelta::ZERO);
            let a = ch.itbs_at(Time::from_secs(t_s));
            let b = ch.itbs_at(Time::from_secs(t_s + period_s));
            prop_assert_eq!(a, b);
        }
    }
}
