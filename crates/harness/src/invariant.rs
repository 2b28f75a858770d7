//! Runtime invariant checking for FLARE simulation runs.
//!
//! Each [`Invariant`] encodes one constraint the paper (or the simulator's
//! own contracts) says must hold *while a run executes*, not just in its
//! final statistics:
//!
//! - [`RbConservation`]: an eNodeB TTI never grants more RBs than the cell
//!   has (50 by default) — the MAC-layer counterpart of the solver's budget.
//! - [`LeaseReturn`]: when a GBR lease expires, the reservation is actually
//!   cleared so the leased RBs return to the PF pool.
//! - [`OneStepUp`]: solver outputs obey Eq. (4b) — a client's level moves up
//!   by at most one step per BAI and never beyond the ladder top.
//! - [`RateFeasibility`]: solver outputs obey Eq. (4a) — the assigned rates,
//!   weighted by the same previous-BAI `(n_u, b_u)` efficiency estimates the
//!   server used, fit within the RB budget fraction `r_cap`, or use no more
//!   than the floor assignment when the floors alone overload the cell.
//! - [`PlayerSanity`]: player buffers never go negative, rebuffer counters
//!   are monotone, and stall/resume transitions pair with them correctly.
//! - [`MonotoneInstall`]: `VersionedAssignment` installs accept exactly the
//!   assignments with a strictly newer sequence number.
//!
//! Checkers consume [`Observation`]s — plain-number snapshots emitted by the
//! simulation at natural checkpoints (per TTI, per BAI, per install). Keeping
//! observations primitive means this crate needs no dependency on the LTE,
//! solver, or player crates, and the same checkers run identically in unit
//! tests, property tests, and full experiment sweeps.
//!
//! Violations are surfaced as structured [`Category::Invariant`] trace
//! events (plus an `invariant.violations` counter) and, in hard-fail mode,
//! as a panic — the mode tests and `repro --check-invariants` use.

use std::collections::HashMap;

use flare_sim::Time;
use flare_trace::{Category, TraceHandle};

/// One snapshot of simulator state handed to every registered [`Invariant`].
///
/// All payloads are plain numbers so that producing an observation is cheap
/// and the checkers stay decoupled from simulator internals.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// One eNodeB TTI completed: `granted` RBs were handed out against a
    /// per-TTI budget of `budget` RBs.
    TtiGrant {
        /// RBs granted across all flows this TTI.
        granted: u32,
        /// The cell's RB budget per TTI (`rbs_per_tti`).
        budget: u32,
    },
    /// A GBR lease for `flow` reached its expiry this TTI.
    LeaseExpiry {
        /// Flow whose lease expired.
        flow: u64,
        /// Whether the eNodeB actually cleared the GBR reservation.
        gbr_cleared: bool,
    },
    /// The server emitted one per-flow assignment at a BAI boundary.
    Assignment {
        /// Flow the assignment targets.
        flow: u64,
        /// The server's level for this flow before the solve, if the flow
        /// was already registered.
        prev_level: Option<usize>,
        /// The newly assigned ladder level.
        new_level: usize,
        /// Highest valid ladder index.
        max_level: usize,
    },
    /// Aggregate RB-budget usage of one BAI's assignments, recomputed from
    /// the same report statistics the server solved against.
    RateBudget {
        /// `sum_u w_u R_u / N`: fraction of the BAI RB budget consumed.
        used_fraction: f64,
        /// Budget cap from Eq. (4a) (`0.999` when data flows share the cell).
        r_cap: f64,
        /// Fraction the floor assignment (every flow at its lowest allowed
        /// level) uses under the same weights. Above `r_cap` the cell is
        /// overloaded and the solvers return the floors.
        floor_fraction: f64,
        /// Slack for discretization and kbps rounding in the message path.
        tolerance: f64,
    },
    /// Per-TTI snapshot of one player's playback state.
    PlayerState {
        /// UE index of the player.
        ue: u64,
        /// Buffered media in milliseconds (signed so a corrupted negative
        /// value is representable and detectable).
        buffer_ms: i64,
        /// Whether playback is stalled.
        stalled: bool,
        /// Monotone count of rebuffer events so far.
        rebuffer_events: u64,
        /// Buffer level required before a stalled player resumes.
        resume_threshold_ms: i64,
        /// Whether the player has downloaded every segment (it may then
        /// resume below threshold to drain the buffer).
        finished: bool,
    },
    /// A versioned assignment install attempt at a client plugin.
    Install {
        /// UE index of the plugin.
        ue: u64,
        /// Sequence number of the arriving assignment.
        seq: u64,
        /// Newest sequence number installed before this attempt.
        prev_seq: Option<u64>,
        /// Whether the plugin accepted the install.
        accepted: bool,
    },
}

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the invariant that fired (stable, test-matchable).
    pub invariant: &'static str,
    /// Human-readable description with the offending values.
    pub message: String,
}

/// A runtime-checkable constraint over a stream of [`Observation`]s.
///
/// Checkers may keep state across observations (e.g. the previous rebuffer
/// count per UE) but must be deterministic functions of the observation
/// stream: the harness runs them inline inside simulation runs, so any
/// nondeterminism here would break serial/parallel trace equality.
pub trait Invariant {
    /// Stable name used in trace events and failure messages.
    fn name(&self) -> &'static str;

    /// Feeds one observation; returns a violation if the constraint broke.
    fn observe(&mut self, now: Time, obs: &Observation) -> Option<Violation>;
}

/// Per-TTI RB conservation: grants never exceed the cell budget.
#[derive(Debug, Default)]
pub struct RbConservation;

impl Invariant for RbConservation {
    fn name(&self) -> &'static str {
        "rb_conservation"
    }

    fn observe(&mut self, _now: Time, obs: &Observation) -> Option<Violation> {
        match *obs {
            Observation::TtiGrant { granted, budget } if granted > budget => Some(Violation {
                invariant: self.name(),
                message: format!("TTI granted {granted} RBs > budget {budget}"),
            }),
            _ => None,
        }
    }
}

/// Expired GBR leases must return their RBs to the shared pool.
#[derive(Debug, Default)]
pub struct LeaseReturn;

impl Invariant for LeaseReturn {
    fn name(&self) -> &'static str {
        "lease_return"
    }

    fn observe(&mut self, _now: Time, obs: &Observation) -> Option<Violation> {
        match *obs {
            Observation::LeaseExpiry { flow, gbr_cleared } if !gbr_cleared => Some(Violation {
                invariant: self.name(),
                message: format!("flow {flow} lease expired but GBR reservation persists"),
            }),
            _ => None,
        }
    }
}

/// Eq. (4b): per BAI, a level increases by at most one step and stays on
/// the ladder.
#[derive(Debug, Default)]
pub struct OneStepUp;

impl Invariant for OneStepUp {
    fn name(&self) -> &'static str {
        "one_step_up"
    }

    fn observe(&mut self, _now: Time, obs: &Observation) -> Option<Violation> {
        let Observation::Assignment {
            flow,
            prev_level,
            new_level,
            max_level,
        } = *obs
        else {
            return None;
        };
        if new_level > max_level {
            return Some(Violation {
                invariant: self.name(),
                message: format!("flow {flow} assigned level {new_level} > ladder top {max_level}"),
            });
        }
        if let Some(prev) = prev_level {
            if new_level > prev + 1 {
                return Some(Violation {
                    invariant: self.name(),
                    message: format!(
                        "flow {flow} jumped {prev} -> {new_level} (more than one step up)"
                    ),
                });
            }
        }
        None
    }
}

/// Eq. (4a): one BAI's assignments fit the RB budget fraction, or, on an
/// overloaded BAI, use no more than the floor assignment.
#[derive(Debug, Default)]
pub struct RateFeasibility;

impl Invariant for RateFeasibility {
    fn name(&self) -> &'static str {
        "rate_feasibility"
    }

    fn observe(&mut self, _now: Time, obs: &Observation) -> Option<Violation> {
        match *obs {
            Observation::RateBudget {
                used_fraction,
                r_cap,
                floor_fraction,
                tolerance,
            } if used_fraction > r_cap.max(floor_fraction) + tolerance => Some(Violation {
                invariant: self.name(),
                message: format!(
                    "assignments use {used_fraction:.6} of the RB budget > r_cap {r_cap} \
                     and > the floors' {floor_fraction:.6} (+{tolerance})"
                ),
            }),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PlayerSeen {
    stalled: bool,
    rebuffer_events: u64,
}

/// Player buffer non-negativity, rebuffer-counter monotonicity, and
/// stall/resume pairing.
#[derive(Debug, Default)]
pub struct PlayerSanity {
    seen: HashMap<u64, PlayerSeen>,
}

impl Invariant for PlayerSanity {
    fn name(&self) -> &'static str {
        "player_sanity"
    }

    fn observe(&mut self, _now: Time, obs: &Observation) -> Option<Violation> {
        let Observation::PlayerState {
            ue,
            buffer_ms,
            stalled,
            rebuffer_events,
            resume_threshold_ms,
            finished,
        } = *obs
        else {
            return None;
        };
        let fail = |message: String| {
            Some(Violation {
                invariant: "player_sanity",
                message,
            })
        };
        if buffer_ms < 0 {
            return fail(format!("ue {ue} buffer is negative: {buffer_ms} ms"));
        }
        let Some(last) = self.seen.get(&ue).copied() else {
            self.seen.insert(
                ue,
                PlayerSeen {
                    stalled,
                    rebuffer_events,
                },
            );
            return None;
        };
        self.seen.insert(
            ue,
            PlayerSeen {
                stalled,
                rebuffer_events,
            },
        );
        if rebuffer_events < last.rebuffer_events {
            return fail(format!(
                "ue {ue} rebuffer counter regressed {} -> {rebuffer_events}",
                last.rebuffer_events
            ));
        }
        let delta = rebuffer_events - last.rebuffer_events;
        if delta > 1 {
            return fail(format!(
                "ue {ue} rebuffer counter jumped by {delta} in one observation"
            ));
        }
        let entered_stall = stalled && !last.stalled;
        if entered_stall && delta != 1 {
            return fail(format!(
                "ue {ue} entered a stall without counting a rebuffer"
            ));
        }
        if delta == 1 && !entered_stall {
            return fail(format!(
                "ue {ue} counted a rebuffer without entering a stall"
            ));
        }
        let resumed = !stalled && last.stalled;
        if resumed && !finished && buffer_ms < resume_threshold_ms {
            return fail(format!(
                "ue {ue} resumed at {buffer_ms} ms < resume threshold {resume_threshold_ms} ms"
            ));
        }
        None
    }
}

/// `VersionedAssignment` installs accept exactly the strictly-newer
/// sequence numbers.
#[derive(Debug, Default)]
pub struct MonotoneInstall;

impl Invariant for MonotoneInstall {
    fn name(&self) -> &'static str {
        "monotone_install"
    }

    fn observe(&mut self, _now: Time, obs: &Observation) -> Option<Violation> {
        let Observation::Install {
            ue,
            seq,
            prev_seq,
            accepted,
        } = *obs
        else {
            return None;
        };
        let is_newer = prev_seq.is_none_or(|p| seq > p);
        if accepted && !is_newer {
            return Some(Violation {
                invariant: self.name(),
                message: format!(
                    "ue {ue} installed seq {seq} although seq {} was current",
                    prev_seq.unwrap_or(0)
                ),
            });
        }
        if !accepted && is_newer {
            return Some(Violation {
                invariant: self.name(),
                message: format!("ue {ue} rejected fresh seq {seq} (prev {prev_seq:?})"),
            });
        }
        None
    }
}

/// A pluggable set of invariants fed from one observation stream.
///
/// Every violation is recorded as a [`Category::Invariant`] trace event and
/// bumps the `invariant.violations` counter; in hard-fail mode the set then
/// panics, which the work-stealing pool propagates so a violating run aborts
/// the whole sweep.
pub struct InvariantSet {
    checks: Vec<Box<dyn Invariant>>,
    violations: Vec<(Time, Violation)>,
    hard_fail: bool,
    trace: TraceHandle,
}

impl InvariantSet {
    /// An empty set; [`push`](Self::push) checkers onto it.
    pub fn empty() -> Self {
        Self {
            checks: Vec::new(),
            violations: Vec::new(),
            hard_fail: false,
            trace: TraceHandle::disabled(),
        }
    }

    /// The full standard battery described in the module docs.
    pub fn standard() -> Self {
        let mut set = Self::empty();
        set.push(Box::new(RbConservation));
        set.push(Box::new(LeaseReturn));
        set.push(Box::new(OneStepUp));
        set.push(Box::new(RateFeasibility));
        set.push(Box::<PlayerSanity>::default());
        set.push(Box::new(MonotoneInstall));
        set
    }

    /// Adds a checker.
    pub fn push(&mut self, check: Box<dyn Invariant>) {
        self.checks.push(check);
    }

    /// Enables or disables panicking on the first violation (after it has
    /// been recorded to the trace).
    pub fn with_hard_fail(mut self, on: bool) -> Self {
        self.hard_fail = on;
        self
    }

    /// Routes violation events and counters into `trace`.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Feeds one observation to every checker.
    ///
    /// # Panics
    ///
    /// Panics on a violation when hard-fail mode is enabled.
    pub fn observe(&mut self, now: Time, obs: &Observation) {
        for check in &mut self.checks {
            let Some(v) = check.observe(now, obs) else {
                continue;
            };
            self.trace.incr("invariant.violations", 1);
            self.trace
                .record(now, Category::Invariant, "violation", |e| {
                    e.str("inv", v.invariant).str("msg", v.message.clone());
                });
            if self.hard_fail {
                panic!(
                    "invariant `{}` violated at t={} ms: {}",
                    v.invariant,
                    now.as_millis(),
                    v.message
                );
            }
            self.violations.push((now, v));
        }
    }

    /// Violations collected so far (always empty in hard-fail mode, which
    /// panics instead of collecting).
    pub fn violations(&self) -> &[(Time, Violation)] {
        &self.violations
    }

    /// Number of collected violations.
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Panics with a readable listing if any violation was collected.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "invariant violations:\n{}",
            self.violations
                .iter()
                .map(|(t, v)| format!("  t={} ms [{}] {}", t.as_millis(), v.invariant, v.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl std::fmt::Debug for InvariantSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantSet")
            .field("checks", &self.checks.len())
            .field("violations", &self.violations.len())
            .field("hard_fail", &self.hard_fail)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_trace::TraceConfig;

    fn t(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    #[test]
    fn rb_conservation_flags_over_grant_only() {
        let mut set = InvariantSet::standard();
        set.observe(
            t(1),
            &Observation::TtiGrant {
                granted: 50,
                budget: 50,
            },
        );
        assert_eq!(set.violation_count(), 0);
        set.observe(
            t(1),
            &Observation::TtiGrant {
                granted: 51,
                budget: 50,
            },
        );
        assert_eq!(set.violation_count(), 1);
        assert_eq!(set.violations()[0].1.invariant, "rb_conservation");
    }

    #[test]
    fn lease_return_requires_cleared_gbr() {
        let mut set = InvariantSet::standard();
        set.observe(
            t(2),
            &Observation::LeaseExpiry {
                flow: 3,
                gbr_cleared: true,
            },
        );
        set.observe(
            t(2),
            &Observation::LeaseExpiry {
                flow: 4,
                gbr_cleared: false,
            },
        );
        assert_eq!(set.violation_count(), 1);
        assert_eq!(set.violations()[0].1.invariant, "lease_return");
    }

    #[test]
    fn one_step_up_allows_single_step_and_any_decrease() {
        let mut set = InvariantSet::standard();
        for (prev, new) in [(Some(2), 3), (Some(2), 0), (None, 5), (Some(5), 5)] {
            set.observe(
                t(3),
                &Observation::Assignment {
                    flow: 1,
                    prev_level: prev,
                    new_level: new,
                    max_level: 5,
                },
            );
        }
        assert_eq!(set.violation_count(), 0);
        set.observe(
            t(3),
            &Observation::Assignment {
                flow: 1,
                prev_level: Some(1),
                new_level: 3,
                max_level: 5,
            },
        );
        set.observe(
            t(3),
            &Observation::Assignment {
                flow: 1,
                prev_level: Some(5),
                new_level: 6,
                max_level: 5,
            },
        );
        assert_eq!(set.violation_count(), 2);
    }

    #[test]
    fn rate_feasibility_respects_tolerance() {
        let mut set = InvariantSet::standard();
        set.observe(
            t(4),
            &Observation::RateBudget {
                used_fraction: 1.0009,
                r_cap: 0.999,
                floor_fraction: 0.2,
                tolerance: 0.005,
            },
        );
        assert_eq!(set.violation_count(), 0);
        set.observe(
            t(4),
            &Observation::RateBudget {
                used_fraction: 1.2,
                r_cap: 0.999,
                floor_fraction: 0.2,
                tolerance: 0.005,
            },
        );
        assert_eq!(set.violation_count(), 1);
        // Overloaded BAI: the floors alone need 1.5 budgets. Handing out
        // exactly the floors is allowed; anything above them is not.
        set.observe(
            t(5),
            &Observation::RateBudget {
                used_fraction: 1.5,
                r_cap: 1.0,
                floor_fraction: 1.5,
                tolerance: 1e-6,
            },
        );
        assert_eq!(set.violation_count(), 1);
        set.observe(
            t(5),
            &Observation::RateBudget {
                used_fraction: 1.55,
                r_cap: 1.0,
                floor_fraction: 1.5,
                tolerance: 1e-6,
            },
        );
        assert_eq!(set.violation_count(), 2);
    }

    fn player(buffer_ms: i64, stalled: bool, rebuffer_events: u64, finished: bool) -> Observation {
        Observation::PlayerState {
            ue: 0,
            buffer_ms,
            stalled,
            rebuffer_events,
            resume_threshold_ms: 10_000,
            finished,
        }
    }

    #[test]
    fn player_sanity_accepts_a_normal_stall_cycle() {
        let mut set = InvariantSet::standard();
        set.observe(t(1), &player(4000, false, 0, false));
        set.observe(t(2), &player(0, true, 1, false));
        set.observe(t(3), &player(12_000, false, 1, false));
        // Finished players may drain below the resume threshold.
        set.observe(t(4), &player(500, false, 1, true));
        assert_eq!(set.violation_count(), 0);
    }

    #[test]
    fn player_sanity_catches_each_failure_mode() {
        for (obs_a, obs_b) in [
            // Negative buffer.
            (player(1000, false, 0, false), player(-1, false, 0, false)),
            // Counter regression.
            (player(1000, false, 2, false), player(1000, false, 1, false)),
            // Stall entered without counting a rebuffer.
            (player(1000, false, 1, false), player(0, true, 1, false)),
            // Rebuffer counted without a stall transition.
            (player(1000, false, 1, false), player(1000, false, 2, false)),
            // Resume below threshold while unfinished.
            (player(0, true, 1, false), player(200, false, 1, false)),
        ] {
            let mut set = InvariantSet::standard();
            set.observe(t(1), &obs_a);
            assert_eq!(set.violation_count(), 0, "setup tripped for {obs_a:?}");
            set.observe(t(2), &obs_b);
            assert_eq!(set.violation_count(), 1, "missed violation for {obs_b:?}");
        }
    }

    #[test]
    fn monotone_install_checks_both_directions() {
        let mut set = InvariantSet::standard();
        set.observe(
            t(5),
            &Observation::Install {
                ue: 1,
                seq: 2,
                prev_seq: Some(1),
                accepted: true,
            },
        );
        set.observe(
            t(5),
            &Observation::Install {
                ue: 1,
                seq: 2,
                prev_seq: Some(2),
                accepted: false,
            },
        );
        assert_eq!(set.violation_count(), 0);
        set.observe(
            t(5),
            &Observation::Install {
                ue: 1,
                seq: 2,
                prev_seq: Some(3),
                accepted: true,
            },
        );
        set.observe(
            t(5),
            &Observation::Install {
                ue: 1,
                seq: 9,
                prev_seq: Some(3),
                accepted: false,
            },
        );
        assert_eq!(set.violation_count(), 2);
    }

    #[test]
    fn violations_surface_as_trace_events_and_counters() {
        let trace = TraceHandle::new(TraceConfig::info());
        let mut set = InvariantSet::standard().with_trace(trace.clone());
        set.observe(
            t(7),
            &Observation::TtiGrant {
                granted: 80,
                budget: 50,
            },
        );
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, Category::Invariant);
        assert_eq!(events[0].name, "violation");
        assert_eq!(events[0].str_field("inv"), Some("rb_conservation"));
        assert_eq!(trace.snapshot().counter("invariant.violations"), 1);
    }

    #[test]
    #[should_panic(expected = "rb_conservation")]
    fn hard_fail_panics_after_recording() {
        let mut set = InvariantSet::standard().with_hard_fail(true);
        set.observe(
            t(8),
            &Observation::TtiGrant {
                granted: 51,
                budget: 50,
            },
        );
    }

    #[test]
    fn assert_clean_passes_on_empty_and_panics_on_violation() {
        let set = InvariantSet::standard();
        set.assert_clean();
        let mut dirty = InvariantSet::standard();
        dirty.observe(
            t(9),
            &Observation::TtiGrant {
                granted: 60,
                budget: 50,
            },
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dirty.assert_clean()));
        assert!(err.is_err());
    }
}
