//! Runtime invariant checking for FLARE simulation runs.
//!
//! [`InvariantSet`] checks the constraints the paper (or the simulator's own
//! contracts) says must hold *while a run executes*, not just in its final
//! statistics. Each has a stable name, used in trace events and panics:
//!
//! - `rb_conservation`: an eNodeB TTI never grants more RBs than the cell
//!   has (50 by default) — the MAC-layer counterpart of the solver's budget.
//! - `lease_return`: when a GBR lease expires, the reservation is actually
//!   cleared so the leased RBs return to the PF pool.
//! - `one_step_up`: solver outputs obey Eq. (4b) — a client's level moves up
//!   by at most one step per BAI and never beyond the ladder top.
//! - `rate_feasibility`: solver outputs obey Eq. (4a) — the assigned rates,
//!   weighted by the same previous-BAI `(n_u, b_u)` efficiency estimates the
//!   server used, fit within the RB budget fraction `r_cap`, or use no more
//!   than the floor assignment when the floors alone overload the cell.
//! - `player_sanity`: player buffers never go negative, rebuffer counters
//!   are monotone, and stall/resume transitions pair with them correctly.
//! - `monotone_install`: `VersionedAssignment` installs accept exactly the
//!   assignments with a strictly newer sequence number.
//!
//! The set consumes [`Observation`]s — plain-number snapshots emitted by the
//! simulation at natural checkpoints (per TTI, per BAI, per install). Keeping
//! observations primitive means this crate needs no dependency on the LTE,
//! solver, or player crates.
//!
//! [`InvariantSet::observe`] surfaces a violation as a structured
//! [`Category::Invariant`] trace event (plus an `invariant.violations`
//! counter) and then panics, which is what `repro --check-invariants` and
//! the tests rely on.

use std::collections::HashMap;

use flare_sim::Time;
use flare_trace::{Category, TraceHandle};

/// One snapshot of simulator state handed to the [`InvariantSet`].
///
/// All payloads are plain numbers so that producing an observation is cheap
/// and the checks stay decoupled from simulator internals.
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

#[derive(Debug)]
struct PlayerSeen {
    stalled: bool,
    rebuffer_events: u64,
}

fn violation(invariant: &'static str, message: String) -> Option<Violation> {
    Some(Violation { invariant, message })
}

/// The invariant battery, fed from one observation stream.
///
/// Checks are deterministic functions of the observation stream (the only
/// state is each player's last stall flag and rebuffer count), so running
/// them inline cannot break serial/parallel trace equality.
#[derive(Debug)]
pub struct InvariantSet {
    players: HashMap<u64, PlayerSeen>,
    trace: TraceHandle,
}

impl InvariantSet {
    /// A battery that records violations into `trace`.
    pub fn new(trace: TraceHandle) -> Self {
        Self {
            players: HashMap::new(),
            trace,
        }
    }

    /// Checks one observation against the invariant it concerns.
    pub fn check(&mut self, obs: &Observation) -> Option<Violation> {
        match *obs {
            Observation::TtiGrant { granted, budget } if granted > budget => violation(
                "rb_conservation",
                format!("TTI granted {granted} RBs > budget {budget}"),
            ),
            Observation::LeaseExpiry { flow, gbr_cleared } if !gbr_cleared => violation(
                "lease_return",
                format!("flow {flow} lease expired but GBR reservation persists"),
            ),
            Observation::Assignment {
                flow,
                prev_level,
                new_level,
                max_level,
            } => {
                if new_level > max_level {
                    violation(
                        "one_step_up",
                        format!("flow {flow} assigned level {new_level} > ladder top {max_level}"),
                    )
                } else if let Some(prev) = prev_level.filter(|&p| new_level > p + 1) {
                    violation(
                        "one_step_up",
                        format!("flow {flow} jumped {prev} -> {new_level} (more than one step up)"),
                    )
                } else {
                    None
                }
            }
            Observation::RateBudget {
                used_fraction,
                r_cap,
                floor_fraction,
                tolerance,
            } if used_fraction > r_cap.max(floor_fraction) + tolerance => violation(
                "rate_feasibility",
                format!(
                    "assignments use {used_fraction:.6} of the RB budget > r_cap {r_cap} \
                     and > the floors' {floor_fraction:.6} (+{tolerance})"
                ),
            ),
            Observation::PlayerState {
                ue,
                buffer_ms,
                stalled,
                rebuffer_events,
                resume_threshold_ms,
                finished,
            } => {
                let fail = |message: String| violation("player_sanity", message);
                if buffer_ms < 0 {
                    return fail(format!("ue {ue} buffer is negative: {buffer_ms} ms"));
                }
                let seen = PlayerSeen {
                    stalled,
                    rebuffer_events,
                };
                // A player's first observation only sets its baseline.
                let last = self.players.insert(ue, seen)?;
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
            Observation::Install {
                ue,
                seq,
                prev_seq,
                accepted,
            } => {
                let is_newer = prev_seq.is_none_or(|p| seq > p);
                if accepted && !is_newer {
                    violation(
                        "monotone_install",
                        format!(
                            "ue {ue} installed seq {seq} although seq {} was current",
                            prev_seq.unwrap_or(0)
                        ),
                    )
                } else if !accepted && is_newer {
                    violation(
                        "monotone_install",
                        format!("ue {ue} rejected fresh seq {seq} (prev {prev_seq:?})"),
                    )
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Checks one observation; a violation is recorded to the trace, then
    /// fails the run.
    ///
    /// # Panics
    ///
    /// Panics, naming the invariant, on a violation.
    pub fn observe(&mut self, now: Time, obs: &Observation) {
        let Some(v) = self.check(obs) else {
            return;
        };
        self.trace.incr("invariant.violations", 1);
        self.trace
            .record(now, Category::Invariant, "violation", |e| {
                e.str("inv", v.invariant).str("msg", v.message.clone());
            });
        panic!(
            "invariant `{}` violated at t={} ms: {}",
            v.invariant,
            now.as_millis(),
            v.message
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_trace::TraceConfig;

    /// Feeds `obs` in order to one fresh set and returns the name of every
    /// invariant that fired.
    fn fired(obs: &[Observation]) -> Vec<&'static str> {
        let mut set = InvariantSet::new(TraceHandle::disabled());
        obs.iter()
            .filter_map(|o| set.check(o))
            .map(|v| v.invariant)
            .collect()
    }

    #[test]
    fn rb_conservation_flags_over_grant_only() {
        let grant = |granted| Observation::TtiGrant {
            granted,
            budget: 50,
        };
        assert!(fired(&[grant(50)]).is_empty());
        assert_eq!(fired(&[grant(51)]), ["rb_conservation"]);
    }

    #[test]
    fn lease_return_requires_cleared_gbr() {
        let expiry = |flow, gbr_cleared| Observation::LeaseExpiry { flow, gbr_cleared };
        assert_eq!(
            fired(&[expiry(3, true), expiry(4, false)]),
            ["lease_return"]
        );
    }

    #[test]
    fn one_step_up_allows_single_step_and_any_decrease() {
        let assign = |prev_level, new_level| Observation::Assignment {
            flow: 1,
            prev_level,
            new_level,
            max_level: 5,
        };
        let ok = [(Some(2), 3), (Some(2), 0), (None, 5), (Some(5), 5)];
        assert!(fired(&ok.map(|(p, n)| assign(p, n))).is_empty());
        assert_eq!(
            fired(&[assign(Some(1), 3), assign(Some(5), 6)]),
            ["one_step_up", "one_step_up"]
        );
    }

    #[test]
    fn rate_feasibility_respects_tolerance() {
        let budget = |used_fraction, r_cap, floor_fraction, tolerance| Observation::RateBudget {
            used_fraction,
            r_cap,
            floor_fraction,
            tolerance,
        };
        assert!(fired(&[budget(1.0009, 0.999, 0.2, 0.005)]).is_empty());
        assert_eq!(
            fired(&[budget(1.2, 0.999, 0.2, 0.005)]),
            ["rate_feasibility"]
        );
        // Overloaded BAI: the floors alone need 1.5 budgets. Handing out
        // exactly the floors is allowed; anything above them is not.
        assert!(fired(&[budget(1.5, 1.0, 1.5, 1e-6)]).is_empty());
        assert_eq!(fired(&[budget(1.55, 1.0, 1.5, 1e-6)]), ["rate_feasibility"]);
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
        assert!(fired(&[
            player(4000, false, 0, false),
            player(0, true, 1, false),
            player(12_000, false, 1, false),
            // Finished players may drain below the resume threshold.
            player(500, false, 1, true),
        ])
        .is_empty());
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
            let mut set = InvariantSet::new(TraceHandle::disabled());
            assert_eq!(set.check(&obs_a), None, "setup tripped for {obs_a:?}");
            assert_eq!(
                set.check(&obs_b).map(|v| v.invariant),
                Some("player_sanity"),
                "missed violation for {obs_b:?}"
            );
        }
    }

    #[test]
    fn monotone_install_checks_both_directions() {
        let install = |seq, prev_seq, accepted| Observation::Install {
            ue: 1,
            seq,
            prev_seq: Some(prev_seq),
            accepted,
        };
        assert!(fired(&[install(2, 1, true), install(2, 2, false)]).is_empty());
        assert_eq!(
            fired(&[install(2, 3, true), install(9, 3, false)]),
            ["monotone_install", "monotone_install"]
        );
    }

    #[test]
    #[should_panic(expected = "rb_conservation")]
    fn hard_fail_panics_after_recording() {
        let mut set = InvariantSet::new(TraceHandle::disabled());
        set.observe(
            Time::from_secs(8),
            &Observation::TtiGrant {
                granted: 51,
                budget: 50,
            },
        );
    }

    #[test]
    fn violations_surface_as_trace_events_and_counters() {
        let trace = TraceHandle::new(TraceConfig::info());
        let mut set = InvariantSet::new(trace.clone());
        let over_grant = Observation::TtiGrant {
            granted: 80,
            budget: 50,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.observe(Time::from_secs(7), &over_grant)
        }));
        assert!(outcome.is_err(), "a violation must fail the run");
        // The event and counter are recorded before the panic.
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, Category::Invariant);
        assert_eq!(events[0].name, "violation");
        assert_eq!(events[0].str_field("inv"), Some("rb_conservation"));
        assert_eq!(trace.snapshot().counter("invariant.violations"), 1);
    }
}
