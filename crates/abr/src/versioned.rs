//! A versioned assignment cell with staleness tracking.
//!
//! [`super::SharedAssignment`] is the lossless-world cell: whatever was
//! written last is the truth. Over an unreliable control plane that is no
//! longer safe — a delayed assignment can arrive *after* its successor and
//! roll the client back to an old decision, and a silent server leaves the
//! client obeying an assignment the network stopped honouring long ago.
//!
//! [`VersionedAssignment`] fixes both: installs carry the server's BAI
//! sequence number and are rejected unless they advance it, and the cell
//! runs the client's coordination-state machine — counting BAIs since the
//! last fresh assignment, switching to fallback after
//! [`VersionedAssignment::STALE_BAIS`] of them, and rejoining only after a
//! hysteresis streak of [`VersionedAssignment::REJOIN_BAIS`] fresh ones.

use std::cell::RefCell;
use std::rc::Rc;

use flare_has::Level;

/// Whether the client currently trusts network coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinationMode {
    /// Assignments are fresh; the plugin obeys them verbatim.
    #[default]
    Coordinated,
    /// Assignments have gone stale; the plugin self-adapts conservatively.
    Fallback,
}

#[derive(Debug, Default)]
struct State {
    level: Option<Level>,
    seq: Option<u64>,
    mode: CoordinationMode,
    bais_since_fresh: u32,
    fresh_streak: u32,
    installed_this_bai: bool,
}

/// A shared cell carrying the most recent *non-stale* assignment plus the
/// client's coordination-state machine.
///
/// The harness holds one clone (installing delivered assignments, ticking
/// BAI boundaries with [`VersionedAssignment::end_bai`]); the plugin holds
/// the other (reading the level and the current [`CoordinationMode`]).
#[derive(Debug, Clone, Default)]
pub struct VersionedAssignment {
    inner: Rc<RefCell<State>>,
}

impl VersionedAssignment {
    /// BAIs without a fresh assignment before the client falls back to its
    /// local conservative policy (`k` in DESIGN.md §8).
    pub const STALE_BAIS: u32 = 3;
    /// Consecutive BAIs with fresh assignments required before a client in
    /// fallback rejoins coordination (hysteresis against flapping).
    pub const REJOIN_BAIS: u32 = 2;

    /// An empty, coordinated cell.
    pub fn new() -> Self {
        VersionedAssignment::default()
    }

    /// Installs an assignment. Returns `true` if it advanced the cell's
    /// sequence number; a non-advancing (reordered or replayed) assignment
    /// is rejected, leaving the cell untouched.
    pub fn install(&self, seq: u64, level: Level) -> bool {
        let mut s = self.inner.borrow_mut();
        if s.seq.is_some_and(|current| seq <= current) {
            return false;
        }
        s.seq = Some(seq);
        s.level = Some(level);
        s.installed_this_bai = true;
        true
    }

    /// Marks a BAI boundary: advances the staleness clock and runs the
    /// fallback/rejoin state machine. Call exactly once per BAI, after
    /// delivering any assignments due in it.
    pub fn end_bai(&self) {
        let mut s = self.inner.borrow_mut();
        if s.installed_this_bai {
            s.installed_this_bai = false;
            s.bais_since_fresh = 0;
            s.fresh_streak += 1;
            if s.mode == CoordinationMode::Fallback && s.fresh_streak >= Self::REJOIN_BAIS {
                s.mode = CoordinationMode::Coordinated;
            }
        } else {
            s.bais_since_fresh += 1;
            s.fresh_streak = 0;
            if s.bais_since_fresh >= Self::STALE_BAIS {
                s.mode = CoordinationMode::Fallback;
            }
        }
    }

    /// The most recently installed level (possibly stale).
    pub fn level(&self) -> Option<Level> {
        self.inner.borrow().level
    }

    /// The highest sequence number installed so far.
    pub fn seq(&self) -> Option<u64> {
        self.inner.borrow().seq
    }

    /// The client's current coordination mode.
    pub fn mode(&self) -> CoordinationMode {
        self.inner.borrow().mode
    }

    /// BAIs elapsed since the last fresh assignment.
    pub fn bais_since_fresh(&self) -> u32 {
        self.inner.borrow().bais_since_fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn installs_advance_and_stale_installs_reject() {
        let cell = VersionedAssignment::new();
        assert!(cell.install(1, Level::new(2)));
        assert!(cell.install(3, Level::new(4)));
        // A reordered seq-2 assignment arrives late: rejected, state kept.
        assert!(!cell.install(2, Level::new(1)));
        assert_eq!(cell.level(), Some(Level::new(4)));
        assert_eq!(cell.seq(), Some(3));
        // The rejection is not a fresh install: three silent BAIs later the
        // client falls back as if it had never arrived.
        cell.end_bai();
        assert!(!cell.install(3, Level::new(0)));
        cell.end_bai();
        cell.end_bai();
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
    }

    #[test]
    fn staleness_triggers_fallback_after_threshold() {
        let cell = VersionedAssignment::new();
        assert!(cell.install(1, Level::new(2)));
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Coordinated);
        // `k` silent BAIs -> fallback on the k-th.
        for _ in 1..VersionedAssignment::STALE_BAIS {
            cell.end_bai();
        }
        assert_eq!(cell.mode(), CoordinationMode::Coordinated);
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
        assert_eq!(cell.bais_since_fresh(), VersionedAssignment::STALE_BAIS);
    }

    /// Runs silent BAIs on `cell` until it falls back.
    fn go_stale(cell: &VersionedAssignment) {
        for _ in 0..VersionedAssignment::STALE_BAIS {
            cell.end_bai();
        }
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
    }

    #[test]
    fn rejoin_needs_a_fresh_streak() {
        let cell = VersionedAssignment::new();
        go_stale(&cell);
        // One fresh BAI short of the streak is not enough (hysteresis)…
        let mut seq = 0;
        for _ in 1..VersionedAssignment::REJOIN_BAIS {
            seq += 1;
            cell.install(seq, Level::new(1));
            cell.end_bai();
            assert_eq!(cell.mode(), CoordinationMode::Fallback);
        }
        // …the full streak of consecutive fresh BAIs rejoins.
        cell.install(seq + 1, Level::new(1));
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Coordinated);
    }

    #[test]
    fn a_stale_install_does_not_count_as_fresh() {
        let cell = VersionedAssignment::new();
        cell.install(5, Level::new(1));
        cell.end_bai();
        go_stale(&cell);
        // Replayed old assignments must not rejoin the client, however many
        // BAIs they keep arriving.
        for _ in 0..VersionedAssignment::REJOIN_BAIS {
            assert!(!cell.install(5, Level::new(1)));
            cell.end_bai();
        }
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
    }

    #[test]
    fn clones_share_state() {
        let a = VersionedAssignment::new();
        let b = a.clone();
        a.install(1, Level::new(3));
        assert_eq!(b.level(), Some(Level::new(3)));
        assert_eq!(b.seq(), Some(1));
    }
}
