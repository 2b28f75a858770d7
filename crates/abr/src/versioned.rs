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
//! last fresh assignment, switching to fallback after a configurable
//! staleness threshold, and rejoining only after a hysteresis streak of
//! fresh assignments.

use std::cell::RefCell;
use std::rc::Rc;

use flare_has::Level;

/// Whether the client currently trusts network coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinationMode {
    /// Assignments are fresh; the plugin obeys them verbatim.
    Coordinated,
    /// Assignments have gone stale; the plugin self-adapts conservatively.
    Fallback,
}

#[derive(Debug)]
struct State {
    level: Option<Level>,
    seq: Option<u64>,
    mode: CoordinationMode,
    bais_since_fresh: u32,
    fresh_streak: u32,
    installed_this_bai: bool,
    stale_bais: u32,
    rejoin_bais: u32,
}

/// A shared cell carrying the most recent *non-stale* assignment plus the
/// client's coordination-state machine.
///
/// The harness holds one clone (installing delivered assignments, ticking
/// BAI boundaries with [`VersionedAssignment::end_bai`]); the plugin holds
/// the other (reading the level and the current [`CoordinationMode`]).
#[derive(Debug, Clone)]
pub struct VersionedAssignment {
    inner: Rc<RefCell<State>>,
}

impl VersionedAssignment {
    /// An empty cell: fall back after `stale_bais` BAIs without a fresh
    /// assignment, rejoin after `rejoin_bais` consecutive fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `stale_bais` is zero.
    pub fn new(stale_bais: u32, rejoin_bais: u32) -> Self {
        assert!(stale_bais > 0, "stale threshold must be at least one BAI");
        VersionedAssignment {
            inner: Rc::new(RefCell::new(State {
                level: None,
                seq: None,
                mode: CoordinationMode::Coordinated,
                bais_since_fresh: 0,
                fresh_streak: 0,
                installed_this_bai: false,
                stale_bais,
                rejoin_bais,
            })),
        }
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
            if s.mode == CoordinationMode::Fallback && s.fresh_streak >= s.rejoin_bais {
                s.mode = CoordinationMode::Coordinated;
            }
        } else {
            s.bais_since_fresh += 1;
            s.fresh_streak = 0;
            if s.bais_since_fresh >= s.stale_bais {
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
        let cell = VersionedAssignment::new(3, 2);
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
        let cell = VersionedAssignment::new(3, 2);
        assert!(cell.install(1, Level::new(2)));
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Coordinated);
        // Three silent BAIs -> fallback on the third.
        cell.end_bai();
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Coordinated);
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
        assert_eq!(cell.bais_since_fresh(), 3);
    }

    #[test]
    fn rejoin_needs_a_fresh_streak() {
        let cell = VersionedAssignment::new(1, 2);
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
        // One fresh BAI is not enough (hysteresis)…
        cell.install(1, Level::new(1));
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
        // …two consecutive fresh BAIs rejoin.
        cell.install(2, Level::new(1));
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Coordinated);
    }

    #[test]
    fn a_stale_install_does_not_count_as_fresh() {
        let cell = VersionedAssignment::new(1, 1);
        cell.install(5, Level::new(1));
        cell.end_bai();
        cell.end_bai(); // silent -> fallback
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
        // A replayed old assignment must not rejoin the client.
        assert!(!cell.install(5, Level::new(1)));
        cell.end_bai();
        assert_eq!(cell.mode(), CoordinationMode::Fallback);
    }

    #[test]
    fn clones_share_state() {
        let a = VersionedAssignment::new(3, 2);
        let b = a.clone();
        a.install(1, Level::new(3));
        assert_eq!(b.level(), Some(Level::new(3)));
        assert_eq!(b.seq(), Some(1));
    }
}
