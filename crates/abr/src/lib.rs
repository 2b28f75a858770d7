//! Baseline HAS adaptation algorithms the paper evaluates against FLARE.
//!
//! * [`Festive`] — the client-side FESTIVE algorithm (Jiang et al., CoNEXT
//!   2012): harmonic-mean bandwidth estimation, gradual level-ups, and a
//!   stability/efficiency tradeoff score. Parameters from the paper's
//!   Table IV: `k = 4`, `p = 0.85`, `α = 12`.
//! * [`Google`] — the MPEG-DASH/Media Source demo player the paper calls
//!   GOOGLE: long/short window estimates `b^l`, `b^s` and the rule
//!   "highest rate ≤ 0.85 · min(b^l, b^s)".
//! * [`RateBased`] — the plain client controller AVIS pairs with: highest
//!   rate at most the estimated throughput, no safety factor.
//! * [`avis`] — AVIS's network side (Chen et al., MOBICOM 2013): a per-BAI
//!   cell allocator that carves a static video partition and pushes per-flow
//!   GBR/MBR caps into the MAC, *without* telling the client — the
//!   mis-coordination FLARE is designed to eliminate.
//! * [`SharedAssignment`] — the cell through which coordinated schemes
//!   (FLARE, and AVIS's MBR echo for analysis) hand a network-chosen level
//!   to a client-side adapter.
//! * [`VersionedAssignment`] — the robust variant of that cell for
//!   unreliable control planes: sequence-numbered installs (stale ones
//!   rejected) plus the client's staleness/fallback state machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avis;
mod festive;
mod google;
mod rate_based;
mod shared;
mod versioned;

pub use festive::Festive;
pub use google::Google;
pub use rate_based::RateBased;
pub use shared::SharedAssignment;
pub use versioned::{CoordinationMode, VersionedAssignment};
