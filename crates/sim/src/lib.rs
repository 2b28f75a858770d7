//! Simulation time, units and deterministic RNG for the FLARE reproduction.
//!
//! This crate provides the minimal, deterministic building blocks shared by
//! every simulator in the workspace:
//!
//! * [`Time`] / [`TimeDelta`] — millisecond-resolution simulation time. One
//!   LTE transmission time interval (TTI) is exactly one millisecond, so the
//!   kernel's native resolution matches the MAC layer's.
//! * [`units`] — typed rates and byte counts.
//! * [`rng`] — seed-derivation utilities so that every simulated entity owns
//!   an independent, reproducible random stream derived from one master seed.
//!
//! # Example
//!
//! ```
//! use flare_sim::rng::stream;
//! use flare_sim::{Time, TimeDelta, TTI};
//! use rand::Rng;
//!
//! // A BAI boundary is a whole number of TTIs after the start.
//! let bai = TimeDelta::from_secs(10);
//! let now = Time::from_millis(23_456);
//! assert_eq!(now.floor_to(bai), Time::from_secs(20));
//! assert_eq!(bai / TTI, 10_000);
//!
//! // Equal (seed, tag, index) triples replay the same random stream.
//! let a: u64 = stream(7, "channel", 3).gen();
//! let b: u64 = stream(7, "channel", 3).gen();
//! assert_eq!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
mod time;
pub mod units;

pub use time::{Time, TimeDelta, TTI};
