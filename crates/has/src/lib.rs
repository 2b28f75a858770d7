//! HTTP adaptive streaming (HAS) substrate for the FLARE reproduction.
//!
//! HAS divides a video into fixed-length segments, each encoded at several
//! bitrates; before each segment download the player picks one encoding.
//! This crate provides everything around that choice:
//!
//! * [`BitrateLadder`] / [`Level`] — the discrete encodings `r_u(1..M_u)`,
//!   including the exact ladders used by the paper's testbed and
//!   simulations.
//! * [`Mpd`] — the Media Presentation Description a client parses before
//!   streaming: the ladder and segment timing, nothing that identifies the
//!   video.
//! * [`estimator`] — client-side throughput estimators (sliding mean,
//!   harmonic mean, and the dual long/short window used by the "GOOGLE"
//!   reference player).
//! * [`PlaybackBuffer`] and [`Player`] — the client state machine: startup,
//!   steady streaming, rebuffering, and per-segment statistics.
//! * [`RateAdapter`] — the trait every adaptation algorithm (FESTIVE,
//!   GOOGLE, AVIS's client, FLARE's plugin) implements.
//!
//! # Example
//!
//! ```
//! use flare_has::{AdaptContext, BitrateLadder, Level, RateAdapter};
//!
//! /// Always picks the lowest encoding.
//! struct Lowest;
//! impl RateAdapter for Lowest {
//!     fn next_level(&mut self, _ctx: &AdaptContext) -> Level {
//!         Level::new(0)
//!     }
//!     fn name(&self) -> &'static str {
//!         "lowest"
//!     }
//! }
//!
//! let ladder = BitrateLadder::testbed();
//! assert_eq!(ladder.rate(Level::new(0)).as_kbps(), 200.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod buffer;
pub mod estimator;
mod ladder;
mod mpd;
mod player;

pub use adapter::{AdaptContext, DownloadSample, RateAdapter};
pub use buffer::PlaybackBuffer;
pub use ladder::{BitrateLadder, Level};
pub use mpd::Mpd;
pub use player::{Player, PlayerConfig, PlayerStats, SegmentRecord, SegmentRequest};
