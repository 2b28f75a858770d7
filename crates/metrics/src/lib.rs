//! QoE and network metrics for the FLARE evaluation.
//!
//! The paper argues PSNR-style metrics are meaningless for TCP-based HAS
//! and evaluates with: average bitrate, number of bitrate changes, Jain's
//! fairness index of realized rates, buffer-underflow time, and per-flow
//! throughput — plus CDFs of all of the above across clients and runs.
//! This crate computes those quantities:
//!
//! * [`jain_index`] — Jain's fairness index.
//! * [`Cdf`] — an empirical CDF with percentile queries.
//! * [`Summary`] — mean / standard deviation / extrema of a sample.
//! * [`TimeSeries`] — `(time, value)` traces for the Figure 4/5-style
//!   plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod jain;
mod summary;
mod timeseries;

pub use cdf::Cdf;
pub use jain::jain_index;
pub use summary::Summary;
pub use timeseries::TimeSeries;
