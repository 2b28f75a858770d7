//! Deterministic structured tracing and metrics for the FLARE stack.
//!
//! FLARE's behaviour emerges from a closed loop spanning four layers —
//! client plugin → control plane → OneAPI solver → eNodeB MAC enforcement —
//! and this crate is the shared observability layer threaded through all of
//! them:
//!
//! * **Events** ([`TraceEvent`]): sim-time-stamped, typed, ordered records of
//!   what each subsystem did (TTI grants, BAI solve rounds, control-plane
//!   message fates, plugin installs/fallbacks, player stalls, GBR leases),
//!   tagged with a [`Category`] and buffered in a bounded ring under one
//!   [`TraceLevel`], with MAC TTI summaries sampled.
//! * **Registry** ([`RegistrySnapshot`]): counters, gauges, and log2-bucket
//!   histograms for aggregate, end-of-run telemetry — always cheap enough to
//!   leave on.
//!
//! # Determinism
//!
//! Events carry simulation [`flare_sim::Time`] and a record-order sequence
//! number — never wall-clock time. Wall-clock measurements (solver compute
//! time) are confined to the registry, which is excluded from the event
//! export. Consequently, the same seed produces a byte-identical JSONL
//! trace ([`to_jsonl`]), and [`parse_jsonl`] inverts it exactly. This is
//! enforced by `tests/observability.rs` at the workspace root.
//!
//! # Overhead
//!
//! A [`TraceHandle::disabled`] handle reduces every call to an `Option`
//! discriminant check (`disabled_handle_is_inert` pins that it records
//! nothing). The workspace's `tests/alloc.rs` gates hold the instrumented
//! TTI path at zero allocations, and the `perfbench/` benchmark reports the
//! traced-vs-untraced cost as `trace.overhead_ratio`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod recorder;
mod registry;

pub use event::{Category, EventBuilder, TraceEvent, TraceLevel, Value};
pub use export::{parse_jsonl, to_json_line, to_jsonl, ParseError};
pub use recorder::{TraceConfig, TraceHandle};
pub use registry::{HistogramSummary, RegistrySnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use flare_sim::Time;

    /// End-to-end: record through a handle, export, parse, compare.
    #[test]
    fn record_export_parse_round_trip() {
        let trace = TraceHandle::new(TraceConfig::debug());
        trace.record(Time::from_secs(10), Category::Solver, "solve", |e| {
            e.u64("clients", 8).f64("r", 0.4251).str("mode", "exact");
        });
        trace.record_debug(Time::from_secs(10), Category::Solver, "assign", |e| {
            e.u64("flow", 2).u64("applied", 3).bool("deferred", false);
        });
        trace.record(Time::from_millis(10_001), Category::Control, "drop", |e| {
            e.str("link", "down");
        });
        let text = trace.to_jsonl();
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed, trace.events());
        assert_eq!(to_jsonl(&parsed), text);
    }

    /// Two identical recording sequences produce byte-identical exports.
    #[test]
    fn identical_sequences_are_byte_identical() {
        let run = || {
            let trace = TraceHandle::new(TraceConfig::info());
            for i in 0..100u64 {
                trace.record(Time::from_millis(i * 7), Category::Player, "segment", |e| {
                    e.u64("ue", i % 4)
                        .u64("segment", i)
                        .f64("buffer_ms", i as f64 * 1.5);
                });
            }
            trace.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
