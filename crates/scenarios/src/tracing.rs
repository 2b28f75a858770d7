//! Representative traced runs, one per paper experiment.
//!
//! The repro harness regenerates a whole table or figure from many runs;
//! exporting the event stream of every one of them would be noise. Instead
//! [`representative_trace`] re-runs a *single* representative configuration
//! of the requested experiment with a recording [`TraceHandle`] attached
//! and returns the structured trace (JSONL) plus the registry summary.
//!
//! Traces are deterministic: the recorder timestamps events with simulated
//! time only, so the same experiment at the same seed yields a byte-
//! identical JSONL document (see `flare_trace` crate docs).

use flare_core::{FaultModel, FlareConfig, RobustnessConfig};
use flare_lte::mobility::MobilityConfig;
use flare_trace::{TraceHandle, TraceLevel};

use crate::cell::cell_config;
use crate::config::{ChannelKind, SchemeKind, SimConfig};
use crate::experiments::ExperimentParams;
use crate::runner::CellSim;
use crate::testbed::{dynamic_config, static_config};

/// The structured trace of one representative run.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    /// Experiment the run represents (e.g. `"fig6"`).
    pub experiment: String,
    /// Scheme the traced run used.
    pub scheme: String,
    /// The event stream as JSON Lines (one event per line).
    pub jsonl: String,
    /// Number of events in the stream.
    pub events: usize,
    /// Events evicted from the bounded ring (0 unless the run outgrew it).
    pub dropped: u64,
    /// Rendered registry summary (counters, gauges, histograms).
    pub summary: String,
}

/// Experiments [`representative_trace`] knows how to trace.
pub const TRACEABLE: &[&str] = &[
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation",
    "partition",
    "diversity",
    "legacy",
    "faults",
];

/// Picks the representative configuration of `experiment`.
///
/// Solver-centric experiments (fig8/9/11/12) trace the FLARE static cell
/// their sweeps are built from; `fig9` has no cell run at all, so its
/// trace shows the solve events of that same scenario.
fn representative_config(experiment: &str, p: &ExperimentParams) -> Option<SimConfig> {
    let flare = SchemeKind::Flare(FlareConfig::default());
    let static_cell = |scheme: SchemeKind, n_video: usize, n_data: usize| {
        cell_config(
            scheme,
            ChannelKind::StationaryRandom(MobilityConfig),
            n_video,
            n_data,
            p.seed,
            p.duration,
        )
    };
    Some(match experiment {
        "table1" | "fig4" => static_config(flare, p.seed, p.testbed_duration),
        "table2" | "fig5" => dynamic_config(flare, p.seed, p.testbed_duration),
        "fig6" | "fig8" | "fig9" | "fig11" | "fig12" => static_cell(flare, 8, 0),
        "fig7" => cell_config(
            flare,
            ChannelKind::Mobile(MobilityConfig),
            8,
            0,
            p.seed,
            p.duration,
        ),
        "fig10" => static_cell(flare, 4, 4),
        "ablation" | "partition" | "diversity" => static_cell(SchemeKind::FlareGbrOnly, 8, 0),
        "legacy" => {
            let mut cfg = static_cell(flare, 8, 0);
            cfg.legacy_video = 2;
            cfg
        }
        "faults" => {
            let mut cfg = static_cell(
                SchemeKind::Flare(FlareConfig::default().with_robustness(RobustnessConfig)),
                8,
                0,
            );
            cfg.faults = FaultModel::perfect()
                .with_drop_prob(0.3)
                .with_jitter(flare_sim::TimeDelta::from_millis(800));
            cfg
        }
        _ => return None,
    })
}

/// Runs one representative configuration of `experiment` with an attached
/// recorder and returns its trace, or `None` for unknown experiments.
pub fn representative_trace(experiment: &str, p: &ExperimentParams) -> Option<TraceArtifact> {
    let mut config = representative_config(experiment, p)?;
    let trace = TraceHandle::new(TraceLevel::Info);
    config.trace = trace.clone();
    let scheme = config.scheme.name().to_owned();
    let result = CellSim::new(config).run();
    Some(TraceArtifact {
        experiment: experiment.to_owned(),
        scheme,
        jsonl: trace.to_jsonl(),
        events: trace.event_count(),
        dropped: trace.dropped_events(),
        summary: result.telemetry.render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        let mut p = ExperimentParams::quick();
        p.duration = flare_sim::TimeDelta::from_secs(60);
        p.testbed_duration = flare_sim::TimeDelta::from_secs(60);
        p
    }

    #[test]
    fn unknown_experiment_yields_none() {
        assert!(representative_trace("nope", &quick()).is_none());
    }

    #[test]
    fn every_traceable_experiment_has_a_config() {
        let p = quick();
        for exp in TRACEABLE {
            assert!(
                representative_config(exp, &p).is_some(),
                "no representative config for {exp}"
            );
        }
    }

    #[test]
    fn traced_run_produces_parseable_events() {
        let artifact = representative_trace("fig6", &quick()).expect("fig6 is traceable");
        assert!(artifact.events > 0, "trace must not be empty");
        assert_eq!(artifact.scheme, "FLARE");
        let events = flare_trace::parse_jsonl(&artifact.jsonl).expect("trace must parse");
        assert_eq!(events.len(), artifact.events);
        assert!(artifact.summary.contains("counters"));
    }

    #[test]
    fn traces_are_deterministic() {
        let p = quick();
        let a = representative_trace("faults", &p).unwrap();
        let b = representative_trace("faults", &p).unwrap();
        assert_eq!(a.jsonl, b.jsonl, "same seed must trace byte-identically");
    }
}
