//! The per-layer metrics a traced run reports.
//!
//! Every workload reports every field. A field of a layer the workload does
//! not exercise stays 0. Host times are measured on every workload, so none
//! of them is 0.

use crate::stats::Metric;

/// Per-layer figures of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Set-up span: `CellSim::new` + `into_stepper`, or server construction
    /// + client registration.
    pub setup_us: f64,
    /// Self time of the `advance_to_bai` spans per simulated TTI.
    pub tti_loop_ns_per_tti: f64,
    /// `into_result` + summary span, per run.
    pub result_us: f64,
    /// Standalone `ENodeB::step_tti` with fig10_mixed's flow mix.
    pub step_tti_ns: f64,
    /// RBs reported by the MAC over the RBs the cell offered.
    pub rb_utilization: f64,
    /// GBR leases expired unrenewed, per run.
    pub lease_expiries: f64,
    /// BAI-boundary span (`bai_boundary`, or one `assign` call).
    pub bai_boundary_us_p50: f64,
    pub bai_boundary_us_p90: f64,
    /// Boundary span minus its solver child.
    pub decide_self_us_p50: f64,
    /// Control messages dropped or lost to outages over messages sent.
    pub control_loss_ratio: f64,
    /// Client-BAIs in fallback over client-BAIs.
    pub fallback_bai_ratio: f64,
    /// Assignments installed by plugins per BAI.
    pub installs_per_bai: f64,
    /// Stale assignments rejected, per run.
    pub stale_rejections: f64,
    /// Solver child span.
    pub solve_us_p50: f64,
    pub solve_us_p90: f64,
    /// Solver child time over boundary time.
    pub solve_share: f64,
    pub steps_per_solve: f64,
    pub warm_hit_ratio: f64,
    /// Increases the δ stability filter deferred, per BAI.
    pub deferrals_per_bai: f64,
    pub segments_per_run: f64,
    pub stalls_per_run: f64,
    /// Mean simulated segment download time.
    pub download_ms_mean: f64,
    /// Mean simulated underflow time per client.
    pub rebuffer_s: f64,
    /// Mean data-flow throughput.
    pub data_kbps: f64,
    /// Traced wall time over untraced wall time, minus one.
    pub overhead_ratio: f64,
    /// Share of the traced wall time outside every layer span.
    pub unattributed_ratio: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("scenarios.setup_us", "us", self.setup_us),
            Metric::new(
                "scenarios.tti_loop_ns_per_tti",
                "ns/tti",
                self.tti_loop_ns_per_tti,
            ),
            Metric::new("scenarios.result_us_per_run", "us/run", self.result_us),
            Metric::new("lte.step_tti_ns", "ns", self.step_tti_ns),
            Metric::new("lte.rb_utilization", "ratio", self.rb_utilization),
            Metric::new("lte.lease_expiries", "count", self.lease_expiries),
            Metric::new("core.bai_boundary_us_p50", "us", self.bai_boundary_us_p50),
            Metric::new("core.bai_boundary_us_p90", "us", self.bai_boundary_us_p90),
            Metric::new("core.decide_self_us_p50", "us", self.decide_self_us_p50),
            Metric::new("core.control_loss_ratio", "ratio", self.control_loss_ratio),
            Metric::new("core.fallback_bai_ratio", "ratio", self.fallback_bai_ratio),
            Metric::new("core.installs_per_bai", "count", self.installs_per_bai),
            Metric::new("core.stale_rejections", "count", self.stale_rejections),
            Metric::new("solver.solve_us_p50", "us", self.solve_us_p50),
            Metric::new("solver.solve_us_p90", "us", self.solve_us_p90),
            Metric::new("solver.solve_share", "ratio", self.solve_share),
            Metric::new("solver.steps_per_solve", "count", self.steps_per_solve),
            Metric::new("solver.warm_hit_ratio", "ratio", self.warm_hit_ratio),
            Metric::new("solver.deferrals_per_bai", "count", self.deferrals_per_bai),
            Metric::new("has.segments_per_run", "count", self.segments_per_run),
            Metric::new("has.stalls_per_run", "count", self.stalls_per_run),
            Metric::new("has.download_ms_mean", "sim_ms", self.download_ms_mean),
            Metric::new("has.rebuffer_s", "sim_s", self.rebuffer_s),
            Metric::new("lte.data_kbps", "kbps", self.data_kbps),
            Metric::new("trace.overhead_ratio", "ratio", self.overhead_ratio),
            Metric::new("trace.unattributed_ratio", "ratio", self.unattributed_ratio),
        ]
    }
}
