//! Regression test: the per-TTI hot path must be allocation-free once the
//! cell's scratch buffers have warmed up.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! period that lets every reused buffer (TTI flow states, grants, delivered
//! results, scheduler scratch, PF averages) reach its steady-state capacity,
//! ten thousand further TTIs must perform exactly zero heap operations.
//!
//! This test runs with `harness = false` (see the `[[test]]` entry in
//! Cargo.toml) so the process is truly single-threaded: libtest's harness
//! threads allocate at unpredictable times and would otherwise perturb the
//! global counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flare_core::FlareConfig;
use flare_lte::channel::{StaticChannel, TriangleWave};
use flare_lte::mobility::MobilityConfig;
use flare_lte::scheduler::{
    MacScheduler, PrioritySetScheduler, ProportionalFair, RoundRobin, StrictGbrPartition,
    TwoPhaseGbr,
};
use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
use flare_scenarios::cell::cell_config;
use flare_scenarios::{CellSim, ChannelKind, SchemeKind, SimConfig};
use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta};

struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A loaded cell: four GBR video flows (two on moving channels, so the
/// iTbs→bits-per-RB cache is exercised through invalidations) and four
/// greedy data flows keeping every scheduler phase busy.
fn build_cell(scheduler: Box<dyn MacScheduler>) -> (ENodeB, Vec<flare_lte::FlowId>) {
    let mut enb = ENodeB::new(CellConfig::default(), scheduler);
    let mut videos = Vec::new();
    for i in 0..4u8 {
        let f = if i % 2 == 0 {
            enb.add_flow(
                FlowClass::Video,
                Box::new(StaticChannel::new(Itbs::new(6 + i))),
            )
        } else {
            enb.add_flow(
                FlowClass::Video,
                Box::new(TriangleWave::new(
                    Itbs::new(2),
                    Itbs::new(12 + i),
                    TimeDelta::from_millis(400),
                    TimeDelta::from_millis(u64::from(i) * 50),
                )),
            )
        };
        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
        enb.push_backlog(f, ByteCount::new(4_000_000));
        videos.push(f);
    }
    for i in 0..4u8 {
        enb.add_flow(
            FlowClass::Data,
            Box::new(StaticChannel::new(Itbs::new(4 + i))),
        );
    }
    (enb, videos)
}

fn main() {
    let schedulers: Vec<(&str, Box<dyn MacScheduler>)> = vec![
        ("pf", Box::new(ProportionalFair::default())),
        ("two-phase-gbr", Box::new(TwoPhaseGbr::default())),
        ("priority-set", Box::new(PrioritySetScheduler::default())),
        (
            "strict-gbr-partition",
            Box::new(StrictGbrPartition::default()),
        ),
        ("round-robin", Box::new(RoundRobin::new())),
    ];
    for (name, scheduler) in schedulers {
        let (mut enb, videos) = build_cell(scheduler);

        // Warm-up: let every scratch buffer reach steady-state capacity.
        for ms in 0..200u64 {
            let _ = enb.step_tti(Time::from_millis(ms));
        }

        let before = ALLOC_OPS.load(Ordering::Relaxed);
        let mut delivered_ttis = 0u64;
        for ms in 200..10_200u64 {
            delivered_ttis += u64::from(!enb.step_tti(Time::from_millis(ms)).is_empty());
            // Keep the video queues fed mid-measurement: ByteCount addition
            // on an existing backlog is part of the alloc-free contract.
            if ms % 1000 == 0 {
                for &f in &videos {
                    enb.push_backlog(f, ByteCount::new(500_000));
                }
            }
        }
        let ops = ALLOC_OPS.load(Ordering::Relaxed) - before;
        assert!(
            delivered_ttis > 9_000,
            "[{name}] cell went idle mid-measurement: {delivered_ttis} busy TTIs"
        );
        assert_eq!(
            ops, 0,
            "[{name}] hot path performed {ops} allocator operations over 10k TTIs"
        );
        println!("[{name}] 10k TTIs, 0 allocator operations ... ok");
    }

    // The stepper's steady-state contract (DESIGN.md §11): once a cell's
    // stepper has warmed up, a full window between BAI boundaries
    // (`CellStepper::advance_to_bai`) performs zero allocator operations.
    // Setup and BAI boundaries (solves, assignment installs, control
    // messages) may allocate; per-TTI stepping may not. `CellSim::run` and
    // the benchmark's traced run drive exactly this path. The gates cover
    // the video-only cell, the loaded fig. 10 mix, and requests delayed in
    // transport.
    let stepper_cell = |n_data: usize, jitter_ms: u64| {
        let mut config = cell_config(
            SchemeKind::Flare(FlareConfig::default()),
            ChannelKind::StationaryRandom(MobilityConfig::default()),
            8,
            n_data,
            1,
            TimeDelta::from_secs(40),
        );
        config.request_jitter = TimeDelta::from_millis(jitter_ms);
        config
    };
    stepper_gate("8 video + 0 data", stepper_cell(0, 0));
    stepper_gate("8 video + 8 data", stepper_cell(8, 0));
    stepper_gate(
        "8 video + 8 data, 50 ms request jitter",
        stepper_cell(8, 50),
    );
}

/// Asserts that one warmed BAI window of `config`'s stepper performs zero
/// allocator operations.
fn stepper_gate(name: &str, config: SimConfig) {
    let mut stepper = CellSim::new(config).into_stepper();
    for _ in 0..3 {
        stepper.advance_to_bai().expect("warm-up window");
        stepper.bai_boundary();
    }
    let before = ALLOC_OPS.load(Ordering::Relaxed);
    let boundary = stepper.advance_to_bai();
    let ops = ALLOC_OPS.load(Ordering::Relaxed) - before;
    assert!(
        boundary.is_some(),
        "[stepper, {name}] measurement window must close a BAI"
    );
    assert_eq!(
        ops, 0,
        "[stepper, {name}] one BAI window performed {ops} allocator operations"
    );
    println!("[stepper, {name}] one 10 s BAI window (10k TTIs), 0 allocator operations ... ok");
}
