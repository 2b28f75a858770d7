//! The trace recorder: bounded event ring + per-category levels/sampling.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flare_sim::Time;

use crate::event::{Category, EventBuilder, TraceEvent, TraceLevel, CATEGORY_COUNT};
use crate::registry::{Registry, RegistrySnapshot};

/// Per-category recording configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryConfig {
    /// Verbosity threshold for this category.
    pub level: TraceLevel,
    /// Record only every N-th sampled tick (see [`TraceHandle::tick`]).
    ///
    /// Only the MAC layer consults this today (one `tti` summary per
    /// `sample_every` TTIs); categories that never call `tick` ignore it.
    pub sample_every: u64,
}

impl Default for CategoryConfig {
    fn default() -> Self {
        CategoryConfig {
            level: TraceLevel::Off,
            sample_every: 1,
        }
    }
}

/// Configuration for a live [`TraceHandle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of events kept in the ring; older events are evicted
    /// (and counted in [`TraceHandle::dropped_events`]) once full.
    pub capacity: usize,
    /// Per-category levels and sampling, indexed by [`Category::index`].
    pub categories: [CategoryConfig; CATEGORY_COUNT],
}

impl TraceConfig {
    /// Registry only: all event categories off, but counters/gauges/
    /// histograms still accumulate. This is what `scenarios::runner`
    /// attaches when the caller did not ask for a trace.
    pub fn registry_only() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            categories: [CategoryConfig::default(); CATEGORY_COUNT],
        }
    }

    /// Info level everywhere; MAC TTI summaries sampled 1-in-1000 (one per
    /// second of simulated time) so long runs do not flood the ring.
    pub fn info() -> Self {
        Self::registry_only()
            .with_level(TraceLevel::Info)
            .with_sampling(Category::Mac, 1000)
    }

    /// Debug level everywhere; MAC sampled 1-in-100.
    pub fn debug() -> Self {
        Self::registry_only()
            .with_level(TraceLevel::Debug)
            .with_sampling(Category::Mac, 100)
    }

    /// Sets every category to `level`.
    pub fn with_level(mut self, level: TraceLevel) -> Self {
        for c in &mut self.categories {
            c.level = level;
        }
        self
    }

    /// Sets one category's level.
    pub fn with_category(mut self, cat: Category, level: TraceLevel) -> Self {
        self.categories[cat.index()].level = level;
        self
    }

    /// Sets one category's sampling stride (must be >= 1).
    pub fn with_sampling(mut self, cat: Category, every: u64) -> Self {
        assert!(every >= 1, "sampling stride must be >= 1");
        self.categories[cat.index()].sample_every = every;
        self
    }

    /// Sets the ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be >= 1");
        self.capacity = capacity;
        self
    }
}

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<TraceEvent>,
    seq: u64,
    dropped: u64,
    ticks: [u64; CATEGORY_COUNT],
}

#[derive(Debug)]
struct Inner {
    config: TraceConfig,
    state: RefCell<RecorderState>,
    registry: Registry,
}

/// Cheap, cloneable handle to a shared trace recorder.
///
/// A handle is either *attached* to a recorder (all clones share the same
/// ring and registry via `Rc`) or *disabled* ([`TraceHandle::disabled`], the
/// `Default`), in which case every method is a near-no-op: one `Option`
/// discriminant check, no allocation, no interior mutability traffic. The
/// instrumented hot paths (TTI loop, solver) rely on this — see the
/// workspace's `tests/alloc.rs`.
///
/// Determinism: events carry simulation [`Time`] and a record-order sequence
/// number only. Wall-clock durations (through [`TraceHandle::observe`]) go
/// exclusively into the registry, never into events, so the same seed
/// always produces a byte-identical JSONL trace.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Rc<Inner>>,
}

impl TraceHandle {
    /// A permanently disabled handle; records nothing, costs ~nothing.
    pub fn disabled() -> Self {
        TraceHandle { inner: None }
    }

    /// Creates a live recorder with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        TraceHandle {
            inner: Some(Rc::new(Inner {
                state: RefCell::new(RecorderState {
                    ring: VecDeque::with_capacity(config.capacity.min(1 << 12)),
                    seq: 0,
                    dropped: 0,
                    ticks: [0; CATEGORY_COUNT],
                }),
                config,
                registry: Registry::default(),
            })),
        }
    }

    /// A recorder that keeps metrics but records no events.
    pub fn registry_only() -> Self {
        Self::new(TraceConfig::registry_only())
    }

    /// True if this handle is attached to a recorder (even a registry-only
    /// one); false for [`TraceHandle::disabled`].
    pub fn is_attached(&self) -> bool {
        self.inner.is_some()
    }

    /// True if `cat` records info-level events.
    pub fn enabled(&self, cat: Category) -> bool {
        match &self.inner {
            Some(inner) => inner.config.categories[cat.index()].level >= TraceLevel::Info,
            None => false,
        }
    }

    /// True if `cat` records debug-level events.
    pub fn debug_enabled(&self, cat: Category) -> bool {
        match &self.inner {
            Some(inner) => inner.config.categories[cat.index()].level >= TraceLevel::Debug,
            None => false,
        }
    }

    /// Advances `cat`'s sampling counter and reports whether this tick is
    /// selected (`true` every `sample_every`-th call, starting with the
    /// first). Returns `false` without counting when the category is off, so
    /// sampling depends only on enabled ticks and stays deterministic.
    pub fn tick(&self, cat: Category) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let cfg = inner.config.categories[cat.index()];
        if cfg.level < TraceLevel::Info {
            return false;
        }
        let mut st = inner.state.borrow_mut();
        let t = st.ticks[cat.index()];
        st.ticks[cat.index()] = t + 1;
        t % cfg.sample_every == 0
    }

    /// Records an info-level event; `build` attaches the payload.
    ///
    /// The closure only runs when the category is enabled, so field
    /// formatting costs nothing on disabled handles.
    pub fn record<F>(&self, now: Time, cat: Category, name: &str, build: F)
    where
        F: FnOnce(&mut EventBuilder),
    {
        self.record_at(TraceLevel::Info, now, cat, name, build);
    }

    /// Records a debug-level event (per-grant / per-message detail).
    pub fn record_debug<F>(&self, now: Time, cat: Category, name: &str, build: F)
    where
        F: FnOnce(&mut EventBuilder),
    {
        self.record_at(TraceLevel::Debug, now, cat, name, build);
    }

    fn record_at<F>(&self, level: TraceLevel, now: Time, cat: Category, name: &str, build: F)
    where
        F: FnOnce(&mut EventBuilder),
    {
        let Some(inner) = &self.inner else { return };
        if inner.config.categories[cat.index()].level < level {
            return;
        }
        let mut builder = EventBuilder::default();
        build(&mut builder);
        let mut st = inner.state.borrow_mut();
        let seq = st.seq;
        st.seq += 1;
        st.ring.push_back(TraceEvent {
            time_ms: now.as_millis(),
            seq,
            category: cat,
            name: name.to_string(),
            fields: builder.fields,
        });
        if st.ring.len() > inner.config.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
    }

    /// Increments a registry counter.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.incr(name, by);
        }
    }

    /// Sets a registry gauge (last write wins).
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name, v);
        }
    }

    /// Adds an observation to a registry histogram.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, v);
        }
    }

    /// Copies out all buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.state.borrow().ring.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Number of events currently buffered.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.state.borrow().ring.len(),
            None => 0,
        }
    }

    /// Number of events evicted from the ring because it was full.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.borrow().dropped,
            None => 0,
        }
    }

    /// Snapshot of the metrics registry (empty for disabled handles).
    pub fn snapshot(&self) -> RegistrySnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => RegistrySnapshot::default(),
        }
    }

    /// Exports all buffered events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        crate::export::to_jsonl(&self.events())
    }

    /// Exports all buffered events as CSV (header + one row per event).
    pub fn to_csv(&self) -> String {
        crate::export::to_csv(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        h.record(t(1), Category::Mac, "tti", |e| {
            e.u64("rbs", 50);
        });
        h.incr("c", 1);
        h.observe("h", 1.0);
        assert!(!h.is_attached());
        assert!(!h.tick(Category::Mac));
        assert_eq!(h.event_count(), 0);
        assert!(h.snapshot().is_empty());
        assert_eq!(h.to_jsonl(), "");
    }

    #[test]
    fn registry_only_keeps_metrics_but_no_events() {
        let h = TraceHandle::registry_only();
        h.record(t(1), Category::Solver, "solve", |e| {
            e.u64("clients", 4);
        });
        h.incr("solver.solves", 1);
        assert!(h.is_attached());
        assert!(!h.enabled(Category::Solver));
        assert_eq!(h.event_count(), 0);
        assert_eq!(h.snapshot().counter("solver.solves"), 1);
    }

    #[test]
    fn levels_gate_debug_events() {
        let h = TraceHandle::new(TraceConfig::info());
        h.record(t(1), Category::Control, "drop", |_| {});
        h.record_debug(t(1), Category::Control, "sent", |_| {});
        assert_eq!(h.event_count(), 1);
        let h = TraceHandle::new(TraceConfig::debug());
        h.record_debug(t(1), Category::Control, "sent", |_| {});
        assert_eq!(h.event_count(), 1);
    }

    #[test]
    fn sampling_selects_every_nth_tick() {
        let h = TraceHandle::new(TraceConfig::info().with_sampling(Category::Mac, 3));
        let picks: Vec<bool> = (0..7).map(|_| h.tick(Category::Mac)).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let h = TraceHandle::new(TraceConfig::info().with_capacity(3));
        for i in 0..5u64 {
            h.record(t(i), Category::Player, "request", |e| {
                e.u64("segment", i);
            });
        }
        assert_eq!(h.event_count(), 3);
        assert_eq!(h.dropped_events(), 2);
        let evs = h.events();
        assert_eq!(evs[0].u64_field("segment"), Some(2));
        assert_eq!(evs[2].u64_field("segment"), Some(4));
        // seq keeps counting across evictions
        assert_eq!(evs[2].seq, 4);
    }

    #[test]
    fn clones_share_the_recorder() {
        let h = TraceHandle::new(TraceConfig::info());
        let h2 = h.clone();
        h2.record(t(5), Category::Plugin, "install", |e| {
            e.u64("ue", 0);
        });
        h2.incr("plugin.installs", 1);
        assert_eq!(h.event_count(), 1);
        assert_eq!(h.snapshot().counter("plugin.installs"), 1);
    }
}
