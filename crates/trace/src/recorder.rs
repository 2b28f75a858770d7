//! The trace recorder: bounded event ring, one verbosity level and a MAC
//! sampling stride.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flare_sim::Time;

use crate::event::{Category, EventBuilder, TraceEvent, TraceLevel};
use crate::registry::{Registry, RegistrySnapshot};

/// Configuration for a live [`TraceHandle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of events kept in the ring (>= 1); older events are
    /// evicted (and counted in [`TraceHandle::dropped_events`]) once full.
    pub capacity: usize,
    /// Verbosity threshold, the same for every [`Category`].
    pub level: TraceLevel,
    /// Record one MAC `tti` summary per `mac_sample_every` TTIs (>= 1; see
    /// [`TraceHandle::tick`]).
    pub mac_sample_every: u64,
}

impl TraceConfig {
    /// Registry only: no events, but counters/gauges/histograms still
    /// accumulate. This is what `scenarios::runner` attaches when the
    /// caller did not ask for a trace.
    pub fn registry_only() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            level: TraceLevel::Off,
            mac_sample_every: 1,
        }
    }

    /// Info level; MAC TTI summaries sampled 1-in-1000 (one per second of
    /// simulated time) so long runs do not flood the ring.
    pub fn info() -> Self {
        TraceConfig {
            level: TraceLevel::Info,
            mac_sample_every: 1000,
            ..Self::registry_only()
        }
    }

    /// Debug level; MAC sampled 1-in-100.
    pub fn debug() -> Self {
        TraceConfig {
            level: TraceLevel::Debug,
            mac_sample_every: 100,
            ..Self::registry_only()
        }
    }
}

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<TraceEvent>,
    seq: u64,
    dropped: u64,
    mac_ticks: u64,
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
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` or `config.mac_sample_every` is zero.
    pub fn new(config: TraceConfig) -> Self {
        assert!(config.capacity >= 1, "ring capacity must be >= 1");
        assert!(config.mac_sample_every >= 1, "sampling stride must be >= 1");
        TraceHandle {
            inner: Some(Rc::new(Inner {
                state: RefCell::new(RecorderState {
                    ring: VecDeque::with_capacity(config.capacity.min(1 << 12)),
                    seq: 0,
                    dropped: 0,
                    mac_ticks: 0,
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

    /// True if the recorder keeps debug-level events.
    pub fn debug_enabled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.config.level >= TraceLevel::Debug,
            None => false,
        }
    }

    /// Advances the MAC sampling counter and reports whether this TTI is
    /// selected (`true` every `mac_sample_every`-th call, starting with the
    /// first). Returns `false` without counting when events are off, so
    /// sampling depends only on enabled ticks and stays deterministic.
    pub fn tick(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.config.level < TraceLevel::Info {
            return false;
        }
        let mut st = inner.state.borrow_mut();
        let t = st.mac_ticks;
        st.mac_ticks = t + 1;
        t % inner.config.mac_sample_every == 0
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
        if inner.config.level < level {
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
        assert!(!h.tick());
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
        assert!(!h.tick());
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
        let h = TraceHandle::new(TraceConfig {
            mac_sample_every: 3,
            ..TraceConfig::info()
        });
        let picks: Vec<bool> = (0..7).map(|_| h.tick()).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let h = TraceHandle::new(TraceConfig {
            capacity: 3,
            ..TraceConfig::info()
        });
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
