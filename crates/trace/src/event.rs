//! Structured trace events: categories, levels, values, and the builder.

use std::fmt;

/// The subsystem a trace event belongs to.
///
/// Every event carries its category in the export, so a trace can be
/// filtered per subsystem after the fact. Recording uses one
/// [`TraceLevel`](crate::TraceLevel) for all categories and samples only the
/// per-TTI MAC summaries, so a run records every solver round while the
/// MAC does not flood the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// eNodeB MAC layer: TTI scheduling rounds and per-UE RB/TBS grants.
    Mac,
    /// OneAPI server: BAI solve rounds, per-flow assignments, evictions.
    Solver,
    /// Control plane: message lifecycle (sent/dropped/lost to an outage).
    Control,
    /// Client plugin: assignment installs, stale rejections, fallback mode.
    Plugin,
    /// HAS player: segment requests, completed downloads, stalls.
    Player,
    /// Rate enforcement at the eNodeB: GBR settings, lease grants/expiries.
    Enforce,
    /// Runtime invariant checking: one event per detected violation of the
    /// paper's feasibility constraints (RB conservation, (4a)/(4b), buffer
    /// non-negativity, monotone installs).
    Invariant,
}

/// All categories, in canonical order.
const ALL_CATEGORIES: [Category; 7] = [
    Category::Mac,
    Category::Solver,
    Category::Control,
    Category::Plugin,
    Category::Player,
    Category::Enforce,
    Category::Invariant,
];

impl Category {
    /// Short lowercase name used in exports (`"mac"`, `"solver"`, ...).
    pub const fn as_str(self) -> &'static str {
        match self {
            Category::Mac => "mac",
            Category::Solver => "solver",
            Category::Control => "control",
            Category::Plugin => "plugin",
            Category::Player => "player",
            Category::Enforce => "enforce",
            Category::Invariant => "invariant",
        }
    }

    /// Parses the short name produced by [`Category::as_str`].
    pub fn parse(s: &str) -> Option<Category> {
        ALL_CATEGORIES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Verbosity threshold of a recorder.
///
/// `Off < Info < Debug`: a recorder set to `Info` records info-level events
/// and drops debug-level ones; `Off` records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// Record no events.
    Off,
    /// Record summary events only (one per BAI / per sampled TTI).
    Info,
    /// Record everything, including per-grant and per-message detail.
    Debug,
}

/// A typed field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices, milliseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Finite floating-point number (rates, objectives).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (mode names, link labels).
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => f.write_str(&crate::export::fmt_f64(*v)),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

/// One recorded trace event.
///
/// Events are totally ordered by `(time_ms, seq)`: `seq` is a global
/// monotonically increasing counter assigned at record time, so events at the
/// same simulation instant keep their emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event, in milliseconds (never wall clock).
    pub time_ms: u64,
    /// Global record sequence number (ties within one `time_ms`).
    pub seq: u64,
    /// Subsystem that emitted the event.
    pub category: Category,
    /// Event name, unique within its category (e.g. `"solve"`, `"grant"`).
    pub name: String,
    /// Ordered key/value payload; insertion order is preserved in exports.
    pub fields: Vec<(String, Value)>,
}

impl TraceEvent {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Returns a `u64` field, coercing from `I64` when non-negative.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Returns a numeric field as `f64` (from `U64`, `I64`, or `F64`).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns a boolean field.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns a string field.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

/// Chaining builder used inside [`TraceHandle::record`] closures.
///
/// ```
/// use flare_trace::{Category, TraceHandle, TraceLevel};
/// use flare_sim::Time;
///
/// let trace = TraceHandle::new(TraceLevel::Info);
/// trace.record(Time::from_secs(10), Category::Solver, "solve", |e| {
///     e.u64("clients", 8).f64("r", 0.42).str("mode", "exact");
/// });
/// assert_eq!(trace.event_count(), 1);
/// ```
///
/// [`TraceHandle::record`]: crate::TraceHandle::record
#[derive(Debug, Default)]
pub struct EventBuilder {
    pub(crate) fields: Vec<(String, Value)>,
}

impl EventBuilder {
    /// Field names claimed by the JSONL envelope; custom fields must not
    /// shadow them or the export would carry duplicate JSON keys.
    pub const RESERVED_KEYS: [&'static str; 4] = ["t", "seq", "cat", "ev"];

    fn push(&mut self, key: &str, v: Value) {
        debug_assert!(
            !Self::RESERVED_KEYS.contains(&key),
            "trace field {key:?} shadows a reserved JSONL key"
        );
        self.fields.push((key.to_string(), v));
    }

    /// Attaches an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.push(key, Value::U64(v));
        self
    }

    /// Attaches a signed integer field.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        self.push(key, Value::I64(v));
        self
    }

    /// Attaches a floating-point field.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not finite: JSON has no encoding for
    /// NaN/infinity, and non-finite payloads would break the byte-identical
    /// round-trip guarantee. Guard at the call site (e.g. skip the field or
    /// record a boolean instead).
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        debug_assert!(v.is_finite(), "trace field {key:?} is not finite: {v}");
        let v = if v.is_finite() { v } else { 0.0 };
        self.push(key, Value::F64(v));
        self
    }

    /// Attaches a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.push(key, Value::Bool(v));
        self
    }

    /// Attaches a string field.
    pub fn str(&mut self, key: &str, v: impl Into<String>) -> &mut Self {
        self.push(key, Value::Str(v.into()));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_roundtrip() {
        for c in ALL_CATEGORIES {
            assert_eq!(Category::parse(c.as_str()), Some(c));
        }
        assert_eq!(Category::parse("bogus"), None);
    }

    #[test]
    fn level_ordering() {
        assert!(TraceLevel::Off < TraceLevel::Info);
        assert!(TraceLevel::Info < TraceLevel::Debug);
    }

    #[test]
    fn field_accessors() {
        let mut b = EventBuilder::default();
        b.u64("n", 3)
            .i64("d", -2)
            .f64("x", 1.5)
            .bool("ok", true)
            .str("mode", "exact");
        let ev = TraceEvent {
            time_ms: 10,
            seq: 0,
            category: Category::Solver,
            name: "solve".into(),
            fields: b.fields,
        };
        assert_eq!(ev.u64_field("n"), Some(3));
        assert_eq!(ev.f64_field("d"), Some(-2.0));
        assert_eq!(ev.f64_field("x"), Some(1.5));
        assert_eq!(ev.bool_field("ok"), Some(true));
        assert_eq!(ev.str_field("mode"), Some("exact"));
        assert_eq!(ev.field("missing"), None);
    }
}
