//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a parent and a duration. A span's self time is its
//! duration minus its children's, so the self times of a tree add up to the
//! root's duration: the traced run's wall time. Spans stay in memory until
//! the run ends and are written out as one table.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Identifies an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    started: Instant,
    duration: Duration,
}

/// A span tree.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Spans {
            spans: Vec::with_capacity(n),
        }
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            started: Instant::now(),
            duration: Duration::ZERO,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id.0];
        span.duration = span.started.elapsed();
        span.duration
    }

    /// Adds a closed child of `parent` whose duration was measured inside
    /// the program (the solve time a server reports for its own call).
    pub fn child(&mut self, name: &'static str, parent: SpanId, duration: Duration) {
        let started = self.spans[parent.0].started;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            started,
            duration,
        });
    }

    /// Durations in microseconds of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration.as_secs_f64() * 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p.0] = own[p.0].saturating_sub(s.duration);
            }
        }
        own
    }

    /// Per span name, in first-seen order: `(name, count, total, self)`.
    fn table(&self) -> Vec<(&'static str, usize, Duration, Duration)> {
        let own = self.self_times();
        let mut rows: Vec<(&'static str, usize, Duration, Duration)> = Vec::new();
        for (s, &self_time) in self.spans.iter().zip(&own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.duration;
                    r.3 += self_time;
                }
                None => rows.push((s.name, 1, s.duration, self_time)),
            }
        }
        rows
    }

    /// Total duration of the root spans: the traced wall time.
    pub fn root_total(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration)
            .sum()
    }

    /// Share of the traced wall time that no layer span covers: the self
    /// time of the root spans (the benchmark's own glue between calls).
    pub fn unattributed_ratio(&self) -> f64 {
        let own = self.self_times();
        let root_self: Duration = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, &t)| t)
            .sum();
        crate::stats::ratio(root_self.as_secs_f64(), self.root_total().as_secs_f64())
    }

    /// The span table: count, total and self time, and each name's share of
    /// the wall time. The last line checks that self times add up to it.
    pub fn render(&self, title: &str) -> String {
        let wall = self.root_total().as_secs_f64();
        let mut out = format!(
            "{title}\n{:<22}{:>9}{:>14}{:>14}{:>9}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        );
        let mut self_sum = 0.0;
        for (name, count, total, own) in self.table() {
            self_sum += own.as_secs_f64();
            let _ = writeln!(
                out,
                "{name:<22}{count:>9}{:>14.3}{:>14.3}{:>8.2}%",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3,
                100.0 * crate::stats::ratio(own.as_secs_f64(), wall)
            );
        }
        let _ = writeln!(
            out,
            "self times sum to {:.3} ms of {:.3} ms traced wall time",
            self_sum * 1e3,
            wall * 1e3
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut spans = Spans::default();
        let root = spans.open("run", None);
        let a = spans.open("a", Some(root));
        std::thread::sleep(Duration::from_millis(2));
        spans.close(a);
        spans.child("solve", a, Duration::from_millis(1));
        spans.close(root);
        let table = spans.table();
        let self_sum: Duration = table.iter().map(|r| r.3).sum();
        assert_eq!(self_sum, spans.root_total());
        let a_row = table.iter().find(|r| r.0 == "a").expect("a recorded");
        assert_eq!(a_row.2 - a_row.3, Duration::from_millis(1));
        assert!(spans.unattributed_ratio() < 0.5);
    }
}
