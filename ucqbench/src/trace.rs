//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one request hang off one root. Nothing is written while a run
//! measures: [`Tracer::summary`] folds the spans after the run ends. A
//! disabled tracer never reads the clock, so untraced runs pay one branch
//! per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span (`None` when the tracer is off).
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    parent: SpanId,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = Instant::now();
        }
    }

    /// Records a finished span from timestamps the caller already took.
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is a
    /// span's duration minus the part its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.duration_since(s.start).as_nanos();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end.duration_since(s.start).as_nanos();
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Prints [`Tracer::summary`], one line per span name.
    pub fn print_summary(&self, label: &str) {
        for (name, (n, total, own)) in self.summary() {
            println!("span[{label}] {name:<28} n={n:<7} total_ms={total:<12.3} self_ms={own:.3}");
        }
    }
}
