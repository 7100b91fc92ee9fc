//! What every workload records: the failure ledger, the timed drain, and
//! the end-to-end samples that become the reported metrics.

use crate::report::Metric;
use crate::stats::{iq_mean, median, quantile, tail};
use crate::trace::{SpanId, Tracer};
use std::hint::black_box;
use std::time::{Duration, Instant};
use ucq_enumerate::{Enumerator, DEFAULT_BLOCK_ROWS};
use ucq_storage::Tuple;

/// Answers per timed block: the gap metric is the time the client waits
/// between successive blocks of this many answers.
pub const BLOCK: usize = DEFAULT_BLOCK_ROWS;

/// Answers per served page.
pub const PAGE: usize = 1000;

/// Slices of a timed phase. Each slice opens with one timed set-up (and,
/// on served_pages, one full drain), so those medians sample the whole run
/// as the operations do, and a slow stretch of the host moves them alike.
pub const SLICES: usize = 20;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Operations attempted and failed; a failure is a refused, panicked,
/// erroring or timed-out request or a wrong answer.
#[derive(Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failed: usize,
    failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }

    pub fn print_failures(&self) {
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }
}

/// One full drain, as the client saw it.
pub struct Drained {
    pub answers: usize,
    pub end: Instant,
    /// p99 of the gaps between successive [`BLOCK`]s (`None` when the
    /// stream is shorter than one block).
    pub gap_p99_us: Option<f64>,
}

/// Pulls every answer of `answers` as a [`Tuple`], stamping the end of each
/// [`BLOCK`]; a gap runs from the previous stamp, or from `start`.
pub fn drain(
    answers: &mut impl Enumerator,
    start: Instant,
    tr: &mut Tracer,
    parent: SpanId,
) -> Drained {
    let mut n = 0usize;
    let mut last = start;
    let mut gaps_us = Vec::new();
    while let Some(t) = answers.next() {
        black_box::<Tuple>(t);
        n += 1;
        if n.is_multiple_of(BLOCK) {
            let now = Instant::now();
            gaps_us.push(us(now - last));
            tr.record("enumerate.block", parent, last, now);
            last = now;
        }
    }
    Drained {
        answers: n,
        end: Instant::now(),
        gap_p99_us: (!gaps_us.is_empty()).then(|| quantile(&gaps_us, 0.99)),
    }
}

/// The raw end-to-end samples of one run of one workload.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Seconds the timed operations took, for `ops_per_s`.
    pub phase_s: f64,
    pub prep_ms: Vec<f64>,
    pub drain_ms: Vec<f64>,
    /// Per full drain, the p99 gap between answer blocks.
    pub gap_p99_us: Vec<f64>,
    pub ledger: Ledger,
}

impl E2e {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("op_p50_ms", median(&self.op_ms), "ms"),
            Metric::new("op_tail_ms", tail(&self.op_ms).value, "ms"),
            Metric::new("ops_per_s", self.op_ms.len() as f64 / self.phase_s, "1/s"),
            Metric::new("prep_ms", median(&self.prep_ms), "ms"),
            // Interquartile means, not medians: a fresh session's memory
            // layout can make its drains all fast or all slow, and a median
            // over such a mix jumps between the two; the trim still drops
            // drains a host stall hit.
            Metric::new("drain_ms", iq_mean(&self.drain_ms), "ms"),
            Metric::new("gap_p99_us", iq_mean(&self.gap_p99_us), "us"),
        ]
    }

    /// Sample counts and the tail percentile behind the metrics.
    pub fn describe(&self) -> String {
        let op = tail(&self.op_ms);
        format!(
            "ops={} op_tail=p{:.1} (median of {} windows) | setups={} preps={} drains={} | failed_frac={}",
            op.samples,
            op.percentile,
            op.windows,
            self.setup_s.len(),
            self.prep_ms.len(),
            self.drain_ms.len(),
            self.ledger.failed as f64 / self.ledger.attempted.max(1) as f64,
        )
    }
}

/// Sorted copy of a stream's answers (set comparison by sorted equality
/// also catches duplicates).
pub fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort_unstable();
    v
}
