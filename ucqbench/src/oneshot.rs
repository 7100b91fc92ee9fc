//! `union_oneshot`: one closed-loop client answers the Example 2 union in
//! full, from scratch, per operation — session, `enumerate()`, then a drain
//! of every answer as a `Tuple`. Every preprocessing layer (intern, plan,
//! Lemma 8, CDY build) and both enumeration layers (Cheater dedup/pacing,
//! decode) do their most work here; there is no pool and no ingest.

use crate::data;
use crate::measure::{drain, ms, sorted, E2e, SLICES};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use ucq_core::{EvalError, UcqEngine};
use ucq_enumerate::Enumerator;
use ucq_query::Ucq;

pub const ROWS: usize = 32_000;

/// One set-up, timed: instance generation, classification, and a first
/// session's preprocessing.
fn setup(ucq: &Ucq, seed: u64) -> Result<f64, EvalError> {
    let t = Instant::now();
    let inst = data::instance(ucq, ROWS, seed);
    let engine = UcqEngine::new(ucq.clone());
    black_box(engine.session(&inst).enumerate()?);
    Ok(t.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<E2e, EvalError> {
    let ucq = data::example2();
    let mut e = E2e::default();
    let inst = data::instance(&ucq, ROWS, seed);
    let engine = UcqEngine::new(ucq.clone());
    let mut oracle = sorted(engine.enumerate_naive(&inst)?);
    oracle.dedup();
    let want = oracle.len();

    // The timed phase in slices, each opened by one set-up, so the set-up
    // median samples the whole run like the operations do. Every slice
    // runs at least one operation.
    let per_slice = seconds / SLICES as f64;
    for _ in 0..SLICES {
        e.setup_s.push(setup(&ucq, seed)?);
        let slice = Instant::now();
        loop {
            let root = tr.open("op", None);
            let t0 = Instant::now();
            let prep = tr.open("core.prep", root);
            let session = engine.session(&inst);
            let mut answers = session.enumerate()?;
            tr.close(prep);
            let t1 = Instant::now();
            let d = tr.open("enumerate.drain", root);
            let got = drain(&mut answers, t1, tr, d);
            tr.close(d);
            drop(answers);
            drop(session);
            let t2 = Instant::now();
            tr.close(root);
            e.op_ms.push(ms(t2 - t0));
            e.prep_ms.push(ms(t1 - t0));
            e.drain_ms.push(ms(got.end - t1));
            e.gap_p99_us.extend(got.gap_p99_us);
            e.ledger.check(got.answers == want, || {
                format!("union_oneshot: {} answers, oracle has {want}", got.answers)
            });
            if slice.elapsed().as_secs_f64() >= per_slice {
                break;
            }
        }
    }
    e.phase_s = e.op_ms.iter().sum::<f64>() / 1e3;

    // The answer set itself, once per run, outside every timer.
    let full = sorted(engine.session(&inst).enumerate()?.collect_all());
    e.ledger.check(full == oracle, || {
        format!(
            "union_oneshot: answer set ({} rows) differs from enumerate_naive ({want} distinct)",
            full.len()
        )
    });
    Ok(e)
}
