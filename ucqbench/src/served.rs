//! `served_pages`: the Example 2 union frozen once in set-up and served
//! through `ucq_serve::serve`. One generator thread keeps two requests in
//! flight, each capped at one page of answers. Preprocessing sits in
//! `setup_s`, so each operation costs a stream start, Cheater's first
//! pumps, decoding one page, and the pool hand-off.

use crate::data;
use crate::measure::{drain, ms, E2e, Ledger, PAGE, SLICES};
use crate::trace::Tracer;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use ucq_core::{EvalError, FrozenSession, UcqEngine};
use ucq_query::Ucq;
use ucq_serve::{
    serve, QueryBudget, Request, RequestOutcome, ServeConfig, ServeStats, Ticket, Truncation,
};
use ucq_storage::Tuple;

pub const ROWS: usize = 32_000;
/// Requests the generator keeps in flight.
pub const OUTSTANDING: usize = 2;

/// Pool workers: the generator thread takes one of the host's threads.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

pub fn page_budget() -> QueryBudget {
    QueryBudget::unlimited().with_max_answers(PAGE)
}

/// Whether a served page is `PAGE` distinct answers, all in `oracle`.
fn check_page(answers: &[Tuple], oracle: &HashSet<Tuple>) -> Result<(), String> {
    if answers.len() != PAGE {
        return Err(format!("page of {} answers, want {PAGE}", answers.len()));
    }
    let distinct: HashSet<&Tuple> = answers.iter().collect();
    if distinct.len() != answers.len() {
        return Err(format!(
            "page repeats {} answers",
            answers.len() - distinct.len()
        ));
    }
    match answers.iter().find(|t| !oracle.contains(*t)) {
        Some(t) => Err(format!("page answer {t:?} is not an answer")),
        None => Ok(()),
    }
}

/// Polls `ticket` until its reply lands. The generator spins rather than
/// sleeping on the reply's condition variable, so a latency sample ends
/// when the worker delivers, not when the client thread is woken again;
/// the pause between polls keeps it off the slot's lock most of the time.
pub fn await_reply(ticket: Ticket) -> RequestOutcome {
    loop {
        if let Some(outcome) = ticket.try_take() {
            return outcome;
        }
        for _ in 0..32 {
            std::hint::spin_loop();
        }
    }
}

/// When a page loop stops submitting.
pub enum Until {
    Seconds(f64),
    Pages(usize),
}

/// What a closed loop of page requests saw.
#[derive(Default)]
pub struct PageLoop {
    pub latency_ms: Vec<f64>,
    /// Admission-queue depth just before each submit (traced runs only).
    pub depth_at_submit: Vec<usize>,
    pub phase_s: f64,
    pub stats: ServeStats,
    pub ledger: Ledger,
}

/// Serves page requests against `frozen`, `outstanding` at a time, and
/// checks every page against `oracle` once its reply is in.
pub fn page_loop(
    frozen: &Arc<FrozenSession<'_>>,
    oracle: &HashSet<Tuple>,
    until: Until,
    outstanding: usize,
    tr: &mut Tracer,
) -> PageLoop {
    let config = ServeConfig::new(workers(), outstanding + 2).expect("positive pool shape");
    let mut out = PageLoop::default();
    let traced = tr.is_enabled();
    // Streams are deterministic, so pages usually repeat: one equal to a
    // page that already passed the full check passes too.
    let mut verified: Vec<Tuple> = Vec::new();
    let t0 = Instant::now();
    let ((), stats) = serve(config, |handle| {
        let mut submitted = 0usize;
        let mut in_flight = VecDeque::with_capacity(outstanding);
        loop {
            let more = match until {
                Until::Seconds(s) => t0.elapsed().as_secs_f64() < s,
                Until::Pages(n) => submitted < n,
            };
            if more && in_flight.len() < outstanding {
                if traced {
                    out.depth_at_submit.push(handle.queue_depth());
                }
                let span = tr.open("serve.page", None);
                let at = Instant::now();
                let request = Request::new(Arc::clone(frozen)).with_budget(page_budget());
                submitted += 1;
                match handle.submit(request) {
                    Ok(ticket) => in_flight.push_back((at, span, ticket)),
                    Err(e) => out.ledger.check(false, || format!("page refused: {e}")),
                }
                continue;
            }
            let Some((at, span, ticket)) = in_flight.pop_front() else {
                break;
            };
            let outcome = await_reply(ticket);
            out.latency_ms.push(ms(at.elapsed()));
            tr.close(span);
            let verdict = match outcome {
                Ok(served) if served.truncation() == Some(Truncation::Deadline) => {
                    Err("page timed out".to_string())
                }
                Ok(served) if !verified.is_empty() && served.answers() == verified.as_slice() => {
                    Ok(())
                }
                Ok(served) => check_page(served.answers(), oracle).map(|()| {
                    verified = served.into_answers();
                }),
                Err(e) => Err(format!("page failed: {e}")),
            };
            out.ledger.check(verdict.is_ok(), || verdict.unwrap_err());
        }
    });
    out.phase_s = t0.elapsed().as_secs_f64();
    out.ledger.check(stats.is_balanced(), || {
        format!("serve ledger unbalanced: {stats:?}")
    });
    out.stats = stats;
    out
}

/// One set-up, timed: instance generation, classification, then freezing
/// a prepared session and starting a stream. Returns the set-up and, of
/// it, the preprocessing (freeze + first `enumerate()`), in seconds.
fn setup(ucq: &Ucq, seed: u64) -> Result<(f64, f64), EvalError> {
    let t = Instant::now();
    let inst = data::instance(ucq, ROWS, seed);
    let engine = UcqEngine::new(ucq.clone());
    let t1 = Instant::now();
    let frozen = engine.session(&inst).freeze()?;
    drop(frozen.enumerate()?);
    let end = Instant::now();
    Ok(((end - t).as_secs_f64(), (end - t1).as_secs_f64()))
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<E2e, EvalError> {
    let ucq = data::example2();
    let mut e = E2e::default();
    let inst = data::instance(&ucq, ROWS, seed);
    let engine = UcqEngine::new(ucq.clone());
    let frozen = Arc::new(engine.session(&inst).freeze()?);
    let oracle: HashSet<Tuple> = engine.enumerate_naive(&inst)?.into_iter().collect();

    // The timed phase in slices; each opens with one set-up and one full
    // drain, so their medians sample the whole run like the pages do.
    for _ in 0..SLICES {
        let (setup_s, prep_s) = setup(&ucq, seed)?;
        e.setup_s.push(setup_s);
        e.prep_ms.push(prep_s * 1e3);

        let t = Instant::now();
        let mut answers = frozen.enumerate()?;
        let got = drain(&mut answers, t, tr, None);
        e.drain_ms.push(ms(got.end - t));
        e.gap_p99_us.extend(got.gap_p99_us);
        e.ledger.check(got.answers == oracle.len(), || {
            format!(
                "served_pages: full drain gave {} answers, oracle has {}",
                got.answers,
                oracle.len()
            )
        });

        let pages = page_loop(
            &frozen,
            &oracle,
            Until::Seconds(seconds / SLICES as f64),
            OUTSTANDING,
            tr,
        );
        e.op_ms.extend(pages.latency_ms);
        e.phase_s += pages.phase_s;
        e.ledger.absorb(pages.ledger);
    }
    Ok(e)
}
