//! The traced run's ingest chain: the Example 2 union served from an epoch
//! cell while its relation `R1` churns. Each round submits a batch of page
//! reads, then — with those reads in flight — inserts a 1% delta of fresh
//! values, refreezes, and installs the next epoch, then collects the reads.
//! The chain starts from a fresh frozen session and runs a fixed number of
//! rounds, because cost drifts as the dictionary grows.

use crate::data::Deltas;
use crate::measure::{ms, sorted, Ledger};
use crate::served::{await_reply, page_budget, workers};
use crate::trace::Tracer;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use ucq_core::{EvalError, PlannerStats, UcqEngine};
use ucq_enumerate::Enumerator;
use ucq_serve::{serve, EpochCell, Request, RequestOutcome, ServeConfig, Truncation};
use ucq_storage::{IngestStats, Instance, Tuple};

/// The relation the deltas go into.
const CHURN: &str = "R1";
const ROUNDS: usize = 16;
/// Page reads in flight beside each round's write.
const READS: usize = 8;

/// What the rounds of the chain saw.
#[derive(Default)]
pub struct Rounds {
    pub insert_ms: Vec<f64>,
    pub refreeze_ms: Vec<f64>,
    pub delta_rows: usize,
    /// Dictionary entries the chain added.
    pub dict_growth: usize,
    pub ingest: IngestStats,
    pub planner: PlannerStats,
    pub ledger: Ledger,
}

/// Whether a read is a non-empty, duplicate-free page that no deadline cut.
fn check_read(outcome: RequestOutcome) -> Result<(), String> {
    let served = outcome.map_err(|e| format!("read failed: {e}"))?;
    if served.truncation() == Some(Truncation::Deadline) {
        return Err("read timed out".to_string());
    }
    let answers = served.answers();
    if answers.is_empty() {
        return Err("empty read".to_string());
    }
    let distinct: HashSet<&Tuple> = answers.iter().collect();
    if distinct.len() != answers.len() {
        return Err(format!(
            "read repeats {} answers",
            answers.len() - distinct.len()
        ));
    }
    Ok(())
}

/// A fresh frozen session over `base` with `rows` tuples per relation,
/// then [`ROUNDS`] rounds of reads beside writes into [`CHURN`], then the
/// oracle check of the final epoch against a fresh session over the final
/// instance.
pub fn chain(
    engine: &UcqEngine,
    base: &Instance,
    rows: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Rounds, EvalError> {
    let mut out = Rounds::default();
    let arity = base.get(CHURN).expect("churned relation").arity();
    let mut deltas = Deltas::new(arity, (rows / 100).max(1), rows, seed);
    let first = engine.session(base).freeze()?;
    let dict0 = first.build_context().dict_len();
    let cell = Arc::new(EpochCell::new(first));
    let mut current = base.clone();
    let config = ServeConfig::new(workers(), READS + 2).expect("positive pool shape");
    let (written, stats) = serve(config, |handle| -> Result<(), EvalError> {
        let mut replies = Vec::with_capacity(READS);
        for _ in 0..ROUNDS {
            let delta = deltas.next_batch();
            let round = tr.open("round", None);
            let mut tickets = Vec::with_capacity(READS);
            for _ in 0..READS {
                let at = Instant::now();
                let request = Request::from_cell(Arc::clone(&cell)).with_budget(page_budget());
                match handle.submit(request) {
                    Ok(ticket) => tickets.push((at, ticket)),
                    Err(e) => out.ledger.check(false, || format!("read refused: {e}")),
                }
            }
            let session = cell.load();
            let rel = current
                .get_shared(CHURN)
                .expect("the churned relation is in the instance");
            let tw = Instant::now();
            let next_rel = session.build_context().insert_rows(&rel, &delta);
            let ti = Instant::now();
            let next_instance = current.with_relation_shared(CHURN, next_rel);
            let next = session.refreeze(&next_instance)?;
            let tf = Instant::now();
            cell.install(Arc::new(next));
            let te = Instant::now();
            tr.record("storage.insert_rows", round, tw, ti);
            tr.record("core.refreeze", round, ti, tf);
            tr.record("storage.install", round, tf, te);
            drop(session);
            current = next_instance;
            out.insert_ms.push(ms(ti - tw));
            out.refreeze_ms.push(ms(tf - ti));
            out.delta_rows += delta.len();
            for (at, ticket) in tickets {
                replies.push(await_reply(ticket));
                tr.record("serve.read", round, at, Instant::now());
            }
            tr.close(round);
            for reply in replies.drain(..) {
                let verdict = check_read(reply);
                out.ledger.check(verdict.is_ok(), || verdict.unwrap_err());
            }
        }
        Ok(())
    });
    written?;
    out.ledger.check(stats.is_balanced(), || {
        format!("serve ledger unbalanced: {stats:?}")
    });
    let last = cell.load();
    out.dict_growth = last.build_context().dict_len() - dict0;
    out.ingest = last.build_context().ingest_stats();
    out.planner = last.planner_stats();

    let got = sorted(last.enumerate()?.collect_all());
    let want = sorted(engine.session(&current).enumerate()?.collect_all());
    out.ledger.check(got == want, || {
        format!(
            "final epoch: {} answers differ from a fresh session's {}",
            got.len(),
            want.len()
        )
    });
    Ok(out)
}
