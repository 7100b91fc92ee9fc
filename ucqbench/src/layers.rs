//! The traced run's per-layer probe. Every layer is timed from outside,
//! around calls into the public API of `storage`, `yannakakis`, `core`,
//! `enumerate` and `serve`, on the gated workloads' query and data (the
//! Example 2 union at 32k tuples per relation):
//!
//! * a staged replay of the union-extension pipeline, one stage per span, so
//!   each cache fills inside its own stage; its answer count must equal the
//!   real `session().enumerate()` path's;
//! * freeze, stream start at |I| and |I|/4, and the first page, direct;
//! * a short closed loop of pooled pages (serve overhead and queue);
//! * a short ingest chain (insert, refreeze, dictionary and carry counts);
//! * the paper's contract: the log-log slope of preprocessing over |I|/4,
//!   |I|/2 and |I|, and how the delay tail and stream start grow from |I|/4
//!   to |I|.

use crate::data;
use crate::ingest;
use crate::measure::{drain, ms, us, Ledger, PAGE};
use crate::report::Metric;
use crate::served::{page_loop, Until, OUTSTANDING};
use crate::stats::{log_log_slope, median};
use crate::trace::Tracer;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use ucq_core::lemma8::materialize_atom_in;
use ucq_core::{plan_free_connex_costed, EvalError, SearchConfig, Strategy, UcqEngine};
use ucq_enumerate::{
    Cheater, CheaterStats, Enumerator, IdChainEnumerator, IdEnumerator, IdVecEnumerator,
};
use ucq_storage::{ContextStats, CtxView, Instance, Tuple};
use ucq_yannakakis::{CdyEngine, OwnedCdyIter};

/// Tuples per relation of the probed instance: the gated workloads' |I|.
const ROWS: usize = 32_000;
const CLASSIFY_REPS: usize = 5;
const REPLAYS: usize = 3;
const FREEZES: usize = 3;
const STARTS: usize = 300;
const POOLED_PAGES: usize = 400;
const CONTRACT_REPS: usize = 3;

/// One staged replay: stage times in ms plus the counters read off it.
#[derive(Default)]
struct Replay {
    intern: f64,
    plan: f64,
    lemma8: f64,
    cdy: f64,
    cheater: f64,
    decode: f64,
    lemma8_rows: usize,
    early_answers: usize,
    prep_stats: ContextStats,
    cheater_stats: CheaterStats,
    decoded_rows: usize,
    answers: usize,
}

/// Replays the union-extension pipeline one public call at a time, each
/// inside its own span.
fn replay(engine: &UcqEngine, inst: &Instance, tr: &mut Tracer) -> Result<Replay, EvalError> {
    if engine.strategy() != Strategy::UnionExtension {
        return Err(EvalError::Schema(
            "the staged replay covers the union-extension strategy only".to_string(),
        ));
    }
    let ucq = &engine.classification().minimized;
    let root = tr.open("replay", None);
    let mut r = Replay::default();
    let ctx = CtxView::new();
    let t = Instant::now();
    for name in ucq.relation_names() {
        if let Some(rel) = inst.get_shared(name) {
            black_box(ctx.interned_rel(&rel));
        }
    }
    r.intern = ms(t.elapsed());
    tr.record("storage.intern", root, t, Instant::now());

    let arity = ucq.head_arity();
    let t = Instant::now();
    let plan = plan_free_connex_costed(ucq, &SearchConfig::default(), inst, &ctx)
        .expect("a union-extension strategy has a free-connex plan")
        .plan;
    r.plan = ms(t.elapsed());
    tr.record("core.plan", root, t, Instant::now());

    let t = Instant::now();
    let mut ext = inst.clone();
    let mut early = Vec::new();
    let name_of = |target: usize, vars| plan.atom_for(target, vars).rel_name.clone();
    for atom in &plan.atoms {
        let m = materialize_atom_in(ucq, atom, &name_of, &ext, &ctx)?;
        r.lemma8_rows += m.relation.len();
        r.early_answers += m.n_provider_answers;
        early.extend_from_slice(&m.provider_ids);
        ext.insert_shared(atom.rel_name.clone(), m.relation);
    }
    r.lemma8 = ms(t.elapsed());
    tr.record("core.lemma8", root, t, Instant::now());

    let t = Instant::now();
    let mut stages: Vec<Box<dyn IdEnumerator + Send>> = vec![Box::new(IdVecEnumerator::new(
        arity,
        early,
        r.early_answers,
    ))];
    for i in 0..ucq.len() {
        let member = CdyEngine::for_query_in(&plan.extended_query(ucq, i), &ext, &ctx)?;
        stages.push(Box::new(OwnedCdyIter::new(Arc::new(member))));
    }
    r.cdy = ms(t.elapsed());
    tr.record("yannakakis.cdy_build", root, t, Instant::now());
    r.prep_stats = ctx.stats();

    // Lemma 5's duplication budget, as the pipeline sets it.
    let budget = ucq.len() + plan.atoms.len() + 1;
    let mut cheater = Cheater::with_capacity_hint(
        IdChainEnumerator::new(arity, stages),
        budget,
        ctx.clone(),
        r.early_answers,
    );
    let t = Instant::now();
    let mut ids = Vec::new();
    while let Some(row) = cheater.next_ids() {
        ids.extend_from_slice(row);
    }
    r.cheater = ms(t.elapsed());
    tr.record("enumerate.cheater_drain", root, t, Instant::now());
    r.cheater_stats = cheater.stats();

    let t = Instant::now();
    let tuples = ctx.decode_rows(arity, &ids);
    r.decode = ms(t.elapsed());
    tr.record("storage.decode", root, t, Instant::now());
    r.decoded_rows = tuples.len();
    r.answers = tuples.len();
    tr.close(root);
    Ok(r)
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Median over replays of one stage time.
fn stage(replays: &[Replay], f: impl Fn(&Replay) -> f64) -> f64 {
    median(&replays.iter().map(f).collect::<Vec<_>>())
}

/// Runs every layer probe on the Example 2 union at [`ROWS`] tuples per
/// relation and returns the per-layer metrics in
/// `BENCHMARK.json` order (without `trace.overhead_frac`, which needs the
/// untraced run).
pub fn probe(seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> Result<Vec<Metric>, EvalError> {
    let ucq = data::example2();
    let inst = data::instance(&ucq, ROWS, seed);
    let quarter = data::instance(&ucq, ROWS / 4, seed);
    let half = data::instance(&ucq, ROWS / 2, seed);

    let classify: Vec<f64> = (0..CLASSIFY_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(UcqEngine::new(ucq.clone()));
            ms(t.elapsed())
        })
        .collect();
    let engine = UcqEngine::new(ucq.clone());

    let t = Instant::now();
    let naive = engine.enumerate_naive(&inst)?;
    let naive_ms = ms(t.elapsed());
    let oracle: HashSet<Tuple> = naive.into_iter().collect();

    let mut replays = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        replays.push(replay(&engine, &inst, tr)?);
    }
    let real = engine.session(&inst).enumerate()?.collect_all();
    let real_count = real.len();
    let real_set: HashSet<Tuple> = real.into_iter().collect();
    for r in &replays {
        ledger.check(r.answers == real_count, || {
            format!(
                "staged replay gave {} answers, the real path {real_count}",
                r.answers
            )
        });
    }
    ledger.check(real_count == real_set.len() && real_set == oracle, || {
        format!(
            "real path gave {real_count} answers, enumerate_naive {} distinct",
            oracle.len()
        )
    });
    drop(real_set);

    // Freeze a prepared session: the snapshot cost alone.
    let mut freeze_ms = Vec::with_capacity(FREEZES);
    let mut frozen = None;
    for _ in 0..FREEZES {
        let session = engine.session(&inst);
        drop(session.enumerate()?);
        let t = Instant::now();
        let f = tr.span("storage.freeze", None, || session.freeze())?;
        freeze_ms.push(ms(t.elapsed()));
        frozen = Some(f);
    }
    let frozen = Arc::new(frozen.expect("at least one freeze"));

    // Stream starts and first pages, direct (no pool).
    let (mut start_us, mut page_us, mut direct_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..STARTS {
        let t0 = Instant::now();
        let mut answers = frozen.enumerate()?;
        let t1 = Instant::now();
        let mut n = 0;
        while n < PAGE && answers.next().map(black_box).is_some() {
            n += 1;
        }
        let t2 = Instant::now();
        tr.record("core.start", None, t0, t1);
        tr.record("enumerate.first_page", None, t1, t2);
        start_us.push(us(t1 - t0));
        page_us.push(us(t2 - t1));
        direct_us.push(us(t2 - t0));
        drop(answers);
    }
    let frozen_quarter = engine.session(&quarter).freeze()?;
    let start_quarter_us: Vec<f64> = (0..STARTS)
        .map(|_| {
            let t = Instant::now();
            let answers = frozen_quarter.enumerate();
            let d = us(t.elapsed());
            drop(answers);
            d
        })
        .collect();
    drop(frozen_quarter);

    // Pooled pages one at a time: what the pool adds on top of a direct
    // start + page. Then at the workload's depth, for the queue counters.
    let alone = page_loop(&frozen, &oracle, Until::Pages(POOLED_PAGES), 1, tr);
    let serve_overhead_us = median(&alone.latency_ms) * 1e3 - median(&direct_us);
    ledger.absorb(alone.ledger);
    let pooled = page_loop(
        &frozen,
        &oracle,
        Until::Pages(POOLED_PAGES),
        OUTSTANDING,
        tr,
    );
    let depth_at_submit = pooled.depth_at_submit.iter().sum::<usize>() as f64
        / pooled.depth_at_submit.len().max(1) as f64;
    let serve = pooled.stats;
    ledger.absorb(pooled.ledger);
    drop(frozen);
    drop(oracle);

    // A short ingest chain on the same data.
    let mut rounds = ingest::chain(&engine, &inst, ROWS, seed, tr)?;
    ledger.absorb(std::mem::take(&mut rounds.ledger));
    let insert_ns_per_row =
        rounds.insert_ms.iter().sum::<f64>() * 1e6 / rounds.delta_rows.max(1) as f64;

    // The contract: preprocessing linear in |I|, delay and start flat.
    let mut prep_points = Vec::new();
    let mut gap_p99 = Vec::new();
    for (rows, sized) in [(ROWS / 4, &quarter), (ROWS / 2, &half), (ROWS, &inst)] {
        let (mut preps, mut gaps) = (Vec::new(), Vec::new());
        for _ in 0..CONTRACT_REPS {
            let t = Instant::now();
            let session = engine.session(sized);
            let mut answers = session.enumerate()?;
            let t1 = Instant::now();
            preps.push(ms(t1 - t));
            let got = drain(&mut answers, t1, tr, None);
            gaps.extend(got.gap_p99_us);
            ledger.check(got.answers > 0, || format!("no answers at {rows} rows"));
        }
        prep_points.push((rows as f64, median(&preps)));
        gap_p99.push(median(&gaps));
    }
    let start_full = median(&start_us);
    let start_quarter = median(&start_quarter_us);

    let last = &replays[replays.len() - 1];
    let ps = last.prep_stats;
    let cs = last.cheater_stats;
    let hits = ps.interned_hits + ps.derived_hits + ps.index_hits;
    let lookups = hits + ps.interned_builds + ps.derived_builds + ps.index_builds;
    Ok(vec![
        Metric::new("core.classify_ms", median(&classify), "ms"),
        Metric::new("storage.intern_ms", stage(&replays, |r| r.intern), "ms"),
        Metric::new("core.plan_ms", stage(&replays, |r| r.plan), "ms"),
        Metric::new("core.lemma8_ms", stage(&replays, |r| r.lemma8), "ms"),
        Metric::new("core.lemma8_rows", last.lemma8_rows as f64, "count"),
        Metric::new("core.early_answers", last.early_answers as f64, "count"),
        Metric::new("yannakakis.cdy_build_ms", stage(&replays, |r| r.cdy), "ms"),
        Metric::new("storage.index_builds", ps.index_builds as f64, "count"),
        Metric::new("storage.derived_builds", ps.derived_builds as f64, "count"),
        Metric::new("storage.cache_hit_ratio", ratio(hits, lookups), "ratio"),
        Metric::new(
            "enumerate.cheater_drain_ms",
            stage(&replays, |r| r.cheater),
            "ms",
        ),
        Metric::new("enumerate.inner_results", cs.inner_results as f64, "count"),
        Metric::new("enumerate.duplicates", cs.duplicates as f64, "count"),
        Metric::new(
            "enumerate.useful_ratio",
            ratio(cs.emitted, cs.inner_results),
            "ratio",
        ),
        Metric::new(
            "enumerate.queue_high_water",
            cs.queue_high_water as f64,
            "count",
        ),
        Metric::new("enumerate.blocks_pumped", cs.blocks_pumped as f64, "count"),
        Metric::new("storage.decode_ms", stage(&replays, |r| r.decode), "ms"),
        Metric::new("storage.decoded_rows", last.decoded_rows as f64, "count"),
        Metric::new("core.naive_ms", naive_ms, "ms"),
        Metric::new("storage.freeze_ms", median(&freeze_ms), "ms"),
        Metric::new("core.start_us", start_full, "us"),
        Metric::new("core.start_us.quarter", start_quarter, "us"),
        Metric::new("enumerate.first_page_us", median(&page_us), "us"),
        Metric::new("serve.overhead_us", serve_overhead_us, "us"),
        Metric::new("serve.queue_depth_at_submit", depth_at_submit, "count"),
        Metric::new(
            "serve.queue_high_water",
            serve.queue_high_water as f64,
            "count",
        ),
        Metric::new("serve.shed", serve.shed as f64, "count"),
        Metric::new("serve.partial", serve.partial as f64, "count"),
        Metric::new("serve.timed_out", serve.timed_out as f64, "count"),
        Metric::new("storage.insert_rows_ms", median(&rounds.insert_ms), "ms"),
        Metric::new("storage.insert_ns_per_delta_row", insert_ns_per_row, "ns"),
        Metric::new("core.refreeze_ms", median(&rounds.refreeze_ms), "ms"),
        Metric::new(
            "storage.dict_len_growth",
            rounds.dict_growth as f64,
            "count",
        ),
        Metric::new(
            "storage.derived_carried",
            rounds.ingest.derived_carried as f64,
            "count",
        ),
        Metric::new(
            "storage.indexes_merged",
            rounds.ingest.indexes_merged as f64,
            "count",
        ),
        Metric::new(
            "storage.epoch_bumps",
            rounds.ingest.epoch_bumps as f64,
            "count",
        ),
        Metric::new(
            "core.plans_searched",
            rounds.planner.plans_searched as f64,
            "count",
        ),
        Metric::new(
            "core.plan_cache_hits",
            rounds.planner.plan_cache_hits as f64,
            "count",
        ),
        Metric::new("contract.prep_slope", log_log_slope(&prep_points), "ratio"),
        Metric::new("contract.gap_growth", gap_p99[2] / gap_p99[0], "ratio"),
        Metric::new("contract.start_growth", start_full / start_quarter, "ratio"),
    ])
}
