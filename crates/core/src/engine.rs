//! The top-level engine: classify once, then evaluate instances with the
//! best applicable strategy.
//!
//! Every strategy has the paper's shape: one linear preprocessing pass,
//! then any number of constant-delay enumerations. That state is built
//! once per instance and then started, decided on, or retargeted onto a
//! frozen snapshot. Three shapes of use share it:
//!
//! * **One-shot** — [`UcqEngine::enumerate`] prepares over a private
//!   context and starts one enumeration.
//! * **Session** — [`UcqEngine::session`] pins an instance and returns an
//!   [`EvalSession`] that prepares on its first call and keeps the context
//!   (dictionary, interned relations, normalizations, indexes): repeated
//!   [`EvalSession::enumerate`]s skip the linear preprocessing entirely —
//!   the "serve traffic" shape.
//! * **Frozen session** — [`EvalSession::freeze`] folds the context
//!   ([`CtxView::freeze`]) and retargets the prepared state onto the
//!   snapshot. The resulting [`FrozenSession`] is drivable from any number
//!   of threads at once, with no lock on the per-answer hot path; each
//!   [`FrozenSession::enumerate`] call hands the calling thread its own
//!   cursors and scratch. [`FrozenSession::refreeze`] rebuilds only what a
//!   delta touched.

use crate::algorithm1::Algorithm1;
use crate::classify::{classify_with, Classification, CqStatus, Verdict};
use crate::cost::CostedSearch;
use crate::naive_ucq::{evaluate_ucq_naive, evaluate_ucq_naive_ids_in};
use crate::pipeline::UcqPipelinePrep;
use crate::plan::ExtensionPlan;
use crate::search::SearchConfig;
use std::sync::Arc;
use ucq_enumerate::{Enumerator, IdDecoder, IdVecEnumerator};
use ucq_query::Ucq;
use ucq_storage::sync::{AtomicUsize, OnceLock, Ordering};
use ucq_storage::{CtxView, Instance, Tuple};
use ucq_yannakakis::{CdyEngine, EvalError};

/// Which evaluation strategy a run used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 1 (Theorem 4): all members free-connex; constant writable
    /// memory during enumeration.
    Algorithm1,
    /// The Theorem 12 union-extension pipeline.
    UnionExtension,
    /// Materializing fallback for intractable/unknown queries.
    Naive,
}

/// Counters for the cost-based planner, snapshot per session alongside
/// [`ucq_storage::ContextStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Full cost-based plan searches run (one per plan-cache miss).
    pub plans_searched: usize,
    /// Candidate extension sets priced across all searches.
    pub candidates_costed: usize,
    /// Plan-cache hits: `(query fingerprint, stats epoch)` matched a plan
    /// stored by an earlier session over the same context.
    pub plan_cache_hits: usize,
}

/// Planner counters behind `&self` (sessions hand out streams from shared
/// references). Each counter is independent and read only as a snapshot,
/// so relaxed ordering suffices.
#[derive(Default)]
struct PlannerCounters {
    plans_searched: AtomicUsize,
    candidates_costed: AtomicUsize,
    plan_cache_hits: AtomicUsize,
}

impl PlannerCounters {
    /// Counters continuing from `stats` (a refreeze adds to its epoch's).
    fn resume(stats: PlannerStats) -> PlannerCounters {
        PlannerCounters {
            plans_searched: AtomicUsize::new(stats.plans_searched),
            candidates_costed: AtomicUsize::new(stats.candidates_costed),
            plan_cache_hits: AtomicUsize::new(stats.plan_cache_hits),
        }
    }

    fn snapshot(&self) -> PlannerStats {
        PlannerStats {
            plans_searched: self.plans_searched.load(Ordering::Relaxed),
            candidates_costed: self.candidates_costed.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// A classified UCQ ready to evaluate instances.
pub struct UcqEngine {
    ucq: Ucq,
    cfg: SearchConfig,
    classification: Classification,
    /// The instance-independent half of the costed planner (availability
    /// fixpoint + candidate extension sets), prepared lazily on the first
    /// plan-cache miss and shared by every later miss: fresh contexts
    /// re-*price* the candidates, they never re-*search*.
    costed: OnceLock<Option<CostedSearch>>,
}

impl UcqEngine {
    /// Classifies `ucq` with default search bounds.
    pub fn new(ucq: Ucq) -> UcqEngine {
        UcqEngine::with_config(ucq, &SearchConfig::default())
    }

    /// Classifies `ucq` with explicit search bounds.
    pub fn with_config(ucq: Ucq, cfg: &SearchConfig) -> UcqEngine {
        let classification = classify_with(&ucq, cfg);
        UcqEngine {
            ucq,
            cfg: cfg.clone(),
            classification,
            costed: OnceLock::new(),
        }
    }

    /// The original union.
    pub fn ucq(&self) -> &Ucq {
        &self.ucq
    }

    /// The classification (verdict, statuses, minimized union).
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The strategy [`UcqEngine::enumerate`] will pick.
    pub fn strategy(&self) -> Strategy {
        match &self.classification.verdict {
            Verdict::FreeConnex { plan } => {
                let all_fc = self
                    .classification
                    .statuses
                    .iter()
                    .all(|s| *s == CqStatus::FreeConnex);
                if all_fc && !plan.needs_extension() {
                    Strategy::Algorithm1
                } else {
                    Strategy::UnionExtension
                }
            }
            _ => Strategy::Naive,
        }
    }

    /// Evaluates over `instance`, returning an answer stream tagged with
    /// the strategy that produced it. `DelayClin` guarantees apply exactly
    /// when the strategy is not [`Strategy::Naive`]. Builds a private
    /// context; use [`UcqEngine::session`] to reuse preprocessing across
    /// repeated evaluations.
    pub fn enumerate(&self, instance: &Instance) -> Result<UcqAnswers, EvalError> {
        self.enumerate_in(&CtxView::new(), instance)
    }

    /// As [`UcqEngine::enumerate`], threading the shared session context
    /// through every member pipeline.
    ///
    /// This is a building block: for *repeated* evaluation of one
    /// instance, use [`UcqEngine::session`] instead — besides skipping
    /// preprocessing, the session prepares the Theorem 12 pipeline once,
    /// whereas calling `enumerate_in` in a loop with one long-lived `ctx`
    /// re-materializes the plan's virtual relations per call and pins each
    /// copy into the context's caches (contexts never evict).
    pub fn enumerate_in(
        &self,
        ctx: &CtxView,
        instance: &Instance,
    ) -> Result<UcqAnswers, EvalError> {
        Ok(Prepared::build(self, instance, ctx, &PlannerCounters::default())?.start(ctx))
    }

    /// The plan the union-extension strategy should execute over
    /// `instance`: the cached plan when `(query fingerprint, stats epoch)`
    /// matches, otherwise a fresh costing pass over the engine's prepared
    /// [`CostedSearch`], stored so the next session over this context skips
    /// the pricing too. Falls back to the classification's first-found
    /// certificate if the costed search comes up empty (it enumerates the
    /// same candidates, so this is belt-and-braces).
    fn executable_plan(
        &self,
        ctx: &CtxView,
        instance: &Instance,
        counters: &PlannerCounters,
    ) -> Arc<ExtensionPlan> {
        let minimized = &self.classification.minimized;
        // Intern every base relation up front: the epoch read below is then
        // stable across the search (stats collection only hits caches), and
        // a repeat session over the same instance reads the same epoch.
        for name in minimized.relation_names() {
            if let Some(rel) = instance.get_shared(name) {
                ctx.interned_rel(&rel);
            }
        }
        let fingerprint = minimized.fingerprint();
        let epoch = ctx.stats_epoch();
        if let Some(cached) = ctx.cached_plan(fingerprint, epoch) {
            if let Ok(plan) = cached.downcast::<ExtensionPlan>() {
                counters.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                return plan;
            }
        }
        counters.plans_searched.fetch_add(1, Ordering::Relaxed);
        let search = self
            .costed
            .get_or_init(|| CostedSearch::prepare(minimized, &self.cfg));
        let plan = match search.as_ref().map(|s| s.plan(instance, ctx)) {
            Some(costed) => {
                counters
                    .candidates_costed
                    .fetch_add(costed.candidates_costed, Ordering::Relaxed);
                Arc::new(costed.plan)
            }
            None => {
                let Verdict::FreeConnex { plan } = &self.classification.verdict else {
                    unreachable!("union-extension strategy implies a free-connex verdict");
                };
                Arc::new(plan.clone())
            }
        };
        ctx.store_plan(fingerprint, epoch, plan.clone());
        plan
    }

    /// Opens an evaluation session over `instance`: preprocessing (value
    /// interning, normalization, index builds, per-member CDY engines) is
    /// performed at most once and reused by every subsequent call.
    pub fn session(&self, instance: &Instance) -> EvalSession<'_> {
        self.session_in(&CtxView::new(), instance)
    }

    /// As [`UcqEngine::session`], but over a caller-provided context:
    /// repeated sessions share the dictionary, interned relations, indexes,
    /// statistics — and the plan cache, so the second session's build skips
    /// the cost-based plan search entirely (observable as
    /// [`PlannerStats::plan_cache_hits`]).
    pub fn session_in(&self, ctx: &CtxView, instance: &Instance) -> EvalSession<'_> {
        EvalSession {
            engine: self,
            instance: instance.clone(),
            ctx: ctx.clone(),
            prepared: OnceLock::new(),
            planner: PlannerCounters::default(),
        }
    }

    /// Forces the naive strategy (baseline for experiments).
    pub fn enumerate_naive(&self, instance: &Instance) -> Result<Vec<Tuple>, EvalError> {
        evaluate_ucq_naive(&self.classification.minimized, instance)
    }

    /// `Decide⟨Q⟩`: whether the union has at least one answer. Under
    /// Algorithm 1 this is a pure preprocessing question (each member's CDY
    /// `decide()` after its linear pass); otherwise it asks the chosen
    /// enumeration strategy for a first answer.
    pub fn decide(&self, instance: &Instance) -> Result<bool, EvalError> {
        let ctx = CtxView::new();
        Ok(Prepared::build(self, instance, &ctx, &PlannerCounters::default())?.decide(&ctx))
    }
}

/// The preprocessed state of one strategy: built once (the linear pass),
/// then started any number of times, each start handing out fresh cursors.
/// Cloning shares the engines and the answer rows.
#[derive(Clone)]
enum Prepared {
    /// Per-member CDY engines (Algorithm 1 restarts enumerators off them).
    Algorithm1(Vec<Arc<CdyEngine>>),
    /// The Theorem 12 prep: materializations folded into member engines.
    Union(UcqPipelinePrep),
    /// The naive answer table, materialized once; each start replays it.
    Naive(IdVecEnumerator),
}

impl Prepared {
    /// Runs `engine`'s strategy's linear preprocessing over `instance`
    /// through `ctx`, counting plan searches and cache hits into `counters`.
    fn build(
        engine: &UcqEngine,
        instance: &Instance,
        ctx: &CtxView,
        counters: &PlannerCounters,
    ) -> Result<Prepared, EvalError> {
        let minimized = &engine.classification.minimized;
        Ok(match engine.strategy() {
            Strategy::Algorithm1 => {
                Prepared::Algorithm1(Algorithm1::member_engines(minimized, instance, ctx)?)
            }
            Strategy::UnionExtension => {
                let plan = engine.executable_plan(ctx, instance, counters);
                Prepared::Union(UcqPipelinePrep::prepare(minimized, &plan, instance, ctx)?)
            }
            Strategy::Naive => {
                let table = evaluate_ucq_naive_ids_in(minimized, instance, ctx)?;
                Prepared::Naive(IdVecEnumerator::new(table.width, table.data, table.n_rows))
            }
        })
    }

    /// Starts one enumeration. The union arm decodes each answer at the
    /// Cheater's release; the Algorithm 1 and naive arms stay on ids and
    /// decode per block through `ctx` (see DESIGN.md, "Where answers
    /// become values").
    fn start(&self, ctx: &CtxView) -> UcqAnswers {
        let (strategy, inner): (Strategy, Box<dyn Enumerator + Send>) = match self {
            Prepared::Algorithm1(engines) => (
                Strategy::Algorithm1,
                Box::new(IdDecoder::new(
                    Algorithm1::from_engines(engines.clone()),
                    ctx.clone(),
                )),
            ),
            Prepared::Union(prep) => (Strategy::UnionExtension, Box::new(prep.start())),
            Prepared::Naive(rows) => (
                Strategy::Naive,
                Box::new(IdDecoder::new(rows.clone(), ctx.clone())),
            ),
        };
        UcqAnswers { strategy, inner }
    }

    /// `Decide⟨Q⟩` without repeating any preprocessing.
    fn decide(&self, ctx: &CtxView) -> bool {
        match self {
            Prepared::Algorithm1(engines) => engines.iter().any(|e| e.decide()),
            Prepared::Union(_) => self.start(ctx).next().is_some(),
            Prepared::Naive(rows) => rows.n_rows() > 0,
        }
    }

    /// Points the prepared engines at `view` (the freeze step). An engine
    /// still pinned elsewhere — by a live enumerator, or by the previous
    /// epoch after a refreeze — keeps its view; that is still correct, as
    /// both views share one dictionary lineage.
    fn retarget(&mut self, view: &CtxView) {
        match self {
            Prepared::Algorithm1(engines) => {
                for eng in engines {
                    if let Some(e) = Arc::get_mut(eng) {
                        e.set_view(view.clone());
                    }
                }
            }
            Prepared::Union(prep) => prep.retarget(view),
            // The table is decoded through the view `start` is given.
            Prepared::Naive(_) => {}
        }
    }
}

/// A pinned `(classified query, instance)` pair with persistent caches —
/// the repeated-evaluation ("serve traffic") API.
///
/// ```
/// use ucq_core::UcqEngine;
/// use ucq_enumerate::Enumerator;
/// use ucq_query::parse_ucq;
/// use ucq_storage::{Instance, Relation};
///
/// let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
/// let instance: Instance =
///     [("R", Relation::from_pairs([(1, 2), (3, 4)]))].into_iter().collect();
/// let session = engine.session(&instance);
/// for _ in 0..3 {
///     // Preprocessing runs once; each call just restarts enumeration.
///     assert_eq!(session.enumerate().unwrap().collect_all().len(), 2);
/// }
/// ```
pub struct EvalSession<'e> {
    engine: &'e UcqEngine,
    instance: Instance,
    ctx: CtxView,
    prepared: OnceLock<Prepared>,
    planner: PlannerCounters,
}

impl EvalSession<'_> {
    /// The engine this session evaluates.
    pub fn engine(&self) -> &UcqEngine {
        self.engine
    }

    /// The shared context (dictionary + caches) of this session.
    pub fn context(&self) -> &CtxView {
        &self.ctx
    }

    /// The strategy session evaluations use.
    pub fn strategy(&self) -> Strategy {
        self.engine.strategy()
    }

    /// Planner counters for this session (plan searches, candidates
    /// priced, plan-cache hits).
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.snapshot()
    }

    /// The memoized preprocessing, built on first use. (Racing first calls
    /// may each build; the context caches make the loser cheap, and one
    /// result is kept.)
    fn prepared(&self) -> Result<&Prepared, EvalError> {
        if let Some(prepared) = self.prepared.get() {
            return Ok(prepared);
        }
        let prepared = Prepared::build(self.engine, &self.instance, &self.ctx, &self.planner)?;
        Ok(self.prepared.get_or_init(|| prepared))
    }

    /// Starts an enumeration. The first call performs the linear
    /// preprocessing; subsequent calls only restart enumeration cursors.
    pub fn enumerate(&self) -> Result<UcqAnswers, EvalError> {
        Ok(self.prepared()?.start(&self.ctx))
    }

    /// `Decide⟨Q⟩` against the pinned instance, reusing the session's
    /// preprocessing.
    pub fn decide(&self) -> Result<bool, EvalError> {
        Ok(self.prepared()?.decide(&self.ctx))
    }
}

impl<'e> EvalSession<'e> {
    /// Ends the build phase: runs the linear preprocessing if it has not
    /// run yet, folds the context into the immutable base of a fresh handle
    /// ([`CtxView::freeze`]), and retargets the prepared engines
    /// onto the snapshot — no preprocessing is repeated. The result is
    /// `Send + Sync`: N threads can call [`FrozenSession::enumerate`]
    /// concurrently, each getting its own cursors, with zero locking on
    /// the per-answer path.
    pub fn freeze(mut self) -> Result<FrozenSession<'e>, EvalError> {
        let mut prepared = match self.prepared.take() {
            Some(prepared) => prepared,
            None => Prepared::build(self.engine, &self.instance, &self.ctx, &self.planner)?,
        };
        let view = self.ctx.freeze();
        prepared.retarget(&view);
        Ok(FrozenSession {
            engine: self.engine,
            instance: self.instance,
            ctx: view,
            build_ctx: self.ctx,
            prepared,
            planner: self.planner.snapshot(),
        })
    }
}

/// A frozen `(classified query, instance)` session: `Send + Sync`, served
/// concurrently by any number of threads. Produced by
/// [`EvalSession::freeze`]; see the module docs for the lifecycle.
///
/// ```
/// use std::collections::HashSet;
/// use ucq_core::UcqEngine;
/// use ucq_enumerate::Enumerator;
/// use ucq_query::parse_ucq;
/// use ucq_storage::{Instance, Relation, Tuple};
///
/// let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
/// let instance: Instance =
///     [("R", Relation::from_pairs([(1, 2), (3, 4)]))].into_iter().collect();
/// let frozen = engine.session(&instance).freeze().unwrap();
/// let answers: Vec<HashSet<Tuple>> = std::thread::scope(|s| {
///     let handles: Vec<_> = (0..2)
///         .map(|_| s.spawn(|| frozen.enumerate().unwrap().collect_all().into_iter().collect()))
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).collect()
/// });
/// assert_eq!(answers[0], answers[1]);
/// assert_eq!(answers[0].len(), 2);
/// ```
pub struct FrozenSession<'e> {
    engine: &'e UcqEngine,
    instance: Instance,
    ctx: CtxView,
    /// The build-phase context this snapshot was frozen from, kept alive so
    /// [`FrozenSession::refreeze`] can ingest deltas into the *same*
    /// dictionary lineage and snapshot the next epoch without re-interning
    /// anything the previous epoch already holds.
    build_ctx: CtxView,
    prepared: Prepared,
    planner: PlannerStats,
}

impl FrozenSession<'_> {
    /// The engine this session evaluates.
    pub fn engine(&self) -> &UcqEngine {
        self.engine
    }

    /// The pinned instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The frozen context view (always [`CtxView::is_frozen`]).
    pub fn context(&self) -> &CtxView {
        &self.ctx
    }

    /// The strategy frozen evaluations use.
    pub fn strategy(&self) -> Strategy {
        self.engine.strategy()
    }

    /// Planner counters of the build-phase session this snapshot was
    /// frozen from, plus the plan work of every refreeze since.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner
    }

    /// Starts an enumeration over the frozen state. Callable from many
    /// threads at once (`&self`); each call returns an independent stream
    /// owning its cursors, dedup table and scratch, while all streams read
    /// the same frozen dictionary, relations and indexes lock-free.
    pub fn enumerate(&self) -> Result<UcqAnswers, EvalError> {
        Ok(self.prepared.start(&self.ctx))
    }

    /// `Decide⟨Q⟩` against the frozen state (no preprocessing, no joins).
    pub fn decide(&self) -> Result<bool, EvalError> {
        Ok(self.prepared.decide(&self.ctx))
    }

    /// The build-phase context behind this snapshot — the write side of the
    /// session. Deltas go here ([`CtxView::insert_rows`] /
    /// [`CtxView::delete_rows`]),
    /// then [`FrozenSession::refreeze`] publishes them as the next epoch.
    pub fn build_context(&self) -> &CtxView {
        &self.build_ctx
    }

    #[cfg(test)]
    fn a1_engines(&self) -> Option<&[Arc<CdyEngine>]> {
        if let Prepared::Algorithm1(engines) = &self.prepared {
            return Some(engines);
        }
        None
    }
}

impl<'e> FrozenSession<'e> {
    /// Whether any relation this session's (minimized) query reads differs
    /// between the pinned instance and `instance` — by `Arc` identity, which
    /// is exactly what the delta-ingestion API preserves for untouched
    /// relations.
    fn touched(&self, instance: &Instance, names: &[&str]) -> bool {
        names.iter().any(
            |n| match (self.instance.get_shared(n), instance.get_shared(n)) {
                (Some(a), Some(b)) => !Arc::ptr_eq(&a, &b),
                (None, None) => false,
                _ => true,
            },
        )
    }

    /// Builds the **next epoch** of this frozen session over `instance`,
    /// doing work proportional to the delta rather than the database.
    ///
    /// `instance` is expected to differ from the pinned instance only in
    /// relations replaced through the delta-ingestion API
    /// (`insert_rows`/`delete_rows` on [`FrozenSession::build_context`],
    /// spliced in with
    /// [`Instance::with_relation_shared`](ucq_storage::Instance::with_relation_shared)),
    /// so untouched relations keep their `Arc` identity. The new snapshot is
    /// taken from the same build context, so every untouched relation,
    /// index, derived normalization and cached plan is *shared* with the
    /// previous epoch — only state downstream of a touched relation is
    /// rebuilt:
    ///
    /// * **Algorithm 1** — members whose relations are all untouched keep
    ///   their prepared engine (pinned to the previous epoch's view, which
    ///   stays valid: both epochs share one dictionary lineage); touched
    ///   members rebuild against the pre-seeded caches, so interning and
    ///   index work is already done.
    /// * **Union extension** — an untouched union clones the prep wholesale;
    ///   otherwise the plan is re-costed (the churn ledger bumps the stats
    ///   epoch past the replan threshold, so skew flips surface here) and
    ///   the pipeline re-prepares. The plan work adds to
    ///   [`FrozenSession::planner_stats`].
    /// * **Naive** — the materialized answer table is recomputed only when
    ///   touched.
    ///
    /// The old session keeps serving its own epoch untouched throughout —
    /// pair with [`ucq_storage::EpochCell`] to rotate live traffic.
    pub fn refreeze(&self, instance: &Instance) -> Result<FrozenSession<'e>, EvalError> {
        let minimized = &self.engine.classification.minimized;
        let (ctx, prepared, planner) = if self.touched(instance, &minimized.relation_names()) {
            // Rebuild touched state against the build context *before* the
            // fold, so everything it interns, indexes, materializes or plans
            // lands below the new epoch's watermark (no overlay traffic at
            // serve time).
            let planner = PlannerCounters::resume(self.planner);
            let mut prepared = match &self.prepared {
                Prepared::Algorithm1(engines) => {
                    let mut next = engines.clone();
                    for (i, cq) in minimized.cqs().iter().enumerate() {
                        if self.touched(instance, &cq.relation_names()) {
                            let eng = CdyEngine::for_query_in(cq, instance, &self.build_ctx)?;
                            next[i] = Arc::new(eng);
                        }
                    }
                    Prepared::Algorithm1(next)
                }
                _ => Prepared::build(self.engine, instance, &self.build_ctx, &planner)?,
            };
            let view = self.build_ctx.freeze();
            prepared.retarget(&view);
            (view, prepared, planner.snapshot())
        } else {
            // Nothing the query reads changed: the next epoch *is* the
            // current one, minus the snapshot cost.
            (self.ctx.clone(), self.prepared.clone(), self.planner)
        };
        Ok(FrozenSession {
            engine: self.engine,
            instance: instance.clone(),
            ctx,
            build_ctx: self.build_ctx.clone(),
            prepared,
            planner,
        })
    }
}

/// A strategy-tagged answer stream. `Send`, so a serving thread can take
/// an enumeration with it (each stream owns its cursors and scratch).
pub struct UcqAnswers {
    strategy: Strategy,
    inner: Box<dyn Enumerator + Send>,
}

impl UcqAnswers {
    /// Which strategy produced this stream.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

impl Enumerator for UcqAnswers {
    fn next(&mut self) -> Option<Tuple> {
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ucq::evaluate_ucq_naive_set;
    use std::collections::HashSet;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    fn check_strategy(text: &str, i: &Instance, expect: Strategy) {
        let u = parse_ucq(text).unwrap();
        let eng = UcqEngine::new(u.clone());
        assert_eq!(eng.strategy(), expect, "strategy for {text}");
        let mut ans = eng.enumerate(i).unwrap();
        let got: HashSet<Tuple> = ans.collect_all().into_iter().collect();
        let want = evaluate_ucq_naive_set(&u, i).unwrap();
        assert_eq!(got, want);
        // The session path must agree with the one-shot path, repeatedly.
        let session = eng.session(i);
        for _ in 0..2 {
            let mut ans = session.enumerate().unwrap();
            let via_session: HashSet<Tuple> = ans.collect_all().into_iter().collect();
            assert_eq!(via_session, want, "session answers for {text}");
        }
        assert_eq!(session.decide().unwrap(), !want.is_empty());
        assert_eq!(eng.decide(i).unwrap(), !want.is_empty());
        // Frozen, then refrozen with nothing changed: same answers, same
        // strategy arm.
        let frozen = session.freeze().unwrap();
        let refrozen = frozen.refreeze(i).unwrap();
        for f in [&frozen, &refrozen] {
            assert_eq!(f.enumerate().unwrap().strategy(), expect);
            assert_eq!(collect(f), want, "frozen answers for {text}");
            assert_eq!(f.decide().unwrap(), !want.is_empty());
        }
    }

    #[test]
    fn all_free_connex_uses_algorithm1() {
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(1, 2), (5, 6)])]);
        check_strategy(
            "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)",
            &i,
            Strategy::Algorithm1,
        );
    }

    #[test]
    fn example2_uses_pipeline() {
        let i = inst(&[
            ("R1", vec![(1, 2)]),
            ("R2", vec![(2, 3)]),
            ("R3", vec![(3, 4)]),
        ]);
        check_strategy(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
            &i,
            Strategy::UnionExtension,
        );
    }

    #[test]
    fn hard_query_falls_back_to_naive() {
        let i = inst(&[("A", vec![(1, 2)]), ("B", vec![(2, 3)])]);
        check_strategy("Q(x, y) <- A(x, z), B(z, y)", &i, Strategy::Naive);
    }

    #[test]
    fn redundancy_removed_before_evaluation() {
        // Example 1: the union equals Q2, so Algorithm 1 applies even
        // though Q1 alone is cyclic.
        let i = inst(&[
            ("R1", vec![(1, 2), (2, 3)]),
            ("R2", vec![(2, 4), (3, 4)]),
            ("R3", vec![(4, 1)]),
        ]);
        check_strategy(
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
            &i,
            Strategy::Algorithm1,
        );
    }

    #[test]
    fn session_preprocesses_once() {
        let arms = [
            (
                "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)",
                Strategy::Algorithm1,
            ),
            (
                "Q1(x, y, w) <- R(x, z), S(z, y), T(y, w)\n\
                 Q2(x, y, w) <- R(x, y), S(y, w)",
                Strategy::UnionExtension,
            ),
            ("Q(x, y) <- R(x, z), S(z, y)", Strategy::Naive),
        ];
        let i = inst(&[
            ("R", vec![(1, 2), (3, 4)]),
            ("S", vec![(2, 3), (3, 4)]),
            ("T", vec![(3, 5), (4, 6)]),
        ]);
        for (text, expect) in arms {
            let eng = UcqEngine::new(parse_ucq(text).unwrap());
            assert_eq!(eng.strategy(), expect, "strategy for {text}");
            let session = eng.session(&i);
            let first = session.enumerate().unwrap().collect_all();
            let after_first = session.context().stats();
            for _ in 0..2 {
                assert_eq!(session.enumerate().unwrap().collect_all(), first);
                assert!(session.decide().unwrap());
                assert_eq!(
                    session.context().stats(),
                    after_first,
                    "repeated {expect:?} session calls build and probe nothing new"
                );
            }
        }
    }

    #[test]
    fn repeated_sessions_hit_the_plan_cache() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let eng = UcqEngine::new(u);
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", vec![(1, 2)]),
            ("R2", vec![(2, 3)]),
            ("R3", vec![(3, 4)]),
        ]);
        let ctx = CtxView::new();
        let first = eng.session_in(&ctx, &i);
        let baseline: HashSet<Tuple> = first
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect();
        let p1 = first.planner_stats();
        assert_eq!(p1.plans_searched, 1, "first session runs the search");
        assert_eq!(p1.plan_cache_hits, 0);
        assert!(p1.candidates_costed >= 1, "at least one candidate priced");
        // Re-enumerating within one session prepares nothing new.
        first.enumerate().unwrap();
        assert_eq!(first.planner_stats(), p1);

        let second = eng.session_in(&ctx, &i);
        let again: HashSet<Tuple> = second
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect();
        assert_eq!(again, baseline);
        let p2 = second.planner_stats();
        assert_eq!(p2.plans_searched, 0, "second session skips the search");
        assert_eq!(p2.plan_cache_hits, 1, "cached plan reused");
        assert_eq!(p2.candidates_costed, 0);
    }

    #[test]
    fn churned_skew_flips_the_cheapest_provider() {
        use crate::cost::plan_free_connex_costed;
        // Q1's extension {x, z, y} has two providers: Q2 prices it off
        // R1 ⋈ R2, Q3 off R1 ⋈ R4. Which is cheapest depends on the data.
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R4(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)\n\
                    Q3(x, y, w) <- R1(x, y), R4(y, w)";
        let u = parse_ucq(text).unwrap();
        let eng = UcqEngine::new(u.clone());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let base = inst(&[
            ("R1", (0..4).map(|i| (i, i + 1)).collect()),
            ("R2", (0..4).map(|i| (i + 1, i + 2)).collect()),
            ("R4", (0..4).map(|i| (i + 1, i + 2)).collect()),
            ("R3", (0..4).map(|i| (i + 2, i + 3)).collect()),
        ]);
        let ctx = CtxView::new();
        let first = eng.session_in(&ctx, &base);
        first.enumerate().unwrap();
        assert_eq!(first.planner_stats().plans_searched, 1);
        let uniform = plan_free_connex_costed(&u, &SearchConfig::default(), &base, &ctx).unwrap();
        let before = uniform.plan.atoms[0].provenance.provider;

        // Skew R2: a delta far past the 25% churn threshold bumps the
        // stats epoch, so the cached plan goes stale …
        let e0 = ctx.stats_epoch();
        let delta = Relation::from_pairs((0..400i64).map(|i| (i % 5, i + 10)));
        let r2 = ctx.insert_rows(&base.get_shared("R2").unwrap(), &delta);
        let skewed = base.with_relation_shared("R2", r2);
        assert!(ctx.stats_epoch() > e0, "heavy churn bumps the stats epoch");

        // … the next session re-searches instead of hitting the cache …
        let second = eng.session_in(&ctx, &skewed);
        second.enumerate().unwrap();
        let p2 = second.planner_stats();
        assert_eq!(p2.plan_cache_hits, 0, "stale plan must not be reused");
        assert_eq!(p2.plans_searched, 1, "churned stats force a re-search");

        // … and the re-costed plan routes the extension through the other
        // provider (R2's blow-up makes Q3's R1 ⋈ R4 the cheap one).
        let recosted =
            plan_free_connex_costed(&u, &SearchConfig::default(), &skewed, &ctx).unwrap();
        let after = recosted.plan.atoms[0].provenance.provider;
        assert_ne!(before, after, "skew flips the cheapest provider");

        // The flip never changes the answers.
        let got: HashSet<Tuple> = second
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect();
        assert_eq!(got, naive_set(text, &skewed));
    }

    fn naive_set(text: &str, i: &Instance) -> HashSet<Tuple> {
        evaluate_ucq_naive_set(&parse_ucq(text).unwrap(), i).unwrap()
    }

    /// Drains `ans`, asserting it emits no answer twice.
    fn drain(ans: &mut UcqAnswers) -> HashSet<Tuple> {
        let all = ans.collect_all();
        let set: HashSet<Tuple> = all.iter().cloned().collect();
        assert_eq!(all.len(), set.len(), "duplicate answers");
        set
    }

    fn collect(frozen: &FrozenSession<'_>) -> HashSet<Tuple> {
        drain(&mut frozen.enumerate().unwrap())
    }

    #[test]
    fn refreeze_reuses_untouched_members() {
        let text = "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Algorithm1);
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(5, 6)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));

        // Delta into R only; S keeps its Arc identity. (5, 6) is already in
        // S, so Algorithm 1's line-4 probe must find the rebuilt R member's
        // ids in the reused S engine, which keeps the old epoch's view.
        let r2 = frozen.build_context().insert_rows(
            &i.get_shared("R").unwrap(),
            &Relation::from_pairs([(3, 4), (5, 6)]),
        );
        let i2 = i.with_relation_shared("R", r2);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        // The old epoch still serves the old answers.
        assert_eq!(collect(&frozen), naive_set(text, &i));
        // Member order follows minimized.cqs(): Q1 reads R (rebuilt), Q2
        // reads S (shared with the previous epoch).
        let old = frozen.a1_engines().unwrap();
        let new = next.a1_engines().unwrap();
        assert!(!Arc::ptr_eq(&old[0], &new[0]), "touched member rebuilt");
        assert!(Arc::ptr_eq(&old[1], &new[1]), "untouched member shared");
    }

    #[test]
    fn live_stream_across_freeze_mixes_views() {
        let text = "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Algorithm1);
        // More answers than one decode block, so the live stream still
        // pulls from its member engines after the freeze.
        let i = inst(&[
            ("R", (0..600).map(|k| (k, k + 1)).collect()),
            ("S", (300..900).map(|k| (k, k + 1)).collect()),
        ]);
        let session = eng.session(&i);
        let mut live = session.enumerate().unwrap();
        let mut old_answers: HashSet<Tuple> = live.next().into_iter().collect();
        // The live stream pins every member engine: the freeze cannot
        // retarget them, so they keep the build-phase view.
        let frozen = session.freeze().unwrap();
        assert!(frozen
            .a1_engines()
            .unwrap()
            .iter()
            .all(|e| !e.context().is_frozen()));
        // Delta into R with a row S already holds: R's member is rebuilt
        // and retargeted onto the new snapshot, S's stays pinned to the
        // build view — the next epoch mixes the two.
        let r2 = frozen.build_context().insert_rows(
            &i.get_shared("R").unwrap(),
            &Relation::from_pairs([(800, 801), (5000, 5001)]),
        );
        let i2 = i.with_relation_shared("R", r2);
        let next = frozen.refreeze(&i2).unwrap();
        let engines = next.a1_engines().unwrap();
        assert!(
            engines[0].context().is_frozen(),
            "rebuilt member retargeted"
        );
        assert!(
            !engines[1].context().is_frozen(),
            "pinned member keeps its view"
        );
        assert_eq!(collect(&next), naive_set(text, &i2));
        // The stream started before the freeze finishes on the old instance.
        let rest = drain(&mut live);
        assert!(rest.is_disjoint(&old_answers), "no answer emitted twice");
        old_answers.extend(rest);
        assert_eq!(old_answers, naive_set(text, &i));
        assert_eq!(collect(&frozen), naive_set(text, &i));
    }

    #[test]
    fn refreeze_counts_its_planner_work() {
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", (0..20).map(|k| (k, k + 1)).collect()),
            ("R2", (0..20).map(|k| (k + 1, k + 2)).collect()),
            ("R3", (0..20).map(|k| (k + 2, k + 3)).collect()),
        ]);
        let mut frozen = eng.session(&i).freeze().unwrap();
        let built = frozen.planner_stats();
        assert_eq!((built.plans_searched, built.plan_cache_hits), (1, 0));
        let mut current = i;
        // Two one-row deltas stay under the 25% churn threshold: the stats
        // epoch holds, so each refreeze reuses the cached plan.
        for k in 0..2 {
            let delta = Relation::from_pairs([(100 + k, 1)]);
            let r1 = frozen
                .build_context()
                .insert_rows(&current.get_shared("R1").unwrap(), &delta);
            current = current.with_relation_shared("R1", r1);
            frozen = frozen.refreeze(&current).unwrap();
            assert_eq!(collect(&frozen), naive_set(text, &current));
        }
        let p = frozen.planner_stats();
        assert_eq!(
            p.plan_cache_hits, 2,
            "each small refreeze hits the plan cache"
        );
        assert_eq!(p.plans_searched, 1);
        // A delta far past the threshold bumps the epoch: a fresh search.
        let delta = Relation::from_pairs((0..40).map(|k| (k % 3, k + 50)));
        let r2 = frozen
            .build_context()
            .insert_rows(&current.get_shared("R2").unwrap(), &delta);
        current = current.with_relation_shared("R2", r2);
        let next = frozen.refreeze(&current).unwrap();
        assert_eq!(collect(&next), naive_set(text, &current));
        let q = next.planner_stats();
        assert_eq!(q.plans_searched, 2, "churned stats force a re-search");
        assert_eq!(q.plan_cache_hits, 2);
        assert!(q.candidates_costed > p.candidates_costed);
    }

    #[test]
    fn refreeze_with_no_changes_shares_the_snapshot() {
        let eng = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
        let i = inst(&[("R", vec![(1, 2)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        let next = frozen.refreeze(&i.clone()).unwrap();
        assert!(
            CtxView::ptr_eq(&frozen.ctx, &next.ctx),
            "no-op refreeze shares the snapshot"
        );
        assert_eq!(collect(&next), collect(&frozen));
    }

    #[test]
    fn refreeze_union_strategy_after_delete() {
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5), (9, 7)]),
            ("R2", vec![(2, 3), (5, 3), (7, 0)]),
            ("R3", vec![(3, 4), (3, 6), (0, 2)]),
        ]);
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));

        let ctx = frozen.build_context();
        let r1 = ctx.delete_rows(
            &i.get_shared("R1").unwrap(),
            &Relation::from_pairs([(9, 7)]),
        );
        let r1 = ctx.insert_rows(&r1, &Relation::from_pairs([(8, 2)]));
        let i2 = i.with_relation_shared("R1", r1);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(collect(&frozen), naive_set(text, &i), "old epoch intact");
    }

    #[test]
    fn refreeze_naive_strategy_rematerializes() {
        let text = "Q(x, y) <- A(x, z), B(z, y)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Naive);
        let i = inst(&[("A", vec![(1, 2)]), ("B", vec![(2, 3)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        let a2 = frozen
            .build_context()
            .insert_rows(&i.get_shared("A").unwrap(), &Relation::from_pairs([(7, 2)]));
        let i2 = i.with_relation_shared("A", a2);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(collect(&frozen), naive_set(text, &i));
    }

    #[test]
    fn redundant_member_gets_no_stages() {
        // Example 1 shape: Q1 ⊆ Q2, and Q1 alone is cyclic (it would be
        // hopeless to plan). Union minimization must drop it before any
        // stage is planned: the executed plan has zero materializations and
        // zero chosen atoms for the surviving member.
        let u = parse_ucq(
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
        )
        .unwrap();
        let eng = UcqEngine::new(u);
        assert_eq!(
            eng.classification().minimized.len(),
            1,
            "the subsumed member is gone before planning"
        );
        let Verdict::FreeConnex { plan } = &eng.classification().verdict else {
            panic!("minimized union is free-connex");
        };
        assert!(!plan.needs_extension(), "no stages for a redundant union");
        assert!(plan.atoms.is_empty());
    }
}

#[cfg(test)]
mod decide_tests {
    use super::*;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    #[test]
    fn decide_free_connex_union() {
        let u = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap();
        let eng = UcqEngine::new(u);
        let yes: Instance = [
            ("R", Relation::new(2)),
            ("S", Relation::from_pairs([(1, 1)])),
        ]
        .into_iter()
        .collect();
        assert!(eng.decide(&yes).unwrap());
        let no: Instance = [("R", Relation::new(2)), ("S", Relation::new(2))]
            .into_iter()
            .collect();
        assert!(!eng.decide(&no).unwrap());
    }

    #[test]
    fn decide_via_enumeration_for_hard_queries() {
        let u = parse_ucq("Q(x, y) <- A(x, z), B(z, y)").unwrap();
        let eng = UcqEngine::new(u);
        let yes: Instance = [
            ("A", Relation::from_pairs([(1, 2)])),
            ("B", Relation::from_pairs([(2, 3)])),
        ]
        .into_iter()
        .collect();
        assert!(eng.decide(&yes).unwrap());
        let no: Instance = [
            ("A", Relation::from_pairs([(1, 2)])),
            ("B", Relation::from_pairs([(9, 3)])),
        ]
        .into_iter()
        .collect();
        assert!(!eng.decide(&no).unwrap());
    }
}
