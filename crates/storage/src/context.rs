//! Per-instance evaluation contexts: one dictionary, one set of caches.
//!
//! Every evaluation pipeline in the workspace (Algorithm 1, the Theorem 12
//! union pipeline, the CDY membership tester, the naive baseline) used to
//! re-intern, re-normalize and re-index the same stored relations once per
//! member CQ and once per call. [`CtxView`] is the session object that
//! makes that work shared:
//!
//! * a [`Dictionary`] interning all values seen by the session;
//! * an interned-relation cache: the columnar [`IdRel`] mirror of each
//!   stored [`Relation`], built once per relation;
//! * a derived-relation cache: atom-normalized projections (sorted columns,
//!   repeated-variable filtering) keyed by `(relation, signature)` — shared
//!   whenever two atoms, possibly in *different* member CQs, read the same
//!   relation with the same argument shape;
//! * an index cache: [`HashIndex`]es keyed by `(relation, key_cols)`,
//!   shared across member CQs and across repeated evaluations — requesting
//!   the same pair twice returns the *same* index object (`Arc::ptr_eq`).
//!
//! Relations are identified by the address of their shared
//! [`Arc<Relation>`] handle (instances hand out [`Arc`]s; overlay instances
//! share them), and every cache entry holds a clone of the `Arc`, so an
//! address can never be reused while it is a cache key.
//!
//! Every context is an immutable **base** (see [`crate::frozen`]) plus one
//! mutex-guarded **overlay** holding the same dictionary and caches, with
//! ids at and above the base's length (the *watermark*). Each method tries
//! a base hit (no lock), then an overlay hit, then builds into the
//! overlay. A fresh context ([`CtxView::new`]) has an empty base, so all of
//! its preprocessing lands in the overlay; [`CtxView::freeze`] folds base
//! ∪ overlay into the base of a fresh handle, on which the hot-path reads
//! take no lock at all, so any number of enumeration threads can decode,
//! probe and dedup against it concurrently.

use crate::dictionary::{Dictionary, ValueId};
use crate::frozen::Base;
use crate::hash::FastMap;
use crate::idrel::{normalize_ranked, normalize_ranked_append, IdRel, IdSet};
use crate::index::{HashIndex, RowSet};
use crate::key::InlineKey;
use crate::relation::Relation;
use crate::stats::RelStats;
use crate::sync::{
    lock_unpoisoned, AtomicBool, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering,
};
use crate::tuple::Tuple;
use crate::value::Value;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Cache-hit/miss counters (diagnostics; also used by tests to assert
/// sharing actually happens).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Interned-relation cache hits.
    pub interned_hits: usize,
    /// Interned-relation cache misses (builds).
    pub interned_builds: usize,
    /// Derived-relation cache hits.
    pub derived_hits: usize,
    /// Derived-relation cache misses (builds).
    pub derived_builds: usize,
    /// Index cache hits.
    pub index_hits: usize,
    /// Index cache misses (builds).
    pub index_builds: usize,
}

/// Counters over the session's delta-ingestion traffic
/// ([`CtxView::insert_rows`]/[`CtxView::delete_rows`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// `insert_rows` calls that changed anything.
    pub inserts: usize,
    /// `delete_rows` calls that changed anything.
    pub deletes: usize,
    /// Rows appended across all deltas.
    pub rows_inserted: usize,
    /// Rows removed (value level) across all deletes.
    pub rows_deleted: usize,
    /// Cached indexes carried to a successor mirror by CSR merge instead
    /// of being rebuilt.
    pub indexes_merged: usize,
    /// Cached normalizations carried to a successor mirror by delta-append
    /// ([`normalize_ranked_append`]) instead of being rebuilt.
    pub derived_carried: usize,
    /// Stats-epoch bumps forced by cumulative churn crossing the
    /// re-planning threshold.
    pub epoch_bumps: usize,
}

/// Per-relation churn diagnostics read off the interned mirror — the
/// numbers `ucq explain` reports so segment/tombstone bloat is observable
/// before compaction ships.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RelChurn {
    /// CSR/columnar segments (base build + appended deltas).
    pub segments: usize,
    /// Live (visible) rows.
    pub live_rows: usize,
    /// Tombstoned rows still occupying physical slots.
    pub dead_rows: usize,
    /// `dead / (live + dead)`.
    pub tombstone_fraction: f64,
}

/// Cumulative churn on one relation lineage since its last stats-epoch
/// bump; when `churned` reaches [`CHURN_REPLAN_PERCENT`] of `base`, the
/// epoch bumps so cached plans go stale and the planner re-costs against
/// fresh statistics.
#[derive(Clone, Copy, Debug, Default)]
struct IngestLedger {
    churned: usize,
    base: usize,
}

/// Re-plan once cumulative churn reaches this percentage of the base
/// cardinality the current plan generation was costed against.
pub const CHURN_REPLAN_PERCENT: usize = 25;

/// An interned-relation entry: the pinning handle and its mirror.
pub(crate) type InternedEntry = (Arc<Relation>, Arc<IdRel>);
/// A derived-relation key: relation identity plus signature.
pub(crate) type DerivedKey = (usize, Box<[u32]>);
/// An index-cache key: relation identity (pinned `Arc` address) plus key
/// columns.
pub(crate) type IndexKey = (usize, Box<[usize]>);
/// An index-cache entry: the pinning handle and the shared index.
pub(crate) type IndexEntry = (Arc<IdRel>, Arc<HashIndex>);
/// A stats-cache entry: the pinning handle and the shared stats.
pub(crate) type StatsEntry = (Arc<IdRel>, Arc<RelStats>);
/// A plan-cache key: `(query fingerprint, stats epoch)`.
pub(crate) type PlanKey = (u64, u64);

/// A type-erased cached plan. The planner lives downstream of storage, so
/// the context stores plans as `Arc<dyn Any>` and the planner downcasts on
/// retrieval; this wrapper exists only to give the cache maps a `Debug`
/// impl.
#[derive(Clone)]
pub(crate) struct PlanSlot(pub(crate) Arc<dyn Any + Send + Sync>);

impl fmt::Debug for PlanSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanSlot(..)")
    }
}

/// A cached overlay normalization: the derived relation, plus — for
/// entries built through [`CtxView::normalized_rel`] — the dedup set that
/// makes the entry delta-appendable when its base relation churns.
/// Closure-built entries ([`CtxView::derived_rel`]) carry `None`, and a
/// fold keeps only the relation.
type DerivedEntry = (Arc<IdRel>, Option<Arc<IdSet>>);

/// The mutable half of a context: the base's caches again, for entries
/// built since the base was folded, plus the ingestion bookkeeping.
#[derive(Debug)]
pub(crate) struct Overlay {
    /// A layer over the base dictionary ([`Dictionary::over`]). Shared
    /// copy-on-write with a base folded from it: the first write after
    /// such a fold copies the table, a fold after interning nothing shares
    /// it again.
    pub(crate) dict: Arc<Dictionary>,
    pub(crate) interned: FastMap<usize, InternedEntry>,
    pub(crate) derived: FastMap<DerivedKey, DerivedEntry>,
    pub(crate) indexes: FastMap<IndexKey, IndexEntry>,
    pub(crate) rel_stats: FastMap<usize, StatsEntry>,
    pub(crate) plans: FastMap<PlanKey, PlanSlot>,
    /// Successor `Arc<Relation>` address → churn accumulated on that
    /// lineage since its last epoch bump.
    churn: FastMap<usize, IngestLedger>,
    ingest: IngestStats,
}

impl Overlay {
    /// Whether nothing was interned, cached or ingested here.
    pub(crate) fn is_empty(&self) -> bool {
        self.dict.own_len() == 0
            && self.interned.is_empty()
            && self.derived.is_empty()
            && self.indexes.is_empty()
            && self.rel_stats.is_empty()
            && self.plans.is_empty()
            && self.churn.is_empty()
            && self.ingest == IngestStats::default()
    }
}

/// Cache counters since the base was folded (atomics: base hits take no
/// lock).
#[derive(Debug, Default)]
struct Counters {
    interned_hits: AtomicUsize,
    interned_builds: AtomicUsize,
    derived_hits: AtomicUsize,
    derived_builds: AtomicUsize,
    index_hits: AtomicUsize,
    index_builds: AtomicUsize,
}

fn bump(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug)]
struct Ctx {
    base: Base,
    overlay: Mutex<Overlay>,
    /// Set once the overlay dictionary holds values of its own, and only
    /// after they are in place (flag last, under the overlay lock), so a
    /// clear flag lets negative lookups and decodes skip the lock.
    has_overflow: AtomicBool,
    /// Stats-epoch bumps since the base was folded. `Relaxed` throughout:
    /// the epoch only versions plan-cache keys and publishes no data.
    epoch_bumps: AtomicU64,
    counters: Counters,
}

/// The per-instance evaluation context: an immutable base plus one
/// overlay (see the module docs). Cloning is an `Arc` bump, and clones
/// share the overlay; the handle is `Send + Sync`.
#[derive(Clone, Debug)]
pub struct CtxView(Arc<Ctx>);

/// The overlay lock, taken lazily and then held for the rest of a
/// multi-value call, so such a call locks at most once.
type LazyGuard<'a> = Option<MutexGuard<'a, Overlay>>;

impl CtxView {
    /// A fresh context: an empty base, so everything lands in the overlay.
    pub fn new() -> CtxView {
        CtxView::with_base(Base::empty())
    }

    /// A handle over `base` with an empty overlay.
    pub(crate) fn with_base(base: Base) -> CtxView {
        let dict = Arc::new(Dictionary::over(Arc::clone(&base.dict)));
        let has_overflow = dict.own_len() > 0;
        let overlay = Overlay {
            dict,
            interned: FastMap::default(),
            derived: FastMap::default(),
            indexes: FastMap::default(),
            rel_stats: FastMap::default(),
            plans: FastMap::default(),
            churn: FastMap::default(),
            ingest: IngestStats::default(),
        };
        CtxView(Arc::new(Ctx {
            base,
            overlay: Mutex::new(overlay),
            has_overflow: AtomicBool::new(has_overflow),
            epoch_bumps: AtomicU64::new(0),
            counters: Counters::default(),
        }))
    }

    /// Whether `a` and `b` are the same handle (clones of one context).
    pub fn ptr_eq(a: &CtxView, b: &CtxView) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    #[inline]
    pub(crate) fn base(&self) -> &Base {
        &self.0.base
    }

    /// The overlay lock. Recovers from poisoning: every mutation below
    /// completes an insert before it is published, so a panicked peer
    /// cannot leave the maps in a torn state worth abandoning the session
    /// over.
    #[inline]
    pub(crate) fn overlay(&self) -> MutexGuard<'_, Overlay> {
        lock_unpoisoned(&self.0.overlay, "the context overlay")
    }

    /// Marks the overlay dictionary non-empty for lock-free readers; called
    /// under the overlay lock once new values are in place.
    fn publish(&self, ov: &Overlay) {
        if ov.dict.own_len() > 0 {
            self.0.has_overflow.store(true, Ordering::Release);
        }
    }

    /// `v`'s id: a base hit takes no lock; a miss interns into the overlay.
    ///
    /// The `faults::force_overlay_miss` chaos hook (inert outside
    /// `--cfg ucq_fault_inject`) skips the base so the call takes the
    /// overlay lock; the overlay dictionary falls through to the base, so
    /// the result is identical.
    fn intern_with<'a>(&'a self, v: Value, ov: &mut LazyGuard<'a>) -> ValueId {
        if !crate::faults::force_overlay_miss() {
            if let Some(id) = self.0.base.dict.lookup(v) {
                return id;
            }
        }
        let ov = ov.get_or_insert_with(|| self.overlay());
        if let Some(id) = ov.dict.lookup(v) {
            return id;
        }
        let id = Arc::make_mut(&mut ov.dict).intern(v);
        self.publish(ov);
        id
    }

    /// `v`'s id if the context has seen it; the overlay is consulted only
    /// once it holds values (same chaos hook as `intern_with`).
    fn lookup_with<'a>(&'a self, v: Value, ov: &mut LazyGuard<'a>) -> Option<ValueId> {
        if !crate::faults::force_overlay_miss() {
            if let Some(id) = self.0.base.dict.lookup(v) {
                return Some(id);
            }
            if !self.0.has_overflow.load(Ordering::Acquire) {
                return None;
            }
        }
        ov.get_or_insert_with(|| self.overlay()).dict.lookup(v)
    }

    /// Decodes `id`: lock-free below the watermark.
    #[inline]
    fn decode_with<'a>(&'a self, id: ValueId, ov: &mut LazyGuard<'a>) -> Value {
        let base = &self.0.base.dict;
        if id.index() < base.len() {
            return base.value(id);
        }
        ov.get_or_insert_with(|| self.overlay()).dict.value(id)
    }

    /// The table that decodes every id of a run with a plain index, if
    /// there is one: the base's while the overlay holds no values, or the
    /// overlay's (locked into `held`) when the base is empty. Otherwise a
    /// run decodes id by id through `decode_with`.
    fn flat_table<'s: 'g, 'g>(&'s self, held: &'g mut LazyGuard<'s>) -> Option<&'g [Value]> {
        if !self.0.has_overflow.load(Ordering::Acquire) {
            return Some(self.0.base.dict.table());
        }
        if self.is_frozen() {
            return None;
        }
        Some(held.insert(self.overlay()).dict.table())
    }

    /// Interns one value.
    #[inline]
    pub fn intern(&self, v: Value) -> ValueId {
        self.intern_with(v, &mut None)
    }

    /// The id of `v` if the session has seen it (no allocation).
    #[inline]
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        self.lookup_with(v, &mut None)
    }

    /// Decodes one id.
    #[inline]
    pub fn decode(&self, id: ValueId) -> Value {
        self.decode_with(id, &mut None)
    }

    /// Decodes a sequence of ids into an answer [`Tuple`] — the per-answer
    /// emission path. Chaos hook: one `faults::on_decode` visit per call.
    #[inline]
    pub fn decode_tuple<I: IntoIterator<Item = ValueId>>(&self, ids: I) -> Tuple {
        crate::faults::on_decode();
        let (mut held, mut ov) = (None, None);
        let ids = ids.into_iter();
        Tuple(match self.flat_table(&mut held) {
            Some(table) => ids.map(|id| table[id.index()]).collect(),
            None => ids.map(|id| self.decode_with(id, &mut ov)).collect(),
        })
    }

    /// Decodes a flat run of id rows (`width` ids per row) into answer
    /// [`Tuple`]s — the bulk analogue of [`CtxView::decode_tuple`] for
    /// materialized answer tables. Chaos hook: one `faults::on_decode`
    /// visit per block.
    pub fn decode_rows(&self, width: usize, ids: &[ValueId]) -> Vec<Tuple> {
        crate::faults::on_decode();
        if width == 0 {
            return vec![Tuple::empty(); ids.len()];
        }
        debug_assert_eq!(ids.len() % width, 0, "partial row in flat table");
        fn rows(
            width: usize,
            ids: &[ValueId],
            mut value: impl FnMut(ValueId) -> Value,
        ) -> Vec<Tuple> {
            ids.chunks_exact(width)
                .map(|row| Tuple(row.iter().map(|&id| value(id)).collect()))
                .collect()
        }
        let (mut held, mut ov) = (None, None);
        match self.flat_table(&mut held) {
            Some(table) => rows(width, ids, |id| table[id.index()]),
            None => rows(width, ids, |id| self.decode_with(id, &mut ov)),
        }
    }

    /// Decodes an interned relation back to a row-major [`Relation`]
    /// (answer-boundary only).
    pub fn decode_rel(&self, rel: &IdRel) -> Relation {
        if !self.0.has_overflow.load(Ordering::Acquire) {
            return rel.decode(&self.0.base.dict);
        }
        rel.decode(&self.overlay().dict)
    }

    /// Looks up every value of `row` into `out` (cleared first) without
    /// interning; returns `false` if any value is unknown to the session —
    /// in which case it cannot occur in any cached relation.
    pub fn lookup_row(&self, row: &[Value], out: &mut Vec<ValueId>) -> bool {
        out.clear();
        let mut ov = None;
        for &v in row {
            match self.lookup_with(v, &mut ov) {
                Some(id) => out.push(id),
                None => return false,
            }
        }
        true
    }

    /// Interns a decoded row into an [`InlineKey`] (used for answer-side
    /// dedup without boxing small tuples).
    pub fn intern_key(&self, row: &[Value]) -> InlineKey {
        let mut ov = None;
        let mut buf = [ValueId::BOTTOM; InlineKey::INLINE];
        if row.len() <= InlineKey::INLINE {
            for (slot, &v) in buf.iter_mut().zip(row) {
                *slot = self.intern_with(v, &mut ov);
            }
            InlineKey::Inline {
                len: row.len() as u8,
                ids: buf,
            }
        } else {
            InlineKey::Spilled(row.iter().map(|&v| self.intern_with(v, &mut ov)).collect())
        }
    }

    /// The interned columnar mirror of `rel`, built on first request (under
    /// one overlay lock; large relations intern in parallel, see
    /// [`IdRel::from_relation`]). A build bumps the stats epoch.
    pub fn interned_rel(&self, rel: &Arc<Relation>) -> Arc<IdRel> {
        let key = Arc::as_ptr(rel) as usize;
        let counters = &self.0.counters;
        if let Some((_pin, r)) = self.0.base.interned.get(&key) {
            bump(&counters.interned_hits);
            return Arc::clone(r);
        }
        let mut ov = self.overlay();
        if let Some((_pin, r)) = ov.interned.get(&key) {
            bump(&counters.interned_hits);
            return Arc::clone(r);
        }
        bump(&counters.interned_builds);
        self.0.epoch_bumps.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(IdRel::from_relation(rel, Arc::make_mut(&mut ov.dict)));
        self.publish(&ov);
        ov.interned
            .insert(key, (Arc::clone(rel), Arc::clone(&built)));
        built
    }

    /// Registers a pre-interned mirror for `rel`, so later
    /// [`CtxView::interned_rel`] requests hit the cache instead of
    /// re-interning every cell. Used by pipelines that *produce* a
    /// relation on the id layer (Lemma 8 materialization) and hand the
    /// decoded value form to an instance: the ids are already under this
    /// context's dictionary, so the decode → re-intern round trip is pure
    /// waste. `id_rel` must be the row-for-row mirror of `rel` under this
    /// context's dictionary.
    pub fn register_interned(&self, rel: &Arc<Relation>, id_rel: Arc<IdRel>) {
        debug_assert_eq!(
            rel.len(),
            id_rel.live_len(),
            "mirror must match live row count"
        );
        // No epoch bump: registrations are pipeline-produced mirrors of
        // derived data (Lemma 8 materializations), not new base relations —
        // bumping here would invalidate the plan cache on every prepare.
        self.overlay()
            .interned
            .insert(Arc::as_ptr(rel) as usize, (Arc::clone(rel), id_rel));
    }

    /// A relation derived from `rel` by a pure id-level transformation
    /// described by `sig` (e.g. an atom-normalization signature): cached by
    /// `(relation, sig)`, built by `build` from the interned mirror on
    /// first request.
    pub fn derived_rel(
        &self,
        rel: &Arc<Relation>,
        sig: &[u32],
        build: impl FnOnce(&IdRel) -> IdRel,
    ) -> Arc<IdRel> {
        self.derived_or_build(rel, sig, |base| (build(base), None))
    }

    /// The cached atom-normalization of `rel` under the rank signature
    /// `sig` ([`normalize_ranked`]): rows whose repeated positions agree,
    /// projected to one column per distinct rank, deduplicated. Shares the
    /// `(relation, sig)` cache with [`CtxView::derived_rel`], but also
    /// keeps the dedup set, so [`CtxView::insert_rows`] can carry the
    /// entry across a delta append by normalizing only the delta segment
    /// instead of re-hashing the whole relation.
    pub fn normalized_rel(&self, rel: &Arc<Relation>, sig: &[u32]) -> Arc<IdRel> {
        self.derived_or_build(rel, sig, |base| {
            let (out, seen) = normalize_ranked(base, sig);
            (out, Some(Arc::new(seen)))
        })
    }

    fn derived_or_build(
        &self,
        rel: &Arc<Relation>,
        sig: &[u32],
        build: impl FnOnce(&IdRel) -> (IdRel, Option<Arc<IdSet>>),
    ) -> Arc<IdRel> {
        let key: DerivedKey = (Arc::as_ptr(rel) as usize, sig.into());
        let counters = &self.0.counters;
        let found = match self.0.base.derived.get(&key) {
            Some(r) => Some(Arc::clone(r)),
            None => self.overlay().derived.get(&key).map(|(r, _)| Arc::clone(r)),
        };
        if let Some(r) = found {
            bump(&counters.derived_hits);
            return r;
        }
        // Build outside the lock: `interned_rel` takes it, and `build` may
        // re-enter the context (e.g. for nested lookups). A racing build of
        // the same key loses to the first insert.
        let (out, seen) = build(&self.interned_rel(rel));
        bump(&counters.derived_builds);
        let mut ov = self.overlay();
        Arc::clone(&ov.derived.entry(key).or_insert((Arc::new(out), seen)).0)
    }

    /// The cached index over `rel` keyed on `key_cols`.
    pub fn index(&self, rel: &Arc<IdRel>, key_cols: &[usize]) -> Arc<HashIndex> {
        let key: IndexKey = (Arc::as_ptr(rel) as usize, key_cols.into());
        let counters = &self.0.counters;
        if let Some((_pin, idx)) = self.0.base.indexes.get(&key) {
            bump(&counters.index_hits);
            return Arc::clone(idx);
        }
        let mut ov = self.overlay();
        if let Some((_pin, idx)) = ov.indexes.get(&key) {
            bump(&counters.index_hits);
            return Arc::clone(idx);
        }
        bump(&counters.index_builds);
        let idx = Arc::new(HashIndex::build(rel, key_cols));
        ov.indexes.insert(key, (Arc::clone(rel), Arc::clone(&idx)));
        idx
    }

    /// The mirror cached for the relation at `key`, if any (no counters).
    fn mirror_of(&self, ov: &Overlay, key: usize) -> Option<Arc<IdRel>> {
        self.0
            .base
            .interned
            .get(&key)
            .or_else(|| ov.interned.get(&key))
            .map(|(_pin, m)| Arc::clone(m))
    }

    /// Appends `delta` to `rel`, returning the successor `Arc<Relation>`
    /// handle — O(Δ) end-to-end when `rel` is interned: only the delta's
    /// cells are interned ([`IdRel::append_delta`]), every cached index is
    /// carried over by CSR segment merge ([`HashIndex::merge_appended`]),
    /// and the fresh `Arc` identity invalidates exactly this relation's
    /// normalization/stats entries (cache keys are `Arc` addresses).
    /// Overlay entries of `rel` are dropped; base entries stay, so readers
    /// of the old relation keep their mirror and indexes untouched.
    ///
    /// Cumulative churn past [`CHURN_REPLAN_PERCENT`] of the relation's
    /// base cardinality bumps the stats epoch, so stale cost-based plans
    /// are re-costed. An empty delta returns `rel` unchanged.
    pub fn insert_rows(&self, rel: &Arc<Relation>, delta: &Relation) -> Arc<Relation> {
        assert_eq!(delta.arity(), rel.arity(), "delta arity mismatch");
        if delta.is_empty() {
            return Arc::clone(rel);
        }
        let mut next = (**rel).clone();
        for row in delta.iter_rows() {
            next.push_row(row);
        }
        let next = Arc::new(next);
        let mut ov = self.overlay();
        let ov = &mut *ov;
        ov.ingest.inserts += 1;
        ov.ingest.rows_inserted += delta.len();
        let old_key = Arc::as_ptr(rel) as usize;
        let new_key = Arc::as_ptr(&next) as usize;
        let Some(old) = self.mirror_of(ov, old_key) else {
            // Never interned: nothing cached to carry. The first
            // `interned_rel` on the successor pays the (full) build and
            // bumps the epoch as any new base relation does.
            self.note_churn(ov, old_key, new_key, delta.len(), rel.len(), next.len());
            return next;
        };
        let mut mirror = (*old).clone();
        mirror.append_delta(delta, Arc::make_mut(&mut ov.dict));
        self.publish(ov);
        let mirror = Arc::new(mirror);
        // Normalizations built with their dedup set carry over: append
        // the delta segment's normalization to a copy of the old entry
        // ([`normalize_ranked_append`] is prefix-compositional), so the
        // successor's first prepare re-hashes Δ rows, not the relation.
        // Closure-built and base entries (no set) are rebuilt on demand.
        let carried: Vec<_> = ov
            .derived
            .iter()
            .filter_map(|((p, sig), (drel, seen))| match seen {
                Some(seen) if *p == old_key => {
                    Some((sig.clone(), Arc::clone(drel), Arc::clone(seen)))
                }
                _ => None,
            })
            .collect();
        for (sig, drel, dseen) in carried {
            let mut out = (*drel).clone();
            let mut seen = (*dseen).clone();
            normalize_ranked_append(&mirror, &sig, old.len(), &mut out, &mut seen);
            ov.ingest.derived_carried += 1;
            ov.derived
                .insert((new_key, sig), (Arc::new(out), Some(Arc::new(seen))));
        }
        self.install_successor(ov, old_key, &next, &old, mirror, delta.len());
        next
    }

    /// Removes every row of `rel` equal to a row of `victims`, returning
    /// the successor `Arc<Relation>` handle. The value-level successor is
    /// compact; the interned mirror keeps its physical layout and marks
    /// the victims in a tombstone bitmap ([`IdRel::mark_deleted_where`]),
    /// so cached CSR indexes merge over ([`HashIndex::merge_appended`]
    /// drops dead rows from the arena) instead of rebuilding. Victim rows
    /// containing values the session never interned match nothing. An
    /// empty victim set returns `rel` unchanged.
    pub fn delete_rows(&self, rel: &Arc<Relation>, victims: &Relation) -> Arc<Relation> {
        assert_eq!(victims.arity(), rel.arity(), "victim arity mismatch");
        if victims.is_empty() {
            return Arc::clone(rel);
        }
        let victim_set = RowSet::build(victims);
        let mut next = (**rel).clone();
        next.retain_rows(|row| !victim_set.contains(row));
        let removed = rel.len() - next.len();
        let next = Arc::new(next);
        let mut ov = self.overlay();
        let ov = &mut *ov;
        ov.ingest.deletes += 1;
        ov.ingest.rows_deleted += removed;
        let old_key = Arc::as_ptr(rel) as usize;
        let new_key = Arc::as_ptr(&next) as usize;
        let Some(old) = self.mirror_of(ov, old_key) else {
            self.note_churn(ov, old_key, new_key, removed, rel.len(), next.len());
            return next;
        };
        let mut mirror = (*old).clone();
        // Id-level victim keys through lookup only: values the session
        // has never seen cannot occur in the mirror.
        let mut ids = IdSet::new();
        let mut buf: Vec<ValueId> = Vec::with_capacity(victims.arity());
        'rows: for row in victims.iter_rows() {
            buf.clear();
            for &v in row {
                match ov.dict.lookup(v) {
                    Some(id) => buf.push(id),
                    None => continue 'rows,
                }
            }
            ids.insert(&buf);
        }
        let killed = mirror.mark_deleted_where(|row| ids.contains(row));
        debug_assert_eq!(killed, removed, "mirror and value rows agree");
        self.install_successor(ov, old_key, &next, &old, Arc::new(mirror), killed);
        next
    }

    /// Installs `mirror` as the cached mirror of `next`, the churned
    /// successor of the relation at `old_key` (whose mirror was `old`):
    /// retires the old overlay entries, carries every cached index of
    /// `old` by CSR merge, and charges `changed` rows to the lineage's
    /// churn ledger.
    fn install_successor(
        &self,
        ov: &mut Overlay,
        old_key: usize,
        next: &Arc<Relation>,
        old: &Arc<IdRel>,
        mirror: Arc<IdRel>,
        changed: usize,
    ) {
        let new_key = Arc::as_ptr(next) as usize;
        let old_ptr = Arc::as_ptr(old) as usize;
        let new_ptr = Arc::as_ptr(&mirror) as usize;
        ov.interned.remove(&old_key);
        ov.derived.retain(|(p, _), _| *p != old_key);
        ov.rel_stats.remove(&old_ptr);
        let keys: Vec<IndexKey> = self
            .0
            .base
            .indexes
            .keys()
            .chain(ov.indexes.keys())
            .filter(|(p, _)| *p == old_ptr)
            .cloned()
            .collect();
        for key in keys {
            let idx = match ov.indexes.remove(&key) {
                Some((_pin, idx)) => idx,
                None => Arc::clone(&self.0.base.indexes[&key].1),
            };
            let merged = Arc::new(idx.merge_appended(&mirror, old.len()));
            ov.indexes
                .insert((new_ptr, key.1), (Arc::clone(&mirror), merged));
            ov.ingest.indexes_merged += 1;
        }
        let live_now = mirror.live_len();
        ov.interned.insert(new_key, (Arc::clone(next), mirror));
        self.note_churn(ov, old_key, new_key, changed, old.live_len(), live_now);
    }

    /// Moves the churn ledger from `old_key` to `new_key`, adding
    /// `changed` churned rows. A fresh lineage starts from `base_before`
    /// (the pre-change live cardinality — what any cached plan was costed
    /// against). Crossing [`CHURN_REPLAN_PERCENT`] bumps the stats epoch
    /// and re-bases the ledger on `live_now`.
    fn note_churn(
        &self,
        ov: &mut Overlay,
        old_key: usize,
        new_key: usize,
        changed: usize,
        base_before: usize,
        live_now: usize,
    ) {
        let mut led = ov.churn.remove(&old_key).unwrap_or(IngestLedger {
            churned: 0,
            base: base_before,
        });
        led.churned += changed;
        if led.churned * 100 >= led.base.max(1) * CHURN_REPLAN_PERCENT {
            self.0.epoch_bumps.fetch_add(1, Ordering::Relaxed);
            ov.ingest.epoch_bumps += 1;
            led = IngestLedger {
                churned: 0,
                base: live_now,
            };
        }
        ov.churn.insert(new_key, led);
    }

    /// Churn diagnostics for `rel`, if its mirror is interned: segment
    /// count, live/dead rows, tombstone fraction.
    pub fn churn_of(&self, rel: &Arc<Relation>) -> Option<RelChurn> {
        let m = self.mirror_of(&self.overlay(), Arc::as_ptr(rel) as usize)?;
        Some(RelChurn {
            segments: m.n_segments(),
            live_rows: m.live_len(),
            dead_rows: m.n_dead(),
            tombstone_fraction: m.tombstone_fraction(),
        })
    }

    /// Snapshot of the delta-ingestion counters since the base was folded.
    pub fn ingest_stats(&self) -> IngestStats {
        self.overlay().ingest
    }

    /// The cached [`RelStats`] of `rel`, computed on first request. Columns
    /// with an already-built single-column index are harvested straight off
    /// its CSR offsets; the rest are counted in one pass per column.
    pub fn rel_stats(&self, rel: &Arc<IdRel>) -> Arc<RelStats> {
        let key = Arc::as_ptr(rel) as usize;
        let base = &self.0.base;
        if let Some((_pin, s)) = base.rel_stats.get(&key) {
            return Arc::clone(s);
        }
        let mut ov = self.overlay();
        if let Some((_pin, s)) = ov.rel_stats.get(&key) {
            return Arc::clone(s);
        }
        let stats = Arc::new(RelStats::compute_with(rel, |c| {
            let ikey: IndexKey = (key, [c].as_slice().into());
            base.indexes
                .get(&ikey)
                .or_else(|| ov.indexes.get(&ikey))
                .map(|(_pin, i)| RelStats::column_from_index(i))
        }));
        ov.rel_stats
            .insert(key, (Arc::clone(rel), Arc::clone(&stats)));
        stats
    }

    /// The current stats epoch: bumped whenever a *new* base relation is
    /// interned, so `(fingerprint, epoch)` plan-cache keys go stale the
    /// moment the underlying instance data changes. Registrations of
    /// derived mirrors do not bump it.
    pub fn stats_epoch(&self) -> u64 {
        self.0.base.epoch + self.0.epoch_bumps.load(Ordering::Relaxed)
    }

    /// The cached plan stored under `(fingerprint, epoch)`, if any. The
    /// planner downcasts the returned `Arc<dyn Any>` to its own plan type.
    pub fn cached_plan(&self, fingerprint: u64, epoch: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        let key = (fingerprint, epoch);
        let slot = match self.0.base.plans.get(&key) {
            Some(slot) => slot.clone(),
            None => self.overlay().plans.get(&key)?.clone(),
        };
        Some(slot.0)
    }

    /// Stores a type-erased plan under `(fingerprint, epoch)`.
    pub fn store_plan(&self, fingerprint: u64, epoch: u64, plan: Arc<dyn Any + Send + Sync>) {
        self.overlay()
            .plans
            .insert((fingerprint, epoch), PlanSlot(plan));
    }

    /// Number of distinct values known (base plus overlay).
    pub fn dict_len(&self) -> usize {
        if !self.0.has_overflow.load(Ordering::Acquire) {
            return self.0.base.dict.len();
        }
        self.overlay().dict.len()
    }

    /// Whether the overlay dictionary holds any value of its own.
    pub fn has_overflowed(&self) -> bool {
        self.0.has_overflow.load(Ordering::Acquire)
    }

    /// Cache counters: the totals at the last fold plus activity since.
    pub fn stats(&self) -> ContextStats {
        let base = self.0.base.stats;
        let c = &self.0.counters;
        let load = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        ContextStats {
            interned_hits: base.interned_hits + load(&c.interned_hits),
            interned_builds: base.interned_builds + load(&c.interned_builds),
            derived_hits: base.derived_hits + load(&c.derived_hits),
            derived_builds: base.derived_builds + load(&c.derived_builds),
            index_hits: base.index_hits + load(&c.index_hits),
            index_builds: base.index_builds + load(&c.index_builds),
        }
    }
}

impl Default for CtxView {
    fn default() -> CtxView {
        CtxView::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_pairs(pairs: &[(i64, i64)]) -> Arc<Relation> {
        Arc::new(Relation::from_pairs(pairs.iter().copied()))
    }

    /// A fresh handle and a frozen one whose base already holds some of
    /// the tests' values, so phase-independent assertions run over both
    /// an empty base and a mix of base and overlay ids.
    fn fresh_and_frozen() -> [CtxView; 2] {
        let seed = CtxView::new();
        seed.intern(Value::Int(1));
        seed.intern(Value::Int(2));
        [CtxView::new(), seed.freeze()]
    }

    #[test]
    fn interned_rel_is_cached() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 2), (3, 4)]);
            let a = ctx.interned_rel(&rel);
            let b = ctx.interned_rel(&rel);
            assert!(Arc::ptr_eq(&a, &b), "same physical IdRel");
            assert_eq!(ctx.stats().interned_builds, 1);
            assert_eq!(ctx.stats().interned_hits, 1);
        }
    }

    #[test]
    fn index_cache_returns_same_object() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 2), (1, 3), (2, 4)]);
            let id_rel = ctx.interned_rel(&rel);
            let a = ctx.index(&id_rel, &[0]);
            let b = ctx.index(&id_rel, &[0]);
            assert!(Arc::ptr_eq(&a, &b), "repeated requests share one index");
            let c = ctx.index(&id_rel, &[1]);
            assert!(!Arc::ptr_eq(&a, &c), "different key_cols, different index");
            let s = ctx.stats();
            assert_eq!(s.index_builds, 2);
            assert_eq!(s.index_hits, 1);
        }
    }

    #[test]
    fn derived_rel_cached_by_signature() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 1), (1, 2)]);
            let build_calls = std::cell::Cell::new(0);
            for _ in 0..3 {
                ctx.derived_rel(&rel, &[0, 0], |base| {
                    build_calls.set(build_calls.get() + 1);
                    base.project_dedup(&[0])
                });
            }
            assert_eq!(build_calls.get(), 1);
            let other = ctx.derived_rel(&rel, &[0, 1], |base| base.clone());
            assert_eq!(other.arity(), 2);
            assert_eq!(ctx.stats().derived_builds, 2);
        }
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        for ctx in fresh_and_frozen() {
            let a = shared_pairs(&[(1, 2)]);
            let b = shared_pairs(&[(3, 4), (5, 6)]);
            assert_eq!(ctx.interned_rel(&a).len(), 1);
            assert_eq!(ctx.interned_rel(&b).len(), 2);
        }
    }

    #[test]
    fn lookup_row_rejects_unknown_values() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 3)]);
            ctx.interned_rel(&rel);
            let mut buf = Vec::new();
            assert!(ctx.lookup_row(&[Value::Int(1), Value::Int(3)], &mut buf));
            assert_eq!(buf.len(), 2);
            assert!(!ctx.lookup_row(&[Value::Int(99)], &mut buf));
        }
    }

    #[test]
    fn rel_stats_cached_and_harvested() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10), (1, 20), (2, 10)]);
            let id_rel = ctx.interned_rel(&rel);
            // Build a single-column index first so the harvest path is hit.
            ctx.index(&id_rel, &[0]);
            let a = ctx.rel_stats(&id_rel);
            let b = ctx.rel_stats(&id_rel);
            assert!(Arc::ptr_eq(&a, &b), "stats cached by relation identity");
            assert_eq!(a.rows, 3);
            assert_eq!(a.distinct, vec![2, 2]);
            assert_eq!(a.max_fanout, vec![2, 2]);
        }
    }

    #[test]
    fn epoch_bumps_on_intern_but_not_register() {
        for ctx in fresh_and_frozen() {
            let e0 = ctx.stats_epoch();
            let rel = shared_pairs(&[(1, 2)]);
            ctx.interned_rel(&rel);
            let e1 = ctx.stats_epoch();
            assert!(e1 > e0, "interning a new relation bumps the epoch");
            ctx.interned_rel(&rel);
            assert_eq!(ctx.stats_epoch(), e1, "cache hits leave the epoch alone");
            let other = shared_pairs(&[(3, 4)]);
            let mirror = ctx.interned_rel(&other);
            let e2 = ctx.stats_epoch();
            ctx.register_interned(&other, mirror);
            assert_eq!(
                ctx.stats_epoch(),
                e2,
                "registering a derived mirror must not invalidate cached plans"
            );
        }
    }

    #[test]
    fn insert_rows_preseeds_mirror_and_merges_indexes() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10), (2, 20)]);
            let id_rel = ctx.interned_rel(&rel);
            ctx.index(&id_rel, &[0]);
            let before = ctx.stats();
            let next = ctx.insert_rows(&rel, &Relation::from_pairs([(3, 30)]));
            let next_ids = ctx.interned_rel(&next);
            assert_eq!(
                ctx.stats().interned_builds,
                before.interned_builds,
                "the successor mirror is pre-seeded, not re-interned"
            );
            assert_eq!(next_ids.len(), 3);
            assert_eq!(next_ids.n_segments(), 2);
            let idx = ctx.index(&next_ids, &[0]);
            assert_eq!(
                ctx.stats().index_builds,
                before.index_builds,
                "the index is carried by CSR merge, not rebuilt"
            );
            let three = ctx.lookup(Value::Int(3)).unwrap();
            assert_eq!(idx.get(&[three]), &[2]);
            let ing = ctx.ingest_stats();
            assert_eq!(ing.inserts, 1);
            assert_eq!(ing.rows_inserted, 1);
            assert_eq!(ing.indexes_merged, 1);
        }
    }

    #[test]
    fn insert_rows_carries_normalizations_by_delta_append() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10), (2, 20), (2, 2)]);
            // One identity normalization and one repeated-variable shape
            // (`R(x, x)`: keep rows whose columns agree, project to one).
            let ident = ctx.normalized_rel(&rel, &[0, 1]);
            let diag = ctx.normalized_rel(&rel, &[0, 0]);
            assert_eq!(ident.len(), 3);
            assert_eq!(diag.len(), 1, "only (2, 2) survives R(x, x)");
            let builds = ctx.stats().derived_builds;
            // Delta: one fresh row, one duplicate of a live row, one new
            // diagonal row.
            let next = ctx.insert_rows(&rel, &Relation::from_pairs([(3, 30), (1, 10), (7, 7)]));
            assert_eq!(ctx.ingest_stats().derived_carried, 2);
            let ident2 = ctx.normalized_rel(&next, &[0, 1]);
            let diag2 = ctx.normalized_rel(&next, &[0, 0]);
            assert_eq!(
                ctx.stats().derived_builds,
                builds,
                "carried entries hit the cache, nothing is re-normalized"
            );
            assert_eq!(ident2.len(), 5, "the duplicate delta row deduplicates");
            assert_eq!(diag2.len(), 2, "(7, 7) joins the diagonal");
            // The carried entries decode to exactly a from-scratch rebuild.
            let (scratch, _) = normalize_ranked(&ctx.interned_rel(&next), &[0, 1]);
            assert_eq!(*ident2, scratch);
            let (scratch, _) = normalize_ranked(&ctx.interned_rel(&next), &[0, 0]);
            assert_eq!(*diag2, scratch);
        }
    }

    #[test]
    fn delete_rows_drops_normalizations_for_rebuild() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10), (2, 20)]);
            ctx.normalized_rel(&rel, &[0, 1]);
            let builds = ctx.stats().derived_builds;
            let next = ctx.delete_rows(&rel, &Relation::from_pairs([(1, 10)]));
            assert_eq!(
                ctx.ingest_stats().derived_carried,
                0,
                "deletes cannot carry: derived rows do not map back to base rows"
            );
            let after = ctx.normalized_rel(&next, &[0, 1]);
            assert_eq!(ctx.stats().derived_builds, builds + 1, "rebuilt on demand");
            assert_eq!(after.len(), 1);
        }
    }

    #[test]
    fn delete_rows_tombstones_and_emptied_keys_vanish() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10), (2, 20), (2, 21)]);
            let id_rel = ctx.interned_rel(&rel);
            ctx.index(&id_rel, &[0]);
            let next = ctx.delete_rows(&rel, &Relation::from_pairs([(1, 10)]));
            assert_eq!(next.len(), 2, "value level compacts");
            let m = ctx.interned_rel(&next);
            assert_eq!(m.live_len(), 2);
            assert_eq!(m.len(), 3, "mirror keeps physical slots");
            let idx = ctx.index(&m, &[0]);
            let one = ctx.lookup(Value::Int(1)).unwrap();
            assert!(!idx.contains_key(&[one]), "emptied group reads as absent");
            let churn = ctx.churn_of(&next).unwrap();
            assert_eq!(churn.dead_rows, 1);
            assert_eq!(churn.live_rows, 2);
            assert!(churn.tombstone_fraction > 0.0);
            assert_eq!(ctx.ingest_stats().rows_deleted, 1);
        }
    }

    #[test]
    fn delete_of_unknown_values_matches_nothing() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10)]);
            ctx.interned_rel(&rel);
            let next = ctx.delete_rows(&rel, &Relation::from_pairs([(99, 99)]));
            assert_eq!(next.len(), 1);
            assert_eq!(ctx.interned_rel(&next).live_len(), 1);
            assert_eq!(ctx.ingest_stats().rows_deleted, 0);
        }
    }

    #[test]
    fn empty_delta_is_a_no_op_handle() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[(1, 10)]);
            let same = ctx.insert_rows(&rel, &Relation::new(2));
            assert!(Arc::ptr_eq(&rel, &same), "empty delta keeps the handle");
            assert_eq!(ctx.ingest_stats().inserts, 0);
        }
    }

    #[test]
    fn churn_threshold_bumps_epoch_cumulatively() {
        for ctx in fresh_and_frozen() {
            let rel = shared_pairs(&[
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (5, 5),
                (6, 6),
                (7, 7),
            ]);
            ctx.interned_rel(&rel);
            let e0 = ctx.stats_epoch();
            // 1 of 8 rows = 12.5% — below the 25% re-plan threshold.
            let r1 = ctx.insert_rows(&rel, &Relation::from_pairs([(100, 100)]));
            assert_eq!(ctx.stats_epoch(), e0, "small deltas keep plans hot");
            // A second row crosses 25% cumulative churn on the lineage.
            let r2 = ctx.insert_rows(&r1, &Relation::from_pairs([(101, 101)]));
            assert_eq!(ctx.stats_epoch(), e0 + 1, "cumulative churn re-plans");
            assert_eq!(ctx.ingest_stats().epoch_bumps, 1);
            // The ledger re-based on the new cardinality: one more small
            // delta stays below threshold again.
            ctx.insert_rows(&r2, &Relation::from_pairs([(102, 102)]));
            assert_eq!(ctx.stats_epoch(), e0 + 1);
        }
    }

    #[test]
    fn plan_cache_roundtrip() {
        for ctx in fresh_and_frozen() {
            assert!(ctx.cached_plan(7, 0).is_none());
            let plan: Arc<dyn std::any::Any + Send + Sync> = Arc::new(42usize);
            ctx.store_plan(7, 0, plan);
            let got = ctx.cached_plan(7, 0).expect("stored plan");
            assert_eq!(*got.downcast::<usize>().unwrap(), 42);
            assert!(ctx.cached_plan(7, 1).is_none(), "epoch is part of the key");
            assert!(ctx.cached_plan(8, 0).is_none(), "fingerprint is too");
        }
    }

    #[test]
    fn decode_tuple_roundtrips() {
        for ctx in fresh_and_frozen() {
            let ids = [
                ctx.intern(Value::Int(5)),
                ctx.intern(Value::Bottom),
                ctx.intern(Value::Int(1)),
            ];
            let t = ctx.decode_tuple(ids.iter().copied());
            let want = [Value::Int(5), Value::Bottom, Value::Int(1)];
            assert_eq!(t, Tuple(want.to_vec().into()));
            assert_eq!(ctx.decode_rows(3, &ids), vec![Tuple(want.to_vec().into())]);
        }
    }

    #[test]
    fn intern_key_matches_lookup() {
        for ctx in fresh_and_frozen() {
            let k1 = ctx.intern_key(&[Value::Int(1), Value::Int(2)]);
            let k2 = ctx.intern_key(&[Value::Int(1), Value::Int(2)]);
            assert_eq!(k1, k2);
            let k3 = ctx.intern_key(&[Value::Int(2), Value::Int(1)]);
            assert_ne!(k1, k3);
            // Long keys spill but still compare correctly.
            let long: Vec<Value> = (0..6).map(Value::Int).collect();
            assert_eq!(ctx.intern_key(&long), ctx.intern_key(&long));
        }
    }
}
