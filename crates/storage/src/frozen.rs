//! The immutable base of a context, and the fold that produces one.
//!
//! Every [`CtxView`] reads through a `Base` first: a dictionary plus the
//! interned-relation, derived-relation, index, stats and plan caches, none
//! of which ever change after construction. Reads that hit the base take
//! no lock, so one base can serve any number of enumeration threads at
//! once; misses fall to the handle's mutex-guarded overlay (see
//! [`crate::context`]), whose dictionary is a layer over the base's with
//! ids at and above the base's length — the *watermark*.
//!
//! [`CtxView::freeze`] is the one transition between the two: it folds
//! base ∪ overlay into a new base behind a fresh handle. A fresh context
//! has an empty base, so freezing it is the build → serve step; freezing
//! the handle again after deltas (`insert_rows`/`delete_rows`) is an
//! epoch re-freeze. The fold copies only `Arc`s for the caches, and the
//! dictionary table only when both base and overlay hold values: a fold of
//! an overlay that interned nothing shares the base's dictionary, and a
//! fold over an empty base shares the overlay's (copy-on-write: the next
//! write to that overlay's table copies it).

use crate::context::{
    ContextStats, CtxView, DerivedKey, IndexEntry, IndexKey, InternedEntry, PlanKey, PlanSlot,
    StatsEntry,
};
use crate::dictionary::Dictionary;
use crate::hash::FastMap;
use crate::idrel::IdRel;
use std::hash::Hash;
use std::sync::Arc;

/// An immutable context snapshot; see the module docs.
#[derive(Debug)]
pub(crate) struct Base {
    /// A flat dictionary (no lower layer) holding every id below the
    /// watermark.
    pub(crate) dict: Arc<Dictionary>,
    pub(crate) interned: FastMap<usize, InternedEntry>,
    pub(crate) derived: FastMap<DerivedKey, Arc<IdRel>>,
    pub(crate) indexes: FastMap<IndexKey, IndexEntry>,
    pub(crate) rel_stats: FastMap<usize, StatsEntry>,
    pub(crate) plans: FastMap<PlanKey, PlanSlot>,
    /// The stats epoch at fold time.
    pub(crate) epoch: u64,
    /// Cache counters at fold time.
    pub(crate) stats: ContextStats,
}

impl Base {
    /// The base of a fresh context: no values, no cache entries.
    pub(crate) fn empty() -> Base {
        Base {
            dict: Arc::new(Dictionary::layer(None, 0)),
            interned: FastMap::default(),
            derived: FastMap::default(),
            indexes: FastMap::default(),
            rel_stats: FastMap::default(),
            plans: FastMap::default(),
            epoch: 0,
            stats: ContextStats::default(),
        }
    }
}

/// `base` ∪ `overlay`; an overlay entry wins a key clash.
fn union<K: Clone + Eq + Hash, V: Clone>(
    base: &FastMap<K, V>,
    overlay: &FastMap<K, V>,
) -> FastMap<K, V> {
    base.iter()
        .chain(overlay)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

impl CtxView {
    /// Folds base ∪ overlay into the base of a fresh handle — the serve
    /// phase, whose reads hit the base without locking. This handle keeps
    /// its own base and overlay: values interned here *after* the fold are
    /// unknown to the new handle and vice versa, though both keep every id
    /// issued before it. Freezing a frozen handle whose overlay is empty
    /// returns the handle itself.
    #[must_use]
    pub fn freeze(&self) -> CtxView {
        let ov = self.overlay();
        let base = self.base();
        if ov.is_empty() && self.is_frozen() {
            return self.clone();
        }
        let derived = base
            .derived
            .iter()
            .map(|(k, r)| (k.clone(), Arc::clone(r)))
            .chain(
                ov.derived
                    .iter()
                    .map(|(k, (r, _))| (k.clone(), Arc::clone(r))),
            )
            .collect();
        CtxView::with_base(Base {
            dict: Dictionary::fold(&ov.dict),
            interned: union(&base.interned, &ov.interned),
            derived,
            indexes: union(&base.indexes, &ov.indexes),
            rel_stats: union(&base.rel_stats, &ov.rel_stats),
            plans: union(&base.plans, &ov.plans),
            epoch: self.stats_epoch(),
            stats: self.stats(),
        })
    }

    /// Whether this handle reads through a non-empty base (it was produced
    /// by [`CtxView::freeze`]).
    pub fn is_frozen(&self) -> bool {
        self.frozen_len() > 0
    }

    /// The watermark: ids below this decode without any lock.
    pub fn frozen_len(&self) -> usize {
        self.base().dict.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use crate::ValueId;

    fn shared_pairs(pairs: &[(i64, i64)]) -> Arc<Relation> {
        Arc::new(Relation::from_pairs(pairs.iter().copied()))
    }

    #[test]
    fn freeze_preserves_ids_and_caches() {
        let ctx = CtxView::new();
        let rel = shared_pairs(&[(1, 2), (3, 4)]);
        let id_rel = ctx.interned_rel(&rel);
        let idx = ctx.index(&id_rel, &[0]);
        let id1 = ctx.intern(Value::Int(1));
        let frozen = ctx.freeze();
        // Same ids, same physical cache entries.
        assert_eq!(frozen.lookup(Value::Int(1)), Some(id1));
        assert_eq!(frozen.decode(id1), Value::Int(1));
        assert!(Arc::ptr_eq(&frozen.interned_rel(&rel), &id_rel));
        assert!(Arc::ptr_eq(&frozen.index(&id_rel, &[0]), &idx));
        assert_eq!(frozen.frozen_len(), ctx.dict_len());
        assert!(!frozen.has_overflowed());
    }

    #[test]
    fn post_freeze_misses_fall_back_to_overlay() {
        let ctx = CtxView::new();
        ctx.intern(Value::Int(1));
        let frozen = ctx.freeze();
        let base = frozen.frozen_len();
        // New value: overlay id at the watermark, decodes correctly.
        let nid = frozen.intern(Value::Int(99));
        assert_eq!(nid.index(), base);
        assert!(frozen.has_overflowed());
        assert_eq!(frozen.decode(nid), Value::Int(99));
        assert_eq!(frozen.lookup(Value::Int(99)), Some(nid));
        assert_eq!(
            frozen.intern(Value::Int(99)),
            nid,
            "overlay interning is stable"
        );
        assert_eq!(frozen.dict_len(), base + 1);
        // The handle it was frozen from does not see the new overlay.
        assert_eq!(ctx.lookup(Value::Int(99)), None);
        // A relation never seen before the freeze interns via the overlay
        // and caches there.
        let rel = shared_pairs(&[(99, 100), (1, 1)]);
        let a = frozen.interned_rel(&rel);
        let b = frozen.interned_rel(&rel);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(frozen.decode_rel(&a).len(), 2);
        let idx = frozen.index(&a, &[0]);
        assert!(Arc::ptr_eq(&idx, &frozen.index(&a, &[0])));
    }

    #[test]
    fn view_freeze_roundtrip() {
        let view = CtxView::new();
        let rel = shared_pairs(&[(7, 8)]);
        let id_rel = view.interned_rel(&rel);
        let frozen = view.freeze();
        assert!(frozen.is_frozen() && !view.is_frozen());
        assert!(Arc::ptr_eq(&frozen.interned_rel(&rel), &id_rel));
        let tup = frozen.decode_tuple([id_rel.at(0, 0), id_rel.at(0, 1)]);
        assert_eq!(tup, Tuple(vec![Value::Int(7), Value::Int(8)].into()));
        // Freezing a handle with an empty overlay returns the handle.
        assert!(CtxView::ptr_eq(&frozen, &frozen.freeze()));
        // A fold over an empty base shares the overlay's dictionary, and a
        // re-fold that interned nothing shares it again.
        assert!(Arc::ptr_eq(&frozen.base().dict, &view.overlay().dict));
        view.interned_rel(&rel);
        let again = view.freeze();
        assert!(Arc::ptr_eq(&again.base().dict, &frozen.base().dict));
        // The first new value copies the table: the snapshots keep theirs.
        view.intern(Value::Int(9));
        assert_eq!(frozen.lookup(Value::Int(9)), None);
        assert_eq!(frozen.frozen_len() + 1, view.dict_len());
    }

    #[test]
    fn freeze_carries_stats_epoch_and_plans() {
        let ctx = CtxView::new();
        let rel = shared_pairs(&[(1, 2), (1, 3)]);
        let id_rel = ctx.interned_rel(&rel);
        let stats = ctx.rel_stats(&id_rel);
        let plan: Arc<dyn std::any::Any + Send + Sync> = Arc::new("p".to_string());
        let epoch = ctx.stats_epoch();
        ctx.store_plan(11, epoch, plan);
        let frozen = ctx.freeze();
        assert_eq!(frozen.stats_epoch(), epoch);
        assert_eq!(frozen.stats(), ctx.stats());
        assert!(Arc::ptr_eq(&frozen.rel_stats(&id_rel), &stats));
        assert!(frozen.cached_plan(11, epoch).is_some());
        // Post-freeze misses compute/store in the overlay; a new interned
        // relation bumps the frozen epoch.
        let other = shared_pairs(&[(5, 6)]);
        let other_ids = frozen.interned_rel(&other);
        assert!(frozen.stats_epoch() > epoch);
        let s = frozen.rel_stats(&other_ids);
        assert_eq!(s.rows, 1);
        assert!(Arc::ptr_eq(&frozen.rel_stats(&other_ids), &s));
        frozen.store_plan(12, frozen.stats_epoch(), Arc::new(1usize));
        assert!(frozen.cached_plan(12, frozen.stats_epoch()).is_some());
        // Folding that overlay carries it into the next base.
        let next = frozen.freeze();
        assert_eq!(next.stats_epoch(), frozen.stats_epoch());
        assert!(Arc::ptr_eq(&next.interned_rel(&other), &other_ids));
        assert!(next.cached_plan(12, next.stats_epoch()).is_some());
        assert_eq!(next.decode_rel(&other_ids), *other);
        assert!(!next.has_overflowed());
    }

    #[test]
    fn concurrent_overlay_interning_is_consistent() {
        let ctx = CtxView::new();
        ctx.intern(Value::Int(0));
        let frozen = ctx.freeze();
        let ids: Vec<ValueId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| frozen.intern(Value::Int(424242))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "one id per value across threads"
        );
        assert_eq!(frozen.decode(ids[0]), Value::Int(424242));
    }

    /// A frozen handle whose base holds `rel`'s mirror and an index on it.
    fn frozen_over(rel: &Arc<Relation>) -> (CtxView, Arc<IdRel>) {
        let build = CtxView::new();
        let mirror = build.interned_rel(rel);
        build.index(&mirror, &[0]);
        let frozen = build.freeze();
        assert!(Arc::ptr_eq(&frozen.interned_rel(rel), &mirror));
        (frozen, mirror)
    }

    #[test]
    fn insert_rows_on_a_frozen_handle_matches_a_fresh_build() {
        let rel = shared_pairs(&[(1, 10), (2, 20)]);
        let (frozen, old) = frozen_over(&rel);
        let delta = Relation::from_pairs([(3, 30), (1, 10)]);
        let next = frozen.insert_rows(&rel, &delta);
        let mirror = frozen.interned_rel(&next);
        let fresh = CtxView::new();
        let want = fresh.decode_rel(&fresh.interned_rel(&next));
        assert_eq!(frozen.decode_rel(&mirror), want);
        assert_eq!(mirror.n_segments(), 2, "the delta is appended, not rebuilt");
        // The old relation keeps its base mirror and index untouched.
        assert!(Arc::ptr_eq(&frozen.interned_rel(&rel), &old));
        assert_eq!(frozen.decode_rel(&old), *rel);
        let churn = frozen.churn_of(&next).expect("successor is interned");
        assert_eq!((churn.segments, churn.live_rows), (2, 4));
        assert_eq!(frozen.churn_of(&rel).map(|c| c.segments), Some(1));
        let ing = frozen.ingest_stats();
        assert_eq!((ing.inserts, ing.rows_inserted), (1, 2));
        assert_eq!(ing.indexes_merged, 1, "the base index is carried");
        let three = frozen.lookup(Value::Int(3)).unwrap();
        assert!(three.index() >= frozen.frozen_len(), "new values overflow");
        assert_eq!(frozen.index(&mirror, &[0]).get(&[three]), &[2]);
    }

    #[test]
    fn delete_rows_on_a_frozen_handle_matches_a_fresh_build() {
        let rel = shared_pairs(&[(1, 10), (2, 20), (2, 21)]);
        let (frozen, old) = frozen_over(&rel);
        let next = frozen.delete_rows(&rel, &Relation::from_pairs([(2, 20)]));
        let mirror = frozen.interned_rel(&next);
        let fresh = CtxView::new();
        let want = fresh.decode_rel(&fresh.interned_rel(&next));
        assert_eq!(frozen.decode_rel(&mirror), want);
        assert!(Arc::ptr_eq(&frozen.interned_rel(&rel), &old));
        assert_eq!(old.live_len(), 3, "the base mirror keeps every row");
        let churn = frozen.churn_of(&next).expect("successor is interned");
        assert_eq!((churn.live_rows, churn.dead_rows), (2, 1));
        let ing = frozen.ingest_stats();
        assert_eq!((ing.deletes, ing.rows_deleted), (1, 1));
        assert!(!frozen.has_overflowed(), "deletes intern nothing");
    }

    #[test]
    fn large_relations_intern_in_parallel_over_the_base() {
        let n = crate::par::PAR_ROW_THRESHOLD as i64;
        let seed = CtxView::new();
        seed.interned_rel(&shared_pairs(
            &(0..n / 2).map(|i| (i, i)).collect::<Vec<_>>(),
        ));
        let frozen = seed.freeze();
        let big = shared_pairs(&(0..n).map(|i| (i, n + i)).collect::<Vec<_>>());
        let mirror = frozen.interned_rel(&big);
        assert_eq!(frozen.decode_rel(&mirror), *big);
        assert_eq!(Some(mirror.at(0, 0)), seed.lookup(Value::Int(0)));
        assert!(mirror.at(0, 1).index() >= frozen.frozen_len());
        // The parallel interner over a layer keeps base ids too.
        let mut layer = Dictionary::over(Arc::clone(&frozen.base().dict));
        let par = IdRel::from_relation_parallel(&big, &mut layer, 2);
        assert_eq!(par.decode(&layer), *big);
        assert_eq!(par.at(1, 0), mirror.at(1, 0));
    }
}
