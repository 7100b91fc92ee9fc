//! Per-relation statistics for the cost-based planner.
//!
//! [`RelStats`] summarizes one interned relation ([`IdRel`]) in the three
//! numbers a cardinality model needs per column: row count, distinct-value
//! count, and the worst-case fanout (the largest group of rows sharing one
//! value). The numbers come cheaply from machinery the session already
//! builds: when a single-column [`HashIndex`] is cached for a column, its
//! CSR `offsets` array *is* the group-size table — distinct count is
//! `n_keys()` and max fanout is the largest offset gap — so harvesting
//! costs one O(distinct) scan and touches no row data. Columns without a
//! cached index fall back to one counting pass over the column.
//!
//! Stats are cached on the evaluation context keyed by relation identity
//! (see [`CtxView::rel_stats`](crate::CtxView::rel_stats)), and a
//! **stats epoch** on the context bumps whenever a new base relation is
//! interned — plan caches key on `(query fingerprint, epoch)` so a changed
//! instance invalidates stale plans without any bookkeeping.

use crate::hash::FastMap;
use crate::idrel::IdRel;
use crate::index::HashIndex;

/// Per-column statistics of one interned relation. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelStats {
    /// Number of rows.
    pub rows: usize,
    /// Distinct values per column.
    pub distinct: Vec<usize>,
    /// Largest number of rows sharing one value, per column (0 for an
    /// empty relation).
    pub max_fanout: Vec<usize>,
}

impl RelStats {
    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.distinct.len()
    }

    /// Average rows per distinct value of column `c` (0 when empty).
    pub fn avg_fanout(&self, c: usize) -> f64 {
        if self.distinct[c] == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct[c] as f64
        }
    }

    /// The `(distinct, max fanout)` of one column read straight off a CSR
    /// index's offsets — no row data touched. Groups a tombstone merge
    /// emptied are not counted as distinct values.
    pub fn column_from_index(idx: &HashIndex) -> (usize, usize) {
        idx.group_stats()
    }

    /// Computes stats for `rel`. `cached_index` lets the caller supply
    /// `(distinct, max fanout)` for columns that already have a built
    /// single-column index (the cheap path); the rest are counted in one
    /// pass per column.
    pub fn compute_with(
        rel: &IdRel,
        mut cached_index: impl FnMut(usize) -> Option<(usize, usize)>,
    ) -> RelStats {
        let rows = rel.live_len();
        let arity = rel.arity();
        let mut distinct = Vec::with_capacity(arity);
        let mut max_fanout = Vec::with_capacity(arity);
        let mut counts: FastMap<crate::dictionary::ValueId, u32> = FastMap::default();
        for c in 0..arity {
            if let Some((d, m)) = cached_index(c) {
                distinct.push(d);
                max_fanout.push(m);
                continue;
            }
            counts.clear();
            if rel.has_tombstones() {
                let col = rel.col(c);
                for (r, &id) in col.iter().enumerate() {
                    if rel.is_live(r) {
                        *counts.entry(id).or_insert(0) += 1;
                    }
                }
            } else {
                for &id in rel.col(c) {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            distinct.push(counts.len());
            max_fanout.push(counts.values().max().copied().unwrap_or(0) as usize);
        }
        RelStats {
            rows,
            distinct,
            max_fanout,
        }
    }

    /// Computes stats for `rel` with no cached indexes available.
    pub fn compute(rel: &IdRel) -> RelStats {
        RelStats::compute_with(rel, |_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{Dictionary, ValueId};
    use crate::relation::Relation;

    fn interned(pairs: &[(i64, i64)]) -> IdRel {
        let mut dict = Dictionary::new();
        let rel = Relation::from_pairs(pairs.iter().copied());
        IdRel::from_relation(&rel, &mut dict)
    }

    #[test]
    fn counted_stats_match_shape() {
        let r = interned(&[(1, 10), (1, 20), (2, 10), (3, 10)]);
        let s = RelStats::compute(&r);
        assert_eq!(s.rows, 4);
        assert_eq!(s.distinct, vec![3, 2]);
        assert_eq!(s.max_fanout, vec![2, 3]);
        assert!((s.avg_fanout(0) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn index_harvest_agrees_with_counting() {
        let mut rel = IdRel::new(2);
        let mut x = 0x9e37u32;
        for _ in 0..500 {
            x ^= x << 7;
            x ^= x >> 9;
            rel.push_row(&[ValueId(x % 23), ValueId(x % 7)]);
        }
        let counted = RelStats::compute(&rel);
        let idx0 = HashIndex::build(&rel, &[0]);
        let idx1 = HashIndex::build(&rel, &[1]);
        let harvested = RelStats::compute_with(&rel, |c| {
            Some(RelStats::column_from_index(if c == 0 {
                &idx0
            } else {
                &idx1
            }))
        });
        assert_eq!(counted, harvested);
    }

    #[test]
    fn empty_relation_stats() {
        let r = IdRel::new(2);
        let s = RelStats::compute(&r);
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct, vec![0, 0]);
        assert_eq!(s.max_fanout, vec![0, 0]);
        assert_eq!(s.avg_fanout(0), 0.0);
    }
}
