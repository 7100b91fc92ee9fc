//! Row-major relation storage.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;

/// A finite relation: a multiset-free set of rows with a fixed arity, stored
/// row-major in a single flat vector.
///
/// Construction does not deduplicate (input data may legitimately carry
/// duplicates); call [`Relation::sort_dedup`] or build through
/// [`Relation::from_rows_dedup`] when set semantics are required. All query
/// evaluation paths in the workspace normalize their inputs.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Relation {
    arity: usize,
    data: Vec<Value>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            data: Vec::new(),
        }
    }

    /// Creates an empty relation with capacity for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Relation {
        Relation {
            arity,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Builds a relation from an iterator of rows, keeping duplicates.
    pub fn from_rows<'a, I>(arity: usize, rows: I) -> Relation
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let mut r = Relation::new(arity);
        for row in rows {
            r.push_row(row);
        }
        r
    }

    /// Builds a relation from an iterator of rows, dropping duplicates.
    pub fn from_rows_dedup<'a, I>(arity: usize, rows: I) -> Relation
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let mut seen: HashSet<Box<[Value]>> = HashSet::new();
        let mut r = Relation::new(arity);
        for row in rows {
            if seen.insert(row.into()) {
                r.push_row(row);
            }
        }
        r
    }

    /// Builds a binary relation from integer pairs — the common case in the
    /// graph/matrix reductions.
    pub fn from_pairs<I: IntoIterator<Item = (i64, i64)>>(pairs: I) -> Relation {
        let mut r = Relation::new(2);
        for (a, b) in pairs {
            r.push_row(&[Value::Int(a), Value::Int(b)]);
        }
        r
    }

    /// The arity (number of columns).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        // Arity-0 relations hold either zero rows or one empty row; we
        // encode "one empty row" as a single sentinel in `data`.
        self.data
            .len()
            .checked_div(self.arity)
            .unwrap_or(self.data.len())
    }

    /// Whether the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row. Panics on arity mismatch.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        if self.arity == 0 {
            // Represent the empty row with one sentinel so len() counts it.
            if self.data.is_empty() {
                self.data.push(Value::Bottom);
            }
        } else {
            self.data.extend_from_slice(row);
        }
    }

    /// The `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        if self.arity == 0 {
            &[]
        } else {
            &self.data[i * self.arity..(i + 1) * self.arity]
        }
    }

    /// Iterates over all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Sorts rows lexicographically and removes duplicates.
    pub fn sort_dedup(&mut self) {
        if self.arity == 0 || self.len() <= 1 {
            return;
        }
        let mut rows: Vec<&[Value]> = self.iter_rows().collect();
        rows.sort_unstable();
        rows.dedup();
        let mut data = Vec::with_capacity(rows.len() * self.arity);
        for row in rows {
            data.extend_from_slice(row);
        }
        self.data = data;
    }

    /// Projects onto `cols` (by position), deduplicating the result.
    pub fn project_dedup(&self, cols: &[usize]) -> Relation {
        let mut seen: HashSet<Box<[Value]>> = HashSet::with_capacity(self.len());
        let mut out = Relation::new(cols.len());
        let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
        for row in self.iter_rows() {
            buf.clear();
            buf.extend(cols.iter().map(|&c| row[c]));
            if seen.insert(buf.as_slice().into()) {
                out.push_row(&buf);
            }
        }
        out
    }

    /// Keeps only rows satisfying the predicate.
    pub fn retain_rows<F: FnMut(&[Value]) -> bool>(&mut self, mut pred: F) {
        if self.arity == 0 {
            if !self.data.is_empty() && !pred(&[]) {
                self.data.clear();
            }
            return;
        }
        let arity = self.arity;
        let mut write = 0usize;
        for read in 0..self.len() {
            let keep = {
                let row = &self.data[read * arity..(read + 1) * arity];
                pred(row)
            };
            if keep {
                if write != read {
                    let (dst, src) = self.data.split_at_mut(read * arity);
                    dst[write * arity..(write + 1) * arity].copy_from_slice(&src[..arity]);
                }
                write += 1;
            }
        }
        self.data.truncate(write * arity);
    }

    /// Collects all rows into owned [`Tuple`]s.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter_rows().map(Tuple::from_row).collect()
    }

    /// The interned columnar mirror of this relation (`col(i) ->
    /// &[ValueId]`): every value is interned into `dict` and laid out
    /// column-wise. Evaluation pipelines obtain this through
    /// [`crate::CtxView::interned_rel`], which caches the result per
    /// relation.
    pub fn columnar(&self, dict: &mut crate::Dictionary) -> crate::IdRel {
        crate::IdRel::from_relation(self, dict)
    }

    /// Set-membership test by linear scan (use an index for hot paths).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.iter_rows().any(|r| r == row)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation(arity={}, rows={})", self.arity, self.len())?;
        for row in self.iter_rows().take(20) {
            writeln!(f, "  {}", Tuple::from_row(row))?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ivals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn push_and_iterate() {
        let mut r = Relation::new(2);
        r.push_row(&ivals(&[1, 2]));
        r.push_row(&ivals(&[3, 4]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), ivals(&[3, 4]).as_slice());
        assert_eq!(r.iter_rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        Relation::new(2).push_row(&ivals(&[1]));
    }

    #[test]
    fn nullary_relation_semantics() {
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 1, "arity-0 relations hold at most one row");
        assert_eq!(r.row(0), &[] as &[Value]);
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let mut r = Relation::from_pairs([(3, 4), (1, 2), (3, 4), (1, 2)]);
        r.sort_dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), ivals(&[1, 2]).as_slice());
    }

    #[test]
    fn from_rows_dedup() {
        let rows = [ivals(&[1, 2]), ivals(&[1, 2]), ivals(&[2, 3])];
        let r = Relation::from_rows_dedup(2, rows.iter().map(|r| r.as_slice()));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn projection_dedups() {
        let r = Relation::from_pairs([(1, 10), (1, 20), (2, 30)]);
        let p = r.project_dedup(&[0]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.len(), 2);
        let swapped = r.project_dedup(&[1, 0]);
        assert_eq!(swapped.row(0), ivals(&[10, 1]).as_slice());
    }

    #[test]
    fn retain_rows_filters_in_place() {
        let mut r = Relation::from_pairs([(1, 1), (2, 1), (3, 3)]);
        r.retain_rows(|row| row[0] == row[1]);
        assert_eq!(r.len(), 2);
        assert!(r.contains_row(&ivals(&[1, 1])));
        assert!(r.contains_row(&ivals(&[3, 3])));
        assert!(!r.contains_row(&ivals(&[2, 1])));
    }

    #[test]
    fn retain_on_nullary() {
        let mut r = Relation::new(0);
        r.push_row(&[]);
        r.retain_rows(|_| false);
        assert!(r.is_empty());
    }

    #[test]
    fn to_tuples_roundtrip() {
        let r = Relation::from_pairs([(1, 2)]);
        assert_eq!(r.to_tuples(), vec![Tuple::from(&[1i64, 2][..])]);
    }
}
