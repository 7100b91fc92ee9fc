//! The id-level enumeration spine: block-at-a-time producers of interned
//! answer rows.
//!
//! Every answer producer below the public API — CDY member streams,
//! Algorithm 1, the Theorem 12 chain, replayed tables — is an
//! [`IdEnumerator`]: stages exchange whole [`IdBlock`]s of flat
//! [`ValueId`] rows. Values are decoded exactly once, at the API
//! boundary, by one of the two value-level edges ([`IdDecoder`] per
//! block, or [`Cheater::next`](crate::Cheater) per released answer);
//! answers a downstream stage discards (the Cheater dedup, a counting
//! bench) are never decoded.
//!
//! The contract of [`IdEnumerator::next_block`]: append rows to the block
//! until it [`is_full`](IdBlock::is_full) or the producer is exhausted,
//! and return the number of rows appended. A return of `0` on a non-full
//! block means exhausted (and must stay `0` on every later call). Blocks
//! are caller-owned and reused, so a drain performs O(answers / block)
//! virtual calls and zero per-answer allocations.

use crate::enumerator::Enumerator;
use std::sync::Arc;
use ucq_storage::{CtxView, IdBlock, Tuple, ValueId};

/// Default rows per block for drains that pick their own block size.
pub const DEFAULT_BLOCK_ROWS: usize = 512;

/// A pull-based, block-at-a-time producer of interned answer rows.
pub trait IdEnumerator {
    /// Ids per answer row (the block stride).
    fn arity(&self) -> usize;

    /// Appends rows to `block` until it is full or this producer is
    /// exhausted; returns the number of rows appended (`0` = exhausted).
    /// `block.arity()` must equal [`IdEnumerator::arity`].
    fn next_block(&mut self, block: &mut IdBlock) -> usize;

    /// Drains everything, returning `(flat ids, row count)` (test/bench
    /// helper).
    fn collect_ids(&mut self) -> (Vec<ValueId>, usize)
    where
        Self: Sized,
    {
        let mut block = IdBlock::new(self.arity(), DEFAULT_BLOCK_ROWS);
        let mut ids = Vec::new();
        let mut rows = 0;
        loop {
            block.clear();
            let n = self.next_block(&mut block);
            if n == 0 {
                return (ids, rows);
            }
            ids.extend_from_slice(block.ids());
            rows += n;
        }
    }
}

impl IdEnumerator for Box<dyn IdEnumerator> {
    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        (**self).next_block(block)
    }
}

impl IdEnumerator for Box<dyn IdEnumerator + Send> {
    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        (**self).next_block(block)
    }
}

/// Replays a pre-materialized flat id table; used for the pipeline's early
/// answers and for materialized (naive) answer sets. The rows are shared:
/// a clone is a fresh cursor over the same table, not a copy of it.
#[derive(Clone, Debug)]
pub struct IdVecEnumerator {
    arity: usize,
    ids: Arc<Vec<ValueId>>,
    n_rows: usize,
    pos: usize,
}

impl IdVecEnumerator {
    /// Wraps a flat run of `n_rows` rows, `arity` ids each. For arity 0 the
    /// run is empty and `n_rows` alone carries the content.
    pub fn new(arity: usize, ids: Vec<ValueId>, n_rows: usize) -> IdVecEnumerator {
        assert_eq!(ids.len(), arity * n_rows, "partial row in flat table");
        IdVecEnumerator {
            arity,
            ids: Arc::new(ids),
            n_rows,
            pos: 0,
        }
    }

    /// Rows in the table, replayed or not.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Wraps a flat run of positive-arity rows, inferring the row count.
    pub fn from_flat(arity: usize, ids: Vec<ValueId>) -> IdVecEnumerator {
        assert!(arity > 0, "use `new` for arity-0 tables");
        let n_rows = ids.len() / arity;
        IdVecEnumerator::new(arity, ids, n_rows)
    }
}

impl IdEnumerator for IdVecEnumerator {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        debug_assert_eq!(block.arity(), self.arity);
        let take = (self.n_rows - self.pos).min(block.remaining());
        if take == 0 {
            return 0;
        }
        let start = self.pos * self.arity;
        block.extend_flat(&self.ids[start..start + take * self.arity], take);
        self.pos += take;
        take
    }
}

/// Chains several id enumerators back to back (all must share one arity).
/// One `next_block` call may drain the tail of one stage and continue into
/// the next, so block fills stay large across stage boundaries.
pub struct IdChainEnumerator {
    arity: usize,
    stages: Vec<Box<dyn IdEnumerator + Send>>,
    current: usize,
}

impl IdChainEnumerator {
    /// Chains the given stages in order. Stages are `Send` so a chain
    /// (and the pipeline above it) can be handed to a serving thread.
    pub fn new(arity: usize, stages: Vec<Box<dyn IdEnumerator + Send>>) -> IdChainEnumerator {
        for s in &stages {
            assert_eq!(s.arity(), arity, "chained stages must share one arity");
        }
        IdChainEnumerator {
            arity,
            stages,
            current: 0,
        }
    }
}

impl IdEnumerator for IdChainEnumerator {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        let mut total = 0;
        while self.current < self.stages.len() && !block.is_full() {
            let n = self.stages[self.current].next_block(block);
            if n == 0 {
                self.current += 1;
            } else {
                total += n;
            }
        }
        total
    }
}

/// The value-level facade over an id enumerator: pulls blocks and decodes
/// each block through the session dictionary in one `decode_rows` call —
/// a build-phase context is locked once per *block*, not once per row
/// (a frozen context reads lock-free either way). This is what keeps
/// `Tuple`-yielding public APIs unchanged above the id spine.
pub struct IdDecoder<E: IdEnumerator> {
    inner: E,
    ctx: CtxView,
    block: IdBlock,
    decoded: Vec<Tuple>,
    cursor: usize,
    done: bool,
}

impl<E: IdEnumerator> IdDecoder<E> {
    /// Wraps `inner`, decoding through `ctx`'s dictionary.
    pub fn new(inner: E, ctx: CtxView) -> IdDecoder<E> {
        let block = IdBlock::new(inner.arity(), DEFAULT_BLOCK_ROWS);
        IdDecoder {
            inner,
            ctx,
            block,
            decoded: Vec::new(),
            cursor: 0,
            done: false,
        }
    }

    /// The wrapped id enumerator (consumes the facade).
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: IdEnumerator> Enumerator for IdDecoder<E> {
    fn next(&mut self) -> Option<Tuple> {
        if self.cursor == self.decoded.len() {
            if self.done {
                return None;
            }
            self.block.clear();
            self.decoded.clear();
            self.cursor = 0;
            if self.inner.next_block(&mut self.block) == 0 {
                self.done = true;
                return None;
            }
            self.decoded = if self.block.arity() == 0 {
                // Nullary rows are a count, not ids (Boolean answers).
                vec![Tuple::empty(); self.block.len()]
            } else {
                self.ctx.decode_rows(self.block.arity(), self.block.ids())
            };
        }
        // Chaos hook (inert outside `--cfg ucq_fault_inject`): one visit
        // per emitted answer, as on the Cheater's per-answer decode, so
        // fault schedules see every strategy at answer granularity.
        ucq_storage::faults::on_decode();
        let t = std::mem::replace(&mut self.decoded[self.cursor], Tuple::empty());
        self.cursor += 1;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_storage::Value;

    fn ids(xs: &[u32]) -> Vec<ValueId> {
        xs.iter().map(|&x| ValueId(x)).collect()
    }

    #[test]
    fn vec_enumerator_fills_blocks() {
        let mut e = IdVecEnumerator::from_flat(2, ids(&[1, 2, 3, 4, 5, 6]));
        let mut block = IdBlock::new(2, 2);
        assert_eq!(e.next_block(&mut block), 2);
        assert_eq!(block.row(1), ids(&[3, 4]).as_slice());
        block.clear();
        assert_eq!(e.next_block(&mut block), 1);
        assert_eq!(block.row(0), ids(&[5, 6]).as_slice());
        block.clear();
        assert_eq!(e.next_block(&mut block), 0, "stays exhausted");
    }

    #[test]
    fn collect_ids_round_trips() {
        let flat = ids(&[7, 8, 9, 10]);
        let (got, rows) = IdVecEnumerator::from_flat(2, flat.clone()).collect_ids();
        assert_eq!(got, flat);
        assert_eq!(rows, 2);
    }

    #[test]
    fn chain_crosses_stage_boundaries_within_one_block() {
        let mut e = IdChainEnumerator::new(
            1,
            vec![
                Box::new(IdVecEnumerator::from_flat(1, ids(&[1]))),
                Box::new(IdVecEnumerator::new(1, Vec::new(), 0)),
                Box::new(IdVecEnumerator::from_flat(1, ids(&[2, 3]))),
            ],
        );
        let mut block = IdBlock::new(1, 8);
        assert_eq!(e.next_block(&mut block), 3, "one call spans all stages");
        assert_eq!(block.ids(), ids(&[1, 2, 3]).as_slice());
        block.clear();
        assert_eq!(e.next_block(&mut block), 0);
    }

    #[test]
    fn nullary_replay_counts_rows() {
        let mut e = IdVecEnumerator::new(0, Vec::new(), 3);
        let (flat, rows) = e.collect_ids();
        assert!(flat.is_empty());
        assert_eq!(rows, 3);
    }

    #[test]
    fn decoder_yields_tuples() {
        let ctx = CtxView::new();
        let a = ctx.intern(Value::Int(10));
        let b = ctx.intern(Value::Int(20));
        let inner = IdVecEnumerator::from_flat(2, vec![a, b, b, a]);
        let mut d = IdDecoder::new(inner, ctx);
        assert_eq!(
            d.collect_all(),
            vec![Tuple::from(&[10i64, 20][..]), Tuple::from(&[20i64, 10][..])]
        );
        assert_eq!(d.next(), None);
    }
}
