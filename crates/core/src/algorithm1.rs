//! Algorithm 1 (Theorem 4): a union of free-connex CQs in `DelayClin` with
//! constant writable memory during enumeration.
//!
//! For two members the algorithm interleaves:
//!
//! ```text
//! while a ← Q1(I).next():
//!     if a ∉ Q2(I): print a
//!     else:         print Q2(I).next()      # always succeeds
//! while a ← Q2(I).next(): print a
//! ```
//!
//! printing `Q1(I) \ Q2(I)` in the first loop and `Q2(I)` split across
//! lines 5 and 7 — duplicate-free without any lookup table (unlike the
//! Cheater-based pipeline, whose dedup set grows with the output; this is
//! the `CD∘Lin`-friendly variant the paper's conclusion highlights). Unions
//! of `n` members nest recursively, treating the tail as one query.
//!
//! All member engines are built through one shared context view, so the
//! members' preprocessing shares interned relations and normalizations.
//! [`Algorithm1`] is an [`IdEnumerator`]: member answers stay interned id
//! rows, and the line-4 probe is [`CdyEngine::contains_ids`] with one
//! reused scratch — no decode, no dictionary lookup and no allocation per
//! answer. Values appear only at the public edge, where the engine wraps
//! the stream in an [`IdDecoder`](ucq_enumerate::IdDecoder) (one decode
//! per block).

use std::sync::Arc;
use ucq_enumerate::IdEnumerator;
use ucq_query::Ucq;
use ucq_storage::{CtxView, IdBlock, Instance, ValueId};
use ucq_yannakakis::{CdyEngine, ContainsScratch, EvalError, OwnedCdyIter};

/// Recursive union node: the last member alone, or a first member
/// interleaved with the union of the rest.
enum Node {
    Leaf(OwnedCdyIter),
    Pair {
        first: OwnedCdyIter,
        /// One-row block holding the first member's current answer `a`.
        a: IdBlock,
        rest: Box<Node>,
        first_done: bool,
    },
}

impl Node {
    /// Line 4: whether `row` is an answer of this (sub)union.
    fn contains(&self, row: &[ValueId], scratch: &mut ContainsScratch) -> bool {
        match self {
            Node::Leaf(it) => it.engine().contains_ids(row, scratch),
            Node::Pair { first, rest, .. } => {
                first.engine().contains_ids(row, scratch) || rest.contains(row, scratch)
            }
        }
    }

    /// Appends answers to `block` until it is full or this (sub)union is
    /// exhausted; returns the number appended.
    fn next_block(&mut self, block: &mut IdBlock, scratch: &mut ContainsScratch) -> usize {
        let (first, a, rest, first_done) = match self {
            Node::Leaf(it) => return it.next_block(block),
            Node::Pair {
                first,
                a,
                rest,
                first_done,
            } => (first, a, rest, first_done),
        };
        let start = block.len();
        while !*first_done && !block.is_full() {
            a.clear();
            if first.next_block(a) == 0 {
                *first_done = true;
                break;
            }
            if !rest.contains(a.row(0), scratch) {
                block.push_row(a.row(0));
                continue;
            }
            // Line 5: the duplicate pays for exactly one fresh answer from
            // the rest.
            let limit = block.max_rows();
            block.set_max_rows(block.len() + 1);
            let got = rest.next_block(block, scratch);
            block.set_max_rows(limit);
            debug_assert_eq!(got, 1, "line 5 runs at most |Q1 ∩ rest| ≤ |rest| times");
        }
        // Line 7: the rest's remaining answers.
        if !block.is_full() {
            rest.next_block(block, scratch);
        }
        block.len() - start
    }
}

/// The Algorithm 1 enumerator, over interned id rows.
pub struct Algorithm1 {
    root: Node,
    arity: usize,
    /// Shared by every line-4 probe, whichever member it hits.
    scratch: ContainsScratch,
}

impl Algorithm1 {
    /// Builds the per-member CDY engines (the preprocessing phase; every
    /// member must be free-connex) through the shared `ctx`. The engines
    /// are shared so sessions can reuse them across repeated enumerations.
    pub fn member_engines(
        ucq: &Ucq,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<Vec<Arc<CdyEngine>>, EvalError> {
        ucq.cqs()
            .iter()
            .map(|cq| CdyEngine::for_query_in(cq, instance, ctx).map(Arc::new))
            .collect()
    }

    /// Wires preprocessed member engines into the interleaving enumerator.
    /// The engines must come from [`Algorithm1::member_engines`] (every
    /// member free-connex, outputs = heads) over one dictionary lineage.
    pub fn from_engines(engines: Vec<Arc<CdyEngine>>) -> Algorithm1 {
        let mut iters: Vec<OwnedCdyIter> = engines.into_iter().map(OwnedCdyIter::new).collect();
        let last = iters.pop().expect("UCQs are non-empty");
        let arity = last.engine().output_arity();
        let mut node = Node::Leaf(last);
        while let Some(first) = iters.pop() {
            node = Node::Pair {
                first,
                a: IdBlock::new(arity, 1),
                rest: Box::new(node),
                first_done: false,
            };
        }
        Algorithm1 {
            root: node,
            arity,
            scratch: ContainsScratch::default(),
        }
    }
}

impl IdEnumerator for Algorithm1 {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        debug_assert_eq!(block.arity(), self.arity);
        self.root.next_block(block, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ucq::evaluate_ucq_naive_set;
    use std::collections::HashSet;
    use ucq_enumerate::{Enumerator, IdDecoder};
    use ucq_query::parse_ucq;
    use ucq_storage::{Relation, Tuple};

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    /// Drains a fresh Algorithm 1 run, decoded at the edge.
    fn answers(engines: &[Arc<CdyEngine>], ctx: &CtxView) -> Vec<Tuple> {
        IdDecoder::new(Algorithm1::from_engines(engines.to_vec()), ctx.clone()).collect_all()
    }

    fn check(text: &str, i: &Instance) {
        let u = parse_ucq(text).unwrap();
        let ctx = CtxView::new();
        let engines = Algorithm1::member_engines(&u, i, &ctx).unwrap();
        let got = answers(&engines, &ctx);
        let set: HashSet<Tuple> = got.iter().cloned().collect();
        assert_eq!(got.len(), set.len(), "Algorithm 1 must be duplicate-free");
        let want = evaluate_ucq_naive_set(&u, i).unwrap();
        assert_eq!(set, want);
        // Tiny blocks put line 5 and the hand-off to the rest on block
        // boundaries; the answer sequence must not change.
        for rows in [1, 2, 3] {
            let mut alg = Algorithm1::from_engines(engines.clone());
            let mut block = IdBlock::new(alg.arity(), rows);
            let (mut ids, mut n) = (Vec::new(), 0);
            loop {
                block.clear();
                match alg.next_block(&mut block) {
                    0 => break,
                    k => n += k,
                }
                ids.extend_from_slice(block.ids());
            }
            assert_eq!(n, got.len(), "{rows}-row blocks");
            if alg.arity() > 0 {
                assert_eq!(ctx.decode_rows(alg.arity(), &ids), got, "{rows}-row blocks");
            }
        }
    }

    #[test]
    fn two_member_union_with_overlap() {
        let i = inst(&[
            ("R", vec![(1, 2), (3, 4), (5, 6)]),
            ("S", vec![(3, 4), (7, 8)]),
        ]);
        check("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)", &i);
    }

    #[test]
    fn identical_members() {
        let i = inst(&[("R", vec![(1, 2), (3, 4)])]);
        check("Q1(x, y) <- R(x, y)\nQ2(a, b) <- R(a, b)", &i);
    }

    #[test]
    fn three_member_union() {
        let i = inst(&[
            ("R", vec![(1, 2), (9, 9)]),
            ("S", vec![(1, 2), (3, 4)]),
            ("T", vec![(3, 4), (5, 6), (9, 9)]),
        ]);
        check(
            "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)\nQ3(u, v) <- T(u, v)",
            &i,
        );
    }

    #[test]
    fn joins_inside_members() {
        let i = inst(&[
            ("R", vec![(1, 2), (2, 3)]),
            ("S", vec![(2, 5), (3, 5)]),
            ("T", vec![(1, 5)]),
            ("U", vec![(5, 2), (5, 9)]),
        ]);
        check(
            "Q1(x, y, z) <- R(x, y), S(y, z)\nQ2(a, b, c) <- T(a, b), U(b, c)",
            &i,
        );
    }

    #[test]
    fn repeated_head_variable_with_overlap() {
        // Q1's answers are the diagonal (x, x); (3, 3) is also in S.
        let i = inst(&[
            ("R", vec![(1, 2), (3, 4), (5, 5)]),
            ("S", vec![(3, 3), (1, 2), (6, 7)]),
        ]);
        check("Q1(x, x) <- R(x, y)\nQ2(a, b) <- S(a, b)", &i);
    }

    #[test]
    fn boolean_union() {
        let both = inst(&[("R", vec![(1, 2)]), ("S", vec![(3, 4)])]);
        check("B1() <- R(x, y)\nB2() <- S(a, b)", &both);
        let one = inst(&[("R", vec![]), ("S", vec![(3, 4)])]);
        check("B1() <- R(x, y)\nB2() <- S(a, b)", &one);
        let none = inst(&[("R", vec![]), ("S", vec![])]);
        check("B1() <- R(x, y)\nB2() <- S(a, b)", &none);
    }

    #[test]
    fn empty_members() {
        let i = inst(&[("R", vec![]), ("S", vec![(1, 1)])]);
        check("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)", &i);
    }

    #[test]
    fn non_free_connex_member_rejected() {
        let u = parse_ucq("Q1(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(Algorithm1::member_engines(&u, &Instance::new(), &CtxView::new()).is_err());
    }

    #[test]
    fn shared_engines_restart_cleanly() {
        // Sessions rebuild enumerators from the same engines; both runs must
        // produce the full answer set.
        let u = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap();
        let i = inst(&[("R", vec![(1, 2), (3, 4)]), ("S", vec![(3, 4), (5, 6)])]);
        let ctx = CtxView::new();
        let engines = Algorithm1::member_engines(&u, &i, &ctx).unwrap();
        let a = answers(&engines, &ctx);
        let b = answers(&engines, &ctx);
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
    }
}
