//! The Constant-Delay Yannakakis (CDY) algorithm [11, 20].
//!
//! Given an `S`-connex acyclic CQ, [`CdyEngine::build_in`] runs the linear
//! preprocessing phase: it constructs an ext-S-connex tree, loads the atom
//! relations through the shared context view (interned, normalized and
//! cached per `(relation, atom shape)`), projects the extension nodes, and
//! applies the full reducer. Afterwards:
//!
//! * [`OwnedCdyIter`] enumerates the projection of the query onto `S`
//!   with constant delay and no duplicates (the paper's Theorem 3(1) upper
//!   bound; with `S = free(Q)` this enumerates `Q(I)`), as interned id
//!   rows;
//! * [`CdyEngine::contains_ids`] answers membership of an id row in
//!   constant time (Algorithm 1's line-4 probe);
//! * [`OwnedCdyIter::next_binding_into`] plus
//!   [`CdyEngine::extend_full_block`] extend answers to full homomorphisms
//!   — the "extend once" step in the proof of Lemma 8.
//!
//! Enumeration and membership run entirely on interned [`ValueId`]s:
//! separator probes project the current binding into a reused key buffer
//! and look up the per-node [`HashIndex`] with a **borrowed** `&[ValueId]`
//! key — no heap allocation per answer, and no decode at all: values are
//! decoded where answers leave the id spine (see `ucq_enumerate`).

use crate::noderel::NodeRel;
use crate::reducer::full_reduce;
use std::fmt;
use std::sync::Arc;
use ucq_hypergraph::{ext_s_connex_tree, VSet};
use ucq_query::{Cq, VarId};
use ucq_storage::sync::OnceLock;
use ucq_storage::{CtxView, HashIndex, IdBlock, IdSet, Instance, Tuple, ValueId};

/// Evaluation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The query is not `S`-connex, so CDY does not apply.
    NotSConnex {
        /// Query name.
        query: String,
        /// The `S` that failed.
        s: VSet,
    },
    /// Schema problem (arity mismatch between atom and stored relation).
    Schema(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotSConnex { query, s } => {
                write!(f, "query {query} is not {s}-connex; CDY does not apply")
            }
            EvalError::Schema(m) => write!(f, "schema error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A preprocessed CDY evaluation of one CQ.
#[derive(Debug)]
pub struct CdyEngine {
    /// Connex-first traversal order; the first `n_connex` entries are `T'`.
    order: Vec<usize>,
    n_connex: usize,
    /// Reduced node relations (interned, columnar).
    rels: Vec<NodeRel>,
    /// Per-node lookup index keyed on the separator with the parent
    /// (`None` only for the root).
    indexes: Vec<Option<HashIndex>>,
    /// Separators with the parent, as sorted variable-id lists (binding
    /// positions) — precomputed so probes and block extension gather keys
    /// without re-iterating bitsets or allocating.
    sep_vars: Vec<Vec<u32>>,
    /// Membership sets for connex nodes, built lazily on the first
    /// [`CdyEngine::contains_ids`] call — enumeration-only engines never
    /// pay for them.
    row_sets: Vec<OnceLock<IdSet>>,
    /// Row ids of the root (iterated in full).
    root_rows: Vec<u32>,
    /// Output spec: one variable per output position.
    output: Vec<VarId>,
    /// Whether `output` covers the connex target `S` exactly — the
    /// precondition of membership, fixed at build time.
    output_covers_s: bool,
    n_vars: u32,
    nonempty: bool,
    /// The session this engine's ids belong to (build or frozen phase).
    ctx: CtxView,
}

impl CdyEngine {
    /// Builds the engine for `Q(I)` itself with a private context:
    /// `S = free(Q)`, output = head. Fails with [`EvalError::NotSConnex`]
    /// unless `Q` is free-connex. Prefer [`CdyEngine::for_query_in`] when
    /// evaluating several queries (or repeatedly) over one instance.
    pub fn for_query(cq: &Cq, instance: &Instance) -> Result<CdyEngine, EvalError> {
        CdyEngine::for_query_in(cq, instance, &CtxView::new())
    }

    /// As [`CdyEngine::for_query`], sharing the caches of `ctx`.
    pub fn for_query_in(
        cq: &Cq,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        CdyEngine::build_in(cq, cq.free(), cq.head().to_vec(), instance, ctx)
    }

    /// Builds the engine enumerating `π_S(Q)` with output columns the sorted
    /// variables of `s`, with a private context. Fails unless `Q` is
    /// `S`-connex.
    pub fn for_projection(cq: &Cq, s: VSet, instance: &Instance) -> Result<CdyEngine, EvalError> {
        CdyEngine::for_projection_in(cq, s, instance, &CtxView::new())
    }

    /// As [`CdyEngine::for_projection`], sharing the caches of `ctx`.
    pub fn for_projection_in(
        cq: &Cq,
        s: VSet,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        CdyEngine::build_in(cq, s, s.iter().collect(), instance, ctx)
    }

    /// The general constructor: enumerates bindings of the connex subtree
    /// covering `s`, outputting the variables in `output` (each must lie in
    /// `s`). All relation loading goes through `ctx`, so engines built over
    /// the same instance share interned data and normalizations.
    pub fn build_in(
        cq: &Cq,
        s: VSet,
        output: Vec<VarId>,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        for &v in &output {
            assert!(
                s.contains(v),
                "output variable {} not in the connex target {s}",
                cq.var_name(v)
            );
        }
        let h = cq.hypergraph();
        let ct = ext_s_connex_tree(&h, s).ok_or_else(|| EvalError::NotSConnex {
            query: cq.name().to_string(),
            s,
        })?;

        // Load atom relations through the shared context.
        let n_nodes = ct.tree.len();
        let mut rels: Vec<Option<NodeRel>> = vec![None; n_nodes];
        for (i, node) in ct.tree.nodes().iter().enumerate() {
            if let Some(ai) = node.atom {
                let atom = &cq.atoms()[ai];
                let nr = match instance.get_shared(&atom.rel) {
                    Some(stored) => {
                        NodeRel::from_atom(atom, &stored, ctx).map_err(EvalError::Schema)?
                    }
                    // Missing relations are empty (as in the paper's
                    // reductions, which "leave relations empty").
                    None => NodeRel::empty(atom),
                };
                rels[i] = Some(nr);
            }
        }
        // Extension nodes: project any atom node that covers them.
        for i in 0..n_nodes {
            if rels[i].is_some() {
                continue;
            }
            let vars = ct.tree.nodes()[i].vars;
            let carrier = (0..n_nodes)
                .find(|&j| rels[j].is_some() && vars.is_subset(ct.tree.nodes()[j].vars))
                .expect("inclusive extension: every node is inside some atom");
            let projected = rels[carrier]
                .as_ref()
                .expect("carrier loaded")
                .project(vars);
            rels[i] = Some(projected);
        }
        let mut rels: Vec<NodeRel> = rels.into_iter().map(|r| r.expect("all set")).collect();

        // Linear preprocessing: the full reducer.
        let nonempty = full_reduce(&ct.tree, &mut rels);

        // Lookup structures over the reduced relations.
        //
        // The traversal order must keep every `T'` (connex) node before the
        // rest and every parent before its children, but sibling order is
        // free. Default to the canonical traversal and pull a ready node
        // forward only when its reduced relation is decisively smaller —
        // under half the rows of the canonical next pick — so the skewed
        // cases enumerate cheap nodes at shallow depths while near-uniform
        // trees keep the canonical order exactly.
        let base_order = ct.order_connex_first();
        let n_connex = ct.connex_nodes().len();
        let mut is_connex = vec![false; n_nodes];
        for n in ct.connex_nodes() {
            is_connex[n] = true;
        }
        let mut order: Vec<usize> = Vec::with_capacity(base_order.len());
        let mut placed = vec![false; n_nodes];
        for phase in 0..2 {
            loop {
                let mut default: Option<usize> = None;
                let mut smallest: Option<usize> = None;
                for &n in &base_order {
                    if placed[n] || is_connex[n] != (phase == 0) {
                        continue;
                    }
                    if let Some(p) = ct.tree.parent(n) {
                        if !placed[p] {
                            continue;
                        }
                    }
                    if default.is_none() {
                        default = Some(n);
                    }
                    if smallest.is_none_or(|b| rels[n].rel.len() < rels[b].rel.len()) {
                        smallest = Some(n);
                    }
                }
                let Some(d) = default else { break };
                let n = match smallest {
                    Some(s) if rels[s].rel.len() * 2 < rels[d].rel.len() => s,
                    _ => d,
                };
                placed[n] = true;
                order.push(n);
            }
        }
        debug_assert_eq!(order.len(), base_order.len(), "reorder is a permutation");
        let mut sep_vars: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        let mut indexes: Vec<Option<HashIndex>> = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            match ct.tree.parent(i) {
                Some(_) => {
                    let sep = ct.tree.separator(i);
                    sep_vars[i] = sep.iter().collect();
                    let cols = rels[i].cols_of(sep);
                    indexes.push(Some(HashIndex::build(&rels[i].rel, &cols)));
                }
                None => indexes.push(None),
            }
        }
        let row_sets: Vec<OnceLock<IdSet>> = vec![OnceLock::new(); n_nodes];
        let root = ct.tree.root();
        let root_rows: Vec<u32> = (0..rels[root].rel.len() as u32).collect();
        let output_covers_s = output.iter().copied().collect::<VSet>() == ct.s;

        Ok(CdyEngine {
            order,
            n_connex,
            rels,
            indexes,
            sep_vars,
            row_sets,
            root_rows,
            output,
            output_covers_s,
            n_vars: cq.n_vars(),
            nonempty,
            ctx: ctx.clone(),
        })
    }

    /// Whether the query has at least one answer (`Decide⟨Q⟩`).
    pub fn decide(&self) -> bool {
        self.nonempty
    }

    /// The output arity.
    pub fn output_arity(&self) -> usize {
        self.output.len()
    }

    /// The output variable per position.
    pub fn output_vars(&self) -> &[VarId] {
        &self.output
    }

    /// The evaluation context this engine shares.
    pub fn context(&self) -> &CtxView {
        &self.ctx
    }

    /// Retargets this engine onto another view of the *same* session —
    /// used by `EvalSession::freeze` to swap prepared engines from the
    /// build-phase context to its frozen snapshot without rebuilding. The
    /// ids baked into the node relations must be valid under `view`.
    pub fn set_view(&mut self, view: CtxView) {
        self.ctx = view;
    }

    /// Membership of a value tuple — the value-level adapter over
    /// [`CdyEngine::contains_ids`] for callers that hold values: one
    /// dictionary lookup per value, then the id probe.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        let mut ids = Vec::with_capacity(tuple.arity());
        // A value the session has never interned cannot be in any relation.
        self.ctx.lookup_row(tuple.values(), &mut ids)
            && self.contains_ids(&ids, &mut ContainsScratch::default())
    }

    /// Constant-time membership test for an output row of interned ids
    /// (ids of this engine's dictionary lineage), reusing caller-provided
    /// scratch so repeated probes (Algorithm 1's line 4) never allocate,
    /// decode or consult the dictionary. Only valid when the output
    /// variables cover the connex target `S` (true for
    /// [`CdyEngine::for_query`] and [`CdyEngine::for_projection`]).
    pub fn contains_ids(&self, row: &[ValueId], scratch: &mut ContainsScratch) -> bool {
        assert!(
            self.output_covers_s,
            "membership requires the output to cover S exactly"
        );
        assert_eq!(row.len(), self.output.len(), "arity mismatch");
        if !self.nonempty {
            return false;
        }
        // Bind output positions, rejecting inconsistent repeats.
        scratch.binding.clear();
        scratch.binding.resize(self.n_vars as usize, None);
        for (&v, &id) in self.output.iter().zip(row) {
            match scratch.binding[v as usize] {
                Some(existing) if existing != id => return false,
                _ => scratch.binding[v as usize] = Some(id),
            }
        }
        for &n in &self.order[..self.n_connex] {
            let nr = &self.rels[n];
            scratch.buf.clear();
            for &v in &nr.vars {
                match scratch.binding[v as usize] {
                    Some(id) => scratch.buf.push(id),
                    None => unreachable!("T' variables are all in S"),
                }
            }
            let rows = self.row_sets[n].get_or_init(|| IdSet::build(&self.rels[n].rel));
            if !rows.contains(&scratch.buf) {
                return false;
            }
        }
        true
    }

    /// Number of query variables (bindings are indexed by variable id).
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Extends a block of connex bindings — `n_vars` ids per binding,
    /// stored contiguously in `block` — to full homomorphisms in bulk: for
    /// each non-connex node (in descend order), the whole block's separator
    /// keys are gathered into one run and resolved through the node index
    /// via [`HashIndex::probe_batch`], taking the first witness row per
    /// binding. This is the batched form of the per-answer "extend once"
    /// step (Lemma 8): per node, the index and its CSR arena stay hot for
    /// the whole block, and consecutive bindings sharing a separator skip
    /// the hash entirely.
    pub fn extend_full_block(&self, block: &mut [ValueId]) {
        let w = self.n_vars as usize;
        if w == 0 || block.is_empty() {
            return;
        }
        debug_assert_eq!(block.len() % w, 0, "partial binding in block");
        let n = block.len() / w;
        let mut keys: Vec<ValueId> = Vec::new();
        let mut witnesses: Vec<u32> = Vec::new();
        for d in self.n_connex..self.order.len() {
            let node = self.order[d];
            match &self.indexes[node] {
                None => {
                    // Root without a parent separator: one arbitrary witness.
                    let row = self.root_rows[0];
                    for b in 0..n {
                        self.bind_row(node, row, &mut block[b * w..(b + 1) * w]);
                    }
                }
                Some(idx) => {
                    let sep_vars = &self.sep_vars[node];
                    if sep_vars.is_empty() {
                        // Disconnected witness node: same first row for all.
                        let row = idx.get(&[])[0];
                        for b in 0..n {
                            self.bind_row(node, row, &mut block[b * w..(b + 1) * w]);
                        }
                        continue;
                    }
                    keys.clear();
                    keys.reserve(n * sep_vars.len());
                    for b in 0..n {
                        let binding = &block[b * w..(b + 1) * w];
                        keys.extend(sep_vars.iter().map(|&v| binding[v as usize]));
                    }
                    // Witness rows per binding, resolved in bulk. Collected
                    // first: the probe borrows `keys` while `block` must be
                    // rebound afterwards.
                    witnesses.clear();
                    witnesses.extend(idx.probe_batch(&keys, sep_vars.len()).map(|(_, rows)| {
                        debug_assert!(!rows.is_empty(), "reducer guarantees witnesses");
                        rows[0]
                    }));
                    for (b, &row) in witnesses.iter().enumerate() {
                        self.bind_row(node, row, &mut block[b * w..(b + 1) * w]);
                    }
                }
            }
        }
    }

    /// Resolves the match slot (a stable cursor handle) for `node` under the
    /// current binding, projecting the separator into `key_buf` (reused —
    /// probes allocate nothing).
    fn slot(&self, node: usize, binding: &[ValueId], key_buf: &mut Vec<ValueId>) -> Option<Slot> {
        match &self.indexes[node] {
            None => Some(Slot::Root),
            Some(idx) => {
                // Project the binding onto the separator (sorted var order
                // matches the index key columns).
                key_buf.clear();
                key_buf.extend(self.sep_vars[node].iter().map(|&v| binding[v as usize]));
                idx.gid_of(key_buf).map(Slot::Group)
            }
        }
    }

    fn rows(&self, node: usize, slot: Slot) -> &[u32] {
        match slot {
            Slot::Root => &self.root_rows,
            Slot::Group(g) => self.indexes[node]
                .as_ref()
                .expect("grouped slots only exist for indexed nodes")
                .group(g),
        }
    }

    fn bind_row(&self, node: usize, row_id: u32, binding: &mut [ValueId]) {
        let nr = &self.rels[node];
        for (col, &v) in nr.vars.iter().enumerate() {
            binding[v as usize] = nr.rel.at(row_id as usize, col);
        }
    }
}

/// Reusable buffers for [`CdyEngine::contains_ids`]; one scratch serves
/// probes into any number of engines.
#[derive(Debug, Default)]
pub struct ContainsScratch {
    binding: Vec<Option<ValueId>>,
    buf: Vec<ValueId>,
}

/// A stable cursor handle into a node's match list: either the whole root
/// relation or one group of a separator index.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Root,
    Group(u32),
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    slot: Slot,
    pos: usize,
}

#[derive(Clone, Copy)]
enum IterPhase {
    Start,
    Running,
    Done,
}

/// Owned enumeration state — no borrows, so enumerators can own their
/// engine (see [`OwnedCdyIter`]). Holds every buffer the per-answer step
/// needs; advancing allocates nothing.
struct IterCore {
    frames: Vec<Frame>,
    binding: Vec<ValueId>,
    key_buf: Vec<ValueId>,
    phase: IterPhase,
}

impl IterCore {
    fn new(eng: &CdyEngine) -> IterCore {
        IterCore {
            frames: Vec::with_capacity(eng.n_connex),
            binding: vec![ValueId::BOTTOM; eng.n_vars as usize],
            key_buf: Vec::with_capacity(8),
            phase: IterPhase::Start,
        }
    }

    /// Core backtracking step: leaves `self.binding` holding the next full
    /// assignment of the connex subtree; returns `false` when exhausted.
    fn advance(&mut self, eng: &CdyEngine) -> bool {
        match self.phase {
            IterPhase::Done => return false,
            IterPhase::Start => {
                self.phase = IterPhase::Running;
                if !eng.nonempty || eng.n_connex == 0 {
                    self.phase = IterPhase::Done;
                    return false;
                }
                // Descend all the way down; every lookup is non-empty after
                // reduction.
                for d in 0..eng.n_connex {
                    let node = eng.order[d];
                    let slot = self.descend(eng, node);
                    debug_assert!(slot.is_some(), "reducer guarantees matches");
                    if slot.is_none() {
                        self.phase = IterPhase::Done;
                        return false;
                    }
                }
                return true;
            }
            IterPhase::Running => {}
        }
        // Find the deepest frame that can advance.
        let mut d = eng.n_connex;
        loop {
            if d == 0 {
                self.phase = IterPhase::Done;
                return false;
            }
            d -= 1;
            let node = eng.order[d];
            let frame = self.frames[d];
            let rows = eng.rows(node, frame.slot);
            if frame.pos + 1 < rows.len() {
                self.frames[d].pos += 1;
                let row = rows[frame.pos + 1];
                eng.bind_row(node, row, &mut self.binding);
                break;
            }
            self.frames.pop();
        }
        // Re-descend below `d`.
        for depth in d + 1..eng.n_connex {
            let node = eng.order[depth];
            let slot = self.descend(eng, node);
            debug_assert!(slot.is_some(), "reducer guarantees matches");
            if slot.is_none() {
                self.phase = IterPhase::Done;
                return false;
            }
        }
        true
    }

    /// Pushes a fresh frame for `node` positioned at its first match and
    /// applies the binding. Returns `None` if there are no matches (which
    /// the full reducer rules out on reachable paths).
    fn descend(&mut self, eng: &CdyEngine, node: usize) -> Option<()> {
        let slot = eng.slot(node, &self.binding, &mut self.key_buf)?;
        let rows = eng.rows(node, slot);
        if rows.is_empty() {
            return None;
        }
        eng.bind_row(node, rows[0], &mut self.binding);
        self.frames.push(Frame { slot, pos: 0 });
        Some(())
    }
}

/// A constant-delay enumerator sharing its engine (`Arc`), suitable for
/// pipelines that outlive the building scope and for sessions that start
/// many enumerations off one preprocessed engine.
pub struct OwnedCdyIter {
    eng: Arc<CdyEngine>,
    core: IterCore,
}

impl OwnedCdyIter {
    /// Builds an enumerator over a shared preprocessed engine.
    pub fn new(eng: Arc<CdyEngine>) -> OwnedCdyIter {
        let core = IterCore::new(&eng);
        OwnedCdyIter { eng, core }
    }

    /// Access to the underlying engine (e.g. for membership tests).
    pub fn engine(&self) -> &CdyEngine {
        &self.eng
    }

    /// Advances to the next answer and appends the raw *connex* binding
    /// (`n_vars` ids, indexed by variable id; non-connex variables hold
    /// stale ids) to `out`; returns `false` when exhausted. Blocks of
    /// bindings gathered this way feed [`CdyEngine::extend_full_block`]
    /// (Lemma 8's "extend once" step, in bulk).
    pub fn next_binding_into(&mut self, out: &mut Vec<ValueId>) -> bool {
        if !self.core.advance(&self.eng) {
            return false;
        }
        out.extend_from_slice(&self.core.binding);
        true
    }
}

/// The id-level spine adapter: answers are appended to the caller's block
/// as raw output-projected id rows — no decode, no per-answer allocation.
/// This is what the Theorem 12 pipeline chains under its Cheater compiler.
impl ucq_enumerate::IdEnumerator for OwnedCdyIter {
    fn arity(&self) -> usize {
        self.eng.output_arity()
    }

    fn next_block(&mut self, block: &mut IdBlock) -> usize {
        debug_assert_eq!(block.arity(), self.eng.output_arity());
        let mut n = 0;
        while !block.is_full() && self.core.advance(&self.eng) {
            block.push_row_from(
                self.eng
                    .output
                    .iter()
                    .map(|&v| self.core.binding[v as usize]),
            );
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_enumerate::{Enumerator, IdDecoder};
    use ucq_query::parse_cq;
    use ucq_storage::{Relation, Value};

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    /// Drains a fresh enumeration of `eng`, decoded at the edge.
    fn answers(eng: &Arc<CdyEngine>) -> Vec<Tuple> {
        IdDecoder::new(OwnedCdyIter::new(Arc::clone(eng)), eng.context().clone()).collect_all()
    }

    /// The interned ids of `values` (all must already be interned).
    fn ids(eng: &CdyEngine, values: &[i64]) -> Vec<ValueId> {
        let values: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
        let mut out = Vec::new();
        assert!(eng.context().lookup_row(&values, &mut out), "unknown value");
        out
    }

    #[test]
    fn full_projection_path_join() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2), (5, 6)]), ("S", vec![(2, 3), (2, 4)])]);
        let eng = Arc::new(CdyEngine::for_query(&q, &i).unwrap());
        assert!(eng.decide());
        let mut got = answers(&eng);
        got.sort();
        let expect: Vec<Tuple> = vec![
            Tuple::from(&[1i64, 2, 3][..]),
            Tuple::from(&[1i64, 2, 4][..]),
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn projection_mode_enumerates_s() {
        // π_{x,z} of R(x,z) ⋈ S(z,y): only z values with S-partners remain.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s: VSet = [0u32, 2].into_iter().collect(); // {x, z}
        let i = inst(&[("R", vec![(1, 2), (5, 9)]), ("S", vec![(2, 3)])]);
        let eng = Arc::new(CdyEngine::for_projection(&q, s, &i).unwrap());
        let got = answers(&eng);
        assert_eq!(got, vec![Tuple::from(&[1i64, 2][..])]);
    }

    #[test]
    fn non_free_connex_rejected() {
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let err = CdyEngine::for_query(&q, &Instance::new()).unwrap_err();
        assert!(matches!(err, EvalError::NotSConnex { .. }));
    }

    #[test]
    fn boolean_query_decides() {
        let q = parse_cq("B() <- R(x, y), S(y, z)").unwrap();
        let yes = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let eng = Arc::new(CdyEngine::for_query(&q, &yes).unwrap());
        assert!(eng.decide());
        assert_eq!(answers(&eng), vec![Tuple::empty()]);

        let no = inst(&[("R", vec![(1, 2)]), ("S", vec![(9, 3)])]);
        let eng = Arc::new(CdyEngine::for_query(&q, &no).unwrap());
        assert!(!eng.decide());
        assert!(answers(&eng).is_empty());
    }

    #[test]
    fn missing_relation_is_empty() {
        let q = parse_cq("Q(x, y) <- R(x, y), S(y, x)").unwrap();
        let i = inst(&[("R", vec![(1, 2)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        assert!(!eng.decide());
    }

    #[test]
    fn membership_testing() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        assert!(eng.contains(&Tuple::from(&[1i64, 2, 3][..])));
        assert!(!eng.contains(&Tuple::from(&[1i64, 2, 9][..])));
        assert!(!eng.contains(&Tuple::from(&[9i64, 2, 3][..])));
    }

    #[test]
    fn membership_scratch_reuse() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        let mut scratch = ContainsScratch::default();
        assert!(eng.contains_ids(&ids(&eng, &[1, 2, 3]), &mut scratch));
        assert!(!eng.contains_ids(&ids(&eng, &[1, 2, 1]), &mut scratch));
        assert!(eng.contains_ids(&ids(&eng, &[1, 2, 3]), &mut scratch));
    }

    #[test]
    fn repeated_head_variable() {
        let q = parse_cq("Q(x, x, y) <- R(x, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)])]);
        let eng = Arc::new(CdyEngine::for_query(&q, &i).unwrap());
        let got = answers(&eng);
        assert_eq!(got, vec![Tuple::from(&[1i64, 1, 2][..])]);
        assert!(eng.contains(&Tuple::from(&[1i64, 1, 2][..])));
        // Inconsistent repeats are rejected by membership.
        assert!(!eng.contains(&Tuple::from(&[1i64, 7, 2][..])));
    }

    #[test]
    fn full_binding_extension() {
        // Enumerate π_{x} of R(x,z) ⋈ S(z,y) and extend each answer with a
        // witness for z and y.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s = VSet::singleton(0); // {x}
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3), (2, 4)])]);
        let eng = CdyEngine::build_in(&q, s, vec![0], &i, &CtxView::new()).unwrap();
        let mut it = OwnedCdyIter::new(Arc::new(eng));
        let mut block = Vec::new();
        assert!(it.next_binding_into(&mut block));
        it.engine().extend_full_block(&mut block);
        let ctx = it.engine().context();
        let binding: Vec<Value> = block.iter().map(|&id| ctx.decode(id)).collect();
        assert_eq!(binding[0], Value::Int(1));
        // Witness: z = 2, y ∈ {3, 4}.
        assert_eq!(binding[2], Value::Int(2));
        assert!(binding[1] == Value::Int(3) || binding[1] == Value::Int(4));
        assert!(!it.next_binding_into(&mut block));
    }

    #[test]
    fn no_duplicates_from_witness_branches() {
        // π_{x}: many (z,y) witnesses per x must yield one answer.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s = VSet::singleton(0);
        let i = inst(&[
            ("R", vec![(1, 2), (1, 5)]),
            ("S", vec![(2, 3), (2, 4), (5, 6)]),
        ]);
        let eng = Arc::new(CdyEngine::build_in(&q, s, vec![0], &i, &CtxView::new()).unwrap());
        assert_eq!(answers(&eng), vec![Tuple::from(&[1i64][..])]);
    }

    #[test]
    fn star_join_free_connex() {
        // Q(x,y,z) <- E(x,y), F(x,z): free-connex; output is the join.
        let q = parse_cq("Q(x, y, z) <- E(x, y), F(x, z)").unwrap();
        let i = inst(&[("E", vec![(1, 10), (1, 11)]), ("F", vec![(1, 20), (2, 9)])]);
        let eng = Arc::new(CdyEngine::for_query(&q, &i).unwrap());
        let mut got = answers(&eng);
        got.sort();
        assert_eq!(
            got,
            vec![
                Tuple::from(&[1i64, 10, 20][..]),
                Tuple::from(&[1i64, 11, 20][..]),
            ]
        );
    }

    #[test]
    fn shared_context_reuses_normalizations() {
        let ctx = CtxView::new();
        let i = inst(&[("R", vec![(1, 2), (2, 3)]), ("S", vec![(2, 4), (3, 5)])]);
        let q1 = parse_cq("Q(x, y, z) <- R(x, y), S(y, z)").unwrap();
        let q2 = parse_cq("P(a, b, c) <- R(a, b), S(b, c)").unwrap();
        let e1 = Arc::new(CdyEngine::for_query_in(&q1, &i, &ctx).unwrap());
        let e2 = Arc::new(CdyEngine::for_query_in(&q2, &i, &ctx).unwrap());
        assert!(
            ctx.stats().derived_hits >= 2,
            "q2 reused q1's normalizations"
        );
        let mut a1 = answers(&e1);
        let mut a2 = answers(&e2);
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2, "same bodies, same answers");
    }
}
