//! Functional dependencies and FD-extensions (Remark 2).
//!
//! The paper notes that its machinery composes with the authors' earlier
//! dichotomy for CQs under functional dependencies (Carmeli & Kröll,
//! ICDT 2018 — reference [6]): *"Given a UCQ over a schema with functional
//! dependencies, we can first take the FD-extensions of all CQs in the
//! union, and then take the union extensions of those and evaluate the
//! union."*
//!
//! A functional dependency `R : X → y` (determinant positions `X`, a
//! determined position `y`) means every two `R`-tuples agreeing on `X`
//! agree on `y`. The **FD-extension** of a CQ repeatedly applies two rules
//! until fixpoint, neither of which changes the semantics over instances
//! satisfying the FDs:
//!
//! 1. **atom saturation** — if an atom `R(v̄)` covers the determinant
//!    variables of some FD on any relation of the query (through another
//!    atom `R'(w̄)` with `w̄[X] = v̄'s` variables at those positions… we use
//!    the per-atom form: the FD holds on the atom's own relation), the
//!    determined variable is appended to that atom;
//! 2. **head saturation** — if all determinant variables of an applied FD
//!    instance are free, the determined variable is added to the head.
//!
//! Concretely, following ICDT'18: for an FD `R : X → y` and an atom
//! `R(v̄)`, every *other* atom `S(ū)` whose variables contain `v̄[X]` gets
//! `v̄[y]` appended, and the head gets `v̄[y]` appended whenever
//! `v̄[X] ⊆ free(Q)`. Enumerating the extension is equivalent to
//! enumerating the original (the added coordinates are functions of
//! existing ones), so classification can be performed on the extension.
//!
//! Relations named by FDs are *extended* too at evaluation time:
//! [`extend_instance`] widens each saturated atom's relation with the
//! functionally determined columns so the extended query can run on real
//! data. (Each added column is computed by joining with the FD's source
//! atom — linear time with a hash index.)

use std::collections::HashMap;
use ucq_query::{Atom, Cq, QueryError, Ucq, VarId};
use ucq_storage::{HashIndex, Instance, Relation, Value};

/// A functional dependency `rel : lhs → rhs` over column positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fd {
    /// Relation name.
    pub rel: String,
    /// Determinant column positions.
    pub lhs: Vec<usize>,
    /// Determined column position.
    pub rhs: usize,
}

impl Fd {
    /// Creates an FD; panics on an empty determinant or `rhs ∈ lhs`.
    pub fn new(rel: impl Into<String>, lhs: Vec<usize>, rhs: usize) -> Fd {
        assert!(!lhs.is_empty(), "FDs need at least one determinant column");
        assert!(!lhs.contains(&rhs), "trivial FD");
        Fd {
            rel: rel.into(),
            lhs,
            rhs,
        }
    }

    /// Whether a relation satisfies this FD.
    pub fn holds_on(&self, rel: &Relation) -> bool {
        let mut seen: HashMap<Vec<Value>, Value> = HashMap::with_capacity(rel.len());
        for row in rel.iter_rows() {
            if self.lhs.iter().any(|&c| c >= rel.arity()) || self.rhs >= rel.arity() {
                return false;
            }
            let key: Vec<Value> = self.lhs.iter().map(|&c| row[c]).collect();
            match seen.insert(key, row[self.rhs]) {
                Some(prev) if prev != row[self.rhs] => return false,
                _ => {}
            }
        }
        true
    }
}

/// A set of FDs over a schema.
#[derive(Clone, Debug, Default)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// Creates an FD set.
    pub fn new(fds: Vec<Fd>) -> FdSet {
        FdSet { fds }
    }

    /// The member FDs.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Whether all FDs hold on `inst` (absent relations count as holding).
    pub fn holds_on(&self, inst: &Instance) -> bool {
        self.fds
            .iter()
            .all(|fd| inst.get(&fd.rel).map(|r| fd.holds_on(r)).unwrap_or(true))
    }
}

/// One applied FD instance recorded while extending a query: the source
/// atom index, the FD, and the determined variable chosen for it.
#[derive(Clone, Debug)]
pub struct AppliedFd {
    /// Index of the source atom (in the *original* query's atom order).
    pub atom: usize,
    /// The FD that fired.
    pub fd: Fd,
    /// The determinant variables `v̄[X]`.
    pub lhs_vars: Vec<VarId>,
    /// The determined variable `v̄[y]`.
    pub rhs_var: VarId,
}

/// The FD-extension of one CQ: the extended query plus the trace of
/// applied FDs (used to extend instances consistently).
#[derive(Clone, Debug)]
pub struct FdExtension {
    /// The extended query.
    pub query: Cq,
    /// Which FD applications widened which atoms: `(target_atom_index,
    /// application)` pairs, in application order. Atom indices refer to the
    /// extended query's atom order (identical to the original order).
    pub widened: Vec<(usize, AppliedFd)>,
}

/// Computes the FD-extension of `cq` under `fds` (ICDT'18 construction,
/// used here as the Remark 2 preprocessing step).
pub fn fd_extend_cq(cq: &Cq, fds: &FdSet) -> Result<FdExtension, QueryError> {
    // Working state: atom variable lists + head, all over cq's namespace.
    let mut atoms: Vec<Atom> = cq.atoms().to_vec();
    let mut head: Vec<VarId> = cq.head().to_vec();
    let mut widened: Vec<(usize, AppliedFd)> = Vec::new();

    // Fixpoint: apply every FD instance to every atom until nothing grows.
    // Termination: every rule only adds a variable (bounded by n_vars per
    // atom / head).
    let mut changed = true;
    while changed {
        changed = false;
        for src in 0..cq.atoms().len() {
            let src_atom = atoms[src].clone();
            for fd in fds.fds() {
                if fd.rel != src_atom.rel
                    || fd.lhs.iter().any(|&c| c >= src_atom.args.len())
                    || fd.rhs >= src_atom.args.len()
                {
                    continue;
                }
                let lhs_vars: Vec<VarId> = fd.lhs.iter().map(|&c| src_atom.args[c]).collect();
                let rhs_var = src_atom.args[fd.rhs];
                let app = AppliedFd {
                    atom: src,
                    fd: fd.clone(),
                    lhs_vars: lhs_vars.clone(),
                    rhs_var,
                };
                // Head saturation.
                if lhs_vars.iter().all(|v| head.contains(v)) && !head.contains(&rhs_var) {
                    head.push(rhs_var);
                    changed = true;
                }
                // Atom saturation: any other atom containing all the
                // determinant variables absorbs the determined one.
                for (t, atom) in atoms.iter_mut().enumerate() {
                    if t == src {
                        continue;
                    }
                    let has_lhs = lhs_vars.iter().all(|v| atom.args.contains(v));
                    if has_lhs && !atom.args.contains(&rhs_var) {
                        atom.args.push(rhs_var);
                        widened.push((t, app.clone()));
                        changed = true;
                    }
                }
            }
        }
    }

    let query = Cq::new(
        format!("{}_fd", cq.name()),
        head,
        atoms,
        cq.var_names().to_vec(),
    )?;
    Ok(FdExtension { query, widened })
}

/// Computes the FD-extension of every member of a union. Fails when the
/// extended heads disagree in arity (heads can grow differently when the
/// members' free variables determine different closures; the paper's
/// setting requires the union's members to share their free variables, so
/// the closure is shared too — on the positional encoding this surfaces as
/// an arity mismatch and is reported as an error).
pub fn fd_extend_ucq(ucq: &Ucq, fds: &FdSet) -> Result<(Ucq, Vec<FdExtension>), QueryError> {
    let exts: Vec<FdExtension> = ucq
        .cqs()
        .iter()
        .map(|cq| fd_extend_cq(cq, fds))
        .collect::<Result<_, _>>()?;
    let extended = Ucq::new(exts.iter().map(|e| e.query.clone()).collect())?;
    Ok((extended, exts))
}

/// Widens an instance to match an FD-extended query: every widened atom's
/// relation gains the functionally determined columns, computed by joining
/// against the FD's source relation. Panics if the instance violates an
/// applied FD (callers should check [`FdSet::holds_on`] first).
pub fn extend_instance(original: &Cq, ext: &FdExtension, inst: &Instance) -> Instance {
    let mut out = inst.clone();
    // Process in application order: later applications may depend on
    // columns added by earlier ones. We rebuild each target relation as a
    // growing row table.
    let mut current: HashMap<usize, Relation> = HashMap::new();
    let get_rel = |name: &str, arity: usize, inst: &Instance| -> Relation {
        inst.get(name)
            .cloned()
            .unwrap_or_else(|| Relation::new(arity))
    };
    // One interned index per (source atom, lhs) — an FD whose source
    // widens several targets must not re-intern the source per target.
    // (Local interning: widening is a preprocessing step that runs before
    // any context exists.)
    type SrcEntry = (Relation, ucq_storage::Dictionary, HashIndex);
    let mut src_cache: HashMap<(usize, Vec<usize>), SrcEntry> = HashMap::new();
    for (t, app) in &ext.widened {
        let target_atom = &original.atoms()[*t];
        let target_now = current
            .remove(t)
            .unwrap_or_else(|| get_rel(&target_atom.rel, target_atom.args.len(), inst));
        // The source relation provides lhs -> rhs lookups.
        let (src_rel, dict, idx) = src_cache
            .entry((app.atom, app.fd.lhs.clone()))
            .or_insert_with(|| {
                let src_atom = &original.atoms()[app.atom];
                let src_rel = get_rel(&src_atom.rel, src_atom.args.len(), inst);
                let mut dict = ucq_storage::Dictionary::new();
                let src_ids = src_rel.columnar(&mut dict);
                let idx = HashIndex::build(&src_ids, &app.fd.lhs);
                (src_rel, dict, idx)
            });

        // Positions of the lhs variables inside the *current* target
        // columns (original args + already-appended columns). We track the
        // target's column variables explicitly.
        let target_cols = target_columns(original, ext, *t, &target_now);
        let lhs_pos: Vec<usize> = app
            .lhs_vars
            .iter()
            .map(|v| {
                target_cols
                    .iter()
                    .position(|c| c == v)
                    .expect("saturation rule guarantees the lhs columns exist")
            })
            .collect();

        let mut widened_rel = Relation::with_capacity(target_now.arity() + 1, target_now.len());
        let mut buf: Vec<Value> = Vec::with_capacity(target_now.arity() + 1);
        let mut key: Vec<ucq_storage::ValueId> = Vec::with_capacity(lhs_pos.len());
        for row in target_now.iter_rows() {
            key.clear();
            let known = lhs_pos.iter().all(|&p| match dict.lookup(row[p]) {
                Some(id) => {
                    key.push(id);
                    true
                }
                None => false,
            });
            let matches = if known { idx.get(&key) } else { &[] };
            if matches.is_empty() {
                // No source tuple determines the value: the row is dangling
                // w.r.t. the join and can be dropped without changing the
                // query's answers (the source atom must match anyway).
                continue;
            }
            let val = src_rel.row(matches[0] as usize)[app.fd.rhs];
            debug_assert!(
                matches
                    .iter()
                    .all(|&m| src_rel.row(m as usize)[app.fd.rhs] == val),
                "instance violates FD {:?}",
                app.fd
            );
            buf.clear();
            buf.extend_from_slice(row);
            buf.push(val);
            widened_rel.push_row(&buf);
        }
        current.insert(*t, widened_rel);
    }
    for (t, rel) in current {
        out.insert(ext.query.atoms()[t].rel.clone(), rel);
    }
    out
}

/// The variable of each column of atom `t`'s relation after the widenings
/// applied so far (deduced from the current arity).
fn target_columns(original: &Cq, ext: &FdExtension, t: usize, target_now: &Relation) -> Vec<VarId> {
    let mut cols: Vec<VarId> = original.atoms()[t].args.clone();
    for (tt, app) in &ext.widened {
        if *tt == t && cols.len() < target_now.arity() {
            cols.push(app.rhs_var);
        }
        if cols.len() == target_now.arity() {
            break;
        }
    }
    assert_eq!(cols.len(), target_now.arity(), "column bookkeeping");
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;
    use std::collections::HashSet;
    use ucq_query::{parse_cq, parse_ucq};
    use ucq_storage::Tuple;
    use ucq_yannakakis::evaluate_cq_naive;

    #[test]
    fn fd_holds_detection() {
        let fd = Fd::new("R", vec![0], 1);
        let good = Relation::from_pairs([(1, 10), (2, 20), (1, 10)]);
        let bad = Relation::from_pairs([(1, 10), (1, 11)]);
        assert!(fd.holds_on(&good));
        assert!(!fd.holds_on(&bad));
    }

    #[test]
    #[should_panic(expected = "trivial")]
    fn trivial_fd_rejected() {
        Fd::new("R", vec![1], 1);
    }

    #[test]
    fn matmul_becomes_free_connex_under_key_fd() {
        // Π(x,y) <- A(x,z), B(z,y) with the FD A: x→z (first column is a
        // key). The FD-extension widens the head with z — and the extended
        // query is free-connex (the ICDT'18 phenomenon).
        let q = parse_cq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(!q.is_free_connex());
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();
        // Head gained z.
        assert_eq!(ext.query.head().len(), 3);
        assert!(ext.query.is_free_connex());
    }

    #[test]
    fn atom_saturation_widens_other_atoms() {
        // Q(x,w) <- R(x,y), S(x,w) with R: x→y: S absorbs y.
        let q = parse_cq("Q(x, w) <- R(x, y), S(x, w)").unwrap();
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();
        let s_atom = &ext.query.atoms()[1];
        assert_eq!(s_atom.args.len(), 3, "S(x,w) became S(x,w,y)");
        // Head also gains y (x is free and determines it).
        assert!(ext.query.head().contains(&q.var_id("y").unwrap()));
    }

    #[test]
    fn extension_preserves_semantics_on_fd_instances() {
        let q = parse_cq("Q(x, w) <- R(x, y), S(x, w)").unwrap();
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();

        let inst: Instance = [
            ("R", Relation::from_pairs([(1, 10), (2, 20)])),
            ("S", Relation::from_pairs([(1, 5), (1, 6), (2, 7), (3, 9)])),
        ]
        .into_iter()
        .collect();
        assert!(fds.holds_on(&inst));

        let widened = extend_instance(&q, &ext, &inst);
        // The extended query over the widened instance projects onto the
        // original head exactly like the original query over the original
        // instance.
        let orig: HashSet<Tuple> = evaluate_cq_naive(&q, &inst).unwrap().into_iter().collect();
        let ext_answers = evaluate_cq_naive(&ext.query, &widened).unwrap();
        let orig_head_len = q.head().len();
        let projected: HashSet<Tuple> = ext_answers
            .iter()
            .map(|t| Tuple(t.values()[..orig_head_len].into()))
            .collect();
        assert_eq!(orig, projected);
    }

    #[test]
    fn fd_violating_instance_detected() {
        let fds = FdSet::new(vec![Fd::new("R", vec![0], 1)]);
        let inst: Instance = [("R", Relation::from_pairs([(1, 10), (1, 11)]))]
            .into_iter()
            .collect();
        assert!(!fds.holds_on(&inst));
    }

    #[test]
    fn remark2_pipeline_fd_then_union_extension() {
        // A union that is NOT free-connex without FDs: the matmul member
        // alone. With the key FD it becomes classifiable as tractable.
        let u = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").unwrap();
        assert!(classify(&u).is_intractable());
        let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
        let (ext, _) = fd_extend_ucq(&u, &fds).unwrap();
        assert!(
            classify(&ext).is_tractable(),
            "Remark 2: classify the FD-extension instead"
        );
    }

    #[test]
    fn multi_column_determinant() {
        // T(a,b,c) with T: {a,b} → c, used from another atom U(a,b,d).
        let q = parse_cq("Q(a, b, d) <- T(a, b, c), U(a, b, d)").unwrap();
        let fds = FdSet::new(vec![Fd::new("T", vec![0, 1], 2)]);
        let ext = fd_extend_cq(&q, &fds).unwrap();
        assert_eq!(ext.query.atoms()[1].args.len(), 4, "U absorbed c");
        assert!(ext.query.head().contains(&q.var_id("c").unwrap()));
    }

    #[test]
    fn no_fds_is_identity() {
        let q = parse_cq("Q(x) <- R(x, y)").unwrap();
        let ext = fd_extend_cq(&q, &FdSet::default()).unwrap();
        assert_eq!(ext.query.atoms(), q.atoms());
        assert_eq!(ext.query.head(), q.head());
        assert!(ext.widened.is_empty());
    }
}
