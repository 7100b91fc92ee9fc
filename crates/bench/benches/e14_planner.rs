//! E14 — the cost-based planner. Two workloads:
//!
//! * `minimized` vs `unminimized`: a union whose second and third members
//!   are homomorphically subsumed by the first. The hot path evaluates
//!   the minimized union (one member, one stage); the baseline evaluates
//!   all three, paying two redundant Yannakakis passes plus cross-member
//!   dedup for answers the first member already produced.
//! * `costed` vs `first_found`: a union where the same virtual atom has
//!   two providers — a near-cartesian member and a selective join. The
//!   first-found plan materializes the provider the availability fixpoint
//!   saw first (the big one); the costed plan prices both against the
//!   instance statistics and picks the small one. Measured as
//!   preprocessing plus the first 100 answers, the `DelayClin` serving
//!   shape where materialization size dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ucq_core::{
    classify, plan_free_connex, plan_free_connex_costed, SearchConfig, UcqPipelinePrep,
};
use ucq_enumerate::Enumerator;
use ucq_query::{parse_ucq, Ucq};
use ucq_storage::{CtxView, Instance, Relation, Value};

fn pairs(rows: impl Iterator<Item = (i64, i64)>) -> Relation {
    let mut r = Relation::new(2);
    for (a, b) in rows {
        r.push_row(&[Value::Int(a), Value::Int(b)]);
    }
    r
}

/// Q2 and Q3 are subsumed by Q1 (`Q3 ⊆ Q2 ⊆ Q1`); minimized union = Q1.
const REDUNDANT: &str = "Q1(x, y) <- R(x, y)\n\
                         Q2(x, y) <- R(x, y), S(y, z)\n\
                         Q3(x, y) <- R(x, y), S(y, z), T(z, w)";

fn redundant_instance(n: i64) -> Instance {
    let mut inst = Instance::new();
    inst.insert("R", pairs((0..n).map(|i| (i, i + 1))));
    inst.insert("S", pairs((0..n).map(|i| (i + 1, i + 2))));
    inst.insert("T", pairs((0..n).map(|i| (i + 2, i + 3))));
    inst
}

fn drain_count(ucq: &Ucq, plan: &ucq_core::ExtensionPlan, inst: &Instance) -> usize {
    let mut p = UcqPipelinePrep::prepare(ucq, plan, inst, &CtxView::new())
        .expect("pipeline")
        .start();
    let mut n = 0usize;
    while p.next().is_some() {
        n += 1;
    }
    n
}

fn bench_redundant(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_planner");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let full = parse_ucq(REDUNDANT).unwrap();
    let minimized = classify(&full).minimized;
    assert_eq!(minimized.len(), 1, "subsumed members must drop out");
    let cfg = SearchConfig::default();
    let full_plan = plan_free_connex(&full, &cfg).expect("all members free-connex");
    let min_plan = plan_free_connex(&minimized, &cfg).expect("free-connex");
    for n in [4_000i64, 16_000] {
        let inst = redundant_instance(n);
        assert_eq!(
            drain_count(&full, &full_plan, &inst),
            drain_count(&minimized, &min_plan, &inst),
            "minimization must not change the answer set"
        );
        group.bench_with_input(BenchmarkId::new("unminimized", n), &inst, |b, inst| {
            b.iter(|| drain_count(&full, &full_plan, inst))
        });
        group.bench_with_input(BenchmarkId::new("minimized", n), &inst, |b, inst| {
            b.iter(|| drain_count(&minimized, &min_plan, inst))
        });
    }
    group.finish();
}

/// Member 0 needs a virtual atom on {x, z, y}; members 1 and 2 both
/// provide it. Member 1's materialization is a near-cartesian product
/// (`R1 × π(R3)`, n² rows); member 2's is the selective join `R1 ⋈ R2`
/// (n/8 rows).
const SKEWED: &str = "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                      Q2(x, y, w) <- R1(x, y), R3(w, v)\n\
                      Q3(x, y, w) <- R1(x, y), R2(y, w)";

fn skewed_instance(n: i64) -> Instance {
    let m = n / 8;
    let mut inst = Instance::new();
    inst.insert("R1", pairs((0..n).map(|i| (i, n + i))));
    inst.insert("R2", pairs((0..m).map(|i| (n + i, 2 * n + i))));
    inst.insert("R3", pairs((0..n).map(|i| (2 * n + i, 3 * n + i))));
    inst
}

fn prepare_and_take(ucq: &Ucq, plan: &ucq_core::ExtensionPlan, inst: &Instance) -> usize {
    let mut p = UcqPipelinePrep::prepare(ucq, plan, inst, &CtxView::new())
        .expect("pipeline")
        .start();
    let mut n = 0usize;
    while n < 100 && p.next().is_some() {
        n += 1;
    }
    n
}

fn bench_skewed(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_planner");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let u = parse_ucq(SKEWED).unwrap();
    let cfg = SearchConfig::default();
    let first = plan_free_connex(&u, &cfg).expect("free-connex via union extension");
    for n in [256i64, 512] {
        let inst = skewed_instance(n);
        let costed = plan_free_connex_costed(&u, &cfg, &inst, &CtxView::new())
            .expect("free-connex via union extension");
        // The whole point: the two planners pick different providers here.
        assert_eq!(first.atoms.len(), 1);
        assert_eq!(costed.plan.atoms.len(), 1);
        assert_ne!(
            first.atoms[0].provenance.provider, costed.plan.atoms[0].provenance.provider,
            "statistics skew must flip the provider choice"
        );
        group.bench_with_input(BenchmarkId::new("first_found", n), &inst, |b, inst| {
            b.iter(|| prepare_and_take(&u, &first, inst))
        });
        group.bench_with_input(BenchmarkId::new("costed", n), &inst, |b, inst| {
            b.iter(|| prepare_and_take(&u, &costed.plan, inst))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_redundant, bench_skewed);
criterion_main!(benches);
