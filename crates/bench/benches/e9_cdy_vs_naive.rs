//! E9 — Theorem 3(1) at the single-CQ level: CDY (full reducer +
//! constant-delay enumeration) vs the naive hash join on a free-connex
//! path query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use ucq_enumerate::{Enumerator, IdDecoder};
use ucq_query::{parse_cq, Ucq};
use ucq_workloads::{random_instance, InstanceSpec};
use ucq_yannakakis::{evaluate_cq_naive, CdyEngine, OwnedCdyIter};

fn bench(c: &mut Criterion) {
    let q = parse_cq("Q(x, a, b, y) <- R(x, a), S(a, b), T(b, y)").expect("path CQ");
    let u = Ucq::single(q.clone());
    let mut group = c.benchmark_group("e9_cdy_vs_naive");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for rows in [4_000usize, 16_000, 64_000] {
        let inst = random_instance(&u, &InstanceSpec::scaled(rows, 23));
        group.bench_with_input(BenchmarkId::new("cdy", rows), &inst, |b, inst| {
            b.iter(|| {
                // Decoded at the value edge, like the naive arm's answers.
                let eng = CdyEngine::for_query(&q, inst).expect("free-connex");
                let ctx = eng.context().clone();
                IdDecoder::new(OwnedCdyIter::new(Arc::new(eng)), ctx)
                    .collect_all()
                    .len()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("cdy_preprocess_only", rows),
            &inst,
            |b, inst| {
                b.iter(|| {
                    CdyEngine::for_query(&q, inst)
                        .expect("free-connex")
                        .decide()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("naive", rows), &inst, |b, inst| {
            b.iter(|| evaluate_cq_naive(&q, inst).expect("naive").len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
