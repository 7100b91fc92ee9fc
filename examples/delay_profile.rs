//! Measures the per-answer delay of the DelayClin pipeline against the
//! naive materializing evaluator, across growing instances — the
//! operational meaning of "linear preprocessing, constant delay".
//!
//! ```sh
//! cargo run --release --example delay_profile
//! ```

use ucq::core::evaluate_ucq_naive_ids_in;
use ucq::enumerate::{IdDecoder, IdVecEnumerator};
use ucq::prelude::*;
use ucq::workloads::{by_id, random_instance, InstanceSpec};

fn main() {
    let entry = by_id("example2").expect("catalog entry");
    let engine = UcqEngine::new(entry.ucq.clone());
    println!("Query ({}):\n{}\n", entry.id, entry.ucq);
    println!("Strategy: {:?}\n", engine.strategy());

    println!(
        "{:>9} {:>9} | {:>11} {:>10} {:>10} | {:>11} {:>12}",
        "|I|", "answers", "prep(pipe)", "med delay", "p99 delay", "prep(naive)", "total(naive)"
    );
    for rows in [2_000usize, 8_000, 32_000, 128_000] {
        let inst = random_instance(&entry.ucq, &InstanceSpec::scaled(rows, 7));

        // DelayClin pipeline, instrumented.
        let (answers, prof) = measure(|| engine.enumerate(&inst).expect("pipeline"));

        // Naive baseline: everything is preprocessing (the answer table is
        // materialized before the first answer), enumeration is a replay.
        let (nv, nprof) = measure(|| {
            let ctx = CtxView::new();
            let table = evaluate_ucq_naive_ids_in(&entry.ucq, &inst, &ctx).expect("naive");
            IdDecoder::new(
                IdVecEnumerator::new(table.width, table.data, table.n_rows),
                ctx,
            )
        });
        assert_eq!(
            answers.len(),
            nv.len(),
            "both strategies must agree on the answer count"
        );

        println!(
            "{:>9} {:>9} | {:>11?} {:>9}ns {:>9}ns | {:>11?} {:>12?}",
            inst.total_tuples(),
            answers.len(),
            prof.preprocessing,
            prof.median_ns(),
            prof.p99_ns(),
            nprof.preprocessing,
            nprof.preprocessing + nprof.total
        );
    }
    println!(
        "\nReading: pipeline preprocessing grows linearly with |I| while the\n\
         median/p99 per-answer delays stay flat — the DelayClin signature.\n\
         The naive evaluator pays everything up front and rematerializes."
    );
}
