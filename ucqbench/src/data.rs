//! Seeded inputs: the catalog's Example 2 union, its random instances from
//! `ucq_workloads`, and fresh-value deltas. Everything here is a pure
//! function of its seed, so the library under test only ever sees the
//! generated relations.

use ucq_query::Ucq;
use ucq_storage::{Instance, Relation, Value};
use ucq_workloads::{by_id, random_instance, InstanceSpec};

/// First value of the fresh range deltas draw from: far above every
/// generated domain, so each delta row brings new dictionary entries.
const FRESH_BASE: i64 = 1 << 40;

/// Catalog `example2` (Example 2 / Theorem 12): the easy `Q2` provides
/// `{x, z, y}` for the hard `Q1`, so the union runs the union-extension
/// pipeline (Lemma 8 materialization, CDY members, Cheater dedup).
pub fn example2() -> Ucq {
    by_id("example2").expect("example2 is in the catalog").ucq
}

/// `rows` uniform tuples per relation at `InstanceSpec::scaled` density.
pub fn instance(ucq: &Ucq, rows: usize, seed: u64) -> Instance {
    random_instance(ucq, &InstanceSpec::scaled(rows, seed))
}

/// SplitMix64: tiny, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    fn below(&mut self, n: i64) -> i64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as i64
    }
}

/// An endless stream of insert batches for one relation: each row's first
/// column is a value never seen before, the others are drawn from the base
/// domain.
pub struct Deltas {
    rng: Rng,
    next_fresh: i64,
    arity: usize,
    rows: usize,
    domain: i64,
}

impl Deltas {
    /// Batches of `rows` rows for a relation of `arity` columns whose base
    /// instance was generated with `base_rows` tuples per relation.
    pub fn new(arity: usize, rows: usize, base_rows: usize, seed: u64) -> Deltas {
        Deltas {
            rng: Rng(seed ^ 0xD1B5_4A32_D192_ED03),
            next_fresh: FRESH_BASE,
            arity,
            rows,
            domain: InstanceSpec::scaled(base_rows, seed).domain,
        }
    }

    pub fn next_batch(&mut self) -> Relation {
        let mut rel = Relation::with_capacity(self.arity, self.rows);
        let mut row = vec![Value::Int(0); self.arity];
        for _ in 0..self.rows {
            row[0] = Value::Int(self.next_fresh);
            self.next_fresh += 1;
            for slot in row.iter_mut().skip(1) {
                *slot = Value::Int(self.rng.below(self.domain));
            }
            rel.push_row(&row);
        }
        rel
    }
}
