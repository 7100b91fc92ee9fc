//! The enumerator abstraction.
//!
//! Enumeration algorithms in the `DelayClin` model have two phases: a
//! preprocessing phase (run by constructors) and an enumeration phase that
//! emits answers one at a time. [`Enumerator`] models the second phase;
//! unlike `Iterator` it is object-safe by construction here (fixed item
//! type) so pipelines can mix heterogeneous stages.

use ucq_storage::Tuple;

/// A pull-based producer of answer tuples.
pub trait Enumerator {
    /// Produces the next answer, or `None` when exhausted.
    fn next(&mut self) -> Option<Tuple>;

    /// Drains everything into a vector (test/bench helper).
    fn collect_all(&mut self) -> Vec<Tuple>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(t) = self.next() {
            out.push(t);
        }
        out
    }
}
