//! Synchronization seam for the freeze/serve concurrency protocol.
//!
//! Every synchronization primitive the serving path relies on —
//! [`CtxView`](crate::CtxView)'s overlay mutex, `has_overflow` flag and
//! cache counters, `CdyEngine`'s lazily built row-sets, the plan-cache
//! slots — is
//! imported from here rather than from `std::sync` directly. In a normal
//! build these re-exports *are* the `std::sync` types, with zero
//! indirection. Under `RUSTFLAGS="--cfg ucq_model_check"` they swap to the
//! shuttle-compat wrappers (see `crates/compat/shuttle`), so the
//! `tests/model_check.rs` suites run the *actual production protocol code*
//! under exhaustive bounded-preemption schedule exploration instead of a
//! re-implementation that could drift.
//!
//! [`lock_unpoisoned`] is the one sanctioned way to acquire a mutex in the
//! patrolled layers (lint L5): lock poisoning only means another thread
//! panicked mid-critical-section, and for the interner/overlay structures
//! every critical section leaves the data structurally valid (appends are
//! completed before publication), so recovery is always sound — but it is
//! worth a diagnostic, not a silent shrug.

#[cfg(not(ucq_model_check))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(ucq_model_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

#[cfg(ucq_model_check)]
pub use shuttle::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(ucq_model_check)]
pub use shuttle::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Acquires `mutex`, recovering from poisoning with a diagnostic instead
/// of panicking (or silently swallowing it with a bare
/// `unwrap_or_else(PoisonError::into_inner)`).
///
/// `what` names the lock for the one-line stderr note emitted on the cold
/// poison path; the hot path is a single `match` on the `LockResult`.
pub fn lock_unpoisoned<'a, T: ?Sized>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            eprintln!(
                "ucq-storage: recovering {what} from a poisoned lock \
                 (a previous holder panicked; the protected state is append-consistent)"
            );
            poisoned.into_inner()
        }
    }
}

/// The [`Condvar::wait`] counterpart of [`lock_unpoisoned`]: parks on
/// `condvar` (releasing `guard`'s lock) and re-acquires it on wakeup,
/// recovering from poisoning with the same diagnostic discipline.
pub fn wait_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    what: &str,
) -> MutexGuard<'a, T> {
    match condvar.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => {
            eprintln!(
                "ucq-storage: recovering {what} from a poisoned lock after a \
                 condvar wait (a previous holder panicked; the protected state \
                 is append-consistent)"
            );
            poisoned.into_inner()
        }
    }
}
