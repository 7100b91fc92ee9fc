//! Compile-time thread-safety contract for the serve phase, colocated so
//! every shareability claim the crate makes is checked in one place (the
//! `ucq lint` L4 pass keeps this honest for `Frozen*`/`*Session` types).
//!
//! The whole point of freezing: the serve-phase session is shareable
//! across threads, and every answer stream — including the boxed
//! enumerator chain inside it — can move to the thread that drains it.
//! The build-phase `EvalSession`/`FdSession` are shareable too (their
//! preprocessing memo is a `OnceLock`), though only the frozen session
//! reads without locking.

use crate::engine::{EvalSession, FrozenSession, UcqAnswers};
use crate::fd_engine::FdSession;
use ucq_enumerate::Enumerator;

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<FrozenSession<'static>>();
    assert_send_sync::<EvalSession<'static>>();
    assert_send_sync::<FdSession<'static>>();
    assert_send::<UcqAnswers>();
    // The enumerator chain FrozenSession::enumerate boxes into UcqAnswers.
    assert_send::<Box<dyn Enumerator + Send>>();
};
