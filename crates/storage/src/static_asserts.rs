//! Compile-time thread-safety contract for the context handle, colocated
//! so every shareability claim the crate makes is checked in one place
//! (the `ucq lint` L4 pass keeps this honest for `Frozen*` types).
//!
//! A context is shareable in every phase: its base is immutable and its
//! overlay sits behind a mutex and the watermark flag.

use crate::context::CtxView;

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CtxView>();
};
