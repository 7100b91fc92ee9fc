//! Enumeration framework: the id-level block-at-a-time spine
//! ([`IdEnumerator`]/[`IdBlock`]), the value-level [`Enumerator`] edge
//! that public APIs hand out, the Cheater's Lemma compiler ([`Cheater`],
//! Lemma 5 of the paper), and wall-clock delay instrumentation
//! ([`DelayProfile`]).
//!
//! # The id-level spine
//!
//! Every producer of answers is an [`IdEnumerator`]: answers flow between
//! stages as blocks of interned [`ValueId`](ucq_storage::ValueId) rows.
//! The only value-level enumerators are the two edges that decode them to
//! owned [`Tuple`](ucq_storage::Tuple)s, exactly once: [`IdDecoder`]
//! (one `decode_rows` call per block) and [`Cheater`]'s value-level
//! `next` (one decode per released answer). Answers that dedup discards,
//! or that id-aware callers consume through [`Cheater::next_ids`], are
//! never decoded. Lemma 5's
//! pacing accounting is preserved: pump budgets count inner *results*,
//! blocks only amortize virtual-call and buffer overhead (see
//! [`cheater`]).

#![forbid(unsafe_code)]

pub mod budget;
pub mod cheater;
pub mod delay;
pub mod enumerator;
pub mod idenum;

pub use budget::{Budgeted, CancelToken, QueryBudget, Truncation};
pub use cheater::{Cheater, CheaterStats, PumpBudgetError};
pub use delay::{measure, measure_ids, DelayProfile};
pub use enumerator::Enumerator;
pub use idenum::{IdChainEnumerator, IdDecoder, IdEnumerator, IdVecEnumerator, DEFAULT_BLOCK_ROWS};

pub use ucq_storage::IdBlock;
