//! # aion-online — AION
//!
//! The online timestamp-based isolation checkers from the paper *"Online
//! Timestamp-based Transactional Isolation Checking of Database Systems"*
//! (ICDE 2025): [`OnlineChecker`] implements AION (snapshot isolation) and
//! AION-SER (serializability) over continuous, out-of-order transaction
//! streams, with tentative EXT verdicts finalized by timeout, flip-flop
//! tracking, and spill-to-disk garbage collection.
//!
//! ```
//! use aion_online::OnlineChecker;
//! use aion_types::{Checker, DataKind, Key, TxnBuilder, Value};
//!
//! let mut checker = OnlineChecker::builder().kind(DataKind::Kv).build().expect("config");
//! // `feed` advances the clock to its `now_ms` first, finalizing whatever
//! // timed out; `tick` is only for idle time and the end of the stream.
//! checker.feed(TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(7)).build(), 0);
//! checker.feed(TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(7)).build(), 1);
//! let outcome = checker.finish();
//! assert!(outcome.is_ok());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(clippy::iter_over_hash_type)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod feed;
mod index;
mod keys;
mod membership;
pub mod sharded;
pub mod snapshot;
mod spill;
mod stats;
mod transport;
mod versioned;

pub use aion_types::check::{Checker, FlipSummary, Outcome};
pub use aion_types::IsolationLevel;
pub use checker::{AionConfig, ConfigError, OnlineChecker, OnlineCheckerBuilder, OnlineGcPolicy};
pub use feed::{feed_plan, route_txn, run_plan, Arrival, FeedConfig, OnlineRunReport, RoutedTxn};
pub use sharded::ShardedChecker;
pub use spill::SpillFaultPlan;
pub use transport::{SimSchedule, SimStats};

// The checker's per-key table, which `tests/` drives against brute-force
// models of each role; nothing else outside the crate names it.
#[doc(hidden)]
pub use {
    index::{OngoingWriter, ReadRef},
    keys::{Counts, KeyMut, KeyState, KeyTable},
};
