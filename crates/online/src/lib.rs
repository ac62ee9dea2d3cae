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
//! use aion_online::{OnlineChecker, feed::{feed_plan, run_plan, FeedConfig}};
//! use aion_types::{DataKind, Key, TxnBuilder, Value};
//!
//! let mut checker = OnlineChecker::builder().kind(DataKind::Kv).build().expect("config");
//! checker.receive(
//!     TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(7)).build(), 0);
//! checker.receive(
//!     TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(7)).build(), 1);
//! let outcome = checker.finish();
//! assert!(outcome.is_ok());
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod feed;
pub mod index;
pub mod membership;
pub mod sharded;
pub mod snapshot;
pub mod spill;
pub mod stats;
pub mod transport;
pub mod versioned;

pub use aion_types::check::{CheckEvent, Checker, Outcome, ShardConfig};
pub use aion_types::{IsolationLevel, LevelPolicy};
pub use checker::{
    AionConfig, AionOutcome, ConfigError, OnlineChecker, OnlineCheckerBuilder, OnlineGcPolicy,
};
pub use feed::{
    feed_plan, route_txn, run_plan, shard_of, Arrival, FeedConfig, OnlineRunReport, RoutedTxn,
    TimedEvent,
};
pub use membership::MembershipIndex;
pub use sharded::ShardedChecker;
pub use spill::{SpillEntry, SpillFaultPlan, SpillStore};
pub use stats::FlipSummary;
pub use transport::{SimSchedule, SimStats};
pub use versioned::VersionedMap;
