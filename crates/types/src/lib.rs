//! # aion-types
//!
//! Core domain types for the `aion` isolation-checking workspace — a Rust
//! reproduction of *"Online Timestamp-based Transactional Isolation Checking
//! of Database Systems"* (ICDE 2025): timestamps and identifiers, the
//! generalized key-value/list data model, transactions and histories,
//! violation reports, the binary wire codec, and a fast hasher for the
//! integer-keyed maps that dominate the checkers' hot paths.
//!
//! Everything here is deliberately dependency-light so that every other
//! crate (storage engines, checkers, baselines, benchmarks) can share one
//! vocabulary.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(clippy::iter_over_hash_type)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod clock;
pub mod codec;
pub mod fxhash;
mod history;
mod ids;
pub mod level;
mod op;
pub mod rng;
pub mod snapshot;
mod txn;
mod violation;

pub use check::{CheckEvent, Checker, CheckerStats, FlipSummary, Outcome, SpillOp};
pub use clock::{Clock, RealClock, SimClock, Stopwatch};
pub use fxhash::{FxHashMap, FxHashSet};
pub use history::{History, HistoryStats, IntegrityIssue};
pub use ids::{EventKey, EventKind, Key, SessionId, Timestamp, TxnId, Value};
pub use level::{
    ExtPredicate, IsolationLevel, LevelChecks, LevelPolicy, ReadAnchor, SessionPredicate,
};
pub use op::{
    apply, base_independent, classify_mismatch, expected_read, DataKind, ListValue, MismatchAxiom,
    Mutation, Op, Snapshot,
};
pub use rng::{NormalSampler, SplitMix64};
pub use snapshot::SnapshotError;
pub use txn::{Transaction, TxnBuilder};
pub use violation::{AxiomKind, CheckReport, Violation};
