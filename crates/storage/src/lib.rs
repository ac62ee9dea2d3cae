//! # aion-storage
//!
//! Transactional storage substrate for the `aion` workspace. The paper
//! evaluates its checkers on histories collected from TiDB, YugabyteDB and
//! Dgraph; this crate provides the in-process equivalents that generate
//! such histories on a laptop:
//!
//! * [`MvccStore`] — a multi-version snapshot-isolation engine implementing
//!   the paper's operational semantics (Algorithm 1) with first-committer
//!   wins;
//! * [`TwoPlStore`] — a strict two-phase-locking engine producing
//!   serializable histories whose serial order equals commit-timestamp
//!   order;
//! * [`CentralOracle`] / [`SkewedHlcOracle`] — centralized (TiDB/Dgraph
//!   style) and decentralized skewed (YugabyteDB style) timestamp oracles;
//! * [`FaultPlan`] and the history-level injectors — controlled anomaly
//!   generation for the violation-detection study (§V-D);
//! * the [`anomalies`] matrix — targeted injectors for every classic
//!   anomaly class (G0/G1a/G1b, lost update, write/read skew, future
//!   reads, clock skew, integrity breaks), each tagged with the
//!   [`ViolationKind`] a correct checker must report per isolation
//!   level — the ground truth of the cross-checker conformance
//!   harness (`docs/conformance.md`);
//! * [`Recorder`] — CDC-style history collection with optional wire-cost
//!   simulation (Fig. 15).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod anomalies;
pub mod faults;
pub mod mvcc;
pub mod oracle;
pub mod recorder;
pub mod store;
pub mod twopl;

pub use anomalies::{Anomaly, AnomalyProfile, Expected, ViolationKind};
pub use faults::{inject_clock_skew, inject_clock_skew_at, FaultPlan, SkewTarget, SplitMix64};
pub use mvcc::{MvccStore, MvccTxn};
pub use oracle::{CentralOracle, Oracle, SkewedHlcOracle};
pub use recorder::Recorder;
pub use store::{CommitError, Store, StoreStats, StoreTxn};
pub use twopl::{TwoPlStore, TwoPlTxn};
