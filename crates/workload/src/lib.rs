//! # aion-workload
//!
//! Workload generation and execution for the `aion` isolation-checking
//! workspace: the paper's Table I parameterized workload, list-data
//! workloads, and the application benchmarks (Twitter, RUBiS, TPC-C-lite),
//! plus deterministic and threaded runners that execute templates against
//! the storage engines in `aion-storage` and collect timestamped histories.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod dist;
pub mod runner;
pub mod spec;
pub mod templates;

pub use dist::{KeyDist, KeySampler};
pub use runner::{
    generate_faulty_history, generate_history, run_interleaved, run_interleaved_with_recorder,
    run_templates, run_threaded, IsolationLevel, RunReport,
};
pub use spec::{table1, LevelMix, WorkloadSpec};
pub use templates::{generate_templates, OpTemplate, TxnTemplate};
