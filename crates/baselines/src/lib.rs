//! # aion-baselines
//!
//! Reconstructions of the checkers the paper compares against — none are
//! available as Rust libraries, so they are rebuilt here from their papers
//! with the same algorithmic skeletons (and therefore the same asymptotic
//! behaviour, which is what the evaluation contrasts):
//!
//! | checker | level | setting | approach |
//! |---------|-------|---------|----------|
//! | [`emme`] | SI + SER | offline, white-box | version order from timestamps, full DSG + cycle detection |
//! | [`elle`] | SI + SER | offline, black-box | dependency inference (registers / lists) + cycle detection |
//! | [`polysi`] | SI | offline, black-box | generalized polygraph + pruning + constraint search |
//! | [`viper`] | SI | offline, black-box | BC-polygraph + constraint search |
//! | [`cobra`] | SER | **online**, black-box | rounds + fences + polygraph search |
//!
//! Substrates: `graph` (Tarjan SCC, incremental cycle detection, bitset
//! closure), `infer` (dependency extraction), `solver` (the MonoSAT
//! stand-in), `encode` (polygraph encodings).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod adapter;
pub mod cobra;
pub mod elle;
pub mod emme;
mod encode;
mod graph;
mod infer;
pub mod polysi;
mod solver;
pub mod verdict;
pub mod viper;

pub use adapter::{ElleChecker, EmmeChecker};
pub use cobra::{run_cobra_online, CobraConfig, CobraReport};
pub use elle::{check_elle, check_elle_kv, check_elle_list, Level};
pub use emme::{check_emme_ser, check_emme_si};
pub use polysi::{check_polysi, check_polysi_budget};
pub use verdict::BaselineOutcome;
pub use viper::check_viper_budget;

// The substrates `tests/proptests.rs` compares with naive models; nothing
// else outside the crate names them.
#[doc(hidden)]
pub use {
    graph::DiGraph, graph::IncrementalDag, infer::infer_white_box, solver::ChoiceProblem,
    solver::SolveOutcome,
};
