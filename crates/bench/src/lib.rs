//! # aion-bench
//!
//! Experiment harness reproducing every table and figure in the
//! CHRONOS/AION paper's evaluation (§V, §VI and the appendix). Performance
//! is recorded by the separate `benchmark` package under
//! `src/bin/benchmark/` (see `BENCHMARK.json`). Run experiments with
//!
//! ```text
//! cargo run --release -p aion-bench --bin experiments -- <id> [--scale N]
//! cargo run --release -p aion-bench --bin experiments -- all
//! ```
//!
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
//! results.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod alloc;
mod datasets;
pub mod experiments;
mod tables;

use std::time::{Duration, Instant};

/// Time a closure, returning `(elapsed, result)`.
pub(crate) fn time_it<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}
