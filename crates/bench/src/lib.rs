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
//! `experiments list` prints the experiment index; `docs/benchmarks.md`
//! describes the harnesses, and `docs/architecture.md` the design they
//! measure.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod alloc;
mod datasets;
pub mod experiments;
mod tables;

use aion_types::Stopwatch;
use std::time::Duration;

/// Time a closure, returning `(elapsed, result)`.
pub(crate) fn time_it<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Stopwatch::start();
    let out = f();
    (start.elapsed(), out)
}
