//! Sharded online monitoring: the same continuous CDC-style stream as
//! the `online_monitoring` example, checked by a
//! [`ShardedChecker`](aion::prelude::ShardedChecker) — N key-partitioned
//! worker threads behind one coordinator that owns the global SESSION
//! and integrity checks, merges cross-shard `ExtFinalized`s, and
//! sequences every worker's [`CheckEvent`]s onto one outbound stream.
//!
//! Verdicts are identical to the single-threaded checker's for any
//! shard count (see `crates/online/tests/sharded_equivalence.rs`); what
//! changes is who does the work. The example runs the same plan through
//! one shard and four and prints both wall-clock timings — on a
//! multi-core machine the four-way run overlaps checking with routing.
//!
//! ```text
//! cargo run --release --example sharded_monitoring
//! ```

use aion::online::{feed_plan, FeedConfig, IsolationLevel, OnlineChecker};
use aion::prelude::*;
use aion::types::Stopwatch;

fn main() {
    // A 20K-transaction SI history, streamed like the paper's §VI-C
    // stability study: batches of 500, per-transaction delay
    // ~ N(100, 10²) ms, so arrivals are out of commit order.
    let spec = WorkloadSpec::default().with_txns(20_000).with_sessions(24).with_ops_per_txn(8);
    let history = generate_history(&spec, IsolationLevel::Si);
    let feed = FeedConfig {
        batch_size: 500,
        batch_interval_ms: 1_000,
        delay_mean_ms: 100.0,
        delay_std_ms: 10.0,
        seed: 42,
    };
    let plan = feed_plan(&history, &feed);
    println!("streaming {} transactions across shard counts:\n", plan.len());

    let mut single_tps = 0.0f64;
    for shards in [1usize, 4] {
        let mut checker = OnlineChecker::builder()
            .kind(history.kind)
            .level(IsolationLevel::Si)
            .ext_timeout_ms(5_000)
            .shards(shards)
            .build_sharded()
            .expect("open sharded session");
        println!("== {} shard(s) ==", checker.num_shards());

        // Drive through the polymorphic `Checker` trait; show the first
        // few merged events — they arrive on one stream no matter which
        // worker produced them.
        const SHOW: usize = 5;
        let mut shown = 0usize;
        let mut flips = 0usize;
        let mut finalizations = 0usize;
        let start = Stopwatch::start();
        for (at, txn) in &plan {
            for event in &checker.feed(txn.clone(), *at) {
                match event {
                    CheckEvent::VerdictFlip { .. } => flips += 1,
                    CheckEvent::ExtFinalized { .. } => finalizations += 1,
                    _ => {}
                }
                if shown < SHOW {
                    println!("  [t={at}ms] {event}");
                    shown += 1;
                }
            }
        }
        // End-of-stream drain: a synchronous barrier that surfaces every
        // event still in flight from the workers (plus the outstanding
        // finalizations) before finish().
        for event in checker.tick(u64::MAX) {
            match event {
                CheckEvent::VerdictFlip { .. } => flips += 1,
                CheckEvent::ExtFinalized { .. } => finalizations += 1,
                _ => {}
            }
        }
        let wall = start.elapsed();
        let outcome = checker.finish();
        let tps = outcome.stats.received as f64 / wall.as_secs_f64().max(1e-9);
        if shards == 1 {
            single_tps = tps;
        }
        println!(
            "  {}: {} txns in {:.2}s wall ({:.0} TPS{}), {} flips, {} finalizations",
            outcome.checker,
            outcome.stats.received,
            wall.as_secs_f64(),
            tps,
            if shards == 1 {
                String::new()
            } else {
                format!(", {:.2}x vs single", tps / single_tps.max(1e-9))
            },
            flips,
            finalizations,
        );
        println!("  report: {}\n", outcome.report.summary());
        assert!(outcome.is_ok(), "valid history must pass at {shards} shards");
        assert_eq!(outcome.stats.received, plan.len());
        // Every transaction that held tentative verdicts surfaces exactly
        // one merged ExtFinalized; txns settled at arrival (e.g.
        // write-only) finalize silently, exactly like the single checker.
        assert!(
            finalizations > 0 && finalizations <= outcome.stats.finalized,
            "finalization events ({finalizations}) must be positive and bounded by \
             finalized txns ({})",
            outcome.stats.finalized
        );
    }
    println!("verdicts agree at every shard count; see docs/benchmarks.md for scaling numbers");
}
