//! Online monitoring: stream a history into AION the way a CDC collector
//! would — in batches, with per-transaction network delays that scramble
//! the arrival order — and watch the incremental [`CheckEvent`]s come
//! out *while the history streams in*: tentative EXT verdicts
//! flip-flopping and settling, transactions finalizing at their
//! timeouts, and spill-to-disk GC keeping memory bounded.
//!
//! ```text
//! cargo run --release --example online_monitoring
//! ```

use aion::online::{feed_plan, FeedConfig, IsolationLevel, OnlineChecker, OnlineGcPolicy};
use aion::prelude::*;
use aion::types::Stopwatch;

fn main() {
    // A 20K-transaction SI history, like the paper's §VI-C stability study.
    let spec = WorkloadSpec::default().with_txns(20_000).with_sessions(24).with_ops_per_txn(8);
    let history = generate_history(&spec, IsolationLevel::Si);

    // Collector model: batches of 500 dispatched once per (virtual) second,
    // per-transaction delay ~ N(100, 10²) ms. The run spans 40 s of virtual
    // time, so the 5 s EXT timeouts expire during the run and GC can work.
    let feed = FeedConfig {
        batch_size: 500,
        batch_interval_ms: 1_000,
        delay_mean_ms: 100.0,
        delay_std_ms: 10.0,
        seed: 42,
    };
    let plan = feed_plan(&history, &feed);
    let out_of_order = plan.windows(2).filter(|w| w[0].1.commit_ts > w[1].1.commit_ts).count();
    println!(
        "streaming {} transactions; {} adjacent arrivals out of commit order",
        plan.len(),
        out_of_order
    );

    let mut checker = OnlineChecker::builder()
        .kind(history.kind)
        .level(IsolationLevel::Si)
        .ext_timeout_ms(5_000) // the paper's conservative 5 s
        .gc(OnlineGcPolicy::Checking { max_txns: 4_000 })
        .build()
        .expect("open checking session");

    // Drive the session through the polymorphic `Checker` trait, printing
    // the first few incremental events as they stream out — verdicts are
    // visible long before finish(). `feed` carries the clock: each arrival
    // first finalizes whatever timed out by its arrival time.
    const SHOW: usize = 8;
    let mut shown = 0usize;
    let mut counts = (0usize, 0usize, 0usize); // flips, finalizations, spills
    let start = Stopwatch::start();
    for (at, txn) in &plan {
        for event in &checker.feed(txn.clone(), *at) {
            match event {
                CheckEvent::VerdictFlip { .. } => counts.0 += 1,
                CheckEvent::ExtFinalized { .. } => counts.1 += 1,
                CheckEvent::SpillPass { .. } => counts.2 += 1,
                _ => {}
            }
            if shown < SHOW {
                println!("  [t={at}ms] {event}");
                shown += 1;
            }
        }
    }
    let wall = start.elapsed();
    println!(
        "mid-stream events: {} verdict flips, {} finalizations, {} spill passes",
        counts.0, counts.1, counts.2
    );
    assert!(
        counts.0 + counts.1 > 0,
        "a 40s run with 5s timeouts must surface incremental events before finish()"
    );

    let outcome = checker.finish();
    println!(
        "checked {} txns in {:.2}s wall ({:.0} TPS): {}",
        outcome.stats.received,
        wall.as_secs_f64(),
        outcome.stats.received as f64 / wall.as_secs_f64().max(1e-9),
        outcome.report.summary()
    );
    let flips = &outcome.flips;
    println!(
        "flip-flops: {} verdict switches over {} (txn,key) pairs in {} transactions",
        flips.total_flips, flips.pairs_with_flips, flips.txns_with_flips
    );
    println!(
        "  flips per pair [x1 x2 x3 x4+]: {:?};  rectification ms buckets {:?}",
        flips.flip_histogram, flips.rectify_histogram
    );
    let stats = outcome.stats;
    println!(
        "gc: {} spill passes, {} txns spilled ({} KiB), {} reloaded, peak resident {}",
        stats.gc_spills,
        stats.spilled_txns,
        stats.spill_bytes / 1024,
        stats.reloaded_txns,
        stats.peak_resident_txns
    );
    assert!(outcome.is_ok(), "valid history, all false alarms must have been rectified");
}
