//! Audit an application workload: run the Twitter clone (paper §V-A1)
//! against both engines and check SI offline and online. Twitter's
//! ever-growing key space (every tweet is a fresh key) is the stress case
//! for AION's versioned frontier (paper Fig. 12d).
//!
//! ```text
//! cargo run --release --example twitter_audit
//! ```

use aion::online::{feed_plan, run_plan, FeedConfig, OnlineChecker};
use aion::prelude::*;
use aion::workload::apps::twitter::{twitter_templates, TwitterParams};
use aion::workload::run_interleaved;

fn main() {
    let params = TwitterParams { users: 500, timeline_fanout: 8, seed: 42 };
    let templates = twitter_templates(20_000, &params);

    // Execute on the SI engine with 24 interleaved sessions.
    let store = MvccStore::new(DataKind::Kv);
    let run = run_interleaved(&store, &templates, 24, 42);
    let history = run.history;
    let stats = history.stats();
    println!(
        "Twitter: {} txns committed ({} aborted attempts), {} ops over {} keys",
        stats.txns, run.aborted_attempts, stats.ops, stats.keys
    );

    // Offline audit.
    let offline = check_si(&history, &ChronosOptions::default());
    println!("offline CHRONOS: {} in {}", offline.report.summary(), offline.timings);
    assert!(offline.is_ok());

    // Online audit with realistic collection delays.
    let plan = feed_plan(&history, &FeedConfig::default());
    let online = run_plan(
        OnlineChecker::builder().kind(history.kind).build().expect("in-memory session"),
        &plan,
    );
    println!(
        "online AION: {} at {:.0} TPS ({} re-evaluations due to out-of-order arrivals)",
        online.outcome.report.summary(),
        online.mean_tps(),
        online.outcome.stats.reevaluations
    );
    assert!(online.outcome.is_ok());

    // Same templates on the serializable engine, audited under SER.
    let store = TwoPlStore::new(DataKind::Kv);
    let run = run_interleaved(&store, &templates, 24, 42);
    let ser = check_ser(&run.history, &ChronosOptions::default());
    println!(
        "2PL engine under SER checking: {} ({} txns, {} skipped by no-wait aborts)",
        ser.report.summary(),
        run.committed,
        run.skipped
    );
    assert!(ser.is_ok());
}
