//! `feed` carries the clock: a driver that only ever feeds still gets the
//! online property — EXT verdicts finalize while the history arrives and
//! Checking-GC recycles what finalized — instead of holding everything
//! until the final `tick(u64::MAX)`.
//!
//! Three drives of one plan must agree: `feed` only, `tick`-then-`feed`
//! (what every driver used to hand-roll), and a 1-shard `ShardedChecker`
//! (whose worker always advanced its own clock).

use aion_online::{feed_plan, Arrival, Checker, FeedConfig, OnlineChecker, OnlineGcPolicy};
use aion_storage::Anomaly;
use aion_types::{CheckEvent, IsolationLevel, Outcome, Violation};
use aion_workload::{generate_history, WorkloadSpec};

/// Drive `plan` through `checker`, optionally ticking before each feed;
/// returns the outcome and how many `ExtFinalized` events surfaced before
/// the end-of-stream `tick(u64::MAX)`.
fn drive<C: Checker>(mut checker: C, plan: &[Arrival], tick_first: bool) -> (Outcome, usize) {
    let mut mid_stream = 0;
    let mut count = |events: Vec<CheckEvent>| {
        mid_stream += events.iter().filter(|e| matches!(e, CheckEvent::ExtFinalized { .. })).count()
    };
    for (at, txn) in plan {
        if tick_first {
            count(checker.tick(*at));
        }
        count(checker.feed(txn.clone(), *at));
    }
    checker.tick(u64::MAX);
    (checker.finish(), mid_stream)
}

fn sorted(out: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = out.report.violations.iter().map(Violation::to_string).collect();
    v.sort();
    v
}

#[test]
fn feeding_alone_finalizes_and_recycles_mid_stream() {
    let mut h = generate_history(&WorkloadSpec::default().with_txns(3_000), IsolationLevel::Si);
    assert!(Anomaly::ReadSkew.inject(&mut h, 0.01, 7) > 0, "the plan should carry violations");
    // 100 per 40 ms batch: the plan spans several EXT timeouts.
    let plan = feed_plan(&h, &FeedConfig { batch_size: 100, ..FeedConfig::default() });
    let builder = || {
        OnlineChecker::builder()
            .kind(h.kind)
            .ext_timeout_ms(200)
            .gc(OnlineGcPolicy::Checking { max_txns: 300 })
    };

    let (fed, fed_mid) = drive(builder().build().unwrap(), &plan, false);
    assert!(fed_mid > 0, "no ExtFinalized before the final tick");
    assert!(fed.stats.gc_spills > 0, "nothing finalized in time to be spilled");
    assert!(
        fed.stats.peak_resident_txns < plan.len(),
        "peak resident {} of {}: memory was not bounded",
        fed.stats.peak_resident_txns,
        plan.len()
    );
    assert!(!fed.is_ok());

    let (ticked, ticked_mid) = drive(builder().build().unwrap(), &plan, true);
    let (sharded, _) = drive(builder().shards(1).build_sharded().unwrap(), &plan, false);
    assert_eq!(fed_mid, ticked_mid, "an explicit tick before each feed adds no finalization");
    for (what, other) in [("tick-then-feed", &ticked), ("1-shard", &sharded)] {
        assert_eq!(sorted(&fed), sorted(other), "violations differ from {what}");
        assert_eq!(fed.stats.finalized, other.stats.finalized, "finalized differs from {what}");
        assert_eq!(fed.stats.gc_spills, other.stats.gc_spills, "gc_spills differs from {what}");
        assert_eq!(
            fed.stats.peak_resident_txns, other.stats.peak_resident_txns,
            "peak_resident_txns differs from {what}"
        );
    }
}
