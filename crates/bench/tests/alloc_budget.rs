//! The online checker's allocation budget, as a tier-1 failure rather
//! than a reading in a traced benchmark run: the paper's `single-si`
//! shape (8 ops per transaction over 4 096 keys, out-of-order arrivals)
//! must cost at most 12 allocator calls per transaction to check and at
//! most 8 frees per transaction to tear down. One heap object per index
//! entry, or a map built per arrival, each put it near 32.
//!
//! One test, because the counters are process-wide.

use aion_bench::alloc::{alloc_count, free_count, CountingAllocator};
use aion_online::{feed_plan, FeedConfig, OnlineChecker};
use aion_types::{Checker, IsolationLevel};
use aion_workload::{generate_history, WorkloadSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn checking_and_teardown_stay_inside_the_allocation_budget() {
    let spec = WorkloadSpec::default()
        .with_txns(24_000)
        .with_sessions(24)
        .with_ops_per_txn(8)
        .with_keys(4_096)
        .with_seed(7);
    let history = generate_history(&spec, IsolationLevel::Si);
    let plan = feed_plan(&history, &FeedConfig { seed: 7, ..FeedConfig::default() });
    let txns = plan.len();
    assert!(txns >= 20_000, "only {txns} transactions committed");

    let mut ck = OnlineChecker::builder().events(false).build().expect("open session");
    let before = alloc_count();
    for (at, txn) in plan {
        ck.tick(at);
        ck.feed(txn, at);
    }
    let allocs = (alloc_count() - before) as f64 / txns as f64;
    let before = free_count();
    let outcome = ck.finish();
    let frees = (free_count() - before) as f64 / txns as f64;

    assert!(outcome.is_ok(), "{}", outcome.report);
    assert!(allocs <= 12.0, "{allocs:.1} allocations per transaction in tick + feed");
    assert!(frees <= 8.0, "{frees:.1} frees per transaction in finish");
    eprintln!("{allocs:.2} allocations, {frees:.2} teardown frees per transaction");
}
