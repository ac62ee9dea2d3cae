//! Checking GC is invisible to verdicts: spilling finalized transactions
//! below the safe horizon and reloading them for deep stragglers may move
//! memory, never a violation. A session under
//! `OnlineGcPolicy::Checking` must report exactly the violation multiset
//! of the same session without GC — on key-value and list histories, at
//! every isolation level, clean or anomaly-injected, with arrivals late
//! enough to reach below the GC horizon and timeouts short enough for
//! the spill passes to find finalized transactions.

use aion_online::{feed_plan, run_plan, FeedConfig, OnlineChecker, OnlineGcPolicy};
use aion_storage::Anomaly;
use aion_types::{DataKind, IsolationLevel, Outcome};
use aion_workload::{generate_history, KeyDist, WorkloadSpec};
use proptest::prelude::*;

/// The violations of one run, as a sorted multiset of debug renderings.
fn violations(o: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = o.report.violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn checking_gc_never_changes_a_violation(
        (list, level, anomaly, seed) in (any::<bool>(), 0usize..4, 0usize..20, any::<u64>()),
        (txns, sessions, ops, keys) in (40usize..120, 1usize..8, 1usize..6, 2u64..24),
        (delay_std_ms, batch_size, timeout, max_txns) in (0.0f64..40.0, 1usize..40, 0usize..3, 4usize..24),
    ) {
        let kind = if list { DataKind::List } else { DataKind::Kv };
        let level = IsolationLevel::ALL[level];
        let spec = WorkloadSpec::default()
            .with_kind(kind)
            .with_txns(txns)
            .with_sessions(sessions)
            .with_ops_per_txn(ops)
            .with_keys(keys)
            .with_dist(KeyDist::Zipfian)
            .with_ts_stride(4)
            .with_seed(seed);
        let mut h = generate_history(&spec, level);
        // Seven in twenty cases stay clean.
        if let Some(anomaly) = Anomaly::ALL.get(anomaly) {
            anomaly.inject(&mut h, 0.1, seed);
        }
        let plan = feed_plan(
            &h,
            &FeedConfig {
                batch_size,
                batch_interval_ms: 5,
                delay_mean_ms: 10.0,
                delay_std_ms,
                seed,
            },
        );
        let run = |gc: OnlineGcPolicy| {
            let ck = OnlineChecker::builder()
                .kind(kind)
                .level(level)
                .ext_timeout_ms([1, 5, 20][timeout])
                .gc(gc)
                .build()
                .expect("in-memory session");
            run_plan(ck, &plan).outcome
        };
        let (without, with) = (run(OnlineGcPolicy::None), run(OnlineGcPolicy::Checking { max_txns }));
        prop_assert_eq!(
            violations(&without),
            violations(&with),
            "{:?} {:?} max_txns={} spilled={} reloaded={}",
            kind,
            level,
            max_txns,
            with.stats.spilled_txns,
            with.stats.reloaded_txns
        );
    }
}
