//! Shard-vs-single equivalence: `ShardedChecker` must produce the same
//! final verdicts and violation sets as `OnlineChecker` for any shard
//! count, on valid *and* corrupted histories, in- and out-of-order.
//!
//! This is the soundness argument for the sharded architecture run as a
//! property: per-key axioms (INT/EXT/NOCONFLICT) are checked inside the
//! owning shard with exactly the single checker's code, and the global
//! checks (SESSION, integrity, Eq. (1)) run once in the coordinator, so
//! nothing may differ but event timing and work distribution.

use aion_online::{AionConfig, OnlineChecker, SimSchedule};
use aion_types::{
    AxiomKind, CheckEvent, Checker, FlipSummary, History, Outcome, SessionId, Snapshot, SplitMix64,
    Transaction, Value,
};
use aion_workload::{generate_history, IsolationLevel, KeyDist, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (30usize..120, 1usize..8, 1usize..6, 0.0f64..1.0, 2u64..30, 0u64..500).prop_map(
        |(txns, sessions, ops, reads, keys, seed)| {
            WorkloadSpec::default()
                .with_txns(txns)
                .with_sessions(sessions)
                .with_ops_per_txn(ops)
                .with_read_ratio(reads)
                .with_keys(keys)
                .with_seed(seed)
                .with_dist(KeyDist::Uniform)
        },
    )
}

/// Corruption menu: each flag injects one class of violation so the
/// equivalence also covers the coordinator-owned global checks.
#[derive(Clone, Copy, Debug)]
struct Corruption {
    bogus_read: bool,
    duplicate_tid: bool,
    swapped_interval: bool,
    session_gap: bool,
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(bogus_read, duplicate_tid, swapped_interval, session_gap)| Corruption {
            bogus_read,
            duplicate_tid,
            swapped_interval,
            session_gap,
        },
    )
}

fn corrupt(h: &mut History, c: Corruption) {
    if c.bogus_read {
        'outer: for t in h.txns.iter_mut() {
            for op in t.ops.iter_mut() {
                if let aion_types::Op::Read { value, .. } = op {
                    *value = Snapshot::Scalar(Value(u64::MAX - 3));
                    break 'outer;
                }
            }
        }
    }
    let n = h.txns.len();
    if c.duplicate_tid && n > 2 {
        let tid = h.txns[0].tid;
        h.txns[n / 2].tid = tid;
    }
    if c.swapped_interval && n > 3 {
        let t = &mut h.txns[n / 3];
        if t.start_ts < t.commit_ts {
            std::mem::swap(&mut t.start_ts, &mut t.commit_ts);
        }
    }
    if c.session_gap && n > 4 {
        h.txns[3 * n / 4].sno += 7;
    }
}

/// A random arrival order that preserves per-session order (AION's
/// input assumption).
fn session_respecting_shuffle(h: &History, seed: u64) -> Vec<Transaction> {
    let mut rng = SplitMix64::new(seed);
    let mut queues: Vec<(SessionId, Vec<usize>, usize)> =
        h.sessions().into_iter().map(|(sid, idxs)| (sid, idxs, 0)).collect();
    queues.sort_by_key(|(sid, _, _)| *sid);
    let mut out = Vec::with_capacity(h.len());
    let mut live: Vec<usize> = (0..queues.len()).collect();
    while !live.is_empty() {
        let pick = rng.below(live.len() as u64) as usize;
        let qi = live[pick];
        let (_, idxs, pos) = &mut queues[qi];
        out.push(h.txns[idxs[*pos]].clone());
        *pos += 1;
        if *pos == idxs.len() {
            live.swap_remove(pick);
        }
    }
    out
}

fn drive<C: Checker>(mut ck: C, arrivals: &[Transaction]) -> Outcome {
    for (i, txn) in arrivals.iter().enumerate() {
        ck.tick(i as u64);
        ck.feed(txn.clone(), i as u64);
    }
    ck.tick(u64::MAX);
    ck.finish()
}

/// Violation multiset as sortable strings (Violation has no Ord).
fn violation_set(o: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = o.report.violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort_unstable();
    v
}

fn axiom_counts(o: &Outcome) -> [usize; 5] {
    [
        o.report.count(AxiomKind::Session),
        o.report.count(AxiomKind::Int),
        o.report.count(AxiomKind::Ext),
        o.report.count(AxiomKind::NoConflict),
        o.report.count(AxiomKind::Integrity),
    ]
}

fn assert_equivalent(
    single: &Outcome,
    sharded: &Outcome,
    shards: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(single.is_ok(), sharded.is_ok(), "verdict differs at {} shards", shards);
    prop_assert_eq!(
        axiom_counts(single),
        axiom_counts(sharded),
        "axiom counts differ at {} shards",
        shards
    );
    prop_assert_eq!(
        violation_set(single),
        violation_set(sharded),
        "violation sets differ at {} shards",
        shards
    );
    prop_assert_eq!(single.txns, sharded.txns, "txn counts differ at {} shards", shards);
    prop_assert_eq!(
        single.stats.finalized,
        sharded.stats.finalized,
        "finalized counts differ at {} shards",
        shards
    );
    // A (txn, key) pair lives on one key shard, so every flip figure but
    // the documented upper bound `txns_with_flips` must match exactly.
    let per_pair = |f: FlipSummary| FlipSummary { txns_with_flips: 0, ..f };
    prop_assert_eq!(
        per_pair(single.flips),
        per_pair(sharded.flips),
        "flip summaries differ at {} shards",
        shards
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SI: same history, same plan, N ∈ {1..4} shards — identical final
    /// verdicts and violation sets.
    #[test]
    fn sharded_matches_single_si(
        spec in arb_spec(),
        corruption in arb_corruption(),
        shuffle_seed in 0u64..1000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        corrupt(&mut h, corruption);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let single = drive(
            AionConfig::builder().kind(h.kind).build().unwrap(),
            &arrivals,
        );
        for shards in 1..=4usize {
            let sharded = drive(
                AionConfig::builder().kind(h.kind).shards(shards).build_sharded().unwrap(),
                &arrivals,
            );
            assert_equivalent(&single, &sharded, shards)?;
        }
    }

    /// SER: an SI-level history (rich in SER violations) through
    /// AION-SER, single vs sharded.
    #[test]
    fn sharded_matches_single_ser(
        spec in arb_spec(),
        corruption in arb_corruption(),
        shuffle_seed in 0u64..1000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        corrupt(&mut h, corruption);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cfg = || AionConfig::builder().kind(h.kind).level(IsolationLevel::Ser);
        let single = drive(cfg().build().unwrap(), &arrivals);
        for shards in [2usize, 4] {
            let sharded =
                drive(cfg().shards(shards).build_sharded().unwrap(), &arrivals);
            assert_equivalent(&single, &sharded, shards)?;
        }
    }

    /// Short EXT timeouts: finalization fires mid-stream on both sides,
    /// freezing verdicts at the same (virtual) points.
    #[test]
    fn sharded_matches_single_with_midstream_finalization(
        spec in arb_spec(),
        shuffle_seed in 0u64..1000,
    ) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cfg = || AionConfig::builder().kind(h.kind).ext_timeout_ms(3);
        let single = drive(cfg().build().unwrap(), &arrivals);
        for shards in [2usize, 3] {
            let sharded =
                drive(cfg().shards(shards).build_sharded().unwrap(), &arrivals);
            assert_equivalent(&single, &sharded, shards)?;
        }
    }

    /// `feed` is a `feed_batch` of one, so under the simulated transport
    /// the two spell the same schedule: call for call the same events and
    /// the same scheduler counters. Larger batches regroup the calls,
    /// which moves event *timing* but not the events themselves.
    #[test]
    fn feed_and_feed_batch_agree_under_simulated_transport(
        spec in arb_spec(),
        corruption in arb_corruption(),
        shuffle_seed in 0u64..1000,
        chunk in 2usize..40,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        corrupt(&mut h, corruption);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let run = |size: usize, batched: bool| {
            let mut ck = AionConfig::builder()
                .kind(h.kind)
                .ext_timeout_ms(3)
                .shards(2)
                .build_sharded_sim(SimSchedule::random(shuffle_seed))
                .unwrap();
            let mut calls: Vec<Vec<CheckEvent>> = Vec::new();
            for (ci, part) in arrivals.chunks(size).enumerate() {
                let at = (ci * size) as u64;
                let mut events = ck.tick(at);
                events.extend(match part {
                    [txn] if !batched => ck.feed(txn.clone(), at),
                    _ => ck.feed_batch(
                        part.iter().enumerate().map(|(i, t)| (t.clone(), at + i as u64)).collect(),
                    ),
                });
                calls.push(events);
            }
            calls.push(ck.tick(u64::MAX));
            (calls, ck.sim_stats(), ck.finish())
        };
        let (one_by_one, stats, outcome) = run(1, false);
        let (batches_of_one, batch_stats, batch_outcome) = run(1, true);
        prop_assert_eq!(&one_by_one, &batches_of_one, "per-call event streams differ");
        prop_assert_eq!(stats, batch_stats, "the two spent the schedule differently");
        prop_assert_eq!(&outcome.report.violations, &batch_outcome.report.violations);

        let (chunked, _, chunked_outcome) = run(chunk, true);
        let multiset = |calls: &[Vec<CheckEvent>]| {
            let mut all: Vec<String> = calls.iter().flatten().map(|e| format!("{e:?}")).collect();
            all.sort_unstable();
            all
        };
        prop_assert_eq!(multiset(&one_by_one), multiset(&chunked), "chunking changed the events");
        assert_equivalent(&outcome, &chunked_outcome, 2)?;
    }
}

/// Timestamps on the deterministic bench workload also agree — a fixed
/// smoke case so failures here are immediately reproducible without
/// proptest shrinking.
#[test]
fn bench_workload_smoke_equivalence() {
    let spec = WorkloadSpec::default().with_txns(2_000).with_sessions(16).with_ops_per_txn(8);
    let h = generate_history(&spec, IsolationLevel::Si);
    let plan = aion_online::feed_plan(&h, &aion_online::FeedConfig::default());
    let single =
        aion_online::run_plan(OnlineChecker::builder().kind(h.kind).build().unwrap(), &plan);
    for shards in [1usize, 2, 4] {
        let sharded = aion_online::run_plan(
            OnlineChecker::builder().kind(h.kind).shards(shards).build_sharded().unwrap(),
            &plan,
        );
        assert_eq!(single.outcome.is_ok(), sharded.outcome.is_ok());
        assert_eq!(
            single.outcome.report.len(),
            sharded.outcome.report.len(),
            "violation counts differ at {shards} shards"
        );
        assert_eq!(single.outcome.flips.total_flips, sharded.outcome.flips.total_flips);
        assert_eq!(sharded.processed, plan.len());
        // The sharded run surfaces every finalization on the merged
        // stream exactly once.
        assert_eq!(
            sharded.finalization_events(),
            single.finalization_events(),
            "merged ExtFinalized events must match the single checker's"
        );
    }
}
