//! RC hot-path regressions for the committed-membership index and the
//! batched feed:
//!
//! * the index-backed membership EXT predicate must be behaviorally
//!   invisible — every level still agrees with its offline CHRONOS
//!   oracle (the old chain-walk semantics), and turning GC on (which now
//!   prunes the frontier the old latch kept resident, and compacts the
//!   summaries) changes no verdict;
//! * the key table's membership summaries agree with a brute-force
//!   model under random record/withdraw/compact sequences;
//! * `feed_batch` is event-identical to per-arrival `feed` on the single
//!   checker, and `receive_batch` outcome-equivalent on the sharded one.

use aion_core::{check_ra_report, check_rc_report, check_ser_report, check_si_report};
use aion_online::{AionConfig, KeyTable, OnlineChecker, OnlineGcPolicy};
use aion_types::{
    AxiomKind, CheckReport, Checker, EventKey, History, Key, Outcome, SessionId, Snapshot,
    SplitMix64, Timestamp, Transaction, TxnId, Value,
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

fn flip_one_read(h: &mut History) {
    'outer: for t in h.txns.iter_mut() {
        for op in t.ops.iter_mut() {
            if let aion_types::Op::Read { value, .. } = op {
                *value = Snapshot::Scalar(Value(u64::MAX - 3));
                break 'outer;
            }
        }
    }
}

fn run_online(arrivals: &[Transaction], cfg: AionConfig) -> Outcome {
    let mut ck = OnlineChecker::try_new(cfg).unwrap();
    for (i, txn) in arrivals.iter().enumerate() {
        ck.tick(i as u64);
        ck.feed(txn.clone(), i as u64);
    }
    ck.finish()
}

fn counts(r: &CheckReport) -> [usize; 5] {
    [
        r.count(AxiomKind::Session),
        r.count(AxiomKind::Int),
        r.count(AxiomKind::Ext),
        r.count(AxiomKind::NoConflict),
        r.count(AxiomKind::Integrity),
    ]
}

fn violation_set(o: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = o.report.violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort_unstable();
    v
}

/// An offline reference oracle for one level.
type Oracle = fn(&History) -> CheckReport;

const LEVELS: [(IsolationLevel, Oracle); 4] = [
    (IsolationLevel::ReadCommitted, check_rc_report),
    (IsolationLevel::ReadAtomic, check_ra_report),
    (IsolationLevel::Si, check_si_report),
    (IsolationLevel::Ser, check_ser_report),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every level agrees with its offline CHRONOS oracle on random and
    /// anomaly-injected histories, in order and shuffled. At RC this
    /// pins the index-backed membership predicate against the chain-walk
    /// semantics the oracle still uses.
    #[test]
    fn every_level_matches_its_offline_oracle(
        spec in arb_spec(),
        level_idx in 0usize..4,
        corrupt in any::<bool>(),
        shuffle_seed in 0u64..1000,
    ) {
        let (level, oracle) = LEVELS[level_idx];
        let mut h = generate_history(&spec, level);
        if corrupt {
            flip_one_read(&mut h);
        }
        let offline = counts(&oracle(&h));
        let cfg = || AionConfig::builder().kind(h.kind).level(level).config();
        let in_order = run_online(&h.txns, cfg());
        prop_assert_eq!(counts(&in_order.report), offline, "in-order vs oracle at {:?}", level);
        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        let out_of_order = run_online(&shuffled, cfg());
        prop_assert_eq!(counts(&out_of_order.report), offline, "shuffled vs oracle at {:?}", level);
    }

    /// GC pressure — tiny resident cap, short timeouts so finalization
    /// and spilling fire mid-stream — changes no RC or mixed-policy
    /// verdict. Pre-fix this held only because the `has_committed_ext`
    /// latch made GC a no-op for these policies; now the frontier really
    /// prunes and the compacted membership summaries must carry the
    /// stale-read answers alone.
    #[test]
    fn gc_is_invisible_to_committed_predicate_levels(
        spec in arb_spec(),
        mixed in any::<bool>(),
        corrupt in any::<bool>(),
        shuffle_seed in 0u64..1000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::ReadCommitted);
        if corrupt {
            flip_one_read(&mut h);
        }
        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        let base = if mixed {
            // A mixed policy keeps the committed-EXT dispatch live next
            // to snapshot-anchored sessions.
            AionConfig::builder()
                .kind(h.kind)
                .levels(aion_types::LevelPolicy::per_session(
                    [(SessionId(0), IsolationLevel::Si)],
                    IsolationLevel::ReadCommitted,
                ))
                .ext_timeout_ms(5)
                .config()
        } else {
            AionConfig::builder()
                .kind(h.kind)
                .level(IsolationLevel::ReadCommitted)
                .ext_timeout_ms(5)
                .config()
        };
        let no_gc = run_online(&shuffled, base.clone());
        for gc in [OnlineGcPolicy::Checking { max_txns: 8 }, OnlineGcPolicy::Full { max_txns: 8 }] {
            let mut cfg = base.clone();
            cfg.gc = gc;
            let gced = run_online(&shuffled, cfg);
            prop_assert_eq!(
                counts(&no_gc.report),
                counts(&gced.report),
                "verdicts changed under {:?} (mixed={})",
                gc,
                mixed
            );
            prop_assert_eq!(violation_set(&no_gc), violation_set(&gced));
        }
    }
}

// ------------------------------------------------------- index vs model

#[derive(Debug, Clone)]
enum IdxOp {
    /// Record value `v` for key `k` at commit ts `t`, optionally
    /// withdrawing `prev` at the same event (a cascade revision).
    Record { k: u8, t: u64, v: u8, prev: Option<u8> },
    /// GC pass: compact everything strictly below horizon `h`.
    Compact { h: u64 },
    /// Membership query: any committed `v` of `k` strictly before
    /// `anchor`?
    Query { k: u8, anchor: u64, v: u8 },
}

fn arb_idx_op() -> impl Strategy<Value = IdxOp> {
    prop_oneof![
        (0u8..4, 1u64..60, 0u8..5, any::<bool>(), 0u8..5)
            .prop_map(|(k, t, v, some, p)| IdxOp::Record { k, t, v, prev: some.then_some(p) }),
        (1u64..60).prop_map(|h| IdxOp::Compact { h }),
        (0u8..4, 1u64..70, 0u8..5).prop_map(|(k, anchor, v)| IdxOp::Query { k, anchor, v }),
        (0u8..4, 1u64..70, 0u8..5).prop_map(|(k, anchor, v)| IdxOp::Query { k, anchor, v }),
    ]
}

fn ev(ts: u64) -> EventKey {
    EventKey::commit(Timestamp(ts), TxnId(ts))
}

fn scalar(v: u8) -> Snapshot {
    Snapshot::Scalar(Value(v as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The summaries answer exactly like a brute-force list of live
    /// `(key, event, value)` triples, through withdrawals and GC
    /// compaction. Withdrawals below the running compaction horizon are
    /// suppressed — the checker never produces them (prune horizons are
    /// chosen below every live writer anchor), and `compact_below`'s
    /// collapse-to-minimum is only sound under that invariant.
    #[test]
    fn membership_index_matches_brute_force(ops in prop::collection::vec(arb_idx_op(), 1..150)) {
        let mut real = KeyTable::default();
        let mut model: Vec<(u8, u64, u8)> = Vec::new();
        let mut hmax = 0u64;
        for op in ops {
            match op {
                IdxOp::Record { k, t, v, prev } => {
                    let prev = if t < hmax { None } else { prev };
                    if let Some(pv) = prev {
                        if pv != v {
                            model.retain(|&(mk, mt, mv)| !(mk == k && mt == t && mv == pv));
                        }
                    }
                    if !model.contains(&(k, t, v)) {
                        model.push((k, t, v));
                    }
                    let prev_snap = prev.map(scalar);
                    real.entry(Key(k as u64)).record(ev(t), &scalar(v), prev_snap.as_ref());
                    prop_assert!(real.counts().members <= model.len(), "index may only be smaller");
                }
                IdxOp::Compact { h } => {
                    hmax = hmax.max(h);
                    real.prune_below(ev(h)); // holding no chains, the prune only compacts
                }
                IdxOp::Query { k, anchor, v } => {
                    let want = model.iter().any(|&(mk, mt, mv)| mk == k && mv == v && mt < anchor);
                    let got = real
                        .get(Key(k as u64))
                        .is_some_and(|s| s.contains_before(ev(anchor), &scalar(v)));
                    prop_assert_eq!(got, want, "query ({}, <{}, {}) after horizon {}", k, anchor, v, hmax);
                }
            }
        }
    }
}

// ----------------------------------------------------------- batched feed

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Checker::feed_batch` on the single checker produces the exact
    /// per-arrival event stream and outcome of looping `feed`, for any
    /// chunking of the arrivals.
    #[test]
    fn single_feed_batch_is_event_identical(
        spec in arb_spec(),
        corrupt in any::<bool>(),
        chunk in 1usize..20,
        shuffle_seed in 0u64..1000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::ReadCommitted);
        if corrupt {
            flip_one_read(&mut h);
        }
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let build = || {
            OnlineChecker::builder()
                .kind(h.kind)
                .level(IsolationLevel::ReadCommitted)
                .ext_timeout_ms(3)
                .events(true)
                .build()
                .unwrap()
        };

        let mut a = build();
        let mut ea = Vec::new();
        for (i, txn) in arrivals.iter().enumerate() {
            ea.extend(Checker::feed(&mut a, txn.clone(), i as u64));
        }
        ea.extend(a.tick(u64::MAX));

        let mut b = build();
        let mut eb = Vec::new();
        let timed: Vec<(Transaction, u64)> =
            arrivals.iter().enumerate().map(|(i, t)| (t.clone(), i as u64)).collect();
        for part in timed.chunks(chunk) {
            eb.extend(Checker::feed_batch(&mut b, part.to_vec()));
        }
        eb.extend(b.tick(u64::MAX));

        prop_assert_eq!(ea, eb, "event streams diverge at chunk size {}", chunk);
        let (oa, ob) = (a.finish(), b.finish());
        prop_assert_eq!(violation_set(&oa), violation_set(&ob));
        prop_assert_eq!(oa.stats, ob.stats);
    }

    /// `ShardedChecker::receive_batch` — one coordinator message per
    /// shard per batch — reaches the same final verdicts, violation
    /// sets, and flip totals as per-arrival `receive`, and both match
    /// the single checker.
    #[test]
    fn sharded_receive_batch_matches_per_arrival(
        spec in arb_spec(),
        chunk in 1usize..20,
        shuffle_seed in 0u64..1000,
    ) {
        let h = generate_history(&spec, IsolationLevel::ReadCommitted);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cfg = || {
            AionConfig::builder()
                .kind(h.kind)
                .level(IsolationLevel::ReadCommitted)
                .ext_timeout_ms(3)
        };
        let single = {
            let mut ck = cfg().build().unwrap();
            for (i, txn) in arrivals.iter().enumerate() {
                ck.tick(i as u64);
                ck.feed(txn.clone(), i as u64);
            }
            ck.tick(u64::MAX);
            ck.finish()
        };
        for shards in [2usize, 3] {
            let mut per_arrival = cfg().shards(shards).build_sharded().unwrap();
            for (i, txn) in arrivals.iter().enumerate() {
                per_arrival.tick(i as u64);
                per_arrival.feed(txn.clone(), i as u64);
            }
            per_arrival.tick(u64::MAX);
            let pa = per_arrival.finish();

            let mut batched = cfg().shards(shards).build_sharded().unwrap();
            for (ci, part) in arrivals.chunks(chunk).enumerate() {
                let base = (ci * chunk) as u64;
                batched.tick(base);
                let parts: Vec<(Transaction, u64)> = part
                    .iter()
                    .enumerate()
                    .map(|(j, t)| (t.clone(), base + j as u64))
                    .collect();
                batched.feed_batch(parts);
            }
            batched.tick(u64::MAX);
            let ba = batched.finish();

            for (other, label) in [(&pa, "per-arrival"), (&single, "single")] {
                prop_assert_eq!(ba.is_ok(), other.is_ok(), "{} @ {} shards", label, shards);
                prop_assert_eq!(
                    counts(&ba.report),
                    counts(&other.report),
                    "{} @ {} shards",
                    label,
                    shards
                );
                prop_assert_eq!(
                    violation_set(&ba),
                    violation_set(other),
                    "{} @ {} shards",
                    label,
                    shards
                );
            }
            prop_assert_eq!(ba.txns, pa.txns);
            prop_assert_eq!(ba.stats.finalized, pa.stats.finalized);
            prop_assert_eq!(ba.flips.total_flips, pa.flips.total_flips);
        }
    }
}
