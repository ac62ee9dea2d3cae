//! Property tests for the online checker and its substrates:
//!
//! * the versioned map agrees with a naive model;
//! * the `ongoing` index agrees with brute-force interval overlap;
//! * AION's verdicts are invariant under arrival order (the heart of the
//!   online/offline equivalence argument, paper Appendix D) and under the
//!   step-③ ablation;
//! * AION agrees with CHRONOS on arbitrary (valid and corrupted) histories.

use aion_core::check_si_report;
use aion_online::{AionConfig, Checker, OnlineChecker, OnlineGcPolicy, VersionedMap};
use aion_types::{
    AxiomKind, DataKind, EventKey, FxHashMap, History, Key, SessionId, Snapshot, SplitMix64,
    Timestamp, Transaction, TxnId, Value,
};
use aion_workload::{generate_history, IsolationLevel, KeyDist, WorkloadSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------- substrates

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u64, i32),
    GetBefore(u8, u64),
    NextAfter(u8, u64),
    PruneBelow(u64),
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), 1u64..200, any::<i32>()).prop_map(|(k, t, v)| MapOp::Insert(k % 6, t, v)),
        (any::<u8>(), 1u64..200).prop_map(|(k, t)| MapOp::GetBefore(k % 6, t)),
        (any::<u8>(), 1u64..200).prop_map(|(k, t)| MapOp::NextAfter(k % 6, t)),
        (1u64..200).prop_map(MapOp::PruneBelow),
    ]
}

fn ev(ts: u64) -> EventKey {
    EventKey::commit(Timestamp(ts), TxnId(ts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// VersionedMap behaves like a per-key ordered map, including after
    /// pruning (which must keep each key's base version).
    #[test]
    fn versioned_map_matches_model(ops in prop::collection::vec(arb_map_op(), 1..120)) {
        let mut real: VersionedMap<i32> = VersionedMap::new();
        let mut model: FxHashMap<Key, BTreeMap<EventKey, i32>> = FxHashMap::default();
        for op in ops {
            match op {
                MapOp::Insert(k, t, v) => {
                    real.insert(Key(k as u64), ev(t), v);
                    model.entry(Key(k as u64)).or_default().insert(ev(t), v);
                }
                MapOp::GetBefore(k, t) => {
                    let got = real.get_before(Key(k as u64), ev(t)).map(|(e, v)| (e, *v));
                    let want = model
                        .get(&Key(k as u64))
                        .and_then(|c| c.range(..ev(t)).next_back())
                        .map(|(e, v)| (*e, *v));
                    prop_assert_eq!(got, want);
                }
                MapOp::NextAfter(k, t) => {
                    let got = real.next_after(Key(k as u64), ev(t));
                    let want = model
                        .get(&Key(k as u64))
                        .and_then(|c| c.range(ev(t)..).find(|(e, _)| **e != ev(t)))
                        .map(|(e, _)| *e);
                    prop_assert_eq!(got, want);
                }
                MapOp::PruneBelow(t) => {
                    real.prune_below(ev(t));
                    for chain in model.values_mut() {
                        if let Some((base, _)) = chain.range(..ev(t)).next_back() {
                            let base = *base;
                            chain.retain(|e, _| *e >= base);
                        }
                    }
                    model.retain(|_, c| !c.is_empty());
                }
            }
            prop_assert_eq!(real.len(), model.values().map(BTreeMap::len).sum::<usize>());
        }
    }

    /// OngoingIndex returns exactly the brute-force interval overlaps.
    #[test]
    fn ongoing_index_matches_brute_force(
        intervals in prop::collection::vec((1u64..50, 1u64..20, 0u8..3), 1..25),
    ) {
        use aion_online::OngoingIndex;
        let mut idx = OngoingIndex::new();
        // (key, tid, start, commit)
        let mut seen: Vec<(Key, u64, u64, u64)> = Vec::new();
        for (i, (s_raw, len, k)) in intervals.into_iter().enumerate() {
            let tid = (i + 1) as u64;
            // Unique timestamps per transaction: spread by tid.
            let s = s_raw * 1000 + tid;
            let c = s + len * 1000;
            let key = Key(k as u64);
            let got = idx.register(
                key,
                TxnId(tid),
                true,
                EventKey::start(Timestamp(s), TxnId(tid)),
                EventKey::commit(Timestamp(c), TxnId(tid)),
                false,
            );
            let mut want: Vec<aion_online::OngoingWriter> = seen
                .iter()
                .filter(|(pk, _, ps, pc)| *pk == key && *ps <= c && s <= *pc)
                .map(|(_, pt, _, _)| aion_online::OngoingWriter {
                    tid: TxnId(*pt),
                    noconflict: true,
                })
                .collect();
            want.sort_unstable_by_key(|w| w.tid);
            prop_assert_eq!(got, want, "interval ({},{}) on {:?}", s, c, key);
            seen.push((key, tid, s, c));
        }
    }
}

// ------------------------------------------------------------------ checkers

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (30usize..150, 1usize..8, 1usize..6, 0.0f64..1.0, 2u64..30, 0u64..500).prop_map(
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

/// A random arrival order that preserves per-session order (AION's input
/// assumption): repeatedly pick a random session and emit its next txn.
fn session_respecting_shuffle(h: &History, seed: u64) -> Vec<Transaction> {
    let mut rng = SplitMix64::new(seed);
    let sessions = h.sessions();
    let mut queues: Vec<(SessionId, Vec<usize>, usize)> =
        sessions.into_iter().map(|(sid, idxs)| (sid, idxs, 0)).collect();
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

fn run_online(arrivals: &[Transaction], cfg: AionConfig) -> aion_online::Outcome {
    let mut ck = OnlineChecker::try_new(cfg).unwrap();
    for (i, txn) in arrivals.iter().enumerate() {
        ck.tick(i as u64);
        ck.feed(txn.clone(), i as u64);
    }
    ck.finish()
}

fn counts(r: &aion_types::CheckReport) -> [usize; 5] {
    [
        r.count(AxiomKind::Session),
        r.count(AxiomKind::Int),
        r.count(AxiomKind::Ext),
        r.count(AxiomKind::NoConflict),
        r.count(AxiomKind::Integrity),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AION's final verdicts are independent of the arrival order and
    /// agree with CHRONOS, on histories with injected corruption.
    #[test]
    fn aion_verdicts_invariant_under_arrival_order(
        spec in arb_spec(),
        corrupt in any::<bool>(),
        shuffle_seed in 0u64..1000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        if corrupt {
            // Flip one read to a bogus value.
            'outer: for t in h.txns.iter_mut() {
                for op in t.ops.iter_mut() {
                    if let aion_types::Op::Read { value, .. } = op {
                        *value = Snapshot::Scalar(Value(u64::MAX - 3));
                        break 'outer;
                    }
                }
            }
        }
        let offline = counts(&check_si_report(&h));

        let in_order = run_online(&h.txns, AionConfig::builder().kind(h.kind).config());
        prop_assert_eq!(counts(&in_order.report), offline, "in-order vs offline");

        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        let out_of_order =
            run_online(&shuffled, AionConfig::builder().kind(h.kind).config());
        prop_assert_eq!(counts(&out_of_order.report), offline, "shuffled vs offline");
    }

    /// The step-③ re-check bound is a pure optimization: disabling it
    /// (naive full re-scan) changes nothing but the work done.
    #[test]
    fn naive_recheck_ablation_preserves_verdicts(
        spec in arb_spec(),
        shuffle_seed in 0u64..1000,
    ) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        let opt = run_online(&shuffled, AionConfig::builder().kind(h.kind).config());
        let naive = run_online(
            &shuffled,
            AionConfig::builder().kind(h.kind).naive_recheck(true).config(),
        );
        prop_assert_eq!(counts(&opt.report), counts(&naive.report));
        prop_assert!(naive.stats.reevaluations >= opt.stats.reevaluations);
    }

    /// GC (spill + reload) never changes verdicts, even with a tiny cap
    /// and out-of-order arrivals.
    #[test]
    fn gc_preserves_verdicts(spec in arb_spec(), shuffle_seed in 0u64..1000) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        // Short timeout so transactions finalize quickly and GC can run.
        let base = AionConfig::builder().kind(h.kind).ext_timeout_ms(5).config();
        let no_gc = run_online(&shuffled, base.clone());
        let gc = run_online(
            &shuffled,
            {
                let mut cfg = base;
                cfg.gc = OnlineGcPolicy::Full { max_txns: 10 };
                cfg
            },
        );
        prop_assert_eq!(counts(&no_gc.report), counts(&gc.report));
    }

    /// SER mode agrees with CHRONOS-SER regardless of arrival order.
    #[test]
    fn aion_ser_matches_chronos_ser(spec in arb_spec(), shuffle_seed in 0u64..1000) {
        let h = generate_history(&spec, IsolationLevel::Si); // SI history → SER violations
        let offline = counts(&aion_core::check_ser_report(&h));
        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        let online = run_online(
            &shuffled,
            AionConfig::builder().kind(h.kind).level(IsolationLevel::Ser).config(),
        );
        prop_assert_eq!(counts(&online.report), offline);
    }

    /// List histories: online equals offline under shuffling (exercises
    /// the append-cascade path).
    #[test]
    fn aion_list_matches_chronos(spec in arb_spec(), shuffle_seed in 0u64..1000) {
        let h = generate_history(
            &spec.with_kind(DataKind::List).with_read_ratio(0.4),
            IsolationLevel::Si,
        );
        let offline = counts(&check_si_report(&h));
        let shuffled = session_respecting_shuffle(&h, shuffle_seed);
        let online = run_online(&shuffled, AionConfig::builder().kind(h.kind).config());
        prop_assert_eq!(counts(&online.report), offline);
    }
}
