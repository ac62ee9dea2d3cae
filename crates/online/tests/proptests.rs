//! Property tests for the online checker and its substrates:
//!
//! * the key table's version chains agree with a naive model;
//! * its overlap chains agree with brute-force interval overlap;
//! * all of its roles, driven together on shared keys, agree with four
//!   independent models;
//! * AION's verdicts are invariant under arrival order (the heart of the
//!   online/offline equivalence argument, paper Appendix D) and under the
//!   step-③ ablation;
//! * AION agrees with CHRONOS on arbitrary (valid and corrupted) histories.

use aion_core::check_si_report;
use aion_online::{
    AionConfig, Checker, KeyTable, OngoingWriter, OnlineChecker, OnlineGcPolicy, ReadRef,
};
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

fn snap(v: i32) -> Snapshot {
    Snapshot::Scalar(Value(v as u64))
}

fn scalar(v: u8) -> Snapshot {
    Snapshot::Scalar(Value(v as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key table's versions behave like a per-key ordered map,
    /// including after pruning (which must keep each key's base version).
    #[test]
    fn versioned_map_matches_model(ops in prop::collection::vec(arb_map_op(), 1..120)) {
        let mut real = KeyTable::default();
        let mut model: FxHashMap<Key, BTreeMap<EventKey, i32>> = FxHashMap::default();
        for op in ops {
            match op {
                MapOp::Insert(k, t, v) => {
                    real.entry(Key(k as u64)).publish(ev(t), &snap(v), None, false);
                    model.entry(Key(k as u64)).or_default().insert(ev(t), v);
                }
                MapOp::GetBefore(k, t) => {
                    let got = real
                        .get(Key(k as u64))
                        .and_then(|s| s.version_before(ev(t)))
                        .map(|(e, v)| (e, v.clone()));
                    let want = model
                        .get(&Key(k as u64))
                        .and_then(|c| c.range(..ev(t)).next_back())
                        .map(|(e, v)| (*e, snap(*v)));
                    prop_assert_eq!(got, want);
                }
                MapOp::NextAfter(k, t) => {
                    let got = real.get(Key(k as u64)).and_then(|s| s.next_version_after(ev(t)));
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
            prop_assert_eq!(real.counts().versions, model.values().map(BTreeMap::len).sum::<usize>());
        }
    }

    /// The key table's overlap chains return exactly the brute-force
    /// interval overlaps.
    #[test]
    fn ongoing_index_matches_brute_force(
        intervals in prop::collection::vec((1u64..50, 1u64..20, 0u8..3), 1..25),
    ) {
        let mut idx = KeyTable::default();
        // (key, tid, start, commit)
        let mut seen: Vec<(Key, u64, u64, u64)> = Vec::new();
        for (i, (s_raw, len, k)) in intervals.into_iter().enumerate() {
            let tid = (i + 1) as u64;
            // Unique timestamps per transaction: spread by tid.
            let s = s_raw * 1000 + tid;
            let c = s + len * 1000;
            let key = Key(k as u64);
            let got = idx.entry(key).register(
                TxnId(tid),
                true,
                EventKey::start(Timestamp(s), TxnId(tid)),
                EventKey::commit(Timestamp(c), TxnId(tid)),
                false,
            );
            let mut want: Vec<OngoingWriter> = seen
                .iter()
                .filter(|(pk, _, ps, pc)| *pk == key && *ps <= c && s <= *pc)
                .map(|(_, pt, _, _)| OngoingWriter {
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

/// One operation on the key table, on one of four shared keys.
#[derive(Debug, Clone)]
enum TableOp {
    Publish { k: u8, t: u64, v: u8 },
    Record { k: u8, t: u64, v: u8, prev: Option<u8> },
    Reader { k: u8, t: u64, tid: u8, idx: u8 },
    Register { k: u8, s: u64, len: u64, nc: bool },
    Prune { h: u64 },
    Version { k: u8, t: u64 },
    Readers { k: u8, lo: u64, hi: u64 },
    Member { k: u8, anchor: u64, v: u8 },
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u8..4, 1u64..60, 0u8..4).prop_map(|(k, t, v)| TableOp::Publish { k, t, v }),
        (0u8..4, 1u64..60, 0u8..4, any::<bool>(), 0u8..4)
            .prop_map(|(k, t, v, some, p)| TableOp::Record { k, t, v, prev: some.then_some(p) }),
        (0u8..4, 1u64..60, 0u8..3, 0u8..2).prop_map(|(k, t, tid, idx)| TableOp::Reader {
            k,
            t,
            tid,
            idx
        }),
        (0u8..4, 1u64..50, 1u64..20, any::<bool>()).prop_map(|(k, s, len, nc)| TableOp::Register {
            k,
            s,
            len,
            nc
        }),
        (1u64..60).prop_map(|h| TableOp::Prune { h }),
        (0u8..4, 1u64..70).prop_map(|(k, t)| TableOp::Version { k, t }),
        (0u8..4, 0u64..60, 1u64..30).prop_map(|(k, lo, n)| TableOp::Readers { k, lo, hi: lo + n }),
        (0u8..4, 1u64..70, 0u8..4).prop_map(|(k, anchor, v)| TableOp::Member { k, anchor, v }),
    ]
}

/// The membership model's record: `(key, t, value)` replaces `prev` at
/// the same `(key, t)`.
fn record_member(members: &mut Vec<(u8, u64, u8)>, (k, t, v): (u8, u64, u8), prev: Option<u8>) {
    if let Some(pv) = prev.filter(|pv| *pv != v) {
        members.retain(|&m| m != (k, t, pv));
    }
    if !members.contains(&(k, t, v)) {
        members.push((k, t, v));
    }
}

/// The event at `t` thousand: versions, readers, membership events and
/// horizons live on thousands, so no overlap-interval endpoint (which
/// carries its registration's number below a thousand) ever ties one.
fn at(t: u64) -> EventKey {
    EventKey::commit(Timestamp(t * 1000), TxnId(t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One interleaved stream of version publishes, reader inserts,
    /// overlap registrations, membership records, prunes and
    /// compactions on a few shared keys: every role answers as its own
    /// independent model does, the running counts match the models, and
    /// a key is in the table exactly while some role holds something
    /// for it. As in the checker, nothing is registered at or withdrawn
    /// from below a prune horizon already passed.
    #[test]
    fn key_table_roles_match_their_models(ops in prop::collection::vec(arb_table_op(), 1..150)) {
        let mut real = KeyTable::default();
        let mut versions: BTreeMap<(u8, u64), u8> = BTreeMap::new();
        let mut readers: Vec<(u8, u64, ReadRef)> = Vec::new();
        let mut intervals: Vec<(u8, u64, u64, u64, bool)> = Vec::new(); // key, tid, start, commit, nc
        let mut members: Vec<(u8, u64, u8)> = Vec::new();
        let mut hmax = 0u64;
        for op in ops {
            match op {
                TableOp::Publish { k, t, v } => {
                    let prev = versions.get(&(k, t)).copied();
                    if t < hmax && prev.is_some_and(|pv| pv != v) {
                        continue; // a revision below the horizon: never made
                    }
                    real.entry(Key(k as u64)).publish(at(t), &scalar(v), None, true);
                    versions.insert((k, t), v);
                    record_member(&mut members, (k, t, v), prev);
                }
                TableOp::Record { k, t, v, prev } => {
                    let prev = if t < hmax { None } else { prev };
                    real.entry(Key(k as u64)).record(at(t), &scalar(v), prev.map(scalar).as_ref());
                    record_member(&mut members, (k, t, v), prev);
                }
                TableOp::Reader { k, t, tid, idx } => {
                    let r = ReadRef { tid: TxnId(tid as u64), read_idx: idx as u32 };
                    real.entry(Key(k as u64)).add_reader(at(t), r);
                    if !readers.contains(&(k, t, r)) {
                        readers.push((k, t, r));
                    }
                }
                TableOp::Register { k, s, len, nc } => {
                    let tid = intervals.len() as u64 + 1;
                    let (s, c) = (s * 1000 + tid, (s + len) * 1000 + tid);
                    if s < hmax * 1000 {
                        continue;
                    }
                    let got = real.entry(Key(k as u64)).register(
                        TxnId(tid),
                        nc,
                        EventKey::start(Timestamp(s), TxnId(tid)),
                        EventKey::commit(Timestamp(c), TxnId(tid)),
                        false,
                    );
                    let mut want: Vec<OngoingWriter> = intervals
                        .iter()
                        .filter(|(pk, _, ps, pc, _)| *pk == k && *ps <= c && s <= *pc)
                        .map(|&(_, pt, _, _, noconflict)| OngoingWriter { tid: TxnId(pt), noconflict })
                        .collect();
                    want.sort_unstable_by_key(|w| w.tid);
                    prop_assert_eq!(got, want, "interval ({},{}) on {}", s, c, k);
                    intervals.push((k, tid, s, c, nc));
                }
                TableOp::Prune { h } => {
                    hmax = hmax.max(h);
                    real.prune_below(at(h));
                    for k in 0..4u8 {
                        if let Some((&(_, base), _)) = versions.range((k, 0)..(k, h)).next_back() {
                            versions.retain(|&(vk, t), _| vk != k || t >= base);
                        }
                    }
                    readers.retain(|&(_, t, _)| t >= h);
                }
                TableOp::Version { k, t } => {
                    let state = real.get(Key(k as u64));
                    let got = state.and_then(|s| s.version_before(at(t))).map(|(e, v)| (e, v.clone()));
                    let want = versions.range((k, 0)..(k, t)).next_back();
                    prop_assert_eq!(got, want.map(|(&(_, wt), &v)| (at(wt), scalar(v))));
                    let got = state.and_then(|s| s.next_version_after(at(t)));
                    let want = versions.range((k, t + 1)..(k + 1, 0)).next().map(|(&(_, wt), _)| at(wt));
                    prop_assert_eq!(got, want);
                }
                TableOp::Readers { k, lo, hi } => {
                    let mut got = vec![(at(0), ReadRef { tid: TxnId(99), read_idx: 0 })]; // refilled
                    if let Some(s) = real.get(Key(k as u64)) {
                        s.readers_in(at(lo), at(hi), &mut got);
                    } else {
                        got.clear();
                    }
                    let mut want: Vec<(u64, ReadRef)> = readers
                        .iter()
                        .filter(|&&(rk, t, _)| rk == k && lo < t && t <= hi)
                        .map(|&(_, t, r)| (t, r))
                        .collect();
                    want.sort_by_key(|(t, _)| *t); // stable: insertion order per anchor
                    let want: Vec<(EventKey, ReadRef)> = want.into_iter().map(|(t, r)| (at(t), r)).collect();
                    prop_assert_eq!(got, want);
                }
                TableOp::Member { k, anchor, v } => {
                    let want = members.iter().any(|&(mk, mt, mv)| mk == k && mv == v && mt < anchor);
                    let got = real
                        .get(Key(k as u64))
                        .is_some_and(|s| s.contains_before(at(anchor), &scalar(v)));
                    prop_assert_eq!(got, want, "member ({}, <{}, {}) after horizon {}", k, anchor, v, hmax);
                }
            }
            let n = real.counts();
            prop_assert_eq!(n.versions, versions.len());
            prop_assert_eq!(n.readers, readers.len());
            prop_assert!(n.members <= members.len(), "compaction only shrinks the summaries");
            prop_assert!(n.writers == 0 && n.values <= members.len());
            for k in 0..4u8 {
                let held = versions.range((k, 0)..(k + 1, 0)).next().is_some()
                    || readers.iter().any(|r| r.0 == k)
                    || intervals.iter().any(|i| i.0 == k)
                    || members.iter().any(|m| m.0 == k);
                prop_assert_eq!(real.get(Key(k as u64)).is_some(), held, "key {}", k);
            }
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
