//! Property tests for the storage engines: the MVCC store must uphold the
//! operational SI contract of paper Algorithm 1 under arbitrary operation
//! interleavings, and the oracles must issue unique timestamps.

use aion_storage::{
    CentralOracle, MvccStore, Oracle, SkewedHlcOracle, Store, StoreTxn, TwoPlStore,
};
use aion_types::{DataKind, Key, SessionId, Snapshot, Timestamp, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A step in a random two-transaction interleaving.
#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u8, u8),
    Put(u8, u8),
    Commit(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, 0u8..4).prop_map(|(t, k)| Step::Read(t, k)),
        (0u8..2, 0u8..4).prop_map(|(t, k)| Step::Put(t, k)),
        (0u8..2).prop_map(Step::Commit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot stability: whatever interleaving happens, a transaction
    /// that reads a key twice without writing it in between sees the same
    /// value both times, and never sees an uncommitted value.
    #[test]
    fn mvcc_snapshots_are_stable(steps in prop::collection::vec(arb_step(), 1..40)) {
        let store = MvccStore::new(DataKind::Kv);
        // Pre-populate committed state with known values.
        let mut committed: BTreeMap<Key, Value> = BTreeMap::new();
        for k in 0..4u64 {
            let mut t = store.begin(SessionId(9), k as u32);
            t.put(Key(k), Value(1000 + k)).unwrap();
            t.commit().unwrap();
            committed.insert(Key(k), Value(1000 + k));
        }

        let mut txns = [Some(store.begin(SessionId(0), 0)), Some(store.begin(SessionId(1), 0))];
        // Per transaction: key → first observed value; key → written?
        let mut seen: [BTreeMap<Key, Snapshot>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut wrote: [BTreeMap<Key, Value>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut next_value = 1u64;

        for step in steps {
            match step {
                Step::Read(t, k) => {
                    let ti = t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        let key = Key(k as u64);
                        let got = txn.read(key).unwrap();
                        if let Some(w) = wrote[ti].get(&key) {
                            prop_assert_eq!(got, Snapshot::Scalar(*w), "read own write");
                        } else if let Some(prev) = seen[ti].get(&key) {
                            prop_assert_eq!(&got, prev, "snapshot moved under txn {}", ti);
                        } else {
                            seen[ti].insert(key, got);
                        }
                    }
                }
                Step::Put(t, k) => {
                    let ti = t as usize;
                    if let Some(txn) = txns[ti].as_mut() {
                        let v = Value(next_value);
                        next_value += 1;
                        txn.put(Key(k as u64), v).unwrap();
                        wrote[ti].insert(Key(k as u64), v);
                    }
                }
                Step::Commit(t) => {
                    let ti = t as usize;
                    if let Some(txn) = txns[ti].take() {
                        let _ = txn.commit(); // abort on conflict is fine
                    }
                }
            }
        }
    }

    /// First-committer-wins: when two concurrent transactions write the
    /// same key, at most one commits.
    #[test]
    fn mvcc_first_committer_wins(k in 0u64..4, order in any::<bool>()) {
        let store = MvccStore::new(DataKind::Kv);
        let mut a = store.begin(SessionId(0), 0);
        let mut b = store.begin(SessionId(1), 0);
        a.put(Key(k), Value(1)).unwrap();
        b.put(Key(k), Value(2)).unwrap();
        let (first, second) = if order { (a.commit(), b.commit()) } else { (b.commit(), a.commit()) };
        prop_assert!(first.is_ok());
        prop_assert!(second.is_err(), "second overlapping writer must abort");
    }

    /// The 2PL store's final state equals replaying committed transactions
    /// in commit-timestamp order (its serial order is the commit order).
    #[test]
    fn twopl_final_state_matches_commit_order(ops in prop::collection::vec((0u8..4, 1u64..100), 1..30)) {
        let store = TwoPlStore::new(DataKind::Kv);
        let mut log: Vec<(Timestamp, Key, Value)> = Vec::new();
        for (i, (k, _)) in ops.iter().enumerate() {
            let mut t = store.begin(SessionId(0), i as u32);
            let key = Key(*k as u64);
            let v = Value(i as u64 + 1);
            if t.read(key).is_err() { continue; }
            if t.put(key, v).is_err() { continue; }
            if let Ok(txn) = t.commit() {
                log.push((txn.commit_ts, key, v));
            }
        }
        log.sort();
        let mut expect: BTreeMap<Key, Value> = BTreeMap::new();
        for (_, k, v) in &log {
            expect.insert(*k, *v);
        }
        for (k, v) in expect {
            prop_assert_eq!(store.latest(k), Snapshot::Scalar(v));
        }
    }

    /// Oracles issue unique timestamps regardless of node/skew choices.
    #[test]
    fn oracles_issue_unique_timestamps(
        skews in prop::collection::vec(-1000i64..1000, 1..6),
        picks in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let central = CentralOracle::new();
        let hlc = SkewedHlcOracle::new(&skews);
        let mut seen = std::collections::BTreeSet::new();
        for p in picks {
            let ts1 = central.next_ts();
            let ts2 = hlc.next_ts_on(p as usize % skews.len());
            prop_assert!(seen.insert(("c", ts1)));
            prop_assert!(seen.insert(("h", ts2)));
            prop_assert!(ts1 > Timestamp::MIN);
            prop_assert!(ts2 > Timestamp::MIN);
        }
    }
}
