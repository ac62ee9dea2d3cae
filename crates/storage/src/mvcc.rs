//! The MVCC snapshot-isolation engine — paper Algorithm 1, as a library.
//!
//! This is the substrate the checkers are validated against: a transaction
//! gets a start timestamp from the oracle, reads from the multi-version log
//! *as of* that timestamp plus its own write buffer, and commits under
//! first-committer-wins (abort if a concurrent transaction already
//! committed a write to any of its keys). Commits are serialized by a latch
//! so that timestamp issuance and version publication are atomic, exactly
//! like the paper's atomic `COMMIT` procedure; snapshot acquisition takes
//! the latch in shared mode so a start timestamp can never be issued in the
//! middle of a commit's publication.
//!
//! [`crate::FaultPlan`] hooks let the engine misbehave on purpose (lost
//! updates, stale reads, INT anomalies) for the violation-detection study.

use crate::faults::{FaultPlan, SplitMix64};
use crate::oracle::{CentralOracle, Oracle};
use crate::store::{CommitError, Store, StoreStats, StoreTxn};
use aion_types::fxhash::FxBuildHasher;
use aion_types::{
    apply, DataKind, FxHashMap, Key, Mutation, Op, SessionId, Snapshot, Timestamp, Transaction,
    TxnId, Value,
};
use parking_lot::RwLock;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NUM_SHARDS: usize = 16;

/// Per-key version chain: `(commit_ts, snapshot)` in ascending order.
type VersionChains = FxHashMap<Key, Vec<(Timestamp, Snapshot)>>;

struct MvccInner {
    kind: DataKind,
    oracle: Box<dyn Oracle>,
    /// Commit latch: exclusive during commit (timestamp + publication),
    /// shared during start-timestamp acquisition.
    commit_latch: RwLock<()>,
    /// Sharded multi-version map: per key, versions in ascending commit-ts
    /// order (commits are serialized, so appends keep the order).
    shards: Vec<RwLock<VersionChains>>,
    next_tid: AtomicU64,
    faults: FaultPlan,
    commits: AtomicU64,
    aborts: AtomicU64,
    hasher: FxBuildHasher,
}

impl MvccInner {
    fn shard_of(&self, key: Key) -> &RwLock<VersionChains> {
        let h = self.hasher.hash_one(key.0) as usize;
        &self.shards[h % NUM_SHARDS]
    }

    /// Read `key` as of `ts`. With `stale`, deliberately observe one
    /// version earlier than the latest visible (fault injection).
    fn snapshot_read(&self, key: Key, ts: Timestamp, stale: bool) -> Snapshot {
        let shard = self.shard_of(key).read();
        let Some(versions) = shard.get(&key) else {
            return Snapshot::initial(self.kind);
        };
        // Number of versions with commit_ts <= ts.
        let visible = versions.partition_point(|(cts, _)| *cts <= ts);
        let idx = if stale { visible.saturating_sub(1) } else { visible };
        if idx == 0 {
            Snapshot::initial(self.kind)
        } else {
            versions[idx - 1].1.clone()
        }
    }
}

/// A multi-version snapshot-isolation key-value/list store.
///
/// Cheap to clone (`Arc`-backed); clones share state, so a store can be
/// handed to many session threads.
#[derive(Clone)]
pub struct MvccStore {
    inner: Arc<MvccInner>,
}

impl MvccStore {
    /// A store with a fresh centralized oracle and no faults.
    pub fn new(kind: DataKind) -> MvccStore {
        MvccStore::with_parts(kind, Box::new(CentralOracle::new()), FaultPlan::default())
    }

    /// A store with a custom oracle (e.g. [`crate::SkewedHlcOracle`]).
    pub fn with_oracle(kind: DataKind, oracle: Box<dyn Oracle>) -> MvccStore {
        MvccStore::with_parts(kind, oracle, FaultPlan::default())
    }

    /// Fully custom construction.
    pub fn with_parts(kind: DataKind, oracle: Box<dyn Oracle>, faults: FaultPlan) -> MvccStore {
        MvccStore {
            inner: Arc::new(MvccInner {
                kind,
                oracle,
                commit_latch: RwLock::new(()),
                shards: (0..NUM_SHARDS).map(|_| RwLock::new(FxHashMap::default())).collect(),
                next_tid: AtomicU64::new(1),
                faults,
                commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                hasher: FxBuildHasher::default(),
            }),
        }
    }

    /// Latest committed snapshot of `key` (observer view, outside any
    /// transaction).
    pub fn latest(&self, key: Key) -> Snapshot {
        self.inner.snapshot_read(key, Timestamp::MAX, false)
    }
}

impl Store for MvccStore {
    type Txn = MvccTxn;

    fn kind(&self) -> DataKind {
        self.inner.kind
    }

    fn begin(&self, sid: SessionId, sno: u32) -> MvccTxn {
        let inner = self.inner.clone();
        // Shared latch: no commit is mid-publication while the start
        // timestamp is issued (paper: START is atomic).
        let start_ts = {
            let _latch = inner.commit_latch.read();
            inner.oracle.next_ts()
        };
        let tid = TxnId(inner.next_tid.fetch_add(1, Ordering::Relaxed));
        let rng = SplitMix64::new(inner.faults.seed ^ tid.0.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        MvccTxn { inner, tid, sid, sno, start_ts, ops: Vec::new(), buffer: Vec::new(), rng }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            commits: self.inner.commits.load(Ordering::Relaxed),
            aborts: self.inner.aborts.load(Ordering::Relaxed),
        }
    }
}

/// An in-flight SI transaction (paper Algorithm 1's `T`).
pub struct MvccTxn {
    inner: Arc<MvccInner>,
    tid: TxnId,
    sid: SessionId,
    sno: u32,
    start_ts: Timestamp,
    ops: Vec<Op>,
    /// Folded final snapshot per written key (paper: `T.buffer`).
    buffer: Vec<(Key, Snapshot)>,
    rng: SplitMix64,
}

impl MvccTxn {
    /// This transaction's id.
    pub fn tid(&self) -> TxnId {
        self.tid
    }

    /// This transaction's start timestamp.
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    fn buffered(&self, key: Key) -> Option<&Snapshot> {
        self.buffer.iter().find(|(k, _)| *k == key).map(|(_, s)| s)
    }

    fn write(&mut self, key: Key, mutation: Mutation) {
        let base = match self.buffered(key) {
            Some(s) => s.clone(),
            None => self.inner.snapshot_read(key, self.start_ts, false),
        };
        let newv = apply(&base, &mutation);
        match self.buffer.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => *s = newv,
            None => self.buffer.push((key, newv)),
        }
        self.ops.push(Op::Write { key, mutation });
    }
}

impl StoreTxn for MvccTxn {
    fn read(&mut self, key: Key) -> Result<Snapshot, CommitError> {
        let int_anomaly = {
            let rate = self.inner.faults.int_anomaly_rate;
            self.rng.chance(rate)
        };
        let observed = match self.buffered(key) {
            // Read own writes — unless the INT-anomaly fault drops the
            // buffer from the read view.
            Some(s) if !int_anomaly => s.clone(),
            _ => {
                let stale = {
                    let rate = self.inner.faults.stale_read_rate;
                    self.rng.chance(rate)
                };
                self.inner.snapshot_read(key, self.start_ts, stale)
            }
        };
        self.ops.push(Op::Read { key, value: observed.clone() });
        Ok(observed)
    }

    fn put(&mut self, key: Key, value: Value) -> Result<(), CommitError> {
        self.write(key, Mutation::Put(value));
        Ok(())
    }

    fn append(&mut self, key: Key, elem: Value) -> Result<(), CommitError> {
        self.write(key, Mutation::Append(elem));
        Ok(())
    }

    fn commit(mut self) -> Result<Transaction, CommitError> {
        let inner = self.inner.clone();
        if self.buffer.is_empty() {
            // Read-only: reuse the start timestamp (paper Eq. (1) allows
            // start_ts == commit_ts).
            inner.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(Transaction {
                tid: self.tid,
                sid: self.sid,
                sno: self.sno,
                start_ts: self.start_ts,
                commit_ts: self.start_ts,
                ops: std::mem::take(&mut self.ops),
                level: None,
            });
        }

        let skip_conflict_check = {
            let rate = inner.faults.lost_update_rate;
            self.rng.chance(rate)
        };

        let _latch = inner.commit_latch.write();
        let commit_ts = inner.oracle.next_ts();

        if !skip_conflict_check {
            // First-committer-wins (paper Algorithm 1 line 11): abort if a
            // version of any written key committed after our start.
            for (key, _) in &self.buffer {
                let shard = inner.shard_of(*key).read();
                if let Some(versions) = shard.get(key) {
                    if let Some((last_cts, _)) = versions.last() {
                        if *last_cts > self.start_ts {
                            drop(shard);
                            drop(_latch);
                            inner.aborts.fetch_add(1, Ordering::Relaxed);
                            return Err(CommitError::Conflict(*key));
                        }
                    }
                }
            }
        }

        for (key, snap) in self.buffer.drain(..) {
            let mut shard = inner.shard_of(key).write();
            shard.entry(key).or_default().push((commit_ts, snap));
        }
        drop(_latch);
        inner.commits.fetch_add(1, Ordering::Relaxed);
        Ok(Transaction {
            tid: self.tid,
            sid: self.sid,
            sno: self.sno,
            start_ts: self.start_ts,
            commit_ts,
            ops: std::mem::take(&mut self.ops),
            level: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> Key {
        Key(n)
    }

    #[test]
    fn read_initial_value() {
        let store = MvccStore::new(DataKind::Kv);
        let mut t = store.begin(SessionId(0), 0);
        assert_eq!(t.read(k(1)).unwrap(), Snapshot::Scalar(Value::INIT));
        let txn = t.commit().unwrap();
        assert_eq!(txn.start_ts, txn.commit_ts, "read-only reuses start ts");
    }

    #[test]
    fn committed_writes_visible_to_later_snapshots() {
        let store = MvccStore::new(DataKind::Kv);
        let mut w = store.begin(SessionId(0), 0);
        w.put(k(1), Value(42)).unwrap();
        w.commit().unwrap();
        let mut r = store.begin(SessionId(1), 0);
        assert_eq!(r.read(k(1)).unwrap(), Snapshot::Scalar(Value(42)));
    }

    #[test]
    fn uncommitted_writes_invisible() {
        let store = MvccStore::new(DataKind::Kv);
        let mut w = store.begin(SessionId(0), 0);
        w.put(k(1), Value(42)).unwrap();
        // Reader starts while writer is uncommitted.
        let mut r = store.begin(SessionId(1), 0);
        assert_eq!(r.read(k(1)).unwrap(), Snapshot::Scalar(Value::INIT));
        w.commit().unwrap();
        // Snapshot is stable: still invisible to the old reader.
        assert_eq!(r.read(k(1)).unwrap(), Snapshot::Scalar(Value::INIT));
    }

    #[test]
    fn snapshot_stability_across_commits() {
        let store = MvccStore::new(DataKind::Kv);
        let mut w1 = store.begin(SessionId(0), 0);
        w1.put(k(1), Value(1)).unwrap();
        w1.commit().unwrap();

        let mut r = store.begin(SessionId(1), 0);
        assert_eq!(r.read(k(1)).unwrap(), Snapshot::Scalar(Value(1)));

        let mut w2 = store.begin(SessionId(0), 1);
        w2.put(k(1), Value(2)).unwrap();
        w2.commit().unwrap();

        assert_eq!(r.read(k(1)).unwrap(), Snapshot::Scalar(Value(1)), "snapshot must not move");
        assert_eq!(store.latest(k(1)), Snapshot::Scalar(Value(2)));
    }

    #[test]
    fn read_own_writes() {
        let store = MvccStore::new(DataKind::Kv);
        let mut t = store.begin(SessionId(0), 0);
        t.put(k(1), Value(5)).unwrap();
        assert_eq!(t.read(k(1)).unwrap(), Snapshot::Scalar(Value(5)));
        t.put(k(1), Value(6)).unwrap();
        assert_eq!(t.read(k(1)).unwrap(), Snapshot::Scalar(Value(6)));
    }

    #[test]
    fn first_committer_wins_aborts_second() {
        let store = MvccStore::new(DataKind::Kv);
        let mut a = store.begin(SessionId(0), 0);
        let mut b = store.begin(SessionId(1), 0);
        a.put(k(1), Value(1)).unwrap();
        b.put(k(1), Value(2)).unwrap();
        assert!(a.commit().is_ok());
        match b.commit() {
            Err(CommitError::Conflict(key)) => assert_eq!(key, k(1)),
            other => panic!("expected conflict, got {other:?}"),
        }
        let stats = store.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.aborts, 1);
    }

    #[test]
    fn disjoint_writes_both_commit() {
        let store = MvccStore::new(DataKind::Kv);
        let mut a = store.begin(SessionId(0), 0);
        let mut b = store.begin(SessionId(1), 0);
        a.put(k(1), Value(1)).unwrap();
        b.put(k(2), Value(2)).unwrap();
        assert!(a.commit().is_ok());
        assert!(b.commit().is_ok());
    }

    #[test]
    fn sequential_writers_no_conflict() {
        let store = MvccStore::new(DataKind::Kv);
        let mut a = store.begin(SessionId(0), 0);
        a.put(k(1), Value(1)).unwrap();
        a.commit().unwrap();
        let mut b = store.begin(SessionId(0), 1);
        b.put(k(1), Value(2)).unwrap();
        assert!(b.commit().is_ok());
    }

    #[test]
    fn list_appends_accumulate() {
        let store = MvccStore::new(DataKind::List);
        let mut a = store.begin(SessionId(0), 0);
        a.append(k(1), Value(1)).unwrap();
        a.commit().unwrap();
        let mut b = store.begin(SessionId(0), 1);
        b.append(k(1), Value(2)).unwrap();
        assert_eq!(b.read(k(1)).unwrap(), Snapshot::List(vec![Value(1), Value(2)].into()));
        b.commit().unwrap();
        assert_eq!(store.latest(k(1)), Snapshot::List(vec![Value(1), Value(2)].into()));
    }

    #[test]
    fn transaction_records_ops_in_program_order() {
        let store = MvccStore::new(DataKind::Kv);
        let mut t = store.begin(SessionId(3), 7);
        t.read(k(1)).unwrap();
        t.put(k(1), Value(9)).unwrap();
        t.read(k(1)).unwrap();
        let txn = t.commit().unwrap();
        assert_eq!(txn.sid, SessionId(3));
        assert_eq!(txn.sno, 7);
        assert_eq!(txn.ops.len(), 3);
        assert!(txn.ops[0].is_read());
        assert!(txn.ops[1].is_write());
        assert!(txn.ops[2].is_read());
        assert!(txn.start_ts < txn.commit_ts);
    }

    #[test]
    fn lost_update_fault_skips_conflict_check() {
        let plan = FaultPlan { lost_update_rate: 1.0, seed: 1, ..FaultPlan::default() };
        let store = MvccStore::with_parts(DataKind::Kv, Box::new(CentralOracle::new()), plan);
        let mut a = store.begin(SessionId(0), 0);
        let mut b = store.begin(SessionId(1), 0);
        a.put(k(1), Value(1)).unwrap();
        b.put(k(1), Value(2)).unwrap();
        assert!(a.commit().is_ok());
        assert!(b.commit().is_ok(), "fault must let the lost update through");
    }

    #[test]
    fn stale_read_fault_observes_old_version() {
        let plan = FaultPlan { stale_read_rate: 1.0, seed: 1, ..FaultPlan::default() };
        let store = MvccStore::with_parts(DataKind::Kv, Box::new(CentralOracle::new()), plan);
        for (i, v) in [1u64, 2].iter().enumerate() {
            let mut w = store.begin(SessionId(0), i as u32);
            w.put(k(1), Value(*v)).unwrap();
            w.commit().unwrap();
        }
        let mut r = store.begin(SessionId(1), 0);
        // Latest visible is 2; the fault steps back to 1.
        assert_eq!(r.read(k(1)).unwrap(), Snapshot::Scalar(Value(1)));
    }

    #[test]
    fn int_anomaly_fault_hides_own_writes() {
        let plan = FaultPlan { int_anomaly_rate: 1.0, seed: 1, ..FaultPlan::default() };
        let store = MvccStore::with_parts(DataKind::Kv, Box::new(CentralOracle::new()), plan);
        let mut t = store.begin(SessionId(0), 0);
        t.put(k(1), Value(5)).unwrap();
        assert_eq!(t.read(k(1)).unwrap(), Snapshot::Scalar(Value::INIT));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the engine's concurrency is tested from real OS threads"
    )]
    fn concurrent_sessions_smoke() {
        let store = MvccStore::new(DataKind::Kv);
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0u32;
                let mut sno = 0u32;
                for i in 0..200u64 {
                    let mut t = store.begin(SessionId(s), sno);
                    t.read(k(i % 10)).unwrap();
                    t.put(k(i % 10), Value(s as u64 * 1000 + i + 1)).unwrap();
                    if t.commit().is_ok() {
                        committed += 1;
                        sno += 1;
                    }
                }
                committed
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(store.stats().commits, u64::from(total));
    }
}
