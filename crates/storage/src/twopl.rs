//! A strict two-phase-locking engine producing *serializable* histories.
//!
//! The paper evaluates SER checking on histories from YugabyteDB's
//! serializable mode; this engine is the in-process equivalent. Every
//! access takes an exclusive per-key lock held until commit (strict 2PL),
//! and the commit timestamp is issued *while the locks are held*, so the
//! equivalent serial order is exactly commit-timestamp order — the order
//! CHRONOS-SER and AION-SER arbitrate by. Lock conflicts abort immediately
//! (no-wait deadlock avoidance); callers retry.

use crate::oracle::{CentralOracle, Oracle};
use crate::store::{CommitError, Store, StoreStats, StoreTxn};
use aion_types::fxhash::FxBuildHasher;
use aion_types::{
    apply, DataKind, FxHashMap, Key, Mutation, Op, SessionId, Snapshot, Timestamp, Transaction,
    TxnId, Value,
};
use parking_lot::Mutex;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NUM_SHARDS: usize = 16;

struct Entry {
    value: Snapshot,
    locked_by: Option<TxnId>,
}

struct TwoPlInner {
    kind: DataKind,
    oracle: Box<dyn Oracle>,
    shards: Vec<Mutex<FxHashMap<Key, Entry>>>,
    next_tid: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    hasher: FxBuildHasher,
}

impl TwoPlInner {
    fn shard_of(&self, key: Key) -> &Mutex<FxHashMap<Key, Entry>> {
        let h = self.hasher.hash_one(key.0) as usize;
        &self.shards[h % NUM_SHARDS]
    }

    /// Acquire (or re-acquire) `key` for `tid`; returns the current
    /// committed value on success.
    fn lock(&self, key: Key, tid: TxnId, kind: DataKind) -> Result<Snapshot, CommitError> {
        let mut shard = self.shard_of(key).lock();
        let entry = shard
            .entry(key)
            .or_insert_with(|| Entry { value: Snapshot::initial(kind), locked_by: None });
        match entry.locked_by {
            None => {
                entry.locked_by = Some(tid);
                Ok(entry.value.clone())
            }
            Some(owner) if owner == tid => Ok(entry.value.clone()),
            Some(_) => Err(CommitError::LockBusy(key)),
        }
    }

    fn unlock_all(&self, keys: &[Key], tid: TxnId) {
        for &key in keys {
            let mut shard = self.shard_of(key).lock();
            if let Some(entry) = shard.get_mut(&key) {
                if entry.locked_by == Some(tid) {
                    entry.locked_by = None;
                }
            }
        }
    }
}

/// A strict-2PL serializable store (`Arc`-backed, clone to share).
#[derive(Clone)]
pub struct TwoPlStore {
    inner: Arc<TwoPlInner>,
}

impl TwoPlStore {
    /// A store with a fresh centralized oracle.
    pub fn new(kind: DataKind) -> TwoPlStore {
        TwoPlStore::with_oracle(kind, Box::new(CentralOracle::new()))
    }

    /// A store with a custom oracle.
    pub fn with_oracle(kind: DataKind, oracle: Box<dyn Oracle>) -> TwoPlStore {
        TwoPlStore {
            inner: Arc::new(TwoPlInner {
                kind,
                oracle,
                shards: (0..NUM_SHARDS).map(|_| Mutex::new(FxHashMap::default())).collect(),
                next_tid: AtomicU64::new(1),
                commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                hasher: FxBuildHasher::default(),
            }),
        }
    }

    /// Latest committed snapshot of `key` (observer view).
    pub fn latest(&self, key: Key) -> Snapshot {
        let shard = self.inner.shard_of(key).lock();
        shard
            .get(&key)
            .map(|e| e.value.clone())
            .unwrap_or_else(|| Snapshot::initial(self.inner.kind))
    }
}

impl Store for TwoPlStore {
    type Txn = TwoPlTxn;

    fn kind(&self) -> DataKind {
        self.inner.kind
    }

    fn begin(&self, sid: SessionId, sno: u32) -> TwoPlTxn {
        let inner = self.inner.clone();
        let start_ts = inner.oracle.next_ts();
        let tid = TxnId(inner.next_tid.fetch_add(1, Ordering::Relaxed));
        TwoPlTxn {
            inner,
            tid,
            sid,
            sno,
            start_ts,
            ops: Vec::new(),
            buffer: Vec::new(),
            held: Vec::new(),
            finished: false,
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            commits: self.inner.commits.load(Ordering::Relaxed),
            aborts: self.inner.aborts.load(Ordering::Relaxed),
        }
    }
}

/// An in-flight 2PL transaction. Dropping it without committing releases
/// all held locks (abort).
pub struct TwoPlTxn {
    inner: Arc<TwoPlInner>,
    tid: TxnId,
    sid: SessionId,
    sno: u32,
    start_ts: Timestamp,
    ops: Vec<Op>,
    buffer: Vec<(Key, Snapshot)>,
    held: Vec<Key>,
    finished: bool,
}

impl TwoPlTxn {
    fn acquire(&mut self, key: Key) -> Result<Snapshot, CommitError> {
        let committed = self.inner.lock(key, self.tid, self.inner.kind)?;
        if !self.held.contains(&key) {
            self.held.push(key);
        }
        Ok(committed)
    }

    fn buffered(&self, key: Key) -> Option<&Snapshot> {
        self.buffer.iter().find(|(k, _)| *k == key).map(|(_, s)| s)
    }

    fn on_lock_failure(&mut self, key: Key) -> CommitError {
        // No-wait: abort immediately, release everything.
        self.inner.unlock_all(&self.held, self.tid);
        self.held.clear();
        self.finished = true;
        self.inner.aborts.fetch_add(1, Ordering::Relaxed);
        CommitError::LockBusy(key)
    }

    fn write(&mut self, key: Key, mutation: Mutation) -> Result<(), CommitError> {
        let committed = match self.acquire(key) {
            Ok(v) => v,
            Err(CommitError::LockBusy(k)) => return Err(self.on_lock_failure(k)),
            Err(e) => return Err(e),
        };
        let base = self.buffered(key).cloned().unwrap_or(committed);
        let newv = apply(&base, &mutation);
        match self.buffer.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => *s = newv,
            None => self.buffer.push((key, newv)),
        }
        self.ops.push(Op::Write { key, mutation });
        Ok(())
    }
}

impl StoreTxn for TwoPlTxn {
    fn read(&mut self, key: Key) -> Result<Snapshot, CommitError> {
        let committed = match self.acquire(key) {
            Ok(v) => v,
            Err(CommitError::LockBusy(k)) => return Err(self.on_lock_failure(k)),
            Err(e) => return Err(e),
        };
        let observed = self.buffered(key).cloned().unwrap_or(committed);
        self.ops.push(Op::Read { key, value: observed.clone() });
        Ok(observed)
    }

    fn put(&mut self, key: Key, value: Value) -> Result<(), CommitError> {
        self.write(key, Mutation::Put(value))
    }

    fn append(&mut self, key: Key, elem: Value) -> Result<(), CommitError> {
        self.write(key, Mutation::Append(elem))
    }

    fn commit(mut self) -> Result<Transaction, CommitError> {
        // Commit timestamp issued while locks are held: the serial order
        // induced by lock hand-offs matches commit-timestamp order.
        let commit_ts = self.inner.oracle.next_ts();
        for (key, snap) in self.buffer.drain(..) {
            let mut shard = self.inner.shard_of(key).lock();
            if let Some(entry) = shard.get_mut(&key) {
                entry.value = snap;
            }
        }
        self.inner.unlock_all(&self.held, self.tid);
        self.held.clear();
        self.finished = true;
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
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

impl Drop for TwoPlTxn {
    fn drop(&mut self) {
        if !self.finished {
            self.inner.unlock_all(&self.held, self.tid);
            self.inner.aborts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> Key {
        Key(n)
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let store = TwoPlStore::new(DataKind::Kv);
        let mut t = store.begin(SessionId(0), 0);
        assert_eq!(t.read(k(1)).unwrap(), Snapshot::Scalar(Value::INIT));
        t.put(k(1), Value(5)).unwrap();
        assert_eq!(t.read(k(1)).unwrap(), Snapshot::Scalar(Value(5)));
        let txn = t.commit().unwrap();
        assert!(txn.start_ts < txn.commit_ts);
        assert_eq!(store.latest(k(1)), Snapshot::Scalar(Value(5)));
    }

    #[test]
    fn conflicting_access_aborts_no_wait() {
        let store = TwoPlStore::new(DataKind::Kv);
        let mut a = store.begin(SessionId(0), 0);
        a.put(k(1), Value(1)).unwrap();
        let mut b = store.begin(SessionId(1), 0);
        match b.read(k(1)) {
            Err(CommitError::LockBusy(key)) => assert_eq!(key, k(1)),
            other => panic!("expected lock busy, got {other:?}"),
        }
        // a still commits fine.
        assert!(a.commit().is_ok());
        // After release, a new transaction can access the key.
        let mut c = store.begin(SessionId(1), 0);
        assert_eq!(c.read(k(1)).unwrap(), Snapshot::Scalar(Value(1)));
    }

    #[test]
    fn drop_releases_locks() {
        let store = TwoPlStore::new(DataKind::Kv);
        {
            let mut a = store.begin(SessionId(0), 0);
            a.put(k(1), Value(1)).unwrap();
            // dropped without commit
        }
        let mut b = store.begin(SessionId(1), 0);
        assert_eq!(b.read(k(1)).unwrap(), Snapshot::Scalar(Value::INIT), "abort must undo");
        assert!(b.commit().is_ok());
        assert_eq!(store.stats().aborts, 1);
    }

    #[test]
    fn commit_ts_order_matches_lock_handoff() {
        let store = TwoPlStore::new(DataKind::Kv);
        let mut a = store.begin(SessionId(0), 0);
        a.put(k(1), Value(1)).unwrap();
        let ta = a.commit().unwrap();
        let mut b = store.begin(SessionId(1), 0);
        assert_eq!(b.read(k(1)).unwrap(), Snapshot::Scalar(Value(1)));
        let tb = b.commit().unwrap();
        assert!(ta.commit_ts < tb.commit_ts);
    }

    #[test]
    fn list_appends_supported() {
        let store = TwoPlStore::new(DataKind::List);
        let mut a = store.begin(SessionId(0), 0);
        a.append(k(1), Value(1)).unwrap();
        a.commit().unwrap();
        let mut b = store.begin(SessionId(0), 1);
        b.append(k(1), Value(2)).unwrap();
        assert_eq!(b.read(k(1)).unwrap(), Snapshot::List(vec![Value(1), Value(2)].into()));
        b.commit().unwrap();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the engine's concurrency is tested from real OS threads"
    )]
    fn concurrent_sessions_serialize() {
        let store = TwoPlStore::new(DataKind::Kv);
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0u64;
                for i in 0..200u64 {
                    let mut t = store.begin(SessionId(s), committed as u32);
                    if t.read(k(i % 5)).is_err() {
                        continue; // aborted, retry next iteration
                    }
                    if t.put(k(i % 5), Value(1 + s as u64 * 1000 + i)).is_err() {
                        continue;
                    }
                    if t.commit().is_ok() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(store.stats().commits, total);
        assert!(total > 0);
    }
}
