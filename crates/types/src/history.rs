//! Histories: collections of committed transactions plus metadata.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{Key, SessionId, Timestamp, TxnId};
use crate::op::{DataKind, Op};
use crate::txn::Transaction;

/// A history `H = (T, SO)` (paper Definition 2).
///
/// The session order `SO` is implicit: transactions of the same `sid` are
/// ordered by `sno`. Transactions are stored in *collection order*, which in
/// online settings is not timestamp order; offline checkers sort event keys
/// themselves.
///
/// The paper's initial transaction `⊥T` (writing `Value::INIT` to every key)
/// is not materialized; checkers treat an absent frontier entry as the
/// initial snapshot, which is equivalent and saves a scan over the key space.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct History {
    /// Data type of the history (key-value or list).
    pub kind: DataKind,
    /// Committed transactions in collection order.
    pub txns: Vec<Transaction>,
}

/// Aggregate statistics over a history, used by reports and experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistoryStats {
    /// Number of transactions (the paper's `N`).
    pub txns: usize,
    /// Number of operations (the paper's `M`).
    pub ops: usize,
    /// Number of read operations.
    pub reads: usize,
    /// Number of write operations.
    pub writes: usize,
    /// Number of distinct sessions.
    pub sessions: usize,
    /// Number of distinct keys touched.
    pub keys: usize,
}

/// A structural problem found by [`History::integrity_issues`]. These are
/// collection/format errors, distinct from isolation violations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IntegrityIssue {
    /// Two transactions share a transaction id.
    DuplicateTid(TxnId),
    /// Two distinct transactions share a timestamp (oracle timestamps must
    /// be unique across transactions).
    TimestampCollision(Timestamp, TxnId, TxnId),
    /// A session's sequence numbers are not `0..n` contiguous in collection
    /// order.
    SessionGap {
        /// The session with the gap.
        sid: SessionId,
        /// Sequence number expected next.
        expected: u32,
        /// Sequence number actually found.
        found: u32,
    },
}

impl History {
    /// An empty history over the given data type.
    pub fn new(kind: DataKind) -> History {
        History { kind, txns: Vec::new() }
    }

    /// Append a transaction in collection order.
    pub fn push(&mut self, txn: Transaction) {
        self.txns.push(txn);
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when the history holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Compute aggregate statistics.
    pub fn stats(&self) -> HistoryStats {
        let mut stats = HistoryStats { txns: self.txns.len(), ..HistoryStats::default() };
        let mut sessions: FxHashSet<SessionId> = FxHashSet::default();
        let mut keys: FxHashSet<Key> = FxHashSet::default();
        for t in &self.txns {
            sessions.insert(t.sid);
            stats.ops += t.ops.len();
            for op in &t.ops {
                keys.insert(op.key());
                match op {
                    Op::Read { .. } => stats.reads += 1,
                    Op::Write { .. } => stats.writes += 1,
                }
            }
        }
        stats.sessions = sessions.len();
        stats.keys = keys.len();
        stats
    }

    /// Group transaction indices by session, each group sorted by `sno`.
    pub fn sessions(&self) -> FxHashMap<SessionId, Vec<usize>> {
        let mut map: FxHashMap<SessionId, Vec<usize>> = FxHashMap::default();
        for (i, t) in self.txns.iter().enumerate() {
            map.entry(t.sid).or_default().push(i);
        }
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each group is sorted in place independently; the visit order cannot escape"
        )]
        for idxs in map.values_mut() {
            idxs.sort_by_key(|&i| self.txns[i].sno);
        }
        map
    }

    /// Scan for structural problems (duplicate ids, colliding timestamps,
    /// session sequence gaps). Checkers also detect these on the fly; this
    /// is the standalone validator for loaded files.
    pub fn integrity_issues(&self) -> Vec<IntegrityIssue> {
        let mut issues = Vec::new();
        let mut tids: FxHashSet<TxnId> = FxHashSet::default();
        let mut ts_owner: FxHashMap<Timestamp, TxnId> = FxHashMap::default();
        let mut next_sno: FxHashMap<SessionId, u32> = FxHashMap::default();
        for t in &self.txns {
            if !tids.insert(t.tid) {
                issues.push(IntegrityIssue::DuplicateTid(t.tid));
            }
            for ts in [t.start_ts, t.commit_ts] {
                match ts_owner.get(&ts) {
                    Some(&owner) if owner != t.tid => {
                        issues.push(IntegrityIssue::TimestampCollision(ts, owner, t.tid));
                    }
                    _ => {
                        ts_owner.insert(ts, t.tid);
                    }
                }
            }
            let expected = next_sno.entry(t.sid).or_insert(0);
            if t.sno != *expected {
                issues.push(IntegrityIssue::SessionGap {
                    sid: t.sid,
                    expected: *expected,
                    found: t.sno,
                });
                *expected = t.sno + 1;
            } else {
                *expected += 1;
            }
        }
        issues
    }

    /// A copy with transactions sorted by commit timestamp (ascending),
    /// breaking ties by transaction id. Useful for deterministic dumps.
    pub fn sorted_by_commit(&self) -> History {
        let mut h = self.clone();
        h.txns.sort_by_key(|t| (t.commit_ts, t.tid));
        h
    }

    /// Iterate transactions in collection order.
    pub fn iter(&self) -> std::slice::Iter<'_, Transaction> {
        self.txns.iter()
    }
}

impl FromIterator<Transaction> for History {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        History { kind: DataKind::Kv, txns: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Value;
    use crate::txn::TxnBuilder;

    fn txn(tid: u64, sid: u32, sno: u32, s: u64, c: u64) -> Transaction {
        TxnBuilder::new(tid)
            .session(sid, sno)
            .interval(s, c)
            .put(Key(tid), Value(tid))
            .read(Key(0), Value(0))
            .build()
    }

    #[test]
    fn stats_counts() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 0, 1, 2));
        h.push(txn(2, 1, 0, 3, 4));
        let s = h.stats();
        assert_eq!(s.txns, 2);
        assert_eq!(s.ops, 4);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.keys, 3); // k1, k2, k0
    }

    #[test]
    fn sessions_grouped_and_sorted() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 1, 3, 4));
        h.push(txn(2, 0, 0, 1, 2));
        let sess = h.sessions();
        assert_eq!(sess[&SessionId(0)], vec![1, 0]); // index of sno 0 first
    }

    #[test]
    fn integrity_clean_history() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 0, 1, 2));
        h.push(txn(2, 0, 1, 3, 4));
        assert!(h.integrity_issues().is_empty());
    }

    #[test]
    fn integrity_detects_duplicate_tid() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 0, 1, 2));
        h.push(txn(1, 1, 0, 3, 4));
        assert!(h
            .integrity_issues()
            .iter()
            .any(|i| matches!(i, IntegrityIssue::DuplicateTid(TxnId(1)))));
    }

    #[test]
    fn integrity_detects_timestamp_collision() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 0, 1, 2));
        h.push(txn(2, 1, 0, 2, 4)); // start collides with t1's commit
        assert!(h
            .integrity_issues()
            .iter()
            .any(|i| matches!(i, IntegrityIssue::TimestampCollision(Timestamp(2), _, _))));
    }

    #[test]
    fn integrity_allows_readonly_equal_start_commit() {
        let mut h = History::new(DataKind::Kv);
        let mut t = txn(1, 0, 0, 5, 5);
        t.ops.retain(|o| o.is_read());
        h.push(t);
        assert!(h.integrity_issues().is_empty());
    }

    #[test]
    fn integrity_detects_session_gap() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 0, 1, 2));
        h.push(txn(2, 0, 2, 3, 4)); // skipped sno 1
        assert!(h.integrity_issues().iter().any(|i| matches!(
            i,
            IntegrityIssue::SessionGap { sid: SessionId(0), expected: 1, found: 2 }
        )));
    }

    #[test]
    fn sorted_by_commit_orders() {
        let mut h = History::new(DataKind::Kv);
        h.push(txn(1, 0, 0, 5, 6));
        h.push(txn(2, 1, 0, 1, 2));
        let s = h.sorted_by_commit();
        assert_eq!(s.txns[0].tid, TxnId(2));
    }
}
