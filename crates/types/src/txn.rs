//! Transactions: the unit of history collection and checking.

use crate::ids::{EventKey, Key, SessionId, Timestamp, TxnId, Value};
use crate::level::IsolationLevel;
use crate::op::{Op, Snapshot};

/// One committed transaction as observed by the history collector.
///
/// Field names follow the paper's §III-B1 input description: `tid`, `sid`,
/// `sno` (sequence number within the session), `ops` (in program order), and
/// the start/commit timestamps extracted from the database. Only committed
/// transactions appear in histories (§IV-B, following Elle/Cobra/PolySI).
#[derive(Clone, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Transaction {
    /// Unique transaction id.
    pub tid: TxnId,
    /// Session the transaction was issued in.
    pub sid: SessionId,
    /// Zero-based position within its session.
    pub sno: u32,
    /// Snapshot timestamp (paper: `T.start_ts`).
    pub start_ts: Timestamp,
    /// Commit timestamp (paper: `T.commit_ts`); equals `start_ts` for
    /// read-only transactions under some oracles.
    pub commit_ts: Timestamp,
    /// Client-visible operations in program order.
    pub ops: Vec<Op>,
    /// The isolation level this transaction was declared (ran) at, when
    /// the collector recorded one. `None` means "whatever the checking
    /// session's [`LevelPolicy`](crate::LevelPolicy) defaults to"; the
    /// declaration only takes effect under
    /// [`LevelPolicy::PerTxn`](crate::LevelPolicy::PerTxn).
    pub level: Option<IsolationLevel>,
}

impl Transaction {
    /// The start event key of this transaction.
    #[inline]
    pub fn start_event(&self) -> EventKey {
        EventKey::start(self.start_ts, self.tid)
    }

    /// The commit event key of this transaction.
    #[inline]
    pub fn commit_event(&self) -> EventKey {
        EventKey::commit(self.commit_ts, self.tid)
    }

    /// Keys written by this transaction (paper: `T.wkey`), deduplicated,
    /// in first-write order.
    pub fn write_keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for op in &self.ops {
            if let Op::Write { key, .. } = op {
                if !keys.contains(key) {
                    keys.push(*key);
                }
            }
        }
        keys
    }

    /// True when the transaction performs no writes.
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(Op::is_read)
    }

    /// Whether the start/commit interval of `self` overlaps `other`'s
    /// (the paper's notion of *concurrent* transactions, used by
    /// NOCONFLICT). Intervals are closed: `[start_ts, commit_ts]`.
    pub fn overlaps(&self, other: &Transaction) -> bool {
        self.start_ts <= other.commit_ts && other.start_ts <= self.commit_ts
    }

    /// Per-key final written snapshots, computed by folding the
    /// transaction's mutations over `base_of(key)` (the visible snapshot at
    /// its start). This is the paper's `ext_val[tid]`.
    pub fn final_writes(&self, mut base_of: impl FnMut(Key) -> Snapshot) -> Vec<(Key, Snapshot)> {
        let mut out: Vec<(Key, Snapshot)> = Vec::new();
        for op in &self.ops {
            if let Op::Write { key, mutation } = op {
                match out.iter_mut().find(|(k, _)| k == key) {
                    Some((_, snap)) => *snap = crate::op::apply(snap, mutation),
                    None => {
                        let base = base_of(*key);
                        out.push((*key, crate::op::apply(&base, mutation)));
                    }
                }
            }
        }
        out
    }
}

/// Fluent builder for hand-crafted transactions in tests and examples.
///
/// ```
/// use aion_types::{TxnBuilder, Key, Value};
/// let t = TxnBuilder::new(1)
///     .session(0, 0)
///     .interval(10, 20)
///     .put(Key(1), Value(5))
///     .read(Key(2), Value(0))
///     .build();
/// assert_eq!(t.ops.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TxnBuilder {
    txn: Transaction,
}

impl TxnBuilder {
    /// Start building a transaction with the given id.
    pub fn new(tid: u64) -> Self {
        TxnBuilder {
            txn: Transaction {
                tid: TxnId(tid),
                sid: SessionId(0),
                sno: 0,
                start_ts: Timestamp::MIN,
                commit_ts: Timestamp::MIN,
                ops: Vec::new(),
                level: None,
            },
        }
    }

    /// Set the session id and sequence number.
    pub fn session(mut self, sid: u32, sno: u32) -> Self {
        self.txn.sid = SessionId(sid);
        self.txn.sno = sno;
        self
    }

    /// Set start and commit timestamps.
    pub fn interval(mut self, start: u64, commit: u64) -> Self {
        self.txn.start_ts = Timestamp(start);
        self.txn.commit_ts = Timestamp(commit);
        self
    }

    /// Append a scalar read.
    pub fn read(mut self, key: Key, value: Value) -> Self {
        self.txn.ops.push(Op::read(key, value));
        self
    }

    /// Append a list read.
    pub fn read_list(mut self, key: Key, elems: Vec<Value>) -> Self {
        self.txn.ops.push(Op::read_list(key, elems));
        self
    }

    /// Append a scalar write.
    pub fn put(mut self, key: Key, value: Value) -> Self {
        self.txn.ops.push(Op::put(key, value));
        self
    }

    /// Append a list append.
    pub fn append(mut self, key: Key, elem: Value) -> Self {
        self.txn.ops.push(Op::append(key, elem));
        self
    }

    /// Append an arbitrary operation.
    pub fn op(mut self, op: Op) -> Self {
        self.txn.ops.push(op);
        self
    }

    /// Declare the transaction's isolation level (mixed-level checking).
    pub fn level(mut self, level: IsolationLevel) -> Self {
        self.txn.level = Some(level);
        self
    }

    /// Finish building.
    pub fn build(self) -> Transaction {
        self.txn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DataKind;

    #[test]
    fn builder_roundtrip() {
        let t = TxnBuilder::new(7)
            .session(3, 2)
            .interval(100, 200)
            .put(Key(1), Value(10))
            .read(Key(1), Value(10))
            .build();
        assert_eq!(t.tid, TxnId(7));
        assert_eq!(t.sid, SessionId(3));
        assert_eq!(t.sno, 2);
        assert_eq!(t.start_ts, Timestamp(100));
        assert_eq!(t.commit_ts, Timestamp(200));
        assert_eq!(t.ops.len(), 2);
        assert!(!t.is_read_only());
    }

    #[test]
    fn write_keys_dedup_in_order() {
        let t = TxnBuilder::new(1)
            .put(Key(2), Value(1))
            .put(Key(1), Value(2))
            .put(Key(2), Value(3))
            .build();
        assert_eq!(t.write_keys(), vec![Key(2), Key(1)]);
    }

    #[test]
    fn read_only_detection() {
        let t = TxnBuilder::new(1).read(Key(1), Value(0)).build();
        assert!(t.is_read_only());
    }

    #[test]
    fn overlap_is_symmetric_and_closed() {
        let a = TxnBuilder::new(1).interval(1, 5).build();
        let b = TxnBuilder::new(2).interval(5, 9).build();
        let c = TxnBuilder::new(3).interval(6, 7).build();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn final_writes_fold_per_key() {
        let t = TxnBuilder::new(1)
            .put(Key(1), Value(5))
            .put(Key(1), Value(6))
            .append(Key(2), Value(7))
            .build();
        let fw = t.final_writes(|_| Snapshot::initial(DataKind::List));
        assert_eq!(fw.len(), 2);
        assert_eq!(fw[0], (Key(1), Snapshot::Scalar(Value(6))));
        assert_eq!(fw[1], (Key(2), Snapshot::List(vec![Value(7)].into())));
    }

    #[test]
    fn event_keys_expose_interval() {
        let t = TxnBuilder::new(4).interval(10, 20).build();
        assert_eq!(t.start_event().ts, Timestamp(10));
        assert_eq!(t.commit_event().ts, Timestamp(20));
        assert!(t.start_event() < t.commit_event());
    }
}
