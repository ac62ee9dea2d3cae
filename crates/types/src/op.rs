//! The generalized data model: snapshots, mutations, and operations.
//!
//! The paper designs CHRONOS "with key-value histories in mind, but it is
//! also easily adaptable to support other data types such as lists"
//! (§III-B1). We make that concrete with a single uniform rule used by every
//! checker in the workspace:
//!
//! > the expected result of a read is the transaction's preceding mutations
//! > on that key *folded over* the frontier snapshot of the key.
//!
//! For key-value data a `Put` ignores its base, which recovers exactly the
//! paper's `int_val`/`frontier` rules (internal reads see the last `Put`,
//! external reads see the frontier). For list data an `Append` extends its
//! base, which yields prefix/suffix checking: a wrong suffix is an INT
//! violation (the transaction lost its own appends), a wrong prefix is an
//! EXT violation (the snapshot was wrong).

use crate::ids::{Key, Value};
use std::fmt;
use std::sync::Arc;

/// Which data type a history is built over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DataKind {
    /// Register semantics: writes are `Put`, reads observe a scalar.
    #[default]
    Kv,
    /// List semantics: writes are `Append`, reads observe the whole list.
    List,
}

/// An immutable list value. `Arc`-backed so that frontier versions can be
/// cloned in O(1); appends copy-on-write.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ListValue(Arc<Vec<Value>>);

impl ListValue {
    /// The empty list (initial value of every list key).
    pub fn empty() -> Self {
        ListValue(Arc::new(Vec::new()))
    }

    /// A new list with `elem` appended.
    pub fn appended(&self, elem: Value) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(elem);
        ListValue(Arc::new(v))
    }

    /// Elements in append order.
    pub fn elems(&self) -> &[Value] {
        &self.0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether this list ends with `suffix`.
    pub fn ends_with(&self, suffix: &[Value]) -> bool {
        self.0.ends_with(suffix)
    }
}

impl From<Vec<Value>> for ListValue {
    fn from(v: Vec<Value>) -> Self {
        ListValue(Arc::new(v))
    }
}

impl fmt::Debug for ListValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

/// The full visible state of one key at one point in time.
#[derive(Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Snapshot {
    /// A register value.
    Scalar(Value),
    /// A list value.
    List(ListValue),
}

impl Snapshot {
    /// The initial snapshot of a key, conceptually written by `⊥T`.
    pub fn initial(kind: DataKind) -> Snapshot {
        match kind {
            DataKind::Kv => Snapshot::Scalar(Value::INIT),
            DataKind::List => Snapshot::List(ListValue::empty()),
        }
    }

    /// Scalar accessor; `None` for lists.
    pub fn as_scalar(&self) -> Option<Value> {
        match self {
            Snapshot::Scalar(v) => Some(*v),
            Snapshot::List(_) => None,
        }
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Snapshot::Scalar(v) => write!(f, "{v}"),
            Snapshot::List(l) => write!(f, "{l:?}"),
        }
    }
}

impl From<Value> for Snapshot {
    fn from(v: Value) -> Self {
        Snapshot::Scalar(v)
    }
}

impl From<Vec<Value>> for Snapshot {
    fn from(v: Vec<Value>) -> Self {
        Snapshot::List(v.into())
    }
}

/// A single write-type operation payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Mutation {
    /// Overwrite the key with a scalar value (`W(k, v)` in the paper).
    Put(Value),
    /// Append an element to the key's list.
    Append(Value),
}

impl fmt::Debug for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::Put(v) => write!(f, "put({v})"),
            Mutation::Append(v) => write!(f, "append({v})"),
        }
    }
}

/// Apply one mutation to a base snapshot.
///
/// A `Put` replaces the base regardless of its shape. An `Append` on a
/// scalar base treats the base as the empty list — this only arises in
/// malformed mixed histories, and yields a deterministic (reportable) result
/// instead of a panic.
pub fn apply(base: &Snapshot, m: &Mutation) -> Snapshot {
    match m {
        Mutation::Put(v) => Snapshot::Scalar(*v),
        Mutation::Append(e) => match base {
            Snapshot::List(l) => Snapshot::List(l.appended(*e)),
            Snapshot::Scalar(_) => Snapshot::List(ListValue::empty().appended(*e)),
        },
    }
}

/// The expected result of a read that observes `base` through the
/// transaction's earlier `muts` on the same key (program order).
pub fn expected_read(base: &Snapshot, muts: &[Mutation]) -> Snapshot {
    let mut cur = base.clone();
    for m in muts {
        cur = apply(&cur, m);
    }
    cur
}

/// Whether the expected value of a read is independent of the base snapshot
/// (true iff some preceding mutation is a `Put`, which erases the base).
pub fn base_independent(muts: &[Mutation]) -> bool {
    muts.iter().any(|m| matches!(m, Mutation::Put(_)))
}

/// Classification of a read mismatch into the paper's axioms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MismatchAxiom {
    /// The snapshot (external part) was wrong — a violation of EXT.
    Ext,
    /// The transaction's own effects (internal part) were lost — INT.
    Int,
}

/// Decide whether a mismatching read is an INT or an EXT violation.
///
/// * no preceding mutations → purely external → **EXT**;
/// * a preceding `Put` → expected value is base-independent → **INT**;
/// * preceding `Append`s only → if the observation still *ends with* the
///   appended suffix the transaction saw its own effects and only the
///   prefix (snapshot) is wrong → **EXT**; otherwise → **INT**.
pub fn classify_mismatch(muts: &[Mutation], observed: &Snapshot) -> MismatchAxiom {
    if muts.is_empty() {
        return MismatchAxiom::Ext;
    }
    if base_independent(muts) {
        return MismatchAxiom::Int;
    }
    // Appends only: extract the appended suffix.
    let suffix: Vec<Value> = muts
        .iter()
        .map(|m| match m {
            Mutation::Append(v) => *v,
            Mutation::Put(_) => unreachable!("base_independent returned false"),
        })
        .collect();
    match observed {
        Snapshot::List(l) if l.ends_with(&suffix) => MismatchAxiom::Ext,
        _ => MismatchAxiom::Int,
    }
}

/// One client-visible operation inside a transaction.
#[derive(Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Op {
    /// `R(k, v)`: the client read `value` from `key`.
    Read {
        /// The key read.
        key: Key,
        /// The full observed snapshot (scalar or list).
        value: Snapshot,
    },
    /// `W(k, v)` or an append: the client mutated `key`.
    Write {
        /// The key written.
        key: Key,
        /// What the write did.
        mutation: Mutation,
    },
}

impl Op {
    /// A scalar read.
    pub fn read(key: Key, value: Value) -> Op {
        Op::Read { key, value: Snapshot::Scalar(value) }
    }

    /// A list read observing `elems`.
    pub fn read_list(key: Key, elems: Vec<Value>) -> Op {
        Op::Read { key, value: Snapshot::List(elems.into()) }
    }

    /// A scalar overwrite.
    pub fn put(key: Key, value: Value) -> Op {
        Op::Write { key, mutation: Mutation::Put(value) }
    }

    /// A list append.
    pub fn append(key: Key, elem: Value) -> Op {
        Op::Write { key, mutation: Mutation::Append(elem) }
    }

    /// The key this operation touches.
    pub fn key(&self) -> Key {
        match self {
            Op::Read { key, .. } | Op::Write { key, .. } => *key,
        }
    }

    /// True for read operations.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. })
    }

    /// True for write operations.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read { key, value } => write!(f, "r({key})={value:?}"),
            Op::Write { key, mutation } => match mutation {
                Mutation::Put(v) => write!(f, "w({key})={v}"),
                Mutation::Append(v) => write!(f, "a({key})+={v}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Value {
        Value(n)
    }

    #[test]
    fn put_replaces_any_base() {
        let base = Snapshot::Scalar(v(1));
        assert_eq!(apply(&base, &Mutation::Put(v(2))), Snapshot::Scalar(v(2)));
        let base = Snapshot::List(vec![v(1)].into());
        assert_eq!(apply(&base, &Mutation::Put(v(2))), Snapshot::Scalar(v(2)));
    }

    #[test]
    fn append_extends_list_base() {
        let base = Snapshot::List(vec![v(1), v(2)].into());
        assert_eq!(
            apply(&base, &Mutation::Append(v(3))),
            Snapshot::List(vec![v(1), v(2), v(3)].into())
        );
    }

    #[test]
    fn append_on_scalar_degenerates_to_singleton_list() {
        let base = Snapshot::Scalar(v(7));
        assert_eq!(apply(&base, &Mutation::Append(v(3))), Snapshot::List(vec![v(3)].into()));
    }

    #[test]
    fn expected_read_folds_mutations() {
        let base = Snapshot::initial(DataKind::List);
        let muts = [Mutation::Append(v(1)), Mutation::Append(v(2))];
        assert_eq!(expected_read(&base, &muts), Snapshot::List(vec![v(1), v(2)].into()));

        let base = Snapshot::initial(DataKind::Kv);
        let muts = [Mutation::Put(v(5)), Mutation::Put(v(6))];
        assert_eq!(expected_read(&base, &muts), Snapshot::Scalar(v(6)));
    }

    #[test]
    fn kv_classification() {
        // No preceding mutation: external read, EXT.
        assert_eq!(classify_mismatch(&[], &Snapshot::Scalar(v(9))), MismatchAxiom::Ext);
        // Preceding put: internal read, INT.
        assert_eq!(
            classify_mismatch(&[Mutation::Put(v(1))], &Snapshot::Scalar(v(9))),
            MismatchAxiom::Int
        );
    }

    #[test]
    fn list_classification_splits_prefix_and_suffix() {
        let muts = [Mutation::Append(v(8)), Mutation::Append(v(9))];
        // Observation ends with [8,9]: own appends visible, so the prefix
        // (snapshot) must be wrong → EXT.
        let obs = Snapshot::List(vec![v(1), v(8), v(9)].into());
        assert_eq!(classify_mismatch(&muts, &obs), MismatchAxiom::Ext);
        // Observation lost the appends → INT.
        let obs = Snapshot::List(vec![v(1), v(8)].into());
        assert_eq!(classify_mismatch(&muts, &obs), MismatchAxiom::Int);
        // Observation is not even a list → INT.
        let obs = Snapshot::Scalar(v(1));
        assert_eq!(classify_mismatch(&muts, &obs), MismatchAxiom::Int);
    }

    #[test]
    fn base_independence() {
        assert!(!base_independent(&[]));
        assert!(!base_independent(&[Mutation::Append(v(1))]));
        assert!(base_independent(&[Mutation::Append(v(1)), Mutation::Put(v(2))]));
    }

    #[test]
    fn op_constructors_and_accessors() {
        let r = Op::read(Key(1), v(2));
        assert!(r.is_read());
        assert!(!r.is_write());
        assert_eq!(r.key(), Key(1));
        let w = Op::put(Key(3), v(4));
        assert!(w.is_write());
        assert_eq!(w.key(), Key(3));
        let a = Op::append(Key(5), v(6));
        assert_eq!(format!("{a:?}"), "a(k5)+=6");
        let rl = Op::read_list(Key(7), vec![v(1), v(2)]);
        assert_eq!(format!("{rl:?}"), "r(k7)=[1,2]");
    }

    #[test]
    fn list_value_ops() {
        let l = ListValue::empty();
        assert!(l.is_empty());
        let l2 = l.appended(v(1)).appended(v(2));
        assert_eq!(l2.len(), 2);
        assert_eq!(l2.elems(), &[v(1), v(2)]);
        assert!(l2.ends_with(&[v(2)]));
        assert!(!l2.ends_with(&[v(1)]));
    }
}
