//! One key's secondary indexes: the event-ordered reader and writer
//! chains and the versioned `ongoing` overlap chain, each a chain of
//! [`SmallSeq`]s inside the key's [`crate::keys::KeyState`].

use crate::keys::{KeyMut, KeyState};
use crate::versioned::{get_before, Chain};
use aion_types::{EventKey, TxnId};
use std::ops::Bound;

/// The items one index entry holds, in insertion order — which step ③
/// and the checkpoint codec both depend on. Almost every entry holds at
/// most two, so those live inline and dropping an index frees no heap
/// object per entry.
#[derive(Clone, Debug, Default)]
pub(crate) enum SmallSeq<T> {
    #[default]
    Empty,
    One([T; 1]),
    Two([T; 2]),
    Heap(Vec<T>),
}

impl<T: Copy> SmallSeq<T> {
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            SmallSeq::Empty => &[],
            SmallSeq::One(a) => a,
            SmallSeq::Two(a) => a,
            SmallSeq::Heap(v) => v,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        match self {
            SmallSeq::Empty => *self = SmallSeq::One([item]),
            SmallSeq::One([a]) => *self = SmallSeq::Two([*a, item]),
            SmallSeq::Two([a, b]) => *self = SmallSeq::Heap(vec![*a, *b, item]),
            SmallSeq::Heap(v) => v.push(item),
        }
    }

    /// Keep the items `keep` accepts, moving back inline when they fit.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        *self = self.as_slice().iter().copied().filter(|item| keep(item)).collect();
    }
}

impl<T: Copy> FromIterator<T> for SmallSeq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut seq = SmallSeq::Empty;
        items.into_iter().for_each(|item| seq.push(item));
        seq
    }
}

/// Reference to one read inside a transaction (index into its read states).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadRef {
    /// The reading transaction.
    pub tid: TxnId,
    /// Index into the transaction's read-state vector.
    pub read_idx: u32,
}

/// Register `item` at `at`, once: a spill-reloaded writer whose entry
/// survived the GC prune is not registered twice. Returns whether the
/// item is new.
fn insert<T: Copy + PartialEq>(chain: &mut Chain<SmallSeq<T>>, at: EventKey, item: T) -> bool {
    let items = chain.entry(at).or_default();
    let new = !items.as_slice().contains(&item);
    if new {
        items.push(item);
    }
    new
}

/// Refill `out` with the items anchored inside `(lo, hi]` and their
/// anchor events, in event order (the caller keeps `out` across calls).
/// The upper bound is inclusive: a reader (or writer) anchored exactly
/// at the bounding version's event belongs to the transaction that
/// *produced* that version, and its own visible snapshot is strictly
/// before its anchor — so it is affected by an insertion at `lo` just
/// like anchors strictly inside the window.
fn range<T: Copy>(
    chain: &Chain<SmallSeq<T>>,
    lo: EventKey,
    hi: EventKey,
    out: &mut Vec<(EventKey, T)>,
) {
    out.clear();
    for (e, items) in chain.range((Bound::Excluded(lo), Bound::Included(hi))) {
        out.extend(items.as_slice().iter().map(|item| (*e, *item)));
    }
}

/// Drop every entry anchored strictly below `horizon` (GC). Returns the
/// number of items dropped.
pub(crate) fn prune_below<T: Copy>(chain: &mut Chain<SmallSeq<T>>, horizon: EventKey) -> usize {
    let kept = chain.split_off(&horizon);
    std::mem::replace(chain, kept).values().map(|items| items.as_slice().len()).sum()
}

/// One writer registered in a key's overlap chain: the transaction and
/// whether *its* isolation level activates NOCONFLICT. Carrying the
/// flag in the chain (instead of looking the partner up at conflict
/// time) keeps mixed-level pair semantics correct even after the
/// partner transaction has been spilled out of resident memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OngoingWriter {
    /// The writing transaction.
    pub tid: TxnId,
    /// Whether its level forbids concurrent writers.
    pub noconflict: bool,
}

impl KeyState {
    /// Refill `out` with the readers anchored inside `(lo, hi]`.
    pub fn readers_in(&self, lo: EventKey, hi: EventKey, out: &mut Vec<(EventKey, ReadRef)>) {
        range(&self.readers, lo, hi, out);
    }

    /// Refill `out` with the list writers anchored inside `(lo, hi]`.
    pub fn writers_in(&self, lo: EventKey, hi: EventKey, out: &mut Vec<(EventKey, TxnId)>) {
        range(&self.writers, lo, hi, out);
    }
}

impl KeyMut<'_> {
    /// Index an unsettled read anchored at `at`, once.
    pub fn add_reader(&mut self, at: EventKey, read: ReadRef) {
        self.n.readers += usize::from(insert(&mut self.state.readers, at, read));
    }

    /// Index a list writer anchored at `at`, once.
    pub fn add_writer(&mut self, at: EventKey, tid: TxnId) {
        self.n.writers += usize::from(insert(&mut self.state.writers, at, tid));
    }

    /// The `ongoing_ts` structure, one key's chain of it: the set of
    /// transactions holding an uncommitted write at each event.
    /// Registering that `tid` (whose level's NOCONFLICT activation is
    /// `noconflict`) writes the key over `[start, commit]` returns the
    /// distinct registered writers whose intervals overlap — exactly the
    /// NOCONFLICT condition (paper step ②), computed arrival-driven so
    /// that each conflicting pair is reported exactly once (when its
    /// second member arrives). With `silent`, versions are updated but no
    /// overlaps are returned (used when re-registering reloaded
    /// transactions whose conflicts were already reported before they
    /// were spilled). An inverted interval (`start > commit`) holds no
    /// write at any event: nothing is registered and nothing overlaps.
    pub fn register(
        &mut self,
        tid: TxnId,
        noconflict: bool,
        start: EventKey,
        commit: EventKey,
        silent: bool,
    ) -> Vec<OngoingWriter> {
        let (me, chain) = (OngoingWriter { tid, noconflict }, &mut self.state.overlaps);
        let mut overlap = Vec::new();
        if start > commit {
            return overlap;
        }
        // Version at our start: ongoing just before, plus us.
        let mut at_start = get_before(chain, start).map(|(_, v)| v.clone()).unwrap_or_default();
        overlap.extend_from_slice(at_start.as_slice());
        at_start.push(me);
        // Existing versions inside the interval: everyone there overlaps us,
        // and each of those snapshots must now include us.
        for (_, set) in chain.range_mut((Bound::Excluded(start), Bound::Excluded(commit))) {
            overlap.extend_from_slice(set.as_slice());
            if !set.as_slice().iter().any(|w| w.tid == tid) {
                set.push(me);
            }
        }
        self.n.overlaps += usize::from(chain.insert(start, at_start).is_none());
        // Version at our commit: ongoing just before commit, minus us.
        let mut at_commit = get_before(chain, commit).map(|(_, v)| v.clone()).unwrap_or_default();
        at_commit.retain(|w| w.tid != tid);
        self.n.overlaps += usize::from(chain.insert(commit, at_commit).is_none());

        overlap.retain(|w| !silent && w.tid != tid);
        overlap.sort_unstable_by_key(|w| (w.tid, w.noconflict));
        overlap.dedup();
        overlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyTable;
    use aion_types::{Key, SplitMix64, Timestamp};
    use proptest::prelude::*;

    fn s(ts: u64, tid: u64) -> EventKey {
        EventKey::start(Timestamp(ts), TxnId(tid))
    }
    fn c(ts: u64, tid: u64) -> EventKey {
        EventKey::commit(Timestamp(ts), TxnId(tid))
    }

    proptest! {
        /// `SmallSeq` is a `Vec` that keeps up to two items inline: the
        /// same sequence after every push, retain, clone and collect,
        /// and on the heap exactly while it holds more than two.
        #[test]
        fn small_seq_matches_a_vec(
            ops in prop::collection::vec((0u8..4, any::<u64>()), 1..60),
        ) {
            let (mut real, mut model) = (SmallSeq::<u64>::default(), Vec::new());
            for (kind, seed) in ops {
                let mut rng = SplitMix64::new(seed);
                match kind {
                    0 => for _ in 0..=rng.below(3) {
                        let item = rng.below(8);
                        real.push(item);
                        model.push(item);
                    },
                    1 => {
                        let cut = rng.below(9);
                        real.retain(|item| *item < cut);
                        model.retain(|item| *item < cut);
                    }
                    2 => real = real.clone(),
                    _ => real = model.iter().copied().collect(),
                }
                prop_assert_eq!(real.as_slice(), model.as_slice());
                prop_assert_eq!(matches!(real, SmallSeq::Heap(_)), model.len() > 2);
            }
        }
    }

    fn r(tid: u64, read_idx: u32) -> ReadRef {
        ReadRef { tid: TxnId(tid), read_idx }
    }

    /// Register `tid` (NOCONFLICT-bound when `nc`) over `[s, c]` on `key`.
    fn reg(t: &mut KeyTable, key: u64, tid: u64, nc: bool, span: (u64, u64)) -> Vec<OngoingWriter> {
        t.entry(Key(key)).register(TxnId(tid), nc, s(span.0, tid), c(span.1, tid), false)
    }
    fn w(tid: u64) -> OngoingWriter {
        OngoingWriter { tid: TxnId(tid), noconflict: true }
    }

    #[test]
    fn key_event_index_range_and_prune() {
        let mut t = KeyTable::default();
        t.entry(Key(1)).add_reader(s(10, 1), r(1, 0));
        t.entry(Key(1)).add_reader(s(20, 2), r(2, 0));
        t.entry(Key(1)).add_reader(s(20, 2), r(2, 1));
        t.entry(Key(1)).add_reader(s(20, 2), r(2, 1)); // once only
        t.entry(Key(2)).add_reader(s(15, 3), r(3, 0));
        let mut got = Vec::new();
        let readers = |t: &KeyTable, got: &mut Vec<_>| {
            t.get(Key(1)).into_iter().for_each(|k| k.readers_in(s(5, 0), s(25, 9), got))
        };
        readers(&t, &mut got);
        assert_eq!(got, vec![(s(10, 1), r(1, 0)), (s(20, 2), r(2, 0)), (s(20, 2), r(2, 1))]);
        assert_eq!(t.counts().readers, 4);
        t.prune_below(s(20, 2)); // key1@10 and key2@15
        readers(&t, &mut got);
        assert_eq!(got.len(), 2, "refilled, not appended to");
        assert_eq!((t.counts().readers, t.recount().readers), (2, 2), "counter follows the prune");
        assert!(t.get(Key(2)).is_none(), "a key with nothing left leaves the table");
    }

    #[test]
    fn ongoing_detects_simple_overlap() {
        let mut t = KeyTable::default();
        // t1 [1,5], t2 [3,7] on same key: overlap detected when t2 arrives.
        assert!(reg(&mut t, 1, 1, true, (1, 5)).is_empty());
        assert_eq!(reg(&mut t, 1, 2, true, (3, 7)), vec![w(1)]);
    }

    #[test]
    fn ongoing_no_overlap_for_disjoint_intervals() {
        let mut t = KeyTable::default();
        reg(&mut t, 1, 1, true, (1, 2));
        assert!(reg(&mut t, 1, 2, true, (3, 4)).is_empty());
    }

    #[test]
    fn ongoing_out_of_order_arrival_detects_containment() {
        let mut t = KeyTable::default();
        // t2 [3,4] arrives first; t1 [1,10] (containing t2) arrives later.
        reg(&mut t, 1, 2, true, (3, 4));
        assert_eq!(reg(&mut t, 1, 1, true, (1, 10)), vec![w(2)]);
    }

    #[test]
    fn ongoing_figure2_example() {
        // Paper Fig. 2: T5 [4,7] and T3 [6,9] both write y; T2 [3,5] writes x.
        let mut t = KeyTable::default();
        reg(&mut t, 2, 3, true, (6, 9));
        assert_eq!(reg(&mut t, 2, 5, true, (4, 7)), vec![w(3)]);
    }

    #[test]
    fn ongoing_three_way_overlap_counts_pairs_once() {
        let mut t = KeyTable::default();
        let mut pairs = 0;
        pairs += reg(&mut t, 1, 1, true, (1, 4)).len();
        pairs += reg(&mut t, 1, 2, true, (2, 5)).len();
        pairs += reg(&mut t, 1, 3, true, (3, 6)).len();
        assert_eq!(pairs, 3, "each of the 3 pairs exactly once");
    }

    #[test]
    fn ongoing_silent_registration_reports_nothing() {
        let mut t = KeyTable::default();
        reg(&mut t, 1, 1, true, (1, 4));
        let conflicts = t.entry(Key(1)).register(TxnId(2), false, s(2, 2), c(5, 2), true);
        assert!(conflicts.is_empty());
        // But the silent registration is still visible to later arrivals.
        assert_eq!(
            reg(&mut t, 1, 3, true, (3, 6)),
            vec![w(1), OngoingWriter { tid: TxnId(2), noconflict: false }],
            "the silent registration's level flag survives"
        );
    }

    /// Regression: `start > commit` on a key with a chain used to panic
    /// in `BTreeMap::range_mut` ("range start is greater than range end").
    #[test]
    fn ongoing_inverted_interval_registers_nothing() {
        let mut t = KeyTable::default();
        reg(&mut t, 1, 1, true, (1, 5));
        let versions = t.counts().overlaps;
        assert!(t.entry(Key(1)).register(TxnId(2), true, s(9, 2), c(3, 2), true).is_empty());
        assert!(reg(&mut t, 1, 2, true, (9, 3)).is_empty());
        assert_eq!(t.counts().overlaps, versions, "no version was added");
        assert_eq!(reg(&mut t, 1, 3, true, (2, 10)), vec![w(1)]);
    }

    #[test]
    fn ongoing_different_keys_never_conflict() {
        let mut t = KeyTable::default();
        reg(&mut t, 1, 1, true, (1, 5));
        assert!(reg(&mut t, 2, 2, true, (2, 6)).is_empty());
    }
}
