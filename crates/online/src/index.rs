//! Secondary indexes used by the online checker: per-key event-ordered
//! reader/writer indexes and the versioned `ongoing` conflict index.

use crate::versioned::VersionedMap;
use aion_types::{EventKey, FxHashMap, Key, TxnId};
use std::collections::BTreeMap;
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
pub(crate) struct ReadRef {
    /// The reading transaction.
    pub tid: TxnId,
    /// Index into the transaction's read-state vector.
    pub read_idx: u32,
}

/// Per-key index of items anchored at events, ordered by event.
///
/// The inner map is readable crate-wide (`chains`) so
/// the checkpoint codec ([`crate::snapshot`]) can serialize and restore
/// the index *exactly* — including per-event item order, which
/// re-registration could not reproduce for state that was GC-pruned or
/// spill-reloaded — but only `insert` and `prune_below` change it, which
/// is what keeps `items` equal to its contents.
#[derive(Clone, Debug)]
pub(crate) struct KeyEventIndex<T> {
    keys: FxHashMap<Key, BTreeMap<EventKey, SmallSeq<T>>>,
    /// Total items across every chain, so `len` never walks the maps.
    items: usize,
}

impl<T> Default for KeyEventIndex<T> {
    fn default() -> Self {
        KeyEventIndex { keys: FxHashMap::default(), items: 0 }
    }
}

impl<T: Copy + PartialEq> KeyEventIndex<T> {
    /// An empty index.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register `item` for `key` at `at`, once: a spill-reloaded writer
    /// whose entry survived the GC prune is not registered twice.
    pub(crate) fn insert(&mut self, key: Key, at: EventKey, item: T) {
        let items = self.keys.entry(key).or_default().entry(at).or_default();
        if !items.as_slice().contains(&item) {
            items.push(item);
            self.items += 1;
        }
    }

    /// Refill `out` with the items for `key` anchored inside `(lo, hi]`
    /// and their anchor events, in event order (the caller keeps `out`
    /// across calls). The upper bound is inclusive: a reader (or
    /// writer) anchored exactly at the bounding version's event belongs to
    /// the transaction that *produced* that version, and its own visible
    /// snapshot is strictly before its anchor — so it is affected by an
    /// insertion at `lo` just like anchors strictly inside the window.
    pub(crate) fn range(&self, key: Key, lo: EventKey, hi: EventKey, out: &mut Vec<(EventKey, T)>) {
        out.clear();
        if let Some(chain) = self.keys.get(&key) {
            for (e, items) in chain.range((Bound::Excluded(lo), Bound::Included(hi))) {
                out.extend(items.as_slice().iter().map(|item| (*e, *item)));
            }
        }
    }

    /// Drop every entry anchored strictly below `horizon` (GC).
    pub(crate) fn prune_below(&mut self, horizon: EventKey) -> usize {
        let mut dropped = 0;
        self.keys.retain(|_, chain| {
            let kept = chain.split_off(&horizon);
            dropped += chain.values().map(|items| items.as_slice().len()).sum::<usize>();
            *chain = kept;
            !chain.is_empty()
        });
        self.items -= dropped;
        dropped
    }

    /// Every key's event-ordered chain of item sequences, read-only.
    pub(crate) fn chains(&self) -> &FxHashMap<Key, BTreeMap<EventKey, SmallSeq<T>>> {
        &self.keys
    }

    /// Total anchored items (for stats and the memory estimate).
    pub(crate) fn len(&self) -> usize {
        self.items
    }

    /// [`len`](Self::len) recounted by walking every chain — the oracle
    /// the maintained counter is checked against in tests and debug
    /// builds.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn recount_len(&self) -> usize {
        self.keys.values().flat_map(|c| c.values()).map(|items| items.as_slice().len()).sum()
    }
}

/// One writer registered in the [`OngoingIndex`]: the transaction and
/// whether *its* isolation level activates NOCONFLICT. Carrying the
/// flag in the index (instead of looking the partner up at conflict
/// time) keeps mixed-level pair semantics correct even after the
/// partner transaction has been spilled out of resident memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OngoingWriter {
    /// The writing transaction.
    pub tid: TxnId,
    /// Whether its level forbids concurrent writers.
    pub noconflict: bool,
}

/// The `ongoing_ts` structure: per key, the set of transactions holding an
/// uncommitted write at each event of that key. Registering a transaction's
/// write interval returns every *overlapping* writer — exactly the
/// NOCONFLICT condition (paper step ②), computed arrival-driven so that
/// each conflicting pair is reported exactly once (when its second member
/// arrives).
#[derive(Clone, Debug, Default)]
pub struct OngoingIndex {
    pub(crate) map: VersionedMap<SmallSeq<OngoingWriter>>,
}

impl OngoingIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register that `tid` (whose level's NOCONFLICT activation is
    /// `noconflict`) writes `key` over `[start, commit]`. Returns the
    /// distinct registered writers whose intervals on `key` overlap.
    /// With `silent`, versions are updated but no overlaps are returned
    /// (used when re-registering reloaded transactions whose conflicts were
    /// already reported before they were spilled). An inverted interval
    /// (`start > commit`) holds no write at any event: nothing is
    /// registered and nothing overlaps.
    pub fn register(
        &mut self,
        key: Key,
        tid: TxnId,
        noconflict: bool,
        start: EventKey,
        commit: EventKey,
        silent: bool,
    ) -> Vec<OngoingWriter> {
        let me = OngoingWriter { tid, noconflict };
        let mut overlap = Vec::new();
        if start > commit {
            return overlap;
        }
        // Version at our start: ongoing just before, plus us.
        let mut at_start =
            self.map.get_before(key, start).map(|(_, v)| v.clone()).unwrap_or_default();
        overlap.extend_from_slice(at_start.as_slice());
        at_start.push(me);
        // Existing versions inside the interval: everyone there overlaps us,
        // and each of those snapshots must now include us.
        for (_, set) in self.map.range_mut(key, start, commit) {
            overlap.extend_from_slice(set.as_slice());
            if !set.as_slice().iter().any(|w| w.tid == tid) {
                set.push(me);
            }
        }
        self.map.insert(key, start, at_start);
        // Version at our commit: ongoing just before commit, minus us.
        let mut at_commit =
            self.map.get_before(key, commit).map(|(_, v)| v.clone()).unwrap_or_default();
        at_commit.retain(|w| w.tid != tid);
        self.map.insert(key, commit, at_commit);

        overlap.retain(|w| !silent && w.tid != tid);
        overlap.sort_unstable_by_key(|w| (w.tid, w.noconflict));
        overlap.dedup();
        overlap
    }

    /// Drop versions strictly below `horizon`, keeping per-key bases.
    pub(crate) fn prune_below(&mut self, horizon: EventKey) -> usize {
        self.map.prune_below(horizon)
    }

    /// Number of stored versions (for stats).
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{SplitMix64, Timestamp};
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

    #[test]
    fn key_event_index_range_and_prune() {
        let mut idx: KeyEventIndex<u32> = KeyEventIndex::new();
        idx.insert(Key(1), s(10, 1), 100);
        idx.insert(Key(1), s(20, 2), 200);
        idx.insert(Key(1), s(20, 2), 201);
        idx.insert(Key(2), s(15, 3), 300);
        let mut got = Vec::new();
        idx.range(Key(1), s(5, 0), s(25, 9), &mut got);
        assert_eq!(got, vec![(s(10, 1), 100), (s(20, 2), 200), (s(20, 2), 201)]);
        assert_eq!(idx.len(), 4);
        let dropped = idx.prune_below(s(20, 2));
        assert_eq!(dropped, 2); // key1@10 and key2@15
        idx.range(Key(1), s(5, 0), s(25, 9), &mut got);
        assert_eq!(got.len(), 2, "refilled, not appended to");
        assert_eq!((idx.len(), idx.recount_len()), (2, 2), "counter follows the prune");
    }

    #[test]
    fn ongoing_detects_simple_overlap() {
        let mut idx = OngoingIndex::new();
        // t1 [1,5], t2 [3,7] on same key: overlap detected when t2 arrives.
        assert!(idx.register(Key(1), TxnId(1), true, s(1, 1), c(5, 1), false).is_empty());
        let conflicts = idx.register(Key(1), TxnId(2), true, s(3, 2), c(7, 2), false);
        assert_eq!(conflicts, vec![OngoingWriter { tid: TxnId(1), noconflict: true }]);
    }

    #[test]
    fn ongoing_no_overlap_for_disjoint_intervals() {
        let mut idx = OngoingIndex::new();
        idx.register(Key(1), TxnId(1), true, s(1, 1), c(2, 1), false);
        let conflicts = idx.register(Key(1), TxnId(2), true, s(3, 2), c(4, 2), false);
        assert!(conflicts.is_empty());
    }

    #[test]
    fn ongoing_out_of_order_arrival_detects_containment() {
        let mut idx = OngoingIndex::new();
        // t2 [3,4] arrives first; t1 [1,10] (containing t2) arrives later.
        idx.register(Key(1), TxnId(2), true, s(3, 2), c(4, 2), false);
        let conflicts = idx.register(Key(1), TxnId(1), true, s(1, 1), c(10, 1), false);
        assert_eq!(conflicts, vec![OngoingWriter { tid: TxnId(2), noconflict: true }]);
    }

    #[test]
    fn ongoing_figure2_example() {
        // Paper Fig. 2: T5 [4,7] and T3 [6,9] both write y; T2 [3,5] writes x.
        let y = Key(2);
        let mut idx = OngoingIndex::new();
        idx.register(y, TxnId(3), true, s(6, 3), c(9, 3), false);
        let conflicts = idx.register(y, TxnId(5), true, s(4, 5), c(7, 5), false);
        assert_eq!(conflicts, vec![OngoingWriter { tid: TxnId(3), noconflict: true }]);
    }

    #[test]
    fn ongoing_three_way_overlap_counts_pairs_once() {
        let mut idx = OngoingIndex::new();
        let mut pairs = 0;
        pairs += idx.register(Key(1), TxnId(1), true, s(1, 1), c(4, 1), false).len();
        pairs += idx.register(Key(1), TxnId(2), true, s(2, 2), c(5, 2), false).len();
        pairs += idx.register(Key(1), TxnId(3), true, s(3, 3), c(6, 3), false).len();
        assert_eq!(pairs, 3, "each of the 3 pairs exactly once");
    }

    #[test]
    fn ongoing_silent_registration_reports_nothing() {
        let mut idx = OngoingIndex::new();
        idx.register(Key(1), TxnId(1), true, s(1, 1), c(4, 1), false);
        let conflicts = idx.register(Key(1), TxnId(2), false, s(2, 2), c(5, 2), true);
        assert!(conflicts.is_empty());
        // But the silent registration is still visible to later arrivals.
        let conflicts = idx.register(Key(1), TxnId(3), true, s(3, 3), c(6, 3), false);
        assert_eq!(
            conflicts,
            vec![
                OngoingWriter { tid: TxnId(1), noconflict: true },
                OngoingWriter { tid: TxnId(2), noconflict: false }
            ],
            "the silent registration's level flag survives"
        );
    }

    /// Regression: `start > commit` on a key with a chain used to panic
    /// in `BTreeMap::range_mut` ("range start is greater than range end").
    #[test]
    fn ongoing_inverted_interval_registers_nothing() {
        let mut idx = OngoingIndex::new();
        idx.register(Key(1), TxnId(1), true, s(1, 1), c(5, 1), false);
        let versions = idx.len();
        assert!(idx.register(Key(1), TxnId(2), true, s(9, 2), c(3, 2), true).is_empty());
        assert!(idx.register(Key(1), TxnId(2), true, s(9, 2), c(3, 2), false).is_empty());
        assert_eq!(idx.len(), versions, "no version was added");
        let later = idx.register(Key(1), TxnId(3), true, s(2, 3), c(10, 3), false);
        assert_eq!(later, vec![OngoingWriter { tid: TxnId(1), noconflict: true }]);
    }

    #[test]
    fn ongoing_different_keys_never_conflict() {
        let mut idx = OngoingIndex::new();
        idx.register(Key(1), TxnId(1), true, s(1, 1), c(5, 1), false);
        let conflicts = idx.register(Key(2), TxnId(2), true, s(2, 2), c(6, 2), false);
        assert!(conflicts.is_empty());
    }
}
