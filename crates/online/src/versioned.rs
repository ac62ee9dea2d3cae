//! Timestamp-versioned per-key maps — AION's `frontier_ts`/`ongoing_ts`.
//!
//! The paper versions whole maps by timestamp and queries "the latest
//! version before `ts`". We keep one ordered version chain *per key*
//! instead (`docs/architecture.md`, "Per-key version chains"):
//! `get_before(k, e)` is a range query on a `BTreeMap<EventKey, V>`,
//! inserting a version in the middle is `O(log n)`, and the paper's
//! step-③ "touch-up" writes become unnecessary because a version of key
//! `k` is visible to every later event with no intervening version of
//! `k`.

use aion_types::{EventKey, FxHashMap, Key};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A per-key, event-ordered version store.
#[derive(Clone, Debug)]
pub struct VersionedMap<V> {
    keys: FxHashMap<Key, BTreeMap<EventKey, V>>,
    versions: usize,
}

impl<V> Default for VersionedMap<V> {
    fn default() -> Self {
        VersionedMap { keys: FxHashMap::default(), versions: 0 }
    }
}

impl<V> VersionedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of versions across all keys.
    pub fn len(&self) -> usize {
        self.versions
    }

    /// True when no version is stored.
    pub fn is_empty(&self) -> bool {
        self.versions == 0
    }

    /// Insert (or replace) the version of `key` at event `at`.
    pub fn insert(&mut self, key: Key, at: EventKey, value: V) -> Option<V> {
        let prev = self.keys.entry(key).or_default().insert(at, value);
        if prev.is_none() {
            self.versions += 1;
        }
        prev
    }

    /// The latest version of `key` strictly before event `at`
    /// (the paper's `frontier_ts[^ts]`).
    pub fn get_before(&self, key: Key, at: EventKey) -> Option<(EventKey, &V)> {
        self.keys
            .get(&key)?
            .range((Bound::Unbounded, Bound::Excluded(at)))
            .next_back()
            .map(|(e, v)| (*e, v))
    }

    /// The earliest version of `key` strictly after event `at`, if any —
    /// the re-check bound ("until the key is overwritten", paper step ③).
    pub fn next_after(&self, key: Key, at: EventKey) -> Option<EventKey> {
        self.keys.get(&key)?.range((Bound::Excluded(at), Bound::Unbounded)).next().map(|(e, _)| *e)
    }

    /// Mutable iteration over versions of `key` within `(lo, hi)`,
    /// exclusive on both ends.
    pub(crate) fn range_mut(
        &mut self,
        key: Key,
        lo: EventKey,
        hi: EventKey,
    ) -> impl Iterator<Item = (EventKey, &mut V)> + '_ {
        self.keys
            .get_mut(&key)
            .into_iter()
            .flat_map(move |chain| chain.range_mut((Bound::Excluded(lo), Bound::Excluded(hi))))
            .map(|(e, v)| (*e, v))
    }

    /// Drop all versions strictly below `horizon`, keeping the latest such
    /// version per key as the base (it is the visible snapshot for reads
    /// just above the horizon). Returns the number of versions dropped.
    pub fn prune_below(&mut self, horizon: EventKey) -> usize {
        let mut dropped = 0;
        self.keys.retain(|_, chain| {
            // Find the latest version < horizon; everything older goes.
            if let Some((&base, _)) = chain.range(..horizon).next_back() {
                let kept = chain.split_off(&base);
                dropped += chain.len();
                *chain = kept;
            }
            !chain.is_empty()
        });
        self.versions -= dropped;
        dropped
    }

    /// Iterate all `(key, event, value)` triples (unspecified key order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Key, EventKey, &V)> + '_ {
        self.keys.iter().flat_map(|(k, chain)| chain.iter().map(move |(e, v)| (*k, *e, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Timestamp, TxnId};

    fn ev(ts: u64) -> EventKey {
        EventKey::commit(Timestamp(ts), TxnId(ts))
    }

    #[test]
    fn get_before_is_strict() {
        let mut m = VersionedMap::new();
        m.insert(Key(1), ev(10), "a");
        m.insert(Key(1), ev(20), "b");
        assert_eq!(m.get_before(Key(1), ev(10)), None);
        assert_eq!(m.get_before(Key(1), ev(11)).map(|(_, v)| *v), Some("a"));
        assert_eq!(m.get_before(Key(1), ev(21)).map(|(_, v)| *v), Some("b"));
        assert_eq!(m.get_before(Key(2), ev(100)), None);
    }

    #[test]
    fn next_after_finds_overwrite_bound() {
        let mut m = VersionedMap::new();
        m.insert(Key(1), ev(10), 1);
        m.insert(Key(1), ev(30), 2);
        assert_eq!(m.next_after(Key(1), ev(10)), Some(ev(30)));
        assert_eq!(m.next_after(Key(1), ev(30)), None);
        assert_eq!(m.next_after(Key(9), ev(1)), None);
    }

    #[test]
    fn out_of_order_insertion_lands_in_the_middle() {
        let mut m = VersionedMap::new();
        m.insert(Key(1), ev(10), 1);
        m.insert(Key(1), ev(30), 3);
        m.insert(Key(1), ev(20), 2); // late arrival
        assert_eq!(m.get_before(Key(1), ev(25)).map(|(_, v)| *v), Some(2));
        assert_eq!(m.get_before(Key(1), ev(15)).map(|(_, v)| *v), Some(1));
        assert_eq!(m.next_after(Key(1), ev(10)), Some(ev(20)));
    }

    #[test]
    fn range_is_exclusive_both_ends() {
        let mut m = VersionedMap::new();
        for t in [10, 20, 30, 40] {
            m.insert(Key(1), ev(t), t);
        }
        let got: Vec<u64> = m.range_mut(Key(1), ev(10), ev(40)).map(|(_, v)| *v).collect();
        assert_eq!(got, vec![20, 30]);
    }

    #[test]
    fn range_mut_updates_in_place() {
        let mut m = VersionedMap::new();
        for t in [10, 20, 30] {
            m.insert(Key(1), ev(t), vec![t]);
        }
        for (_, v) in m.range_mut(Key(1), ev(10), ev(31)) {
            v.push(99);
        }
        assert_eq!(m.get_before(Key(1), ev(21)).map(|(_, v)| v.clone()), Some(vec![20, 99]));
        assert_eq!(m.get_before(Key(1), ev(11)).map(|(_, v)| v.clone()), Some(vec![10]));
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut m = VersionedMap::new();
        assert!(m.is_empty());
        m.insert(Key(1), ev(10), 1);
        m.insert(Key(2), ev(20), 2);
        assert_eq!(m.insert(Key(1), ev(10), 3), Some(1)); // replace, not a new version
        assert_eq!(m.len(), 2);
        m.insert(Key(1), ev(15), 4);
        assert_eq!(m.prune_below(ev(16)), 1, "removes ev(10); ev(15) stays as the base");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn prune_below_keeps_base_version() {
        let mut m = VersionedMap::new();
        for t in [10, 20, 30, 40] {
            m.insert(Key(1), ev(t), t);
        }
        let dropped = m.prune_below(ev(35));
        // 30 is the base (latest < 35); 10 and 20 are dropped.
        assert_eq!(dropped, 2);
        assert_eq!(m.get_before(Key(1), ev(35)).map(|(_, v)| *v), Some(30));
        assert_eq!(m.get_before(Key(1), ev(12)), None, "pre-base versions gone");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn prune_below_no_versions_below_is_noop() {
        let mut m = VersionedMap::new();
        m.insert(Key(1), ev(50), 1);
        assert_eq!(m.prune_below(ev(40)), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_visits_everything() {
        let mut m = VersionedMap::new();
        m.insert(Key(1), ev(10), 1);
        m.insert(Key(2), ev(20), 2);
        let mut all: Vec<(Key, u64)> = m.iter().map(|(k, _, v)| (k, *v)).collect();
        all.sort();
        assert_eq!(all, vec![(Key(1), 1), (Key(2), 2)]);
    }
}
