//! Timestamp-versioned per-key chains — AION's `frontier_ts`/`ongoing_ts`.
//!
//! The paper versions whole maps by timestamp and queries "the latest
//! version before `ts`". We keep one ordered version chain *per key*
//! instead (`docs/architecture.md`, "Per-key version chains"): a query
//! is a range query on a `BTreeMap<EventKey, V>`, inserting a version in
//! the middle is `O(log n)`, and the paper's step-③ "touch-up" writes
//! become unnecessary because a version of key `k` is visible to every
//! later event with no intervening version of `k`. The chains live in
//! each key's [`KeyState`]; this module holds the version queries and
//! `publish`.

use crate::keys::{KeyMut, KeyState};
use aion_types::{EventKey, Snapshot};
use std::collections::BTreeMap;
use std::ops::Bound;

/// One key's event-ordered entries of one role.
pub(crate) type Chain<V> = BTreeMap<EventKey, V>;

/// The latest entry strictly before event `at`.
pub(crate) fn get_before<V>(chain: &Chain<V>, at: EventKey) -> Option<(EventKey, &V)> {
    chain.range(..at).next_back().map(|(e, v)| (*e, v))
}

/// Drop the versions strictly below `horizon`, keeping the latest such
/// version as the base (it is the visible snapshot for reads just above
/// the horizon). Returns the number of versions dropped.
pub(crate) fn prune_to_base<V>(chain: &mut Chain<V>, horizon: EventKey) -> usize {
    let Some((&base, _)) = chain.range(..horizon).next_back() else { return 0 };
    let kept = chain.split_off(&base);
    std::mem::replace(chain, kept).len()
}

impl KeyState {
    /// The latest version strictly before `at` (the paper's
    /// `frontier_ts[^ts]`).
    pub fn version_before(&self, at: EventKey) -> Option<(EventKey, &Snapshot)> {
        get_before(&self.versions, at)
    }

    /// The earliest version strictly after `at`, if any — the re-check
    /// bound ("until the key is overwritten", paper step ③).
    pub fn next_version_after(&self, at: EventKey) -> Option<EventKey> {
        self.versions.range((Bound::Excluded(at), Bound::Unbounded)).next().map(|(e, _)| *e)
    }
}

impl KeyMut<'_> {
    /// Make `snap` the version committed at `at`, and with `members` fold
    /// it into the committed-membership summary too. `revised` is the
    /// value a list cascade is replacing when the chain holds no version
    /// at `at` to say so.
    pub fn publish(
        &mut self,
        at: EventKey,
        snap: &Snapshot,
        revised: Option<&Snapshot>,
        members: bool,
    ) {
        let prev = self.state.versions.insert(at, snap.clone());
        self.n.versions += usize::from(prev.is_none());
        if members {
            self.record(at, snap, prev.as_ref().or(revised));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::keys::KeyTable;
    use aion_types::{EventKey, Key, Snapshot, Timestamp, TxnId, Value};

    fn ev(ts: u64) -> EventKey {
        EventKey::commit(Timestamp(ts), TxnId(ts))
    }

    fn val(v: u64) -> Snapshot {
        Snapshot::Scalar(Value(v))
    }

    /// A table holding the frontier versions `(key, ts, value)`.
    fn frontier(versions: &[(u64, u64, u64)]) -> KeyTable {
        let mut m = KeyTable::default();
        for &(k, t, v) in versions {
            m.entry(Key(k)).publish(ev(t), &val(v), None, false);
        }
        m
    }

    fn before(m: &KeyTable, k: u64, t: u64) -> Option<Snapshot> {
        m.get(Key(k))?.version_before(ev(t)).map(|(_, v)| v.clone())
    }

    fn after(m: &KeyTable, k: u64, t: u64) -> Option<EventKey> {
        m.get(Key(k))?.next_version_after(ev(t))
    }

    #[test]
    fn get_before_is_strict() {
        let m = frontier(&[(1, 10, 1), (1, 20, 2)]);
        assert_eq!(before(&m, 1, 10), None);
        assert_eq!(before(&m, 1, 11), Some(val(1)));
        assert_eq!(before(&m, 1, 21), Some(val(2)));
        assert_eq!(before(&m, 2, 100), None);
    }

    #[test]
    fn next_after_finds_overwrite_bound() {
        let m = frontier(&[(1, 10, 1), (1, 30, 2)]);
        assert_eq!(after(&m, 1, 10), Some(ev(30)));
        assert_eq!(after(&m, 1, 30), None);
        assert_eq!(after(&m, 9, 1), None);
    }

    #[test]
    fn out_of_order_insertion_lands_in_the_middle() {
        let m = frontier(&[(1, 10, 1), (1, 30, 3), (1, 20, 2)]); // 20 arrives late
        assert_eq!(before(&m, 1, 25), Some(val(2)));
        assert_eq!(before(&m, 1, 15), Some(val(1)));
        assert_eq!(after(&m, 1, 10), Some(ev(20)));
    }

    /// Both queries exclude the event they are asked at.
    #[test]
    fn range_is_exclusive_both_ends() {
        let m = frontier(&[(1, 10, 10), (1, 20, 20), (1, 30, 30), (1, 40, 40)]);
        assert_eq!(before(&m, 1, 40), Some(val(30)));
        assert_eq!(after(&m, 1, 10), Some(ev(20)));
        assert_eq!((before(&m, 1, 10), after(&m, 1, 40)), (None, None));
    }

    /// Republishing at an existing event (a list cascade revising its
    /// value) replaces that version in place and adds none.
    #[test]
    fn range_mut_updates_in_place() {
        let mut m = frontier(&[(1, 10, 10), (1, 20, 20), (1, 30, 30)]);
        m.entry(Key(1)).publish(ev(20), &val(99), None, false);
        assert_eq!(before(&m, 1, 21), Some(val(99)));
        assert_eq!(before(&m, 1, 11), Some(val(10)));
        assert_eq!(m.counts().versions, 3);
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut m = KeyTable::default();
        assert_eq!(m.counts().versions, 0);
        m = frontier(&[(1, 10, 1), (2, 20, 2), (1, 10, 3)]); // a replace, not a new version
        assert_eq!(m.counts().versions, 2);
        m.entry(Key(1)).publish(ev(15), &val(4), None, false);
        m.prune_below(ev(16)); // removes ev(10); ev(15) stays as the base
        assert_eq!(m.counts().versions, 2);
    }

    #[test]
    fn prune_below_keeps_base_version() {
        let mut m = frontier(&[(1, 10, 10), (1, 20, 20), (1, 30, 30), (1, 40, 40)]);
        m.prune_below(ev(35));
        // 30 is the base (latest < 35); 10 and 20 are dropped.
        assert_eq!(before(&m, 1, 35), Some(val(30)));
        assert_eq!(before(&m, 1, 12), None, "pre-base versions gone");
        assert_eq!(m.counts().versions, 2);
    }

    #[test]
    fn prune_below_no_versions_below_is_noop() {
        let mut m = frontier(&[(1, 50, 1)]);
        m.prune_below(ev(40));
        assert_eq!(m.counts().versions, 1);
    }

    #[test]
    fn iter_visits_everything() {
        let m = frontier(&[(1, 10, 1), (2, 20, 2)]);
        let mut all: Vec<(Key, EventKey, Snapshot)> = m
            .iter()
            .flat_map(|(k, s)| s.versions.iter().map(move |(e, v)| (k, *e, v.clone())))
            .collect();
        all.sort_by_key(|(k, e, _)| (*k, *e));
        assert_eq!(all, vec![(Key(1), ev(10), val(1)), (Key(2), ev(20), val(2))]);
    }
}
