//! The committed-membership index: RC's EXT predicate in `O(log n)`.
//!
//! The [`ExtPredicate::Committed`](aion_types::ExtPredicate) membership
//! question — *does any committed version of key `k` strictly before
//! anchor `a` equal the observed snapshot?* — used to be answered by
//! walking the key's whole frontier chain per read, and (worse) forced
//! the frontier to be exempted from GC pruning so ancient versions
//! stayed walkable. [`MembershipIndex`] replaces both: each committed
//! version is folded in **once at commit time** as a
//! `(key, snapshot) → sorted commit-event set` entry, so the membership
//! query is a hash lookup plus an ordered-set minimum, and the summary
//! — small: one `(EventKey, value-hash)` pair per committed version,
//! with the snapshot stored once per distinct value — survives
//! `prune_below` untouched while the frontier sheds its chains.
//!
//! Maintenance mirrors the frontier exactly:
//!
//! * every `frontier.insert` that *publishes* a version also records it
//!   here (arrival step ③, list-cascade recomputation, spill reload);
//! * a cascade that **revises** a published snapshot replaces the old
//!   value's event with the new one (the old value was never a
//!   committed observation);
//! * reload re-records are idempotent (ordered-set insert).
//!
//! The index is only populated when the session's level policy can
//! produce committed-predicate readers (`has_committed_ext`), so
//! SI/SER-only sessions pay nothing.

use aion_types::{EventKey, FxHashMap, Key, Snapshot};
use std::collections::BTreeSet;

/// The commit events that published one `(key, value)` pair. Almost
/// every pair is published exactly once, so the singleton case stays
/// inline — no heap node until a second event actually shares the
/// value (the hot commit path allocates nothing per record).
#[derive(Debug)]
enum Events {
    One(EventKey),
    Many(BTreeSet<EventKey>),
}

impl Events {
    /// The set's ordered minimum — the only element
    /// [`MembershipIndex::contains_before`] ever consults.
    fn min(&self) -> Option<EventKey> {
        match self {
            Events::One(at) => Some(*at),
            Events::Many(set) => set.first().copied(),
        }
    }
}

/// Per-key committed-version summary answering the RC membership
/// predicate without touching version chains. See the module docs.
#[derive(Debug, Default)]
pub struct MembershipIndex {
    /// key → (published snapshot → commit events that published it).
    keys: FxHashMap<Key, FxHashMap<Snapshot, Events>>,
    /// Total `(key, event)` entries across all value sets.
    versions: usize,
    /// Distinct `(key, value)` pairs, i.e. stored snapshots — kept beside
    /// `versions` so [`MembershipIndex::approx_bytes`] never walks `keys`.
    values: usize,
}

impl MembershipIndex {
    /// An empty index.
    pub fn new() -> MembershipIndex {
        MembershipIndex::default()
    }

    /// Committed versions recorded (one per distinct `(key, event)`).
    pub fn len(&self) -> usize {
        self.versions
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.versions == 0
    }

    /// Record the version published at `(key, at)`. `prev` is the
    /// snapshot this insertion *replaced* at the same event (a list
    /// cascade revising a published value), whose entry is withdrawn —
    /// the revised value was never a committed observation. Recording
    /// the same `(key, at, snap)` again is a no-op, which makes spill
    /// reloads idempotent.
    pub fn record(&mut self, key: Key, at: EventKey, snap: &Snapshot, prev: Option<&Snapshot>) {
        let per_key = self.keys.entry(key).or_default();
        if let Some(old) = prev.filter(|old| *old != snap) {
            let mut drop_value = false;
            if let Some(events) = per_key.get_mut(old) {
                match events {
                    Events::One(only) if *only == at => {
                        self.versions -= 1;
                        drop_value = true;
                    }
                    Events::One(_) => {}
                    Events::Many(set) => {
                        if set.remove(&at) {
                            self.versions -= 1;
                        }
                        match set.len() {
                            0 => drop_value = true,
                            1 => {
                                if let Some(&only) = set.first() {
                                    *events = Events::One(only);
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            if drop_value && per_key.remove(old).is_some() {
                self.values -= 1;
            }
        }
        // `get_mut` before `insert` so the common hit path (same value
        // republished, reload re-record) never clones the snapshot.
        match per_key.get_mut(snap) {
            None => {
                per_key.insert(snap.clone(), Events::One(at));
                self.versions += 1;
                self.values += 1;
            }
            Some(events) => match events {
                Events::One(only) if *only == at => {}
                Events::One(only) => {
                    let mut set = BTreeSet::new();
                    set.insert(*only);
                    set.insert(at);
                    *events = Events::Many(set);
                    self.versions += 1;
                }
                Events::Many(set) => {
                    if set.insert(at) {
                        self.versions += 1;
                    }
                }
            },
        }
    }

    /// The membership predicate: is `observed` the snapshot of *some*
    /// version of `key` committed strictly before `anchor`? One hash
    /// lookup plus the value set's ordered minimum.
    pub fn contains_before(&self, key: Key, anchor: EventKey, observed: &Snapshot) -> bool {
        self.keys
            .get(&key)
            .and_then(|per_key| per_key.get(observed))
            .and_then(Events::min)
            .is_some_and(|first| first < anchor)
    }

    /// Every `(key, event, snapshot)` triple, sorted by `(key, event)` —
    /// the canonical order the checkpoint codec serializes.
    pub(crate) fn sorted_entries(&self) -> Vec<(Key, EventKey, &Snapshot)> {
        let mut out: Vec<(Key, EventKey, &Snapshot)> = Vec::with_capacity(self.versions);
        // One `expect` covers both loops: an attribute spans the whole
        // statement, the nested loop included.
        #[expect(
            clippy::iter_over_hash_type,
            reason = "collected and sorted below before the order can escape; the same sort \
                      covers the value-map order"
        )]
        for (key, per_key) in &self.keys {
            for (snap, events) in per_key {
                match events {
                    Events::One(at) => out.push((*key, *at, snap)),
                    Events::Many(set) => out.extend(set.iter().map(|ev| (*key, *ev, snap))),
                }
            }
        }
        out.sort_unstable_by_key(|(k, ev, _)| (*k, *ev));
        out
    }

    /// Drop events that can no longer influence any answer.
    /// [`MembershipIndex::contains_before`] only ever reads a set's
    /// minimum, and once that minimum is strictly below the GC horizon
    /// it is frozen — cascade recomputation only withdraws versions at
    /// or above a live writer's anchor, which the horizon is chosen
    /// below — so every *other* event in such a set is redundant
    /// forever. (A set whose minimum is at or above the horizon keeps
    /// all its events: the minimum may still be withdrawn, promoting
    /// the next one.) Called on each GC pass; keeps the summary bounded
    /// by `distinct (key, value) pairs + events above the horizon`
    /// instead of the full commit history.
    pub fn compact_below(&mut self, horizon: EventKey) {
        let mut dropped = 0usize;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "per-set compaction is order independent, in both loops"
        )]
        for per_key in self.keys.values_mut() {
            for events in per_key.values_mut() {
                let Events::Many(set) = events else { continue };
                let Some(&min) = set.first() else { continue };
                if min < horizon {
                    dropped += set.len() - 1;
                    *events = Events::One(min);
                }
            }
        }
        self.versions -= dropped;
    }

    /// Rough resident-byte estimate, mirroring the frontier's per-entry
    /// accounting in `state_bytes_estimate`: each recorded version costs
    /// an event entry, each distinct value a stored snapshot.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.versions * 24 + self.values * 72
    }

    /// [`approx_bytes`](Self::approx_bytes) with the distinct values
    /// recounted by walking every key — the oracle the maintained
    /// counter is checked against in tests and debug builds.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn recount_approx_bytes(&self) -> usize {
        let distinct_values: usize = self.keys.values().map(FxHashMap::len).sum();
        self.versions * 24 + distinct_values * 72
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Timestamp, TxnId, Value};

    fn ev(n: u64) -> EventKey {
        EventKey::commit(Timestamp(n), TxnId(n))
    }

    fn scalar(v: u64) -> Snapshot {
        Snapshot::Scalar(Value(v))
    }

    #[test]
    fn records_and_answers_strictly_before() {
        let mut m = MembershipIndex::new();
        m.record(Key(1), ev(10), &scalar(5), None);
        assert!(m.contains_before(Key(1), ev(11), &scalar(5)));
        assert!(!m.contains_before(Key(1), ev(10), &scalar(5)), "strictly before");
        assert!(!m.contains_before(Key(1), ev(11), &scalar(6)), "other value");
        assert!(!m.contains_before(Key(2), ev(11), &scalar(5)), "other key");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reinsert_is_idempotent_and_replace_withdraws() {
        let mut m = MembershipIndex::new();
        m.record(Key(1), ev(10), &scalar(5), None);
        m.record(Key(1), ev(10), &scalar(5), None);
        assert_eq!(m.len(), 1, "idempotent re-record");
        // A cascade revises the published snapshot at the same event:
        // the old value must stop justifying reads.
        m.record(Key(1), ev(10), &scalar(7), Some(&scalar(5)));
        assert_eq!(m.len(), 1);
        assert!(!m.contains_before(Key(1), ev(99), &scalar(5)));
        assert!(m.contains_before(Key(1), ev(99), &scalar(7)));
        assert_eq!(m.approx_bytes(), 24 + 72, "the withdrawn value left the byte count");
        assert_eq!(m.approx_bytes(), m.recount_approx_bytes());
    }

    #[test]
    fn same_value_at_many_events_uses_the_minimum() {
        let mut m = MembershipIndex::new();
        m.record(Key(1), ev(30), &scalar(5), None);
        m.record(Key(1), ev(10), &scalar(5), None);
        m.record(Key(1), ev(20), &scalar(5), None);
        assert_eq!(m.len(), 3);
        assert!(m.contains_before(Key(1), ev(11), &scalar(5)), "min event justifies");
        // Withdrawing one event keeps the others.
        m.record(Key(1), ev(10), &scalar(9), Some(&scalar(5)));
        assert!(!m.contains_before(Key(1), ev(11), &scalar(5)));
        assert!(m.contains_before(Key(1), ev(21), &scalar(5)));
        assert_eq!(m.approx_bytes(), m.recount_approx_bytes());
    }

    #[test]
    fn compaction_keeps_frozen_minima_and_live_sets() {
        let mut m = MembershipIndex::new();
        // Frozen set: min 10 < horizon 25 → collapses to just the min.
        for e in [10, 20, 30, 40] {
            m.record(Key(1), ev(e), &scalar(5), None);
        }
        // Live set: min 30 >= horizon → untouched (its min may still be
        // withdrawn by a cascade, promoting 35).
        m.record(Key(2), ev(30), &scalar(7), None);
        m.record(Key(2), ev(35), &scalar(7), None);
        m.compact_below(ev(25));
        assert_eq!(m.len(), 3, "4-event frozen set collapsed to 1, live set kept 2");
        // Answers are unchanged for every anchor.
        assert!(m.contains_before(Key(1), ev(11), &scalar(5)));
        assert!(m.contains_before(Key(1), ev(99), &scalar(5)));
        assert!(!m.contains_before(Key(1), ev(10), &scalar(5)));
        m.record(Key(2), ev(30), &scalar(8), Some(&scalar(7)));
        assert!(m.contains_before(Key(2), ev(36), &scalar(7)), "promoted fallback survives");
        assert!(!m.contains_before(Key(2), ev(35), &scalar(7)));
        assert_eq!(m.approx_bytes(), m.recount_approx_bytes());
    }

    #[test]
    fn sorted_entries_are_canonical() {
        let mut m = MembershipIndex::new();
        m.record(Key(2), ev(10), &scalar(1), None);
        m.record(Key(1), ev(20), &scalar(2), None);
        m.record(Key(1), ev(10), &scalar(3), None);
        let flat: Vec<(Key, EventKey)> =
            m.sorted_entries().iter().map(|(k, e, _)| (*k, *e)).collect();
        assert_eq!(flat, vec![(Key(1), ev(10)), (Key(1), ev(20)), (Key(2), ev(10))]);
        assert!(m.approx_bytes() > 0);
    }
}
