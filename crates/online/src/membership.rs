//! The committed-membership index: RC's EXT predicate in `O(log n)`.
//!
//! The [`ExtPredicate::Committed`](aion_types::ExtPredicate) membership
//! question — *does any committed version of key `k` strictly before
//! anchor `a` equal the observed snapshot?* — used to be answered by
//! walking the key's whole frontier chain per read, and (worse) forced
//! the frontier to be exempted from GC pruning so ancient versions
//! stayed walkable. Each key's [`Members`] summary (held in its
//! [`crate::keys::KeyState`] beside the version chain) replaces both:
//! each committed version is folded in **once at commit time** as a
//! `snapshot → sorted commit-event set` entry, so the membership
//! query is a hash lookup plus an ordered-set minimum, and the summary
//! — small: one `(EventKey, value-hash)` pair per committed version,
//! with the snapshot stored once per distinct value — survives
//! `prune_below` untouched while the frontier sheds its chains.
//!
//! Maintenance mirrors the frontier exactly:
//!
//! * every publish of a version (`KeyMut::publish`) also records it
//!   here (arrival, list-cascade recomputation, spill reload);
//! * a cascade that **revises** a published snapshot replaces the old
//!   value's event with the new one (the old value was never a
//!   committed observation);
//! * reload re-records are idempotent (ordered-set insert).
//!
//! The summaries are only populated when the session's level policy can
//! produce committed-predicate readers (`has_committed_ext`), so
//! SI/SER-only sessions pay nothing.

use crate::keys::{Counts, KeyMut, KeyState};
use aion_types::{EventKey, FxHashMap, Snapshot};
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
    /// [`KeyState::contains_before`] ever consults.
    fn min(&self) -> Option<EventKey> {
        match self {
            Events::One(at) => Some(*at),
            Events::Many(set) => set.first().copied(),
        }
    }

    /// Add `at`; whether it is new.
    fn insert(&mut self, at: EventKey) -> bool {
        match self {
            Events::One(only) if *only == at => false,
            Events::One(only) => {
                *self = Events::Many(BTreeSet::from([*only, at]));
                true
            }
            Events::Many(set) => set.insert(at),
        }
    }

    /// Withdraw `at`; whether it was there, and whether any event is left.
    fn remove(&mut self, at: EventKey) -> (bool, bool) {
        match self {
            Events::One(only) => (*only == at, *only != at),
            Events::Many(set) => {
                let (hit, left) = (set.remove(&at), !set.is_empty());
                if let (1, Some(&only)) = (set.len(), set.first()) {
                    *self = Events::One(only);
                }
                (hit, left)
            }
        }
    }
}

/// One key's committed-version summary: published snapshot → the commit
/// events that published it. See the module docs; the running totals
/// live in the key table's [`Counts`].
#[derive(Debug, Default)]
pub(crate) struct Members(FxHashMap<Snapshot, Events>);

impl Members {
    /// True when no version is recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every `(event, snapshot)` pair, in no particular order (the
    /// checkpoint codec sorts them).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (EventKey, &Snapshot)> + '_ {
        self.0.iter().flat_map(|(snap, events)| {
            let (one, many) = match events {
                Events::One(at) => (Some(*at), None),
                Events::Many(set) => (None, Some(set.iter().copied())),
            };
            one.into_iter().chain(many.into_iter().flatten()).map(move |at| (at, snap))
        })
    }

    /// Distinct recorded values, for the recount oracle.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn values(&self) -> usize {
        self.0.len()
    }

    /// Drop events that can no longer influence any answer.
    /// [`KeyState::contains_before`] only ever reads a set's minimum, and
    /// once that minimum is strictly below the GC horizon it is frozen —
    /// cascade recomputation only withdraws versions at or above a live
    /// writer's anchor, which the horizon is chosen below — so every
    /// *other* event in such a set is redundant forever. (A set whose
    /// minimum is at or above the horizon keeps all its events: the
    /// minimum may still be withdrawn, promoting the next one.) Called on
    /// each GC pass; keeps the summary bounded by `distinct values +
    /// events above the horizon` instead of the full commit history.
    pub(crate) fn compact_below(&mut self, horizon: EventKey, n: &mut Counts) {
        #[expect(clippy::iter_over_hash_type, reason = "per-set compaction is order independent")]
        for events in self.0.values_mut() {
            let Events::Many(set) = events else { continue };
            let Some(&min) = set.first() else { continue };
            if min < horizon {
                n.members -= set.len() - 1;
                *events = Events::One(min);
            }
        }
    }
}

impl KeyState {
    /// The membership predicate: is `observed` the snapshot of *some*
    /// version committed strictly before `anchor`? One hash lookup plus
    /// the value set's ordered minimum.
    pub fn contains_before(&self, anchor: EventKey, observed: &Snapshot) -> bool {
        self.members.0.get(observed).and_then(Events::min).is_some_and(|first| first < anchor)
    }
}

impl KeyMut<'_> {
    /// Record that `snap` was published at `at`. `prev` is the snapshot
    /// this insertion *replaced* at the same event (a list cascade
    /// revising a published value), whose entry is withdrawn — the
    /// revised value was never a committed observation. Recording the
    /// same `(at, snap)` again is a no-op, which makes spill reloads
    /// idempotent.
    pub fn record(&mut self, at: EventKey, snap: &Snapshot, prev: Option<&Snapshot>) {
        let (members, n) = (&mut self.state.members.0, &mut *self.n);
        if let Some(old) = prev.filter(|old| *old != snap) {
            if let Some(events) = members.get_mut(old) {
                let (hit, left) = events.remove(at);
                n.members -= usize::from(hit);
                if !left {
                    members.remove(old);
                    n.values -= 1;
                }
            }
        }
        // `get_mut` before `insert` so the common hit path (same value
        // republished, reload re-record) never clones the snapshot.
        match members.get_mut(snap) {
            Some(events) => n.members += usize::from(events.insert(at)),
            None => {
                members.insert(snap.clone(), Events::One(at));
                n.members += 1;
                n.values += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::keys::KeyTable;
    use aion_types::codec::Wire;
    use aion_types::{EventKey, Key, Snapshot, Timestamp, TxnId, Value};

    fn ev(n: u64) -> EventKey {
        EventKey::commit(Timestamp(n), TxnId(n))
    }

    fn scalar(v: u64) -> Snapshot {
        Snapshot::Scalar(Value(v))
    }

    /// Record that `key` was published as `v` at `e`, revising `prev`.
    fn record(m: &mut KeyTable, key: u64, e: u64, v: u64, prev: Option<u64>) {
        m.entry(Key(key)).record(ev(e), &scalar(v), prev.map(scalar).as_ref());
    }

    fn has(m: &KeyTable, key: u64, anchor: u64, v: u64) -> bool {
        m.get(Key(key)).is_some_and(|k| k.contains_before(ev(anchor), &scalar(v)))
    }

    #[test]
    fn records_and_answers_strictly_before() {
        let mut m = KeyTable::default();
        record(&mut m, 1, 10, 5, None);
        assert!(has(&m, 1, 11, 5));
        assert!(!has(&m, 1, 10, 5), "strictly before");
        assert!(!has(&m, 1, 11, 6), "other value");
        assert!(!has(&m, 2, 11, 5), "other key");
        assert_eq!(m.counts().members, 1);
    }

    #[test]
    fn reinsert_is_idempotent_and_replace_withdraws() {
        let mut m = KeyTable::default();
        record(&mut m, 1, 10, 5, None);
        record(&mut m, 1, 10, 5, None);
        assert_eq!(m.counts().members, 1, "idempotent re-record");
        // A cascade revises the published snapshot at the same event:
        // the old value must stop justifying reads.
        record(&mut m, 1, 10, 7, Some(5));
        assert_eq!(m.counts().members, 1);
        assert!(!has(&m, 1, 99, 5));
        assert!(has(&m, 1, 99, 7));
        assert_eq!(m.counts().approx_bytes(), 24 + 72, "the withdrawn value left the byte count");
        assert_eq!(m.counts(), m.recount());
    }

    #[test]
    fn same_value_at_many_events_uses_the_minimum() {
        let mut m = KeyTable::default();
        for e in [30, 10, 20] {
            record(&mut m, 1, e, 5, None);
        }
        assert_eq!(m.counts().members, 3);
        assert!(has(&m, 1, 11, 5), "min event justifies");
        // Withdrawing one event keeps the others.
        record(&mut m, 1, 10, 9, Some(5));
        assert!(!has(&m, 1, 11, 5));
        assert!(has(&m, 1, 21, 5));
        assert_eq!(m.counts(), m.recount());
    }

    #[test]
    fn compaction_keeps_frozen_minima_and_live_sets() {
        let mut m = KeyTable::default();
        // Frozen set: min 10 < horizon 25 → collapses to just the min.
        for e in [10, 20, 30, 40] {
            record(&mut m, 1, e, 5, None);
        }
        // Live set: min 30 >= horizon → untouched (its min may still be
        // withdrawn by a cascade, promoting 35).
        record(&mut m, 2, 30, 7, None);
        record(&mut m, 2, 35, 7, None);
        m.prune_below(ev(25));
        assert_eq!(m.counts().members, 3, "4-event frozen set collapsed to 1, live set kept 2");
        // Answers are unchanged for every anchor.
        assert!(has(&m, 1, 11, 5));
        assert!(has(&m, 1, 99, 5));
        assert!(!has(&m, 1, 10, 5));
        record(&mut m, 2, 30, 8, Some(7));
        assert!(has(&m, 2, 36, 7), "promoted fallback survives");
        assert!(!has(&m, 2, 35, 7));
        assert_eq!(m.counts(), m.recount());
    }

    /// The checkpoint section lists the summaries in `(key, event)`
    /// order, whatever order the hash maps hold them in.
    #[test]
    fn sorted_entries_are_canonical() {
        let mut m = KeyTable::default();
        record(&mut m, 2, 10, 1, None);
        record(&mut m, 1, 20, 2, None);
        record(&mut m, 1, 10, 3, None);
        let mut buf = Vec::new();
        m.put_members(&mut buf);
        let section = Vec::<(Key, EventKey, Snapshot)>::get(&mut &buf[..]).unwrap();
        let flat: Vec<(Key, EventKey)> = section.iter().map(|(k, e, _)| (*k, *e)).collect();
        assert_eq!(flat, vec![(Key(1), ev(10)), (Key(1), ev(20)), (Key(2), ev(10))]);
        assert!(m.counts().approx_bytes() > 0);
    }
}
