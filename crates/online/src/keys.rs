//! The key table: everything the online checker keeps per key, in one map.
//!
//! AION's `frontier_ts` and `ongoing_ts` (paper Algorithm 3), step ③'s
//! reader and writer indexes and RC's committed-membership summary are
//! all per-key structures. [`KeyTable`] holds them in one
//! `FxHashMap<Key, KeyState>`, so a stage looks a key up once, and GC,
//! the memory estimate and the checkpoint each walk one table. A
//! [`KeyState`] keeps one ordered chain per role rather than one merged
//! chain, so a frontier query never scans past reader or overlap
//! entries; the per-role algorithms live in [`crate::versioned`],
//! [`crate::index`] and [`crate::membership`]. A key leaves the table
//! when a GC prune leaves all its chains and its summary empty.
//!
//! Only [`KeyMut`]'s methods write the table; the online checker calls
//! them from `make_resident` and the list cascade (both in
//! `checker/arrival.rs`), and the checkpoint decoder below.

use crate::index::{self, OngoingWriter, ReadRef, SmallSeq};
use crate::membership::Members;
use crate::versioned::{self, Chain};
use aion_types::codec::{put_varint, CodecError, Wire};
use aion_types::{EventKey, FxHashMap, Key, Snapshot, TxnId};
use bytes::{Buf, BufMut};

/// Everything the checker keeps for one key: one event-ordered chain
/// per role, plus the committed-membership summary.
#[derive(Debug, Default)]
pub struct KeyState {
    /// Committed versions at their commit events (`frontier_ts`).
    pub(crate) versions: Chain<Snapshot>,
    /// Unsettled reads at their anchor events (step ③).
    pub(crate) readers: Chain<SmallSeq<ReadRef>>,
    /// List writers at their anchor events (step ③'s cascade).
    pub(crate) writers: Chain<SmallSeq<TxnId>>,
    /// The writers ongoing at each event (`ongoing_ts`, step ②).
    pub(crate) overlaps: Chain<SmallSeq<OngoingWriter>>,
    /// Committed versions by value (RC's EXT predicate).
    pub(crate) members: Members,
}

impl KeyState {
    fn is_empty(&self) -> bool {
        self.versions.is_empty()
            && self.readers.is_empty()
            && self.writers.is_empty()
            && self.overlaps.is_empty()
            && self.members.is_empty()
    }
}

/// Running totals over every key, kept where entries enter and leave so
/// the memory estimate never walks the table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Committed versions.
    pub versions: usize,
    /// Reader items.
    pub readers: usize,
    /// List-writer items.
    pub writers: usize,
    /// Overlap-chain versions.
    pub overlaps: usize,
    /// Committed-membership events.
    pub members: usize,
    /// Distinct committed-membership values.
    pub values: usize,
}

impl Counts {
    /// The table's term of the memory estimate: `72` per version, `24`
    /// per membership event and `72` per distinct value, `64` per overlap
    /// version and `40` per reader or writer item.
    pub fn approx_bytes(&self) -> usize {
        self.versions * 72
            + self.members * 24
            + self.values * 72
            + self.overlaps * 64
            + (self.readers + self.writers) * 40
    }
}

/// Every key's [`KeyState`], with their running [`Counts`].
#[derive(Debug, Default)]
pub struct KeyTable {
    keys: FxHashMap<Key, KeyState>,
    n: Counts,
}

/// One key's state open for writing, beside the table's totals; its
/// methods live with each role's algorithms.
pub struct KeyMut<'a> {
    pub(crate) state: &'a mut KeyState,
    pub(crate) n: &'a mut Counts,
}

impl KeyTable {
    /// Open `key`'s state for writing, creating it if absent.
    pub fn entry(&mut self, key: Key) -> KeyMut<'_> {
        KeyMut { state: self.keys.entry(key).or_default(), n: &mut self.n }
    }

    /// `key`'s state, if the table holds any.
    pub fn get(&self, key: Key) -> Option<&KeyState> {
        self.keys.get(&key)
    }

    /// The running totals.
    pub fn counts(&self) -> Counts {
        self.n
    }

    /// GC: drop everything no query at or above `horizon` can reach —
    /// versions and overlap sets below it except each key's base (the
    /// latest below it), reader and writer entries anchored below it, and
    /// membership events behind a frozen per-value minimum — then every
    /// key left with nothing.
    pub fn prune_below(&mut self, horizon: EventKey) {
        let n = &mut self.n;
        self.keys.retain(|_, s| {
            n.versions -= versioned::prune_to_base(&mut s.versions, horizon);
            n.overlaps -= versioned::prune_to_base(&mut s.overlaps, horizon);
            n.readers -= index::prune_below(&mut s.readers, horizon);
            n.writers -= index::prune_below(&mut s.writers, horizon);
            s.members.compact_below(horizon, n);
            !s.is_empty()
        });
    }

    /// Every key with its state, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Key, &KeyState)> + '_ {
        self.keys.iter().map(|(k, s)| (*k, s))
    }

    /// [`counts`](Self::counts) recounted by walking every key — the
    /// oracle the running totals are checked against in tests and debug
    /// builds.
    #[cfg(any(test, debug_assertions))]
    pub fn recount(&self) -> Counts {
        let mut n = Counts::default();
        #[expect(clippy::iter_over_hash_type, reason = "commutative sums")]
        for s in self.keys.values() {
            n.versions += s.versions.len();
            n.readers += s.readers.values().map(|i| i.as_slice().len()).sum::<usize>();
            n.writers += s.writers.values().map(|i| i.as_slice().len()).sum::<usize>();
            n.overlaps += s.overlaps.len();
            n.members += s.members.entries().count();
            n.values += s.members.values();
        }
        n
    }

    /// One role's checkpoint section, the layout all five share: a count
    /// of `(key, event)` entries, then each entry's key, event and value
    /// in `(key, event)` order.
    fn put_section<'a, V: Wire + 'a, I: Iterator<Item = (EventKey, &'a V)>>(
        &'a self,
        buf: &mut impl BufMut,
        role: impl Fn(&'a KeyState) -> I,
    ) {
        let mut entries: Vec<(Key, EventKey, &V)> =
            self.iter().flat_map(|(k, s)| role(s).map(move |(e, v)| (k, e, v))).collect();
        entries.sort_unstable_by_key(|(k, e, _)| (*k, *e));
        put_varint(buf, entries.len() as u64);
        for (k, e, v) in entries {
            k.put(buf);
            e.put(buf);
            v.put(buf);
        }
    }

    /// The versions, readers, writers and overlap sets, in that order —
    /// items in their exact in-memory order, which step ③ depends on.
    pub(crate) fn put_chains(&self, buf: &mut impl BufMut) {
        self.put_section(buf, |s| entries(&s.versions));
        self.put_section(buf, |s| entries(&s.readers));
        self.put_section(buf, |s| entries(&s.writers));
        self.put_section(buf, |s| entries(&s.overlaps));
    }

    /// The committed-membership summaries.
    pub(crate) fn put_members(&self, buf: &mut impl BufMut) {
        self.put_section(buf, |s| s.members.entries());
    }

    /// Read back what [`put_chains`](Self::put_chains) wrote.
    pub(crate) fn get_chains(&mut self, buf: &mut impl Buf) -> Result<(), CodecError> {
        for (k, e, v) in Vec::<(Key, EventKey, Snapshot)>::get(buf)? {
            self.entry(k).publish(e, &v, None, false);
        }
        for (k, e, items) in Vec::<(Key, EventKey, Vec<ReadRef>)>::get(buf)? {
            items.into_iter().for_each(|r| self.entry(k).add_reader(e, r));
        }
        for (k, e, items) in Vec::<(Key, EventKey, Vec<TxnId>)>::get(buf)? {
            items.into_iter().for_each(|tid| self.entry(k).add_writer(e, tid));
        }
        for (k, e, set) in Vec::<(Key, EventKey, SmallSeq<OngoingWriter>)>::get(buf)? {
            let k = self.entry(k);
            k.n.overlaps += usize::from(k.state.overlaps.insert(e, set).is_none());
        }
        Ok(())
    }

    /// Read back what [`put_members`](Self::put_members) wrote.
    pub(crate) fn get_members(&mut self, buf: &mut impl Buf) -> Result<(), CodecError> {
        for (k, e, snap) in Vec::<(Key, EventKey, Snapshot)>::get(buf)? {
            self.entry(k).record(e, &snap, None);
        }
        Ok(())
    }
}

fn entries<V>(chain: &Chain<V>) -> impl Iterator<Item = (EventKey, &V)> + '_ {
    chain.iter().map(|(e, v)| (*e, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Timestamp, Value};

    fn ev(ts: u64) -> EventKey {
        EventKey::commit(Timestamp(ts), TxnId(ts))
    }

    #[test]
    fn a_key_leaves_the_table_exactly_when_all_its_roles_are_empty() {
        let mut t = KeyTable::default();
        let read = |tid| ReadRef { tid: TxnId(tid), read_idx: 0 };
        let one = Snapshot::Scalar(Value(1));
        t.entry(Key(1)).add_reader(ev(10), read(1)); // readers only
        t.entry(Key(2)).add_writer(ev(10), TxnId(2)); // writers only
        t.entry(Key(3)).add_reader(ev(10), read(3)); // a reader and a summary
        t.entry(Key(3)).record(ev(10), &one, None);
        t.entry(Key(4)).add_reader(ev(10), read(4)); // one reader on each side
        t.entry(Key(4)).add_reader(ev(30), read(5));
        t.entry(Key(5)).publish(ev(10), &one, None, false); // a version: its base stays
        t.entry(Key(6)).register(TxnId(6), true, ev(5), ev(10), false); // overlap base stays
        t.entry(Key(7)); // opened, nothing written
        t.prune_below(ev(20));
        let held: Vec<u64> = (1..=7).filter(|k| t.get(Key(*k)).is_some()).collect();
        assert_eq!(held, [3, 4, 5, 6], "pruned empty keys leave, a summary keeps its key");
        let mut readers = Vec::new();
        t.get(Key(3)).unwrap().readers_in(ev(0), EventKey::INFINITY, &mut readers);
        assert!(readers.is_empty());
        assert!(t.get(Key(3)).unwrap().contains_before(ev(11), &one));
        assert_eq!(t.counts(), t.recount());
        assert_eq!((t.counts().readers, t.counts().writers), (1, 0));
    }
}
