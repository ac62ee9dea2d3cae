//! The shared core of the anomaly library: the [`Catalog`] every rule
//! picks its victims and partners from, and the transaction shapes the
//! rules look for.

use aion_types::{
    FxHashMap, FxHashSet, History, Key, Mutation, Op, SessionId, Snapshot, SplitMix64, Timestamp,
    Transaction, Value,
};

/// One committed version of a key: `(commit_ts, txn index, final value)`.
pub(super) type Version = (Timestamp, usize, Value);

/// How far below its bound [`Catalog::reserve_below`] probes for an
/// unused timestamp.
const PROBES: u64 = 32;

/// Lookup structures over the history as it was before planting, plus the
/// planting state: the seeded stream and the bookkeeping that keeps the
/// instances one injection plants from colliding. Built once per
/// [`Anomaly::inject`](super::Anomaly::inject).
pub(super) struct Catalog {
    /// The class's seeded stream: the planting loop draws victims from
    /// it, and rules that pick among partners draw from it too.
    pub(super) rng: SplitMix64,
    /// Per key: committed versions in commit-timestamp order (scalar
    /// puts only).
    pub(super) versions: FxHashMap<Key, Vec<Version>>,
    /// Every key with a committed version, sorted.
    pub(super) keys: Vec<Key>,
    /// Commit timestamp of each transaction's session predecessor
    /// (`Timestamp::MIN` for session heads).
    pub(super) pred_commit: Vec<Timestamp>,
    /// Adjacent pairs `(earlier, later)` of every session in `sno` order,
    /// sessions by ascending id.
    pub(super) session_pairs: Vec<(usize, usize)>,
    /// All start timestamps, sorted.
    pub(super) starts: Vec<Timestamp>,
    /// All commit timestamps, sorted (for frontier-stability windows).
    commits: Vec<Timestamp>,
    /// Every start/commit timestamp recorded or reserved.
    used_ts: FxHashSet<Timestamp>,
    /// Next value guaranteed never written or observed in the history.
    next_fresh: u64,
    /// Start timestamps an instance moved their owner away from.
    pub(super) vacated: FxHashSet<Timestamp>,
    /// Transactions whose commit an instance moved: their entries in
    /// `versions` no longer describe them.
    pub(super) recommitted: FxHashSet<usize>,
    /// Victims an earlier instance consumed as its partner; the planting
    /// loop passes over them without a draw.
    pub(super) settled: FxHashSet<usize>,
}

impl Catalog {
    pub(super) fn new(h: &History, seed: u64) -> Catalog {
        let mut versions: FxHashMap<Key, Vec<Version>> = FxHashMap::default();
        let mut used_ts = FxHashSet::default();
        let mut max_value = 0u64;
        let mut sess_at: FxHashMap<(SessionId, u32), usize> = FxHashMap::default();
        for (i, t) in h.txns.iter().enumerate() {
            used_ts.insert(t.start_ts);
            used_ts.insert(t.commit_ts);
            sess_at.insert((t.sid, t.sno), i);
            let mut finals: FxHashMap<Key, Value> = FxHashMap::default();
            for op in &t.ops {
                match op {
                    Op::Write { key, mutation: Mutation::Put(v) } => {
                        finals.insert(*key, *v);
                        max_value = max_value.max(v.0);
                    }
                    Op::Write { mutation: Mutation::Append(v), .. }
                    | Op::Read { value: Snapshot::Scalar(v), .. } => max_value = max_value.max(v.0),
                    Op::Read { .. } => {}
                }
            }
            for (key, v) in finals {
                versions.entry(key).or_default().push((t.commit_ts, i, v));
            }
        }
        for vs in versions.values_mut() {
            vs.sort_unstable_by_key(|&(c, i, _)| (c, i));
        }
        let mut keys: Vec<Key> = versions.keys().copied().collect();
        keys.sort_unstable();
        let pred_commit = h
            .txns
            .iter()
            .map(|t| match t.sno.checked_sub(1).and_then(|p| sess_at.get(&(t.sid, p))) {
                Some(&i) => h.txns[i].commit_ts,
                None => Timestamp::MIN,
            })
            .collect();
        // A stable sort: equal `(sid, sno)` keep collection order.
        let mut by_session: Vec<usize> = (0..h.txns.len()).collect();
        by_session.sort_by_key(|&i| (h.txns[i].sid, h.txns[i].sno));
        let session_pairs = by_session
            .windows(2)
            .filter(|w| h.txns[w[0]].sid == h.txns[w[1]].sid)
            .map(|w| (w[0], w[1]))
            .collect();
        let sorted = |ts: fn(&Transaction) -> Timestamp| {
            let mut v: Vec<Timestamp> = h.txns.iter().map(ts).collect();
            v.sort_unstable();
            v
        };
        Catalog {
            rng: SplitMix64::new(seed),
            versions,
            keys,
            pred_commit,
            session_pairs,
            starts: sorted(|t| t.start_ts),
            commits: sorted(|t| t.commit_ts),
            used_ts,
            next_fresh: max_value + 1,
            vacated: FxHashSet::default(),
            recommitted: FxHashSet::default(),
            settled: FxHashSet::default(),
        }
    }

    /// The latest version of `key` committed strictly before `ts`.
    pub(super) fn latest_before(&self, key: Key, ts: Timestamp) -> Option<Version> {
        let vs = self.versions.get(&key)?;
        let idx = vs.partition_point(|&(c, _, _)| c < ts);
        idx.checked_sub(1).map(|i| vs[i])
    }

    /// The value visible at `key` for an anchor at `ts` (the latest
    /// version strictly before it, or the initial value).
    pub(super) fn value_at(&self, key: Key, ts: Timestamp) -> Value {
        self.latest_before(key, ts).map(|(_, _, v)| v).unwrap_or(Value::INIT)
    }

    /// The version chain of `key` and the position in it of the first
    /// version carrying `value`.
    pub(super) fn version_with(&self, key: Key, value: Value) -> Option<(&[Version], usize)> {
        let vs = self.versions.get(&key)?;
        Some((vs, vs.iter().position(|&(_, _, v)| v == value)?))
    }

    /// True when some commit timestamp lies in `[lo, hi)` — i.e. moving a
    /// start anchor from `hi` down to `lo` would change its frontier.
    pub(super) fn any_commit_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        let a = self.commits.partition_point(|&c| c < lo);
        let b = self.commits.partition_point(|&c| c < hi);
        a != b
    }

    /// Frontier stability for moving `owner`'s start from `start` to below
    /// `partner_commit`: no key of `keys` may gain or lose a foreign
    /// version between the deepest point [`Catalog::reserve_below`] can
    /// land on (with one timestamp of slack) and `start`, or the move
    /// would change what the owner's reads of that key must observe.
    /// `partner_commit` must lie below `start`.
    pub(super) fn frontier_stable(
        &self,
        keys: impl IntoIterator<Item = Key>,
        owner: usize,
        partner_commit: Timestamp,
        start: Timestamp,
    ) -> bool {
        let lo = Timestamp(partner_commit.get().saturating_sub(PROBES + 1));
        keys.into_iter().all(|key| match self.versions.get(&key) {
            None => true,
            Some(vs) => {
                let a = vs.partition_point(|&(c, _, _)| c < lo);
                let b = vs.partition_point(|&(c, _, _)| c < start);
                vs[a..b].iter().all(|&(_, w, _)| w == owner)
            }
        })
    }

    /// A value never written or observed anywhere in the history.
    pub(super) fn fresh_value(&mut self) -> Value {
        let v = Value(self.next_fresh);
        self.next_fresh += 1;
        v
    }

    /// Reserve the largest unused timestamp strictly below `below` and at
    /// least `floor` (bounded probing; `None` if the window is dense).
    pub(super) fn reserve_below(
        &mut self,
        below: Timestamp,
        floor: Timestamp,
    ) -> Option<Timestamp> {
        let floor = floor.get().max(1);
        let mut cand = below.get().checked_sub(1)?;
        for _ in 0..PROBES {
            if cand < floor {
                return None;
            }
            let ts = Timestamp(cand);
            if self.used_ts.insert(ts) {
                return Some(ts);
            }
            cand = cand.checked_sub(1)?;
        }
        None
    }

    /// Give back a timestamp [`Catalog::reserve_below`] handed out but no
    /// instance used.
    pub(super) fn release(&mut self, ts: Timestamp) {
        self.used_ts.remove(&ts);
    }

    /// Re-stamp transaction `i`'s start, freeing the old start unless its
    /// commit shares the value (read-only transactions).
    pub(super) fn move_start(&mut self, h: &mut History, i: usize, ts: Timestamp) {
        let t = &mut h.txns[i];
        if t.commit_ts != t.start_ts {
            self.used_ts.remove(&t.start_ts);
        }
        self.vacated.insert(t.start_ts);
        t.start_ts = ts;
    }

    /// Re-stamp transaction `i`'s commit, freeing the old commit unless
    /// its start shares the value.
    pub(super) fn move_commit(&mut self, h: &mut History, i: usize, ts: Timestamp) {
        let t = &mut h.txns[i];
        if t.start_ts != t.commit_ts {
            self.used_ts.remove(&t.commit_ts);
        }
        self.recommitted.insert(i);
        t.commit_ts = ts;
    }
}

/// The scalar reads of keys `t` touches exactly once (safe to re-target
/// without INT or anchor side effects), in program order: `(op index,
/// key, observed value)` triples.
pub(super) fn lone_scalar_reads(t: &Transaction) -> Vec<(usize, Key, Value)> {
    let mut touches: FxHashMap<Key, usize> = FxHashMap::default();
    for op in &t.ops {
        *touches.entry(op.key()).or_insert(0) += 1;
    }
    t.ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            Op::Read { key, value: Snapshot::Scalar(v) } if touches[key] == 1 => {
                Some((i, *key, *v))
            }
            _ => None,
        })
        .collect()
}

/// The reads of `t` that consult the frontier — not preceded by an own
/// write of their key — in program order, as `(op index, key, observed
/// snapshot)`. They anchor at the snapshot, so moving `t`'s timestamps
/// changes what they must observe unless the frontier is stable.
pub(super) fn external_reads(t: &Transaction) -> impl Iterator<Item = (usize, Key, &Snapshot)> {
    let mut written: FxHashSet<Key> = FxHashSet::default();
    t.ops.iter().enumerate().filter_map(move |(i, op)| match op {
        Op::Read { key, value } if !written.contains(key) => Some((i, *key, value)),
        Op::Write { key, .. } => {
            written.insert(*key);
            None
        }
        Op::Read { .. } => None,
    })
}

/// The key of `t`'s first put.
pub(super) fn first_put(t: &Transaction) -> Option<Key> {
    t.ops.iter().find_map(|op| match op {
        Op::Write { key, mutation: Mutation::Put(_) } => Some(*key),
        _ => None,
    })
}
