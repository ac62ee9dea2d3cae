//! The anomaly-injection matrix: targeted mutations that plant one
//! specific isolation anomaly into an otherwise *valid* history.
//!
//! [`crate::faults`] provides probabilistic engine- and collection-side
//! faults; this module is the complement the conformance harness needs: a
//! catalog of the classic anomaly classes (Adya's G0/G1a/G1b, lost
//! update, write skew, read skew / long fork, the timestamp-level
//! future-read and clock-skew classes, INT violations, and collection
//! integrity breaks), each with
//!
//! * an **injector** that surgically plants the anomaly into a valid
//!   history — preserving everything the anomaly does not require, so a
//!   correct checker reports exactly the expected class;
//! * an **expectation tag** ([`AnomalyProfile`]): the [`ViolationKind`] a
//!   correct timestamp-based checker must report at each isolation level
//!   (or [`Expected::Accept`] where the level permits the behaviour, e.g.
//!   write skew under SI), plus whether the anomaly is observable from
//!   values alone or only from timestamps (which predicts what black-box
//!   baselines like Elle can see, the paper's §V-D point).
//!
//! Injectors are deterministic in `(history, rate, seed)`, return the
//! number of anomaly instances planted (0 means the history is untouched),
//! and compose with any key-value history — the synthetic Table-I workload
//! and the application workloads (TPC-C, RUBiS, Twitter) alike. The
//! `experiments conformance` mode in `aion-bench` drives the full
//! (anomaly × level × checker) matrix through these injectors and asserts
//! every cell; see `docs/conformance.md`.

use aion_types::{
    AxiomKind, FxHashMap, FxHashSet, History, IsolationLevel, Key, Mutation, Op, SessionId,
    Snapshot, Timestamp, Value,
};

use crate::faults::{inject_session_break, SplitMix64};

/// The violation class a correct checker must report for an injected
/// anomaly — the workspace's [`AxiomKind`].
pub type ViolationKind = AxiomKind;

/// What a correct checker must conclude about an injected history at one
/// isolation level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expected {
    /// The level permits the behaviour: the history must pass unchanged.
    Accept,
    /// The level forbids it: the report must contain at least one
    /// violation of this class.
    Detect(ViolationKind),
}

impl std::fmt::Display for Expected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expected::Accept => f.write_str("accept"),
            Expected::Detect(kind) => write!(f, "detect {kind}"),
        }
    }
}

/// The expectation tags of one anomaly class, per isolation level of
/// the lattice. The per-level cells respect detection monotonicity
/// along the comparable chains the lattice proptests assert
/// (`RC ⊆ {RA, SI, SER}` and `RA ⊆ SI` on the shared axes); `Accept`
/// cells are guaranteed by injector-side frontier-stability side
/// conditions, exactly as the SI write-skew cell always was.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyProfile {
    /// Verdict a correct timestamp-based checker must reach under RC
    /// (commit-anchored membership reads: staleness is legal, phantom /
    /// intermediate / future values are not; start timestamps ignored).
    pub rc: Expected,
    /// Verdict under RA (start-anchored frontier reads, no NOCONFLICT:
    /// concurrent writers and lost updates are legal, fractured or
    /// stale snapshots are not).
    pub ra: Expected,
    /// Verdict a correct timestamp-based checker must reach under SI.
    pub si: Expected,
    /// Verdict a correct timestamp-based checker must reach under SER.
    pub ser: Expected,
    /// True when the anomaly is *guaranteed* observable from operation
    /// values alone, on any history (a sound black-box checker must see
    /// it); false for anomalies that need timestamps — or dense
    /// read-modify-write evidence that not every workload provides — to
    /// convict, the paper's §V-D separation. The conformance harness
    /// derives its guaranteed black-box-reject cells from this tag;
    /// evidence-dependent cells are pinned per workload there.
    pub value_visible: bool,
}

impl AnomalyProfile {
    /// The expectation at one lattice level. Levels without a dedicated
    /// cell (future lattice points) default to the SI expectation — the
    /// paper's home level — so callers degrade predictably.
    pub fn expected_at(&self, level: IsolationLevel) -> Expected {
        match level {
            IsolationLevel::ReadCommitted => self.rc,
            IsolationLevel::ReadAtomic => self.ra,
            IsolationLevel::Si => self.si,
            IsolationLevel::Ser => self.ser,
            _ => self.si,
        }
    }
}

/// One anomaly class of the injection matrix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Anomaly {
    /// G0 dirty write: two concurrent transactions write the same key
    /// (first-committer-wins is violated). Forbidden under SI
    /// (NOCONFLICT); unobservable under SER's commit-order arbitration.
    DirtyWrite,
    /// G1a aborted read: a read observes a value no committed transaction
    /// ever wrote.
    AbortedRead,
    /// G1b intermediate read: a read observes a committed transaction's
    /// *intermediate* write instead of its final one.
    IntermediateRead,
    /// Lost update: two concurrent read-modify-writes of the same key
    /// both commit, the second clobbering the first.
    LostUpdate,
    /// Write skew: two concurrent transactions read each other's write
    /// key and write disjoint keys — the classic SI-legal, SER-illegal
    /// anomaly.
    WriteSkew,
    /// Read skew / long fork: one read of a transaction observes an
    /// older version than its snapshot dictates.
    ReadSkew,
    /// EXT future read: a read observes a value committed *after* the
    /// reader's anchor — the signature of cross-node clock skew.
    FutureRead,
    /// INT violation: a read after the transaction's own write loses the
    /// write (read-your-writes fails).
    IntViolation,
    /// Duplicate transaction id in the collected history.
    DuplicateTid,
    /// Two distinct transactions share a timestamp.
    DuplicateTimestamp,
    /// Session order broken by the collector (swapped sequence numbers).
    SessionBreak,
    /// Skewed clocks at snapshot acquisition: recorded `start_ts` is too
    /// early, so reads appear to come from the future under SI.
    ClockSkewStart,
    /// Skewed clocks at commit: recorded `commit_ts` is too early, so
    /// the recorded commit order disagrees with the true publication
    /// order — the paper's YugabyteDB scenario.
    ClockSkewCommit,
}

impl Anomaly {
    /// Every anomaly class, in catalog order.
    pub const ALL: &'static [Anomaly] = &[
        Anomaly::DirtyWrite,
        Anomaly::AbortedRead,
        Anomaly::IntermediateRead,
        Anomaly::LostUpdate,
        Anomaly::WriteSkew,
        Anomaly::ReadSkew,
        Anomaly::FutureRead,
        Anomaly::IntViolation,
        Anomaly::DuplicateTid,
        Anomaly::DuplicateTimestamp,
        Anomaly::SessionBreak,
        Anomaly::ClockSkewStart,
        Anomaly::ClockSkewCommit,
    ];

    /// Stable catalog name, e.g. `"g0-dirty-write"`.
    pub fn name(self) -> &'static str {
        match self {
            Anomaly::DirtyWrite => "g0-dirty-write",
            Anomaly::AbortedRead => "g1a-aborted-read",
            Anomaly::IntermediateRead => "g1b-intermediate-read",
            Anomaly::LostUpdate => "lost-update",
            Anomaly::WriteSkew => "write-skew",
            Anomaly::ReadSkew => "read-skew",
            Anomaly::FutureRead => "future-read",
            Anomaly::IntViolation => "int-violation",
            Anomaly::DuplicateTid => "duplicate-tid",
            Anomaly::DuplicateTimestamp => "duplicate-timestamp",
            Anomaly::SessionBreak => "session-break",
            Anomaly::ClockSkewStart => "clock-skew-start",
            Anomaly::ClockSkewCommit => "clock-skew-commit",
        }
    }

    /// The expectation tags for timestamp-based checkers, across the
    /// whole level lattice.
    pub fn profile(self) -> AnomalyProfile {
        use AxiomKind::*;
        use Expected::{Accept, Detect};
        match self {
            // Overlapping writers are exactly SI's NOCONFLICT; the other
            // three levels never check overlaps, and the injector keeps
            // every read own-write-covered so the widened interval moves
            // no read expectation. No value is wrong, so black-box
            // checkers cannot see it.
            Anomaly::DirtyWrite => AnomalyProfile {
                rc: Accept,
                ra: Accept,
                si: Detect(NoConflict),
                ser: Accept,
                value_visible: false,
            },
            // A value no committed transaction produced: not a member of
            // any version chain — EXT everywhere, even RC.
            Anomaly::AbortedRead => AnomalyProfile {
                rc: Detect(Ext),
                ra: Detect(Ext),
                si: Detect(Ext),
                ser: Detect(Ext),
                value_visible: true,
            },
            // Only *final* writes become versions, so the intermediate
            // observation fails RC's membership too (Adya G1b is a
            // read-committed anomaly).
            Anomaly::IntermediateRead => AnomalyProfile {
                rc: Detect(Ext),
                ra: Detect(Ext),
                si: Detect(Ext),
                ser: Detect(Ext),
                value_visible: true,
            },
            // Under SI the stale read is snapshot-consistent and the
            // concurrent write pair trips NOCONFLICT; under SER the read
            // misses the earlier committer at its commit anchor (EXT).
            // RA famously *permits* lost updates (RAMP transactions):
            // the forked snapshot is frontier-exact at the moved start
            // and overlaps are not checked. RC accepts a fortiori.
            Anomaly::LostUpdate => AnomalyProfile {
                rc: Accept,
                ra: Accept,
                si: Detect(NoConflict),
                ser: Detect(Ext),
                value_visible: true,
            },
            // The classic SI-legal anomaly: both appended reads are
            // snapshot-consistent, so every level below SER accepts.
            Anomaly::WriteSkew => AnomalyProfile {
                rc: Accept,
                ra: Accept,
                si: Accept,
                ser: Detect(Ext),
                value_visible: false,
            },
            // The stale observation is a real committed version: legal
            // under RC's membership predicate, a fractured snapshot at
            // every frontier-exact level.
            Anomaly::ReadSkew => AnomalyProfile {
                rc: Accept,
                ra: Detect(Ext),
                si: Detect(Ext),
                ser: Detect(Ext),
                value_visible: false,
            },
            // The observed version commits after the reader's commit —
            // above even RC's anchor, so no level accepts it.
            Anomaly::FutureRead => AnomalyProfile {
                rc: Detect(Ext),
                ra: Detect(Ext),
                si: Detect(Ext),
                ser: Detect(Ext),
                value_visible: false,
            },
            // INT and collection integrity are level-independent.
            Anomaly::IntViolation => AnomalyProfile {
                rc: Detect(Int),
                ra: Detect(Int),
                si: Detect(Int),
                ser: Detect(Int),
                value_visible: false,
            },
            Anomaly::DuplicateTid => AnomalyProfile {
                rc: Detect(Integrity),
                ra: Detect(Integrity),
                si: Detect(Integrity),
                ser: Detect(Integrity),
                value_visible: false,
            },
            Anomaly::DuplicateTimestamp => AnomalyProfile {
                rc: Detect(Integrity),
                ra: Detect(Integrity),
                si: Detect(Integrity),
                ser: Detect(Integrity),
                value_visible: false,
            },
            // Swapped sequence numbers break the sno chain, which every
            // session predicate (snapshot- and commit-ordered) checks.
            Anomaly::SessionBreak => AnomalyProfile {
                rc: Detect(Session),
                ra: Detect(Session),
                si: Detect(Session),
                ser: Detect(Session),
                value_visible: false,
            },
            // Start skew only moves read anchors, which the
            // commit-anchored levels (SER, RC) ignore entirely.
            Anomaly::ClockSkewStart => AnomalyProfile {
                rc: Accept,
                ra: Detect(Ext),
                si: Detect(Ext),
                ser: Accept,
                value_visible: false,
            },
            // The reader's untouched observation is still a committed
            // version below its commit anchor — RC's membership accepts
            // — but every frontier-exact level now sees it miss the
            // skewed write.
            Anomaly::ClockSkewCommit => AnomalyProfile {
                rc: Accept,
                ra: Detect(Ext),
                si: Detect(Ext),
                ser: Detect(Ext),
                value_visible: false,
            },
        }
    }

    /// Plant this anomaly into `h` with the per-candidate probability
    /// `rate`, deterministically from `seed`. Returns the number of
    /// instances planted; `0` means the history is byte-identical.
    ///
    /// The clock-skew classes scale their shift magnitude to the
    /// history's timestamp density (a handful of transaction lifetimes),
    /// matching what a skewed node clock produces in practice.
    pub fn inject(self, h: &mut History, rate: f64, seed: u64) -> usize {
        match self {
            Anomaly::DirtyWrite => inject_dirty_write(h, rate, seed),
            Anomaly::AbortedRead => inject_aborted_read(h, rate, seed),
            Anomaly::IntermediateRead => inject_intermediate_read(h, rate, seed),
            Anomaly::LostUpdate => inject_lost_update(h, rate, seed),
            Anomaly::WriteSkew => inject_write_skew(h, rate, seed),
            Anomaly::ReadSkew => inject_read_skew(h, rate, seed),
            Anomaly::FutureRead => inject_future_read(h, rate, seed),
            Anomaly::IntViolation => inject_int_violation(h, rate, seed),
            Anomaly::DuplicateTid => inject_duplicate_tid(h, rate, seed),
            Anomaly::DuplicateTimestamp => inject_duplicate_timestamp(h, rate, seed),
            Anomaly::SessionBreak => inject_session_break(h, rate, seed),
            Anomaly::ClockSkewStart => inject_snapshot_skew(h, rate, seed),
            Anomaly::ClockSkewCommit => inject_commit_skew(h, rate, seed),
        }
    }
}

// --------------------------------------------------------------- catalog

/// Precomputed lookup structures shared by the targeted injectors.
struct Catalog {
    /// Per key: committed versions `(commit_ts, txn index, final value)`
    /// in commit-timestamp order (scalar puts only).
    versions: FxHashMap<Key, Vec<(Timestamp, usize, Value)>>,
    /// Commit timestamp of each transaction's session predecessor
    /// (`Timestamp::MIN` for session heads).
    pred_commit: Vec<Timestamp>,
    /// Every start/commit timestamp in the history.
    used_ts: FxHashSet<Timestamp>,
    /// All commit timestamps, sorted (for frontier-stability windows).
    commits: Vec<Timestamp>,
    /// Next value guaranteed never written or observed in the history.
    next_fresh: u64,
}

impl Catalog {
    fn new(h: &History) -> Catalog {
        let mut versions: FxHashMap<Key, Vec<(Timestamp, usize, Value)>> = FxHashMap::default();
        let mut used_ts = FxHashSet::default();
        let mut commits = Vec::with_capacity(h.txns.len());
        let mut max_value = 0u64;
        let mut sess_at: FxHashMap<(SessionId, u32), usize> = FxHashMap::default();
        for (i, t) in h.txns.iter().enumerate() {
            used_ts.insert(t.start_ts);
            used_ts.insert(t.commit_ts);
            commits.push(t.commit_ts);
            sess_at.insert((t.sid, t.sno), i);
            let mut finals: FxHashMap<Key, Value> = FxHashMap::default();
            for op in &t.ops {
                match op {
                    Op::Write { key, mutation: Mutation::Put(v) } => {
                        finals.insert(*key, *v);
                        max_value = max_value.max(v.0);
                    }
                    Op::Write { key: _, mutation: Mutation::Append(v) } => {
                        max_value = max_value.max(v.0);
                    }
                    Op::Read { value: Snapshot::Scalar(v), .. } => {
                        max_value = max_value.max(v.0);
                    }
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
        commits.sort_unstable();
        let pred_commit = h
            .txns
            .iter()
            .map(|t| match t.sno.checked_sub(1).and_then(|p| sess_at.get(&(t.sid, p))) {
                Some(&i) => h.txns[i].commit_ts,
                None => Timestamp::MIN,
            })
            .collect();
        Catalog { versions, pred_commit, used_ts, commits, next_fresh: max_value + 1 }
    }

    /// The latest version of `key` committed strictly before `ts`.
    fn latest_before(&self, key: Key, ts: Timestamp) -> Option<(Timestamp, usize, Value)> {
        let vs = self.versions.get(&key)?;
        let idx = vs.partition_point(|&(c, _, _)| c < ts);
        idx.checked_sub(1).map(|i| vs[i])
    }

    /// The value visible at `key` for an anchor at `ts` (the latest
    /// version strictly before it, or the initial value).
    fn value_at(&self, key: Key, ts: Timestamp) -> Value {
        self.latest_before(key, ts).map(|(_, _, v)| v).unwrap_or(Value::INIT)
    }

    /// True when some commit timestamp lies in `[lo, hi)` — i.e. moving a
    /// start anchor from `hi` down to `lo` would change its frontier.
    fn any_commit_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        let a = self.commits.partition_point(|&c| c < lo);
        let b = self.commits.partition_point(|&c| c < hi);
        a != b
    }

    /// A value never written or observed anywhere in the history.
    fn fresh_value(&mut self) -> Value {
        let v = Value(self.next_fresh);
        self.next_fresh += 1;
        v
    }

    /// The largest unused timestamp strictly below `below` and at least
    /// `floor` (bounded probing; `None` if the window is dense).
    fn free_ts_below(&mut self, below: Timestamp, floor: Timestamp) -> Option<Timestamp> {
        let floor = floor.get().max(1);
        let mut cand = below.get().checked_sub(1)?;
        for _ in 0..32 {
            if cand < floor {
                return None;
            }
            let ts = Timestamp(cand);
            if !self.used_ts.contains(&ts) {
                self.used_ts.insert(ts);
                return Some(ts);
            }
            cand = cand.checked_sub(1)?;
        }
        None
    }
}

/// The scalar reads of keys the transaction touches exactly once (safe
/// to re-target without INT/anchor side effects), in program order:
/// `(op index, key, observed value)` triples.
fn lone_scalar_reads(t: &aion_types::Transaction) -> Vec<(usize, Key, Value)> {
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

/// The first lone scalar read, for injectors that need any one.
fn lone_scalar_read(t: &aion_types::Transaction) -> Option<(usize, Key, Value)> {
    lone_scalar_reads(t).into_iter().next()
}

// ------------------------------------------------------------- injectors

/// G1a: re-target lone reads to a value no transaction ever committed —
/// as if the reader observed an aborted transaction's write. A correct
/// checker reports EXT at both levels (no frontier version ever justifies
/// the observation); value-based baselines see a read of an unwritten
/// value.
pub fn inject_aborted_read(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0xab0a);
    let mut planted = 0;
    for t in &mut h.txns {
        if !rng.chance(rate) {
            continue;
        }
        let Some((op_idx, key, _)) = lone_scalar_read(t) else { continue };
        t.ops[op_idx] = Op::read(key, cat.fresh_value());
        planted += 1;
    }
    planted
}

/// G1b: give a committed writer an extra *intermediate* write (a fresh
/// value immediately overwritten by its original final write) and make a
/// reader of that writer's final value observe the intermediate one. The
/// key's version chain is unchanged, so exactly the perturbed read is
/// wrong: EXT at both levels.
pub fn inject_intermediate_read(h: &mut History, rate: f64, seed: u64) -> usize {
    let cat = Catalog::new(h);
    let mut next_fresh = cat.next_fresh;
    let mut rng = SplitMix64::new(seed ^ 0x1b1b);
    let mut planted = 0;
    for r_idx in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let Some((op_idx, key, observed)) = lone_scalar_read(&h.txns[r_idx]) else { continue };
        // The committed version the reader observed.
        let Some(&(_, w_idx, _)) =
            cat.versions.get(&key).and_then(|vs| vs.iter().find(|&&(_, _, v)| v == observed))
        else {
            continue;
        };
        if w_idx == r_idx {
            continue;
        }
        // The writer's first write of the key; reads of the key after it
        // would change meaning when a mutation is inserted, so skip such
        // writers.
        let w = &h.txns[w_idx];
        let Some(w_pos) = w.ops.iter().position(
            |op| matches!(op, Op::Write { key: k, mutation: Mutation::Put(_) } if *k == key),
        ) else {
            continue;
        };
        if w.ops[w_pos..].iter().any(|op| op.is_read() && op.key() == key) {
            continue;
        }
        let mid = Value(next_fresh);
        next_fresh += 1;
        h.txns[w_idx].ops.insert(w_pos, Op::put(key, mid));
        h.txns[r_idx].ops[op_idx] = Op::read(key, mid);
        planted += 1;
    }
    planted
}

/// G0: make a writer concurrent with the previous committed writer of
/// one of its keys by pulling its recorded `start_ts` below that
/// writer's commit. Values are untouched, so value-based checkers see
/// nothing; under SER, RA and RC (which never check overlaps) the
/// history still passes; under SI the overlapping writer pair is
/// exactly NOCONFLICT. A frontier-stability side condition guards the
/// move: every key the transaction reads externally must have no
/// foreign version committed across the widened interval, so no read
/// expectation changes — the *only* planted fact is the overlap, which
/// is what lets the weaker levels guarantee `Accept` rather than
/// tolerating EXT noise.
pub fn inject_dirty_write(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0xd0d0);
    let mut planted = 0;
    for i in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let t = &h.txns[i];
        let Some(key) = t.ops.iter().find_map(|op| match op {
            Op::Write { key, mutation: Mutation::Put(_) } => Some(*key),
            _ => None,
        }) else {
            continue;
        };
        let Some((w_commit, w_idx, _)) = cat.latest_before(key, t.start_ts) else { continue };
        debug_assert_ne!(w_idx, i, "a version below start_ts is by another txn");
        // Frontier stability across the widened interval: no key the
        // transaction reads externally may gain or lose a foreign
        // version between the deepest landing point of the moved start
        // (`free_ts_below` probes at most 33 below the partner's
        // commit) and the current start — otherwise the move would
        // change that read's expected value and leak EXT noise into
        // the weaker levels' `Accept` cells.
        let window_lo = Timestamp(w_commit.get().saturating_sub(33));
        let stable = frontier_read_keys(t).iter().all(|rk| match cat.versions.get(rk) {
            None => true,
            Some(vs) => {
                let lo = vs.partition_point(|&(c, _, _)| c < window_lo);
                let hi = vs.partition_point(|&(c, _, _)| c < t.start_ts);
                vs[lo..hi].iter().all(|&(_, w, _)| w == i)
            }
        });
        if !stable {
            continue;
        }
        let floor = cat.pred_commit[i];
        let Some(new_start) = cat.free_ts_below(w_commit, floor) else { continue };
        vacate_start(&mut cat, &h.txns[i]);
        h.txns[i].start_ts = new_start;
        planted += 1;
    }
    planted
}

/// The keys whose reads in `t` consult the frontier (not preceded by an
/// own write): such reads anchor at the snapshot, so moving timestamps
/// changes their expected values unless the frontier is stable.
fn frontier_read_keys(t: &aion_types::Transaction) -> Vec<Key> {
    let mut written: FxHashSet<Key> = FxHashSet::default();
    let mut keys = Vec::new();
    for op in &t.ops {
        match op {
            Op::Read { key, .. } if !written.contains(key) && !keys.contains(key) => {
                keys.push(*key);
            }
            Op::Write { key, .. } => {
                written.insert(*key);
            }
            _ => {}
        }
    }
    keys
}

/// True when any read of `t` consults the frontier (shorthand over
/// [`frontier_read_keys`]).
fn has_frontier_reads(t: &aion_types::Transaction) -> bool {
    !frontier_read_keys(t).is_empty()
}

/// Remove a transaction's start timestamp from the used set unless its
/// commit shares the value (read-only transactions).
fn vacate_start(cat: &mut Catalog, t: &aion_types::Transaction) {
    if t.commit_ts != t.start_ts {
        cat.used_ts.remove(&t.start_ts);
    }
}

/// Lost update: take a read-modify-write transaction, pull its recorded
/// snapshot below the previous writer's commit, and re-anchor every
/// external read to that earlier snapshot. Both writers are now
/// concurrent writers of the key and the read observes the clobbered
/// pre-image: NOCONFLICT under SI (the stale read itself is
/// snapshot-consistent), EXT under SER (the read misses the earlier
/// committer at its commit anchor).
pub fn inject_lost_update(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0x105d);
    let mut planted = 0;
    for i in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let t = &h.txns[i];
        // A key the transaction reads first and puts later (r-m-w), with
        // the read being the key's first access.
        let rmw_key = {
            let mut written: FxHashSet<Key> = FxHashSet::default();
            let mut candidate = None;
            for op in &t.ops {
                match op {
                    Op::Read { key, value: Snapshot::Scalar(_) }
                        if !written.contains(key)
                            && t.ops.iter().any(|o| {
                                matches!(
                                    o,
                                    Op::Write { key: k, mutation: Mutation::Put(_) } if k == key
                                )
                            }) =>
                    {
                        candidate = Some(*key);
                        break;
                    }
                    Op::Write { key, .. } => {
                        written.insert(*key);
                    }
                    _ => {}
                }
            }
            candidate
        };
        let Some(key) = rmw_key else { continue };
        let Some((w_commit, w_idx, _)) = cat.latest_before(key, t.start_ts) else { continue };
        if w_idx == i {
            continue;
        }
        // The classic shape: the clobbered writer read the same base
        // version (it is an r-m-w too). This is what makes the lost
        // update observable to value-based checkers — two
        // read-modify-writes forking from one version.
        {
            let w = &h.txns[w_idx];
            let mut w_wrote = false;
            let mut w_reads_key_first = false;
            for op in &w.ops {
                match op {
                    Op::Read { key: k, .. } if *k == key && !w_wrote => w_reads_key_first = true,
                    Op::Write { key: k, .. } if *k == key => w_wrote = true,
                    _ => {}
                }
            }
            if !w_reads_key_first {
                continue;
            }
        }
        // The forked snapshot must stay inside the clobbered writer's
        // execution (above its start): both r-m-ws then read the same
        // base version, the shape value-based checkers recognize.
        let w_start = h.txns[w_idx].start_ts;
        let floor = cat.pred_commit[i].max(Timestamp(w_start.get() + 1));
        let Some(new_start) = cat.free_ts_below(w_commit, floor) else { continue };
        vacate_start(&mut cat, &h.txns[i]);
        h.txns[i].start_ts = new_start;
        retarget_external_reads(&mut h.txns[i], &cat, new_start);
        planted += 1;
    }
    planted
}

/// Re-point every external scalar read (any read before the
/// transaction's first own write of the key) at the frontier value of
/// the given anchor, keeping the transaction snapshot-consistent after
/// its start moved. Reads after an own write are chain-rooted (the put
/// erases the base) and need no adjustment.
fn retarget_external_reads(t: &mut aion_types::Transaction, cat: &Catalog, anchor: Timestamp) {
    let mut written: FxHashSet<Key> = FxHashSet::default();
    for op in &mut t.ops {
        match op {
            Op::Read { key, value: value @ Snapshot::Scalar(_) } if !written.contains(key) => {
                *value = Snapshot::Scalar(cat.value_at(*key, anchor));
            }
            Op::Write { key, .. } => {
                written.insert(*key);
            }
            _ => {}
        }
    }
}

/// Write skew: pick a writer `V`, find an earlier committed writer `U`
/// of a disjoint key, make them concurrent (pull `V`'s snapshot below
/// `U`'s commit), and give each a read of the other's write key as of
/// its own snapshot. The snapshot move is constrained so that *no key
/// V touches* changes its frontier across the widened interval: every
/// existing read stays justified untouched, the write sets stay
/// disjoint, and the only new facts are the two appended
/// snapshot-consistent reads. SI must therefore accept; under SER the
/// later committer's read misses the earlier commit — EXT.
pub fn inject_write_skew(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut keys: Vec<Key> = cat.versions.keys().copied().collect();
    keys.sort_unstable();
    let mut rng = SplitMix64::new(seed ^ 0x5c3f);
    let mut planted = 0;
    for v_idx in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let v_txn = &h.txns[v_idx];
        let v_keys: FxHashSet<Key> = v_txn.ops.iter().map(Op::key).collect();
        let Some(b) = v_txn.ops.iter().find_map(|op| match op {
            Op::Write { key, mutation: Mutation::Put(_) } => Some(*key),
            _ => None,
        }) else {
            continue;
        };
        let floor = cat.pred_commit[v_idx];
        // Collect partner candidates over keys V does not touch,
        // preferring the one whose latest writer committed closest below
        // V's snapshot — the frontier-stability window the move must
        // clear is smallest there.
        let offset = rng.below(keys.len().max(1) as u64) as usize;
        let mut candidates: Vec<(Timestamp, usize, Key)> = Vec::new();
        for probe in 0..keys.len().min(128) {
            let a = keys[(offset + probe) % keys.len()];
            if v_keys.contains(&a) {
                continue;
            }
            let Some((u_commit, u_idx, _)) = cat.latest_before(a, v_txn.start_ts) else {
                continue;
            };
            if u_idx == v_idx || u_commit <= floor {
                continue;
            }
            candidates.push((u_commit, u_idx, a));
        }
        candidates.sort_unstable_by_key(|&(c, _, _)| std::cmp::Reverse(c));
        let mut chosen = None;
        for &(u_commit, u_idx, a) in candidates.iter().take(8) {
            // U must not touch V's counter-key `b`: the read appended to
            // U has to be its only access to it.
            if h.txns[u_idx].ops.iter().any(|op| op.key() == b) {
                continue;
            }
            // Frontier stability: no key V touches may gain or lose a
            // version across the widened interval (reads stay justified
            // without retargeting; writes meet no new overlapping
            // writer). The window extends 33 below U's commit — the
            // deepest point `free_ts_below` can land on.
            let window_lo = Timestamp(u_commit.get().saturating_sub(33));
            let clear = v_keys.iter().all(|vk| match cat.versions.get(vk) {
                None => true,
                Some(vs) => {
                    let lo = vs.partition_point(|&(c, _, _)| c < window_lo);
                    let hi = vs.partition_point(|&(c, _, _)| c < v_txn.start_ts);
                    vs[lo..hi].iter().all(|&(_, w, _)| w == v_idx)
                }
            });
            if clear {
                chosen = Some((a, u_commit, u_idx));
                break;
            }
        }
        let Some((a, u_commit, u_idx)) = chosen else { continue };
        let Some(new_start) = cat.free_ts_below(u_commit, floor) else { continue };
        // Both appended reads must observe real committed values: a read
        // of the initial value hands black-box checkers a genuine
        // anti-dependency edge (reader before the key's first writer),
        // which is the read-skew shape — not write skew.
        let v_obs = cat.value_at(a, new_start);
        let u_start = h.txns[u_idx].start_ts;
        let u_obs = cat.value_at(b, u_start);
        if v_obs == Value::INIT || u_obs == Value::INIT {
            cat.used_ts.remove(&new_start);
            continue;
        }
        vacate_start(&mut cat, &h.txns[v_idx]);
        h.txns[v_idx].start_ts = new_start;
        // V reads U's key as of its (moved) snapshot: misses U's write.
        h.txns[v_idx].ops.push(Op::read(a, v_obs));
        // U reads V's key as of its own snapshot: misses V's write.
        h.txns[u_idx].ops.push(Op::read(b, u_obs));
        planted += 1;
    }
    planted
}

/// Read skew / long fork: re-target a lone read at the version *before*
/// the one its snapshot dictates. The observation is a real committed
/// value, just an outdated one: EXT at both levels.
pub fn inject_read_skew(h: &mut History, rate: f64, seed: u64) -> usize {
    let cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0x5e3b);
    let mut planted = 0;
    for t in &mut h.txns {
        if !rng.chance(rate) {
            continue;
        }
        for (op_idx, key, observed) in lone_scalar_reads(t) {
            let Some(vs) = cat.versions.get(&key) else { continue };
            let Some(pos) = vs.iter().position(|&(_, _, v)| v == observed) else { continue };
            let stale = match pos.checked_sub(1) {
                Some(p) => vs[p].2,
                // Regress the first version to the initial value instead.
                None => Value::INIT,
            };
            if stale == observed {
                continue;
            }
            t.ops[op_idx] = Op::read(key, stale);
            planted += 1;
            break;
        }
    }
    planted
}

/// EXT future read: re-target a lone read at a version committed *after*
/// the reader's commit timestamp (and hence after both of its anchors),
/// by a different session — what a skewed clock makes a collector
/// record. EXT at both levels. Black-box baselines have no notion of
/// "too late" and can convict only indirectly, when read-modify-write
/// chains around the future version close a dependency cycle.
pub fn inject_future_read(h: &mut History, rate: f64, seed: u64) -> usize {
    let cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0xf07e);
    let mut planted = 0;
    for i in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let t = &h.txns[i];
        for (op_idx, key, _) in lone_scalar_reads(t) {
            let Some(vs) = cat.versions.get(&key) else { continue };
            let from = vs.partition_point(|&(c, _, _)| c <= t.commit_ts);
            let Some(&(_, _, future)) =
                vs[from..].iter().find(|&&(_, w, _)| h.txns[w].sid != t.sid)
            else {
                continue;
            };
            h.txns[i].ops[op_idx] = Op::read(key, future);
            planted += 1;
            break;
        }
    }
    planted
}

/// INT violation: insert a read directly after a transaction's last put
/// of a key that observes the key's pre-transaction value — the engine
/// lost the transaction's own write from its read view. INT at both
/// levels; internal reads are invisible to the dependency-graph
/// baselines, which only consider external reads.
pub fn inject_int_violation(h: &mut History, rate: f64, seed: u64) -> usize {
    let cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0x1277);
    let mut planted = 0;
    for t in &mut h.txns {
        if !rng.chance(rate) {
            continue;
        }
        let Some((pos, key, own)) = t.ops.iter().enumerate().rev().find_map(|(i, op)| match op {
            Op::Write { key, mutation: Mutation::Put(v) } => Some((i, *key, *v)),
            _ => None,
        }) else {
            continue;
        };
        let pre_image = cat.value_at(key, t.start_ts);
        if pre_image == own {
            // Degenerate history with repeated values: the "lost" write
            // would be indistinguishable. Skip rather than plant a no-op.
            continue;
        }
        t.ops.insert(pos + 1, Op::read(key, pre_image));
        planted += 1;
    }
    planted
}

/// Duplicate transaction id: stamp a transaction with the id of an
/// earlier one, as a buggy collector assigning ids non-uniquely would.
/// INTEGRITY at both levels.
pub fn inject_duplicate_tid(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut rng = SplitMix64::new(seed ^ 0xdd1d);
    let mut planted = 0;
    for j in 1..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let donor = rng.below(j as u64) as usize;
        h.txns[j].tid = h.txns[donor].tid;
        planted += 1;
    }
    planted
}

/// Duplicate timestamp: move a transaction's `start_ts` onto another
/// transaction's start timestamp, choosing a target with no commit in
/// between so the snapshot's frontier — and hence every read verdict —
/// is unchanged. Exactly INTEGRITY fires, at both levels.
pub fn inject_duplicate_timestamp(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut starts: Vec<Timestamp> = h.txns.iter().map(|t| t.start_ts).collect();
    starts.sort_unstable();
    let mut vacated: FxHashSet<Timestamp> = FxHashSet::default();
    let mut rng = SplitMix64::new(seed ^ 0xdd75);
    let mut planted = 0;
    for i in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let t = &h.txns[i];
        let floor = cat.pred_commit[i];
        // Walk nearby earlier start timestamps; accept the first whose
        // window back to our current start contains no commit event (so
        // the snapshot frontier — and every read verdict — is unchanged)
        // and whose owner has not itself been moved away.
        let at = starts.partition_point(|&s| s < t.start_ts);
        let Some(target) = starts[..at].iter().rev().take(8).copied().find(|&s| {
            s >= floor
                && s > Timestamp::MIN
                && !vacated.contains(&s)
                && !cat.any_commit_in(s, t.start_ts)
        }) else {
            continue;
        };
        if t.commit_ts != t.start_ts {
            cat.used_ts.remove(&t.start_ts);
        }
        vacated.insert(h.txns[i].start_ts);
        h.txns[i].start_ts = target;
        planted += 1;
    }
    planted
}

/// Snapshot clock skew (targeted): pull a reader's recorded `start_ts`
/// below the commit of the version it manifestly observed, so the
/// claimed snapshot predates the write it read — the read-side
/// signature of a node whose clock runs behind. Values are untouched
/// (black-box checkers see nothing); SER ignores start timestamps and
/// must still accept; under SI the read is now a future read — EXT,
/// guaranteed. The probabilistic collection-level variant of this fault
/// is [`crate::faults::inject_clock_skew_at`].
pub fn inject_snapshot_skew(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0x5caf);
    let mut planted = 0;
    for i in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let floor = cat.pred_commit[i];
        let mut target = None;
        for (_, key, obs) in lone_scalar_reads(&h.txns[i]) {
            let Some(vs) = cat.versions.get(&key) else { continue };
            // The observed version's writer; the new snapshot lands
            // below its commit, so the expected value at the claimed
            // anchor becomes an older version (or the initial value) —
            // never `obs` again.
            let Some(&(w_commit, w_idx, _)) = vs.iter().find(|&&(_, _, v)| v == obs) else {
                continue;
            };
            if w_idx == i || w_commit >= h.txns[i].start_ts || w_commit <= floor {
                continue;
            }
            target = Some(w_commit);
            break;
        }
        let Some(w_commit) = target else { continue };
        let Some(new_start) = cat.free_ts_below(w_commit, floor) else { continue };
        vacate_start(&mut cat, &h.txns[i]);
        h.txns[i].start_ts = new_start;
        planted += 1;
    }
    planted
}

/// Commit clock skew (targeted): pull a writer's recorded `commit_ts`
/// below the snapshot of a reader that manifestly did *not* observe it
/// — the recorded commit order now claims the write was visible before
/// it really was, the paper's YugabyteDB scenario. Values are untouched;
/// the reader's unperturbed observation becomes an EXT violation at
/// every frontier-exact level (its anchors now lie above the skewed
/// commit). Session order and Eq. (1) are preserved, the shift never
/// crosses the previous version of the perturbed key, and only
/// read-stable writers (every read own-write-covered) are skewed — a
/// writer with frontier reads would drag its *own* observations above
/// its relocated commit anchor, which would break the RC `Accept`
/// guarantee (RC anchors reads at the commit event). Moving a version
/// earlier can only widen every other reader's membership set, so
/// exactly the commit-order anomaly is planted.
pub fn inject_commit_skew(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut cat = Catalog::new(h);
    let mut rng = SplitMix64::new(seed ^ 0xc057);
    let mut moved: FxHashSet<usize> = FxHashSet::default();
    let mut planted = 0;
    for r_idx in 0..h.txns.len() {
        if !rng.chance(rate) {
            continue;
        }
        let mut chosen = None;
        for (_, key, obs) in lone_scalar_reads(&h.txns[r_idx]) {
            let Some(vs) = cat.versions.get(&key) else { continue };
            let Some(pos) = vs.iter().position(|&(_, _, v)| v == obs) else { continue };
            // The next version's writer: the one whose commit gets
            // skewed below the reader's snapshot.
            let Some(&(_, w_idx, _)) = vs.get(pos + 1) else { continue };
            let (obs_commit, obs_writer, _) = vs[pos];
            if w_idx == r_idx || moved.contains(&w_idx) || moved.contains(&obs_writer) {
                continue;
            }
            // The skewed commit must stay above the observed version
            // (the key's version order is preserved) and above the
            // writer's session predecessor's commit (SESSION), and land
            // strictly below the reader's snapshot — so both of the
            // reader's anchors now claim to see the skewed write.
            let floor = Timestamp(obs_commit.get().max(cat.pred_commit[w_idx].get()) + 1);
            if h.txns[r_idx].start_ts > floor {
                chosen = Some((w_idx, floor));
                break;
            }
        }
        let Some((w_idx, floor)) = chosen else { continue };
        let r_start = h.txns[r_idx].start_ts;
        let Some(new_commit) = cat.free_ts_below(r_start, floor) else { continue };
        // Eq. (1): when the skewed commit descends below the writer's
        // own recorded start, the same lagging clock stamps the start
        // too. Session order bounds how far down it can go — and a
        // writer with frontier reads must keep its start where it is
        // (its observations anchor there, and they must also stay
        // below the relocated commit for RC's membership): such
        // writers only qualify when no start fix-up is needed, i.e.
        // their whole execution already sits below the new commit.
        if h.txns[w_idx].start_ts >= new_commit {
            if has_frontier_reads(&h.txns[w_idx]) {
                cat.used_ts.remove(&new_commit);
                continue;
            }
            let Some(new_start) = cat.free_ts_below(new_commit, cat.pred_commit[w_idx]) else {
                cat.used_ts.remove(&new_commit);
                continue;
            };
            vacate_start(&mut cat, &h.txns[w_idx]);
            h.txns[w_idx].start_ts = new_start;
        }
        if h.txns[w_idx].start_ts != h.txns[w_idx].commit_ts {
            cat.used_ts.remove(&h.txns[w_idx].commit_ts);
        }
        h.txns[w_idx].commit_ts = new_commit;
        moved.insert(w_idx);
        planted += 1;
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{DataKind, TxnBuilder};

    /// A valid SI history with genuine concurrency: an interleaved run
    /// against the crate's own [`MvccStore`] — 12 sessions over a hot
    /// key space, a mix of write-only, read-modify-write and read-only
    /// transactions, unique values, engine-issued timestamps. The oracle
    /// strides so injectors that relocate timestamps have room to keep
    /// them unique.
    fn valid_history(n: usize) -> History {
        use crate::store::{Store, StoreTxn};
        let store = crate::MvccStore::with_oracle(
            DataKind::Kv,
            Box::new(crate::CentralOracle::with_stride(8)),
        );
        let sessions = 12usize;
        let mut rng = SplitMix64::new(0x7e57);
        let mut h = History::new(DataKind::Kv);
        let mut sno = vec![0u32; sessions];
        let mut value = 1u64;
        'outer: while h.len() < n {
            let s = rng.below(sessions as u64) as usize;
            // Open a transaction, advance a few *other* sessions'
            // transactions in between so intervals overlap.
            let mut txn = store.begin(aion_types::SessionId(s as u32), sno[s]);
            let key = Key(rng.below(6));
            let role = rng.below(3);
            let ok = (|| -> Result<(), crate::CommitError> {
                match role {
                    0 => txn.put(key, Value(value))?,
                    1 => {
                        txn.read(key)?;
                        txn.put(key, Value(value))?;
                    }
                    _ => {
                        txn.read(key)?;
                        txn.read(Key(rng.below(6)))?;
                    }
                }
                Ok(())
            })();
            value += 1;
            // Interleave: sometimes run a whole overlapping read-only
            // transaction from another session before committing.
            if rng.chance(0.5) {
                let o = rng.below(sessions as u64) as usize;
                if o != s {
                    let mut other = store.begin(aion_types::SessionId(o as u32), sno[o]);
                    if other.read(Key(rng.below(6))).is_ok() {
                        if let Ok(t) = other.commit() {
                            h.push(t);
                            sno[o] += 1;
                            if h.len() >= n {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            if ok.is_ok() {
                if let Ok(t) = txn.commit() {
                    h.push(t);
                    sno[s] += 1;
                }
            }
        }
        h
    }

    #[test]
    fn every_injector_plants_something_on_a_dense_history() {
        for &a in Anomaly::ALL {
            let mut h = valid_history(120);
            let n = a.inject(&mut h, 0.8, 7);
            assert!(n > 0, "{} planted nothing", a.name());
        }
    }

    #[test]
    fn every_injector_is_deterministic_and_noop_at_rate_zero() {
        for &a in Anomaly::ALL {
            let base = valid_history(80);
            let (mut h1, mut h2, mut h0) = (base.clone(), base.clone(), base.clone());
            assert_eq!(a.inject(&mut h1, 0.5, 11), a.inject(&mut h2, 0.5, 11), "{}", a.name());
            assert_eq!(h1, h2, "{} must be deterministic per seed", a.name());
            assert_eq!(a.inject(&mut h0, 0.0, 11), 0, "{}", a.name());
            assert_eq!(h0, base, "{} must be a no-op at rate 0", a.name());
        }
    }

    #[test]
    fn zero_planted_means_untouched() {
        // A history with no candidates for the value-targeted injectors:
        // write-only transactions and list data give most injectors
        // nothing to do; whenever an injector reports 0 the history must
        // be byte-identical.
        let mut h = History::new(DataKind::Kv);
        for i in 0..20u64 {
            h.push(
                TxnBuilder::new(i + 1)
                    .session(0, i as u32)
                    .interval(10 + i * 10, 15 + i * 10)
                    .put(Key(0), Value(i + 1))
                    .build(),
            );
        }
        let base = h.clone();
        for &a in [Anomaly::AbortedRead, Anomaly::ReadSkew, Anomaly::FutureRead].iter() {
            let mut g = base.clone();
            let n = a.inject(&mut g, 1.0, 3);
            if n == 0 {
                assert_eq!(g, base, "{} reported 0 but mutated the history", a.name());
            }
        }
    }

    #[test]
    fn dirty_write_creates_an_overlapping_writer_pair() {
        let mut h = valid_history(120);
        let n = inject_dirty_write(&mut h, 0.5, 3);
        assert!(n > 0);
        let overlapping = h
            .txns
            .iter()
            .enumerate()
            .flat_map(|(i, a)| h.txns[..i].iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.overlaps(b))
            .any(|(a, b)| a.write_keys().iter().any(|k| b.write_keys().contains(k)));
        assert!(overlapping, "must create a concurrent write-write pair");
        assert!(h.integrity_issues().is_empty(), "timestamps/sessions must stay well-formed");
    }

    #[test]
    fn aborted_read_observes_a_value_nobody_wrote() {
        let mut h = valid_history(60);
        let n = inject_aborted_read(&mut h, 0.5, 9);
        assert!(n > 0);
        let written: FxHashSet<Value> = h
            .txns
            .iter()
            .flat_map(|t| t.ops.iter())
            .filter_map(|op| match op {
                Op::Write { mutation: Mutation::Put(v), .. } => Some(*v),
                _ => None,
            })
            .collect();
        let phantom = h
            .txns
            .iter()
            .flat_map(|t| t.ops.iter())
            .filter_map(|op| match op {
                Op::Read { value: Snapshot::Scalar(v), .. } => Some(*v),
                _ => None,
            })
            .filter(|v| *v != Value::INIT && !written.contains(v))
            .count();
        assert_eq!(phantom, n, "each planted instance is a read of an unwritten value");
    }

    #[test]
    fn intermediate_read_keeps_final_versions_intact() {
        let base = valid_history(120);
        let mut h = base.clone();
        let n = inject_intermediate_read(&mut h, 0.5, 5);
        assert!(n > 0);
        // Final value per (txn, key) is unchanged — only intermediate
        // writes were inserted.
        for (t0, t1) in base.txns.iter().zip(&h.txns) {
            let f0 = t0.final_writes(|_| Snapshot::initial(DataKind::Kv));
            let mut f1 = t1.final_writes(|_| Snapshot::initial(DataKind::Kv));
            f1.retain(|(k, _)| f0.iter().any(|(k0, _)| k0 == k));
            assert_eq!(f0, f1, "final writes must not change");
        }
    }

    #[test]
    fn duplicate_timestamp_collides_without_moving_the_frontier() {
        let mut h = valid_history(100);
        let n = inject_duplicate_timestamp(&mut h, 0.5, 13);
        assert!(n > 0);
        let collisions = h
            .integrity_issues()
            .iter()
            .filter(|i| matches!(i, aion_types::IntegrityIssue::TimestampCollision(..)))
            .count();
        assert!(collisions >= n, "each planted instance must collide");
    }

    #[test]
    fn injectors_compose_with_packed_app_style_keys() {
        // Large packed keys (app workloads) must not confuse the catalog.
        let mut h = History::new(DataKind::Kv);
        let tag = |a: u64| Key((7u64 << 56) | (a << 28) | 5);
        let mut sno = [0u32; 2];
        for i in 0..40u64 {
            let s = (i % 2) as usize;
            let mut b =
                TxnBuilder::new(i + 1).session(s as u32, sno[s]).interval(10 + i * 10, 15 + i * 10);
            if i % 2 == 0 {
                b = b.put(tag(i % 5), Value(100 + i));
            } else {
                let last = (0..i).rev().find(|j| j % 2 == 0 && j % 5 == (i - 1) % 5);
                let obs = last.map(|j| Value(100 + j)).unwrap_or(Value::INIT);
                b = b.read(tag((i - 1) % 5), obs).put(tag(i % 5 + 8), Value(200 + i));
            }
            sno[s] += 1;
            h.push(b.build());
        }
        for &a in Anomaly::ALL {
            let mut g = h.clone();
            a.inject(&mut g, 1.0, 2); // must not panic; may plant 0
        }
    }

    #[test]
    fn catalog_names_and_profiles_are_consistent() {
        let mut names = FxHashSet::default();
        for &a in Anomaly::ALL {
            assert!(names.insert(a.name()), "duplicate name {}", a.name());
            let p = a.profile();
            assert!(
                matches!((p.si, p.ser), (Expected::Detect(_), _) | (_, Expected::Detect(_))),
                "{} must be detectable at some level",
                a.name()
            );
        }
        assert_eq!(Anomaly::ALL.len(), 13);
        assert_eq!(format!("{}", Expected::Detect(AxiomKind::Ext)), "detect EXT");
        assert_eq!(format!("{}", Expected::Accept), "accept");
    }
}
