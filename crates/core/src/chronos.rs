//! CHRONOS: the offline timestamp-based isolation checker (paper
//! Algorithm 2) — one simulation, driven by a level's predicate set.
//!
//! CHRONOS relates an isolation level's operational semantics to its
//! axiomatic semantics by fixing arbitration to commit-timestamp order
//! (Definition 5) and visibility to "committed before my anchor"
//! (Definition 6). With both relations fixed, PREFIX holds by construction
//! and the remaining axioms — SESSION, INT, EXT, NOCONFLICT — are checked
//! by *simulating* the execution one start/commit event at a time in
//! timestamp order:
//!
//! * `frontier[k]` — the last committed snapshot of key `k` (in AR order);
//! * `committed` — every published `(key, snapshot)` version, kept only for
//!   [`ExtPredicate::Committed`], where *any* earlier version justifies a
//!   read;
//! * `ongoing[k]` — transactions currently holding an uncommitted write to
//!   `k`, kept only when the level activates NOCONFLICT; non-empty at
//!   another writer's commit ⇒ violation;
//! * `next_sno`/`last_cts` — per-session progress for SESSION;
//! * a per-transaction `int_val` (scoped to the transaction's anchor event)
//!   for INT and the read-expectation rule of [`aion_types::expected_read`].
//!
//! What differs between levels is data, not code: [`IsolationLevel::checks`]
//! names the event a transaction's reads anchor at ([`ReadAnchor`] — the
//! paper's §VI-A derives SER from SI by moving it from the start to the
//! commit event), what an external read must observe ([`ExtPredicate`]),
//! whether overlapping writers conflict, and which [`SessionPredicate`]
//! applies. SESSION and the per-operation simulation run at the anchor
//! event; publication and NOCONFLICT run at the commit event. The online
//! checker dispatches on the same predicate sets, so a level is defined
//! once and checked two ways.
//!
//! Complexity is `O(N log N + M)`: one sort of `2N` events plus constant
//! amortized work per operation (hash-map backed state). All violations are
//! reported; the checker never stops at the first one (§III-B2).

use crate::event::build_events;
use crate::gc::GcPolicy;
use crate::report::{ChronosOutcome, StageTimings};
use aion_types::{
    apply, classify_mismatch, CheckReport, DataKind, ExtPredicate, FxHashMap, FxHashSet, History,
    IsolationLevel, Key, LevelChecks, MismatchAxiom, Mutation, Op, ReadAnchor, SessionId,
    SessionPredicate, Snapshot, Stopwatch, Timestamp, Transaction, TxnId, Violation,
};

/// Configuration for an offline checking run.
///
/// `#[non_exhaustive]`: construct via [`ChronosOptions::default`] or
/// [`ChronosOptions::with_gc`] so future knobs stay non-breaking; the
/// fields remain `pub` for reading and in-place mutation.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct ChronosOptions {
    /// Garbage-collection policy (see [`GcPolicy`]).
    pub gc: GcPolicy,
}

impl ChronosOptions {
    /// Options with a specific GC policy.
    pub fn with_gc(gc: GcPolicy) -> Self {
        ChronosOptions { gc }
    }
}

/// The simulation state.
struct Simulation {
    kind: DataKind,
    checks: LevelChecks,
    /// Next expected sequence number per session (paper: `last_sno + 1`).
    next_sno: FxHashMap<SessionId, u32>,
    /// Commit timestamp of the last anchored transaction per session.
    last_cts: FxHashMap<SessionId, Timestamp>,
    /// Last committed snapshot per key (paper: `frontier`).
    frontier: FxHashMap<Key, Snapshot>,
    /// Every published version ([`ExtPredicate::Committed`] only).
    committed: FxHashSet<(Key, Snapshot)>,
    /// Uncommitted writers per key (paper: `ongoing`; NOCONFLICT only).
    ongoing: FxHashMap<Key, Vec<TxnId>>,
    /// Final written snapshots of anchored-but-uncommitted transactions
    /// (paper: `ext_val`, keyed by transaction).
    pending_writes: FxHashMap<TxnId, Vec<(Key, Snapshot)>>,
}

impl Simulation {
    fn new(kind: DataKind, checks: LevelChecks) -> Simulation {
        Simulation {
            kind,
            checks,
            next_sno: FxHashMap::default(),
            last_cts: FxHashMap::default(),
            frontier: FxHashMap::default(),
            committed: FxHashSet::default(),
            ongoing: FxHashMap::default(),
            pending_writes: FxHashMap::default(),
        }
    }

    fn frontier_of(&self, key: Key) -> Snapshot {
        self.frontier.get(&key).cloned().unwrap_or_else(|| Snapshot::initial(self.kind))
    }

    /// Paper lines 2:7–2:10: SESSION check plus per-session bookkeeping.
    fn check_session(&mut self, t: &Transaction, report: &mut CheckReport) {
        let expected = self.next_sno.get(&t.sid).copied().unwrap_or(0);
        let last_cts = self.last_cts.get(&t.sid).copied().unwrap_or(Timestamp::MIN);
        let predates_predecessor = match self.checks.session {
            SessionPredicate::SnapshotOrder => t.start_ts < last_cts,
            // Anchors run in commit order, so with sequence numbers in
            // order the session embeds into commit order by construction.
            SessionPredicate::CommitOrder => false,
        };
        if t.sno != expected || predates_predecessor {
            report.push(Violation::Session {
                tid: t.tid,
                sid: t.sid,
                expected_sno: expected,
                found_sno: t.sno,
                start_ts: t.start_ts,
                last_commit_ts: last_cts,
            });
        }
        self.next_sno.insert(t.sid, t.sno + 1);
        self.last_cts.insert(t.sid, t.commit_ts);
    }

    /// Paper lines 2:6–2:22: process the anchor event — SESSION, INT, EXT,
    /// and accumulation of the write set the commit event will publish.
    fn process_anchor(&mut self, t: &Transaction, report: &mut CheckReport) {
        self.check_session(t, report);

        // An Eq. (1)-malformed transaction (`start > commit`, reported at
        // event build time) is checked but never publishes: its commit
        // event precedes its start event, so at a start anchor it would
        // leave permanent `ongoing` ghosts, and at any anchor a version no
        // well-formed execution produced. Online admission does the same.
        let malformed = t.start_ts > t.commit_ts;

        // Per-transaction scratch state, dropped at the end of the anchor
        // event (the paper gc's `int_val` at commit; since all operations
        // are examined here, the scope can end even earlier).
        let mut int_val: FxHashMap<Key, Snapshot> = FxHashMap::default();
        let mut muts: FxHashMap<Key, Vec<Mutation>> = FxHashMap::default();
        let mut write_set: Vec<(Key, Snapshot)> = Vec::new();

        for (op_index, op) in t.ops.iter().enumerate() {
            match op {
                Op::Read { key, value } => match int_val.get(key) {
                    None => {
                        // External read: the frontier always justifies it;
                        // under `Committed` so does any earlier version
                        // (or the initial value) — staleness is permitted.
                        let frontier = self.frontier_of(*key);
                        let justified = *value == frontier
                            || (self.checks.ext == ExtPredicate::Committed
                                && (*value == Snapshot::initial(self.kind)
                                    || self.committed.contains(&(*key, value.clone()))));
                        if !justified {
                            report.push(Violation::Ext {
                                tid: t.tid,
                                key: *key,
                                op_index,
                                expected: frontier,
                                observed: value.clone(),
                            });
                        }
                        // Track the observation so later reads of the same
                        // key are checked for read-read consistency (INT).
                        int_val.insert(*key, value.clone());
                    }
                    Some(cur) => {
                        if value != cur {
                            let (tid, key, expected, observed) =
                                (t.tid, *key, cur.clone(), value.clone());
                            let muts = muts.get(&key).map_or(&[][..], |m| m);
                            report.push(match classify_mismatch(muts, value) {
                                MismatchAxiom::Int => {
                                    Violation::Int { tid, key, op_index, expected, observed }
                                }
                                MismatchAxiom::Ext => {
                                    Violation::Ext { tid, key, op_index, expected, observed }
                                }
                            });
                        }
                    }
                },
                Op::Write { key, mutation } => {
                    // Base-dependent (list-append) chains fold over the
                    // frontier base at every level — the convention the
                    // online `Committed` predicate falls back to.
                    let base = match int_val.get(key) {
                        Some(cur) => cur.clone(),
                        None => self.frontier_of(*key),
                    };
                    let newv = apply(&base, mutation);
                    int_val.insert(*key, newv.clone());
                    muts.entry(*key).or_default().push(*mutation);
                    match write_set.iter_mut().find(|(k, _)| k == key) {
                        Some((_, snap)) => *snap = newv,
                        None => {
                            write_set.push((*key, newv));
                            if self.checks.noconflict && !malformed {
                                self.ongoing.entry(*key).or_default().push(t.tid);
                            }
                        }
                    }
                }
            }
        }

        if !malformed && !write_set.is_empty() {
            self.pending_writes.insert(t.tid, write_set);
        }
    }

    /// Paper lines 2:23–2:33: process the commit event — NOCONFLICT (when
    /// the level activates it) and publication.
    fn process_commit(&mut self, tid: TxnId, report: &mut CheckReport) {
        let Some(write_set) = self.pending_writes.remove(&tid) else {
            return; // read-only, malformed, or never anchored
        };
        for (key, snap) in write_set {
            // (`ongoing` has entries only when the level has NOCONFLICT.)
            if let Some(writers) = self.ongoing.get_mut(&key) {
                if let Some(pos) = writers.iter().position(|&w| w == tid) {
                    writers.swap_remove(pos);
                }
                // Anyone still ongoing on this key overlaps us: NOCONFLICT.
                // The first committer reports, so each conflicting pair is
                // reported exactly once (paper Example 4).
                for &other in writers.iter() {
                    report.push(Violation::NoConflict { key, t1: tid, t2: other });
                }
                if writers.is_empty() {
                    self.ongoing.remove(&key);
                }
            }
            if self.checks.ext == ExtPredicate::Committed {
                self.committed.insert((key, snap.clone()));
            }
            self.frontier.insert(key, snap);
        }
    }
}

/// Check a history against `level`, consuming it so that transactions can
/// be freed as soon as they are processed (the GC study of Figs. 6, 9, 10
/// depends on this).
pub fn check_consuming(
    history: History,
    level: IsolationLevel,
    opts: &ChronosOptions,
) -> ChronosOutcome {
    let mut outcome = ChronosOutcome {
        txns: history.txns.len(),
        ops: history.txns.iter().map(|t| t.ops.len()).sum(),
        ..ChronosOutcome::default()
    };
    let mut report = CheckReport::new();

    // --- sorting stage (plus the level-independent integrity scan) -------
    let sort_start = Stopwatch::start();
    let events = build_events(&history, &mut report);
    let sorting = sort_start.elapsed();

    // --- checking (+ gc) stage -------------------------------------------
    let check_start = Stopwatch::start();
    let mut gc_time = std::time::Duration::ZERO;
    let checks = level.checks();
    let anchor_is_start = checks.anchor == ReadAnchor::Start;
    let mut sim = Simulation::new(history.kind, checks);
    let mut slots: Vec<Option<Transaction>> = history.txns.into_iter().map(Some).collect();
    // Events still to come per transaction; a sweep frees the ones at zero.
    // (Not "commit seen": a malformed transaction's commit event precedes
    // its start event, which may still need the operations.)
    let mut events_left: Vec<u8> = vec![2; slots.len()];
    let mut commits_since_gc = 0usize;
    let mut open_txns = 0usize;

    for ev in &events {
        let idx = ev.idx as usize;
        events_left[idx] -= 1;

        if ev.is_start() == anchor_is_start {
            if let Some(t) = slots[idx].as_ref() {
                sim.process_anchor(t, &mut report);
                open_txns += 1;
                outcome.peak_open_txns = outcome.peak_open_txns.max(open_txns);
            }
            if opts.gc == GcPolicy::Fast {
                // Everything needed later lives in `pending_writes` now.
                slots[idx] = None;
            }
        }
        if ev.is_start() {
            continue;
        }

        sim.process_commit(ev.key.tid, &mut report);
        open_txns = open_txns.saturating_sub(1);
        commits_since_gc += 1;
        if let GcPolicy::EveryN(n) = opts.gc {
            if commits_since_gc >= n {
                commits_since_gc = 0;
                let gc_start = Stopwatch::start();
                sweep(&mut slots, &events_left);
                gc_time += gc_start.elapsed();
            }
        }
    }

    outcome.timings = StageTimings {
        loading: std::time::Duration::ZERO,
        sorting,
        checking: check_start.elapsed() - gc_time,
        gc: gc_time,
    };
    outcome.report = report;
    outcome
}

/// One GC sweep: walk the whole transaction table (modelling a heap scan,
/// so frequent sweeps cost more in total, as in the paper) and drop every
/// transaction both of whose events have been processed.
fn sweep(slots: &mut [Option<Transaction>], events_left: &[u8]) {
    for (slot, &left) in slots.iter_mut().zip(events_left) {
        if left == 0 && slot.is_some() {
            *slot = None;
        }
    }
}

/// Check a history against `level` by reference. Clones the transactions
/// internally; prefer [`check_consuming`] for large histories where the
/// incremental memory release matters.
pub fn check(history: &History, level: IsolationLevel, opts: &ChronosOptions) -> ChronosOutcome {
    check_consuming(history.clone(), level, opts)
}

/// The per-level entry points: [`check`], [`check_consuming`] and a
/// report-only convenience with `level` filled in.
macro_rules! level_entry_points {
    ($($level:ident ($what:literal): $check:ident, $consuming:ident, $report:ident;)*) => {$(
        #[doc = concat!("Check a history against ", $what, " by reference (see [`check`]).")]
        pub fn $check(history: &History, opts: &ChronosOptions) -> ChronosOutcome {
            check(history, IsolationLevel::$level, opts)
        }

        #[doc = concat!("Check a history against ", $what, ", consuming it (see [`check_consuming`]).")]
        pub fn $consuming(history: History, opts: &ChronosOptions) -> ChronosOutcome {
            check_consuming(history, IsolationLevel::$level, opts)
        }

        #[doc = concat!("Convenience: check against ", $what, " with default options and return only the report.")]
        pub fn $report(history: &History) -> CheckReport {
            check(history, IsolationLevel::$level, &ChronosOptions::default()).report
        }
    )*};
}

level_entry_points! {
    ReadCommitted("read committed"): check_rc, check_rc_consuming, check_rc_report;
    ReadAtomic("Read Atomic"): check_ra, check_ra_consuming, check_ra_report;
    Si("snapshot isolation"): check_si, check_si_consuming, check_si_report;
    Ser("serializability"): check_ser, check_ser_consuming, check_ser_report;
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{AxiomKind, TxnBuilder, Value};

    fn kv(txns: Vec<Transaction>) -> History {
        History { kind: DataKind::Kv, txns }
    }

    fn list(txns: Vec<Transaction>) -> History {
        History { kind: DataKind::List, txns }
    }

    /// Paper Figure 1: a valid SI history.
    #[test]
    fn figure1_valid_history() {
        let h = kv(vec![
            TxnBuilder::new(0)
                .session(0, 0)
                .interval(1, 2)
                .put(Key(1), Value(0))
                .put(Key(2), Value(0))
                .build(),
            TxnBuilder::new(1)
                .session(1, 0)
                .interval(3, 6)
                .put(Key(1), Value(1))
                .put(Key(2), Value(2))
                .build(),
            TxnBuilder::new(2).session(2, 0).interval(4, 5).read(Key(1), Value(0)).build(),
            TxnBuilder::new(3).session(3, 0).interval(7, 8).read(Key(2), Value(2)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert!(out.is_ok(), "{}", out.report);
        assert_eq!(out.txns, 4);
        assert_eq!(out.ops, 6);
    }

    /// Paper Figure 2 / Example 4: exactly one NOCONFLICT violation
    /// (T5 vs T3 on y), reported once at T5's commit.
    #[test]
    fn figure2_single_noconflict() {
        let x = Key(1);
        let y = Key(2);
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(x, Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 5).put(x, Value(2)).build(),
            TxnBuilder::new(3)
                .session(2, 0)
                .interval(6, 9)
                .read(x, Value(2))
                .put(y, Value(2))
                .build(),
            TxnBuilder::new(4).session(3, 0).interval(8, 10).read(y, Value(1)).build(),
            TxnBuilder::new(5)
                .session(4, 0)
                .interval(4, 7)
                .read(x, Value(1))
                .put(y, Value(1))
                .build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.len(), 1, "{}", out.report);
        assert_eq!(
            out.report.violations[0],
            Violation::NoConflict { key: y, t1: TxnId(5), t2: TxnId(3) }
        );
    }

    /// Paper Figure 11: sequential commits T1(w x=1), T2(w x=2), T3(r x=1).
    /// Timestamp-based checking must flag the stale read as EXT.
    #[test]
    fn figure11_stale_read_flagged() {
        let x = Key(1);
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(x, Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 4).put(x, Value(2)).build(),
            TxnBuilder::new(3).session(2, 0).interval(5, 6).read(x, Value(1)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "{}", out.report);
    }

    #[test]
    fn session_violation_on_start_before_predecessor_commit() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 10).put(Key(1), Value(1)).build(),
            // Same session, starts at 5 < predecessor's commit 10.
            TxnBuilder::new(2).session(0, 1).interval(5, 6).read(Key(2), Value(0)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Session), 1, "{}", out.report);
    }

    #[test]
    fn session_violation_on_sno_gap() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).build(),
            TxnBuilder::new(2).session(0, 2).interval(3, 4).build(), // skipped sno 1
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Session), 1);
    }

    #[test]
    fn int_violation_write_then_wrong_read() {
        let h = kv(vec![TxnBuilder::new(1)
            .session(0, 0)
            .interval(1, 2)
            .put(Key(1), Value(5))
            .read(Key(1), Value(6))
            .build()]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Int), 1, "{}", out.report);
    }

    #[test]
    fn int_violation_read_read_inconsistency() {
        // Two external-looking reads of the same key returning different
        // values: the second is an internal read and must match the first.
        let h = kv(vec![TxnBuilder::new(1)
            .session(0, 0)
            .interval(1, 2)
            .read(Key(1), Value(0))
            .read(Key(1), Value(3))
            .build()]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.len(), 1);
        // No put preceded the second read, so the mismatch classifies as EXT
        // per the uniform rule (the "base" — here the first observation —
        // is what disagrees).
        assert!(matches!(
            out.report.violations[0],
            Violation::Ext { tid: TxnId(1), op_index: 1, .. }
        ));
    }

    #[test]
    fn ext_violation_reads_stale_frontier() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(7)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(0)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Ext), 1);
        match &out.report.violations[0] {
            Violation::Ext { expected, observed, .. } => {
                assert_eq!(*expected, Snapshot::Scalar(Value(7)));
                assert_eq!(*observed, Snapshot::Scalar(Value(0)));
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn concurrent_read_misses_uncommitted_write() {
        // T2 starts inside T1's interval: must NOT see T1's write.
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 5).put(Key(1), Value(9)).build(),
            TxnBuilder::new(2).session(1, 0).interval(2, 3).read(Key(1), Value(0)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert!(out.is_ok(), "{}", out.report);
    }

    #[test]
    fn noconflict_requires_overlap() {
        // Sequential writers to the same key: no conflict.
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 4).put(Key(1), Value(2)).build(),
        ]);
        assert!(check_si(&h, &ChronosOptions::default()).is_ok());
    }

    #[test]
    fn noconflict_three_way_overlap_reports_each_pair_once() {
        // Three overlapping writers of k: pairs (a,b), (a,c), (b,c) — each
        // reported exactly once by the earlier committer.
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 4).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(2, 5).put(Key(1), Value(2)).build(),
            TxnBuilder::new(3).session(2, 0).interval(3, 6).put(Key(1), Value(3)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::NoConflict), 3, "{}", out.report);
        // Reads of the final frontier reflect the last committer.
        let h2 = {
            let mut h2 = h.clone();
            h2.push(TxnBuilder::new(4).session(3, 0).interval(7, 8).read(Key(1), Value(3)).build());
            h2
        };
        let out2 = check_si(&h2, &ChronosOptions::default());
        assert_eq!(out2.report.count(AxiomKind::Ext), 0);
    }

    #[test]
    fn readonly_txn_with_equal_timestamps() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 3).read(Key(1), Value(1)).build(),
        ]);
        assert!(check_si(&h, &ChronosOptions::default()).is_ok());
    }

    #[test]
    fn malformed_start_after_commit_reported_not_poisoning() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(9, 3).put(Key(1), Value(1)).build(),
            // A later well-formed writer of the same key must not be flagged
            // as conflicting with the malformed ghost.
            TxnBuilder::new(2).session(1, 0).interval(10, 11).put(Key(1), Value(2)).build(),
            TxnBuilder::new(3).session(2, 0).interval(12, 13).read(Key(1), Value(2)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Integrity), 1);
        assert_eq!(out.report.count(AxiomKind::NoConflict), 0);
        assert_eq!(out.report.count(AxiomKind::Ext), 0, "{}", out.report);
    }

    #[test]
    fn list_history_valid_appends() {
        let k = Key(1);
        let h = list(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).append(k, Value(1)).build(),
            TxnBuilder::new(2)
                .session(1, 0)
                .interval(3, 4)
                .append(k, Value(2))
                .read_list(k, vec![Value(1), Value(2)])
                .build(),
            TxnBuilder::new(3)
                .session(2, 0)
                .interval(5, 6)
                .read_list(k, vec![Value(1), Value(2)])
                .build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert!(out.is_ok(), "{}", out.report);
    }

    #[test]
    fn list_history_prefix_mismatch_is_ext() {
        let k = Key(1);
        let h = list(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).append(k, Value(1)).build(),
            // Reads [2] after appending 2: lost the committed prefix [1].
            TxnBuilder::new(2)
                .session(1, 0)
                .interval(3, 4)
                .append(k, Value(2))
                .read_list(k, vec![Value(2)])
                .build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "{}", out.report);
    }

    #[test]
    fn list_history_lost_append_is_int() {
        let k = Key(1);
        let h = list(vec![TxnBuilder::new(1)
            .session(0, 0)
            .interval(1, 2)
            .append(k, Value(1))
            .read_list(k, vec![])
            .build()]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.report.count(AxiomKind::Int), 1, "{}", out.report);
    }

    #[test]
    fn gc_policies_do_not_change_verdict() {
        use IsolationLevel::{ReadCommitted, Ser, Si};
        let x = Key(1);
        let w = |tid, sid, s, c, v| {
            TxnBuilder::new(tid).session(sid, 0).interval(s, c).put(x, Value(v)).build()
        };
        let r = |tid, sid, s, c, v| {
            TxnBuilder::new(tid).session(sid, 0).interval(s, c).read(x, Value(v)).build()
        };
        // Each history with one (level, axiom) it must be flagged for.
        let cases = [
            // Overlapping writers, then a frontier read.
            (vec![w(1, 0, 1, 4, 1), w(2, 1, 2, 5, 2), r(3, 2, 6, 7, 2)], Si, AxiomKind::NoConflict),
            // A value nobody committed.
            (vec![w(1, 0, 1, 2, 1), r(2, 1, 3, 4, 9)], ReadCommitted, AxiomKind::Ext),
            // A read of the snapshot a concurrent writer replaced.
            (vec![w(0, 0, 1, 2, 1), w(1, 1, 3, 6, 2), r(2, 2, 4, 7, 1)], Ser, AxiomKind::Ext),
            // An Eq. (1)-malformed reader: its commit event precedes its
            // start event, which must still find the operations after a
            // sweep ran in between.
            (vec![w(1, 0, 1, 2, 1), r(2, 1, 9, 3, 7), w(3, 2, 4, 5, 2)], Si, AxiomKind::Ext),
        ];
        for (txns, flagged_at, axiom) in cases {
            let h = kv(txns);
            for &level in IsolationLevel::ALL {
                let base = check(&h, level, &ChronosOptions::with_gc(GcPolicy::Never)).report;
                if level == flagged_at {
                    assert_eq!(base.count(axiom), 1, "{level}: {base}");
                }
                for gc in [GcPolicy::Fast, GcPolicy::EveryN(1), GcPolicy::EveryN(2)] {
                    let r = check(&h, level, &ChronosOptions::with_gc(gc)).report;
                    assert_eq!(r.violations, base.violations, "{level}, {gc:?}");
                }
            }
        }
    }

    #[test]
    fn empty_history_passes() {
        let out = check_si(&kv(vec![]), &ChronosOptions::default());
        assert!(out.is_ok());
        assert_eq!(out.txns, 0);
    }

    #[test]
    fn overwrites_within_txn_publish_final_value() {
        let h = kv(vec![
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(1, 2)
                .put(Key(1), Value(1))
                .put(Key(1), Value(2))
                .build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(2)).build(),
        ]);
        assert!(check_si(&h, &ChronosOptions::default()).is_ok());
    }

    #[test]
    fn peak_open_txns_tracks_concurrency() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 10).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(2, 11).put(Key(2), Value(1)).build(),
            TxnBuilder::new(3).session(2, 0).interval(3, 12).put(Key(3), Value(1)).build(),
        ]);
        let out = check_si(&h, &ChronosOptions::default());
        assert_eq!(out.peak_open_txns, 3);
        // A commit-anchored level runs each transaction whole at its
        // commit event: never more than one open.
        for &level in IsolationLevel::ALL {
            let expected = match level.checks().anchor {
                ReadAnchor::Start => 3,
                ReadAnchor::Commit => 1,
            };
            let out = check(&h, level, &ChronosOptions::default());
            assert_eq!(out.peak_open_txns, expected, "{level}");
        }
    }

    /// One hot key with a long version chain: every reader observes a
    /// version from half-way back — stale, so EXT at SI, but committed, so
    /// legal at RC — and a last reader a value nobody wrote.
    #[test]
    fn single_hot_key_membership_under_rc() {
        let x = Key(1);
        let mut txns = Vec::new();
        for i in 0..20_000u64 {
            let (ts, sno) = (4 * i + 1, i as u32);
            txns.push(
                TxnBuilder::new(2 * i).session(0, sno).interval(ts, ts + 1).put(x, Value(i + 1)),
            );
            txns.push(
                TxnBuilder::new(2 * i + 1)
                    .session(1, sno)
                    .interval(ts + 2, ts + 3)
                    .read(x, Value(i / 2 + 1)),
            );
        }
        let mut h = kv(txns.into_iter().map(TxnBuilder::build).collect());
        assert!(check_rc(&h, &ChronosOptions::default()).is_ok());
        assert_eq!(check_si_report(&h).count(AxiomKind::Ext), 19_999, "all but reader 0 are stale");

        let reader = |tid: u64, sid, v| {
            let ts = 2 * tid + 1;
            TxnBuilder::new(tid).session(sid, 0).interval(ts, ts + 1).read(x, Value(v)).build()
        };
        h.push(reader(40_000, 2, 0));
        h.push(reader(40_001, 3, 77_777));
        let out = check_rc(&h, &ChronosOptions::default());
        assert_eq!(out.report.len(), 1, "the initial value is a member, 77777 is not");
        assert!(matches!(out.report.violations[0], Violation::Ext { tid: TxnId(40_001), .. }));
    }
}
