//! Algorithm 3 as the session surface: [`OnlineChecker`]'s [`Checker`]
//! impl — `feed` names an arrival's stages in the paper's order, each a
//! plain function over the per-arrival [`Footprint`]; `tick` is the
//! `TIMEOUT` procedure `feed` runs first.

use super::{aion_level_name, anchor_event, OnlineChecker, OnlineTxn, ReadState};
use crate::feed::shard_of;
use crate::index::{OngoingWriter, ReadRef};
use aion_types::{
    apply, base_independent, classify_mismatch, expected_read, CheckEvent, Checker, DataKind,
    EventKey, ExtPredicate, IsolationLevel, Key, MismatchAxiom, Mutation, Op, Outcome, Snapshot,
    Timestamp, Transaction, TxnId, Violation,
};
use std::cmp::Reverse;

/// Everything the stages derive about one arrival before it becomes a
/// resident [`OnlineTxn`].
struct Footprint {
    txn: Transaction,
    level: IsolationLevel,
    /// Where this transaction's reads anchor, per its level.
    anchor: EventKey,
    reads: Vec<ReadState>,
    /// Published value per written key, sorted by key.
    write_set: Vec<(Key, Snapshot)>,
    anchor_keys: Vec<Key>,
}

/// Buffers the stages fill and empty within one arrival, kept so no
/// arrival allocates them afresh. Bounded by the largest transaction and
/// the widest trigger window; outside the memory estimate and checkpoint.
#[derive(Default)]
pub(super) struct Scratch {
    /// The arrival's mutations, in program order.
    muts: Vec<(Key, Mutation)>,
    /// Keys whose first access was a read, with that observation.
    anchored: Vec<(Key, Snapshot)>,
    readers: Vec<(EventKey, ReadRef)>,
    writers: Vec<(EventKey, TxnId)>,
}

/// The violation a mismatching read amounts to under `axiom`.
fn mismatch_violation(
    axiom: MismatchAxiom,
    tid: TxnId,
    r: &ReadState,
    expected: Snapshot,
) -> Violation {
    let (key, op_index, observed) = (r.key, r.op_index as usize, r.observed.clone());
    match axiom {
        MismatchAxiom::Int => Violation::Int { tid, key, op_index, expected, observed },
        MismatchAxiom::Ext => Violation::Ext { tid, key, op_index, expected, observed },
    }
}

impl Checker for OnlineChecker {
    /// `"aion-<level>"` for uniform sessions, `"aion-mixed"` for
    /// per-session/per-transaction policies.
    fn name(&self) -> &'static str {
        aion_level_name(&self.cfg.levels)
    }

    /// Advance the clock to `now_ms` — finalizing every transaction whose
    /// EXT timeout that expires, exactly as [`Checker::tick`] would — then
    /// admit `txn`. Returns the finalizations and their EXT violations
    /// first, then what the arrival produced: definitive violations,
    /// tentative verdict flips of earlier transactions, GC spill passes.
    fn feed(&mut self, txn: Transaction, now_ms: u64) -> Vec<CheckEvent> {
        self.expire_until(now_ms);
        self.stats.received += 1;
        let level = self.cfg.levels.level_for(&txn);
        if self.admit(&txn, level) {
            self.reload_if_below_horizon(&txn, level);
            let mut fp = self.derive_footprint(txn, level);
            self.step1_tentative(&mut fp);
            let tid = fp.txn.tid;
            let overlaps = self.admit_resident(fp);
            self.step2_noconflict(tid, overlaps);
            self.process_triggers(); // step ③
            self.maybe_gc();
            self.stats.peak_resident_txns = self.stats.peak_resident_txns.max(self.txns.len());
        }
        self.take_events()
    }

    /// The paper's `TIMEOUT` procedure for idle time and end of stream:
    /// advance the (virtual) clock and finalize every transaction whose
    /// EXT timeout has expired.
    fn tick(&mut self, now_ms: u64) -> Vec<CheckEvent> {
        self.expire_until(now_ms);
        self.take_events()
    }

    /// Finalize everything regardless of deadlines and produce the
    /// outcome.
    fn finish(mut self) -> Outcome {
        while let Some(Reverse((_, tid))) = self.deadlines.pop() {
            self.finalize_txn(tid);
        }
        Outcome::new(self.name(), self.report, self.stats.received)
            .with_stats(self.stats)
            .with_flips(self.flips.0)
    }

    /// Rough estimate of live checker memory, for the constrained-memory
    /// experiment (Fig. 16) and the daemon's admission control.
    ///
    /// Covers the resident transactions and versioned indexes, the
    /// spill store's held segments (the in-memory backend keeps the bytes
    /// of every segment not yet reloaded, so spilling without a disk path
    /// trades resident state for its encoding rather than freeing it),
    /// and the transient event/deadline/trigger buffers. The `memory_estimate_*` test pins this arithmetic
    /// against the component accessors.
    ///
    /// O(1): every term is a length or a counter maintained where state
    /// enters or leaves, so the cost does not grow with the history.
    /// Tests and debug builds check the figure against a full recount
    /// on every call.
    fn estimated_memory_bytes(&self) -> usize {
        let bytes = self.state_bytes_estimate() + self.spill.buffered_bytes() + self.buffer_bytes();
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(bytes, self.recount_memory_bytes(), "resident-byte counters drifted");
        bytes
    }
}

impl OnlineChecker {
    /// SESSION and integrity. Under a sharding coordinator these already
    /// ran exactly once for the whole transaction (through the same
    /// [`super::GlobalChecks`]); a worker only sees well-formed,
    /// deduplicated sub-footprints.
    fn admit(&mut self, txn: &Transaction, level: IsolationLevel) -> bool {
        let on = self.cfg.events;
        self.cfg.worker.is_some()
            || self.globals.admit(txn, level, |v| {
                super::record_violation(on, &mut self.events, &mut self.report, v)
            })
    }

    /// A deep straggler — one anchored at or below the GC horizon —
    /// needs the spilled state back before it is checked.
    fn reload_if_below_horizon(&mut self, txn: &Transaction, level: IsolationLevel) {
        if self.gc_horizon_ts.is_some_and(|horizon| anchor_event(txn, level).ts <= horizon) {
            // An append can change the published value of every later
            // writer of its key, spilled ones included, so a list writer
            // needs all of them back.
            let writes_list = self.cfg.kind == DataKind::List && !txn.ops.iter().all(Op::is_read);
            // A failed segment already surfaced as a `SpillError` event
            // and stays in the spill store, so a later straggler retries it.
            let _ = self.reload_below(if writes_list { Timestamp::MAX } else { txn.commit_ts });
        }
    }

    /// Derive the read states and the write set.
    ///
    /// `anchored` mirrors CHRONOS's `int_val` rule: the *first* access to
    /// a key being a read pins that observation as the base for every
    /// later access to the key in this transaction. Such later reads are
    /// stable under asynchrony (they do not consult the frontier) and
    /// settle immediately; only first reads (and reads over write-first
    /// append chains) are frontier-dependent and tentative.
    fn derive_footprint(&mut self, txn: Transaction, level: IsolationLevel) -> Footprint {
        let anchor = anchor_event(&txn, level);
        let mut s = std::mem::take(&mut self.scratch);
        s.muts.clear();
        s.anchored.clear();
        // Foreign keys belong to another shard worker; skipping them
        // (rather than re-numbering a filtered ops vector) keeps
        // `op_index` anchored to program order.
        let (worker, shards) = (self.cfg.worker, self.cfg.shards);
        let mine = |op: &Op| worker.is_none_or(|w| shard_of(op.key(), shards) == w);
        let is_read = |op: &&Op| matches!(op, Op::Read { .. }) && mine(op);
        let mut reads = Vec::with_capacity(txn.ops.iter().filter(is_read).count());
        for (op_index, op) in txn.ops.iter().enumerate().filter(|(_, op)| mine(op)) {
            match op {
                Op::Write { key, mutation } => s.muts.push((*key, *mutation)),
                Op::Read { key, value } => {
                    let earlier = s.muts.iter().filter(|(k, _)| k == key);
                    let mut r = ReadState {
                        op_index: op_index as u32,
                        key: *key,
                        observed: value.clone(),
                        muts_before: earlier.map(|(_, m)| *m).collect(),
                        ok: true,
                        settled: false,
                        wrong_since: None,
                        flips: 0,
                    };
                    if let Some((_, base)) = s.anchored.iter().find(|(k, _)| k == key) {
                        // Internal consistency vs. the anchored
                        // observation: stable — verdict final now.
                        let expected = expected_read(base, &r.muts_before);
                        if expected != r.observed {
                            let axiom = classify_mismatch(&r.muts_before, &r.observed);
                            self.emit(mismatch_violation(axiom, txn.tid, &r, expected));
                        }
                        r.settled = true;
                    } else if r.muts_before.is_empty() {
                        // First access to the key is this read: anchor it.
                        s.anchored.push((*key, value.clone()));
                    }
                    reads.push(r);
                }
            }
        }
        // Published value per key: fold over the anchored observation when
        // the key was read first (CHRONOS's int_val chain), else over the
        // frontier snapshot at the anchor event. The sort is stable, so
        // each key's mutations stay in program order.
        s.muts.sort_by_key(|(key, _)| *key);
        let per_key = || s.muts.chunk_by(|a, b| a.0 == b.0);
        let mut write_set = Vec::with_capacity(per_key().count());
        for (key, run) in per_key().filter_map(|run| Some((run.first()?.0, run))) {
            let first_read = s.anchored.iter().find(|(k, _)| *k == key);
            let base = first_read.map_or_else(|| self.frontier_at(key, anchor), |(_, v)| v.clone());
            write_set.push((key, run.iter().fold(base, |cur, (_, m)| apply(&cur, m))));
        }
        let mut anchor_keys: Vec<Key> = s.anchored.iter().map(|(key, _)| *key).collect();
        anchor_keys.sort_unstable();
        self.scratch = s;
        Footprint { txn, level, anchor, reads, write_set, anchor_keys }
    }

    /// Step ①: tentative EXT verdicts against the versions known now.
    fn step1_tentative(&mut self, fp: &mut Footprint) {
        let ext = fp.level.checks().ext;
        for r in fp.reads.iter_mut().filter(|r| !r.settled) {
            if self.read_ok(ext, r.key, fp.anchor, &r.muts_before, &r.observed) {
                // A committed-predicate `ok` is final when versions are
                // never withdrawn (the membership set only grows), so the
                // read settles now instead of riding the reader index —
                // and the timeout queue — until its deadline.
                r.settled =
                    ext == ExtPredicate::Committed && self.committed_ok_is_final(&r.muts_before);
                continue;
            }
            match classify_mismatch(&r.muts_before, &r.observed) {
                MismatchAxiom::Int => {
                    // Stable under asynchrony: report immediately.
                    let expected =
                        expected_read(&self.frontier_at(r.key, fp.anchor), &r.muts_before);
                    self.emit(mismatch_violation(MismatchAxiom::Int, fp.txn.tid, r, expected));
                    r.settled = true;
                }
                MismatchAxiom::Ext => {
                    r.ok = false;
                    r.wrong_since = Some(self.now_ms);
                }
            }
        }
    }

    /// Make the arrival resident — indexed at its anchor, published at
    /// its commit event, with an EXT deadline while any of its reads is
    /// still tentative — and queue step ③ for each written key. Returns
    /// the writers each written key overlaps, for step ②.
    fn admit_resident(&mut self, fp: Footprint) -> Vec<(Key, Vec<OngoingWriter>)> {
        let Footprint { txn, level, reads, write_set, anchor_keys, .. } = fp;
        let finalized = reads.iter().all(|r| r.settled);
        let deadline = if finalized {
            self.stats.finalized += 1;
            None
        } else {
            Some(self.now_ms.saturating_add(self.cfg.ext_timeout_ms))
        };
        let commit_ev = txn.commit_event();
        self.triggers.extend(write_set.iter().map(|(key, _)| (*key, commit_ev)));
        let t = OnlineTxn { txn, level, write_set, reads, anchor_keys, finalized };
        self.make_resident(t, deadline, false)
    }

    /// The one way a transaction becomes resident — at arrival, at spill
    /// reload and at re-shard — keeping each key-table role only where a
    /// stage reads it: unsettled reads at the anchor (step ③), list
    /// writes at the anchor (step ③'s cascade, which no other kind has),
    /// the write set at the commit event (with its membership summary
    /// when the policy can produce a committed-predicate read), write
    /// intervals while the policy can activate NOCONFLICT (step ②), and a
    /// `deadline` for EXT finalization. Each written key is looked up
    /// once. Returns, per written key, the registered writers
    /// whose intervals overlap — none when `silent`, for a transaction
    /// whose conflicts were reported before.
    pub(crate) fn make_resident(
        &mut self,
        t: OnlineTxn,
        deadline: Option<u64>,
        silent: bool,
    ) -> Vec<(Key, Vec<OngoingWriter>)> {
        let (tid, anchor) = (t.txn.tid, t.anchor());
        let (start_ev, commit_ev) = (t.txn.start_event(), t.txn.commit_event());
        for (idx, r) in t.reads.iter().enumerate().filter(|(_, r)| !r.settled) {
            self.keys.entry(r.key).add_reader(anchor, ReadRef { tid, read_idx: idx as u32 });
        }
        let list = self.cfg.kind == DataKind::List;
        let noconflict = t.level.checks().noconflict;
        let mut overlaps = Vec::new();
        for (key, snap) in &t.write_set {
            let mut k = self.keys.entry(*key);
            if list {
                k.add_writer(anchor, tid);
            }
            k.publish(commit_ev, snap, None, self.has_committed_ext);
            if self.track_overlaps {
                let others = k.register(tid, noconflict, start_ev, commit_ev, silent);
                if !others.is_empty() {
                    overlaps.push((*key, others));
                }
            }
        }
        if let Some(deadline) = deadline {
            self.deadlines.push(Reverse((deadline, tid)));
        }
        self.insert_txn(t);
        overlaps
    }

    /// Step ②: NOCONFLICT from the overlaps `tid`'s registration found.
    ///
    /// Every writer registers whenever *some* level of the policy
    /// activates NOCONFLICT (an overlap is a pair property — the
    /// partner's level matters too); a conflict is reported when either
    /// member's level forbids concurrent writers, following the
    /// mixed-level convention that an SI transaction's
    /// first-committer-wins guarantee binds whoever overlaps it. Each
    /// writer's own NOCONFLICT activation travels *inside* the overlap
    /// index, so the pair rule stays exact even when the partner has
    /// been spilled out of resident memory.
    fn step2_noconflict(&mut self, tid: TxnId, overlaps: Vec<(Key, Vec<OngoingWriter>)>) {
        for (key, others) in overlaps {
            let Some(t) = self.txns.get(&tid) else { return };
            let (mine, commit_ts) = (t.level.checks().noconflict, t.txn.commit_ts);
            for other in others.into_iter().filter(|other| mine || other.noconflict) {
                // The earlier committer reports (matching CHRONOS's
                // convention).
                let other_cts =
                    self.txns.get(&other.tid).map_or(Timestamp::MIN, |t| t.txn.commit_ts);
                let (t1, t2) =
                    if other_cts < commit_ts { (other.tid, tid) } else { (tid, other.tid) };
                self.emit(Violation::NoConflict { key, t1, t2 });
            }
        }
    }

    /// Step ③: re-check readers (and, for lists, dependent writers) in
    /// the window `(from, next version of key)` after a version
    /// insertion at `from`.
    ///
    /// Frontier-predicate readers anchored past the next version of the
    /// key are untouched by construction (their visible frontier did not
    /// change). Committed-predicate (RC) readers have no such window —
    /// *any* version below their anchor can justify their observation —
    /// so when the policy can produce them, a second sweep re-evaluates
    /// just those readers beyond the bound.
    fn process_triggers(&mut self) {
        let mut s = std::mem::take(&mut self.scratch);
        let list = self.cfg.kind == DataKind::List;
        while let Some((key, from)) = self.triggers.pop_front() {
            let Some(k) = self.keys.get(key) else { continue };
            let bound = if self.cfg.naive_recheck {
                EventKey::INFINITY
            } else {
                k.next_version_after(from).unwrap_or(EventKey::INFINITY)
            };
            // Committed-predicate readers beyond the bound come after the
            // window's, in the same event order.
            let hi = if self.has_committed_ext { EventKey::INFINITY } else { bound };
            k.readers_in(from, hi, &mut s.readers);
            if list {
                // Append results depend on their base snapshot: writers in
                // the window must recompute and cascade.
                k.writers_in(from, bound, &mut s.writers);
            }
            for &(anchor_ev, rref) in &s.readers {
                self.re_evaluate(rref, key, anchor_ev, anchor_ev > bound);
            }
            for &(anchor_ev, wtid) in &s.writers {
                self.recompute_writer(wtid, key, anchor_ev);
            }
        }
        self.scratch = s;
    }

    /// True when a committed-predicate read that currently holds `ok`
    /// can never lose it: outside [`DataKind::List`] no published
    /// version is ever withdrawn (only list cascades revise), so the
    /// committed-membership set for a first read only grows, and a
    /// base-dependent read-over-writes falls back to the (mutable)
    /// frontier only for lists. Such a verdict is safe to settle early.
    fn committed_ok_is_final(&self, muts: &[Mutation]) -> bool {
        self.cfg.kind != DataKind::List && (muts.is_empty() || base_independent(muts))
    }

    /// Re-check one tentative read against the versions known now. A
    /// `committed_only` sweep leaves frontier readers — unaffected beyond
    /// the window — alone.
    fn re_evaluate(&mut self, rref: ReadRef, key: Key, anchor_ev: EventKey, committed_only: bool) {
        // Verdict frozen once finalized (paper lines 40–41), or gone.
        let Some(t) = self.txns.get(&rref.tid).filter(|t| !t.finalized) else { return };
        let ext = t.level.checks().ext;
        if committed_only && ext != ExtPredicate::Committed {
            return;
        }
        let Some(r) = t.reads.get(rref.read_idx as usize).filter(|r| !r.settled) else { return };
        let ok = self.read_ok(ext, key, anchor_ev, &r.muts_before, &r.observed);
        self.stats.reevaluations += 1;
        if ok == r.ok {
            return;
        }
        // A justified committed read is settled for good — later
        // publishes to this key can stop re-evaluating it.
        let settles =
            ok && ext == ExtPredicate::Committed && self.committed_ok_is_final(&r.muts_before);
        let (tid, now_ms) = (rref.tid, self.now_ms);
        let rectified_after_ms = r.wrong_since.filter(|_| ok).map(|w| now_ms.saturating_sub(w));
        // The pair's and the transaction's flips so far, as their reads count them.
        let pair_before: usize =
            t.reads.iter().filter(|r| r.key == key).map(|r| usize::from(r.flips)).sum();
        let first_of_txn = t.reads.iter().all(|r| r.flips == 0);
        self.flips.record_flip(pair_before, first_of_txn, rectified_after_ms);
        self.emit_event(|| CheckEvent::VerdictFlip { tid, key, rectified_after_ms });
        let read = self.txns.get_mut(&tid).and_then(|t| t.reads.get_mut(rref.read_idx as usize));
        if let Some(r) = read {
            r.ok = ok;
            r.wrong_since = if ok { None } else { Some(now_ms) };
            r.settled = settles;
            r.flips = r.flips.saturating_add(1);
        }
    }

    /// Recompute a (list) writer's published snapshot for `key` when its
    /// base changed; cascades through the frontier if the value differs.
    fn recompute_writer(&mut self, wtid: TxnId, key: Key, anchor_ev: EventKey) {
        let Some(t) = self.txns.get(&wtid) else { return };
        if t.anchor_keys.contains(&key) {
            return; // published value folds over the anchored observation
        }
        let muts: Vec<Mutation> = t
            .txn
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Write { key: k, mutation } if *k == key => Some(*mutation),
                _ => None,
            })
            .collect();
        if muts.is_empty() || base_independent(&muts) {
            return; // Put-rooted values never change with the base
        }
        let new_snap = expected_read(&self.frontier_at(key, anchor_ev), &muts);
        let commit_ev = t.txn.commit_event();
        let entry =
            self.txns.get_mut(&wtid).and_then(|t| t.write_set.iter_mut().find(|e| e.0 == key));
        let Some((_, published)) = entry.filter(|e| e.1 != new_snap) else { return };
        // The cascade *revises* this published version: the old value was
        // never a committed observation, so the membership entry moves
        // with it.
        let old = std::mem::replace(published, new_snap.clone());
        self.keys.entry(key).publish(commit_ev, &new_snap, Some(&old), self.has_committed_ext);
        self.triggers.push_back((key, commit_ev));
    }

    // --- TIMEOUT -------------------------------------------------------------

    /// Move the clock to `now_ms` (never backwards) and finalize every
    /// transaction whose EXT deadline is due — what `feed` and `tick`
    /// both start with.
    fn expire_until(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        while let Some(&Reverse((deadline, tid))) = self.deadlines.peek() {
            if deadline > self.now_ms {
                break;
            }
            self.deadlines.pop();
            self.finalize_txn(tid);
        }
    }

    /// Finalize the EXT verdicts of one transaction (paper `TIMEOUT`).
    fn finalize_txn(&mut self, tid: TxnId) {
        let Some(t) = self.txns.get(&tid).filter(|t| !t.finalized) else { return };
        let anchor = t.anchor();
        let violations: Vec<Violation> = t
            .reads
            .iter()
            .filter(|r| !r.ok && !r.settled)
            .map(|r| {
                let expected = expected_read(&self.frontier_at(r.key, anchor), &r.muts_before);
                mismatch_violation(MismatchAxiom::Ext, tid, r, expected)
            })
            .collect();
        let n = violations.len() as u32;
        for v in violations {
            self.emit(v);
        }
        self.emit_event(|| CheckEvent::ExtFinalized { tid, violations: n });
        if let Some(t) = self.txns.get_mut(&tid) {
            t.finalized = true;
        }
        self.stats.finalized += 1;
    }
}
