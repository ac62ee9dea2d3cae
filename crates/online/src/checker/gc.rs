//! Garbage collection: spilling finalized transactions below the safe
//! horizon to the [`crate::spill`] store, pruning the versioned state
//! behind them, and reloading them for deep stragglers (paper §III-C3).

use super::{OnlineChecker, OnlineGcPolicy, OnlineTxn};
use crate::spill::SpillEntry;
use aion_types::codec::CodecError;
use aion_types::{CheckEvent, EventKey, Key, Op, SpillOp, Timestamp};

impl OnlineChecker {
    pub(super) fn maybe_gc(&mut self) {
        let (threshold, target) = match self.cfg.gc {
            OnlineGcPolicy::None => return,
            OnlineGcPolicy::Checking { max_txns } => (max_txns, max_txns / 2),
            OnlineGcPolicy::Full { max_txns } => (max_txns, max_txns.saturating_sub(1)),
        };
        if self.txns.len() > threshold {
            self.spill_down_to(target);
        }
    }

    /// The oldest anchor of any live (unfinalized) transaction. Nothing
    /// at or above it may be spilled — its verdicts can still change
    /// (paper: asynchrony may prevent recycling anything).
    fn safe_horizon(&self) -> EventKey {
        // A commutative min-fold: hash visit order cannot affect it.
        self.txns
            .values()
            .filter(|t| !t.finalized)
            .map(OnlineTxn::anchor)
            .min()
            .unwrap_or(EventKey::INFINITY)
    }

    /// The finalized transactions below `safe_horizon`, oldest commit
    /// first, that bring the resident count down to `target`.
    fn spill_candidates(&self, safe_horizon: EventKey, target: usize) -> Vec<SpillEntry> {
        let mut candidates: Vec<(EventKey, &OnlineTxn)> = self
            .txns
            .values()
            .filter(|t| t.finalized && t.txn.commit_event() < safe_horizon)
            .map(|t| (t.txn.commit_event(), t))
            .collect();
        candidates.sort_unstable_by_key(|(commit_ev, _)| *commit_ev);
        candidates.truncate(self.txns.len().saturating_sub(target));
        candidates
            .into_iter()
            .map(|(_, t)| SpillEntry { txn: t.txn.clone(), write_set: t.write_set.clone() })
            .collect()
    }

    /// Spill finalized transactions (oldest first) until at most `target`
    /// transactions remain resident, or no more can be safely spilled.
    fn spill_down_to(&mut self, target: usize) {
        let safe_horizon = self.safe_horizon();
        // Encode from borrowed state and only evict on success: a failed
        // write keeps every candidate resident (memory is simply not
        // reclaimed this pass) and surfaces as a typed event, never a
        // panic. The clone is dominated by the encoding work either way.
        let entries = self.spill_candidates(safe_horizon, target);
        let Some(last_commit) = entries.iter().map(|e| e.txn.commit_ts).max() else {
            return; // worst case: asynchrony blocks all recycling
        };
        let bytes = match self.spill.spill(&entries) {
            Ok(bytes) => bytes as u64,
            Err(e) => {
                self.stats.spill_errors += 1;
                let detail = e.to_string();
                self.emit_event(|| CheckEvent::SpillError { op: SpillOp::Write, detail });
                return;
            }
        };
        for e in &entries {
            self.remove_txn(e.txn.tid);
        }
        self.stats.gc_spills += 1;
        self.stats.spilled_txns += entries.len();
        self.stats.spill_bytes += bytes;
        let (spilled, resident_after) = (entries.len(), self.txns.len());
        self.emit_event(|| CheckEvent::SpillPass { spilled, bytes, resident_after });
        self.gc_horizon_ts = Some(self.gc_horizon_ts.map_or(last_commit, |h| h.max(last_commit)));
        self.prune_versions(safe_horizon);
    }

    /// Prune versioned state below the oldest event any retained
    /// transaction can still anchor a query at.
    fn prune_versions(&mut self, safe_horizon: EventKey) {
        // Order-insensitive, like `safe_horizon`'s fold.
        let horizon = self.txns.values().map(OnlineTxn::anchor).fold(safe_horizon, EventKey::min);
        // The frontier-exact levels only ever query the latest version
        // below an anchor, which the prune keeps per key as its base. RC's
        // membership predicate has no such base — *any* committed version
        // below the anchor can justify a read — but that question is
        // answered by the committed-membership summaries, which the prune
        // only compacts (shedding the events behind a frozen per-value
        // minimum), so the frontier sheds its chains under RC/mixed
        // policies too and the summaries stay bounded by the live window
        // plus one entry per distinct (key, value) pair.
        self.keys.prune_below(horizon);
    }

    /// Reload every spilled segment that could matter for an arrival whose
    /// anchor reaches at or below the GC horizon. Conservative: a read may
    /// need the latest version committed long before its anchor, so every
    /// segment whose first start is at or below `hi` is brought back. A
    /// reload consumes its segment, so afterwards no segment at or below
    /// `hi` is left in the store and a later pass bounded by `hi` has
    /// nothing to do. Returns the first segment failure, if any.
    pub(crate) fn reload_below(&mut self, hi: Timestamp) -> Result<(), CodecError> {
        let (entries, errors) = self.spill.take_below(hi);
        entries.into_iter().for_each(|e| self.rehydrate(e));
        // A segment that fails to reload is skipped — typed degradation
        // (re-checks against it see less history) instead of a panic. It
        // stays in the store, so a later pass retries it.
        for e in &errors {
            self.stats.spill_errors += 1;
            let detail = e.to_string();
            self.emit_event(|| CheckEvent::SpillError { op: SpillOp::Reload, detail });
        }
        errors.into_iter().next().map_or(Ok(()), Err)
    }

    /// Make one reloaded transaction resident again, finalized and
    /// read-less, through [`OnlineChecker::make_resident`] — so it gets
    /// back every index entry it had. Re-publishing its versions is
    /// safe: they are at or below the retained per-key base, so no live
    /// reader's visible version changes (`docs/architecture.md`,
    /// "Per-key version chains"), and idempotent for the membership
    /// summary, which has carried them since they were first published.
    /// Its conflicts were reported before it was spilled.
    fn rehydrate(&mut self, e: SpillEntry) {
        if self.txns.contains_key(&e.txn.tid) {
            return;
        }
        self.stats.reloaded_txns += 1;
        // The policy resolves deterministically, so the reloaded
        // transaction gets exactly the level it was checked at (its
        // declaration survives the spill codec).
        let level = self.cfg.levels.level_for(&e.txn);
        // A written key is anchored iff the first access to it is a read.
        let first_read =
            |key: &Key| e.txn.ops.iter().find(|op| op.key() == *key).is_some_and(Op::is_read);
        let anchor_keys = e.write_set.iter().map(|(key, _)| *key).filter(first_read).collect();
        let t = OnlineTxn {
            txn: e.txn,
            level,
            write_set: e.write_set,
            reads: Vec::new(),
            anchor_keys,
            finalized: true,
        };
        self.make_resident(t, None, true);
    }
}
