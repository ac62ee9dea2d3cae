//! Admission: the checks on an arrival that need the whole transaction
//! and the whole session stream, run before any per-key state is touched.

use aion_types::{
    CheckEvent, CheckReport, FxHashMap, FxHashSet, IsolationLevel, SessionId, SessionPredicate,
    Timestamp, Transaction, TxnId, Violation,
};

/// The global (cross-key) admission checks: history integrity
/// (duplicate tids/timestamps, Eq. 1 well-formedness) and SESSION.
///
/// Owned in exactly one place per session — by [`super::OnlineChecker`] when
/// it runs standalone, by the sharding coordinator when it is one of
/// its shard workers — so that single and sharded checking share this code
/// *structurally* instead of keeping two copies in sync.
#[derive(Debug, Default)]
pub(crate) struct GlobalChecks {
    pub(crate) all_tids: FxHashSet<TxnId>,
    pub(crate) ts_owner: FxHashMap<Timestamp, TxnId>,
    pub(crate) next_sno: FxHashMap<SessionId, u32>,
    pub(crate) last_cts: FxHashMap<SessionId, Timestamp>,
}

impl GlobalChecks {
    /// These tables' share of the memory estimate: a tid and up to two
    /// timestamps per admitted transaction, kept for the whole session,
    /// and two entries per session, each costed at its key and value
    /// plus half again for the hash table's control bytes and slack.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.all_tids.len() * 12
            + self.ts_owner.len() * 24
            + self.next_sno.len() * 12
            + self.last_cts.len() * 24
    }

    /// Run every global check on one arrival, pushing violations
    /// through `emit` in report order. Returns `false` when the
    /// transaction is malformed (duplicate tid, or Eq. 1) and must not
    /// touch any versioned state.
    pub(crate) fn admit(
        &mut self,
        txn: &Transaction,
        level: IsolationLevel,
        mut emit: impl FnMut(Violation),
    ) -> bool {
        // --- integrity ---------------------------------------------------
        if !self.all_tids.insert(txn.tid) {
            emit(Violation::DuplicateTid { tid: txn.tid });
            return false;
        }
        let commit_ts = (txn.commit_ts != txn.start_ts).then_some(txn.commit_ts);
        for ts in [Some(txn.start_ts), commit_ts].into_iter().flatten() {
            match self.ts_owner.get(&ts) {
                Some(&owner) if owner != txn.tid => {
                    emit(Violation::DuplicateTimestamp { ts, t1: owner, t2: txn.tid });
                }
                _ => {
                    self.ts_owner.insert(ts, txn.tid);
                }
            }
        }

        // --- SESSION -----------------------------------------------------
        let expected = self.next_sno.get(&txn.sid).copied().unwrap_or(0);
        let last_cts = self.last_cts.get(&txn.sid).copied().unwrap_or(Timestamp::MIN);
        let violated = match level.checks().session {
            // Snapshot-ordered levels (SI, RA): must follow the
            // predecessor and start after it committed.
            SessionPredicate::SnapshotOrder => txn.sno != expected || txn.start_ts < last_cts,
            // Commit-ordered levels (SER, RC): start timestamps are
            // ignored; session order must embed into commit order.
            SessionPredicate::CommitOrder => txn.sno != expected || txn.commit_ts <= last_cts,
        };
        if violated {
            emit(Violation::Session {
                tid: txn.tid,
                sid: txn.sid,
                expected_sno: expected,
                found_sno: txn.sno,
                start_ts: txn.start_ts,
                last_commit_ts: last_cts,
            });
        }
        // Saturating: a session that reaches `u32::MAX` stays there rather
        // than wrapping to 0 and accepting a restarted session.
        self.next_sno.insert(txn.sid, txn.sno.saturating_add(1));
        self.last_cts.insert(txn.sid, txn.commit_ts);

        // --- Eq. (1) -----------------------------------------------------
        if txn.start_ts > txn.commit_ts {
            emit(Violation::TimestampOrder {
                tid: txn.tid,
                start_ts: txn.start_ts,
                commit_ts: txn.commit_ts,
            });
            return false; // malformed: do not poison the versioned state
        }
        true
    }
}

/// Commit a violation to `report` and, when events are on, to the event
/// stream — how both checker types record what [`GlobalChecks::admit`]
/// (and, for the single checker, every later stage) finds.
pub(crate) fn record_violation(
    events_on: bool,
    events: &mut Vec<CheckEvent>,
    report: &mut CheckReport,
    v: Violation,
) {
    if events_on {
        events.push(CheckEvent::Violation(v.clone()));
    }
    report.push(v);
}
