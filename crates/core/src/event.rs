//! Event construction and the sorting stage.
//!
//! CHRONOS's first step is to sort all start/commit timestamps in ascending
//! order (paper line 2:2), defining the timestamp-based arbitration order
//! (Definition 5). Building the event list also surfaces integrity issues
//! (Eq. (1), duplicate ids, cross-transaction timestamp collisions) so the
//! simulation loop can assume a sane event stream without panicking on
//! malformed input.

use aion_types::{
    CheckReport, EventKey, EventKind, FxHashMap, History, Timestamp, TxnId, Violation,
};

/// One sortable event: the key plus the index of the owning transaction in
/// the history's transaction vector.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// Ordering key (timestamp, kind, tid).
    pub key: EventKey,
    /// Index into `History::txns`.
    pub idx: u32,
}

/// Build and sort the event list, reporting integrity violations into
/// `report`. Returns events in ascending `EventKey` order.
pub(crate) fn build_events(history: &History, report: &mut CheckReport) -> Vec<Event> {
    let mut events = Vec::with_capacity(history.txns.len() * 2);
    let mut seen_tids: FxHashMap<TxnId, u32> = FxHashMap::default();
    for (i, t) in history.txns.iter().enumerate() {
        let idx = i as u32;
        if seen_tids.insert(t.tid, idx).is_some() {
            report.push(Violation::DuplicateTid { tid: t.tid });
        }
        if t.start_ts > t.commit_ts {
            report.push(Violation::TimestampOrder {
                tid: t.tid,
                start_ts: t.start_ts,
                commit_ts: t.commit_ts,
            });
        }
        events.push(Event { key: t.start_event(), idx });
        events.push(Event { key: t.commit_event(), idx });
    }
    events.sort_unstable_by_key(|e| e.key);
    report_timestamp_collisions(&events, report);
    events
}

/// Scan adjacent sorted events for cross-transaction timestamp collisions.
/// A transaction sharing its own start and commit timestamp is legal
/// (read-only transactions); two *different* transactions sharing one
/// timestamp violates the unique-oracle assumption.
fn report_timestamp_collisions(events: &[Event], report: &mut CheckReport) {
    let mut last: Option<(Timestamp, TxnId)> = None;
    for e in events {
        if let Some((ts, tid)) = last {
            if ts == e.key.ts && tid != e.key.tid {
                report.push(Violation::DuplicateTimestamp { ts, t1: tid, t2: e.key.tid });
            }
        }
        last = Some((e.key.ts, e.key.tid));
    }
}

/// Convenience: is this event a start event?
impl Event {
    /// True for start events.
    #[inline]
    pub(crate) fn is_start(&self) -> bool {
        self.key.kind == EventKind::Start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{AxiomKind, DataKind, Key, TxnBuilder, Value};

    fn history(txns: Vec<aion_types::Transaction>) -> History {
        History { kind: DataKind::Kv, txns }
    }

    #[test]
    fn events_sorted_with_start_before_commit() {
        let h = history(vec![
            TxnBuilder::new(1).interval(1, 4).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).interval(2, 3).put(Key(2), Value(1)).build(),
        ]);
        let mut r = CheckReport::new();
        let evs = build_events(&h, &mut r);
        assert!(r.is_ok());
        let order: Vec<(u64, bool)> = evs.iter().map(|e| (e.key.ts.get(), e.is_start())).collect();
        assert_eq!(order, vec![(1, true), (2, true), (3, false), (4, false)]);
    }

    #[test]
    fn readonly_same_ts_is_fine() {
        let h = history(vec![TxnBuilder::new(1).interval(5, 5).read(Key(1), Value(0)).build()]);
        let mut r = CheckReport::new();
        let evs = build_events(&h, &mut r);
        assert!(r.is_ok());
        assert!(evs[0].is_start());
        assert!(!evs[1].is_start());
    }

    #[test]
    fn eq1_violation_reported() {
        let h = history(vec![TxnBuilder::new(1).interval(9, 3).build()]);
        let mut r = CheckReport::new();
        build_events(&h, &mut r);
        assert_eq!(r.count(AxiomKind::Integrity), 1);
        assert!(matches!(r.violations[0], Violation::TimestampOrder { .. }));
    }

    #[test]
    fn duplicate_tid_reported() {
        let h = history(vec![
            TxnBuilder::new(1).interval(1, 2).build(),
            TxnBuilder::new(1).interval(3, 4).build(),
        ]);
        let mut r = CheckReport::new();
        build_events(&h, &mut r);
        assert!(r.violations.iter().any(|v| matches!(v, Violation::DuplicateTid { .. })));
    }

    #[test]
    fn cross_txn_timestamp_collision_reported() {
        let h = history(vec![
            TxnBuilder::new(1).interval(1, 5).build(),
            TxnBuilder::new(2).interval(5, 7).build(),
        ]);
        let mut r = CheckReport::new();
        build_events(&h, &mut r);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateTimestamp { ts: Timestamp(5), .. })));
    }
}
