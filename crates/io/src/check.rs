//! Feed any [`Checker`] session directly from a streaming reader.
//!
//! This is the canonical file → verdict driver: `experiments check`,
//! the golden-corpus differential tests and the recorder export smoke
//! all replay files through it, so "the corpus-recorded verdict" means
//! exactly "what [`stream_check`] produces". Transactions are fed in
//! stream order, each `feed` advancing the virtual clock one millisecond,
//! then the clock jumps to the end of time so every EXT deadline fires
//! before [`Checker::finish`].

use crate::{HistoryReader, IoFormatError};
use aion_types::{AxiomKind, CheckEvent, Checker, Outcome};

/// What a streamed checking session produced.
#[derive(Debug)]
pub struct StreamReport {
    /// The terminal outcome (report, stats, flips).
    pub outcome: Outcome,
    /// Transactions fed from the reader.
    pub txns: usize,
    /// Total [`CheckEvent`]s the checker emitted mid-stream.
    pub events: usize,
    /// Events that committed a violation mid-stream.
    pub violation_events: usize,
}

/// Stream every transaction of `reader` into `checker` and finish the
/// session. The reader yields transactions one at a time (bounded
/// memory); nothing here buffers the history.
pub fn stream_check<C: Checker>(
    reader: &mut dyn HistoryReader,
    mut checker: C,
) -> Result<StreamReport, IoFormatError> {
    let mut txns = 0usize;
    let mut events = 0usize;
    let mut violation_events = 0usize;
    let mut count = |evs: Vec<CheckEvent>| {
        events += evs.len();
        violation_events += evs.iter().filter(|e| e.is_violation()).count();
    };
    while let Some(txn) = reader.next_txn()? {
        count(checker.feed(txn, txns as u64));
        txns += 1;
    }
    count(checker.tick(u64::MAX));
    Ok(StreamReport { outcome: checker.finish(), txns, events, violation_events })
}

/// Canonical one-token verdict string for an outcome — the form recorded
/// in the golden-corpus manifest and printed by `experiments check`:
/// `ok`, a sorted `KIND:count` list (`EXT:2+SESSION:1`), or
/// `reject(n)` for black-box baselines that only produce findings.
pub fn verdict_of(o: &Outcome) -> String {
    if o.is_ok() {
        return "ok".into();
    }
    let mut parts: Vec<String> = [
        AxiomKind::Session,
        AxiomKind::Int,
        AxiomKind::Ext,
        AxiomKind::NoConflict,
        AxiomKind::Integrity,
    ]
    .iter()
    .filter(|k| o.report.count(**k) > 0)
    .map(|k| format!("{k}:{}", o.report.count(*k)))
    .collect();
    if parts.is_empty() {
        parts.push(format!("reject({})", o.notes.len()));
    }
    parts.join("+")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{CheckReport, Transaction, Violation};

    /// A minimal offline checker: buffers, reports duplicate tids.
    struct Toy {
        seen: Vec<u64>,
        report: CheckReport,
    }

    impl Checker for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn feed(&mut self, txn: Transaction, _now: u64) -> Vec<CheckEvent> {
            if self.seen.contains(&txn.tid.0) {
                let v = Violation::DuplicateTid { tid: txn.tid };
                self.report.push(v.clone());
                return vec![CheckEvent::Violation(v)];
            }
            self.seen.push(txn.tid.0);
            Vec::new()
        }
        fn tick(&mut self, _now: u64) -> Vec<CheckEvent> {
            Vec::new()
        }
        fn finish(self) -> Outcome {
            let n = self.seen.len();
            Outcome::new("toy", self.report, n)
        }
    }

    #[test]
    fn streams_reader_into_checker() {
        use aion_types::{DataKind, History, Key, TxnBuilder, Value};
        let mut h = History::new(DataKind::Kv);
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build());
        h.push(TxnBuilder::new(1).session(1, 0).interval(3, 4).build());
        let mut bytes = Vec::new();
        crate::write_history(&h, crate::Format::Jsonl, &mut bytes).unwrap();
        let mut r =
            crate::open_stream(&bytes[..], crate::Format::Jsonl, Default::default()).unwrap();
        let report =
            stream_check(r.as_mut(), Toy { seen: Vec::new(), report: CheckReport::new() }).unwrap();
        assert_eq!(report.txns, 2);
        assert_eq!(report.violation_events, 1);
        assert_eq!(verdict_of(&report.outcome), "INTEGRITY:1");
    }

    #[test]
    fn verdict_strings() {
        let ok = Outcome::new("x", CheckReport::new(), 0);
        assert_eq!(verdict_of(&ok), "ok");
        let rejected = Outcome::new("x", CheckReport::new(), 0)
            .with_accepted(false)
            .with_notes(vec!["cycle".into()]);
        assert_eq!(verdict_of(&rejected), "reject(1)");
    }
}
