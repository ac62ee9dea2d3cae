//! Offline CHRONOS behind the streaming [`Checker`] trait.
//!
//! [`ChronosChecker`] adapts the batch checker [`check`] to the
//! workspace-wide session API: `feed` buffers transactions (emitting no
//! events — offline checkers have no incremental verdicts), `tick` is a
//! no-op, and `finish` runs the whole check and converts the
//! [`ChronosOutcome`] into the uniform [`aion_types::Outcome`]. This is
//! what lets `run_plan`, the experiments and the examples replay one
//! arrival plan through AION and CHRONOS interchangeably and compare
//! verdicts.
//!
//! [`check`]: crate::chronos::check
//! [`ChronosOutcome`]: crate::report::ChronosOutcome

use crate::chronos::{check_consuming, ChronosOptions};
use aion_types::check::{CheckEvent, Checker, Outcome};
use aion_types::{DataKind, History, IsolationLevel, Transaction};

/// An offline CHRONOS checking session: buffers the stream, checks at
/// [`finish`](Checker::finish) against any built-in [`IsolationLevel`]
/// (RC, RA, SI, SER).
///
/// ```
/// use aion_core::{ChronosChecker, ChronosOptions};
/// use aion_types::{Checker, DataKind, IsolationLevel, Key, TxnBuilder, Value};
///
/// let mut session =
///     ChronosChecker::new(IsolationLevel::Si, DataKind::Kv, ChronosOptions::default());
/// session.feed(
///     TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(7)).build(), 0);
/// session.feed(
///     TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(7)).build(), 1);
/// let outcome = session.finish();
/// assert!(outcome.is_ok());
/// assert_eq!(outcome.checker, "chronos-si");
/// ```
pub struct ChronosChecker {
    level: IsolationLevel,
    opts: ChronosOptions,
    history: History,
}

impl ChronosChecker {
    /// A session checking `level` over `kind`-typed data.
    pub fn new(level: IsolationLevel, kind: DataKind, opts: ChronosOptions) -> ChronosChecker {
        ChronosChecker { level, opts, history: History::new(kind) }
    }

    /// A read-committed session with default options.
    pub fn rc(kind: DataKind) -> ChronosChecker {
        ChronosChecker::new(IsolationLevel::ReadCommitted, kind, ChronosOptions::default())
    }

    /// A read-atomic session with default options.
    pub fn ra(kind: DataKind) -> ChronosChecker {
        ChronosChecker::new(IsolationLevel::ReadAtomic, kind, ChronosOptions::default())
    }

    /// A snapshot-isolation session with default options.
    pub fn si(kind: DataKind) -> ChronosChecker {
        ChronosChecker::new(IsolationLevel::Si, kind, ChronosOptions::default())
    }

    /// A serializability session with default options.
    pub fn ser(kind: DataKind) -> ChronosChecker {
        ChronosChecker::new(IsolationLevel::Ser, kind, ChronosOptions::default())
    }
}

impl Checker for ChronosChecker {
    fn name(&self) -> &'static str {
        match self.level {
            IsolationLevel::ReadCommitted => "chronos-rc",
            IsolationLevel::ReadAtomic => "chronos-ra",
            IsolationLevel::Si => "chronos-si",
            IsolationLevel::Ser => "chronos-ser",
            // Non-exhaustive upstream: a new lattice level needs a name
            // here before a session can be opened at it.
            other => unreachable!("ChronosChecker has no name for level {other:?}"),
        }
    }

    fn feed(&mut self, txn: Transaction, _now_ms: u64) -> Vec<CheckEvent> {
        self.history.push(txn);
        Vec::new()
    }

    fn tick(&mut self, _now_ms: u64) -> Vec<CheckEvent> {
        Vec::new()
    }

    fn finish(self) -> Outcome {
        let name = self.name();
        let out = check_consuming(self.history, self.level, &self.opts);
        Outcome::new(name, out.report, out.txns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{AxiomKind, Key, TxnBuilder, Value};

    fn t(tid: u64, sid: u32, sno: u32, s: u64, c: u64) -> TxnBuilder {
        TxnBuilder::new(tid).session(sid, sno).interval(s, c)
    }

    #[test]
    fn adapter_matches_batch_checker() {
        let mut ck = ChronosChecker::si(DataKind::Kv);
        assert_eq!(ck.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 0), vec![]);
        assert_eq!(ck.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(9)).build(), 1), vec![]);
        assert_eq!(ck.tick(10_000), vec![], "offline: the clock is meaningless");
        assert_eq!(ck.history.len(), 2);
        let out = ck.finish();
        assert_eq!(out.checker, "chronos-si");
        assert_eq!(out.txns, 2);
        assert_eq!(out.report.count(AxiomKind::Ext), 1);
        assert!(!out.is_ok());
    }

    #[test]
    fn ser_adapter_checks_commit_visibility() {
        let mut ck = ChronosChecker::ser(DataKind::Kv);
        ck.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(1)).build(), 0);
        ck.feed(t(2, 1, 0, 3, 6).put(Key(1), Value(2)).build(), 0);
        ck.feed(t(3, 2, 0, 4, 7).read(Key(1), Value(1)).build(), 0);
        let out = ck.finish();
        assert_eq!(out.checker, "chronos-ser");
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "{}", out.report);
        assert_eq!(out.report.count(AxiomKind::NoConflict), 0, "SER skips NOCONFLICT");
    }
}
