//! The streaming checker-session API shared by every checker in the
//! workspace.
//!
//! The paper's central claim is *online* checking: verdicts must be
//! available **while** the history streams in, not only in a terminal
//! report. [`Checker`] is the session abstraction that makes this a
//! first-class API: a checker is fed one transaction at a time
//! ([`Checker::feed`], which carries the clock with it), idle time is
//! reported with [`Checker::tick`], and both calls return the
//! [`CheckEvent`]s that step produced — committed
//! violations, tentative-verdict flip-flops, EXT finalizations, GC spill
//! passes. [`Checker::finish`] closes the session and returns the
//! uniform [`Outcome`].
//!
//! Offline checkers (CHRONOS, the baselines) implement the same trait by
//! buffering fed transactions and doing all work in `finish`; this lets
//! benches, feed drivers and examples swap checkers polymorphically, the
//! way dbcop hides its consistency levels behind one witness-producing
//! interface.
//!
//! ## Event-stream semantics
//!
//! * [`CheckEvent::Violation`] — a violation became *definitive* and was
//!   committed to the report. INT, SESSION, NOCONFLICT and integrity
//!   violations are stable under asynchrony and are emitted at arrival;
//!   EXT violations are emitted only when their transaction finalizes.
//! * [`CheckEvent::VerdictFlip`] — a *tentative* EXT verdict switched
//!   (`⊤ ↔ ⊥`) because an out-of-order arrival changed the frontier
//!   (paper §VI-C). Nothing is committed to the report yet.
//! * [`CheckEvent::ExtFinalized`] — a transaction's EXT timeout expired:
//!   its tentative verdicts froze, and any still-wrong reads were
//!   reported (each preceded by its own `Violation` event).
//! * [`CheckEvent::SpillPass`] — the GC spilled finalized transactions
//!   to the spill store to bound memory (paper Fig. 12).
//!
//! Offline adapters emit no events; their verdicts exist only at
//! `finish`.

use crate::ids::{Key, TxnId};
use crate::level::IsolationLevel;
use crate::txn::Transaction;
use crate::violation::{CheckReport, Violation};

/// One incremental observation from a streaming checking session.
///
/// Returned by [`Checker::feed`] and [`Checker::tick`] in the order the
/// underlying state changes happened. The enum is `#[non_exhaustive]`:
/// future checkers may add event kinds without breaking consumers.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CheckEvent {
    /// A violation became definitive and was committed to the report.
    Violation(Violation),
    /// A tentative EXT verdict switched (`⊤ ↔ ⊥`) for one `(txn, key)`
    /// read because of an out-of-order arrival (a flip-flop, §VI-C).
    VerdictFlip {
        /// The reading transaction.
        tid: TxnId,
        /// The key whose read verdict switched.
        key: Key,
        /// For wrong→ok switches, how long the verdict had been wrong
        /// (virtual ms); `None` for ok→wrong switches.
        rectified_after_ms: Option<u64>,
    },
    /// A transaction's EXT timeout expired and its verdicts are now
    /// frozen (paper `TIMEOUT`); late arrivals can no longer change
    /// them.
    ExtFinalized {
        /// The finalized transaction.
        tid: TxnId,
        /// EXT violations committed at finalization (0 = all reads were
        /// justified in time).
        violations: u32,
    },
    /// The garbage collector spilled finalized transactions to disk (or
    /// the in-memory spill store) to bound resident memory.
    SpillPass {
        /// Transactions written out in this pass.
        spilled: usize,
        /// Bytes appended to the spill store.
        bytes: u64,
        /// Transactions still resident after the pass.
        resident_after: usize,
    },
    /// A spill-store IO operation failed. The checker degrades instead
    /// of panicking: a failed write keeps the candidate transactions
    /// resident (memory is not reclaimed this pass), a failed reload
    /// skips the segment (naive re-checks see less history). Verdicts
    /// already committed are unaffected.
    SpillError {
        /// Which spill-store operation failed.
        op: SpillOp,
        /// The underlying IO error, stringified.
        detail: String,
    },
}

/// The spill-store operation a [`CheckEvent::SpillError`] failed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillOp {
    /// Appending a spill segment (GC pass writing finalized txns out).
    Write,
    /// Reloading a previously spilled segment.
    Reload,
}

impl std::fmt::Display for SpillOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillOp::Write => write!(f, "write"),
            SpillOp::Reload => write!(f, "reload"),
        }
    }
}

impl CheckEvent {
    /// True for events that commit a violation to the report.
    pub fn is_violation(&self) -> bool {
        matches!(self, CheckEvent::Violation(_))
    }
}

impl std::fmt::Display for CheckEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckEvent::Violation(v) => write!(f, "violation: {v}"),
            CheckEvent::VerdictFlip { tid, key, rectified_after_ms: Some(ms) } => {
                write!(f, "flip: {tid} read of {key} rectified after {ms}ms")
            }
            CheckEvent::VerdictFlip { tid, key, rectified_after_ms: None } => {
                write!(f, "flip: {tid} read of {key} turned tentatively wrong")
            }
            CheckEvent::ExtFinalized { tid, violations } => {
                write!(f, "finalized: {tid} ({violations} EXT violations)")
            }
            CheckEvent::SpillPass { spilled, bytes, resident_after } => {
                write!(f, "gc: spilled {spilled} txns ({bytes} B), {resident_after} resident")
            }
            CheckEvent::SpillError { op, detail } => {
                write!(f, "spill {op} failed: {detail}")
            }
        }
    }
}

/// Runtime counters kept by streaming checkers (all zero for offline
/// adapters, which do no incremental work).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Transactions received.
    pub received: usize,
    /// Transactions whose EXT verdicts are final (timeout processed).
    pub finalized: usize,
    /// Peak transactions resident in memory.
    pub peak_resident_txns: usize,
    /// GC spill passes performed.
    pub gc_spills: usize,
    /// Transactions written to the spill store.
    pub spilled_txns: usize,
    /// Transactions reloaded from the spill store.
    pub reloaded_txns: usize,
    /// Bytes written to the spill store.
    pub spill_bytes: u64,
    /// Re-evaluations of reads triggered by out-of-order arrivals.
    pub reevaluations: u64,
    /// Spill-store IO operations that failed (each also emitted a
    /// [`CheckEvent::SpillError`]).
    pub spill_errors: u64,
}

impl CheckerStats {
    /// Fold one shard worker's counters into an aggregate.
    ///
    /// Additive counters (`gc_spills`, `spilled_txns`, `reloaded_txns`,
    /// `spill_bytes`, `reevaluations`) sum exactly, and
    /// `peak_resident_txns` sums per-shard peaks (the aggregate resident
    /// footprint across workers). `received` and `finalized` also sum —
    /// but a transaction split across shards is counted once per shard,
    /// so a sharding coordinator should overwrite both with its own
    /// whole-transaction counts after merging.
    pub fn absorb_shard(&mut self, other: &CheckerStats) {
        self.received += other.received;
        self.finalized += other.finalized;
        self.peak_resident_txns += other.peak_resident_txns;
        self.gc_spills += other.gc_spills;
        self.spilled_txns += other.spilled_txns;
        self.reloaded_txns += other.reloaded_txns;
        self.spill_bytes += other.spill_bytes;
        self.reevaluations += other.reevaluations;
        self.spill_errors += other.spill_errors;
    }
}

/// Aggregated flip-flop statistics (paper Figs. 13, 14, 17–21): fixed
/// counters, bumped as each flip happens, so they cost the same at the
/// millionth transaction as at the first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlipSummary {
    /// Total verdict switches observed.
    pub total_flips: u64,
    /// Number of (txn, key) pairs that flipped at least once.
    pub pairs_with_flips: usize,
    /// Number of distinct transactions involved in flips.
    pub txns_with_flips: usize,
    /// Pairs flipping exactly 1, 2, 3, and ≥4 times (Fig. 13a buckets).
    pub flip_histogram: [usize; 4],
    /// False verdicts by the time they took to rectify (Fig. 13b
    /// buckets): `0–1`, `1–2`, `2–10`, `10–99`, `≥100` ms.
    pub rectify_histogram: [usize; 5],
}

impl FlipSummary {
    /// Fold one shard worker's flip statistics into an aggregate.
    ///
    /// Everything but `txns_with_flips` merges exactly: a (txn, key)
    /// pair lives on exactly one key-partitioned shard, so per-pair
    /// counts never overlap. `txns_with_flips` sums per-shard counts and
    /// is therefore an upper bound — a transaction flipping on keys of
    /// two shards is counted twice.
    ///
    /// `flip_histogram` adds with wrap-around: after a re-shard moves a
    /// pair that already flipped, its next flip leaves a bucket on a
    /// worker that never counted it there, and that worker's bucket
    /// wraps below zero (`usize::MAX`) until the shards are summed.
    pub fn absorb_shard(&mut self, other: &FlipSummary) {
        self.total_flips = self.total_flips.saturating_add(other.total_flips);
        self.pairs_with_flips = self.pairs_with_flips.saturating_add(other.pairs_with_flips);
        self.txns_with_flips = self.txns_with_flips.saturating_add(other.txns_with_flips);
        for (b, n) in self.flip_histogram.iter_mut().zip(other.flip_histogram) {
            *b = b.wrapping_add(n);
        }
        for (b, n) in self.rectify_histogram.iter_mut().zip(other.rectify_histogram) {
            *b = b.saturating_add(n);
        }
    }
}

/// The uniform terminal result of any checking session.
///
/// `#[non_exhaustive]`: construct with [`Outcome::new`] and the
/// `with_*` setters so future fields stay non-breaking.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct Outcome {
    /// Which checker produced this outcome (e.g. `"aion-si"`,
    /// `"chronos-ser"`, `"elle-si"`).
    pub checker: &'static str,
    /// Transactions processed.
    pub txns: usize,
    /// All violations found. Black-box baselines that only produce
    /// anomaly descriptions leave this empty and set [`Outcome::accepted`]
    /// plus [`Outcome::notes`] instead.
    pub report: CheckReport,
    /// Runtime counters (zero for offline adapters).
    pub stats: CheckerStats,
    /// Flip-flop statistics (empty for offline adapters).
    pub flips: FlipSummary,
    /// Accept/reject verdict for checkers that do not report violations
    /// in [`Violation`] form; `None` means "derive from the report".
    pub accepted: Option<bool>,
    /// Human-readable findings (baseline anomalies, cycles, DNF notes).
    pub notes: Vec<String>,
    /// `Some(level)` when the checker cannot evaluate the requested
    /// isolation level at all (e.g. the black-box baselines handed an
    /// RC or RA session): the session produced *no verdict* — neither
    /// an accept nor a violation report — and [`Outcome::is_ok`] is
    /// conservatively `false`.
    pub unsupported: Option<IsolationLevel>,
}

impl Outcome {
    /// An outcome carrying a violation report.
    pub fn new(checker: &'static str, report: CheckReport, txns: usize) -> Outcome {
        Outcome { checker, txns, report, ..Outcome::default() }
    }

    /// The typed "this checker cannot evaluate `level`" outcome — what
    /// the baseline adapters return for levels outside their inference
    /// (instead of silently checking something else, or panicking).
    pub fn unsupported(checker: &'static str, level: IsolationLevel, txns: usize) -> Outcome {
        Outcome {
            checker,
            txns,
            unsupported: Some(level),
            notes: vec![format!("isolation level {level} is outside this checker's model")],
            ..Outcome::default()
        }
    }

    /// Attach runtime counters.
    pub fn with_stats(mut self, stats: CheckerStats) -> Outcome {
        self.stats = stats;
        self
    }

    /// Attach flip-flop statistics.
    pub fn with_flips(mut self, flips: FlipSummary) -> Outcome {
        self.flips = flips;
        self
    }

    /// Attach an explicit accept/reject verdict (black-box baselines).
    pub fn with_accepted(mut self, accepted: bool) -> Outcome {
        self.accepted = Some(accepted);
        self
    }

    /// Attach human-readable findings.
    pub fn with_notes(mut self, notes: Vec<String>) -> Outcome {
        self.notes = notes;
        self
    }

    /// True when the history passed: no violations, (for checkers with
    /// an explicit verdict) the history was accepted, and the requested
    /// level was actually evaluated — an [`Outcome::unsupported`]
    /// session never counts as a pass.
    pub fn is_ok(&self) -> bool {
        self.unsupported.is_none() && self.report.is_ok() && self.accepted.unwrap_or(true)
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = match (self.unsupported, self.accepted) {
            (Some(level), _) => format!("UNSUPPORTED({level})"),
            (None, Some(true)) => "ACCEPT".to_string(),
            (None, Some(false)) => format!("REJECT ({} findings)", self.notes.len()),
            (None, None) => self.report.summary(),
        };
        write!(f, "{}: {} over {} txns", self.checker, verdict, self.txns)
    }
}

/// A checking session: transactions stream in, [`CheckEvent`]s stream
/// out, and [`Checker::finish`] produces the terminal [`Outcome`].
///
/// Implementations:
///
/// * `aion_online::OnlineChecker` — the paper's AION / AION-SER, fully
///   incremental;
/// * `aion_core::ChronosChecker` — offline CHRONOS, buffers and checks
///   at `finish`;
/// * `aion_baselines::{ElleChecker, EmmeChecker}` — baseline adapters,
///   ditto.
///
/// Drivers generic over `Checker` (e.g. `aion_online::feed::run_plan`)
/// can therefore replay one arrival plan through any checker and compare
/// event timelines and outcomes.
pub trait Checker {
    /// Short stable identifier, e.g. `"aion-si"`.
    fn name(&self) -> &'static str;

    /// Feed one transaction at (virtual) time `now_ms`. `feed` advances
    /// the clock to `now_ms` first — `feed(t, now)` is `tick(now)`
    /// followed by the arrival, for every checker — so a driver that only
    /// ever feeds still sees verdicts finalize, and memory recycle, while
    /// the history arrives. Returns the events of that clock advance, then
    /// those the arrival produced (empty for offline adapters).
    fn feed(&mut self, txn: Transaction, now_ms: u64) -> Vec<CheckEvent>;

    /// Feed a batch of arrivals in order, returning the concatenated
    /// event stream: `feed_batch` is the feed loop, nothing else.
    ///
    /// The default implementation is exactly that loop, and any override
    /// must preserve the per-arrival event stream byte for byte. Batching
    /// exists so a checker can amortize per-arrival overhead (one channel
    /// send per shard in `aion_online::ShardedChecker`) without changing
    /// observable behavior.
    fn feed_batch(&mut self, batch: Vec<(Transaction, u64)>) -> Vec<CheckEvent> {
        let mut out = Vec::new();
        for (txn, now_ms) in batch {
            out.extend(self.feed(txn, now_ms));
        }
        out
    }

    /// Advance the (virtual) clock without an arrival — idle time, and
    /// `tick(u64::MAX)` at the end of the stream — returning events
    /// produced by timer expiry: EXT finalizations and their violations.
    /// A `tick(now)` directly before a `feed(_, now)` is redundant.
    fn tick(&mut self, now_ms: u64) -> Vec<CheckEvent>;

    /// End the session: flush all pending verdicts and produce the
    /// uniform outcome.
    fn finish(self) -> Outcome
    where
        Self: Sized;

    /// Approximate bytes of live checker state.
    ///
    /// Drivers that multiplex many sessions (e.g. `aion-serve`) use this
    /// for admission control and backpressure, so it must be cheap to
    /// call between arrivals. The default of `0` means "unbounded feeding
    /// is fine" and is what offline adapters — whose footprint is just
    /// the buffered history — report today.
    fn estimated_memory_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Key, Timestamp, TxnId};

    #[test]
    fn outcome_is_ok_combines_report_and_verdict() {
        let o = Outcome::new("x", CheckReport::new(), 0);
        assert!(o.is_ok());
        let rejected = Outcome::new("x", CheckReport::new(), 0).with_accepted(false);
        assert!(!rejected.is_ok());
        let mut r = CheckReport::new();
        r.push(Violation::DuplicateTid { tid: TxnId(1) });
        assert!(!Outcome::new("x", r, 1).is_ok());
    }

    #[test]
    fn event_display_is_informative() {
        let e =
            CheckEvent::VerdictFlip { tid: TxnId(4), key: Key(2), rectified_after_ms: Some(100) };
        let s = e.to_string();
        assert!(s.contains("t4") && s.contains("k2") && s.contains("100ms"));
        assert!(!e.is_violation());
        let v = CheckEvent::Violation(Violation::TimestampOrder {
            tid: TxnId(1),
            start_ts: Timestamp(2),
            commit_ts: Timestamp(1),
        });
        assert!(v.is_violation());
    }

    #[test]
    fn unsupported_outcome_is_not_a_pass() {
        let o = Outcome::unsupported("elle-rc", IsolationLevel::ReadCommitted, 7);
        assert!(!o.is_ok());
        assert_eq!(o.unsupported, Some(IsolationLevel::ReadCommitted));
        assert_eq!(o.txns, 7);
        assert!(o.to_string().contains("UNSUPPORTED(rc)"), "{o}");
        assert!(o.report.is_ok(), "no violations were reported");
    }
}
