//! AION: the online timestamp-based isolation checker (paper Algorithm 3).
//!
//! Transactions arrive one by one, in session order per session but *not*
//! in timestamp order (asynchrony). The checker maintains timestamp-
//! versioned state and, on every arrival:
//!
//! 1. checks SESSION, INT and the tentative EXT verdicts of the new
//!    transaction against the currently known frontier (step ①);
//! 2. re-checks NOCONFLICT for transactions overlapping it, via the
//!    versioned `ongoing` index (step ②) — arrival-driven, so each
//!    conflicting pair is reported exactly once;
//! 3. re-checks EXT for reads anchored after its commit, up to the next
//!    version of each written key (step ③) — per-key versioning makes the
//!    paper's frontier touch-ups unnecessary (`docs/architecture.md`,
//!    "Per-key version chains").
//!
//! EXT verdicts are *tentative* until a per-transaction timeout expires
//! (paper §IV-A, default 5 s); verdict switches in the meantime are the
//! "flip-flops" of §VI-C, tracked by `crate::stats::FlipTracker`. Memory
//! is bounded by spill-to-disk GC (`crate::spill`).
//!
//! One implementation serves the whole isolation-level lattice: every
//! arrival is checked against *its* resolved [`IsolationLevel`] (the
//! session's [`LevelPolicy`] — uniform, per-session, or the
//! transaction's own declaration), dispatching on the level's
//! [`LevelChecks`](aion_types::LevelChecks) predicate set. Under SI
//! reads anchor at the start event and NOCONFLICT is checked; under SER
//! (AION-SER) reads anchor at the commit event, start timestamps are
//! ignored, and NOCONFLICT is skipped (paper §VI-A); RA is SI without
//! NOCONFLICT; RC anchors at the commit event and only requires reads
//! to observe *some* committed version at the anchor — a monotone
//! predicate under asynchrony (late arrivals can only justify a
//! tentatively-wrong RC read, never invalidate a right one).
//!
//! The module is split along Algorithm 3's seams: this file holds the
//! session configuration and the resident state, `globals` the admission
//! checks, `arrival` the per-arrival stages and `TIMEOUT`, `gc` the
//! spill/reload passes.

mod arrival;
mod gc;
mod globals;

pub(crate) use globals::{record_violation, GlobalChecks};

use crate::keys::KeyTable;
use crate::spill::SpillStore;
use crate::stats::FlipTracker;
use aion_types::{
    base_independent, expected_read, CheckEvent, CheckReport, CheckerStats, DataKind, EventKey,
    ExtPredicate, FxHashMap, IsolationLevel, Key, LevelPolicy, Mutation, ReadAnchor, Snapshot,
    Timestamp, Transaction, TxnId, Violation,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;

/// Online garbage-collection policy (paper Fig. 12's three strategies).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OnlineGcPolicy {
    /// Never spill (`Aion-no-gc`): memory grows with the history.
    #[default]
    None,
    /// Spill once the resident transaction count exceeds `max_txns`,
    /// keeping ample headroom (`Aion-checking-gc`).
    Checking {
        /// Resident-transaction threshold that triggers a spill pass.
        max_txns: usize,
    },
    /// Hard cap: spill the minimum on every arrival at the limit
    /// (`Aion-full-gc`) — the checker thrashes, as in the paper.
    Full {
        /// Hard resident-transaction limit.
        max_txns: usize,
    },
}

/// Configuration for an online checking session.
///
/// `#[non_exhaustive]`: construct via [`AionConfig::builder`] (or
/// [`OnlineChecker::builder`]) so future knobs stay non-breaking; fields
/// remain `pub` for reading and in-place mutation.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct AionConfig {
    /// Data type of the incoming history.
    pub kind: DataKind,
    /// How fed transactions are assigned isolation levels: one uniform
    /// level (the classic AION / AION-SER modes), a per-session map, or
    /// each transaction's own declared [`Transaction::level`].
    pub levels: LevelPolicy,
    /// EXT finalization timeout in (virtual) milliseconds; the paper uses
    /// a conservative 5 s (§IV-A).
    pub ext_timeout_ms: u64,
    /// Garbage-collection policy.
    pub gc: OnlineGcPolicy,
    /// Ablation switch: disable the paper's step-③ optimization that stops
    /// re-checking at the next overwrite of each key, re-evaluating *every*
    /// later reader instead. Same verdicts, strictly more work.
    pub naive_recheck: bool,
    /// Spill segments to this file instead of in-memory buffers.
    pub spill_path: Option<PathBuf>,
    /// Materialize [`CheckEvent`]s from `feed`/`tick` (default: on).
    /// Turn off for pure-throughput runs that discard the returned
    /// events: verdicts and the report are unaffected, but the per-event
    /// clones and allocations on the hot path are skipped.
    pub events: bool,
    /// Number of shard workers when this configuration opens a
    /// [`crate::sharded::ShardedChecker`] session (≥ 1; ignored by the
    /// single-threaded [`OnlineChecker`]). Keys are hash-partitioned
    /// across them.
    pub shards: usize,
    /// `Some(shard)` for a shard worker under a coordinator that owns
    /// the global (cross-key) checks: duplicate tid/timestamp detection,
    /// SESSION, and Eq. (1) well-formedness are skipped because the
    /// coordinator performs them exactly once per whole transaction.
    /// The worker checks only the operations whose key hashes to `shard`
    /// under `shards`-way partitioning (all of them when `shards` is 1).
    /// Transactions arrive whole (so violation `op_index`es stay anchored
    /// to original program order); foreign-key operations are skipped
    /// during footprint derivation.
    pub(crate) worker: Option<usize>,
}

impl Default for AionConfig {
    fn default() -> Self {
        AionConfig {
            kind: DataKind::Kv,
            levels: LevelPolicy::default(),
            ext_timeout_ms: 5000,
            gc: OnlineGcPolicy::None,
            naive_recheck: false,
            spill_path: None,
            events: true,
            shards: 4,
            worker: None,
        }
    }
}

impl AionConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> OnlineCheckerBuilder {
        OnlineCheckerBuilder::default()
    }

    /// The level every transaction resolves to, when the policy is
    /// uniform (the fast path; `None` for genuinely mixed sessions).
    pub fn uniform_level(&self) -> Option<IsolationLevel> {
        self.levels.uniform_level()
    }
}

/// A configuration that cannot open a checking session.
///
/// Surfaced by [`OnlineChecker::try_new`], [`OnlineCheckerBuilder::build`]
/// and [`OnlineCheckerBuilder::build_sharded`] so a monitoring process can
/// handle a bad configuration (fall back to in-memory spilling, alert,
/// retry elsewhere) instead of dying in a constructor.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The configured spill file could not be created.
    SpillFile {
        /// The path from [`AionConfig::spill_path`].
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// More shard workers than [`crate::sharded::MAX_SHARDS`].
    TooManyShards {
        /// The count asked for.
        shards: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::SpillFile { path, source } => {
                write!(f, "cannot create spill file {}: {source}", path.display())
            }
            ConfigError::TooManyShards { shards } => {
                write!(f, "{shards} shards exceed the limit of {}", crate::sharded::MAX_SHARDS)
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::SpillFile { source, .. } => Some(source),
            ConfigError::TooManyShards { .. } => None,
        }
    }
}

/// Builder for [`AionConfig`] / [`OnlineChecker`] sessions.
///
/// [`build`](Self::build) and [`build_sharded`](Self::build_sharded) are
/// fallible: a configuration can name a spill file that cannot be
/// created, and a monitoring process should see that as a typed
/// [`ConfigError`], not a panic.
///
/// ```
/// use aion_online::{OnlineChecker, OnlineGcPolicy};
/// use aion_types::IsolationLevel;
/// let checker = OnlineChecker::builder()
///     .level(IsolationLevel::Ser)
///     .gc(OnlineGcPolicy::Checking { max_txns: 10_000 })
///     .ext_timeout_ms(5_000)
///     .build()
///     .expect("in-memory sessions cannot fail to open");
/// assert_eq!(checker.config().uniform_level(), Some(IsolationLevel::Ser));
/// ```
#[derive(Clone, Debug, Default)]
pub struct OnlineCheckerBuilder {
    cfg: AionConfig,
    spill_faults: Option<std::sync::Arc<crate::spill::SpillFaultPlan>>,
}

impl OnlineCheckerBuilder {
    /// Data type of the incoming history (default: key-value).
    pub fn kind(mut self, kind: DataKind) -> Self {
        self.cfg.kind = kind;
        self
    }

    /// Check every transaction at one uniform isolation level (default:
    /// [`IsolationLevel::Si`]).
    pub fn level(mut self, level: IsolationLevel) -> Self {
        self.cfg.levels = LevelPolicy::Uniform(level);
        self
    }

    /// Full level-assignment policy — per-session or per-transaction
    /// mixed-level checking (default: uniform SI).
    pub fn levels(mut self, levels: LevelPolicy) -> Self {
        self.cfg.levels = levels;
        self
    }

    /// EXT finalization timeout in virtual milliseconds (default: the
    /// paper's conservative 5 s).
    pub fn ext_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.ext_timeout_ms = ms;
        self
    }

    /// Garbage-collection policy (default: never spill).
    pub fn gc(mut self, gc: OnlineGcPolicy) -> Self {
        self.cfg.gc = gc;
        self
    }

    /// Disable the step-③ re-check bound (ablation; default: off).
    pub fn naive_recheck(mut self, on: bool) -> Self {
        self.cfg.naive_recheck = on;
        self
    }

    /// Spill segments to this file instead of in-memory buffers.
    pub fn spill_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.spill_path = Some(path.into());
        self
    }

    /// Materialize [`CheckEvent`]s (default: on); see
    /// [`AionConfig::events`].
    pub fn events(mut self, on: bool) -> Self {
        self.cfg.events = on;
        self
    }

    /// Number of shard workers used by [`build_sharded`](Self::build_sharded)
    /// (default: 4).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards.max(1);
        self
    }

    /// Install a spill-IO fault-injection plan (testing only; see
    /// [`crate::spill::SpillFaultPlan`]). The plan is shared by every
    /// shard worker of the session and never persisted in checkpoints.
    pub fn spill_faults(mut self, plan: std::sync::Arc<crate::spill::SpillFaultPlan>) -> Self {
        self.spill_faults = Some(plan);
        self
    }

    /// Finish building the configuration.
    pub fn config(self) -> AionConfig {
        self.cfg
    }

    /// Finish building and open the checking session. Fails with a typed
    /// [`ConfigError`] when the configured spill file cannot be created
    /// (infallible for in-memory spilling, the default).
    pub fn build(self) -> Result<OnlineChecker, ConfigError> {
        let mut checker = OnlineChecker::try_new(self.cfg)?;
        checker.spill.set_faults(self.spill_faults);
        Ok(checker)
    }

    /// Finish building and open a sharded (parallel) checking session
    /// over [`AionConfig::shards`] worker threads. Fails with a typed
    /// [`ConfigError`] when any worker's spill file cannot be created, or
    /// for more than [`crate::sharded::MAX_SHARDS`] workers.
    pub fn build_sharded(self) -> Result<crate::sharded::ShardedChecker, ConfigError> {
        crate::sharded::ShardedChecker::open(self.cfg, self.spill_faults, None)
    }

    /// Finish building and open a *simulated* sharded session: the
    /// workers run inline under the seeded adversarial schedule instead
    /// of on real threads (the `aion-dst` entry point; see
    /// [`crate::transport::SimSchedule`]).
    pub fn build_sharded_sim(
        self,
        sched: crate::transport::SimSchedule,
    ) -> Result<crate::sharded::ShardedChecker, ConfigError> {
        crate::sharded::ShardedChecker::open(self.cfg, self.spill_faults, Some(sched))
    }
}

/// Tentative per-read checking state (the paper's `T.EXT`, per read).
///
/// `pub(crate)` fields: the checkpoint codec in [`crate::snapshot`]
/// serializes this state verbatim to guarantee byte-identical resumption.
#[derive(Clone, Debug)]
pub(crate) struct ReadState {
    pub(crate) op_index: u32,
    pub(crate) key: Key,
    pub(crate) observed: Snapshot,
    pub(crate) muts_before: Vec<Mutation>,
    /// Current tentative verdict.
    pub(crate) ok: bool,
    /// Settled reads (internal-consistency reads and INT violations) have
    /// final verdicts at arrival and are excluded from EXT re-checking.
    pub(crate) settled: bool,
    /// When the verdict last became wrong (for rectification latency).
    pub(crate) wrong_since: Option<u64>,
    /// Verdict switches so far (saturating); a (txn, key) pair's count
    /// is the sum over the transaction's reads of that key. A `u16`
    /// fits the padding after the two flags.
    pub(crate) flips: u16,
}

/// A resident transaction with its derived checking state.
#[derive(Debug)]
pub(crate) struct OnlineTxn {
    pub(crate) txn: Transaction,
    /// The isolation level this transaction is checked at, resolved
    /// from the session's [`LevelPolicy`] once at arrival.
    pub(crate) level: IsolationLevel,
    pub(crate) write_set: Vec<(Key, Snapshot)>,
    pub(crate) reads: Vec<ReadState>,
    /// Keys whose first in-transaction access was a read: their published
    /// values fold over that observation and never change with the
    /// frontier (no cascade).
    pub(crate) anchor_keys: Vec<Key>,
    pub(crate) finalized: bool,
}

impl OnlineTxn {
    /// The event this transaction's reads anchor at, per its level.
    pub(crate) fn anchor(&self) -> EventKey {
        anchor_event(&self.txn, self.level)
    }

    /// This transaction's term of the memory estimate. The three
    /// lengths never change while it is resident (re-evaluation and
    /// list cascades rewrite read states and write-set values in
    /// place), so adding the term on entry and subtracting it on exit
    /// keeps [`OnlineChecker::txn_bytes`] exact.
    fn estimated_bytes(&self) -> usize {
        128 + self.txn.ops.len() * 48 + self.reads.len() * 96 + self.write_set.len() * 56
    }
}

/// The event a transaction's reads anchor at under `level`.
pub(crate) fn anchor_event(txn: &Transaction, level: IsolationLevel) -> EventKey {
    match level.checks().anchor {
        ReadAnchor::Start => txn.start_event(),
        ReadAnchor::Commit => txn.commit_event(),
    }
}

/// Stable `"aion-…"` checker name for a level policy (interned: the
/// `Checker` trait hands out `&'static str`).
pub(crate) fn aion_level_name(levels: &LevelPolicy) -> &'static str {
    match levels.uniform_level() {
        Some(IsolationLevel::ReadCommitted) => "aion-rc",
        Some(IsolationLevel::ReadAtomic) => "aion-ra",
        Some(IsolationLevel::Si) => "aion-si",
        Some(IsolationLevel::Ser) => "aion-ser",
        Some(_) => "aion",
        None => "aion-mixed",
    }
}

/// The online checker, driven through the [`Checker`](aion_types::Checker)
/// session trait:
/// `feed` (which advances the clock first), `tick` for idle time and end
/// of stream, then `finish`. Every call returns the typed
/// [`CheckEvent`]s it produced, so violations, verdict flips,
/// finalizations and GC passes are visible *while* the history streams
/// in.
pub struct OnlineChecker {
    pub(crate) cfg: AionConfig,
    /// Whether any level the policy can produce activates NOCONFLICT —
    /// when false (e.g. uniform SER/RA/RC) the overlap index is never
    /// touched, keeping the hot path as cheap as the old global branch.
    pub(crate) track_overlaps: bool,
    /// Whether any level the policy can produce uses the
    /// [`ExtPredicate::Committed`] membership predicate — when false,
    /// the extended trigger sweep for committed-readers is skipped.
    pub(crate) has_committed_ext: bool,
    /// Resident transactions. Private, with [`Self::insert_txn`] and
    /// [`Self::remove_txn`] the only ways in and out, so `txn_bytes`
    /// cannot drift from the map.
    txns: FxHashMap<TxnId, OnlineTxn>,
    /// Sum of [`OnlineTxn::estimated_bytes`] over `txns` — the one term
    /// of the memory estimate that has no `len()` to read it from.
    txn_bytes: usize,
    pub(crate) globals: GlobalChecks,
    /// Per key: the committed versions (the frontier), the unsettled
    /// readers and list writers at their anchors, the overlap sets and
    /// the committed-membership summary — the last only populated when
    /// `has_committed_ext`, and compacted rather than pruned by GC,
    /// which is what lets the frontier shed its version chains under
    /// RC/mixed policies.
    pub(crate) keys: KeyTable,
    pub(crate) deadlines: BinaryHeap<Reverse<(u64, TxnId)>>,
    pub(crate) triggers: VecDeque<(Key, EventKey)>,
    pub(crate) spill: SpillStore,
    /// Largest commit timestamp ever spilled; arrivals at or below it must
    /// reload first.
    pub(crate) gc_horizon_ts: Option<Timestamp>,
    pub(crate) now_ms: u64,
    pub(crate) report: CheckReport,
    pub(crate) flips: FlipTracker,
    pub(crate) stats: CheckerStats,
    /// Events produced since the last `feed`/`tick` returned.
    pub(crate) events: Vec<CheckEvent>,
    scratch: arrival::Scratch,
}

impl OnlineChecker {
    /// A checker with the given configuration, surfacing configuration
    /// problems (an uncreatable spill file) as a typed error instead of
    /// panicking.
    pub fn try_new(cfg: AionConfig) -> Result<OnlineChecker, ConfigError> {
        let spill = match &cfg.spill_path {
            Some(path) => SpillStore::on_disk(path.clone())
                .map_err(|source| ConfigError::SpillFile { path: path.clone(), source })?,
            None => SpillStore::in_memory(),
        };
        let track_overlaps = cfg.levels.may_activate(|c| c.noconflict);
        let has_committed_ext = cfg.levels.may_activate(|c| c.ext == ExtPredicate::Committed);
        Ok(OnlineChecker {
            cfg,
            track_overlaps,
            has_committed_ext,
            txns: FxHashMap::default(),
            txn_bytes: 0,
            globals: GlobalChecks::default(),
            keys: KeyTable::default(),
            deadlines: BinaryHeap::new(),
            triggers: VecDeque::new(),
            spill,
            gc_horizon_ts: None,
            now_ms: 0,
            report: CheckReport::new(),
            flips: FlipTracker::default(),
            stats: CheckerStats::default(),
            events: Vec::new(),
            scratch: arrival::Scratch::default(),
        })
    }

    /// Start building a checking session from the default configuration.
    pub fn builder() -> OnlineCheckerBuilder {
        OnlineCheckerBuilder::default()
    }

    /// The session's configuration.
    pub fn config(&self) -> &AionConfig {
        &self.cfg
    }

    /// Commit a violation to the report and the event stream.
    fn emit(&mut self, v: Violation) {
        record_violation(self.cfg.events, &mut self.events, &mut self.report, v);
    }

    /// Stream a non-violation event (skipped when events are off).
    fn emit_event(&mut self, e: impl FnOnce() -> CheckEvent) {
        if self.cfg.events {
            self.events.push(e());
        }
    }

    /// Hand the caller everything emitted since the last call.
    fn take_events(&mut self) -> Vec<CheckEvent> {
        std::mem::take(&mut self.events)
    }

    fn frontier_at(&self, key: Key, at: EventKey) -> Snapshot {
        self.keys
            .get(key)
            .and_then(|k| k.version_before(at))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| Snapshot::initial(self.cfg.kind))
    }

    /// Evaluate one external read under `ext`, against the versions
    /// currently known.
    ///
    /// * [`ExtPredicate::Frontier`] — the observation must fold from the
    ///   latest version before the anchor (the paper's EXT).
    /// * [`ExtPredicate::Committed`] — the observation must fold from
    ///   *some* version before the anchor (or the initial value).
    ///   Base-independent mutation chains (put-rooted) collapse to a
    ///   single comparison; base-dependent chains (list appends) fall
    ///   back to the frontier base, matching CHRONOS-RC's `int_val`
    ///   convention, so online and offline RC verdicts agree on list
    ///   histories too.
    fn read_ok(
        &self,
        ext: ExtPredicate,
        key: Key,
        anchor: EventKey,
        muts: &[Mutation],
        observed: &Snapshot,
    ) -> bool {
        match ext {
            ExtPredicate::Frontier => {
                expected_read(&self.frontier_at(key, anchor), muts) == *observed
            }
            ExtPredicate::Committed => {
                if !muts.is_empty() && !base_independent(muts) {
                    return expected_read(&self.frontier_at(key, anchor), muts) == *observed;
                }
                if expected_read(&Snapshot::initial(self.cfg.kind), muts) == *observed {
                    return true;
                }
                if !muts.is_empty() {
                    // Base-independent: every base folds the same.
                    return false;
                }
                // Incremental committed-membership index: answers "some
                // committed version of `key` below `anchor` equals the
                // observation" in O(log n) instead of walking the key's
                // version chain — and keeps answering after GC pruned
                // the chain, since summaries survive `prune_below`.
                self.keys.get(key).is_some_and(|k| k.contains_before(anchor, observed))
            }
        }
    }

    /// Violations reported so far.
    pub fn report(&self) -> &CheckReport {
        &self.report
    }

    /// Runtime counters so far.
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// Transactions currently resident in memory.
    pub fn resident_txns(&self) -> usize {
        self.txns.len()
    }

    /// The resident transactions, read-only (checkpoint and re-shard
    /// walk them).
    pub(crate) fn txns(&self) -> &FxHashMap<TxnId, OnlineTxn> {
        &self.txns
    }

    /// Put `t` in the resident map (from `make_resident` and the snapshot
    /// decoder), keeping the running byte count in step.
    pub(crate) fn insert_txn(&mut self, t: OnlineTxn) {
        self.txn_bytes += t.estimated_bytes();
        if let Some(old) = self.txns.insert(t.txn.tid, t) {
            self.txn_bytes -= old.estimated_bytes();
        }
    }

    /// Evict `tid` (GC spill, re-shard gather), keeping the running
    /// byte count in step.
    pub(crate) fn remove_txn(&mut self, tid: TxnId) -> Option<OnlineTxn> {
        let old = self.txns.remove(&tid)?;
        self.txn_bytes -= old.estimated_bytes();
        Some(old)
    }

    /// True when `tid` is resident with tentative (not yet finalized)
    /// EXT verdicts — used by shard workers to tell the coordinator
    /// whether an `ExtFinalized` event will eventually follow.
    pub(crate) fn is_pending(&self, tid: TxnId) -> bool {
        self.txns.get(&tid).is_some_and(|t| !t.finalized)
    }

    /// The resident-state share of [`Checker::estimated_memory_bytes`](aion_types::Checker::estimated_memory_bytes):
    /// transactions, the admission tables and the key table (no
    /// spill-store or buffer overhead).
    fn state_bytes_estimate(&self) -> usize {
        self.txn_bytes + self.globals.approx_bytes() + self.keys.counts().approx_bytes()
    }

    /// The transient deadline/trigger/event buffers' share of the
    /// estimate (plain lengths; nothing to maintain or recount).
    fn buffer_bytes(&self) -> usize {
        self.deadlines.len() * std::mem::size_of::<Reverse<(u64, TxnId)>>()
            + self.triggers.len() * std::mem::size_of::<(Key, EventKey)>()
            + self.events.capacity() * std::mem::size_of::<CheckEvent>()
    }

    /// [`Checker::estimated_memory_bytes`](aion_types::Checker::estimated_memory_bytes) recomputed by walking the
    /// resident state — the oracle the maintained counters must equal.
    /// Exists only in tests and debug builds; a release build cannot
    /// reach an O(resident state) loop from the estimate.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn recount_memory_bytes(&self) -> usize {
        let mut bytes = 0usize;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "commutative sum; visit order cannot affect the estimate"
        )]
        for t in self.txns.values() {
            bytes += t.estimated_bytes();
        }
        bytes += self.globals.approx_bytes();
        bytes += self.keys.recount().approx_bytes();
        bytes += self.spill.recount_buffered_bytes();
        bytes + self.buffer_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{AxiomKind, Checker, TxnBuilder, Value};

    fn checker() -> OnlineChecker {
        OnlineChecker::builder().build().unwrap()
    }

    fn t(tid: u64, sid: u32, sno: u32, s: u64, c: u64) -> TxnBuilder {
        TxnBuilder::new(tid).session(sid, sno).interval(s, c)
    }

    #[test]
    fn in_order_valid_history_passes() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 0);
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build(), 1);
        let out = a.finish();
        assert!(out.is_ok(), "{}", out.report);
        assert_eq!(out.stats.received, 2);
        assert_eq!(out.stats.finalized, 2);
    }

    #[test]
    fn figure2_out_of_order_clears_false_ext_and_finds_conflict() {
        // Paper Example 5: T1..T4 arrive, then the delayed T5.
        let x = Key(1);
        let y = Key(2);
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 2).put(x, Value(1)).build(), 0);
        a.feed(t(2, 1, 0, 3, 5).put(x, Value(2)).build(), 0);
        a.feed(t(3, 2, 0, 6, 9).read(x, Value(2)).put(y, Value(2)).build(), 0);
        a.feed(t(4, 3, 0, 8, 10).read(y, Value(1)).build(), 0);
        // At this point T4's read of y=1 is tentatively wrong (no writer of
        // value 1 known), but nothing is reported yet.
        assert_eq!(a.report().count(AxiomKind::Ext), 0);
        // T5 arrives late: justifies T4's read, conflicts with T3 on y.
        a.feed(t(5, 4, 0, 4, 7).read(x, Value(1)).put(y, Value(1)).build(), 100);
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Ext), 0, "{}", out.report);
        assert_eq!(out.report.count(AxiomKind::NoConflict), 1, "{}", out.report);
        assert_eq!(
            out.report.violations.iter().find(|v| v.kind() == AxiomKind::NoConflict),
            Some(&Violation::NoConflict { key: y, t1: TxnId(5), t2: TxnId(3) })
        );
        // T4 flip-flopped: wrong on arrival, rectified by T5.
        assert!(out.flips.total_flips >= 1);
    }

    /// Regression: GC must not prune version-chain members that RC's
    /// membership predicate still needs. The stale version `v=1` is
    /// committed long before the GC horizon; an RC reader arriving
    /// later may legally observe it.
    #[test]
    fn rc_membership_survives_gc_pruning() {
        let mut a = OnlineChecker::builder()
            .level(IsolationLevel::ReadCommitted)
            .ext_timeout_ms(10)
            .gc(OnlineGcPolicy::Checking { max_txns: 8 })
            .build()
            .unwrap();
        // 40 sequential writers of one key; ticks finalize and GC spills.
        for i in 1..=40u64 {
            let txn = t(i, 0, (i - 1) as u32, i * 10, i * 10 + 5).put(Key(1), Value(i)).build();
            a.feed(txn, i * 100);
            a.tick(i * 100);
        }
        assert!(a.stats().spilled_txns > 0, "GC must have spilled");
        // An RC reader anchored at the end of the stream observing the
        // *first* version: stale but committed — RC must accept, which
        // requires the whole version chain to still be queryable.
        a.feed(t(1000, 1, 0, 900, 901).read(Key(1), Value(1)).build(), 5000);
        let out = a.finish();
        assert!(out.is_ok(), "stale committed read is RC-legal: {}", out.report);
    }

    /// Regression: deleting the `has_committed_ext` GC latch must leave
    /// RC streams with *bounded* resident memory. Pre-fix, the latch
    /// exempted the frontier from pruning whenever committed-predicate
    /// readers were possible, so a long RC stream grew without bound;
    /// now the frontier prunes and the compacted membership summaries
    /// answer the stale-read question.
    #[test]
    fn rc_long_stream_memory_stays_bounded_under_gc() {
        let dir = std::env::temp_dir().join(format!("aion-rc-bounded-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = OnlineChecker::builder()
            .level(IsolationLevel::ReadCommitted)
            .ext_timeout_ms(10)
            .gc(OnlineGcPolicy::Checking { max_txns: 32 })
            .spill_path(dir.join("spill.bin"))
            .build()
            .unwrap();
        let run = |a: &mut OnlineChecker, from: u64, to: u64| {
            for i in from..to {
                // A bounded (key, value) working set: the summary's
                // steady state is what the stream revisits, not its
                // length.
                let txn = t(i + 1, 0, i as u32, i * 10 + 1, i * 10 + 5)
                    .put(Key(i % 4), Value(i % 8))
                    .build();
                a.feed(txn, i * 100);
                a.tick(i * 100);
            }
        };
        // The admission tables keep a tid and two timestamps per
        // transaction for the whole session, by design; the bound is on
        // the checking state GC can shed.
        let resident = |a: &OnlineChecker| a.estimated_memory_bytes() - a.globals.approx_bytes();
        run(&mut a, 0, 1_000);
        let mid = resident(&a);
        run(&mut a, 1_000, 5_000);
        let end = resident(&a);
        assert!(a.stats().spilled_txns > 0, "GC must have spilled");
        // 5x the stream must not approach 5x the resident bytes. (The
        // pre-fix latch kept every published version resident, scaling
        // linearly; the factor-3 bound leaves room for spill-segment
        // metadata, which grows by a few dozen bytes per pass.)
        assert!(end <= 3 * mid, "RC resident state must stay bounded: {mid} -> {end} bytes");
        assert!(
            a.keys.counts().members < 300,
            "membership summaries must compact under GC, got {} versions",
            a.keys.counts().members
        );
        let out = a.finish();
        assert!(out.is_ok(), "a clean RC stream must still pass: {}", out.report);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: `reload_below` used to rescan every spill segment
    /// from `Timestamp::MIN` on *every* deep-straggler arrival. A reload
    /// consumes what it loads, so a second straggler at or below an
    /// already-reloaded bound finds nothing left to read or decode.
    #[test]
    fn straggler_reload_passes_stop_rescanning() {
        let mut a = OnlineChecker::builder()
            .level(IsolationLevel::Si)
            .ext_timeout_ms(10)
            .gc(OnlineGcPolicy::Checking { max_txns: 8 })
            .build()
            .unwrap();
        for i in 1..=40u64 {
            let txn = t(i, 0, (i - 1) as u32, i * 10 + 1, i * 10 + 5).put(Key(1), Value(i)).build();
            a.feed(txn, i * 100);
            a.tick(i * 100);
        }
        assert!(a.stats().spilled_txns > 0, "GC must have spilled");
        assert!(
            a.gc_horizon_ts.is_some_and(|h| h >= Timestamp(14)),
            "the stragglers below must reach under the horizon ({:?})",
            a.gc_horizon_ts
        );
        // First deep straggler: its commit at 14 reaches the first
        // segment, which starts at 11. (Its snapshot precedes the first
        // commit at ts 15, so the initial value is all it can legally
        // read.) Still live, it pins the spill horizon at its start, so
        // no pass evicts what it reloaded.
        a.feed(t(1001, 1, 0, 12, 14).read(Key(1), Value(0)).build(), 5000);
        let reloaded = a.stats().reloaded_txns;
        assert!(reloaded >= 1, "the deep straggler must reload the first segment");
        // A second straggler at or below that bound: a plan that fails
        // every segment read shows that no segment is even attempted.
        let plan = crate::spill::SpillFaultPlan::new(1, 0.0, 1.0);
        a.spill.set_faults(Some(plan.clone()));
        a.feed(t(1002, 2, 0, 6, 13).read(Key(1), Value(0)).build(), 5001);
        assert_eq!(plan.fired(), 0, "repeated passes must not read a segment again");
        assert_eq!((a.stats().reloaded_txns, a.stats().spill_errors), (reloaded, 0));
        a.spill.set_faults(None);
        let out = a.finish();
        assert!(out.is_ok(), "both stragglers read their snapshots: {}", out.report);
    }

    /// Regression: an overlapping writer pair whose levels permit the
    /// overlap must not trip NOCONFLICT even when the first partner has
    /// been spilled out of resident memory — the partner's level
    /// travels inside the overlap index, not via a resident-transaction
    /// lookup (which would presume SI).
    #[test]
    fn spilled_overlap_partners_keep_their_level() {
        let feed = |partner_level: IsolationLevel| {
            let mut a = OnlineChecker::builder()
                .levels(LevelPolicy::per_txn(IsolationLevel::Si))
                .ext_timeout_ms(10)
                .gc(OnlineGcPolicy::Checking { max_txns: 4 })
                .build()
                .unwrap();
            // A long-interval reader whose low start anchor pins the
            // prune horizon (so the spilled writer's overlap interval
            // survives pruning) while its huge commit keeps it off the
            // oldest-commit-first spill list; the tick finalizes it so
            // it never blocks spilling.
            a.feed(
                t(50, 0, 0, 5, 5000).read(Key(9), Value(0)).level(IsolationLevel::Si).build(),
                0,
            );
            a.tick(100);
            // The RA-declared writer that will be spilled.
            a.feed(
                t(1, 1, 0, 10, 30).put(Key(1), Value(1)).level(IsolationLevel::ReadAtomic).build(),
                100,
            );
            // Fillers on disjoint keys push the resident count over the
            // GC threshold.
            for i in 2..=9u64 {
                let txn = t(i, i as u32, 0, i * 100, i * 100 + 1)
                    .put(Key(i + 100), Value(i))
                    .level(IsolationLevel::ReadAtomic)
                    .build();
                a.feed(txn, i * 100);
                a.tick(i * 100);
            }
            assert!(a.stats().spilled_txns > 0, "GC must have spilled");
            assert!(!a.txns.contains_key(&TxnId(1)), "partner must be non-resident");
            // A second writer of the same key overlapping [10, 30]. The
            // RC variant anchors at its commit (above the GC horizon),
            // so no straggler reload brings the partner back.
            a.feed(
                t(99, 20, 0, 20, 2000).put(Key(1), Value(99)).level(partner_level).build(),
                2000,
            );
            a.finish()
        };
        let rc = feed(IsolationLevel::ReadCommitted);
        assert_eq!(
            rc.report.count(AxiomKind::NoConflict),
            0,
            "an RA/RC overlap is legal even with the partner spilled: {}",
            rc.report
        );
        let si = feed(IsolationLevel::Si);
        assert_eq!(
            si.report.count(AxiomKind::NoConflict),
            1,
            "an SI member still binds the pair: {}",
            si.report
        );
    }

    #[test]
    fn ext_violation_reported_after_timeout() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 0);
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(9)).build(), 0);
        // Before the timeout nothing is reported.
        a.tick(4999);
        assert_eq!(a.report().count(AxiomKind::Ext), 0);
        a.tick(5001);
        assert_eq!(a.report().count(AxiomKind::Ext), 1);
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "no double report: {}", out.report);
    }

    #[test]
    fn late_arrival_after_timeout_does_not_unreport() {
        let mut a = checker();
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build(), 0);
        a.tick(6000); // finalized: EXT violation reported
        assert_eq!(a.report().count(AxiomKind::Ext), 1);
        // The justifying writer arrives far too late; verdict stays.
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 7000);
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Ext), 1);
    }

    #[test]
    fn int_violation_reported_immediately() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).read(Key(1), Value(6)).build(), 0);
        assert_eq!(a.report().count(AxiomKind::Int), 1, "INT is stable, no waiting");
    }

    #[test]
    fn session_violation_detected_online() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 10).put(Key(1), Value(1)).build(), 0);
        a.feed(t(2, 0, 1, 5, 12).build(), 0); // starts before predecessor commits
        assert_eq!(a.report().count(AxiomKind::Session), 1);
    }

    #[test]
    fn ser_mode_checks_commit_order_visibility() {
        let mut a = OnlineChecker::builder().level(IsolationLevel::Ser).build().unwrap();
        // Overlapping under SI but reads the pre-commit value: an EXT
        // violation under SER.
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(1)).build(), 0);
        a.feed(t(2, 1, 0, 3, 6).put(Key(1), Value(2)).build(), 0);
        a.feed(t(3, 2, 0, 4, 7).read(Key(1), Value(1)).build(), 0);
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "{}", out.report);
        assert_eq!(out.report.count(AxiomKind::NoConflict), 0, "SER skips NOCONFLICT");
    }

    #[test]
    fn ser_mode_out_of_order_justification() {
        let mut a = OnlineChecker::builder().level(IsolationLevel::Ser).build().unwrap();
        // Reader arrives before the writer it read from (commit order:
        // writer at 2, reader at 4).
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build(), 0);
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 10);
        let out = a.finish();
        assert!(out.is_ok(), "{}", out.report);
        assert!(out.flips.total_flips >= 1, "verdict must have flipped");
    }

    #[test]
    fn duplicate_tid_and_timestamp_reported() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 2).build(), 0);
        a.feed(t(1, 1, 0, 3, 4).build(), 0);
        assert!(a.report().violations.iter().any(|v| matches!(v, Violation::DuplicateTid { .. })));
        a.feed(t(3, 2, 0, 2, 5).build(), 0); // start ts collides with t1's commit
        assert!(a
            .report()
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateTimestamp { ts: Timestamp(2), .. })));
    }

    #[test]
    fn eq1_malformed_rejected() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 9, 3).put(Key(1), Value(1)).build(), 0);
        assert_eq!(a.report().count(AxiomKind::Integrity), 1);
        // Later writers on the same key are unaffected.
        a.feed(t(2, 1, 0, 10, 11).put(Key(1), Value(2)).build(), 0);
        a.feed(t(3, 2, 0, 12, 13).read(Key(1), Value(2)).build(), 0);
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::NoConflict), 0);
        assert_eq!(out.report.count(AxiomKind::Ext), 0, "{}", out.report);
    }

    #[test]
    fn read_only_txn_same_start_commit() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(1)).build(), 0);
        a.feed(t(2, 1, 0, 5, 5).read(Key(1), Value(1)).build(), 0);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn list_out_of_order_append_cascade() {
        // Writer W2 appends on top of W1, but W1 arrives later: W2's
        // published list must be recomputed and the reader re-justified.
        let k = Key(1);
        let mut a = OnlineChecker::builder().kind(DataKind::List).build().unwrap();
        // Arrive out of order: W2 (interval [3,4]) first, then reader,
        // then W1 ([1,2]).
        a.feed(t(2, 1, 0, 3, 4).append(k, Value(20)).build(), 0);
        a.feed(t(3, 2, 0, 5, 6).read_list(k, vec![Value(10), Value(20)]).build(), 0);
        a.feed(t(1, 0, 0, 1, 2).append(k, Value(10)).build(), 0);
        let out = a.finish();
        assert!(out.is_ok(), "cascade should rejustify the reader: {}", out.report);
    }

    #[test]
    fn gc_spills_and_straggler_reloads() {
        let mut a = OnlineChecker::builder()
            .ext_timeout_ms(10)
            .gc(OnlineGcPolicy::Checking { max_txns: 8 })
            .build()
            .unwrap();
        // Feed 40 sequential writers with increasing virtual time so the
        // timeouts fire and GC can spill.
        for i in 1..=40u64 {
            let txn = t(i, 0, (i - 1) as u32, i * 10, i * 10 + 5)
                .put(Key(i % 4), Value(i))
                .read(Key(i % 4), Value(i))
                .build();
            a.feed(txn, i * 100);
            a.tick(i * 100);
        }
        assert!(a.stats().spilled_txns > 0, "GC must have spilled");
        assert!(a.resident_txns() <= 12);
        // A deep straggler overlapping spilled territory: a reader whose
        // snapshot is ancient. k=1 last written by txn 37 at ts 375; a read
        // at ts 56 must see txn 5's value (w(k1)=5 committed at ts 55).
        a.feed(
            TxnBuilder::new(1000).session(1, 0).interval(56, 57).read(Key(1), Value(5)).build(),
            5000,
        );
        assert!(a.stats().reloaded_txns > 0, "straggler must trigger reload");
        let out = a.finish();
        assert!(out.is_ok(), "{}", out.report);
    }

    /// Regression: a spilled entry with `start_ts > commit_ts` — `admit`
    /// lets none in, so only a corrupt spill file or an imported
    /// checkpoint segment carries one — used to restore `Ok` and then
    /// panic the overlap index at the next straggler reload.
    #[test]
    fn inverted_interval_in_a_spill_segment_is_refused() {
        use crate::spill::SpillEntry;
        use aion_types::{codec::CodecError, SnapshotError, SpillOp};
        let mut a = checker();
        a.feed(t(1, 0, 0, 10, 50).put(Key(1), Value(1)).build(), 0);
        let txn = t(2, 1, 0, 90, 30).put(Key(1), Value(2)).build();
        let write_set = vec![(Key(1), Snapshot::Scalar(Value(2)))];
        a.spill.spill(&[SpillEntry { txn, write_set }]).unwrap();
        a.gc_horizon_ts = Some(Timestamp(90));

        let restored = OnlineChecker::restore(&a.checkpoint().unwrap());
        assert!(matches!(restored, Err(SnapshotError::Codec(CodecError::OutOfRange))));
        // A straggler anchored below the horizon whose commit reaches the
        // segment: the reload fails as a typed event, and stays retryable.
        let events = a.feed(t(3, 2, 0, 20, 95).read(Key(1), Value(0)).build(), 1);
        let reload_failed =
            |e: &CheckEvent| matches!(e, CheckEvent::SpillError { op: SpillOp::Reload, .. });
        assert!(events.iter().any(reload_failed), "{events:?}");
        assert_eq!((a.stats().spill_errors, a.stats().reloaded_txns), (1, 0));
    }

    /// Regression: a late append below a spilled list writer must
    /// cascade into that writer's published value, as it does without
    /// GC. The reload used to bring the writer back without its writer
    /// entry, and only the segments up to the straggler's own commit, so
    /// the reader saw the stale `[1]` and was reported.
    #[test]
    fn a_late_append_below_a_spilled_list_writer_cascades() {
        let k1 = Key(1);
        let run = |gc: OnlineGcPolicy| {
            let mut a = OnlineChecker::builder()
                .kind(DataKind::List)
                .ext_timeout_ms(10)
                .gc(gc)
                .build()
                .unwrap();
            a.feed(t(1, 0, 0, 100, 110).append(k1, Value(1)).build(), 0);
            // Fillers on other keys push the writer out.
            for i in 2..=9u64 {
                a.feed(
                    t(i, i as u32, 0, 200 + 10 * i, 201 + 10 * i).append(Key(i), Value(i)).build(),
                    i,
                );
            }
            // The straggler appends below the spilled writer.
            a.feed(t(10, 10, 0, 50, 60).append(k1, Value(0)).build(), 20);
            a.feed(t(11, 11, 0, 400, 401).read_list(k1, vec![Value(0), Value(1)]).build(), 30);
            (a.stats(), a.finish())
        };
        let (_, no_gc) = run(OnlineGcPolicy::None);
        assert!(no_gc.is_ok(), "{}", no_gc.report);
        let (stats, gc) = run(OnlineGcPolicy::Checking { max_txns: 4 });
        assert!(gc.is_ok(), "GC must not change the verdict: {}", gc.report);
        assert!(stats.spilled_txns > 0 && stats.reloaded_txns > 0, "{stats:?}");
    }

    /// Regression: a writer that is reloaded and spilled again must come
    /// back for a straggler overlapping it. Segments are selected by
    /// their first *start*; a reload floor kept beside the store once
    /// decided whether to look at them at all, and the re-spill pulled it
    /// back only below the writer's *commit*, so a straggler committing
    /// in between skipped the reload and missed the conflict. A reload
    /// now consumes its segment and there is no floor: the re-spilled
    /// segment is in the store, and the straggler takes it.
    #[test]
    fn a_straggler_overlapping_a_respilled_writer_reloads_it() {
        let run = |gc: OnlineGcPolicy| {
            let mut a = OnlineChecker::builder().ext_timeout_ms(10).gc(gc).build().unwrap();
            let filler =
                |i: u64| t(i, i as u32, 0, 100 + 10 * i, 101 + 10 * i).put(Key(i), Value(i));
            a.feed(t(8, 8, 0, 19, 56).put(Key(0), Value(8)).build(), 0);
            for i in 30..34 {
                a.feed(filler(i).build(), 1); // spill the writer
            }
            // A deep straggler reloads the writer's segment.
            a.feed(t(20, 20, 0, 1, 60).read(Key(9), Value(0)).build(), 20);
            for i in 34..38 {
                a.feed(filler(i).build(), 40); // spill the writer again
            }
            a.feed(t(2, 2, 0, 8, 20).put(Key(0), Value(2)).build(), 50);
            a.finish().report.violations
        };
        let conflict = [Violation::NoConflict { key: Key(0), t1: TxnId(2), t2: TxnId(8) }];
        assert_eq!(run(OnlineGcPolicy::None), conflict);
        assert_eq!(run(OnlineGcPolicy::Checking { max_txns: 4 }), conflict);
    }

    #[test]
    fn gc_cannot_spill_while_everything_live() {
        let mut a =
            OnlineChecker::builder().gc(OnlineGcPolicy::Checking { max_txns: 4 }).build().unwrap();
        // No ticks: nothing finalizes, so nothing may be spilled (the
        // paper's worst case).
        for i in 1..=10u64 {
            a.feed(t(i, i as u32 - 1, 0, i * 10, i * 10 + 5).read(Key(1), Value(0)).build(), 0);
        }
        assert_eq!(a.stats().spilled_txns, 0);
        assert_eq!(a.resident_txns(), 10);
    }

    /// The per-read flip count rides in the padding after the two
    /// flags; a wider counter would grow every resident read.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn read_state_keeps_its_size() {
        assert_eq!(std::mem::size_of::<ReadState>(), 72);
    }

    #[test]
    fn flip_details_track_wrong_then_right() {
        let mut a = checker();
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build(), 0);
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 7);
        let out = a.finish();
        assert!(out.is_ok());
        assert_eq!(out.flips.pairs_with_flips, 1);
        assert_eq!(out.flips.txns_with_flips, 1);
        assert_eq!(out.flips.flip_histogram, [1, 0, 0, 0]);
        // Wrong from 0 ms to 7 ms: the 2–10 ms bucket.
        assert_eq!(out.flips.rectify_histogram, [0, 0, 1, 0, 0]);
    }

    #[test]
    fn events_stream_incrementally() {
        let mut a = checker();
        // A stable INT violation is emitted as an event at arrival.
        let evs = a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).read(Key(1), Value(6)).build(), 0);
        assert!(
            evs.iter().any(|e| matches!(e, CheckEvent::Violation(Violation::Int { .. }))),
            "{evs:?}"
        );
        // A tentatively-wrong read flips at arrival...
        let evs = a.feed(t(2, 1, 0, 3, 4).read(Key(2), Value(7)).build(), 0);
        assert!(evs.iter().all(|e| !e.is_violation()), "EXT must stay tentative: {evs:?}");
        // ...and flips back when the justifying writer shows up late.
        let evs = a.feed(t(3, 2, 0, 1, 2).put(Key(2), Value(7)).build(), 9);
        assert!(
            evs.iter().any(|e| matches!(
                e,
                CheckEvent::VerdictFlip { tid: TxnId(2), rectified_after_ms: Some(9), .. }
            )),
            "{evs:?}"
        );
        // The timeout finalizes t2 with zero violations.
        let evs = a.tick(10_000);
        assert!(
            evs.contains(&CheckEvent::ExtFinalized { tid: TxnId(2), violations: 0 }),
            "{evs:?}"
        );
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Int), 1);
        assert_eq!(out.report.count(AxiomKind::Ext), 0);
    }

    #[test]
    fn ext_violation_event_carries_finalization() {
        let mut a = checker();
        a.feed(t(1, 0, 0, 3, 4).read(Key(1), Value(9)).build(), 0);
        let evs = a.tick(6_000);
        let viols = evs.iter().filter(|e| e.is_violation()).count();
        assert_eq!(viols, 1, "{evs:?}");
        assert!(evs.contains(&CheckEvent::ExtFinalized { tid: TxnId(1), violations: 1 }));
    }

    #[test]
    fn spill_pass_event_emitted_under_gc() {
        let mut a = OnlineChecker::builder()
            .ext_timeout_ms(10)
            .gc(OnlineGcPolicy::Checking { max_txns: 8 })
            .build()
            .unwrap();
        let mut saw_spill = false;
        for i in 1..=40u64 {
            let txn = t(i, 0, (i - 1) as u32, i * 10, i * 10 + 5).put(Key(i % 4), Value(i)).build();
            let mut evs = a.feed(txn, i * 100);
            evs.extend(a.tick(i * 100));
            saw_spill |= evs.iter().any(|e| matches!(e, CheckEvent::SpillPass { .. }));
        }
        assert!(saw_spill, "GC must announce spill passes");
    }

    #[test]
    fn events_off_keeps_verdicts_but_streams_nothing() {
        let mut a = OnlineChecker::builder().events(false).build().unwrap();
        let evs = a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).read(Key(1), Value(6)).build(), 0);
        assert!(evs.is_empty(), "events disabled: {evs:?}");
        assert!(a.tick(10_000).is_empty());
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Int), 1, "report is unaffected");
    }

    #[test]
    fn builder_roundtrips_config() {
        let cfg = AionConfig::builder()
            .kind(DataKind::List)
            .level(IsolationLevel::Ser)
            .ext_timeout_ms(123)
            .gc(OnlineGcPolicy::Full { max_txns: 7 })
            .naive_recheck(true)
            .events(false)
            .shards(3)
            .config();
        assert_eq!(cfg.kind, DataKind::List);
        assert_eq!(cfg.uniform_level(), Some(IsolationLevel::Ser));
        assert_eq!(cfg.ext_timeout_ms, 123);
        assert_eq!(cfg.gc, OnlineGcPolicy::Full { max_txns: 7 });
        assert!(cfg.naive_recheck && !cfg.events);
        assert_eq!((cfg.shards, cfg.worker), (3, None));
        let ck = OnlineChecker::builder().level(IsolationLevel::Ser).build().unwrap();
        assert_eq!(ck.name(), "aion-ser");
        assert_eq!(Checker::name(&ck), "aion-ser");
    }

    #[test]
    fn uncreatable_spill_file_is_a_typed_error_not_a_panic() {
        let bad = std::path::PathBuf::from("/nonexistent-dir-aion/spill.bin");
        let Err(err) = OnlineChecker::builder().spill_path(bad.clone()).build() else {
            panic!("opening a session with an uncreatable spill file must fail");
        };
        match &err {
            ConfigError::SpillFile { path, source } => {
                assert_eq!(path, &bad);
                assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
            }
            other => panic!("expected SpillFile, got {other}"),
        }
        assert!(err.to_string().contains("spill file"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        // The sharded constructor surfaces the same error (suffixed per
        // worker) instead of panicking a worker thread.
        let Err(err) = OnlineChecker::builder().spill_path(bad).shards(2).build_sharded() else {
            panic!("sharded sessions must surface the same error");
        };
        assert!(matches!(err, ConfigError::SpillFile { .. }));
    }

    #[test]
    fn memory_estimate_includes_spill_and_buffer_overhead() {
        let feed = |mut a: OnlineChecker| -> OnlineChecker {
            for i in 1..=40u64 {
                let txn =
                    t(i, 0, (i - 1) as u32, i * 10, i * 10 + 5).put(Key(i % 4), Value(i)).build();
                a.feed(txn, i * 100);
                a.tick(i * 100);
            }
            a
        };
        let gc = OnlineGcPolicy::Checking { max_txns: 8 };
        let a = feed(OnlineChecker::builder().ext_timeout_ms(10).gc(gc).build().unwrap());
        assert!(a.stats().spilled_txns > 0, "GC must have spilled");
        let spill = a.spill.buffered_bytes();
        assert!(
            spill >= a.stats().spill_bytes as usize,
            "no straggler reloaded, so the in-memory backend still holds every spilled byte \
             ({spill} vs {})",
            a.stats().spill_bytes
        );
        // Pin the accounting: the estimate is exactly state + spill store
        // + deadline/trigger/event buffers.
        let expected = a.state_bytes_estimate()
            + spill
            + a.deadlines.len() * std::mem::size_of::<Reverse<(u64, TxnId)>>()
            + a.triggers.len() * std::mem::size_of::<(Key, EventKey)>()
            + a.events.capacity() * std::mem::size_of::<CheckEvent>();
        assert_eq!(a.estimated_memory_bytes(), expected);
        assert!(
            a.estimated_memory_bytes() > a.state_bytes_estimate(),
            "spill overhead must be visible in the estimate"
        );

        // A disk-backed spill store pays only segment metadata: the same
        // feed must estimate less than the in-memory-spill twin.
        let dir = std::env::temp_dir().join(format!("aion-mem-est-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let b = feed(
            OnlineChecker::builder()
                .ext_timeout_ms(10)
                .gc(gc)
                .spill_path(dir.join("spill.bin"))
                .build()
                .unwrap(),
        );
        assert_eq!(b.stats().spilled_txns, a.stats().spilled_txns, "twin runs spill identically");
        assert!(
            b.spill.buffered_bytes() < spill,
            "disk-backed spilling must not count segment bytes as resident"
        );
        assert!(b.estimated_memory_bytes() < a.estimated_memory_bytes());
        drop(b);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `tick(u64::MAX)` is the end-of-stream drain every driver issues;
    /// an arrival after it used to overflow `now_ms + ext_timeout_ms`,
    /// and a session reaching `sno == u32::MAX` used to wrap its
    /// expected successor to 0.
    #[test]
    fn deadline_and_sno_arithmetic_saturate_at_the_edges() {
        let mut a = checker();
        a.tick(u64::MAX);
        a.feed(t(1, 0, u32::MAX, 1, 2).read(Key(1), Value(9)).build(), 0);
        assert_eq!(a.deadlines.peek(), Some(&Reverse((u64::MAX, TxnId(1)))));
        assert_eq!(a.report().count(AxiomKind::Session), 1, "the session must start at sno 0");
        // The successor of u32::MAX is not 0: a restarted session is flagged.
        // The clock already stands at the end of time, so this `feed` is
        // also what finalizes txn 1 (deadline `u64::MAX`, due now).
        let events = a.feed(t(2, 0, 0, 3, 4).build(), 0);
        assert_eq!(a.report().count(AxiomKind::Session), 2, "{}", a.report());
        assert!(events.contains(&CheckEvent::ExtFinalized { tid: TxnId(1), violations: 1 }));
    }

    #[test]
    fn conflict_with_late_arriving_earlier_committer_normalized() {
        // T3 [6,9] arrives first; T5 [4,7] second. Reporter must be T5
        // (smaller commit ts), matching CHRONOS.
        let y = Key(2);
        let mut a = checker();
        a.feed(t(3, 0, 0, 6, 9).put(y, Value(2)).build(), 0);
        a.feed(t(5, 1, 0, 4, 7).put(y, Value(1)).build(), 0);
        let out = a.finish();
        assert_eq!(
            out.report.violations,
            vec![Violation::NoConflict { key: y, t1: TxnId(5), t2: TxnId(3) }]
        );
    }
}
