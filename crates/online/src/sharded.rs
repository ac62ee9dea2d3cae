//! Sharded parallel online checking: N shard workers, one coordinator.
//!
//! [`ShardedChecker`] scales [`OnlineChecker`] beyond one core by
//! partitioning the key space across `N` worker threads (one
//! single-threaded `OnlineChecker` each, fed over crossbeam channels)
//! while a coordinator owns everything that is *not* per-key:
//!
//! * **Routing** — each arrival is routed by `crate::feed::shard_of`;
//!   a transaction touching several shards is split by
//!   [`crate::feed::route_txn`] into per-shard *sub-footprints* (same
//!   tid/sid/sno/timestamps, only the owned keys' operations).
//! * **Global checks** — duplicate tid/timestamp detection, SESSION,
//!   and Eq. (1) well-formedness need the whole transaction and the
//!   whole session stream, so the coordinator performs them exactly
//!   once, byte-for-byte like `OnlineChecker`'s `feed`; a worker (a
//!   checker configured with its shard index) skips them.
//! * **Verdict-state ownership** — per-key state (frontier versions,
//!   readers/writers indexes, NOCONFLICT intervals, tentative EXT
//!   verdicts) lives entirely inside the owning shard. This is sound
//!   because every INT/EXT/NOCONFLICT axiom instance relates operations
//!   on a single key; see `docs/isolation-models.md`.
//! * **Event sequencing** — worker [`CheckEvent`]s are pumped onto one
//!   outbound stream (per-shard order preserved, shards interleaved by
//!   reply arrival). `ExtFinalized` events of a split transaction are
//!   *merged*: the coordinator counts the read-bearing sub-footprints
//!   at route time, holds per-shard finalizations until the last one
//!   lands, and emits a single event with the summed violation count —
//!   exactly one `ExtFinalized` per pending transaction, as in the
//!   single checker.
//! * **Outcome merging** — `finish` joins the workers and folds their
//!   reports, [`CheckerStats`] and [`FlipSummary`]s (in shard order,
//!   deterministically) into one uniform [`Outcome`], fixing up
//!   `received`/`finalized` to whole-transaction counts.
//!
//! A worker's `feed` advances its virtual clock before admitting the part,
//! so EXT finalization *verdicts* are identical to the single checker's
//! regardless of when `tick`s are forwarded; the coordinator therefore
//! rate-limits clock broadcasts to one per `TICK_BROADCAST_MS` of
//! virtual time and only pays the fan-out when the clock meaningfully
//! advances. `tick(u64::MAX)` (the end-of-stream
//! drain used by [`crate::feed::run_plan`]) is a synchronous barrier:
//! it flushes every worker so end-of-stream finalizations surface as
//! events before `finish`.
//!
//! ```
//! use aion_online::OnlineChecker;
//! use aion_types::{Checker, DataKind, IsolationLevel, Key, TxnBuilder, Value};
//!
//! let mut checker =
//!     OnlineChecker::builder().level(IsolationLevel::Si).shards(4).build_sharded().expect("config");
//! checker.feed(
//!     TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(7)).build(), 0);
//! checker.feed(
//!     TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(7)).build(), 1);
//! let outcome = checker.finish();
//! assert!(outcome.is_ok());
//! assert_eq!(outcome.txns, 2);
//! ```

use crate::checker::{
    aion_level_name, record_violation, AionConfig, ConfigError, GlobalChecks, OnlineChecker,
    OnlineGcPolicy, OnlineTxn,
};
use crate::feed::{route_txn, shard_of, RoutedTxn};
use crate::snapshot::config_error;
use crate::spill::SpillFaultPlan;
use crate::transport::{
    ShardCmd, ShardReply, ShardTransport, SimSchedule, SimStats, SimTransport, ThreadTransport,
};
use aion_types::codec::Wire;
use aion_types::snapshot::{
    get_snapshot_header, put_snapshot_header, SnapshotError, SNAPSHOT_KIND_SHARDED,
};
use aion_types::{
    wire_struct, CheckEvent, CheckReport, Checker, CheckerStats, FlipSummary, FxHashMap, Key,
    Outcome, Timestamp, Transaction, TxnId,
};
use bytes::BytesMut;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Merge state for one read-bearing transaction, driven entirely by
/// worker replies: the coordinator only knows how many `Fed` replies
/// to expect (one per routed part — pure routing knowledge); which
/// parts hold tentative reads is reported by the workers themselves,
/// so there is no cross-thread read-ownership predicate to keep in
/// agreement.
#[derive(Default)]
struct PendingFinalize {
    /// Routed parts whose `Fed` reply has not arrived yet.
    awaiting_fed: u32,
    /// Parts that replied `pending` and have not finalized yet.
    pending_reads: u32,
    /// Shards that reported an actual finalization (vs. settling at
    /// arrival, which produces no event).
    finalized_shards: u32,
    /// EXT violations summed across the shards' finalizations.
    violations: u32,
}

wire_struct!(PendingFinalize { awaiting_fed, pending_reads, finalized_shards, violations });

/// Least virtual-time advance (ms) between two clock broadcasts to the
/// workers. A worker's `feed` advances its own clock before admitting an
/// arrival, so this only bounds how promptly *idle* shards surface EXT
/// finalizations — verdicts are unaffected.
const TICK_BROADCAST_MS: u64 = 50;

/// Most shard workers one session may run: each is an OS thread, and the
/// count can arrive from a socket or a snapshot.
pub const MAX_SHARDS: usize = 1024;

/// `shards` clamped to at least 1, or refused beyond [`MAX_SHARDS`].
fn check_shards(shards: usize) -> Result<usize, ConfigError> {
    if shards > MAX_SHARDS {
        return Err(ConfigError::TooManyShards { shards });
    }
    Ok(shards.max(1))
}

/// The coordinator's persistent state: what a checkpoint writes after the
/// configuration and the worker bodies, in this order. A fresh session
/// starts from its `Default`.
#[derive(Default)]
struct Coordinator {
    /// The same `GlobalChecks` code the single checker runs, executed
    /// once per whole transaction.
    globals: GlobalChecks,
    report: CheckReport,
    pending: FxHashMap<TxnId, PendingFinalize>,
    received: usize,
    /// Malformed arrivals (duplicate tid, Eq. (1)) never forwarded.
    dropped: usize,
    now_ms: u64,
    last_tick_broadcast: u64,
    /// Outbound events staged since the last `feed`/`tick` returned.
    events: Vec<CheckEvent>,
}

wire_struct!(Coordinator {
    globals,
    report,
    pending,
    received,
    dropped,
    now_ms,
    last_tick_broadcast,
    events
});

/// The sharded parallel online checker (see the module docs).
///
/// Implements the same streaming [`Checker`] session trait as
/// [`OnlineChecker`], so `run_plan`, the `aion` facade and every
/// example drive it unchanged. Final verdicts and violation sets are
/// identical to the single checker's for any shard count (property
/// tested in `tests/sharded_equivalence.rs`); event *timing* may lag
/// arrivals, since workers run asynchronously.
pub struct ShardedChecker {
    /// The session's configuration; `shards` is the worker count.
    cfg: AionConfig,
    /// How commands reach the workers and replies come back: real
    /// threads over channels in production, the deterministic simulator
    /// under `aion-dst` (see [`crate::transport`]).
    transport: Box<dyn ShardTransport>,
    co: Coordinator,
}

/// Start `workers` on threads — or, for `aion-dst`, inline on the calling
/// thread under the seeded adversarial `sched`: verdicts must be identical
/// for any schedule, only event *timing* may differ.
fn start(workers: Vec<OnlineChecker>, sched: Option<SimSchedule>) -> Box<dyn ShardTransport> {
    match sched {
        Some(sched) => Box::new(SimTransport::new(workers, sched)),
        None => Box::new(ThreadTransport::spawn(workers)),
    }
}

impl ShardedChecker {
    /// Open a sharded session over `cfg.shards` workers, each
    /// running an [`OnlineChecker`] with this configuration scoped to
    /// its key partition. Per-shard GC budgets divide
    /// [`OnlineGcPolicy`]'s `max_txns` evenly; a configured spill path
    /// gets a `.shardK` suffix per worker, and every worker shares the
    /// fault plan `faults` (testing only). An uncreatable worker spill
    /// file is a typed [`ConfigError`]; every worker checker is built
    /// *before* any thread spawns, so a failure leaves no half-started
    /// session behind.
    pub(crate) fn open(
        mut cfg: AionConfig,
        faults: Option<Arc<SpillFaultPlan>>,
        sched: Option<SimSchedule>,
    ) -> Result<ShardedChecker, ConfigError> {
        cfg.shards = check_shards(cfg.shards)?;
        let workers = (0..cfg.shards)
            .map(|shard| {
                let mut worker = OnlineChecker::try_new(worker_config(&cfg, shard))?;
                worker.spill.set_faults(faults.clone());
                Ok(worker)
            })
            .collect::<Result<_, _>>()?;
        Ok(ShardedChecker { cfg, transport: start(workers, sched), co: Coordinator::default() })
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.cfg.shards
    }

    /// Register the number of routed parts whose `Fed` replies will
    /// drive the `ExtFinalized` merge. Transactions with no reads at
    /// all are skipped — no shard can ever report tentative verdicts
    /// for them.
    fn track_pending(&mut self, tid: TxnId, txn: &Transaction, parts: u32) {
        if self.cfg.events && txn.ops.iter().any(aion_types::Op::is_read) {
            let merge = PendingFinalize { awaiting_fed: parts, ..PendingFinalize::default() };
            self.co.pending.insert(tid, merge);
        }
    }

    /// Schedule/fault counters of the simulated transport (`None` for
    /// production sessions over real threads).
    pub fn sim_stats(&self) -> Option<SimStats> {
        self.transport.sim_stats()
    }

    fn broadcast_tick(&mut self, now_ms: u64) {
        self.co.last_tick_broadcast = now_ms;
        for shard in 0..self.num_shards() {
            self.transport.send(shard, ShardCmd::Tick { now_ms });
        }
    }

    /// Send `cmd()` to every worker, then block until each has answered
    /// it — the replies `pick` accepts — absorbing every other reply on
    /// the way. Always collects the whole round, so none of its answers
    /// is left on the reply stream; fewer than one per worker come back
    /// only if a worker died (`finish` reports that through `join`).
    fn round<T>(
        &mut self,
        cmd: fn() -> ShardCmd,
        pick: fn(ShardReply) -> Result<T, ShardReply>,
    ) -> Vec<T> {
        let shards = self.num_shards();
        for shard in 0..shards {
            self.transport.send(shard, cmd());
        }
        let mut answers = Vec::with_capacity(shards);
        while answers.len() < shards {
            match self.transport.recv().map(pick) {
                Some(Ok(answer)) => answers.push(answer),
                Some(Err(other)) => self.absorb(other),
                None => break,
            }
        }
        answers
    }

    /// Block until every worker has processed all commands sent so far,
    /// absorbing their replies.
    fn barrier(&mut self) {
        self.round(
            || ShardCmd::Flush,
            |reply| match reply {
                ShardReply::Flushed => Ok(()),
                other => Err(other),
            },
        );
    }

    /// Absorb the currently-ready worker replies without blocking and
    /// hand over everything staged for the caller.
    fn pump(&mut self) -> Vec<CheckEvent> {
        while let Some(reply) = self.transport.try_recv() {
            self.absorb(reply);
        }
        std::mem::take(&mut self.co.events)
    }

    /// Fold one streaming worker reply into coordinator state.
    fn absorb(&mut self, reply: ShardReply) {
        match reply {
            ShardReply::Fed { tid, pending, events } => {
                self.note_fed(tid, pending);
                self.ingest(events);
            }
            ShardReply::Ticked { events } => self.ingest(events),
            // Answers to a `round`, which collects all of its own.
            ShardReply::Flushed | ShardReply::Checkpointed { .. } | ShardReply::Done { .. } => {}
        }
    }

    /// Sequence worker events onto the outbound stream, merging
    /// split-transaction `ExtFinalized`s into single events.
    fn ingest(&mut self, events: Vec<CheckEvent>) {
        for event in events {
            match event {
                CheckEvent::ExtFinalized { tid, violations } => {
                    self.note_finalized(tid, violations)
                }
                other => self.co.events.push(other),
            }
        }
    }

    /// One routed part was processed by its worker; `pending` says
    /// whether that part still holds tentative reads (so an
    /// `ExtFinalized` from that shard will follow eventually).
    fn note_fed(&mut self, tid: TxnId, pending: bool) {
        let Some(p) = self.co.pending.get_mut(&tid) else { return };
        p.awaiting_fed -= 1;
        if pending {
            p.pending_reads += 1;
        }
        self.maybe_emit_finalized(tid);
    }

    /// One shard finalized its part of `tid`. Per-worker FIFO
    /// guarantees the shard's own `Fed` reply arrived first, so
    /// `pending_reads` is positive here.
    fn note_finalized(&mut self, tid: TxnId, violations: u32) {
        let Some(p) = self.co.pending.get_mut(&tid) else {
            // Unknown tid (e.g. events toggled mid-session): pass through.
            self.co.events.push(CheckEvent::ExtFinalized { tid, violations });
            return;
        };
        p.pending_reads -= 1;
        p.finalized_shards += 1;
        p.violations += violations;
        self.maybe_emit_finalized(tid);
    }

    fn maybe_emit_finalized(&mut self, tid: TxnId) {
        let Some(p) = self.co.pending.get(&tid) else { return };
        if p.awaiting_fed > 0 || p.pending_reads > 0 {
            return;
        }
        // Every part is processed and none still holds tentative reads.
        // Emit one merged event iff some shard actually held tentative
        // verdicts past arrival — mirroring the single checker, which
        // only announces transactions that went through its deadline
        // queue.
        let (finalized_shards, violations) = (p.finalized_shards, p.violations);
        self.co.pending.remove(&tid);
        if finalized_shards > 0 {
            self.co.events.push(CheckEvent::ExtFinalized { tid, violations });
        }
    }

    /// Checkpoint the whole sharded session as a `SNAPSHOT_KIND_SHARDED`
    /// envelope: the configuration, one embedded [`OnlineChecker`]
    /// snapshot body per worker, then the coordinator record.
    ///
    /// Runs a full barrier first, so every in-flight arrival is processed
    /// and every staged worker event has been absorbed: the snapshot cuts
    /// the session between arrivals, the granularity at which
    /// [`ShardedChecker::restore`] resumes with identical verdicts. A
    /// worker that cannot serialize itself (its spill file is unreadable)
    /// fails the checkpoint with its typed error; the session stays
    /// usable.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, SnapshotError> {
        self.barrier();
        let mut bodies = self.round(
            || ShardCmd::Checkpoint,
            |reply| match reply {
                ShardReply::Checkpointed { shard, body } => Ok((shard, body)),
                other => Err(other),
            },
        );
        if bodies.len() < self.num_shards() {
            return Err(SnapshotError::Corrupt("a shard worker died during checkpoint".into()));
        }
        bodies.sort_unstable_by_key(|(shard, _)| *shard);
        let bodies: Vec<Vec<u8>> =
            bodies.into_iter().map(|(_, body)| body).collect::<Result<_, _>>()?;

        let mut buf = BytesMut::with_capacity(4096);
        put_snapshot_header(&mut buf, SNAPSHOT_KIND_SHARDED);
        self.cfg.put(&mut buf);
        bodies.put(&mut buf);
        self.co.put(&mut buf);
        Ok(buf.to_vec())
    }

    /// Restore a sharded session from [`checkpoint`](Self::checkpoint)
    /// bytes, respawning the workers.
    ///
    /// `shards: None` resumes the checkpoint's own topology, one worker
    /// per embedded snapshot, byte-identically: worker spill files (the
    /// configured path with its `.shardK` suffix) are re-created and
    /// re-populated, and verdicts, reports and events continue exactly as
    /// the interrupted session would have.
    ///
    /// `shards: Some(n)` always re-partitions, also when `n` is the
    /// checkpoint's own count: every worker's state (including its
    /// spilled segments) is reloaded, merged per transaction, and split
    /// again under `n`-way key routing. The resumed session reports the
    /// same violations and final verdicts as the interrupted one would
    /// have; runtime counters (spill/GC statistics, re-evaluation counts)
    /// restart from the merged totals and event *timing* may differ —
    /// verdict-equivalent, not byte-identical
    /// (`tests/snapshot_differential.rs` pins both contracts).
    pub fn restore(bytes: &[u8], shards: Option<usize>) -> Result<ShardedChecker, SnapshotError> {
        Self::resume(bytes, shards, None)
    }

    /// [`ShardedChecker::restore`] onto the deterministic simulated
    /// transport.
    pub fn restore_sim(
        bytes: &[u8],
        shards: Option<usize>,
        sched: SimSchedule,
    ) -> Result<ShardedChecker, SnapshotError> {
        Self::resume(bytes, shards, Some(sched))
    }

    fn resume(
        bytes: &[u8],
        reshard: Option<usize>,
        sched: Option<SimSchedule>,
    ) -> Result<ShardedChecker, SnapshotError> {
        // Refused before anything is parsed, so no worker is ever built.
        let reshard = reshard.map(check_shards).transpose().map_err(config_error)?;
        let mut slice = bytes;
        let kind = get_snapshot_header(&mut slice)?;
        if kind != SNAPSHOT_KIND_SHARDED {
            return Err(SnapshotError::WrongKind { expected: SNAPSHOT_KIND_SHARDED, found: kind });
        }
        let mut cfg = AionConfig::get(&mut slice)?;
        let bodies = Vec::<Vec<u8>>::get(&mut slice)?;
        let shards = bodies.len();
        if shards == 0 || shards > MAX_SHARDS || shards != cfg.shards {
            return Err(SnapshotError::Corrupt(format!(
                "{shards} worker bodies in a checkpoint configured for {} shards",
                cfg.shards
            )));
        }
        let mut workers = Vec::with_capacity(shards);
        for (shard, body) in bodies.iter().enumerate() {
            let mut body = body.as_slice();
            let worker = OnlineChecker::read_snapshot_body(&mut body, None)?;
            if !body.is_empty() {
                return Err(SnapshotError::Corrupt(
                    "trailing bytes after a worker snapshot body".into(),
                ));
            }
            // A worker checking another partition than the one routed to
            // it would silently miss violations.
            if worker.cfg.worker != Some(shard) || worker.cfg.shards != shards {
                return Err(SnapshotError::Corrupt(format!(
                    "worker body {shard} is not the one of shard {shard} of {shards}"
                )));
            }
            workers.push(worker);
        }
        let mut co = Coordinator::get(&mut slice)?;
        if !slice.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after checkpoint body",
                slice.len()
            )));
        }

        if let Some(new_shards) = reshard {
            cfg.shards = new_shards;
            workers = resplit_workers(workers, &cfg)?;
            // Re-derive the ExtFinalized merge state for the new topology:
            // the checkpoint barrier guarantees awaiting_fed reached zero,
            // and each new worker holding an unfinalized part will emit
            // exactly one finalization for it.
            let Coordinator { pending, events, .. } = &mut co;
            pending.retain(|tid, p| {
                p.awaiting_fed = 0;
                p.pending_reads = workers.iter().filter(|w| w.is_pending(*tid)).count() as u32;
                // Every read settled before the checkpoint: surface the
                // merged event now iff some shard actually finalized.
                if p.pending_reads == 0 && p.finalized_shards > 0 {
                    events.push(CheckEvent::ExtFinalized { tid: *tid, violations: p.violations });
                }
                p.pending_reads > 0
            });
        }
        Ok(ShardedChecker { cfg, transport: start(workers, sched), co })
    }
}

/// The configuration of worker `shard` of a session configured by `cfg`:
/// its worker index, an even share of the GC budget, and a
/// `.shardK`-suffixed spill file.
fn worker_config(cfg: &AionConfig, shard: usize) -> AionConfig {
    let shards = cfg.shards;
    let mut worker_cfg = cfg.clone();
    worker_cfg.worker = Some(shard);
    worker_cfg.gc = match worker_cfg.gc {
        OnlineGcPolicy::None => OnlineGcPolicy::None,
        OnlineGcPolicy::Checking { max_txns } => {
            OnlineGcPolicy::Checking { max_txns: (max_txns / shards).max(1) }
        }
        OnlineGcPolicy::Full { max_txns } => {
            OnlineGcPolicy::Full { max_txns: (max_txns / shards).max(1) }
        }
    };
    if let Some(path) = worker_cfg.spill_path.take() {
        let mut p = path.into_os_string();
        p.push(format!(".shard{shard}"));
        worker_cfg.spill_path = Some(p.into());
    }
    worker_cfg
}

/// Merge the decoded workers of a sharded checkpoint and re-partition
/// their state for the `base_cfg.shards` workers (the `Some(n)` mode of
/// [`ShardedChecker::restore`]).
///
/// Every spilled segment is reloaded first — a segment that cannot be is
/// a typed error — so the merge sees every transaction. Each one's parts
/// are merged and split again under `n`-way key routing, and each new
/// part becomes resident through [`OnlineChecker::make_resident`], which
/// rebuilds every index it needs; the new workers start with fresh
/// (empty) spill stores and no GC horizon. Reads belonging to parts that
/// had already finalized are marked settled, freezing their verdicts:
/// re-partitioned parts never re-report a violation or re-enter the
/// deadline queue for them.
fn resplit_workers(
    mut old: Vec<OnlineChecker>,
    base_cfg: &AionConfig,
) -> Result<Vec<OnlineChecker>, SnapshotError> {
    let new_shards = base_cfg.shards;
    // -- gather -----------------------------------------------------------
    let mut now_ms = 0u64;
    let mut deadline_of: FxHashMap<TxnId, u64> = FxHashMap::default();
    let mut merged: BTreeMap<TxnId, OnlineTxn> = BTreeMap::new();
    let mut stats = CheckerStats::default();
    let mut report = CheckReport::new();
    let mut flips = FlipSummary::default();

    for w in &mut old {
        w.reload_below(Timestamp::MAX).map_err(SnapshotError::Codec)?;
        now_ms = now_ms.max(w.now_ms);
        for &Reverse((d, tid)) in w.deadlines.iter() {
            deadline_of.entry(tid).and_modify(|x| *x = (*x).min(d)).or_insert(d);
        }
        stats.absorb_shard(&w.stats);
        report.merge(std::mem::take(&mut w.report));
        flips.absorb_shard(&w.flips.0);

        let tids: Vec<TxnId> = w.txns().keys().copied().collect();
        for tid in tids {
            let Some(mut t) = w.remove_txn(tid) else { continue };
            if t.finalized {
                for r in &mut t.reads {
                    r.settled = true;
                }
            }
            // Keys are disjoint across shards, so these unions are
            // concatenations.
            if let Some(e) = merged.get_mut(&tid) {
                e.write_set.append(&mut t.write_set);
                e.reads.append(&mut t.reads);
                e.anchor_keys.append(&mut t.anchor_keys);
            } else {
                merged.insert(tid, t);
            }
        }
    }

    // -- re-partition ------------------------------------------------------
    let mut workers = Vec::with_capacity(new_shards);
    for m in 0..new_shards {
        let mut w = OnlineChecker::try_new(worker_config(base_cfg, m)).map_err(config_error)?;
        w.now_ms = now_ms;
        workers.push(w);
    }
    for (tid, mut t) in merged {
        t.reads.sort_unstable_by_key(|r| r.op_index);
        t.write_set.sort_unstable_by_key(|(k, _)| *k);
        t.anchor_keys.sort_unstable();
        for (m, w) in workers.iter_mut().enumerate() {
            let mine = |key: &Key| shard_of(*key, new_shards) == m;
            let reads: Vec<_> = t.reads.iter().filter(|r| mine(&r.key)).cloned().collect();
            let write_set: Vec<_> = t.write_set.iter().filter(|(k, _)| mine(k)).cloned().collect();
            if reads.is_empty() && write_set.is_empty() {
                continue;
            }
            let anchor_keys = t.anchor_keys.iter().copied().filter(mine).collect();
            let finalized = reads.iter().all(|r| r.settled);
            let deadline = (!finalized).then(|| {
                deadline_of
                    .get(&tid)
                    .copied()
                    .unwrap_or(now_ms.saturating_add(base_cfg.ext_timeout_ms))
            });
            let part = OnlineTxn {
                txn: t.txn.clone(),
                level: t.level,
                write_set,
                reads,
                anchor_keys,
                finalized,
            };
            // Its conflicts were reported before the checkpoint.
            w.make_resident(part, deadline, true);
        }
    }

    // Merged session-wide counters and the merged report live on worker 0
    // (`finish` folds workers in shard order, so placement only affects
    // report ordering, deterministically).
    if let Some(w0) = workers.first_mut() {
        w0.stats = stats;
        w0.report = report;
        w0.flips = crate::stats::FlipTracker(flips);
    }
    Ok(workers)
}

impl Checker for ShardedChecker {
    /// Stable checker name, e.g. `"aion-si-sharded"` (or
    /// `"aion-mixed-sharded"` for per-session/per-txn policies).
    fn name(&self) -> &'static str {
        match aion_level_name(&self.cfg.levels) {
            "aion-rc" => "aion-rc-sharded",
            "aion-ra" => "aion-ra-sharded",
            "aion-si" => "aion-si-sharded",
            "aion-ser" => "aion-ser-sharded",
            "aion-mixed" => "aion-mixed-sharded",
            _ => "aion-sharded",
        }
    }

    /// A [`feed_batch`](Checker::feed_batch) of one.
    fn feed(&mut self, txn: Transaction, now_ms: u64) -> Vec<CheckEvent> {
        self.feed_batch(vec![(txn, now_ms)])
    }

    /// Feed a run of arrivals in order: run the global checks, route
    /// each footprint to its shard(s), and return every event that has
    /// surfaced so far (coordinator violations synchronously; worker
    /// events as their replies arrive). Each shard gets **one**
    /// `ShardCmd::FeedBatch` carrying all of its parts in arrival order,
    /// so per-worker FIFO — and therefore every verdict — does not depend
    /// on how arrivals are grouped into calls.
    fn feed_batch(&mut self, batch: Vec<(Transaction, u64)>) -> Vec<CheckEvent> {
        let shards = self.num_shards();
        let mut per_shard: Vec<Vec<(Arc<Transaction>, u64)>> = vec![Vec::new(); shards];
        for (txn, now_ms) in batch {
            let co = &mut self.co;
            co.now_ms = co.now_ms.max(now_ms);
            co.received += 1;

            // The single checker's `GlobalChecks`, run once per whole
            // transaction, at the same resolved level the workers will
            // check the footprint at.
            let level = self.cfg.levels.level_for(&txn);
            let on = self.cfg.events;
            let admitted = co
                .globals
                .admit(&txn, level, |v| record_violation(on, &mut co.events, &mut co.report, v));
            if !admitted {
                co.dropped += 1;
                continue;
            }

            let (tid, now) = (txn.tid, co.now_ms);
            // A shard outside the buffer cannot occur: `route_txn` computes
            // shards modulo `shards`, the buffer's exact length.
            let mut stage = |shard: usize, part: Arc<Transaction>| {
                if let Some(parts) = per_shard.get_mut(shard) {
                    parts.push((part, now));
                }
            };
            match route_txn(txn, shards) {
                RoutedTxn::Single { shard, txn } => {
                    self.track_pending(tid, &txn, 1);
                    stage(shard, Arc::new(txn));
                }
                RoutedTxn::Split { shards, txn } => {
                    self.track_pending(tid, &txn, shards.len() as u32);
                    // Shared, so a split transaction is *not* deep-cloned
                    // on the coordinator's critical path — the last worker
                    // to unwrap it takes ownership, the others clone in
                    // parallel on their own threads.
                    let txn = Arc::new(txn);
                    for &shard in &shards {
                        stage(shard, Arc::clone(&txn));
                    }
                }
            }
        }
        for (shard, parts) in per_shard.into_iter().enumerate() {
            if !parts.is_empty() {
                self.transport.send(shard, ShardCmd::FeedBatch { parts });
            }
        }
        self.pump()
    }

    /// Advance the virtual clock. Broadcasts to workers at most every
    /// `TICK_BROADCAST_MS` virtual ms —
    /// a worker's `feed` advances its own clock, so this only affects how
    /// promptly idle shards surface finalization *events*, never
    /// verdicts. `u64::MAX` drains synchronously (see module docs).
    fn tick(&mut self, now_ms: u64) -> Vec<CheckEvent> {
        self.co.now_ms = self.co.now_ms.max(now_ms);
        if now_ms == u64::MAX {
            self.broadcast_tick(u64::MAX);
            self.barrier();
        } else if now_ms.saturating_sub(self.co.last_tick_broadcast) >= TICK_BROADCAST_MS {
            self.broadcast_tick(now_ms);
        }
        self.pump()
    }

    /// Finish the session: join the workers and merge their outcomes —
    /// coordinator report first, then each shard's in shard order (so
    /// the merged report is deterministic), with stats and flip
    /// summaries folded shard-aware and `received`/`finalized` fixed up
    /// to whole-transaction counts.
    fn finish(mut self) -> Outcome {
        let mut outcomes = self.round(
            || ShardCmd::Finish,
            |reply| match reply {
                ShardReply::Done { shard, outcome } => Ok((shard, *outcome)),
                other => Err(other),
            },
        );
        // A worker that died panics here with its own message.
        self.transport.join();
        outcomes.sort_unstable_by_key(|(shard, _)| *shard);

        let mut report = std::mem::take(&mut self.co.report);
        let mut stats = CheckerStats::default();
        let mut flips = FlipSummary::default();
        for (_, outcome) in outcomes {
            report.merge(outcome.report);
            stats.absorb_shard(&outcome.stats);
            flips.absorb_shard(&outcome.flips);
        }
        // Whole-transaction counts: a split transaction was received by
        // several workers but is one transaction; malformed arrivals
        // were never forwarded and never finalize.
        stats.received = self.co.received;
        stats.finalized = self.co.received - self.co.dropped;

        Outcome::new(self.name(), report, self.co.received).with_stats(stats).with_flips(flips)
    }

    /// Aggregate of every worker's estimate (queried through the
    /// transport) plus the coordinator's admission tables and staged state.
    fn estimated_memory_bytes(&self) -> usize {
        self.co.globals.approx_bytes()
            + self.co.events.capacity() * std::mem::size_of::<CheckEvent>()
            + self.co.pending.len()
                * (std::mem::size_of::<TxnId>() + std::mem::size_of::<PendingFinalize>())
            + self.transport.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{AxiomKind, IsolationLevel, Key, TxnBuilder, Value};

    fn t(tid: u64, sid: u32, sno: u32, s: u64, c: u64) -> TxnBuilder {
        TxnBuilder::new(tid).session(sid, sno).interval(s, c)
    }

    fn sharded(n: usize) -> ShardedChecker {
        OnlineChecker::builder().shards(n).build_sharded().unwrap()
    }

    #[test]
    fn valid_history_passes_across_shards() {
        let mut a = sharded(4);
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).put(Key(2), Value(6)).build(), 0);
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).read(Key(2), Value(6)).build(), 1);
        let out = a.finish();
        assert!(out.is_ok(), "{}", out.report);
        assert_eq!(out.txns, 2);
        assert_eq!(out.stats.received, 2);
        assert_eq!(out.stats.finalized, 2);
        assert_eq!(out.checker, "aion-si-sharded");
    }

    #[test]
    fn global_checks_report_once() {
        let mut a = sharded(4);
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(1)).put(Key(2), Value(2)).build(), 0);
        // Duplicate tid, session gap, and Eq. (1) violations are
        // coordinator-owned: exactly one report each, like the single
        // checker.
        a.feed(t(1, 1, 0, 3, 4).put(Key(3), Value(3)).build(), 0);
        a.feed(t(3, 0, 5, 9, 8).put(Key(4), Value(4)).build(), 0);
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Integrity), 2, "{}", out.report);
        assert_eq!(out.report.count(AxiomKind::Session), 1, "{}", out.report);
        assert_eq!(out.stats.received, 3);
        assert_eq!(out.stats.finalized, 1, "both malformed arrivals dropped");
    }

    #[test]
    fn cross_shard_ext_finalizations_merge_into_one_event() {
        // A transaction reading unjustifiable values on many keys: its
        // sub-footprints finalize on several shards, but exactly one
        // ExtFinalized must surface, with the summed violation count.
        let mut a = sharded(4);
        let mut txn = TxnBuilder::new(1).session(0, 0).interval(10, 11);
        for k in 0..8u64 {
            txn = txn.read(Key(k), Value(99));
        }
        a.feed(txn.build(), 0);
        let mut events = a.tick(u64::MAX);
        let finalized: Vec<_> =
            events.drain(..).filter(|e| matches!(e, CheckEvent::ExtFinalized { .. })).collect();
        assert_eq!(
            finalized,
            vec![CheckEvent::ExtFinalized { tid: TxnId(1), violations: 8 }],
            "one merged finalization with the summed violations"
        );
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Ext), 8, "{}", out.report);
    }

    #[test]
    fn settled_cross_shard_reads_produce_no_finalization_event() {
        // Reads justified at arrival stay pending until the timeout, so
        // the merged event appears on drain with zero violations.
        let mut a = sharded(2);
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).put(Key(2), Value(6)).build(), 0);
        a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).read(Key(2), Value(6)).build(), 0);
        let events = a.tick(u64::MAX);
        let finalizations =
            events.iter().filter(|e| matches!(e, CheckEvent::ExtFinalized { .. })).count();
        assert_eq!(finalizations, 1, "{events:?}");
        assert!(a.finish().is_ok());
    }

    #[test]
    fn verdict_flips_stream_through() {
        let mut a = sharded(3);
        let mut events = a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build(), 0);
        // Justifying writer arrives late: the worker's flip must surface
        // on the coordinator's outbound stream (possibly on a later call).
        events.extend(a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 9));
        events.extend(a.tick(u64::MAX));
        assert!(
            events.iter().any(|e| matches!(e, CheckEvent::VerdictFlip { tid: TxnId(2), .. })),
            "{events:?}"
        );
        let out = a.finish();
        assert!(out.is_ok(), "{}", out.report);
        assert_eq!(out.flips.total_flips, 1);
    }

    #[test]
    fn events_off_runs_quiet_but_correct() {
        let mut a = OnlineChecker::builder().shards(4).events(false).build_sharded().unwrap();
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 0);
        let evs = a.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(9)).build(), 0);
        assert!(evs.is_empty());
        assert!(a.tick(u64::MAX).is_empty());
        let out = a.finish();
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "report unaffected by events off");
    }

    #[test]
    fn one_shard_degenerates_to_single_checker_behaviour() {
        let mut single = OnlineChecker::builder().build().unwrap();
        let mut sharded = sharded(1);
        let txns = vec![
            t(1, 0, 0, 1, 2).put(Key(1), Value(1)).build(),
            t(2, 1, 0, 3, 5).put(Key(1), Value(2)).build(),
            t(3, 2, 0, 6, 9).read(Key(1), Value(2)).put(Key(2), Value(2)).build(),
            t(4, 3, 0, 8, 10).read(Key(2), Value(1)).build(),
            t(5, 4, 0, 4, 7).read(Key(1), Value(1)).put(Key(2), Value(1)).build(),
        ];
        for txn in &txns {
            single.feed(txn.clone(), 0);
            sharded.feed(txn.clone(), 0);
        }
        let (a, b) = (single.finish(), sharded.finish());
        assert_eq!(a.report.violations, b.report.violations);
        assert_eq!(a.flips, b.flips);
    }

    #[test]
    fn simulated_transport_matches_threaded_verdicts() {
        let txns = [
            t(1, 0, 0, 1, 2).put(Key(1), Value(1)).put(Key(7), Value(7)).build(),
            t(2, 1, 0, 3, 5).put(Key(1), Value(2)).build(),
            t(3, 2, 0, 6, 9).read(Key(1), Value(2)).read(Key(7), Value(9)).build(),
            t(4, 3, 0, 8, 10).read(Key(7), Value(7)).build(),
        ];
        let mut threaded = sharded(3);
        let mut sim = OnlineChecker::builder()
            .shards(3)
            .build_sharded_sim(SimSchedule::pathological(42))
            .unwrap();
        for (i, txn) in txns.iter().enumerate() {
            threaded.feed(txn.clone(), i as u64);
            sim.feed(txn.clone(), i as u64);
        }
        threaded.tick(u64::MAX);
        sim.tick(u64::MAX);
        assert!(sim.sim_stats().is_some() && threaded.sim_stats().is_none());
        let (a, b) = (threaded.finish(), sim.finish());
        assert_eq!(a.report.violations, b.report.violations);
        assert_eq!(a.flips, b.flips);
        assert_eq!(a.stats.finalized, b.stats.finalized);
    }

    /// The single checker's edge arithmetic, through a coordinator and
    /// two workers — and through a re-shard, whose fallback deadline
    /// used to be computed (and overflow) even when unused.
    #[test]
    fn deadline_and_sno_arithmetic_saturate_at_the_edges() {
        let mut a = sharded(2);
        a.tick(u64::MAX);
        a.feed(t(1, 0, u32::MAX, 1, 2).read(Key(1), Value(9)).read(Key(2), Value(9)).build(), 0);
        a.feed(t(2, 0, 0, 3, 4).build(), 0);
        assert_eq!(a.co.report.count(AxiomKind::Session), 2);
        let snap = a.checkpoint().unwrap();
        for mut ck in [a, ShardedChecker::restore(&snap, Some(3)).unwrap()] {
            let events = ck.tick(u64::MAX);
            assert!(
                events.contains(&CheckEvent::ExtFinalized { tid: TxnId(1), violations: 2 }),
                "{events:?}"
            );
            assert_eq!(ck.finish().report.count(AxiomKind::Ext), 2);
        }
    }

    /// A re-shard sums the flip counters onto worker 0, and the flipped
    /// read moves with its count to a worker that never counted the
    /// pair: its next flip must move the pair up one bucket overall, not
    /// count it a second time.
    #[test]
    fn a_pair_that_flips_across_a_reshard_counts_once() {
        let key = (0..).map(Key).find(|k| crate::feed::shard_of(*k, 3) != 0).unwrap();
        let reader = t(2, 1, 0, 10, 11).read(key, Value(5)).build();
        let late = t(1, 0, 0, 1, 2).put(key, Value(5)).build();
        let later = t(3, 2, 0, 4, 5).put(key, Value(6)).build();
        let mut single = OnlineChecker::builder().build().unwrap();
        let mut a = sharded(2);
        for txn in [&reader, &late] {
            single.feed(txn.clone(), 1);
            a.feed(txn.clone(), 1);
        }
        let mut b = ShardedChecker::restore(&a.checkpoint().unwrap(), Some(3)).unwrap();
        single.feed(later.clone(), 2);
        b.feed(later, 2);
        let (want, got) = (single.finish().flips, b.finish().flips);
        assert_eq!(want.flip_histogram, [0, 1, 0, 0]);
        assert_eq!(got, want);
    }

    /// Split a sharded checkpoint into (configuration, worker bodies,
    /// coordinator tail) and put one back together.
    fn open_envelope(snap: &[u8]) -> (AionConfig, Vec<Vec<u8>>, Vec<u8>) {
        let mut slice = snap;
        assert_eq!(get_snapshot_header(&mut slice).unwrap(), SNAPSHOT_KIND_SHARDED);
        (Wire::get(&mut slice).unwrap(), Wire::get(&mut slice).unwrap(), slice.to_vec())
    }

    fn envelope(cfg: &AionConfig, bodies: &[Vec<u8>], tail: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_snapshot_header(&mut buf, SNAPSHOT_KIND_SHARDED);
        cfg.put(&mut buf);
        bodies.to_vec().put(&mut buf);
        bytes::BufMut::put_slice(&mut buf, tail);
        buf.to_vec()
    }

    /// A 4-shard checkpoint re-enveloped with two of its bodies used to
    /// restore `Ok`: two workers, routed 2-way, each filtering 4-way —
    /// and 17 of the 32 EXT violations below went unreported.
    #[test]
    fn a_checkpoint_whose_topology_disagrees_with_itself_is_refused() {
        let mut honest = sharded(4);
        let (cfg, bodies, tail) = open_envelope(&honest.checkpoint().unwrap());
        assert_eq!((cfg.shards, bodies.len()), (4, 4));
        let bad_reads = |ck: &mut ShardedChecker| {
            for k in 0..32u64 {
                ck.feed(
                    t(k + 1, k as u32, 0, 10 * k + 1, 10 * k + 2).read(Key(k), Value(9)).build(),
                    0,
                );
            }
        };
        bad_reads(&mut honest);
        assert_eq!(honest.finish().report.count(AxiomKind::Ext), 32);

        let mut swapped = bodies.clone();
        swapped.swap(0, 1);
        let mut two_way = cfg.clone();
        two_way.shards = 2;
        for (what, hostile) in [
            ("two of four bodies", envelope(&cfg, &bodies[..2], &tail)),
            (
                "two 4-way workers under a 2-shard configuration",
                envelope(&two_way, &bodies[..2], &tail),
            ),
            ("bodies out of position", envelope(&cfg, &swapped, &tail)),
        ] {
            match ShardedChecker::restore(&hostile, None) {
                Err(SnapshotError::Corrupt(_)) => {}
                Err(other) => panic!("{what}: expected Corrupt, got {other}"),
                Ok(mut wrong) => {
                    bad_reads(&mut wrong);
                    let found = wrong.finish().report.count(AxiomKind::Ext);
                    panic!("{what}: restored, then reported {found} of 32 EXT violations");
                }
            }
        }
        assert!(ShardedChecker::restore(&envelope(&cfg, &bodies, &tail), None).is_ok());
    }

    #[test]
    fn the_shard_count_is_bounded_where_sessions_open_and_resume() {
        let dir = std::env::temp_dir().join(format!("aion-max-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("spill.bin");
        let open = |n: usize| OnlineChecker::builder().shards(n).spill_path(&spill).build_sharded();
        match open(MAX_SHARDS + 1) {
            Err(ConfigError::TooManyShards { shards }) => assert_eq!(shards, MAX_SHARDS + 1),
            Err(other) => panic!("expected TooManyShards, got {other}"),
            Ok(_) => panic!("{} workers must not open", MAX_SHARDS + 1),
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no worker was built");

        let mut ck = open(2).unwrap();
        let snap = ck.checkpoint().unwrap();
        drop(ck.finish());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        match ShardedChecker::restore(&snap, Some(1_000_000)) {
            Err(SnapshotError::Corrupt(detail)) => assert!(detail.contains("limit"), "{detail}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a million workers must not resume"),
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no worker was built");
        assert!(matches!(check_shards(MAX_SHARDS), Ok(MAX_SHARDS)), "the bound is inclusive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A worker that cannot serialize itself fails the checkpoint with
    /// its typed error — after the whole round was collected, so the
    /// same session goes on to drain, checkpoint and finish.
    #[test]
    fn a_failed_worker_checkpoint_leaves_the_session_usable() {
        let dir = std::env::temp_dir().join(format!("aion-ckpt-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut ck = OnlineChecker::builder()
            .shards(2)
            .gc(OnlineGcPolicy::Checking { max_txns: 4 })
            .spill_path(dir.join("spill.bin"))
            .build_sharded()
            .unwrap();
        for i in 0..40u64 {
            let txn = t(i + 1, 0, i as u32, 10 * i + 1, 10 * i + 2).put(Key(i % 6), Value(i));
            ck.feed(txn.read(Key((i + 1) % 6), Value(999)).build(), 1000 * i);
        }
        ck.checkpoint().expect("a healthy checkpoint, which also flushes the workers");
        let shard1 = dir.join("spill.bin.shard1");
        let segments = std::fs::read(&shard1).unwrap();
        assert!(!segments.is_empty(), "worker 1 spilled");
        std::fs::write(&shard1, b"").unwrap();
        assert!(matches!(ck.checkpoint(), Err(SnapshotError::Io(_))));
        std::fs::write(&shard1, &segments).unwrap();

        ck.tick(u64::MAX);
        let snap = ck.checkpoint().expect("the next checkpoint succeeds");
        let out = ck.finish();
        assert_eq!(out.txns, 40);
        let mut back = ShardedChecker::restore(&snap, None).unwrap();
        back.tick(u64::MAX);
        assert_eq!(back.finish().report.violations, out.report.violations);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ser_mode_is_shard_aware_too() {
        let mut a =
            OnlineChecker::builder().level(IsolationLevel::Ser).shards(4).build_sharded().unwrap();
        a.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(1)).build(), 0);
        a.feed(t(2, 1, 0, 3, 6).put(Key(1), Value(2)).build(), 0);
        a.feed(t(3, 2, 0, 4, 7).read(Key(1), Value(1)).build(), 0);
        let out = a.finish();
        assert_eq!(out.checker, "aion-ser-sharded");
        assert_eq!(out.report.count(AxiomKind::Ext), 1, "{}", out.report);
        assert_eq!(out.report.count(AxiomKind::NoConflict), 0);
    }
}
