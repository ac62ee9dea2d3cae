//! The coordinator↔worker delivery seam of the sharded checker.
//!
//! [`crate::sharded::ShardedChecker`] talks to its shard workers through
//! the crate-private `ShardTransport` trait instead of owning channels
//! directly:
//!
//! * `ThreadTransport` — the production implementation: one OS thread
//!   per shard, fed over crossbeam channels, exactly the pre-seam
//!   behaviour (and the same code path: the coordinator's calls compile
//!   to the same sends/recvs as before, so the abstraction costs one
//!   virtual dispatch per *message*, not per operation).
//! * `SimTransport` — a single-threaded deterministic simulator used
//!   by the `aion-dst` harness: workers run inline, delivery of commands
//!   and replies is interleaved, delayed and (for droppable clock
//!   broadcasts) dropped under a seeded [`SimSchedule`], and worker
//!   stalls are injected — all reproducible from one seed.
//!
//! Both implementations preserve the protocol contract real channels
//! give the coordinator: **per-worker FIFO** in both directions (a
//! worker processes its commands in order; a worker's replies arrive in
//! the order it sent them — in particular a shard's `Fed` reply always
//! precedes its `ExtFinalized` for the same transaction). What the
//! simulator perturbs is everything the contract does *not* promise:
//! cross-worker interleaving, delivery latency, how long a worker sits
//! on a queued command, and whether a rate-limited clock broadcast
//! arrives at all (a worker's `feed` advances its own clock, so verdicts
//! must not depend on broadcast ticks — [`SimSchedule::drop_tick_p`]
//! exists to falsify exactly that claim).
#![expect(
    clippy::disallowed_methods,
    reason = "the transport seam: the one module that spawns threads and makes channels"
)]

use crate::checker::OnlineChecker;
use aion_types::rng::SplitMix64;
use aion_types::snapshot::SnapshotError;
use aion_types::{CheckEvent, Checker, Outcome, Transaction, TxnId};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Commands the coordinator sends to a shard worker.
pub(crate) enum ShardCmd {
    /// Process a run of (sub-)transactions in order, each at its own
    /// virtual time (`feed` advances the worker's clock to it first) — one
    /// channel send for the whole run, one `Fed` reply per part. Never
    /// dropped by the simulator (only finite `Tick`s are droppable), so
    /// how arrivals are grouped cannot change verdicts under any schedule.
    FeedBatch { parts: Vec<(Arc<Transaction>, u64)> },
    /// Advance the worker's virtual clock, firing EXT timeouts.
    Tick { now_ms: u64 },
    /// Acknowledge once every prior command has been processed.
    Flush,
    /// Serialize the worker checker's complete state and reply with the
    /// checkpoint body bytes.
    Checkpoint,
    /// Report the worker checker's estimated memory footprint on the
    /// dedicated memory channel (ThreadTransport-internal; the simulator
    /// reads its inline workers directly).
    Memory,
    /// Finish the worker's checker and reply with its outcome.
    Finish,
}

/// Replies flowing back from workers (per-worker FIFO order).
pub(crate) enum ShardReply {
    /// Events produced by one fed part, plus whether the fed part still
    /// holds tentative EXT verdicts on this shard (an `ExtFinalized`
    /// follows from this worker eventually iff `pending`). Only sent
    /// when events are on.
    Fed { tid: TxnId, pending: bool, events: Vec<CheckEvent> },
    /// Events produced by a `Tick`. Only sent when events are on.
    Ticked { events: Vec<CheckEvent> },
    /// Barrier acknowledgement for `Flush`.
    Flushed,
    /// Checkpoint body bytes for `Checkpoint` (or the error producing
    /// them raised).
    Checkpointed { shard: usize, body: Result<Vec<u8>, SnapshotError> },
    /// Terminal outcome for `Finish` (boxed: it dwarfs the streaming
    /// variants and is sent once per worker).
    Done { shard: usize, outcome: Box<Outcome> },
}

/// What a worker does with one command — shared verbatim by the threaded
/// worker loop and the simulator, so the simulation tests the *same*
/// worker logic production runs.
pub(crate) struct StepOutput {
    /// Replies to stage on the worker's outbound stream, in order.
    pub(crate) replies: Vec<ShardReply>,
    /// Memory estimate (for `ShardCmd::Memory` under `ThreadTransport`).
    pub(crate) mem: Option<usize>,
}

/// Execute one command against a worker's checker, which `Finish`
/// consumes (leaving `None`: the worker is done).
pub(crate) fn worker_step(
    shard: usize,
    checker: &mut Option<OnlineChecker>,
    cmd: ShardCmd,
) -> StepOutput {
    let mut out = StepOutput { replies: Vec::new(), mem: None };
    // A command after `Finish` (only possible if the coordinator
    // misbehaves) is ignored rather than panicking the worker thread.
    let Some(ck) = checker.as_mut() else { return out };
    let events_on = ck.config().events;
    match cmd {
        ShardCmd::FeedBatch { parts } => {
            for (txn, now_ms) in parts {
                let tid = txn.tid;
                // Last holder takes ownership; other shards of a split
                // transaction deep-clone here, off the coordinator's
                // critical path.
                let txn = Arc::try_unwrap(txn).unwrap_or_else(|shared| (*shared).clone());
                let events = ck.feed(txn, now_ms);
                if events_on {
                    // Whether this shard still holds tentative reads for the
                    // transaction — the single source of truth the
                    // coordinator's ExtFinalized merge is driven by.
                    let pending = ck.is_pending(tid);
                    out.replies.push(ShardReply::Fed { tid, pending, events });
                }
            }
        }
        ShardCmd::Tick { now_ms } => {
            let events = ck.tick(now_ms);
            if events_on {
                out.replies.push(ShardReply::Ticked { events });
            }
        }
        ShardCmd::Flush => out.replies.push(ShardReply::Flushed),
        ShardCmd::Checkpoint => {
            let mut buf = BytesMut::with_capacity(1024);
            let body = ck.write_snapshot_body(&mut buf).map(|()| buf.to_vec());
            out.replies.push(ShardReply::Checkpointed { shard, body });
        }
        ShardCmd::Memory => out.mem = Some(ck.estimated_memory_bytes()),
        ShardCmd::Finish => {
            if let Some(ck) = checker.take() {
                let outcome = Box::new(ck.finish());
                out.replies.push(ShardReply::Done { shard, outcome });
            }
        }
    }
    out
}

/// How the coordinator reaches its shard workers. See the module docs;
/// both implementations guarantee per-worker FIFO in both directions.
pub(crate) trait ShardTransport: Send {
    /// Enqueue a command for `shard`.
    fn send(&mut self, shard: usize, cmd: ShardCmd);
    /// Receive the next reply, blocking (or, for the simulator, forcing
    /// schedule progress) until one is available. `None` means no worker
    /// can ever reply again.
    fn recv(&mut self) -> Option<ShardReply>;
    /// Receive the next already-available reply without blocking.
    fn try_recv(&mut self) -> Option<ShardReply>;
    /// Sum of the workers' estimated memory footprints.
    fn memory_bytes(&self) -> usize;
    /// Release worker resources, propagating any worker panic. Called
    /// once, after every `Done` reply has been received.
    fn join(&mut self);
    /// Fault/schedule counters, for transports that inject them.
    fn sim_stats(&self) -> Option<SimStats> {
        None
    }
}

// --- production: one thread per shard, crossbeam channels ----------------

/// The production transport: each shard worker runs `worker_loop` on its
/// own OS thread, exactly as before the seam existed.
pub(crate) struct ThreadTransport {
    cmd_tx: Vec<Sender<ShardCmd>>,
    reply_rx: Receiver<ShardReply>,
    /// Memory-estimate replies travel on their own channel so
    /// [`ShardTransport::memory_bytes`] (`&self`) never has to absorb
    /// staged event replies.
    mem_rx: Receiver<usize>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadTransport {
    /// Spawn one worker thread per prepared checker (opened or resumed).
    pub(crate) fn spawn(checkers: Vec<OnlineChecker>) -> ThreadTransport {
        let (reply_tx, reply_rx) = unbounded::<ShardReply>();
        let (mem_tx, mem_rx) = unbounded::<usize>();
        let mut cmd_tx = Vec::with_capacity(checkers.len());
        let mut handles = Vec::with_capacity(checkers.len());
        for (shard, checker) in checkers.into_iter().enumerate() {
            let (tx, rx) = unbounded::<ShardCmd>();
            cmd_tx.push(tx);
            let reply_tx = reply_tx.clone();
            let mem_tx = mem_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("aion-shard-{shard}"))
                    .spawn(move || worker_loop(shard, checker, rx, reply_tx, mem_tx))
                    // aion-lint: allow(panic-freedom) — OS thread-spawn
                    // failure is unrecoverable resource exhaustion; there
                    // is no session to degrade to
                    .expect("spawn shard worker"),
            );
        }
        ThreadTransport { cmd_tx, reply_rx, mem_rx, handles }
    }
}

impl ShardTransport for ThreadTransport {
    fn send(&mut self, shard: usize, cmd: ShardCmd) {
        // A worker can only be gone if it panicked; surface that at
        // finish/join instead of here.
        if let Some(tx) = self.cmd_tx.get(shard) {
            let _ = tx.send(cmd);
        }
    }

    fn recv(&mut self) -> Option<ShardReply> {
        self.reply_rx.recv().ok()
    }

    fn try_recv(&mut self) -> Option<ShardReply> {
        self.reply_rx.try_recv().ok()
    }

    fn memory_bytes(&self) -> usize {
        let mut expected = 0usize;
        for tx in &self.cmd_tx {
            if tx.send(ShardCmd::Memory).is_ok() {
                expected += 1;
            }
        }
        let mut total = 0usize;
        for _ in 0..expected {
            match self.mem_rx.recv() {
                Ok(bytes) => total += bytes,
                Err(_) => break,
            }
        }
        total
    }

    fn join(&mut self) {
        for handle in self.handles.drain(..) {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// A shard worker: drains commands in order and replies with events
/// (when on) plus the pending flag the coordinator's `ExtFinalized`
/// merge needs.
fn worker_loop(
    shard: usize,
    checker: OnlineChecker,
    rx: Receiver<ShardCmd>,
    tx: Sender<ShardReply>,
    mem_tx: Sender<usize>,
) {
    let mut checker = Some(checker);
    while let Ok(cmd) = rx.recv() {
        let out = worker_step(shard, &mut checker, cmd);
        for reply in out.replies {
            let _ = tx.send(reply);
        }
        if let Some(bytes) = out.mem {
            let _ = mem_tx.send(bytes);
        }
        if checker.is_none() {
            return;
        }
    }
}

// --- simulation: inline workers under a seeded adversarial schedule ------

/// Seeded schedule parameters for the simulated transport (the `aion-dst`
/// deterministic simulator). All probabilities are per micro-step draw;
/// see `docs/testing.md` for the schedule taxonomy.
#[derive(Clone, Copy, Debug)]
pub struct SimSchedule {
    /// Seed for every scheduling/fault decision; two runs with the same
    /// seed and the same command sequence take identical schedules.
    pub seed: u64,
    /// Probability that a selected worker actually processes its queued
    /// command (lower = commands sit in mailboxes longer).
    pub process_p: f64,
    /// Probability that a selected staged reply is actually delivered to
    /// the coordinator (lower = replies lag further behind processing).
    pub deliver_p: f64,
    /// Probability of dropping a *finite* clock broadcast
    /// (`ShardCmd::Tick`) outright. Legal by design — a worker's `feed`
    /// advances its own clock and the end-of-stream drain (`now == MAX`)
    /// is never dropped — so verdicts must survive any value here.
    pub drop_tick_p: f64,
    /// Probability that a selected worker enters a stall instead of
    /// processing (models a descheduled/slow worker thread).
    pub stall_p: f64,
    /// Micro-steps a stalled worker stays unresponsive.
    pub stall_len: u32,
    /// Scheduler micro-steps run per coordinator interaction (`send` /
    /// `try_recv`); more steps keep queues shorter, fewer steps build
    /// deeper backlogs.
    pub steps_per_call: u32,
}

impl SimSchedule {
    /// A mildly adversarial schedule: most work proceeds promptly, with
    /// occasional delays, drops and short stalls.
    pub fn random(seed: u64) -> SimSchedule {
        SimSchedule {
            seed,
            process_p: 0.7,
            deliver_p: 0.7,
            drop_tick_p: 0.2,
            stall_p: 0.05,
            stall_len: 16,
            steps_per_call: 8,
        }
    }

    /// A pathological schedule: workers mostly sit on their mailboxes,
    /// replies crawl back, most clock broadcasts vanish, and stalls are
    /// long — maximizing queue depth and reordering across workers.
    pub fn pathological(seed: u64) -> SimSchedule {
        SimSchedule {
            seed,
            process_p: 0.25,
            deliver_p: 0.15,
            drop_tick_p: 0.8,
            stall_p: 0.25,
            stall_len: 64,
            steps_per_call: 4,
        }
    }
}

/// Counters of what a simulated-transport schedule actually did — useful
/// for asserting a run was genuinely adversarial, and for debugging
/// failing seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Commands processed by workers.
    pub processed: u64,
    /// Replies delivered to the coordinator.
    pub delivered: u64,
    /// Finite clock broadcasts dropped before reaching a mailbox.
    pub dropped_ticks: u64,
    /// Stalls entered by workers.
    pub stalls: u64,
    /// Micro-steps where the selected unit was deferred by a gate or a
    /// stall (work existed but was deliberately delayed).
    pub deferred: u64,
}

struct SimWorker {
    checker: Option<OnlineChecker>,
    mailbox: VecDeque<ShardCmd>,
    outbox: VecDeque<ShardReply>,
    stalled: u32,
}

/// Single-threaded deterministic transport: shard workers run inline,
/// scheduled by a seeded adversarial interleaver (see the module docs
/// for exactly which reorderings are legal).
pub(crate) struct SimTransport {
    workers: Vec<SimWorker>,
    /// Replies delivered to the coordinator, in delivery order.
    inbox: VecDeque<ShardReply>,
    rng: SplitMix64,
    sched: SimSchedule,
    stats: SimStats,
}

/// One schedulable unit of work.
#[derive(Clone, Copy)]
enum Unit {
    /// Worker processes the head of its mailbox.
    Process(usize),
    /// The head of a worker's outbox is delivered to the coordinator.
    Deliver(usize),
}

impl SimTransport {
    pub(crate) fn new(checkers: Vec<OnlineChecker>, sched: SimSchedule) -> SimTransport {
        let workers = checkers
            .into_iter()
            .map(|checker| SimWorker {
                checker: Some(checker),
                mailbox: VecDeque::new(),
                outbox: VecDeque::new(),
                stalled: 0,
            })
            .collect();
        SimTransport {
            workers,
            inbox: VecDeque::new(),
            rng: SplitMix64::new(sched.seed ^ 0x51ED_5EED_u64),
            sched,
            stats: SimStats::default(),
        }
    }

    fn units(&self) -> Vec<Unit> {
        let mut units = Vec::with_capacity(self.workers.len() * 2);
        for (i, w) in self.workers.iter().enumerate() {
            if !w.mailbox.is_empty() {
                units.push(Unit::Process(i));
            }
            if !w.outbox.is_empty() {
                units.push(Unit::Deliver(i));
            }
        }
        units
    }

    /// Execute one unit unconditionally (no gates, no stalls). A unit
    /// whose work disappeared (impossible while `units()` and `run_unit`
    /// stay paired) is a no-op rather than a panic.
    fn run_unit(&mut self, unit: Unit) {
        match unit {
            Unit::Process(i) => {
                let Some(w) = self.workers.get_mut(i) else { return };
                let Some(cmd) = w.mailbox.pop_front() else { return };
                let out = worker_step(i, &mut w.checker, cmd);
                w.outbox.extend(out.replies);
                self.stats.processed += 1;
            }
            Unit::Deliver(i) => {
                let Some(reply) = self.workers.get_mut(i).and_then(|w| w.outbox.pop_front()) else {
                    return;
                };
                self.inbox.push_back(reply);
                self.stats.delivered += 1;
            }
        }
    }

    /// Run `steps_per_call` gated micro-steps: pick a random ready unit,
    /// then let the schedule decide whether it actually runs.
    fn step_some(&mut self) {
        for _ in 0..self.sched.steps_per_call {
            let units = self.units();
            if units.is_empty() {
                return;
            }
            let Some(&unit) = units.get(self.rng.below(units.len() as u64) as usize) else {
                return;
            };
            match unit {
                Unit::Process(i) => {
                    let Some(w) = self.workers.get_mut(i) else { continue };
                    if w.stalled > 0 {
                        w.stalled -= 1;
                        self.stats.deferred += 1;
                    } else if self.rng.chance(self.sched.stall_p) {
                        w.stalled = self.sched.stall_len;
                        self.stats.stalls += 1;
                        self.stats.deferred += 1;
                    } else if self.rng.chance(self.sched.process_p) {
                        self.run_unit(unit);
                    } else {
                        self.stats.deferred += 1;
                    }
                }
                Unit::Deliver(_) => {
                    if self.rng.chance(self.sched.deliver_p) {
                        self.run_unit(unit);
                    } else {
                        self.stats.deferred += 1;
                    }
                }
            }
        }
    }

    /// Force one unit of progress, ignoring gates and stalls (used when
    /// the coordinator blocks on a reply): deliveries first, so staged
    /// replies reach the coordinator before more work piles up.
    fn force_one(&mut self) -> bool {
        let units = self.units();
        if units.is_empty() {
            return false;
        }
        let deliveries: Vec<Unit> =
            units.iter().copied().filter(|u| matches!(u, Unit::Deliver(_))).collect();
        let pool = if deliveries.is_empty() { units } else { deliveries };
        let Some(&unit) = pool.get(self.rng.below(pool.len() as u64) as usize) else {
            return false;
        };
        self.run_unit(unit);
        true
    }
}

impl ShardTransport for SimTransport {
    fn send(&mut self, shard: usize, cmd: ShardCmd) {
        // Finite clock broadcasts are the only droppable message: the
        // checker's own documentation says they affect event promptness,
        // never verdicts. The end-of-stream drain (MAX) and every other
        // command must arrive.
        if let ShardCmd::Tick { now_ms } = cmd {
            if now_ms != u64::MAX && self.rng.chance(self.sched.drop_tick_p) {
                self.stats.dropped_ticks += 1;
                return;
            }
        }
        if let Some(w) = self.workers.get_mut(shard) {
            w.mailbox.push_back(cmd);
        }
        self.step_some();
    }

    fn recv(&mut self) -> Option<ShardReply> {
        loop {
            if let Some(reply) = self.inbox.pop_front() {
                return Some(reply);
            }
            if !self.force_one() {
                return None;
            }
        }
    }

    fn try_recv(&mut self) -> Option<ShardReply> {
        self.step_some();
        self.inbox.pop_front()
    }

    fn memory_bytes(&self) -> usize {
        // Queued backlog is deliberately not counted: the estimate
        // mirrors the threaded transport's (workers' checker state), so
        // admission-control behaviour matches production. Reading it
        // must not consume schedule randomness.
        self.workers
            .iter()
            .map(|w| w.checker.as_ref().map_or(0, Checker::estimated_memory_bytes))
            .sum()
    }

    fn join(&mut self) {}

    fn sim_stats(&self) -> Option<SimStats> {
        Some(self.stats)
    }
}
