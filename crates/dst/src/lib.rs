//! # aion-dst — deterministic simulation testing for AION
//!
//! The sharded coordinator ([`ShardedChecker`]) is the one place in the
//! workspace where verdicts cross a concurrency boundary: worker shards
//! exchange commands and replies with the coordinator, EXT
//! finalizations merge asynchronously, and checkpoint/restore cuts the
//! whole conversation mid-flight. This crate drives that machinery
//! through **seeded adversarial schedules** on the single-threaded
//! [`SimSchedule`]/`SimTransport` backend (see
//! `aion_online::transport`): cross-worker interleavings are permuted,
//! finite clock broadcasts are dropped, workers stall, spill IO fails —
//! all as a pure function of one `u64` seed.
//!
//! Every seed builds a complete scenario (workload, data kind, anomaly
//! injection, isolation level, shard count, EXT timeout, optional GC + spill faults, optional checkpoint cut +
//! reshard, under GC too), runs it through the single reference
//! [`OnlineChecker`] and the simulated [`ShardedChecker`], and demands
//! the differential guarantees the architecture promises:
//!
//! * identical verdict, violation multiset, txn/finalization counts and
//!   flip summaries, all but the `txns_with_flips` upper bound
//!   (`sharded_equivalence`'s invariant, now under adversarial delivery);
//! * identical `ExtFinalized` multisets for uninterrupted runs;
//! * checkpoint at an adversarial cut + restore (optionally resharded)
//!   converging to the uninterrupted verdict;
//! * injected spill-IO faults surfacing as typed
//!   [`CheckEvent::SpillError`](aion_types::CheckEvent) /
//!   `stats.spill_errors` — never a panic.
//!
//! A failing seed reports a one-line repro command
//! (`repro_command`); re-running it replays the identical schedule.
//! The `experiments dst` subcommand in `aion-bench` is the CLI
//! entrypoint; [`permute`] holds the loom-style exhaustive
//! interleaving models (deepened under `--cfg dst_loom`). See
//! `docs/testing.md`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(clippy::iter_over_hash_type)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod permute;

use aion_online::feed::{feed_plan, route_txn, run_plan, Arrival, FeedConfig, RoutedTxn};
use aion_online::{
    OnlineChecker, OnlineCheckerBuilder, OnlineGcPolicy, ShardedChecker, SimSchedule, SimStats,
    SpillFaultPlan,
};
use aion_storage::Anomaly;
use aion_types::rng::SplitMix64;
use aion_types::{
    CheckEvent, Checker, DataKind, FlipSummary, IsolationLevel, Key, Outcome, TxnBuilder, Value,
};
use aion_workload::{generate_history, KeyDist, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Which [`SimSchedule`] family a run perturbs delivery with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScheduleKind {
    /// Mild jitter: mostly-prompt delivery, occasional tick drops and
    /// short stalls.
    #[default]
    Random,
    /// Maximal reordering: long deferrals, aggressive tick drops, long
    /// worker stalls.
    Pathological,
}

impl ScheduleKind {
    /// Stable CLI token (`--schedule <label>`).
    pub fn label(self) -> &'static str {
        match self {
            ScheduleKind::Random => "random",
            ScheduleKind::Pathological => "pathological",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<ScheduleKind> {
        match s {
            "random" => Some(ScheduleKind::Random),
            "pathological" => Some(ScheduleKind::Pathological),
            _ => None,
        }
    }

    /// The concrete schedule for `seed`.
    fn schedule(self, seed: u64) -> SimSchedule {
        match self {
            ScheduleKind::Random => SimSchedule::random(seed),
            ScheduleKind::Pathological => SimSchedule::pathological(seed),
        }
    }
}

/// Harness options (the CLI's `--schedule` / `--fast`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DstOptions {
    /// Delivery-perturbation family.
    pub schedule: ScheduleKind,
    /// Smaller workloads per seed (CI's per-push budget).
    pub fast: bool,
}

/// What one passing seed exercised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedReport {
    /// The scenario seed.
    pub seed: u64,
    /// Transactions in the generated history.
    pub txns: usize,
    /// Key-value or list history.
    pub kind: DataKind,
    /// Whether the scenario ran with Checking GC.
    pub gc: bool,
    /// Worker shards in the simulated sharded run.
    pub shards: usize,
    /// Anomaly instances planted into the history (0 = clean).
    pub injected: usize,
    /// Violations both checkers agreed on.
    pub violations: usize,
    /// Arrival index of the checkpoint cut, when the scenario took one.
    pub checkpoint_cut: Option<usize>,
    /// Worker count the cut restored onto (`None` = same count).
    pub resharded: Option<usize>,
    /// Arrivals per `feed_batch` call when the scenario drove the
    /// sharded checker through the batched ingest path (`None` = one
    /// `feed` per arrival).
    pub feed_batch_chunk: Option<usize>,
    /// Spill write faults injected into the sharded run (0 = the
    /// scenario had no spill-fault sub-plan).
    pub spill_faults_fired: u64,
    /// Delivery-perturbation counters from the simulated transport.
    pub sim: SimStats,
}

/// A failing seed, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct SeedFailure {
    /// The scenario seed.
    pub seed: u64,
    /// What diverged (or the panic payload).
    pub detail: String,
    /// One-line deterministic repro command.
    pub repro: String,
}

impl std::fmt::Display for SeedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} FAILED: {}\n  repro: {}", self.seed, self.detail, self.repro)
    }
}

/// Aggregate result of a seed sweep.
#[derive(Debug, Default)]
pub struct DstSummary {
    /// Seeds that passed.
    pub passed: u64,
    /// Scenarios that took a checkpoint cut.
    pub cuts: u64,
    /// Scenarios over a list history.
    pub lists: u64,
    /// Checkpoint cuts taken under Checking GC (spilled state crosses
    /// the cut, and a reshard reloads it).
    pub gc_cuts: u64,
    /// Scenarios that fired at least one spill fault.
    pub spill_fault_runs: u64,
    /// Total delivery perturbations across all runs.
    pub sim: SimStats,
    /// Every failing seed, in order.
    pub failures: Vec<SeedFailure>,
}

/// The one-line command that replays `seed` deterministically.
fn repro_command(seed: u64, opts: &DstOptions) -> String {
    format!(
        "cargo run --release -p aion-bench --bin experiments -- dst --seed {seed} --schedule {}{}",
        opts.schedule.label(),
        if opts.fast { " --fast" } else { "" },
    )
}

// ------------------------------------------------------------ scenarios

/// Everything a seed determines, before any checker runs.
struct Scenario {
    plan: Vec<Arrival>,
    kind: DataKind,
    level: IsolationLevel,
    ext_timeout_ms: u64,
    gc_max_txns: Option<usize>,
    fault_seed: u64,
    write_fail_p: f64,
    shards: usize,
    injected: usize,
    checkpoint_cut: Option<usize>,
    resharded: Option<usize>,
    feed_batch_chunk: Option<usize>,
}

fn build_scenario(seed: u64, opts: &DstOptions) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0xD575_EED5);
    // The dimensions added later draw from a second stream, so every
    // draw of the first — and with it a key-value seed without GC — is
    // what it was before they existed.
    let mut extra = SplitMix64::new(seed ^ 0x115E_CC07);
    let kind = if extra.chance(1.0 / 3.0) { DataKind::List } else { DataKind::Kv };
    let txns = if opts.fast { 40 + rng.below(80) } else { 80 + rng.below(220) } as usize;
    let spec = WorkloadSpec::default()
        .with_txns(txns)
        .with_sessions(1 + rng.below(7) as usize)
        .with_ops_per_txn(1 + rng.below(5) as usize)
        .with_read_ratio(0.2 + 0.6 * rng.next_f64())
        .with_keys(2 + rng.below(22))
        .with_dist(if rng.chance(0.5) { KeyDist::Uniform } else { KeyDist::Zipfian })
        .with_ts_stride(4) // leave gaps the anomaly injectors can relocate into
        .with_seed(rng.next_u64())
        .with_kind(kind);
    let level = IsolationLevel::ALL[rng.below(IsolationLevel::ALL.len() as u64) as usize];
    let mut h = generate_history(&spec, level);
    let injected = if rng.chance(0.7) {
        let anomaly = Anomaly::ALL[rng.below(Anomaly::ALL.len() as u64) as usize];
        let rate = 0.05 + 0.15 * rng.next_f64();
        anomaly.inject(&mut h, rate, rng.next_u64())
    } else {
        0
    };
    let mut plan = feed_plan(
        &h,
        &FeedConfig {
            batch_size: 1 + rng.below(40) as usize,
            batch_interval_ms: rng.below(30),
            delay_mean_ms: 20.0 * rng.next_f64(),
            delay_std_ms: 5.0 * rng.next_f64(),
            seed: rng.next_u64(),
        },
    );
    let gc = rng.chance(0.3);
    let cut_rng = if gc { &mut extra } else { &mut rng };
    let mut checkpoint_cut = if cut_rng.chance(0.5) && plan.len() >= 4 {
        Some(1 + cut_rng.below(plan.len() as u64 - 2) as usize)
    } else {
        None
    };
    let ext_timeout_ms = [1, 5, 50, 5000][rng.below(4) as usize];
    let gc_max_txns = gc.then(|| 8 + rng.below(24) as usize);
    let fault_seed = rng.next_u64();
    let write_fail_p = 0.2 + 0.3 * rng.next_f64();
    let shards = 2 + rng.below(3) as usize;
    // This draw once chose a clock-broadcast granularity, which is now a
    // constant of the coordinator; it is still taken so every later draw,
    // and with it every seed's scenario, stays what it was.
    rng.below(5);
    let resharded = match checkpoint_cut {
        Some(_) if gc => extra.chance(0.5).then(|| 1 + extra.below(4) as usize),
        Some(_) if rng.chance(0.5) => Some(1 + rng.below(4) as usize),
        _ => None,
    };
    // Half the seeds drive the sharded checker through the batched
    // ingest path (`feed_batch`, one channel message per shard per
    // chunk) so the differential also covers batched delivery under
    // adversarial schedules.
    let feed_batch_chunk = rng.chance(0.5).then(|| 2 + rng.below(14) as usize);
    if let (Some(cut), Some(width)) = (checkpoint_cut, resharded) {
        if width > 1 && extra.chance(0.5) {
            checkpoint_cut = Some(plant_reshard_flip(&mut plan, cut, width, kind));
        }
    }
    Scenario {
        kind,
        level,
        ext_timeout_ms,
        gc_max_txns,
        fault_seed,
        write_fail_p,
        shards,
        injected,
        resharded,
        checkpoint_cut,
        feed_batch_chunk,
        plan,
    }
}

/// Plant a (txn, key) pair that flips on both sides of the re-shard cut
/// at `cut` onto `width` workers; returns the moved cut. A read of a value
/// nothing wrote yet and its late writer arrive before the cut (one flip),
/// an overwrite before the read's start just after it (a second flip), all
/// at one arrival time so no EXT timeout settles the read in between. The
/// fresh key's worker is not 0, which a re-shard sums flip counters onto.
fn plant_reshard_flip(plan: &mut Vec<Arrival>, cut: usize, width: usize, kind: DataKind) -> usize {
    let txns = || plan.iter().map(|(_, txn)| txn);
    let tid = txns().map(|t| t.tid.0).max().unwrap_or(0);
    let sid = txns().map(|t| t.sid.0).max().unwrap_or(0);
    let ts = txns().map(|t| t.commit_ts.0.max(t.start_ts.0)).max().unwrap_or(0);
    let keys = txns().flat_map(|t| t.ops.iter().map(|op| op.key().0)).max().unwrap_or(0);
    let owner = |k: Key| route_txn(TxnBuilder::new(0).read(k, Value(0)).build(), width);
    let key =
        (keys + 1..).map(Key).find(|&k| matches!(owner(k), RoutedTxn::Single { shard: 1.., .. }));
    let key = key.unwrap_or(Key(keys + 1));
    let txn = |i: u64, start: u64| {
        TxnBuilder::new(tid + i).session(sid + i as u32, 0).interval(ts + start, ts + start + 1)
    };
    let write = |b: TxnBuilder, v: u64| match kind {
        DataKind::Kv => b.put(key, Value(v)),
        DataKind::List => b.append(key, Value(v)),
    };
    let reader = match kind {
        DataKind::Kv => txn(1, 10).read(key, Value(7001)),
        DataKind::List => txn(1, 10).read_list(key, vec![Value(7001)]),
    };
    let at = plan[cut - 1].0;
    let planted = [reader, write(txn(2, 1), 7001), write(txn(3, 4), 7002)];
    plan.splice(cut..cut, planted.map(|b| (at, b.build())));
    cut + 2
}

impl Scenario {
    /// A fresh fault plan for one run. Each run gets its own (identically
    /// seeded) plan: the single and sharded checkers consume the fault
    /// RNG on different call patterns, so sharing one `Arc` would
    /// entangle their streams. Write faults only — a failed spill write
    /// keeps transactions resident and is verdict-preserving, so the
    /// differential still has to hold; reload faults (which lose data
    /// for the retrying check) are exercised separately in
    /// `aion_online::spill` unit tests.
    fn fault_plan(&self) -> Option<Arc<SpillFaultPlan>> {
        self.gc_max_txns.map(|_| SpillFaultPlan::new(self.fault_seed, self.write_fail_p, 0.0))
    }

    fn builder(&self, faults: Option<Arc<SpillFaultPlan>>) -> OnlineCheckerBuilder {
        let mut b = OnlineChecker::builder()
            .kind(self.kind)
            .level(self.level)
            .ext_timeout_ms(self.ext_timeout_ms)
            .events(true);
        if let Some(max_txns) = self.gc_max_txns {
            b = b.gc(OnlineGcPolicy::Checking { max_txns });
        }
        if let Some(plan) = faults {
            b = b.spill_faults(plan);
        }
        b
    }
}

// ------------------------------------------------------------ the check

/// `ExtFinalized` multiset of a run's event timeline, sortable.
fn finalized_multiset(timeline: &[(u64, CheckEvent)]) -> Vec<String> {
    let mut v: Vec<String> = timeline
        .iter()
        .filter_map(|(_, e)| match e {
            CheckEvent::ExtFinalized { tid, violations } => Some(format!("{tid:?}:{violations}")),
            CheckEvent::Violation { .. }
            | CheckEvent::VerdictFlip { .. }
            | CheckEvent::SpillPass { .. }
            | CheckEvent::SpillError { .. } => None,
            // Non-exhaustive upstream: a new event kind must decide
            // whether it takes part in the equivalence check.
            other => unreachable!("unclassified CheckEvent in DST timeline: {other:?}"),
        })
        .collect();
    v.sort_unstable();
    v
}

fn violation_multiset(o: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = o.report.violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort_unstable();
    v
}

fn compare_outcomes(single: &Outcome, sharded: &Outcome, what: &str) -> Result<(), String> {
    if single.is_ok() != sharded.is_ok() {
        return Err(format!(
            "{what}: verdict diverged (single ok={}, sharded ok={})",
            single.is_ok(),
            sharded.is_ok()
        ));
    }
    let (sv, shv) = (violation_multiset(single), violation_multiset(sharded));
    if sv != shv {
        return Err(format!(
            "{what}: violation multisets diverged ({} vs {}); first single-only: {:?}",
            sv.len(),
            shv.len(),
            sv.iter().find(|x| !shv.contains(x)),
        ));
    }
    if single.txns != sharded.txns {
        return Err(format!("{what}: txns {} vs {}", single.txns, sharded.txns));
    }
    if single.stats.finalized != sharded.stats.finalized {
        return Err(format!(
            "{what}: finalized {} vs {}",
            single.stats.finalized, sharded.stats.finalized
        ));
    }
    // A (txn, key) pair lives on one key shard, so every flip figure but
    // the documented upper bound `txns_with_flips` must match exactly.
    let per_pair = |f: FlipSummary| FlipSummary { txns_with_flips: 0, ..f };
    if per_pair(single.flips) != per_pair(sharded.flips) {
        return Err(format!("{what}: flip summaries {:?} vs {:?}", single.flips, sharded.flips));
    }
    Ok(())
}

/// Drive `plan` into a sharded checker, per arrival (`chunk == None`)
/// or through [`Checker::feed_batch`] in chunks. The coordinator `tick`s
/// are not there to move the clock — each worker's `feed` does that, at
/// the part's own virtual time — but to put the rate-limited, droppable
/// clock broadcast under the schedule: verdicts must not care whether
/// one is sent per arrival, once per chunk, or lost.
fn drive(
    sh: &mut ShardedChecker,
    plan: &[Arrival],
    chunk: Option<usize>,
    mut on_events: impl FnMut(u64, Vec<CheckEvent>),
) {
    match chunk {
        None => {
            for (at, txn) in plan {
                on_events(*at, sh.tick(*at));
                on_events(*at, sh.feed(txn.clone(), *at));
            }
        }
        Some(n) => {
            for chunk in plan.chunks(n.max(1)) {
                let first = chunk[0].0;
                let last = chunk[chunk.len() - 1].0;
                on_events(first, sh.tick(first));
                let batch: Vec<_> = chunk.iter().map(|(at, txn)| (txn.clone(), *at)).collect();
                on_events(last, sh.feed_batch(batch));
            }
        }
    }
}

fn run_scenario(seed: u64, opts: &DstOptions) -> Result<SeedReport, String> {
    let sc = build_scenario(seed, opts);

    // Reference: the single checker, in arrival order.
    let single_faults = sc.fault_plan();
    let single = sc.builder(single_faults.clone()).build().map_err(|e| e.to_string())?;
    let single_report = run_plan(single, &sc.plan);
    if let Some(plan) = &single_faults {
        if single_report.outcome.stats.spill_errors != plan.fired() {
            return Err(format!(
                "single run lost spill errors: {} typed vs {} injected",
                single_report.outcome.stats.spill_errors,
                plan.fired()
            ));
        }
    }

    // Adversary: the simulated sharded checker under this seed's
    // schedule, optionally cut by a checkpoint/restore mid-stream.
    let sharded_faults = sc.fault_plan();
    let sched = opts.schedule.schedule(seed);
    let sharded = sc
        .builder(sharded_faults.clone())
        .shards(sc.shards)
        .build_sharded_sim(sched)
        .map_err(|e| e.to_string())?;

    let (sharded_outcome, sim, finalized_comparable) = match sc.checkpoint_cut {
        None => {
            // Drive by hand (instead of `run_plan`, which consumes the
            // checker) so the transport counters survive to the report.
            let mut sh = sharded;
            let mut timeline = Vec::new();
            drive(&mut sh, &sc.plan, sc.feed_batch_chunk, |at, evs| {
                timeline.extend(evs.into_iter().map(|e| (at, e)));
            });
            let end = sc.plan.last().map(|(at, _)| *at).unwrap_or(0);
            timeline.extend(sh.tick(u64::MAX).into_iter().map(|e| (end, e)));
            let sim = sh.sim_stats();
            (Checker::finish(sh), sim, Some(finalized_multiset(&timeline)))
        }
        Some(cut) => {
            let mut first = sharded;
            drive(&mut first, &sc.plan[..cut], sc.feed_batch_chunk, |_, _| {});
            let bytes = first.checkpoint().map_err(|e| e.to_string())?;
            // The interrupted process dies here; its outcome is discarded.
            let _ = first.finish();
            let resume_sched = opts.schedule.schedule(seed ^ 0x0C0F_FEE5);
            let mut resumed = ShardedChecker::restore_sim(&bytes, sc.resharded, resume_sched)
                .map_err(|e| e.to_string())?;
            drive(&mut resumed, &sc.plan[cut..], sc.feed_batch_chunk, |_, _| {});
            resumed.tick(u64::MAX);
            let sim = resumed.sim_stats();
            (Checker::finish(resumed), sim, None)
        }
    };

    compare_outcomes(
        &single_report.outcome,
        &sharded_outcome,
        &match sc.checkpoint_cut {
            Some(cut) => format!(
                "cut@{cut}{} shards={} ext={} gc={:?} {:?} level={:?}",
                sc.resharded.map(|n| format!("->reshard {n}")).unwrap_or_default(),
                sc.shards,
                sc.ext_timeout_ms,
                sc.gc_max_txns,
                sc.kind,
                sc.level
            ),
            None => format!(
                "uninterrupted shards={} ext={} gc={:?} {:?} level={:?}",
                sc.shards, sc.ext_timeout_ms, sc.gc_max_txns, sc.kind, sc.level
            ),
        },
    )?;
    if let Some(sharded_finalized) = finalized_comparable {
        let single_finalized = finalized_multiset(&single_report.timeline);
        if single_finalized != sharded_finalized {
            return Err(format!(
                "ExtFinalized multisets diverged: {} single vs {} sharded; first single-only: {:?}",
                single_finalized.len(),
                sharded_finalized.len(),
                single_finalized.iter().find(|x| !sharded_finalized.contains(x)),
            ));
        }
    }
    let spill_faults_fired = match (&sharded_faults, sc.checkpoint_cut) {
        (Some(plan), None) => {
            // A restored run carries no fault plan (plans live in the
            // builder and are never persisted), so the typed-error
            // accounting is only closed for uninterrupted runs.
            if sharded_outcome.stats.spill_errors != plan.fired() {
                return Err(format!(
                    "sharded run lost spill errors: {} typed vs {} injected",
                    sharded_outcome.stats.spill_errors,
                    plan.fired()
                ));
            }
            plan.fired()
        }
        (Some(plan), Some(_)) => plan.fired(),
        (None, _) => 0,
    };

    Ok(SeedReport {
        seed,
        txns: sc.plan.len(),
        kind: sc.kind,
        gc: sc.gc_max_txns.is_some(),
        shards: sc.shards,
        injected: sc.injected,
        violations: single_report.outcome.report.violations.len(),
        checkpoint_cut: sc.checkpoint_cut,
        resharded: sc.resharded,
        feed_batch_chunk: sc.feed_batch_chunk,
        spill_faults_fired,
        sim: sim.unwrap_or_default(),
    })
}

/// Run one seed's scenario. Divergence *and* panics (a coordinator
/// crash under an adversarial schedule is exactly what this harness
/// hunts) both come back as a [`SeedFailure`] with a repro line.
pub fn check_seed(seed: u64, opts: &DstOptions) -> Result<SeedReport, SeedFailure> {
    let fail = |detail: String| SeedFailure { seed, detail, repro: repro_command(seed, opts) };
    match catch_unwind(AssertUnwindSafe(|| run_scenario(seed, opts))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(detail)) => Err(fail(detail)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            Err(fail(format!("panicked: {msg}")))
        }
    }
}

/// Sweep `count` seeds starting at `start`.
pub fn run_seeds(start: u64, count: u64, opts: &DstOptions) -> DstSummary {
    let mut summary = DstSummary::default();
    for seed in start..start.saturating_add(count) {
        match check_seed(seed, opts) {
            Ok(report) => {
                summary.passed += 1;
                summary.cuts += u64::from(report.checkpoint_cut.is_some());
                summary.lists += u64::from(report.kind == DataKind::List);
                summary.gc_cuts += u64::from(report.gc && report.checkpoint_cut.is_some());
                summary.spill_fault_runs += u64::from(report.spill_faults_fired > 0);
                summary.sim.processed += report.sim.processed;
                summary.sim.delivered += report.sim.delivered;
                summary.sim.dropped_ticks += report.sim.dropped_ticks;
                summary.sim.stalls += report.sim.stalls;
                summary.sim.deferred += report.sim.deferred;
            }
            Err(failure) => summary.failures.push(failure),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: DstOptions = DstOptions { schedule: ScheduleKind::Random, fast: true };

    #[test]
    fn a_seed_replays_identically() {
        let a = check_seed(3, &FAST).expect("seed 3 passes");
        let b = check_seed(3, &FAST).expect("seed 3 passes again");
        assert_eq!(a, b, "same seed, same everything");
    }

    #[test]
    fn a_small_sweep_passes_on_both_schedules() {
        for schedule in [ScheduleKind::Random, ScheduleKind::Pathological] {
            let opts = DstOptions { schedule, fast: true };
            let summary = run_seeds(0, 16, &opts);
            assert!(
                summary.failures.is_empty(),
                "{} schedule failures:\n{}",
                schedule.label(),
                summary.failures.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
            );
            assert_eq!(summary.passed, 16);
        }
    }

    #[test]
    fn the_seed_space_covers_every_sub_scenario() {
        // 48 fast seeds must hit a checkpoint cut, a reshard, a list
        // history, a cut and a reshard under GC, a spill-fault run, an
        // injected anomaly with real violations, and some dropped ticks
        // — otherwise the generator regressed and the sweep silently
        // stopped testing something.
        let reports: Vec<SeedReport> =
            (0..48).map(|s| check_seed(s, &FAST).expect("fast seeds pass")).collect();
        assert!(reports.iter().any(|r| r.checkpoint_cut.is_some()), "no cut scenarios");
        assert!(reports.iter().any(|r| r.resharded.is_some()), "no reshard scenarios");
        assert!(reports.iter().any(|r| r.kind == DataKind::List), "no list scenarios");
        assert!(reports.iter().any(|r| r.gc && r.checkpoint_cut.is_some()), "no cuts under GC");
        assert!(
            reports.iter().any(|r| r.gc && r.resharded.is_some()),
            "no reshards of spilled state"
        );
        assert!(reports.iter().any(|r| r.spill_faults_fired > 0), "no spill-fault scenarios");
        assert!(reports.iter().any(|r| r.violations > 0), "no violating scenarios");
        assert!(reports.iter().any(|r| r.injected > 0), "no injected anomalies");
        assert!(reports.iter().any(|r| r.feed_batch_chunk.is_some()), "no batched-feed scenarios");
        assert!(reports.iter().any(|r| r.feed_batch_chunk.is_none()), "no per-arrival scenarios");
        assert!(
            reports.iter().map(|r| r.sim.dropped_ticks).sum::<u64>() > 0
                || reports.iter().all(|r| r.checkpoint_cut.is_some()),
            "the schedule never dropped a tick"
        );
    }

    #[test]
    fn repro_lines_are_copy_pasteable() {
        let opts = DstOptions { schedule: ScheduleKind::Pathological, fast: true };
        assert_eq!(
            repro_command(17, &opts),
            "cargo run --release -p aion-bench --bin experiments -- dst --seed 17 \
             --schedule pathological --fast"
        );
    }
}
