//! Checkpoint/restore differential properties: interrupting a session
//! at an arbitrary arrival boundary — checkpoint, drop the checker,
//! restore from the bytes — must change *nothing* observable. For the
//! single checker the guarantee is exact: the resumed session emits
//! byte-identical events and its final checkpoint is byte-identical to
//! the uninterrupted session's. For the sharded checker (whose event
//! interleaving is scheduling-dependent) the guarantee is the final
//! outcome and violation multiset, including across a shard-count
//! change (`restore(bytes, Some(n))`).
//!
//! This is the differential argument behind aion-serve's
//! checkpoint-survives-a-daemon-restart cycle, run as a property over
//! random workloads, injected anomalies, all isolation levels plus a
//! per-transaction mixed policy, and random cut points.

use aion_online::{OnlineChecker, ShardedChecker, SimSchedule};
use aion_storage::Anomaly;
use aion_types::{
    Checker, History, IsolationLevel, LevelPolicy, Outcome, SessionId, SplitMix64, Transaction,
};
use aion_workload::{generate_history, KeyDist, LevelMix, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (30usize..100, 1usize..8, 1usize..6, 0.0f64..1.0, 2u64..30, 0u64..500).prop_map(
        |(txns, sessions, ops, reads, keys, seed)| {
            WorkloadSpec::default()
                .with_txns(txns)
                .with_sessions(sessions)
                .with_ops_per_txn(ops)
                .with_read_ratio(reads)
                .with_keys(keys)
                .with_seed(seed)
                .with_dist(KeyDist::Uniform)
        },
    )
}

/// One anomaly class per case (or none), so restored sessions also
/// resume *mid-violation* (pending EXT windows, half-observed conflicts).
fn arb_inject() -> impl Strategy<Value = Option<Anomaly>> {
    prop_oneof![
        Just(None),
        Just(Some(Anomaly::LostUpdate)),
        Just(Some(Anomaly::WriteSkew)),
        Just(Some(Anomaly::ReadSkew)),
        Just(Some(Anomaly::DirtyWrite)),
        Just(Some(Anomaly::DuplicateTid)),
    ]
}

fn inject(h: &mut History, what: Option<Anomaly>, seed: u64) {
    if let Some(anomaly) = what {
        anomaly.inject(h, 0.3, seed);
    }
}

/// The checking policy under test: every uniform level, plus the
/// per-transaction mixed policy over a stamped four-way level mix.
#[derive(Clone, Copy, Debug)]
enum Policy {
    Uniform(IsolationLevel),
    Mixed,
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Uniform(IsolationLevel::ReadCommitted)),
        Just(Policy::Uniform(IsolationLevel::ReadAtomic)),
        Just(Policy::Uniform(IsolationLevel::Si)),
        Just(Policy::Uniform(IsolationLevel::Ser)),
        Just(Policy::Mixed),
    ]
}

impl Policy {
    fn level_policy(self) -> LevelPolicy {
        match self {
            Policy::Uniform(l) => LevelPolicy::Uniform(l),
            Policy::Mixed => LevelPolicy::per_txn(IsolationLevel::Si),
        }
    }

    /// A mixed policy only exercises the per-arrival dispatch if the
    /// history actually declares differing levels.
    fn prepare(self, h: &mut History, seed: u64) {
        if let Policy::Mixed = self {
            LevelMix::per_txn(1.0, 1.0, 1.0, 1.0).stamp(h, seed);
        }
    }
}

/// A random arrival order that preserves per-session order (AION's
/// input assumption) — same shuffle the shard-equivalence suite uses.
fn session_respecting_shuffle(h: &History, seed: u64) -> Vec<Transaction> {
    let mut rng = SplitMix64::new(seed);
    let mut queues: Vec<(SessionId, Vec<usize>, usize)> =
        h.sessions().into_iter().map(|(sid, idxs)| (sid, idxs, 0)).collect();
    queues.sort_by_key(|(sid, _, _)| *sid);
    let mut out = Vec::with_capacity(h.len());
    let mut live: Vec<usize> = (0..queues.len()).collect();
    while !live.is_empty() {
        let pick = rng.below(live.len() as u64) as usize;
        let qi = live[pick];
        let (_, idxs, pos) = &mut queues[qi];
        out.push(h.txns[idxs[*pos]].clone());
        *pos += 1;
        if *pos == idxs.len() {
            live.swap_remove(pick);
        }
    }
    out
}

/// What one run observes: every event from arrival `cut` onward (as
/// debug strings), the checkpoint bytes taken after the last arrival,
/// and the final outcome.
struct Observed {
    tail_events: Vec<String>,
    final_snapshot: Vec<u8>,
    outcome: Outcome,
}

/// Drive a single checker over the arrivals; when `interrupt` is set,
/// checkpoint at arrival boundary `cut`, drop the checker, and resume
/// from the bytes.
fn drive_single(
    policy: LevelPolicy,
    h: &History,
    arrivals: &[Transaction],
    cut: usize,
    interrupt: bool,
) -> Observed {
    let mut ck =
        OnlineChecker::builder().kind(h.kind).levels(policy).build().expect("open session");
    let mut tail_events = Vec::new();
    for (i, txn) in arrivals.iter().enumerate() {
        if interrupt && i == cut {
            let snap = ck.checkpoint().expect("checkpoint");
            drop(ck);
            ck = OnlineChecker::restore(&snap).expect("restore");
        }
        let now = i as u64;
        let mut evs = ck.tick(now);
        evs.extend(ck.feed(txn.clone(), now));
        if i >= cut {
            tail_events.extend(evs.iter().map(|e| format!("{e:?}")));
        }
    }
    let final_snapshot = ck.checkpoint().expect("final checkpoint");
    tail_events.extend(ck.tick(u64::MAX).iter().map(|e| format!("{e:?}")));
    Observed { tail_events, final_snapshot, outcome: ck.finish() }
}

/// Drive a sharded checker; when `restore_shards` is set, checkpoint at
/// `cut` and restore onto that many workers (possibly a different
/// count).
fn drive_sharded(
    policy: LevelPolicy,
    h: &History,
    arrivals: &[Transaction],
    shards: usize,
    cut: usize,
    restore_shards: Option<usize>,
) -> Outcome {
    let mut ck = OnlineChecker::builder()
        .kind(h.kind)
        .levels(policy)
        .shards(shards)
        .build_sharded()
        .expect("open session");
    for (i, txn) in arrivals.iter().enumerate() {
        if let Some(n) = restore_shards.filter(|_| i == cut) {
            let snap = ck.checkpoint().expect("checkpoint");
            drop(ck);
            // Its own count resumes as it is; any other re-partitions.
            let reshard = Some(n).filter(|&n| n != shards);
            ck = ShardedChecker::restore(&snap, reshard).expect("restore");
        }
        let now = i as u64;
        ck.tick(now);
        ck.feed(txn.clone(), now);
    }
    ck.tick(u64::MAX);
    ck.finish()
}

/// Violation multiset as sortable strings (Violation has no Ord).
fn violation_set(o: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = o.report.violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort_unstable();
    v
}

fn assert_same_outcome(a: &Outcome, b: &Outcome, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.is_ok(), b.is_ok(), "verdict differs: {}", what);
    prop_assert_eq!(violation_set(a), violation_set(b), "violation sets differ: {}", what);
    prop_assert_eq!(a.txns, b.txns, "txn counts differ: {}", what);
    prop_assert_eq!(a.stats.finalized, b.stats.finalized, "finalized counts differ: {}", what);
    prop_assert_eq!(a.flips.total_flips, b.flips.total_flips, "flip totals differ: {}", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single checker, any level, any anomaly, any cut point: the
    /// interrupted run's post-cut events are byte-identical to the
    /// uninterrupted run's, and so is its final checkpoint.
    #[test]
    fn restored_single_checker_is_byte_identical(
        spec in arb_spec(),
        what in arb_inject(),
        policy in arb_policy(),
        shuffle_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        inject(&mut h, what, spec.seed.wrapping_add(1));
        policy.prepare(&mut h, 42);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cut = ((cut_frac * arrivals.len() as f64) as usize).min(arrivals.len());
        let lp = policy.level_policy();
        let plain = drive_single(lp.clone(), &h, &arrivals, cut, false);
        let resumed = drive_single(lp, &h, &arrivals, cut, true);
        prop_assert_eq!(
            &plain.tail_events, &resumed.tail_events,
            "post-restore events must be byte-identical (cut {})", cut
        );
        prop_assert_eq!(
            &plain.final_snapshot, &resumed.final_snapshot,
            "final checkpoints must be byte-identical (cut {})", cut
        );
        assert_same_outcome(&plain.outcome, &resumed.outcome, "single resume")?;
    }

    /// Sharded checker, N ∈ {1..4}: checkpoint/restore at any cut point
    /// preserves the final outcome and violation multiset; restoring
    /// onto a *different* shard count preserves them too.
    #[test]
    fn restored_sharded_checker_matches(
        spec in arb_spec(),
        what in arb_inject(),
        shards in 1usize..5,
        reshard in 1usize..5,
        shuffle_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        inject(&mut h, what, spec.seed.wrapping_add(1));
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cut = ((cut_frac * arrivals.len() as f64) as usize).min(arrivals.len());
        let lp = LevelPolicy::Uniform(IsolationLevel::Si);
        let plain = drive_sharded(lp.clone(), &h, &arrivals, shards, cut, None);
        let resumed = drive_sharded(lp.clone(), &h, &arrivals, shards, cut, Some(shards));
        assert_same_outcome(&plain, &resumed, "sharded resume")?;
        let resharded = drive_sharded(lp, &h, &arrivals, shards, cut, Some(reshard));
        assert_same_outcome(&plain, &resharded, "resharded resume")?;
    }

    /// Snapshot under schedule: the sharded checkpoint is taken while a
    /// deterministic *adversarial* transport (deferred deliveries,
    /// dropped clock broadcasts, stalled workers — `SimSchedule`) is
    /// perturbing the coordinator conversation, and the restored run
    /// resumes under a *different* adversarial schedule. Verdict and
    /// violation multiset must still match the plain threaded run: a
    /// checkpoint cut is correct at *any* reachable coordinator state,
    /// not just the quiesced ones the threaded tests happen to visit.
    #[test]
    fn checkpoint_under_adversarial_schedule_matches(
        spec in arb_spec(),
        what in arb_inject(),
        shards in 2usize..5,
        reshard in 1usize..5,
        shuffle_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
        sched_seed in 0u64..1_000_000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        inject(&mut h, what, spec.seed.wrapping_add(1));
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cut = ((cut_frac * arrivals.len() as f64) as usize).min(arrivals.len());
        let lp = LevelPolicy::Uniform(IsolationLevel::Si);
        let plain = drive_sharded(lp.clone(), &h, &arrivals, shards, cut, None);

        let mut ck = OnlineChecker::builder()
            .kind(h.kind)
            .levels(lp)
            .shards(shards)
            .build_sharded_sim(SimSchedule::pathological(sched_seed))
            .expect("open sim session");
        for (i, txn) in arrivals.iter().enumerate() {
            if i == cut {
                let snap = ck.checkpoint().expect("checkpoint under schedule");
                let _ = ck.finish(); // the interrupted process dies here
                ck = ShardedChecker::restore_sim(
                    &snap,
                    Some(reshard),
                    SimSchedule::random(sched_seed ^ 0x5A5A),
                )
                .expect("restore resharded under schedule");
            }
            let now = i as u64;
            ck.tick(now);
            ck.feed(txn.clone(), now);
        }
        ck.tick(u64::MAX);
        let resumed = ck.finish();
        assert_same_outcome(&plain, &resumed, "adversarial-schedule resume")?;
    }

    /// Any truncation of a live mid-stream checkpoint is a typed error,
    /// never a panic and never a silently-wrong checker.
    #[test]
    fn truncated_snapshots_are_errors(
        spec in arb_spec(),
        shuffle_seed in 0u64..1000,
        trunc_frac in 0.0f64..1.0,
    ) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let mut ck = OnlineChecker::builder().kind(h.kind).build().expect("open session");
        for (i, txn) in arrivals.iter().enumerate().take(arrivals.len() / 2) {
            ck.tick(i as u64);
            ck.feed(txn.clone(), i as u64);
        }
        let snap = ck.checkpoint().expect("checkpoint");
        let cut = ((trunc_frac * snap.len() as f64) as usize).min(snap.len() - 1);
        prop_assert!(
            OnlineChecker::restore(&snap[..cut]).is_err(),
            "truncation to {} of {} bytes must be a typed error", cut, snap.len()
        );
    }

    /// Flipping any single byte of a checkpoint must never panic: the
    /// restore either fails with a typed error, or (when the flip lands
    /// in a value field the codec cannot distinguish) yields a checker
    /// that still finishes without crashing.
    #[test]
    fn garbled_snapshots_never_panic(
        spec in arb_spec(),
        shuffle_seed in 0u64..1000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let mut ck = OnlineChecker::builder().kind(h.kind).build().expect("open session");
        for (i, txn) in arrivals.iter().enumerate().take(arrivals.len() / 2) {
            ck.tick(i as u64);
            ck.feed(txn.clone(), i as u64);
        }
        let mut snap = ck.checkpoint().expect("checkpoint");
        let pos = ((pos_frac * snap.len() as f64) as usize).min(snap.len() - 1);
        snap[pos] ^= flip;
        if let Ok(mut back) = OnlineChecker::restore(&snap) {
            back.tick(u64::MAX);
            let _ = back.finish();
        }
    }
}

// --- golden checkpoint bytes ----------------------------------------------
//
// Three fixed sessions whose `AIONCKPT` bytes are checked in under
// `tests/golden/`. The files were written by the hand-paired
// `put_x`/`get_x` encoder of commit ec23bfe, before the `Wire` codec
// replaced it, so "the bytes on disk did not change" is a test and not a
// scratch probe. Between them the sessions hold GC spills, a straggler
// reload, verdict flips, every `Violation` and `CheckEvent` variant, a
// per-session and a per-transaction mixed policy, and pending EXT windows.
//
// `UPDATE_CORPUS=1 cargo test -p aion-online --test snapshot_differential golden`
// rewrites the files; that is only legitimate together with a
// `SNAPSHOT_VERSION` bump.

use aion_online::{feed_plan, FeedConfig, OnlineGcPolicy, SpillFaultPlan};
use aion_types::{CheckEvent, DataKind, Key, SpillOp, TxnBuilder, Value, Violation};

/// A valid serial history drawn from nothing but `SplitMix64`, so the
/// golden bytes do not move when the workload generators do: transaction
/// `i` runs over `[10i + 1, 10i + 5]` in a random session and reads
/// exactly the latest committed state.
fn serial_history(kind: DataKind, txns: u64, sessions: u32, keys: u64, seed: u64) -> History {
    let mut rng = SplitMix64::new(seed);
    let mut h = History::new(kind);
    let mut state: Vec<Vec<Value>> = vec![Vec::new(); keys as usize];
    let mut next_sno = vec![0u32; sessions as usize];
    for i in 0..txns {
        let sid = rng.below(u64::from(sessions)) as usize;
        let mut b = TxnBuilder::new(i + 1)
            .session(sid as u32, next_sno[sid])
            .interval(10 * i + 1, 10 * i + 5);
        next_sno[sid] += 1;
        for j in 0..1 + rng.below(3) {
            let k = rng.below(keys) as usize;
            let (key, fresh) = (Key(k as u64), Value(100 * (i + 1) + j));
            b = match (kind, rng.chance(0.5)) {
                (DataKind::Kv, true) => {
                    b.read(key, state[k].last().copied().unwrap_or(Value::INIT))
                }
                (DataKind::Kv, false) => {
                    state[k] = vec![fresh];
                    b.put(key, fresh)
                }
                (DataKind::List, true) => b.read_list(key, state[k].clone()),
                (DataKind::List, false) => {
                    state[k].push(fresh);
                    b.append(key, fresh)
                }
            };
        }
        h.push(b.build());
    }
    h
}

/// One arrival per `Violation` variant (in sessions 20.., above the
/// serial history's), over timestamps from `ts` up. `dup` is a tid the
/// session has already seen.
fn one_of_each_violation(kind: DataKind, tid: u64, ts: u64, dup: u64) -> Vec<Transaction> {
    let t = |i: u64, sid: u32, sno: u32, s: u64, c: u64| {
        TxnBuilder::new(tid + i).session(sid, sno).interval(ts + s, ts + c)
    };
    let write = |b: TxnBuilder, k: u64, v: u64| match kind {
        DataKind::Kv => b.put(Key(k), Value(v)),
        DataKind::List => b.append(Key(k), Value(v)),
    };
    let read = |b: TxnBuilder, k: u64, v: u64| match kind {
        DataKind::Kv => b.read(Key(k), Value(v)),
        DataKind::List => b.read_list(Key(k), vec![Value(v)]),
    };
    vec![
        write(t(1, 20, 0, 1, 9), 0, 7001).build(), // NOCONFLICT with the next
        write(t(2, 21, 0, 3, 7), 0, 7002).build(),
        read(write(t(3, 22, 0, 11, 12), 1, 7003), 1, 7004).build(), // INT
        read(t(4, 23, 0, 13, 14), 2, 7999).build(),                 // EXT, once finalized
        t(5, 20, 5, 15, 16).build(),                                // SESSION: sno 5, expected 1
        t(6, 24, 0, 20, 18).build(),                                // Eq. (1): start > commit
        t(7, 25, 0, 12, 21).build(),                                // timestamp of tid + 3
        TxnBuilder::new(dup).session(26, 0).interval(ts + 22, ts + 23).build(),
    ]
}

/// Compare against (or, under `UPDATE_CORPUS`, rewrite) one golden file.
fn golden(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_CORPUS").is_some() {
        std::fs::write(&path, bytes).expect("write golden checkpoint");
    }
    let want = std::fs::read(&path).expect("read golden checkpoint");
    assert!(
        want == bytes,
        "{name}: checkpoint() wrote {} bytes that differ from the {} checked in",
        bytes.len(),
        want.len()
    );
    want
}

fn violation_variants(vs: &[Violation]) -> std::collections::BTreeSet<u8> {
    vs.iter()
        .map(|v| match v {
            Violation::Session { .. } => 0,
            Violation::Int { .. } => 1,
            Violation::Ext { .. } => 2,
            Violation::NoConflict { .. } => 3,
            Violation::TimestampOrder { .. } => 4,
            Violation::DuplicateTimestamp { .. } => 5,
            Violation::DuplicateTid { .. } => 6,
        })
        .collect()
}

/// Feed `plan`, with `extra` spliced in after arrival `at`.
fn feed_with(
    ck: &mut OnlineChecker,
    plan: &[(u64, Transaction)],
    at: usize,
    extra: &[Transaction],
) {
    for (i, (now, txn)) in plan.iter().enumerate() {
        ck.tick(*now);
        ck.feed(txn.clone(), *now);
        if i == at {
            for x in extra {
                ck.feed(x.clone(), *now);
            }
        }
    }
}

#[test]
fn golden_single_kv_checkpoint_is_byte_stable() {
    let h = serial_history(DataKind::Kv, 80, 5, 6, 0xA10);
    let plan: Vec<(u64, Transaction)> =
        session_respecting_shuffle(&h, 7).into_iter().zip(0u64..).map(|(t, i)| (i, t)).collect();
    let mut ck = OnlineChecker::builder()
        .kind(DataKind::Kv)
        .level(IsolationLevel::Si)
        .ext_timeout_ms(30)
        .build()
        .expect("open session");
    feed_with(&mut ck, &plan, 30, &one_of_each_violation(DataKind::Kv, 1000, 5000, 1));

    assert_eq!(violation_variants(&ck.report().violations).len(), 7, "every Violation variant");
    let file = golden("single_kv.ckpt", &ck.checkpoint().expect("checkpoint"));
    let mut back = OnlineChecker::restore(&file).expect("restore golden");
    assert!(
        back.checkpoint().expect("re-checkpoint") == file,
        "restore → checkpoint is the identity"
    );
    assert!(back.resident_txns() > 0);
    assert!(back.finish().flips.pairs_with_flips > 0, "the shuffle must have flipped verdicts");
}

#[test]
fn golden_single_list_mixed_gc_checkpoint_is_byte_stable() {
    let h = serial_history(DataKind::List, 120, 6, 5, 0xB20);
    let cfg = FeedConfig {
        batch_size: 6,
        batch_interval_ms: 10,
        delay_mean_ms: 20.0,
        delay_std_ms: 25.0,
        seed: 9,
    };
    let plan = feed_plan(&h, &cfg);
    let levels = LevelPolicy::per_session(
        [
            (SessionId(0), IsolationLevel::ReadCommitted),
            (SessionId(1), IsolationLevel::ReadAtomic),
            (SessionId(2), IsolationLevel::Ser),
            (SessionId(3), IsolationLevel::ReadCommitted),
        ],
        IsolationLevel::Si,
    );
    let mut ck = OnlineChecker::builder()
        .kind(DataKind::List)
        .levels(levels)
        .gc(OnlineGcPolicy::Checking { max_txns: 16 })
        .ext_timeout_ms(15)
        .build()
        .expect("open session");
    feed_with(&mut ck, &plan, 60, &one_of_each_violation(DataKind::List, 1000, 5000, 1));
    // A deep straggler: anchored below everything spilled so far, it
    // forces a reload.
    let late = plan.last().map_or(0, |(now, _)| *now);
    ck.feed(
        TxnBuilder::new(2000).session(30, 0).interval(2, 3).read_list(Key(0), vec![]).build(),
        late,
    );

    let stats = ck.stats();
    assert!(stats.gc_spills > 1 && stats.reloaded_txns > 0, "spills and a reload: {stats:?}");
    assert_eq!(violation_variants(&ck.report().violations).len(), 7, "every Violation variant");
    let file = golden("single_list_mixed_gc.ckpt", &ck.checkpoint().expect("checkpoint"));
    let mut back = OnlineChecker::restore(&file).expect("restore golden");
    assert!(
        back.checkpoint().expect("re-checkpoint") == file,
        "restore → checkpoint is the identity"
    );
    assert!(back.finish().flips.total_flips > 0);
}

#[test]
fn golden_sharded2_checkpoint_is_byte_stable() {
    let mut h = serial_history(DataKind::Kv, 120, 6, 8, 0xC30);
    let mut rng = SplitMix64::new(0xC31);
    for t in &mut h.txns {
        t.level = IsolationLevel::ALL.get(rng.below(5) as usize).copied(); // a fifth undeclared
    }
    let cfg = FeedConfig {
        batch_size: 6,
        batch_interval_ms: 10,
        delay_mean_ms: 20.0,
        delay_std_ms: 25.0,
        seed: 4,
    };
    let plan = feed_plan(&h, &cfg);
    // Workers sit on their mailboxes, so nearly all checking happens
    // inside the checkpoint's own barrier and its events are still
    // staged on the coordinator when the bytes are cut.
    let lazy = SimSchedule {
        seed: 0xC32,
        process_p: 0.05,
        deliver_p: 0.05,
        drop_tick_p: 0.5,
        stall_p: 0.1,
        stall_len: 32,
        steps_per_call: 2,
    };
    let mut ck = OnlineChecker::builder()
        .kind(DataKind::Kv)
        .levels(LevelPolicy::per_txn(IsolationLevel::Si))
        .shards(2)
        .gc(OnlineGcPolicy::Checking { max_txns: 12 })
        .ext_timeout_ms(15)
        .spill_faults(SpillFaultPlan::new(5, 0.3, 0.5))
        .build_sharded_sim(lazy)
        .expect("open sim session");
    let (head, tail) = plan.split_at(80);
    for (now, txn) in head {
        ck.tick(*now);
        ck.feed(txn.clone(), *now);
    }
    let late = plan.last().map_or(0, |(now, _)| *now);
    let mut batch: Vec<(Transaction, u64)> =
        tail.iter().map(|(now, t)| (t.clone(), *now)).collect();
    batch.extend(one_of_each_violation(DataKind::Kv, 1000, 5000, 1).into_iter().map(|t| (t, late)));
    // A justified read, then the late writer that slides in under it: the
    // one way a verdict flips ok → wrong.
    let t =
        |tid: u64, sid: u32, s: u64, c: u64| TxnBuilder::new(tid).session(sid, 0).interval(s, c);
    batch.push((t(1100, 40, 5031, 5032).put(Key(5), Value(8001)).build(), late));
    batch.push((t(1101, 41, 5041, 5042).read(Key(5), Value(8001)).build(), late));
    batch.push((t(1102, 42, 5035, 5036).put(Key(5), Value(8002)).build(), late));
    for (i, k) in (0..4u64).enumerate() {
        // Deep stragglers on both shards: reloads, some of them failing.
        let t =
            TxnBuilder::new(2000 + k).session(30 + i as u32, 0).interval(2 + 10 * k, 3 + 10 * k);
        batch.push((t.read(Key(k), Value::INIT).build(), late + 40));
    }
    ck.feed_batch(batch);

    let file = golden("sharded2.ckpt", &ck.checkpoint().expect("checkpoint"));
    let mut back = ShardedChecker::restore(&file, None).expect("restore golden");
    assert!(
        back.checkpoint().expect("re-checkpoint") == file,
        "restore → checkpoint is the identity"
    );
    let staged = back.tick(0);
    let has = |f: fn(&CheckEvent) -> bool| staged.iter().any(f);
    assert!(has(|e| matches!(e, CheckEvent::Violation(_))), "{staged:?}");
    assert!(has(|e| matches!(e, CheckEvent::VerdictFlip { rectified_after_ms: Some(_), .. })));
    assert!(has(|e| matches!(e, CheckEvent::VerdictFlip { rectified_after_ms: None, .. })));
    assert!(has(|e| matches!(e, CheckEvent::ExtFinalized { .. })));
    assert!(has(|e| matches!(e, CheckEvent::SpillPass { .. })));
    assert!(has(|e| matches!(e, CheckEvent::SpillError { op: SpillOp::Write, .. })));
    assert!(has(|e| matches!(e, CheckEvent::SpillError { op: SpillOp::Reload, .. })));
    let out = back.finish();
    assert_eq!(violation_variants(&out.report.violations).len(), 7, "every Violation variant");
    assert!(out.stats.reloaded_txns > 0, "a reload succeeded too: {:?}", out.stats);
}

/// The two modes of `ShardedChecker::restore`, which two names used to
/// carry: `None` resumes byte-identically; `Some(n)` re-partitions, also
/// when `n` is the checkpoint's own count.
#[test]
fn the_two_restore_modes_keep_their_contracts() {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sharded2.ckpt");
    let golden = std::fs::read(golden).expect("read golden checkpoint");

    let mut arrivals = serial_history(DataKind::Kv, 90, 5, 9, 0xD40).txns;
    arrivals.extend(one_of_each_violation(DataKind::Kv, 1000, 5000, 1));
    let cut = 60;
    let drive = |ck: &mut ShardedChecker, from: usize, to: usize| {
        for (i, txn) in arrivals.iter().enumerate().take(to).skip(from) {
            ck.tick(i as u64);
            ck.feed(txn.clone(), i as u64);
        }
    };
    let mut whole = OnlineChecker::builder()
        .shards(3)
        .gc(OnlineGcPolicy::Checking { max_txns: 12 })
        .ext_timeout_ms(15)
        .build_sharded()
        .expect("open session");
    drive(&mut whole, 0, cut);
    let snap = whole.checkpoint().expect("checkpoint");
    drive(&mut whole, cut, arrivals.len());
    whole.tick(u64::MAX);
    let whole = whole.finish();
    assert_eq!(violation_variants(&whole.report.violations).len(), 7, "every Violation variant");

    for bytes in [&golden, &snap] {
        let mut same = ShardedChecker::restore(bytes, None).expect("restore");
        assert!(same.checkpoint().expect("re-checkpoint") == *bytes, "None: the identity");
    }
    let mut split = ShardedChecker::restore(&snap, Some(3)).expect("re-partition");
    assert_eq!(split.num_shards(), 3);
    // Re-partitioning merges the workers' counters onto worker 0 and
    // starts every spill store afresh, so the bytes move.
    assert!(split.checkpoint().expect("checkpoint") != snap, "Some(3) of 3: not the identity");
    for mut resumed in [split, ShardedChecker::restore(&snap, None).expect("restore")] {
        drive(&mut resumed, cut, arrivals.len());
        resumed.tick(u64::MAX);
        let out = resumed.finish();
        assert_eq!(violation_set(&whole), violation_set(&out));
        assert_eq!(
            (whole.txns, whole.stats.finalized, whole.flips.total_flips),
            (out.txns, out.stats.finalized, out.flips.total_flips)
        );
    }
}

/// Three tentative reads of one key by one transaction, and five
/// concurrent writers of another key, put more items at one
/// `(key, event)` of the reader index and of the overlap index than an
/// entry holds inline. A checkpoint cut there must keep their order:
/// restore → checkpoint is the identity, and the resumed session
/// re-evaluates and reports exactly as the uninterrupted one does.
#[test]
fn crowded_index_entries_keep_their_order_across_a_checkpoint() {
    let (x, y) = (Key(1), Key(2));
    let t = |tid: u64, s: u64, c: u64| TxnBuilder::new(tid).session(tid as u32, 0).interval(s, c);
    let list = |elems: &[u64]| elems.iter().map(|e| Value(*e)).collect::<Vec<_>>();
    // The reader interleaves appends and reads of `x` over a base ([7])
    // whose writer has not arrived: three wrong-for-now reads at one anchor.
    let reader = t(10, 100, 110)
        .append(x, Value(1))
        .read_list(x, list(&[7, 1]))
        .append(x, Value(2))
        .read_list(x, list(&[7, 1, 2]))
        .append(x, Value(3))
        .read_list(x, list(&[7, 1, 2, 3]));
    let mut head = vec![reader.build()];
    head.extend((1..=4).map(|i| t(i, 50 + i, 90 + i).append(y, Value(i)).build()));
    let tail =
        [t(20, 20, 30).append(x, Value(7)).build(), t(5, 60, 99).append(y, Value(5)).build()];

    let open = || OnlineChecker::builder().kind(DataKind::List).build();
    let mut whole = open().expect("open session");
    for txn in &head {
        whole.feed(txn.clone(), 0);
    }
    let cut = whole.checkpoint().expect("checkpoint");
    let mut resumed = OnlineChecker::restore(&cut).expect("restore");
    assert!(resumed.checkpoint().expect("re-checkpoint") == cut, "restore → checkpoint");

    for txn in &tail {
        let events = whole.feed(txn.clone(), 40);
        assert_eq!(events, resumed.feed(txn.clone(), 40), "after {}", txn.tid);
        let flips = events.iter().filter(|e| matches!(e, CheckEvent::VerdictFlip { .. })).count();
        let conflicts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                CheckEvent::Violation(Violation::NoConflict { t1, .. }) => Some(t1.0),
                _ => None,
            })
            .collect();
        match txn.tid.0 {
            20 => assert_eq!(flips, 3, "the late base rectifies all three reads: {events:?}"),
            _ => assert_eq!(conflicts, [1, 2, 3, 4], "overlaps report in tid order: {events:?}"),
        }
    }
    assert!(whole.checkpoint().expect("checkpoint") == resumed.checkpoint().expect("checkpoint"));
    assert_eq!(whole.finish().report.violations, resumed.finish().report.violations);
}
