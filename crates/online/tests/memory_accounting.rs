//! The resident-byte accounting invariant: `estimated_memory_bytes()` is
//! a sum of maintained counters, and after *every* `feed` and `tick` it
//! must equal `recount_memory_bytes()` — the full walk over resident
//! transactions, reader/writer chains, membership values and spill
//! buffers that the estimate used to be.
//!
//! Covered: out-of-order arrival plans at all four levels and under a
//! per-transaction mixed policy, kv and list histories (list cascades
//! withdraw and revise published versions), `OnlineGcPolicy::Checking`
//! with in-memory and on-disk spill including straggler reloads, and
//! `checkpoint` → `restore` at an arbitrary arrival boundary.
//!
//! The oracle only exists where debug assertions do, hence the gate.
#![cfg(debug_assertions)]

use aion_online::{feed_plan, Arrival, FeedConfig, OnlineChecker, OnlineGcPolicy};
use aion_types::{Checker, CheckerStats, DataKind, IsolationLevel, LevelPolicy};
use aion_workload::{generate_history, KeyDist, LevelMix, WorkloadSpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const POLICIES: usize = 5;

/// The four uniform levels, then the per-transaction mixed policy.
fn policy(idx: usize) -> LevelPolicy {
    match idx {
        0 => LevelPolicy::Uniform(IsolationLevel::ReadCommitted),
        1 => LevelPolicy::Uniform(IsolationLevel::ReadAtomic),
        2 => LevelPolicy::Uniform(IsolationLevel::Si),
        3 => LevelPolicy::Uniform(IsolationLevel::Ser),
        _ => LevelPolicy::per_txn(IsolationLevel::Si),
    }
}

#[derive(Clone, Copy, Debug)]
enum Gc {
    Off,
    Memory(usize),
    Disk(usize),
}

/// An out-of-order plan: small dispatch batches and a delay spread wide
/// enough that some transactions arrive after later ones were finalized
/// and spilled (the deep stragglers that force a reload).
fn plan(spec: &WorkloadSpec, policy_idx: usize, seed: u64) -> (DataKind, Vec<Arrival>) {
    let mut h = generate_history(spec, IsolationLevel::Si);
    if policy_idx == POLICIES - 1 {
        LevelMix::per_txn(1.0, 1.0, 1.0, 1.0).stamp(&mut h, seed);
    }
    let cfg = FeedConfig {
        batch_size: 8,
        batch_interval_ms: 10,
        delay_mean_ms: 40.0,
        delay_std_ms: 60.0,
        seed,
    };
    (h.kind, feed_plan(&h, &cfg))
}

/// A spill directory of the calling test's own (tests run in parallel).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aion-mem-acct-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn open(kind: DataKind, levels: LevelPolicy, gc: Gc, dir: &Path) -> OnlineChecker {
    let b = OnlineChecker::builder().kind(kind).levels(levels).ext_timeout_ms(15);
    let b = match gc {
        Gc::Off => b,
        Gc::Memory(max_txns) => b.gc(OnlineGcPolicy::Checking { max_txns }),
        Gc::Disk(max_txns) => {
            b.gc(OnlineGcPolicy::Checking { max_txns }).spill_path(dir.join("live.spill"))
        }
    };
    b.build().expect("open session")
}

fn exact(ck: &OnlineChecker, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        ck.estimated_memory_bytes(),
        ck.recount_memory_bytes(),
        "counter drifted from the recount {}",
        at
    );
    Ok(())
}

/// Drive `plan` through a fresh checker, checkpointing and restoring at
/// arrival boundary `cut`, asserting counter ≡ oracle after every call.
fn drive(
    kind: DataKind,
    levels: LevelPolicy,
    gc: Gc,
    plan: &[Arrival],
    cut: usize,
    dir: &Path,
) -> Result<CheckerStats, TestCaseError> {
    let mut ck = open(kind, levels, gc, dir);
    exact(&ck, "when fresh")?;
    for (i, (at, txn)) in plan.iter().enumerate() {
        if i == cut {
            let before = ck.estimated_memory_bytes();
            let snap = ck.checkpoint().expect("checkpoint");
            // Restore next to the live spill file, never over it.
            let spill = match gc {
                Gc::Disk(_) => Some(dir.join("restored.spill")),
                _ => None,
            };
            ck = OnlineChecker::restore_into(&snap, spill).expect("restore");
            exact(&ck, "after restore")?;
            prop_assert_eq!(ck.estimated_memory_bytes(), before, "restore changed the estimate");
        }
        ck.tick(*at);
        exact(&ck, &format!("after tick {i}"))?;
        ck.feed(txn.clone(), *at);
        exact(&ck, &format!("after feed {i}"))?;
    }
    ck.tick(u64::MAX);
    exact(&ck, "after the final drain")?;
    Ok(ck.stats())
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (40usize..120, 2usize..8, 1usize..6, 0.0f64..1.0, 2u64..30, 0u64..500, any::<bool>()).prop_map(
        |(txns, sessions, ops, reads, keys, seed, list)| {
            WorkloadSpec::default()
                .with_txns(txns)
                .with_sessions(sessions)
                .with_ops_per_txn(ops)
                .with_read_ratio(reads)
                .with_keys(keys)
                .with_seed(seed)
                .with_dist(KeyDist::Uniform)
                .with_kind(if list { DataKind::List } else { DataKind::Kv })
        },
    )
}

fn arb_gc() -> impl Strategy<Value = Gc> {
    prop_oneof![Just(Gc::Off), (4usize..24).prop_map(Gc::Memory), (4usize..24).prop_map(Gc::Disk)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counter_equals_recount_after_every_call(
        spec in arb_spec(),
        policy_idx in 0usize..POLICIES,
        gc in arb_gc(),
        plan_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let (kind, plan) = plan(&spec, policy_idx, plan_seed);
        let cut = (cut_frac * plan.len() as f64) as usize;
        let dir = scratch("prop");
        let held = drive(kind, policy(policy_idx), gc, &plan, cut, &dir);
        std::fs::remove_dir_all(&dir).ok();
        held?;
    }
}

/// The property above only means something if its cases reach the
/// states the counters are adjusted in. A fixed sweep over every policy
/// × data kind × spill backend must spill, reload stragglers and (for
/// lists) be fed out of order — and hold the invariant throughout.
#[test]
fn sweep_reaches_spills_reloads_and_restores() {
    let dir = scratch("sweep");
    let mut spilled = 0;
    let mut reloaded = 0;
    for policy_idx in 0..POLICIES {
        for kind in [DataKind::Kv, DataKind::List] {
            for gc in [Gc::Memory(12), Gc::Disk(12)] {
                let spec = WorkloadSpec::default()
                    .with_txns(160)
                    .with_sessions(6)
                    .with_ops_per_txn(4)
                    .with_read_ratio(0.4)
                    .with_keys(12)
                    .with_seed(7 + policy_idx as u64)
                    .with_dist(KeyDist::Uniform)
                    .with_kind(kind);
                let (kind, plan) = plan(&spec, policy_idx, 3);
                let in_order = plan.windows(2).all(|w| w[0].1.commit_ts <= w[1].1.commit_ts);
                assert!(!in_order, "the plan must deliver transactions out of commit order");
                let stats = drive(kind, policy(policy_idx), gc, &plan, plan.len() / 2, &dir)
                    .unwrap_or_else(|e| panic!("policy {policy_idx} {kind:?} {gc:?}: {e:?}"));
                spilled += stats.spilled_txns;
                reloaded += stats.reloaded_txns;
            }
        }
    }
    assert!(spilled > 0, "no case spilled: the GC sites were never exercised");
    assert!(reloaded > 0, "no case reloaded a straggler: the reload site was never exercised");
    std::fs::remove_dir_all(&dir).ok();
}

/// The estimate is what the daemon's admission control decides on, so a
/// change to how the indexes are laid out must not move it: pinned to
/// what the one-`Vec`-per-entry indexes reported for this history, less
/// the 40 bytes per writer entry a key-value session no longer keeps
/// (step ③ reads the writer index for lists only). A reload now consumes
/// its spill segment, so the estimate also lost what the store kept of
/// the segments this history's stragglers reloaded: their bytes with a
/// 48-byte record each (7 557, 70 908 and 250 007 at the three samples),
/// and 16 of the 48 record bytes of each segment still held. The
/// admission tables (one tid and up to two timestamps per transaction,
/// two entries per session) are counted too: 6 192, 12 192 and 18 192
/// bytes at the three samples.
#[test]
fn estimate_for_a_fixed_history_does_not_move() {
    let spec = WorkloadSpec::default()
        .with_txns(400)
        .with_sessions(6)
        .with_ops_per_txn(8)
        .with_keys(64)
        .with_seed(11);
    let (kind, plan) = plan(&spec, 2, 5);
    let mut ck = open(kind, policy(2), Gc::Memory(40), Path::new(""));
    let mut estimates = Vec::new();
    for (i, (at, txn)) in plan.iter().enumerate() {
        ck.tick(*at);
        ck.feed(txn.clone(), *at);
        if (i + 1) % 100 == 0 {
            estimates.push(ck.estimated_memory_bytes());
        }
    }
    assert!(ck.stats().spilled_txns > 0 && ck.stats().reevaluations > 0, "{:?}", ck.stats());
    assert!(ck.stats().reloaded_txns > 0, "{:?}", ck.stats());
    assert_eq!(estimates, [88_519, 167_622, 115_996], "after each hundred arrivals");
}

/// Checking GC must not end up holding more than no GC. A reload
/// consumes its spill segment, so the store, and a checkpoint of it,
/// carries each spilled transaction once. When reloaded segments stayed
/// behind, a straggler-heavy feed like this one re-spilled the same
/// transactions over and over and its GC checkpoint grew to three times
/// the GC-off one.
#[test]
fn a_gc_checkpoint_is_no_larger_than_without_gc() {
    let spec = WorkloadSpec::default()
        .with_txns(2_000)
        .with_sessions(16)
        .with_ops_per_txn(8)
        .with_keys(4_096)
        .with_dist(KeyDist::Zipfian)
        .with_ts_stride(4)
        .with_seed(7);
    let h = generate_history(&spec, IsolationLevel::Si);
    let feed = FeedConfig {
        batch_size: 100,
        batch_interval_ms: 5,
        delay_mean_ms: 10.0,
        delay_std_ms: 40.0,
        seed: 7,
    };
    let plan = feed_plan(&h, &feed);
    let run = |gc: OnlineGcPolicy| {
        let mut ck = OnlineChecker::builder()
            .level(IsolationLevel::Si)
            .ext_timeout_ms(20)
            .gc(gc)
            .build()
            .expect("open session");
        for (at, txn) in &plan {
            ck.feed(txn.clone(), *at);
        }
        ck.tick(u64::MAX);
        let checkpoint = ck.checkpoint().expect("checkpoint").len();
        let outcome = ck.finish();
        let mut violations: Vec<String> =
            outcome.report.violations.iter().map(|v| format!("{v:?}")).collect();
        violations.sort_unstable();
        (violations, checkpoint, outcome.stats)
    };
    let (without, plain_bytes, _) = run(OnlineGcPolicy::None);
    let (with, gc_bytes, stats) = run(OnlineGcPolicy::Checking { max_txns: 200 });
    assert!(stats.reloaded_txns > 0, "the feed must reload stragglers: {stats:?}");
    assert_eq!(with, without, "GC must not move a violation");
    assert!(
        gc_bytes <= plain_bytes,
        "the GC checkpoint ({gc_bytes} B) outgrew the GC-off one ({plain_bytes} B): {stats:?}"
    );
}
