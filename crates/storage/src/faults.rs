//! Fault injection: producing histories that *violate* isolation.
//!
//! §V-D of the paper reproduces a clock-skew bug and injects
//! timestamp-related faults to show that CHRONOS detects violations that
//! non-timestamp-based tools miss. Two complementary mechanisms are
//! provided:
//!
//! * **engine faults** ([`FaultPlan`]): the MVCC store misbehaves while
//!   running — skipping first-committer-wins checks (lost updates), reading
//!   stale snapshots, or dropping its own write buffer from the read view
//!   (INT anomalies);
//! * **history faults** ([`inject_clock_skew`], [`inject_session_break`]):
//!   post-hoc perturbation of the *recorded* timestamps or session
//!   metadata, modelling collection-side bugs such as skewed clocks.

use aion_types::{FxHashSet, History, Timestamp};

pub use aion_types::rng::SplitMix64;

/// Probabilistic engine-side fault configuration for [`crate::MvccStore`].
///
/// All rates are probabilities in `[0, 1]`; the default plan injects
/// nothing. Faults are sampled deterministically from `seed` and the
/// transaction id, so a given (seed, workload) pair always yields the same
/// violating history.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Probability that a committing transaction skips the
    /// first-committer-wins conflict check (→ NOCONFLICT violations).
    pub lost_update_rate: f64,
    /// Probability that an external read observes the *previous* version
    /// instead of the latest visible one (→ EXT violations).
    pub stale_read_rate: f64,
    /// Probability that a read ignores the transaction's own write buffer
    /// (→ INT violations).
    pub int_anomaly_rate: f64,
    /// RNG seed for deterministic sampling.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { lost_update_rate: 0.0, stale_read_rate: 0.0, int_anomaly_rate: 0.0, seed: 0 }
    }
}

impl FaultPlan {
    /// True when any fault rate is non-zero.
    pub fn is_active(&self) -> bool {
        self.lost_update_rate > 0.0 || self.stale_read_rate > 0.0 || self.int_anomaly_rate > 0.0
    }
}

/// Which recorded timestamp [`inject_clock_skew_at`] perturbs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SkewTarget {
    /// Shift `start_ts` backwards: the history claims an earlier snapshot
    /// than the engine actually used, so reads appear to observe values
    /// "from the future" (EXT violations under SI).
    Start,
    /// Shift `commit_ts` backwards: the recorded commit order disagrees
    /// with the true publication order, so later readers appear to have
    /// missed a committed write (commit-order EXT anomalies — the paper's
    /// actual YugabyteDB clock-skew scenario, visible under SER).
    Commit,
}

/// Shift the *recorded* timestamps of a fraction of transactions backwards
/// in time, modelling skewed clocks at collection: the engine executed
/// correctly against the true timestamps, but the recorded history lies.
///
/// `rate` is the fraction of transactions perturbed; `magnitude` is the
/// maximum backwards shift in timestamp units. Perturbed timestamps are
/// kept unique (shifts that would collide are skipped) and well-formed
/// (`start_ts ≤ commit_ts` is preserved, so a [`SkewTarget::Commit`] shift
/// never descends below the transaction's start). Returns the number of
/// transactions perturbed.
pub fn inject_clock_skew_at(
    h: &mut History,
    target: SkewTarget,
    rate: f64,
    magnitude: u64,
    seed: u64,
) -> usize {
    let mut rng = SplitMix64::new(seed ^ 0xc10c);
    let mut used: FxHashSet<Timestamp> = FxHashSet::default();
    for t in &h.txns {
        used.insert(t.start_ts);
        used.insert(t.commit_ts);
    }
    let mut perturbed = 0;
    for t in &mut h.txns {
        if !rng.chance(rate) || magnitude == 0 {
            continue;
        }
        let shift = 1 + rng.below(magnitude);
        let (old_ts, floor) = match target {
            SkewTarget::Start => (t.start_ts, Timestamp(1)),
            // A commit may not descend below its own start (Eq. 1). A
            // read-only transaction with start == commit has no room and
            // is skipped by the `new_ts >= old_ts` test below.
            SkewTarget::Commit => (t.commit_ts, Timestamp(t.start_ts.get().max(1))),
        };
        let Some(new_raw) = old_ts.get().checked_sub(shift) else { continue };
        let new_ts = Timestamp(new_raw.max(floor.get()));
        if new_ts >= old_ts || used.contains(&new_ts) {
            continue;
        }
        // Only vacate the old value when the *other* timestamp of this
        // transaction does not share it (read-only transactions may have
        // start == commit; freeing that value would let a later shift
        // collide with the still-recorded twin).
        let twin = match target {
            SkewTarget::Start => t.commit_ts,
            SkewTarget::Commit => t.start_ts,
        };
        if twin != old_ts {
            used.remove(&old_ts);
        }
        used.insert(new_ts);
        match target {
            SkewTarget::Start => t.start_ts = new_ts,
            SkewTarget::Commit => t.commit_ts = new_ts,
        }
        perturbed += 1;
    }
    perturbed
}

/// [`inject_clock_skew_at`] over the start timestamps — the signature of
/// snapshot-side clock skew (EXT violations under SI, invisible under
/// SER's commit-order anchoring).
pub fn inject_clock_skew(h: &mut History, rate: f64, magnitude: u64, seed: u64) -> usize {
    inject_clock_skew_at(h, SkewTarget::Start, rate, magnitude, seed)
}

/// Swap the session sequence numbers of adjacent transaction pairs within
/// sessions, modelling a collector that breaks session order
/// (→ SESSION violations). Candidate pairs slide over every adjacent
/// position — `(0,1), (1,2), …` — so the trailing transaction of an
/// odd-length session is eligible too; after a swap the window advances
/// past both members so no transaction is swapped twice (which would undo
/// the break). Returns the number of swaps performed.
pub fn inject_session_break(h: &mut History, rate: f64, seed: u64) -> usize {
    let mut rng = SplitMix64::new(seed ^ 0x5e55);
    let mut sessions: Vec<_> = h.sessions().into_iter().collect();
    sessions.sort_unstable_by_key(|(sid, _)| *sid);
    let mut swaps = 0;
    for (_, idxs) in sessions {
        let mut i = 0;
        while i + 1 < idxs.len() {
            if rng.chance(rate) {
                let (a, b) = (idxs[i], idxs[i + 1]);
                let sno_a = h.txns[a].sno;
                let sno_b = h.txns[b].sno;
                h.txns[a].sno = sno_b;
                h.txns[b].sno = sno_a;
                swaps += 1;
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{DataKind, Key, TxnBuilder, Value};

    fn sample_history(n: u64) -> History {
        let mut h = History::new(DataKind::Kv);
        for i in 0..n {
            h.push(
                TxnBuilder::new(i + 1)
                    .session((i % 4) as u32, (i / 4) as u32)
                    .interval(1000 + i * 100, 1000 + i * 100 + 50)
                    .put(Key(i % 8), Value(i + 1))
                    .build(),
            );
        }
        h
    }

    #[test]
    fn clock_skew_preserves_uniqueness() {
        let mut h = sample_history(50);
        let n = inject_clock_skew(&mut h, 0.5, 500, 1);
        assert!(n > 0, "should perturb something");
        assert!(h.integrity_issues().is_empty(), "timestamps must stay unique");
    }

    #[test]
    fn clock_skew_zero_rate_is_noop() {
        let mut h = sample_history(20);
        let orig = h.clone();
        assert_eq!(inject_clock_skew(&mut h, 0.0, 500, 1), 0);
        assert_eq!(h, orig);
    }

    #[test]
    fn session_break_swaps_snos() {
        let mut h = sample_history(40);
        let swaps = inject_session_break(&mut h, 1.0, 2);
        assert!(swaps > 0);
        // Sequence numbers inside a session are now out of order somewhere.
        assert!(!h.integrity_issues().is_empty());
    }

    #[test]
    fn session_break_reaches_trailing_pair_of_odd_sessions() {
        // One session of length 3: under the old `chunks_exact(2)`
        // iteration only (0,1) was ever eligible; the sliding window must
        // be able to perturb the trailing (1,2) pair too.
        let mut seen_trailing_swap = false;
        for seed in 0..64u64 {
            let mut h = History::new(DataKind::Kv);
            for i in 0..3u64 {
                h.push(
                    TxnBuilder::new(i + 1)
                        .session(0, i as u32)
                        .interval(10 + i * 10, 15 + i * 10)
                        .put(Key(i), Value(i + 1))
                        .build(),
                );
            }
            inject_session_break(&mut h, 0.5, seed);
            if h.txns[2].sno != 2 {
                seen_trailing_swap = true;
                break;
            }
        }
        assert!(seen_trailing_swap, "the trailing transaction must be perturbable");
    }

    #[test]
    fn session_break_never_swaps_a_txn_twice() {
        // At rate 1.0 every *disjoint* adjacent pair swaps exactly once:
        // chained swaps (which would partially undo the break) must not
        // happen, so the resulting sno multiset stays a permutation with
        // every element displaced by at most one position.
        let mut h = sample_history(40);
        inject_session_break(&mut h, 1.0, 3);
        for (_, idxs) in h.sessions() {
            // `sessions()` sorts by (possibly swapped) sno; displacement
            // bound: position in collection order differs by <= 1.
            let mut by_collection: Vec<usize> = idxs.clone();
            by_collection.sort_unstable();
            for (pos, &i) in idxs.iter().enumerate() {
                let orig = by_collection.iter().position(|&j| j == i).unwrap();
                assert!(pos.abs_diff(orig) <= 1, "txn displaced more than one slot");
            }
        }
    }

    #[test]
    fn commit_skew_preserves_eq1_and_uniqueness() {
        let mut h = sample_history(50);
        let n = inject_clock_skew_at(&mut h, SkewTarget::Commit, 0.6, 40, 5);
        assert!(n > 0, "should perturb something");
        for t in &h.txns {
            assert!(t.start_ts <= t.commit_ts, "Eq. (1) must be preserved");
        }
        let mut ts: Vec<Timestamp> = Vec::new();
        for t in &h.txns {
            ts.push(t.start_ts);
            if t.commit_ts != t.start_ts {
                ts.push(t.commit_ts);
            }
        }
        let len = ts.len();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts.len(), len, "timestamps must stay unique");
    }

    #[test]
    fn commit_skew_skips_read_only_transactions() {
        // start == commit leaves no room below the floor; such
        // transactions must be skipped, not malformed.
        let mut h = History::new(DataKind::Kv);
        for i in 0..10u64 {
            h.push(
                TxnBuilder::new(i + 1)
                    .session(0, i as u32)
                    .interval(100 + i, 100 + i) // read-only style interval
                    .read(Key(0), Value::INIT)
                    .build(),
            );
        }
        assert_eq!(inject_clock_skew_at(&mut h, SkewTarget::Commit, 1.0, 50, 1), 0);
        assert!(h.integrity_issues().is_empty());
    }

    #[test]
    fn default_plan_inactive() {
        assert!(!FaultPlan::default().is_active());
        let active = FaultPlan { lost_update_rate: 0.1, ..FaultPlan::default() };
        assert!(active.is_active());
    }
}
