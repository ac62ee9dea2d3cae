//! Flip-flop and runtime statistics for the online checker.
//!
//! A *flip-flop* is one switch of a read's tentative EXT verdict
//! (`⊤ ↔ ⊥`) caused by out-of-order arrivals (paper §VI-C). The paper
//! reports (a) how many (txn, key) pairs flip how often, (b) how many
//! unique transactions are involved, and (c) how quickly false
//! positives/negatives are rectified. [`FlipTracker`] collects exactly
//! that; detail collection can be disabled for throughput runs.
//!
//! The aggregate [`FlipSummary`] lives in `aion_types::check` so the
//! uniform [`aion_types::Outcome`] can carry it for every checker.

use aion_types::{FlipSummary, FxHashMap, FxHashSet, Key, TxnId};

/// Collects flip-flop events.
///
/// Fields are `pub(crate)` for the checkpoint codec ([`crate::snapshot`]),
/// which persists the tracker verbatim so a restored session's flip
/// statistics continue exactly where the interrupted run left off.
#[derive(Debug, Default)]
pub(crate) struct FlipTracker {
    pub(crate) detail: bool,
    pub(crate) total_flips: u64,
    pub(crate) flips_per_pair: FxHashMap<(TxnId, Key), u32>,
    pub(crate) txns_with_flips: FxHashSet<TxnId>,
    pub(crate) rectify_ms: Vec<u64>,
}

impl FlipTracker {
    /// A tracker; with `detail`, per-pair histograms and rectification
    /// latencies are retained (memory ∝ number of flipping pairs).
    pub(crate) fn new(detail: bool) -> FlipTracker {
        FlipTracker { detail, ..FlipTracker::default() }
    }

    /// Record one verdict switch for `(tid, key)`. `rectified_after_ms` is
    /// set when the switch is wrong→ok, giving the false-verdict duration.
    pub(crate) fn record_flip(&mut self, tid: TxnId, key: Key, rectified_after_ms: Option<u64>) {
        self.total_flips += 1;
        if self.detail {
            *self.flips_per_pair.entry((tid, key)).or_insert(0) += 1;
            self.txns_with_flips.insert(tid);
            if let Some(ms) = rectified_after_ms {
                self.rectify_ms.push(ms);
            }
        }
    }

    /// Summarize into histogram form.
    pub(crate) fn summary(&self) -> FlipSummary {
        let mut flip_histogram = [0usize; 4];
        #[expect(
            clippy::iter_over_hash_type,
            reason = "order-insensitive histogram fold; each value lands in its bucket regardless of visit order"
        )]
        for &n in self.flips_per_pair.values() {
            // Buckets are 1, 2, 3 and 4+ flips. A pair only enters the
            // map by flipping and restore rejects a zero count, but the
            // arithmetic is total anyway: a summary must never abort.
            let bucket = (n.clamp(1, 4) - 1) as usize;
            if let Some(slot) = flip_histogram.get_mut(bucket) {
                *slot += 1;
            }
        }
        FlipSummary {
            total_flips: self.total_flips,
            pairs_with_flips: self.flips_per_pair.len(),
            txns_with_flips: self.txns_with_flips.len(),
            flip_histogram,
            rectify_ms: self.rectify_ms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_and_buckets() {
        let mut t = FlipTracker::new(true);
        t.record_flip(TxnId(1), Key(1), None); // wrong
        t.record_flip(TxnId(1), Key(1), Some(5)); // rectified after 5ms
        t.record_flip(TxnId(2), Key(3), None);
        let s = t.summary();
        assert_eq!(s.total_flips, 3);
        assert_eq!(s.pairs_with_flips, 2);
        assert_eq!(s.txns_with_flips, 2);
        assert_eq!(s.flip_histogram, [1, 1, 0, 0]); // one pair flipped once, one twice
        assert_eq!(s.rectify_ms, vec![5]);
    }

    #[test]
    fn histogram_caps_at_four_plus() {
        let mut t = FlipTracker::new(true);
        for _ in 0..7 {
            t.record_flip(TxnId(1), Key(1), None);
        }
        assert_eq!(t.summary().flip_histogram, [0, 0, 0, 1]);
    }

    #[test]
    fn zero_count_cannot_underflow_the_bucket() {
        let mut t = FlipTracker::new(true);
        t.flips_per_pair.insert((TxnId(1), Key(1)), 0);
        assert_eq!(t.summary().flip_histogram, [1, 0, 0, 0]);
    }

    #[test]
    fn detail_off_keeps_only_totals() {
        let mut t = FlipTracker::new(false);
        t.record_flip(TxnId(1), Key(1), Some(3));
        let s = t.summary();
        assert_eq!(s.total_flips, 1);
        assert_eq!(s.pairs_with_flips, 0);
        assert!(s.rectify_ms.is_empty());
    }

    #[test]
    fn rectify_buckets_match_figure13() {
        let s = FlipSummary {
            rectify_ms: vec![0, 1, 2, 5, 10, 50, 99, 100, 1500],
            ..FlipSummary::default()
        };
        assert_eq!(s.rectify_histogram(), [2, 1, 2, 2, 2]);
    }
}
