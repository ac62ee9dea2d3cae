//! Flip-flop statistics for the online checker.
//!
//! A *flip-flop* is one switch of a read's tentative EXT verdict
//! (`⊤ ↔ ⊥`) caused by out-of-order arrivals (paper §VI-C). The paper
//! reports (a) how many (txn, key) pairs flip how often, (b) how many
//! unique transactions are involved, and (c) how quickly false
//! positives/negatives are rectified. [`FlipTracker`] counts exactly
//! that, always on and in fixed space: per-pair history travels with
//! the reads (`ReadState::flips`).
//!
//! The aggregate [`FlipSummary`] lives in `aion_types::check` so the
//! uniform [`aion_types::Outcome`] can carry it for every checker.

use aion_types::FlipSummary;

/// Flip-flop counters, bumped as each flip happens: the outcome's
/// [`FlipSummary`] itself. `pub(crate)` for `finish`, the checkpoint
/// codec ([`crate::snapshot`]) and re-sharding, which carry the counters
/// verbatim so a restored session's flip statistics continue exactly
/// where the interrupted run left off.
#[derive(Debug, Default)]
pub(crate) struct FlipTracker(pub(crate) FlipSummary);

impl FlipTracker {
    /// Count one verdict switch of a read. `pair_before` is how often
    /// the read's (txn, key) pair had flipped before this switch,
    /// `first_of_txn` whether this is the transaction's first flip, and
    /// `rectified_after_ms` is set when the switch is wrong→ok, giving
    /// the false-verdict duration.
    pub(crate) fn record_flip(
        &mut self,
        pair_before: usize,
        first_of_txn: bool,
        rectified_after_ms: Option<u64>,
    ) {
        let s = &mut self.0;
        s.total_flips = s.total_flips.saturating_add(1);
        if pair_before == 0 {
            s.pairs_with_flips = s.pairs_with_flips.saturating_add(1);
        }
        if first_of_txn {
            s.txns_with_flips = s.txns_with_flips.saturating_add(1);
        }
        // The pair moves up one bucket (1, 2, 3, 4+ flips); 4+ absorbs.
        // The decrement wraps: see `FlipSummary::absorb_shard`.
        if pair_before < 4 {
            let h = &mut s.flip_histogram;
            if let Some(from) = pair_before.checked_sub(1).and_then(|b| h.get_mut(b)) {
                *from = from.wrapping_sub(1);
            }
            if let Some(to) = h.get_mut(pair_before) {
                *to = to.wrapping_add(1);
            }
        }
        if let Some(slot) =
            rectified_after_ms.and_then(|ms| s.rectify_histogram.get_mut(rectify_bucket(ms)))
        {
            *slot = slot.saturating_add(1);
        }
    }
}

/// Fig. 13b's rectification bucket for a false verdict that lasted `ms`:
/// `0–1`, `1–2`, `2–10`, `10–99`, `≥100` ms.
fn rectify_bucket(ms: u64) -> usize {
    match ms {
        0..=1 => 0,
        2 => 1,
        3..=10 => 2,
        11..=99 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_and_buckets() {
        let mut t = FlipTracker::default();
        t.record_flip(0, true, None); // txn 1, key 1: wrong
        t.record_flip(1, false, Some(5)); // rectified after 5ms
        t.record_flip(0, true, None); // txn 2, key 3
        let s = t.0;
        assert_eq!(s.total_flips, 3);
        assert_eq!(s.pairs_with_flips, 2);
        assert_eq!(s.txns_with_flips, 2);
        assert_eq!(s.flip_histogram, [1, 1, 0, 0]); // one pair flipped once, one twice
        assert_eq!(s.rectify_histogram, [0, 0, 1, 0, 0]);
    }

    #[test]
    fn histogram_caps_at_four_plus() {
        let mut t = FlipTracker::default();
        for before in 0..7 {
            t.record_flip(before, before == 0, None);
        }
        assert_eq!(t.0.flip_histogram, [0, 0, 0, 1]);
        assert_eq!(t.0.pairs_with_flips, 1);
    }

    /// A pair's count can reach the tracker with no bucket to leave —
    /// a restored or re-sharded read — and a saturated counter can meet
    /// another flip; neither may abort, and the histogram still sums.
    #[test]
    fn zero_count_cannot_underflow_the_bucket() {
        let mut t = FlipTracker::default();
        t.record_flip(1, false, None);
        t.record_flip(usize::MAX, false, Some(u64::MAX));
        t.0.total_flips = u64::MAX;
        t.record_flip(0, true, Some(0));
        let s = t.0;
        assert_eq!(s.total_flips, u64::MAX);
        assert_eq!(s.flip_histogram, [0, 1, 0, 0]);
        assert_eq!(s.rectify_histogram, [1, 0, 0, 0, 1]);
    }

    /// Nothing is opt-in any more: a switch from wrong to ok always
    /// lands in the rectification histogram, and a switch to wrong in
    /// none of its buckets.
    #[test]
    fn detail_off_keeps_only_totals() {
        let mut t = FlipTracker::default();
        t.record_flip(0, true, None);
        let s = t.0;
        assert_eq!(s.total_flips, 1);
        assert_eq!(s.pairs_with_flips, 1);
        assert_eq!(s.rectify_histogram, [0; 5]);
        t.record_flip(1, false, Some(3));
        assert_eq!(t.0.rectify_histogram, [0, 0, 1, 0, 0]);
    }

    #[test]
    fn rectify_buckets_match_figure13() {
        let mut t = FlipTracker::default();
        for ms in [0, 1, 2, 5, 10, 50, 99, 100, 1500] {
            t.record_flip(1, false, Some(ms));
        }
        assert_eq!(t.0.rectify_histogram, [2, 1, 2, 2, 2]);
    }
}
