//! Rules that corrupt the collection rather than the execution:
//! duplicate transaction ids and broken session order.

use aion_types::History;

use super::catalog::Catalog;

/// Duplicate transaction id: stamp victim `j` with the id of a uniformly
/// drawn earlier transaction, as a buggy collector assigning ids
/// non-uniquely would. INTEGRITY at every level.
pub(super) fn duplicate_tid(h: &mut History, cat: &mut Catalog, j: usize) -> bool {
    let donor = cat.rng.below(j as u64) as usize;
    h.txns[j].tid = h.txns[donor].tid;
    true
}

/// Session break: swap the sequence numbers of victim pair `k` — two
/// adjacent transactions of one session — as a collector that breaks
/// session order would (SESSION at every level). The pair's later member
/// leads the session's next pair, which is settled: swapping it again
/// would partly undo this break.
pub(super) fn session_break(h: &mut History, cat: &mut Catalog, k: usize) -> bool {
    let (a, b) = cat.session_pairs[k];
    let sno_a = h.txns[a].sno;
    h.txns[a].sno = h.txns[b].sno;
    h.txns[b].sno = sno_a;
    if cat.session_pairs.get(k + 1).is_some_and(|&(next, _)| next == b) {
        cat.settled.insert(k + 1);
    }
    true
}
