//! Rules that re-stamp recorded timestamps — G0, lost update, write skew,
//! duplicate timestamp and the two clock skews. A moved timestamp is one
//! the [`Catalog`] reserved (unique) above the session predecessor's
//! commit (SESSION holds), so the history stays integrity-clean except
//! where the class is an integrity break.

use std::cmp::Reverse;

use aion_types::{FxHashSet, History, Key, Mutation, Op, Snapshot, Timestamp, Value};

use super::catalog::{external_reads, first_put, lone_scalar_reads, Catalog};

/// G0: make a writer concurrent with the previous committed writer of
/// one of its keys by pulling its recorded `start_ts` below that
/// writer's commit. Values are untouched, so value-based checkers see
/// nothing; under SER, RA and RC (which never check overlaps) the
/// history still passes; under SI the overlapping writer pair is
/// exactly NOCONFLICT. A frontier-stability side condition guards the
/// move: every key the transaction reads externally must have no
/// foreign version committed across the widened interval, so no read
/// expectation changes — the *only* planted fact is the overlap, which
/// is what lets the weaker levels guarantee `Accept` rather than
/// tolerating EXT noise.
pub(super) fn dirty_write(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let t = &h.txns[i];
    let Some(key) = first_put(t) else { return false };
    let Some((w_commit, w, _)) = cat.latest_before(key, t.start_ts) else { return false };
    debug_assert_ne!(w, i, "a version below start_ts is by another txn");
    let reads = external_reads(t).map(|(_, k, _)| k);
    if !cat.frontier_stable(reads, i, w_commit, t.start_ts) {
        return false;
    }
    let Some(new_start) = cat.reserve_below(w_commit, cat.pred_commit[i]) else { return false };
    cat.move_start(h, i, new_start);
    true
}

/// Lost update: take a read-modify-write transaction, pull its recorded
/// snapshot below the previous writer's commit, and re-anchor every
/// external read to that earlier snapshot. Both writers are now
/// concurrent writers of the key and the read observes the clobbered
/// pre-image: NOCONFLICT under SI (the stale read itself is
/// snapshot-consistent), EXT under SER (the read misses the earlier
/// committer at its commit anchor).
pub(super) fn lost_update(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let t = &h.txns[i];
    // A key the transaction reads before writing it and puts later.
    let puts = |key: Key| {
        t.ops
            .iter()
            .any(|op| matches!(op, Op::Write { key: k, mutation: Mutation::Put(_) } if *k == key))
    };
    let Some((_, key, _)) =
        external_reads(t).find(|&(_, k, s)| matches!(s, Snapshot::Scalar(_)) && puts(k))
    else {
        return false;
    };
    let Some((w_commit, w, _)) = cat.latest_before(key, t.start_ts) else { return false };
    // The classic shape: the clobbered writer read the same base version
    // (it is an r-m-w too). This is what makes the lost update
    // observable to value-based checkers — two read-modify-writes
    // forking from one version.
    if w == i || !external_reads(&h.txns[w]).any(|(_, k, _)| k == key) {
        return false;
    }
    // The forked snapshot must stay inside the clobbered writer's
    // execution (above its start): both r-m-ws then read the same base
    // version, the shape value-based checkers recognize.
    let floor = cat.pred_commit[i].max(Timestamp(h.txns[w].start_ts.get() + 1));
    let Some(new_start) = cat.reserve_below(w_commit, floor) else { return false };
    cat.move_start(h, i, new_start);
    // Re-point every external scalar read at the moved snapshot's
    // frontier, keeping the transaction snapshot-consistent. Reads after
    // an own write are chain-rooted (the put erases the base).
    let stale: Vec<(usize, Key)> = external_reads(&h.txns[i])
        .filter(|(_, _, s)| matches!(s, Snapshot::Scalar(_)))
        .map(|(op, k, _)| (op, k))
        .collect();
    for (op, key) in stale {
        h.txns[i].ops[op] = Op::read(key, cat.value_at(key, new_start));
    }
    true
}

/// Write skew: pick a writer `V`, find an earlier committed writer `U`
/// of a disjoint key, make them concurrent (pull `V`'s snapshot below
/// `U`'s commit), and give each a read of the other's write key as of
/// its own snapshot. The snapshot move is constrained so that *no key
/// V touches* changes its frontier across the widened interval: every
/// existing read stays justified untouched, the write sets stay
/// disjoint, and the only new facts are the two appended
/// snapshot-consistent reads. SI must therefore accept; under SER the
/// later committer's read misses the earlier commit — EXT.
pub(super) fn write_skew(h: &mut History, cat: &mut Catalog, v: usize) -> bool {
    let v_txn = &h.txns[v];
    let v_keys: FxHashSet<Key> = v_txn.ops.iter().map(Op::key).collect();
    let Some(b) = first_put(v_txn) else { return false };
    let floor = cat.pred_commit[v];
    // Collect partner candidates over keys V does not touch, preferring
    // the one whose latest writer committed closest below V's snapshot —
    // the frontier-stability window the move must clear is smallest there.
    let keys = &cat.keys;
    let offset = cat.rng.below(keys.len().max(1) as u64) as usize;
    let mut candidates: Vec<(Timestamp, usize, Key)> = Vec::new();
    for probe in 0..keys.len().min(128) {
        let a = keys[(offset + probe) % keys.len()];
        if v_keys.contains(&a) {
            continue;
        }
        let Some((u_commit, u, _)) = cat.latest_before(a, v_txn.start_ts) else { continue };
        if u != v && u_commit > floor {
            candidates.push((u_commit, u, a));
        }
    }
    candidates.sort_unstable_by_key(|&(c, _, _)| Reverse(c));
    // U must not touch V's counter-key `b` (the read appended to U has to
    // be its only access to it), and no key V touches may gain or lose a
    // version across the widened interval (reads stay justified without
    // retargeting; writes meet no new overlapping writer).
    let Some(&(u_commit, u, a)) = candidates.iter().take(8).find(|&&(u_commit, u, _)| {
        !h.txns[u].ops.iter().any(|op| op.key() == b)
            && cat.frontier_stable(v_keys.iter().copied(), v, u_commit, v_txn.start_ts)
    }) else {
        return false;
    };
    let Some(new_start) = cat.reserve_below(u_commit, floor) else { return false };
    // Both appended reads must observe real committed values: a read of
    // the initial value hands black-box checkers a genuine
    // anti-dependency edge (reader before the key's first writer), which
    // is the read-skew shape — not write skew.
    let v_obs = cat.value_at(a, new_start);
    let u_obs = cat.value_at(b, h.txns[u].start_ts);
    if v_obs == Value::INIT || u_obs == Value::INIT {
        cat.release(new_start);
        return false;
    }
    cat.move_start(h, v, new_start);
    // V reads U's key as of its (moved) snapshot: misses U's write.
    h.txns[v].ops.push(Op::read(a, v_obs));
    // U reads V's key as of its own snapshot: misses V's write.
    h.txns[u].ops.push(Op::read(b, u_obs));
    true
}

/// Duplicate timestamp: move a transaction's `start_ts` onto another
/// transaction's start timestamp, choosing a target with no commit in
/// between so the snapshot's frontier — and hence every read verdict —
/// is unchanged. Exactly INTEGRITY fires, at every level.
pub(super) fn duplicate_timestamp(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let start = h.txns[i].start_ts;
    let floor = cat.pred_commit[i];
    // Walk nearby earlier start timestamps; take the first whose window
    // back to our start holds no commit event and whose owner has not
    // itself been moved away.
    let at = cat.starts.partition_point(|&s| s < start);
    let Some(target) = cat.starts[..at].iter().rev().take(8).copied().find(|&s| {
        s >= floor
            && s > Timestamp::MIN
            && !cat.vacated.contains(&s)
            && !cat.any_commit_in(s, start)
    }) else {
        return false;
    };
    cat.move_start(h, i, target);
    true
}

/// Snapshot clock skew: pull a reader's recorded `start_ts` below the
/// commit of the version it manifestly observed, so the claimed snapshot
/// predates the write it read — the read-side signature of a node whose
/// clock runs behind. Values are untouched (black-box checkers see
/// nothing); SER ignores start timestamps and must still accept; under
/// SI the read is now a future read — EXT, guaranteed. The probabilistic
/// collection-level variant of this fault is
/// [`crate::faults::inject_clock_skew_at`].
pub(super) fn start_skew(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let floor = cat.pred_commit[i];
    let start = h.txns[i].start_ts;
    // The observed version's writer; the new snapshot lands below its
    // commit, so the expected value at the claimed anchor becomes an
    // older version (or the initial value) — never the observation again.
    let Some(w_commit) = lone_scalar_reads(&h.txns[i]).into_iter().find_map(|(_, key, obs)| {
        let (vs, pos) = cat.version_with(key, obs)?;
        let (w_commit, w, _) = vs[pos];
        (w != i && w_commit < start && w_commit > floor).then_some(w_commit)
    }) else {
        return false;
    };
    let Some(new_start) = cat.reserve_below(w_commit, floor) else { return false };
    cat.move_start(h, i, new_start);
    true
}

/// Commit clock skew: pull a writer's recorded `commit_ts` below the
/// snapshot of a reader that manifestly did *not* observe it — the
/// recorded commit order now claims the write was visible before it
/// really was, the paper's YugabyteDB scenario. Values are untouched;
/// the reader's unperturbed observation becomes an EXT violation at
/// every frontier-exact level (its anchors now lie above the skewed
/// commit). Session order and Eq. (1) are preserved, the shift never
/// crosses the previous version of the perturbed key, and only
/// read-stable writers (every read own-write-covered) are skewed — a
/// writer with frontier reads would drag its *own* observations above
/// its relocated commit anchor, which would break the RC `Accept`
/// guarantee (RC anchors reads at the commit event). Moving a version
/// earlier can only widen every other reader's membership set, so
/// exactly the commit-order anomaly is planted.
pub(super) fn commit_skew(h: &mut History, cat: &mut Catalog, r: usize) -> bool {
    let r_start = h.txns[r].start_ts;
    let Some((w, floor)) = lone_scalar_reads(&h.txns[r]).into_iter().find_map(|(_, key, obs)| {
        let (vs, pos) = cat.version_with(key, obs)?;
        // The next version's writer: the one whose commit gets skewed
        // below the reader's snapshot.
        let &(_, w, _) = vs.get(pos + 1)?;
        let (obs_commit, obs_writer, _) = vs[pos];
        if w == r || cat.recommitted.contains(&w) || cat.recommitted.contains(&obs_writer) {
            return None;
        }
        // The skewed commit must stay above the observed version (the
        // key's version order is preserved) and above the writer's
        // session predecessor's commit (SESSION), and land strictly below
        // the reader's snapshot — so both of the reader's anchors now
        // claim to see the skewed write.
        let floor = Timestamp(obs_commit.get().max(cat.pred_commit[w].get()) + 1);
        (r_start > floor).then_some((w, floor))
    }) else {
        return false;
    };
    let Some(new_commit) = cat.reserve_below(r_start, floor) else { return false };
    // Eq. (1): when the skewed commit descends below the writer's own
    // recorded start, the same lagging clock stamps the start too.
    // Session order bounds how far down it can go — and a writer with
    // frontier reads must keep its start where it is (its observations
    // anchor there, and they must also stay below the relocated commit
    // for RC's membership): such writers only qualify when no start
    // fix-up is needed, i.e. their whole execution already sits below
    // the new commit.
    if h.txns[w].start_ts >= new_commit {
        let fixed = match external_reads(&h.txns[w]).next() {
            Some(_) => None,
            None => cat.reserve_below(new_commit, cat.pred_commit[w]),
        };
        let Some(new_start) = fixed else {
            cat.release(new_commit);
            return false;
        };
        cat.move_start(h, w, new_start);
    }
    cat.move_commit(h, w, new_commit);
    true
}
