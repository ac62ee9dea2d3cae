//! Rules that change what a read observes — G1a, G1b, read skew, future
//! read and INT — leaving every timestamp where it was.

use aion_types::{History, Mutation, Op, Value};

use super::catalog::{lone_scalar_reads, Catalog};

/// G1a: re-target a lone read to a value no transaction ever committed —
/// as if the reader observed an aborted transaction's write. A correct
/// checker reports EXT at every level (no version ever justifies the
/// observation); value-based baselines see a read of an unwritten value.
pub(super) fn aborted_read(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let t = &mut h.txns[i];
    let Some(&(op, key, _)) = lone_scalar_reads(t).first() else { return false };
    t.ops[op] = Op::read(key, cat.fresh_value());
    true
}

/// G1b: give a committed writer an extra *intermediate* write (a fresh
/// value immediately overwritten by its original final write) and make a
/// reader of that writer's final value observe the intermediate one. The
/// key's version chain is unchanged, so exactly the perturbed read is
/// wrong: EXT at every level.
pub(super) fn intermediate_read(h: &mut History, cat: &mut Catalog, r: usize) -> bool {
    let Some(&(op, key, observed)) = lone_scalar_reads(&h.txns[r]).first() else { return false };
    // The committed version the reader observed.
    let Some((vs, pos)) = cat.version_with(key, observed) else { return false };
    let w = vs[pos].1;
    if w == r {
        return false;
    }
    // The writer's first put of the key; reads of the key after it would
    // change meaning when a mutation is inserted, so skip such writers.
    let ops = &h.txns[w].ops;
    let Some(w_pos) = ops
        .iter()
        .position(|op| matches!(op, Op::Write { key: k, mutation: Mutation::Put(_) } if *k == key))
    else {
        return false;
    };
    if ops[w_pos..].iter().any(|op| op.is_read() && op.key() == key) {
        return false;
    }
    let mid = cat.fresh_value();
    h.txns[w].ops.insert(w_pos, Op::put(key, mid));
    h.txns[r].ops[op] = Op::read(key, mid);
    true
}

/// Read skew / long fork: re-target a lone read at the version *before*
/// the one its snapshot dictates. The observation is a real committed
/// value, just an outdated one: EXT at every frontier-exact level, legal
/// under RC's membership.
pub(super) fn read_skew(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let t = &mut h.txns[i];
    for (op, key, observed) in lone_scalar_reads(t) {
        let Some((vs, pos)) = cat.version_with(key, observed) else { continue };
        // The first version regresses to the initial value instead.
        let stale = pos.checked_sub(1).map_or(Value::INIT, |p| vs[p].2);
        if stale != observed {
            t.ops[op] = Op::read(key, stale);
            return true;
        }
    }
    false
}

/// EXT future read: re-target a lone read at a version committed *after*
/// the reader's commit timestamp (and hence after both of its anchors),
/// by a different session — what a skewed clock makes a collector
/// record. EXT at every level. Black-box baselines have no notion of
/// "too late" and can convict only indirectly, when read-modify-write
/// chains around the future version close a dependency cycle.
pub(super) fn future_read(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let t = &h.txns[i];
    for (op, key, _) in lone_scalar_reads(t) {
        let Some(vs) = cat.versions.get(&key) else { continue };
        let from = vs.partition_point(|&(c, _, _)| c <= t.commit_ts);
        let Some(&(_, _, future)) = vs[from..].iter().find(|&&(_, w, _)| h.txns[w].sid != t.sid)
        else {
            continue;
        };
        h.txns[i].ops[op] = Op::read(key, future);
        return true;
    }
    false
}

/// INT violation: insert a read directly after a transaction's last put
/// of a key that observes the key's pre-transaction value — the engine
/// lost the transaction's own write from its read view. INT at every
/// level; internal reads are invisible to the dependency-graph
/// baselines, which only consider external reads.
pub(super) fn int_violation(h: &mut History, cat: &mut Catalog, i: usize) -> bool {
    let t = &mut h.txns[i];
    let Some((pos, key, own)) = t.ops.iter().enumerate().rev().find_map(|(i, op)| match op {
        Op::Write { key, mutation: Mutation::Put(v) } => Some((i, *key, *v)),
        _ => None,
    }) else {
        return false;
    };
    let pre_image = cat.value_at(key, t.start_ts);
    // Degenerate history with repeated values: the "lost" write would be
    // indistinguishable, so plant nothing rather than a no-op.
    if pre_image == own {
        return false;
    }
    t.ops.insert(pos + 1, Op::read(key, pre_image));
    true
}
