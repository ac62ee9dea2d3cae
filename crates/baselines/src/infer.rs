//! Dependency inference from histories, shared by the baseline checkers.
//!
//! Two flavours:
//!
//! * [`infer_white_box`] — Emme-style: trusts timestamps to fix the version
//!   order (commit order per key), then derives `wr`/`ww`/`rw` edges;
//! * [`infer_black_box_kv`] / [`infer_black_box_list`] — Elle/Cobra-style:
//!   no timestamps, unique written values; `wr` edges from value matching,
//!   partial `ww`/`rw` from read-modify-write patterns (KV) or list-prefix
//!   orders (lists).
//!
//! All flavours surface *inference anomalies* (reads of never-written
//! values = G1a "aborted reads", incompatible list orders, duplicated RMW
//! successors = lost updates) as strings; the checkers fold them into their
//! verdicts.

use aion_types::{FxHashMap, History, Key, Op, Snapshot, Value};

/// Inferred dependency edges over transaction indices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Dependencies {
    /// Number of transactions.
    pub n: usize,
    /// Session-order edges.
    pub so: Vec<(u32, u32)>,
    /// Read-from edges (writer → reader).
    pub wr: Vec<(u32, u32)>,
    /// Known version-order edges (earlier writer → later writer).
    pub ww: Vec<(u32, u32)>,
    /// Known anti-dependency edges (reader → overwriting writer).
    pub rw: Vec<(u32, u32)>,
    /// Inference-level anomalies.
    pub anomalies: Vec<String>,
}

impl Dependencies {
    /// All dependency edges except `rw` (the "D" relation of the SI cycle
    /// condition).
    pub fn d_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.so.iter().chain(&self.wr).chain(&self.ww).copied()
    }
}

/// Session-order edges: consecutive transactions of each session.
pub(crate) fn session_edges(history: &History) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for (_, idxs) in history.sessions() {
        for w in idxs.windows(2) {
            edges.push((w[0] as u32, w[1] as u32));
        }
    }
    edges
}

/// The *external* reads of a transaction: reads of keys it has not written
/// earlier in program order, paired with the observed snapshot.
fn external_reads(txn: &aion_types::Transaction) -> Vec<(Key, Snapshot)> {
    let mut written: Vec<Key> = Vec::new();
    let mut out = Vec::new();
    for op in &txn.ops {
        match op {
            Op::Read { key, value } => {
                if !written.contains(key) {
                    out.push((*key, value.clone()));
                }
            }
            Op::Write { key, .. } => {
                if !written.contains(key) {
                    written.push(*key);
                }
            }
        }
    }
    out
}

/// White-box (timestamp-trusting) inference: version order per key is the
/// commit-timestamp order of its writers.
pub fn infer_white_box(history: &History) -> Dependencies {
    let n = history.txns.len();
    let mut deps = Dependencies { n, so: session_edges(history), ..Dependencies::default() };

    // Per key: writers in commit order, with their final values.
    let mut versions: FxHashMap<Key, Vec<(u32, Snapshot)>> = FxHashMap::default();
    for (i, t) in history.txns.iter().enumerate() {
        for (key, snap) in t.final_writes(|_| Snapshot::initial(history.kind)) {
            versions.entry(key).or_default().push((i as u32, snap));
        }
    }
    for (_, vs) in versions.iter_mut() {
        vs.sort_by_key(|&(i, _)| (history.txns[i as usize].commit_ts, i));
    }

    // For list histories, recompute the cumulative list value per version
    // (a writer's final_writes with an initial base only contains its own
    // appends).
    if history.kind == aion_types::DataKind::List {
        for (_, vs) in versions.iter_mut() {
            let mut acc: Vec<Value> = Vec::new();
            for (i, snap) in vs.iter_mut() {
                if let Snapshot::List(own) = snap {
                    acc.extend(own.elems());
                    *snap = Snapshot::List(acc.clone().into());
                    let _ = i;
                }
            }
        }
    }

    // ww chain edges.
    for vs in versions.values() {
        for w in vs.windows(2) {
            deps.ww.push((w[0].0, w[1].0));
        }
    }

    // wr and rw edges by matching each external read to a version.
    for (r, t) in history.txns.iter().enumerate() {
        for (key, observed) in external_reads(t) {
            let Some(vs) = versions.get(&key) else {
                if observed != Snapshot::initial(history.kind) {
                    deps.anomalies.push(format!("t{} read unwritten {key}: {observed:?}", t.tid.0));
                }
                continue;
            };
            if observed == Snapshot::initial(history.kind) {
                // Reads the initial version: anti-depends on the first writer.
                if let Some(&(w0, _)) = vs.first() {
                    if w0 as usize != r {
                        deps.rw.push((r as u32, w0));
                    }
                }
                continue;
            }
            match vs.iter().position(|(_, snap)| *snap == observed) {
                Some(pos) => {
                    let w = vs[pos].0;
                    if w as usize != r {
                        deps.wr.push((w, r as u32));
                    }
                    if let Some(&(nxt, _)) = vs.get(pos + 1) {
                        if nxt as usize != r {
                            deps.rw.push((r as u32, nxt));
                        }
                    }
                }
                None => deps
                    .anomalies
                    .push(format!("t{} read unknown version of {key}: {observed:?}", t.tid.0)),
            }
        }
    }
    deps
}

/// Black-box register inference (Elle/Cobra style): unique values give
/// `wr`; read-modify-write gives partial `ww`/`rw`; two RMWs from the same
/// version expose a lost update directly.
pub(crate) fn infer_black_box_kv(history: &History) -> Dependencies {
    let n = history.txns.len();
    let mut deps = Dependencies { n, so: session_edges(history), ..Dependencies::default() };

    // (key, value) → writing txn (final values only; unique values assumed).
    let mut writer_of: FxHashMap<(Key, Value), u32> = FxHashMap::default();
    for (i, t) in history.txns.iter().enumerate() {
        for (key, snap) in t.final_writes(|_| Snapshot::initial(history.kind)) {
            if let Snapshot::Scalar(v) = snap {
                if let Some(prev) = writer_of.insert((key, v), i as u32) {
                    deps.anomalies.push(format!(
                        "duplicate write of {v:?} to {key} by t{} and t{}",
                        history.txns[prev as usize].tid.0, t.tid.0
                    ));
                }
            }
        }
    }

    // RMW successor per (key, value): at most one transaction may
    // read-modify-write any given version.
    let mut rmw_successor: FxHashMap<(Key, Value), u32> = FxHashMap::default();

    for (r, t) in history.txns.iter().enumerate() {
        let writes: Vec<Key> = t.write_keys();
        for (key, observed) in external_reads(t) {
            let Snapshot::Scalar(v) = observed else { continue };
            let writer = if v == Value::INIT {
                None
            } else {
                match writer_of.get(&(key, v)) {
                    Some(&w) => Some(w),
                    None => {
                        deps.anomalies
                            .push(format!("t{} read unwritten value {v:?} of {key}", t.tid.0));
                        continue;
                    }
                }
            };
            if let Some(w) = writer {
                if w as usize != r {
                    deps.wr.push((w, r as u32));
                }
            }
            // Read-modify-write: this transaction's own write directly
            // follows the version it read (sound under SI's
            // first-committer-wins; a violation surfaces as a cycle or a
            // duplicated successor).
            if writes.contains(&key) {
                if let Some(w) = writer {
                    if w as usize != r {
                        deps.ww.push((w, r as u32));
                    }
                }
                if let Some(prev) = rmw_successor.insert((key, v), r as u32) {
                    // Re-reads within one transaction are not lost updates.
                    if prev as usize != r {
                        deps.anomalies.push(format!(
                            "lost update on {key}: t{} and t{} both derived from {v:?}",
                            history.txns[prev as usize].tid.0, t.tid.0
                        ));
                    }
                }
            }
        }
    }

    // rw edges: a reader of (k, v) anti-depends on the RMW successor of v;
    // a reader of the *initial* value anti-depends on every writer of the
    // key (the initial version precedes all versions in any order).
    let mut writers_by_key: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
    for (&(key, _), &w) in &writer_of {
        writers_by_key.entry(key).or_default().push(w);
    }
    for (r, t) in history.txns.iter().enumerate() {
        for (key, observed) in external_reads(t) {
            let Snapshot::Scalar(v) = observed else { continue };
            if v == Value::INIT {
                if let Some(ws) = writers_by_key.get(&key) {
                    for &w in ws {
                        if w as usize != r {
                            deps.rw.push((r as u32, w));
                        }
                    }
                }
                continue;
            }
            if let Some(&nxt) = rmw_successor.get(&(key, v)) {
                if nxt as usize != r {
                    deps.rw.push((r as u32, nxt));
                }
            }
        }
    }
    deps
}

/// Black-box list inference (ElleList): observed lists are prefixes of the
/// per-key append order, which recovers the version order exactly.
pub(crate) fn infer_black_box_list(history: &History) -> Dependencies {
    let n = history.txns.len();
    let mut deps = Dependencies { n, so: session_edges(history), ..Dependencies::default() };

    // element value → appending txn (unique elements assumed).
    let mut appender: FxHashMap<(Key, Value), u32> = FxHashMap::default();
    for (i, t) in history.txns.iter().enumerate() {
        for op in &t.ops {
            if let Op::Write { key, mutation: aion_types::Mutation::Append(e) } = op {
                if let Some(prev) = appender.insert((*key, *e), i as u32) {
                    deps.anomalies.push(format!(
                        "duplicate append of {e:?} to {key} by t{} and t{}",
                        history.txns[prev as usize].tid.0, t.tid.0
                    ));
                }
            }
        }
    }

    // Longest observed list per key; all other observations must be
    // prefixes of it.
    let mut longest: FxHashMap<Key, Vec<Value>> = FxHashMap::default();
    for t in &history.txns {
        for (key, observed) in external_reads(t) {
            let Snapshot::List(l) = observed else { continue };
            let cur = longest.entry(key).or_default();
            if l.len() > cur.len() {
                if !l.elems().starts_with(cur) {
                    deps.anomalies.push(format!("incompatible list orders on {key}"));
                }
                *cur = l.elems().to_vec();
            } else if !cur.starts_with(l.elems()) {
                deps.anomalies.push(format!("incompatible list orders on {key}"));
            }
        }
    }

    // Version order per key = appenders of the longest chain (dedup
    // consecutive repeats from multi-append transactions).
    let mut chain_txns: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
    for (key, elems) in &longest {
        let mut chain: Vec<u32> = Vec::new();
        for e in elems {
            match appender.get(&(*key, *e)) {
                Some(&a) => {
                    if chain.last() != Some(&a) {
                        chain.push(a);
                    }
                }
                None => deps.anomalies.push(format!("element {e:?} of {key} never appended")),
            }
        }
        for w in chain.windows(2) {
            deps.ww.push((w[0], w[1]));
        }
        chain_txns.insert(*key, chain);
    }

    // wr / rw edges from each observed prefix.
    for (r, t) in history.txns.iter().enumerate() {
        for (key, observed) in external_reads(t) {
            let Snapshot::List(l) = observed else { continue };
            if let Some(last) = l.elems().last() {
                if let Some(&w) = appender.get(&(key, *last)) {
                    if w as usize != r {
                        deps.wr.push((w, r as u32));
                    }
                    // Anti-dependency on the next appender in the chain.
                    if let Some(chain) = chain_txns.get(&key) {
                        if let Some(pos) = chain.iter().position(|&c| c == w) {
                            if let Some(&nxt) = chain.get(pos + 1) {
                                if nxt as usize != r {
                                    deps.rw.push((r as u32, nxt));
                                }
                            }
                        }
                    }
                }
            } else if let Some(chain) = chain_txns.get(&key) {
                // Read the empty list: anti-depends on the first appender.
                if let Some(&first) = chain.first() {
                    if first as usize != r {
                        deps.rw.push((r as u32, first));
                    }
                }
            }
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{DataKind, Transaction, TxnBuilder};

    fn kv(txns: Vec<Transaction>) -> History {
        History { kind: DataKind::Kv, txns }
    }

    #[test]
    fn white_box_basic_edges() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(10)).build(),
            TxnBuilder::new(2).session(0, 1).interval(3, 4).put(Key(1), Value(20)).build(),
            TxnBuilder::new(3).session(1, 0).interval(5, 6).read(Key(1), Value(20)).build(),
        ]);
        let d = infer_white_box(&h);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert_eq!(d.so, vec![(0, 1)]);
        assert_eq!(d.ww, vec![(0, 1)]);
        assert_eq!(d.wr, vec![(1, 2)]);
        assert!(d.rw.is_empty());
    }

    #[test]
    fn white_box_rw_for_stale_reads() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(10)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 6).put(Key(1), Value(20)).build(),
            // Reads version 1 while version 2 exists: rw(reader, writer2).
            TxnBuilder::new(3).session(2, 0).interval(4, 5).read(Key(1), Value(10)).build(),
        ]);
        let d = infer_white_box(&h);
        assert_eq!(d.wr, vec![(0, 2)]);
        assert_eq!(d.rw, vec![(2, 1)]);
    }

    #[test]
    fn white_box_initial_read_antidependency() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 4).put(Key(1), Value(10)).build(),
            TxnBuilder::new(2).session(1, 0).interval(2, 3).read(Key(1), Value(0)).build(),
        ]);
        let d = infer_white_box(&h);
        assert_eq!(d.rw, vec![(1, 0)]);
    }

    #[test]
    fn white_box_flags_unknown_versions() {
        let h = kv(vec![TxnBuilder::new(1)
            .session(0, 0)
            .interval(1, 2)
            .read(Key(1), Value(9))
            .build()]);
        let d = infer_white_box(&h);
        assert_eq!(d.anomalies.len(), 1);
    }

    #[test]
    fn black_box_kv_wr_and_rmw() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(10)).build(),
            TxnBuilder::new(2)
                .session(1, 0)
                .interval(3, 4)
                .read(Key(1), Value(10))
                .put(Key(1), Value(20))
                .build(),
            TxnBuilder::new(3).session(2, 0).interval(5, 6).read(Key(1), Value(10)).build(),
        ]);
        let d = infer_black_box_kv(&h);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert!(d.wr.contains(&(0, 1)));
        assert!(d.wr.contains(&(0, 2)));
        assert_eq!(d.ww, vec![(0, 1)]);
        assert!(d.rw.contains(&(2, 1)), "reader of v10 anti-depends on overwriter");
    }

    #[test]
    fn black_box_kv_detects_lost_update() {
        let h = kv(vec![
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(1, 4)
                .read(Key(1), Value(0))
                .put(Key(1), Value(10))
                .build(),
            TxnBuilder::new(2)
                .session(1, 0)
                .interval(2, 5)
                .read(Key(1), Value(0))
                .put(Key(1), Value(20))
                .build(),
        ]);
        let d = infer_black_box_kv(&h);
        assert!(d.anomalies.iter().any(|a| a.contains("lost update")), "{:?}", d.anomalies);
    }

    #[test]
    fn black_box_kv_flags_aborted_read() {
        let h = kv(vec![TxnBuilder::new(1)
            .session(0, 0)
            .interval(1, 2)
            .read(Key(1), Value(7))
            .build()]);
        let d = infer_black_box_kv(&h);
        assert!(d.anomalies.iter().any(|a| a.contains("unwritten")));
    }

    #[test]
    fn black_box_list_recovers_chain() {
        let k = Key(1);
        let mut h = History::new(DataKind::List);
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).append(k, Value(10)).build());
        h.push(TxnBuilder::new(2).session(1, 0).interval(3, 4).append(k, Value(20)).build());
        h.push(
            TxnBuilder::new(3)
                .session(2, 0)
                .interval(5, 6)
                .read_list(k, vec![Value(10), Value(20)])
                .build(),
        );
        h.push(
            TxnBuilder::new(4).session(3, 0).interval(7, 8).read_list(k, vec![Value(10)]).build(),
        );
        let d = infer_black_box_list(&h);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert_eq!(d.ww, vec![(0, 1)]);
        assert!(d.wr.contains(&(1, 2)));
        assert!(d.wr.contains(&(0, 3)));
        assert!(d.rw.contains(&(3, 1)), "prefix reader anti-depends on next appender");
    }

    #[test]
    fn black_box_list_flags_incompatible_orders() {
        let k = Key(1);
        let mut h = History::new(DataKind::List);
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).append(k, Value(10)).build());
        h.push(TxnBuilder::new(2).session(1, 0).interval(3, 4).append(k, Value(20)).build());
        h.push(
            TxnBuilder::new(3)
                .session(2, 0)
                .interval(5, 6)
                .read_list(k, vec![Value(10), Value(20)])
                .build(),
        );
        h.push(
            TxnBuilder::new(4).session(3, 0).interval(7, 8).read_list(k, vec![Value(20)]).build(),
        );
        let d = infer_black_box_list(&h);
        assert!(d.anomalies.iter().any(|a| a.contains("incompatible")), "{:?}", d.anomalies);
    }

    #[test]
    fn session_edges_follow_sno() {
        let h = kv(vec![
            TxnBuilder::new(1).session(0, 1).interval(3, 4).build(),
            TxnBuilder::new(2).session(0, 0).interval(1, 2).build(),
            TxnBuilder::new(3).session(0, 2).interval(5, 6).build(),
        ]);
        let e = session_edges(&h);
        assert_eq!(e, vec![(1, 0), (0, 2)]);
    }
}
