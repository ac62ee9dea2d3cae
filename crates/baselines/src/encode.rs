//! Polygraph encodings: histories → constraint problems.
//!
//! * [`encode_si_bc`] — the begin/commit polygraph for SI (Viper's
//!   BC-polygraph; PolySI's generalized polygraph solves the equivalent
//!   constraint system): two nodes per transaction, known edges from
//!   program structure, and one binary choice per unordered pair of
//!   writers of each key. SI holds iff some assignment is acyclic.
//! * [`encode_ser_polygraph`] — the classic single-node polygraph for SER
//!   (Cobra): same choices, one node per transaction.
//!
//! Both rely on the unique-written-values assumption to recover read-from
//! edges, like the original systems.

use crate::solver::ChoiceProblem;
use aion_types::{FxHashMap, History, Key, Op, Snapshot, Value};

/// An encoded constraint problem plus inference anomalies.
#[derive(Debug, Default)]
pub(crate) struct Encoding {
    /// The constraint problem (empty when `n == 0`).
    pub problem: ChoiceProblem,
    /// Reads that could not be matched to any writer, and similar.
    pub anomalies: Vec<String>,
}

/// Per-key write/read structure shared by both encodings.
struct KeyUsage {
    /// Transactions writing the key (final values).
    writers: Vec<u32>,
    /// `writer → readers of that writer's final value`.
    readers_of: FxHashMap<u32, Vec<u32>>,
    /// Readers of the initial value.
    init_readers: Vec<u32>,
}

fn collect_usage(history: &History, anomalies: &mut Vec<String>) -> FxHashMap<Key, KeyUsage> {
    // (key, value) → writer index.
    let mut writer_of: FxHashMap<(Key, Value), u32> = FxHashMap::default();
    let mut usage: FxHashMap<Key, KeyUsage> = FxHashMap::default();
    for (i, t) in history.txns.iter().enumerate() {
        for (key, snap) in t.final_writes(|_| Snapshot::initial(history.kind)) {
            let u = usage.entry(key).or_insert_with(|| KeyUsage {
                writers: Vec::new(),
                readers_of: FxHashMap::default(),
                init_readers: Vec::new(),
            });
            u.writers.push(i as u32);
            if let Snapshot::Scalar(v) = snap {
                writer_of.insert((key, v), i as u32);
            }
        }
    }
    for (r, t) in history.txns.iter().enumerate() {
        let mut written: Vec<Key> = Vec::new();
        for op in &t.ops {
            match op {
                Op::Write { key, .. } => {
                    if !written.contains(key) {
                        written.push(*key);
                    }
                }
                Op::Read { key, value } => {
                    if written.contains(key) {
                        continue; // internal read
                    }
                    let u = usage.entry(*key).or_insert_with(|| KeyUsage {
                        writers: Vec::new(),
                        readers_of: FxHashMap::default(),
                        init_readers: Vec::new(),
                    });
                    match value {
                        Snapshot::Scalar(v) if *v == Value::INIT => u.init_readers.push(r as u32),
                        Snapshot::Scalar(v) => match writer_of.get(&(*key, *v)) {
                            Some(&w) => u.readers_of.entry(w).or_default().push(r as u32),
                            None => anomalies
                                .push(format!("t{} read unwritten value {v:?} of {key}", t.tid.0)),
                        },
                        Snapshot::List(_) => anomalies.push(format!(
                            "polygraph encodings support key-value histories only ({key})"
                        )),
                    }
                }
            }
        }
    }
    usage
}

/// Session-order pairs as transaction indices.
fn so_pairs(history: &History) -> Vec<(u32, u32)> {
    crate::infer::session_edges(history)
}

/// Encode SI as a begin/commit polygraph: node `2i` is `begin(i)`, node
/// `2i + 1` is `commit(i)`.
pub(crate) fn encode_si_bc(history: &History) -> Encoding {
    let n = history.txns.len();
    let b = |i: u32| 2 * i;
    let c = |i: u32| 2 * i + 1;
    let mut anomalies = Vec::new();
    let usage = collect_usage(history, &mut anomalies);
    let mut problem = ChoiceProblem::new(2 * n);

    for i in 0..n as u32 {
        problem.add_known(b(i), c(i)); // begin before commit
    }
    for (x, y) in so_pairs(history) {
        problem.add_known(c(x), b(y)); // strong-session SI
    }
    for u in usage.values() {
        // Known visibility edges from reads.
        for (&w, readers) in &u.readers_of {
            for &r in readers {
                if r != w {
                    problem.add_known(c(w), b(r));
                }
            }
        }
        // A reader of the initial value began before every writer committed.
        for &r in &u.init_readers {
            for &w in &u.writers {
                if r != w {
                    problem.add_known(b(r), c(w));
                }
            }
        }
        // One choice per unordered writer pair: NOCONFLICT forces the
        // earlier writer to commit before the later one begins, and readers
        // of the earlier version must begin before the later commit.
        for (ai, &wa) in u.writers.iter().enumerate() {
            for &wb in &u.writers[ai + 1..] {
                if wa == wb {
                    continue;
                }
                let opt = |first: u32, second: u32| {
                    let mut edges = vec![(c(first), b(second))];
                    if let Some(readers) = u.readers_of.get(&first) {
                        for &r in readers {
                            if r != second {
                                edges.push((b(r), c(second)));
                            }
                        }
                    }
                    edges
                };
                let a_edges = opt(wa, wb);
                let b_edges = opt(wb, wa);
                problem.add_choice(a_edges, b_edges);
            }
        }
    }
    Encoding { problem, anomalies }
}

/// Encode SER as a single-node polygraph over the transactions listed in
/// `active` (Cobra processes rounds over a sliding window). `allow_unknown`
/// suppresses anomalies for reads whose writer lies outside the window
/// (already garbage-collected — Cobra's fences guarantee their order).
pub(crate) fn encode_ser_polygraph(
    history: &History,
    active: &[u32],
    allow_unknown: bool,
) -> Encoding {
    let pos: FxHashMap<u32, u32> = active.iter().enumerate().map(|(p, &i)| (i, p as u32)).collect();
    let mut anomalies = Vec::new();
    let mut problem = ChoiceProblem::new(active.len());

    // (key, value) → window position of the writer.
    let mut writer_of: FxHashMap<(Key, Value), u32> = FxHashMap::default();
    let mut writers_by_key: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
    for &i in active {
        let t = &history.txns[i as usize];
        for (key, snap) in t.final_writes(|_| Snapshot::initial(history.kind)) {
            let p = pos[&i];
            writers_by_key.entry(key).or_default().push(p);
            if let Snapshot::Scalar(v) = snap {
                writer_of.insert((key, v), p);
            }
        }
    }
    let mut readers_of: FxHashMap<(Key, u32), Vec<u32>> = FxHashMap::default();
    let mut init_readers: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
    for &i in active {
        let t = &history.txns[i as usize];
        let rp = pos[&i];
        let mut written: Vec<Key> = Vec::new();
        for op in &t.ops {
            match op {
                Op::Write { key, .. } => {
                    if !written.contains(key) {
                        written.push(*key);
                    }
                }
                Op::Read { key, value } => {
                    if written.contains(key) {
                        continue;
                    }
                    match value {
                        Snapshot::Scalar(v) if *v == Value::INIT => {
                            init_readers.entry(*key).or_default().push(rp);
                        }
                        Snapshot::Scalar(v) => match writer_of.get(&(*key, *v)) {
                            Some(&w) => {
                                if w != rp {
                                    problem.add_known(w, rp); // wr edge
                                    readers_of.entry((*key, w)).or_default().push(rp);
                                }
                            }
                            None if allow_unknown => {}
                            None => anomalies
                                .push(format!("t{} read unwritten value {v:?} of {key}", t.tid.0)),
                        },
                        Snapshot::List(_) => anomalies
                            .push("polygraph encodings support key-value histories only".into()),
                    }
                }
            }
        }
    }
    // Session order restricted to the window.
    for (x, y) in so_pairs(history) {
        if let (Some(&px), Some(&py)) = (pos.get(&x), pos.get(&y)) {
            problem.add_known(px, py);
        }
    }
    // Readers of the initial value precede all writers of the key.
    for (key, readers) in &init_readers {
        if let Some(writers) = writers_by_key.get(key) {
            for &r in readers {
                for &w in writers {
                    if r != w {
                        problem.add_known(r, w);
                    }
                }
            }
        }
    }
    // Writer-pair choices with induced anti-dependencies.
    for (key, writers) in &writers_by_key {
        for (ai, &wa) in writers.iter().enumerate() {
            for &wb in &writers[ai + 1..] {
                if wa == wb {
                    continue;
                }
                let opt = |first: u32, second: u32| {
                    let mut edges = vec![(first, second)];
                    if let Some(rs) = readers_of.get(&(*key, first)) {
                        for &r in rs {
                            if r != second {
                                edges.push((r, second));
                            }
                        }
                    }
                    edges
                };
                problem.add_choice(opt(wa, wb), opt(wb, wa));
            }
        }
    }
    Encoding { problem, anomalies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveOutcome;
    use aion_types::{DataKind, Transaction, TxnBuilder};

    fn kv(txns: Vec<Transaction>) -> History {
        History { kind: DataKind::Kv, txns }
    }

    fn all(h: &History) -> Vec<u32> {
        (0..h.txns.len() as u32).collect()
    }

    #[test]
    fn si_bc_accepts_valid_overlap() {
        // SI-valid: T2 overlaps T1 and reads the pre-T1 value.
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 6).put(Key(1), Value(2)).build(),
            TxnBuilder::new(2).session(2, 0).interval(4, 5).read(Key(1), Value(1)).build(),
        ]);
        let e = encode_si_bc(&h);
        assert!(e.anomalies.is_empty());
        let (out, _) = e.problem.solve(10_000);
        assert_eq!(out, SolveOutcome::Acyclic);
    }

    #[test]
    fn si_bc_rejects_lost_update() {
        // Classic lost update: both RMW from the initial value.
        let h = kv(vec![
            TxnBuilder::new(0)
                .session(0, 0)
                .interval(1, 4)
                .read(Key(1), Value(0))
                .put(Key(1), Value(1))
                .build(),
            TxnBuilder::new(1)
                .session(1, 0)
                .interval(2, 5)
                .read(Key(1), Value(0))
                .put(Key(1), Value(2))
                .build(),
        ]);
        let e = encode_si_bc(&h);
        let (out, _) = e.problem.solve(10_000);
        assert!(matches!(out, SolveOutcome::Cyclic(_)), "lost update must be rejected");
    }

    #[test]
    fn si_bc_accepts_figure11_without_timestamps() {
        // Paper Fig. 11: black-box SI checkers accept this history (they
        // can reorder T3 before T2); timestamp-based CHRONOS rejects it.
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 4).put(Key(1), Value(2)).build(),
            TxnBuilder::new(2).session(2, 0).interval(5, 6).read(Key(1), Value(1)).build(),
        ]);
        let e = encode_si_bc(&h);
        assert!(e.anomalies.is_empty());
        let (out, _) = e.problem.solve(10_000);
        assert_eq!(out, SolveOutcome::Acyclic, "black-box accepts what CHRONOS rejects");
    }

    #[test]
    fn ser_polygraph_rejects_write_skew_style_cycle() {
        // T0 reads x0,y0 init; T1: r(x)=0 w(y)=1; T2: r(y)=0 w(x)=2 —
        // write skew: fine under SI, cyclic under SER.
        let h = kv(vec![
            TxnBuilder::new(0)
                .session(0, 0)
                .interval(1, 4)
                .read(Key(1), Value(0))
                .put(Key(2), Value(1))
                .build(),
            TxnBuilder::new(1)
                .session(1, 0)
                .interval(2, 5)
                .read(Key(2), Value(0))
                .put(Key(1), Value(2))
                .build(),
            // Observer pins both writes as committed.
            TxnBuilder::new(2)
                .session(2, 0)
                .interval(6, 7)
                .read(Key(1), Value(2))
                .read(Key(2), Value(1))
                .build(),
        ]);
        let e = encode_ser_polygraph(&h, &all(&h), false);
        assert!(e.anomalies.is_empty(), "{:?}", e.anomalies);
        let (out, _) = e.problem.solve(10_000);
        assert!(matches!(out, SolveOutcome::Cyclic(_)), "write skew violates SER");

        // ... while the SI encoding accepts it.
        let esi = encode_si_bc(&h);
        let (out_si, _) = esi.problem.solve(10_000);
        assert_eq!(out_si, SolveOutcome::Acyclic, "write skew is SI-legal");
    }

    #[test]
    fn ser_polygraph_accepts_serial_history() {
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(1)
                .session(0, 1)
                .interval(3, 4)
                .read(Key(1), Value(1))
                .put(Key(1), Value(2))
                .build(),
            TxnBuilder::new(2).session(1, 0).interval(5, 6).read(Key(1), Value(2)).build(),
        ]);
        let e = encode_ser_polygraph(&h, &all(&h), false);
        let (out, _) = e.problem.solve(10_000);
        assert_eq!(out, SolveOutcome::Acyclic);
    }

    #[test]
    fn ser_window_allows_unknown_values_when_pruned() {
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 4).read(Key(1), Value(1)).build(),
        ]);
        // Window excludes the writer.
        let e = encode_ser_polygraph(&h, &[1], true);
        assert!(e.anomalies.is_empty());
        let e2 = encode_ser_polygraph(&h, &[1], false);
        assert_eq!(e2.anomalies.len(), 1);
    }
}
