//! PolySI reconstruction (Huang et al., VLDB '23): black-box SI checking
//! by encoding the history as a generalized polygraph and solving the
//! acyclicity constraints — here over the begin/commit encoding of
//! `crate::encode::encode_si_bc`, with PolySI's signature *pruning*
//! (iterated unit propagation from the known-edge transitive closure)
//! before the search that stands in for MonoSAT.

use crate::encode::encode_si_bc;
use crate::solver::SolveOutcome;
use crate::verdict::BaselineOutcome;
use aion_types::History;
use aion_types::Stopwatch;

/// Default backtracking budget (steps) before reporting DNF.
const DEFAULT_BUDGET: u64 = 2_000_000;

/// Check snapshot isolation, black-box.
pub fn check_polysi(history: &History) -> BaselineOutcome {
    check_polysi_budget(history, DEFAULT_BUDGET)
}

/// Check with an explicit search budget.
pub fn check_polysi_budget(history: &History, budget: u64) -> BaselineOutcome {
    let start = Stopwatch::start();
    let enc = encode_si_bc(history);
    let mut anomalies = enc.anomalies;
    // PolySI: aggressive pruning rounds, then search.
    let (out, stats) = enc.problem.solve_opts(budget, 8);
    let timed_out = out == SolveOutcome::Timeout;
    if let SolveOutcome::Cyclic(reason) = &out {
        anomalies.push(format!("polygraph unsatisfiable: {reason}"));
    }
    BaselineOutcome {
        accepted: anomalies.is_empty() && out == SolveOutcome::Acyclic,
        anomalies,
        elapsed: start.elapsed(),
        nodes: enc.problem.n,
        edges: enc.problem.known.len(),
        search_steps: stats.steps,
        timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{DataKind, Key, Transaction, TxnBuilder, Value};

    fn kv(txns: Vec<Transaction>) -> History {
        History { kind: DataKind::Kv, txns }
    }

    #[test]
    fn accepts_valid_si_with_concurrency() {
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 6).put(Key(1), Value(2)).build(),
            TxnBuilder::new(2).session(2, 0).interval(4, 5).read(Key(1), Value(1)).build(),
        ]);
        let out = check_polysi(&h);
        assert!(out.is_ok(), "{:?}", out.anomalies);
    }

    #[test]
    fn rejects_lost_update() {
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
        let out = check_polysi(&h);
        assert!(!out.accepted);
    }

    #[test]
    fn rejects_long_fork() {
        // Long fork: observers see the two writes in incompatible orders.
        let x = Key(1);
        let y = Key(2);
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(x, Value(1)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 4).put(y, Value(2)).build(),
            TxnBuilder::new(2)
                .session(2, 0)
                .interval(5, 6)
                .read(x, Value(1))
                .read(y, Value(0))
                .build(),
            TxnBuilder::new(3)
                .session(3, 0)
                .interval(7, 8)
                .read(x, Value(0))
                .read(y, Value(2))
                .build(),
        ]);
        let out = check_polysi(&h);
        assert!(!out.accepted, "long fork violates SI");
    }

    #[test]
    fn budget_exhaustion_reports_timeout() {
        // Dozens of concurrent blind writers on one key and contradictory
        // observers make the search space explode under a unit budget.
        let mut txns = Vec::new();
        for i in 0..12u64 {
            txns.push(
                TxnBuilder::new(i)
                    .session(i as u32, 0)
                    .interval(1 + i, 100 + i)
                    .put(Key(1), Value(i + 1))
                    .build(),
            );
        }
        let h = kv(txns);
        let out = check_polysi_budget(&h, 1);
        // Either solved instantly by propagation or timed out; with blind
        // concurrent writers and no readers, propagation cannot resolve and
        // the single step is insufficient only if choices remain.
        assert!(out.timed_out || out.accepted);
    }
}
