//! Viper reconstruction (Zhang et al., EuroSys '23): SI checking on the
//! BC-polygraph (begin/commit nodes), where SI reduces to plain
//! acyclicity. Shares the encoding with PolySI but runs with minimal
//! pruning, leaning on the solver — matching Viper's relative position in
//! the paper's Fig. 4 (slower than PolySI on the same histories).

use crate::encode::encode_si_bc;
use crate::solver::SolveOutcome;
use crate::verdict::BaselineOutcome;
use aion_types::History;
use aion_types::Stopwatch;

/// Check snapshot isolation, black-box (BC-polygraph), giving up (DNF)
/// after `budget` backtracking steps.
pub fn check_viper_budget(history: &History, budget: u64) -> BaselineOutcome {
    let start = Stopwatch::start();
    let enc = encode_si_bc(history);
    let mut anomalies = enc.anomalies;
    // Single pruning round only; the rest goes to search.
    let (out, stats) = enc.problem.solve_opts(budget, 1);
    let timed_out = out == SolveOutcome::Timeout;
    if let SolveOutcome::Cyclic(reason) = &out {
        anomalies.push(format!("BC-polygraph unsatisfiable: {reason}"));
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
    fn agrees_with_polysi_on_valid_history() {
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 6).put(Key(1), Value(2)).build(),
            TxnBuilder::new(2).session(2, 0).interval(4, 5).read(Key(1), Value(1)).build(),
        ]);
        assert!(check_viper_budget(&h, 2_000_000).is_ok());
        assert!(crate::polysi::check_polysi(&h).is_ok());
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
        assert!(!check_viper_budget(&h, 2_000_000).accepted);
    }

    #[test]
    fn accepts_read_only_history() {
        let h = kv(vec![
            TxnBuilder::new(0).session(0, 0).interval(1, 2).read(Key(1), Value(0)).build(),
            TxnBuilder::new(1).session(1, 0).interval(3, 4).read(Key(2), Value(0)).build(),
        ]);
        assert!(check_viper_budget(&h, 2_000_000).is_ok());
    }
}
