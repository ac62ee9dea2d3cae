//! A backtracking constraint solver over binary edge-set choices — the
//! MonoSAT stand-in used by the PolySI / Viper / Cobra reconstructions.
//!
//! A *choice* is two alternative edge sets (e.g. `ww(a→b)` with its induced
//! anti-dependencies, versus `ww(b→a)` with its). The solver must pick one
//! side of every choice such that the union with the known edges stays
//! acyclic. Pipeline:
//!
//! 1. **propagation** (PolySI §5 / Cobra pruning): from the transitive
//!    closure of the committed graph, any option containing an edge `u→v`
//!    with `v →* u` is impossible; if both options die the instance is
//!    cyclic, if one dies the other is committed. Iterate to fixpoint.
//! 2. **search**: DFS over the remaining choices with an incrementally
//!    maintained acyclic graph ([`crate::graph::IncrementalDag`]) and a
//!    step budget (the stand-in for SAT-solver timeouts).
//!
//! The exponential worst case is intrinsic (checking is NP-hard in the
//! black-box setting); the budget makes "did not finish" observable, which
//! is exactly how the paper reports PolySI/Viper on large histories.

use crate::graph::{DiGraph, IncrementalDag};

/// One binary decision between two induced edge sets.
#[derive(Clone, Debug)]
pub(crate) struct Choice {
    /// Edges if option A is taken.
    pub a: Vec<(u32, u32)>,
    /// Edges if option B is taken.
    pub b: Vec<(u32, u32)>,
}

/// Outcome of solving.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolveOutcome {
    /// A consistent assignment exists: the history is accepted.
    Acyclic,
    /// Every assignment closes a cycle: violation.
    Cyclic(String),
    /// Step budget exhausted (reported as "did not finish").
    Timeout,
}

/// Solver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Choices resolved by propagation.
    pub propagated: usize,
    /// Choices left for search.
    pub searched: usize,
    /// Backtracking steps taken.
    pub steps: u64,
    /// Propagation rounds run.
    pub rounds: usize,
}

/// The constraint problem.
#[derive(Clone, Debug, Default)]
pub struct ChoiceProblem {
    /// Number of graph nodes.
    pub(crate) n: usize,
    /// Unconditional edges.
    pub(crate) known: Vec<(u32, u32)>,
    /// Binary choices.
    pub(crate) choices: Vec<Choice>,
}

/// Above this node count the quadratic closure for propagation is skipped
/// (memory); search then runs with whatever the budget allows.
const CLOSURE_NODE_CAP: usize = 20_000;

impl ChoiceProblem {
    /// A problem over `n` nodes.
    pub fn new(n: usize) -> ChoiceProblem {
        ChoiceProblem { n, ..ChoiceProblem::default() }
    }

    /// Add an unconditional edge.
    pub fn add_known(&mut self, u: u32, v: u32) {
        if u != v {
            self.known.push((u, v));
        }
    }

    /// Add a binary choice.
    pub fn add_choice(&mut self, a: Vec<(u32, u32)>, b: Vec<(u32, u32)>) {
        self.choices.push(Choice { a, b });
    }

    /// Solve with a backtracking budget and default propagation (8 rounds).
    pub fn solve(&self, budget: u64) -> (SolveOutcome, SolveStats) {
        self.solve_opts(budget, 8)
    }

    /// Solve with an explicit propagation-round limit (0 = search only;
    /// the Viper reconstruction uses fewer rounds than PolySI).
    pub(crate) fn solve_opts(&self, budget: u64, max_rounds: usize) -> (SolveOutcome, SolveStats) {
        let mut stats = SolveStats::default();
        let mut known = self.known.clone();
        let mut open: Vec<Choice> = self.choices.clone();

        // --- propagation rounds ------------------------------------------
        if self.n <= CLOSURE_NODE_CAP && max_rounds > 0 {
            loop {
                stats.rounds += 1;
                let mut g = DiGraph::new(self.n);
                for &(u, v) in &known {
                    g.add_edge(u, v);
                }
                if g.has_cycle() {
                    return (SolveOutcome::Cyclic("committed edges are cyclic".into()), stats);
                }
                let closure = g.transitive_closure();
                let impossible =
                    |edges: &[(u32, u32)]| edges.iter().any(|&(u, v)| closure.get(v, u));
                let mut progressed = false;
                let mut next_open = Vec::with_capacity(open.len());
                for ch in open {
                    let dead_a = impossible(&ch.a);
                    let dead_b = impossible(&ch.b);
                    match (dead_a, dead_b) {
                        (true, true) => {
                            return (
                                SolveOutcome::Cyclic("both options of a choice cycle".into()),
                                stats,
                            );
                        }
                        (true, false) => {
                            known.extend_from_slice(&ch.b);
                            stats.propagated += 1;
                            progressed = true;
                        }
                        (false, true) => {
                            known.extend_from_slice(&ch.a);
                            stats.propagated += 1;
                            progressed = true;
                        }
                        (false, false) => next_open.push(ch),
                    }
                }
                open = next_open;
                if !progressed || open.is_empty() || stats.rounds >= max_rounds {
                    break;
                }
            }
        }
        stats.searched = open.len();

        // --- search --------------------------------------------------------
        let mut dag = IncrementalDag::new(self.n);
        for &(u, v) in &known {
            if !dag.try_add_edge(u, v) {
                return (SolveOutcome::Cyclic("committed edges are cyclic".into()), stats);
            }
        }
        let mut steps = 0u64;
        let sat = search(&mut dag, &open, 0, &mut steps, budget);
        stats.steps = steps;
        match sat {
            Some(true) => (SolveOutcome::Acyclic, stats),
            Some(false) => (SolveOutcome::Cyclic("no acyclic assignment exists".into()), stats),
            None => (SolveOutcome::Timeout, stats),
        }
    }
}

/// DFS with rollback. `Some(true)` = satisfiable, `Some(false)` =
/// exhausted without solution, `None` = budget exceeded.
fn search(
    dag: &mut IncrementalDag,
    choices: &[Choice],
    at: usize,
    steps: &mut u64,
    budget: u64,
) -> Option<bool> {
    if at == choices.len() {
        return Some(true);
    }
    *steps += 1;
    if *steps > budget {
        return None;
    }
    for option in [&choices[at].a, &choices[at].b] {
        let mut added: Vec<(u32, u32)> = Vec::with_capacity(option.len());
        let mut ok = true;
        for &(u, v) in option {
            if dag.try_add_edge(u, v) {
                added.push((u, v));
            } else {
                ok = false;
                break;
            }
        }
        if ok {
            match search(dag, choices, at + 1, steps, budget) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
        }
        for &(u, v) in added.iter().rev() {
            dag.remove_edge(u, v);
        }
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_acyclic() {
        let mut p = ChoiceProblem::new(3);
        p.add_known(0, 1);
        p.add_known(1, 2);
        let (out, _) = p.solve(1000);
        assert_eq!(out, SolveOutcome::Acyclic);
    }

    #[test]
    fn known_cycle_is_cyclic() {
        let mut p = ChoiceProblem::new(2);
        p.add_known(0, 1);
        p.add_known(1, 0);
        let (out, _) = p.solve(1000);
        assert!(matches!(out, SolveOutcome::Cyclic(_)));
    }

    #[test]
    fn propagation_resolves_forced_choice() {
        let mut p = ChoiceProblem::new(3);
        p.add_known(0, 1);
        p.add_known(1, 2);
        // (2,0) would close a cycle, so (0,2) is forced.
        p.add_choice(vec![(2, 0)], vec![(0, 2)]);
        let (out, stats) = p.solve(1000);
        assert_eq!(out, SolveOutcome::Acyclic);
        assert_eq!(stats.propagated, 1);
        assert_eq!(stats.searched, 0);
    }

    #[test]
    fn both_options_dead_is_cyclic() {
        let mut p = ChoiceProblem::new(4);
        p.add_known(0, 1);
        p.add_known(2, 3);
        p.add_choice(vec![(1, 0)], vec![(3, 2)]);
        let (out, _) = p.solve(1000);
        assert!(matches!(out, SolveOutcome::Cyclic(_)));
    }

    #[test]
    fn search_finds_consistent_combination() {
        // Choices interact: only one of the four combinations is acyclic.
        let mut p = ChoiceProblem::new(3);
        p.add_choice(vec![(0, 1)], vec![(1, 0)]);
        p.add_choice(vec![(1, 2), (2, 0)], vec![(2, 1)]);
        // Option A of choice 2 forms 0→1→2→0 with A of choice 1; search
        // must find an alternative.
        let (out, stats) = p.solve(1000);
        assert_eq!(out, SolveOutcome::Acyclic);
        assert!(stats.steps > 0);
    }

    #[test]
    fn unsolvable_combination_detected() {
        let mut p = ChoiceProblem::new(2);
        // Both choices force opposite edges: any assignment has 0→1→0.
        p.add_choice(vec![(0, 1)], vec![(0, 1)]);
        p.add_choice(vec![(1, 0)], vec![(1, 0)]);
        let (out, _) = p.solve(1000);
        assert!(matches!(out, SolveOutcome::Cyclic(_)));
    }

    #[test]
    fn budget_exhaustion_times_out() {
        // Many interacting choices with a tiny budget.
        let n = 40;
        let mut p = ChoiceProblem::new(n);
        for i in 0..(n as u32 - 1) {
            p.add_choice(vec![(i, i + 1)], vec![(i + 1, i)]);
        }
        // Force the search path to be non-trivial.
        p.add_known(0, n as u32 - 1);
        let (out, _) = p.solve(2);
        assert_eq!(out, SolveOutcome::Timeout);
    }
}
