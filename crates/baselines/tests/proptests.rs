//! Property tests for the baseline substrates: graph algorithms against
//! naive models, the constraint solver against exhaustive enumeration, and
//! inference consistency on engine-generated histories.

use aion_baselines::{infer_white_box, ChoiceProblem, DiGraph, IncrementalDag, SolveOutcome};
use aion_storage::MvccStore;
use aion_types::DataKind;
use aion_workload::{generate_templates, run_interleaved, WorkloadSpec};
use proptest::prelude::*;

fn arb_edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..max_edges)
}

/// Naive cycle detection: DFS with colors.
fn has_cycle_naive(n: usize, edges: &[(u32, u32)]) -> bool {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u as usize].push(v as usize);
    }
    // 0 = white, 1 = gray, 2 = black
    let mut color = vec![0u8; n];
    fn dfs(u: usize, adj: &[Vec<usize>], color: &mut [u8]) -> bool {
        color[u] = 1;
        for &v in &adj[u] {
            if color[v] == 1 || (color[v] == 0 && dfs(v, adj, color)) {
                return true;
            }
        }
        color[u] = 2;
        false
    }
    (0..n).any(|u| color[u] == 0 && dfs(u, &adj, &mut color))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tarjan-based cycle detection agrees with naive DFS.
    #[test]
    fn cycle_detection_matches_naive(edges in arb_edges(12, 40)) {
        let mut g = DiGraph::new(12);
        for &(u, v) in &edges {
            g.add_edge(u, v);
        }
        let naive = has_cycle_naive(12, &edges);
        prop_assert_eq!(g.has_cycle(), naive);
        prop_assert_eq!(g.find_cycle().is_some(), naive);
        // Any reported cycle must be a real path.
        if let Some(cycle) = g.find_cycle() {
            prop_assert!(cycle.len() >= 2);
            prop_assert_eq!(cycle.first(), cycle.last());
            for w in cycle.windows(2) {
                prop_assert!(
                    g.successors(w[0]).contains(&w[1]),
                    "cycle edge {}->{} not in graph", w[0], w[1]
                );
            }
        }
    }

    /// Transitive closure agrees with per-node BFS.
    #[test]
    fn closure_matches_bfs(edges in arb_edges(10, 30)) {
        let mut g = DiGraph::new(10);
        for &(u, v) in &edges {
            g.add_edge(u, v);
        }
        let closure = g.transitive_closure();
        for src in 0..10u32 {
            let mut reach = [false; 10];
            let mut stack: Vec<u32> = g.successors(src).to_vec();
            while let Some(x) = stack.pop() {
                if !reach[x as usize] {
                    reach[x as usize] = true;
                    stack.extend_from_slice(g.successors(x));
                }
            }
            for dst in 0..10u32 {
                prop_assert_eq!(
                    closure.get(src, dst),
                    reach[dst as usize],
                    "closure({},{})", src, dst
                );
            }
        }
    }

    /// The incremental DAG accepts exactly the edges that keep the graph
    /// acyclic, in any insertion order.
    #[test]
    fn incremental_dag_matches_batch(edges in arb_edges(10, 25)) {
        let mut dag = IncrementalDag::new(10);
        let mut accepted: Vec<(u32, u32)> = Vec::new();
        for &(u, v) in &edges {
            let before = accepted.clone();
            if dag.try_add_edge(u, v) {
                accepted.push((u, v));
                prop_assert!(
                    !has_cycle_naive(10, &accepted),
                    "DAG accepted a cycle-closing edge {}->{}", u, v
                );
            } else {
                // Rejected: adding it must indeed create a cycle (or be a
                // self loop).
                let mut with = before;
                with.push((u, v));
                prop_assert!(
                    u == v || has_cycle_naive(10, &with),
                    "DAG rejected a safe edge {}->{}", u, v
                );
            }
        }
    }

    /// Solver vs. exhaustive enumeration on small instances.
    #[test]
    fn solver_matches_bruteforce(
        known in arb_edges(6, 6),
        choices in prop::collection::vec((arb_edges(6, 2), arb_edges(6, 2)), 0..6),
    ) {
        let mut p = ChoiceProblem::new(6);
        for &(u, v) in &known {
            p.add_known(u, v);
        }
        for (a, b) in &choices {
            p.add_choice(a.clone(), b.clone());
        }
        let (out, _) = p.solve(1_000_000);

        // Brute force over all assignments. `add_known` ignores self-loops
        // (they cannot arise from history encodings), while a self-loop in
        // a *choice option* makes that assignment infeasible (the solver's
        // incremental DAG rejects it).
        let mut sat = false;
        for mask in 0..(1u32 << choices.len()) {
            let mut edges: Vec<(u32, u32)> =
                known.iter().copied().filter(|(u, v)| u != v).collect();
            let mut feasible = true;
            for (i, (a, b)) in choices.iter().enumerate() {
                let opt = if mask >> i & 1 == 0 { a } else { b };
                if opt.iter().any(|(u, v)| u == v) {
                    feasible = false;
                    break;
                }
                edges.extend_from_slice(opt);
            }
            if feasible && !has_cycle_naive(6, &edges) {
                sat = true;
                break;
            }
        }
        match out {
            SolveOutcome::Acyclic => prop_assert!(sat, "solver said SAT, brute force disagrees"),
            SolveOutcome::Cyclic(_) => prop_assert!(!sat, "solver said UNSAT, brute force found one"),
            SolveOutcome::Timeout => {} // budget too small is always sound
        }
    }

    /// On engine-generated (valid SI) histories, every inferred dependency
    /// edge is consistent with the timestamps.
    #[test]
    fn white_box_edges_respect_timestamps(seed in 0u64..200) {
        let spec = WorkloadSpec::default()
            .with_txns(120)
            .with_sessions(6)
            .with_ops_per_txn(4)
            .with_keys(16)
            .with_seed(seed);
        let store = MvccStore::new(DataKind::Kv);
        let h = run_interleaved(&store, &generate_templates(&spec), 6, seed).history;
        let deps = infer_white_box(&h);
        prop_assert!(deps.anomalies.is_empty(), "{:?}", deps.anomalies);
        for (a, b) in deps.d_edges() {
            let (ta, tb) = (&h.txns[a as usize], &h.txns[b as usize]);
            prop_assert!(ta.commit_ts < tb.commit_ts, "D edge against commit order");
        }
        for &(a, b) in &deps.rw {
            let (ta, tb) = (&h.txns[a as usize], &h.txns[b as usize]);
            prop_assert!(
                ta.start_ts < tb.commit_ts,
                "anti-dependency must precede the overwrite"
            );
        }
    }
}
