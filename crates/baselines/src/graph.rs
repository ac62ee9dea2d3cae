//! Directed-graph algorithms for the baseline checkers: iterative Tarjan
//! SCC (histories have 10⁵+ nodes — no recursion), incremental cycle
//! detection for the constraint solver (Pearce–Kelly style), and bitset
//! transitive closure for Cobra/PolySI-style pruning.

use aion_types::{FxHashMap, FxHashSet};

/// A simple adjacency-list digraph over `0..n` nodes.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl DiGraph {
    /// A graph with `n` nodes and no edges.
    pub fn new(n: usize) -> DiGraph {
        DiGraph { adj: vec![Vec::new(); n], edges: 0 }
    }

    /// Number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (duplicates counted).
    pub(crate) fn num_edges(&self) -> usize {
        self.edges
    }

    /// Add edge `u → v`.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.adj[u as usize].push(v);
        self.edges += 1;
    }

    /// Successors of `u`.
    pub fn successors(&self, u: u32) -> &[u32] {
        &self.adj[u as usize]
    }

    /// Strongly connected components (iterative Tarjan), in reverse
    /// topological order of the condensation.
    pub(crate) fn tarjan_scc(&self) -> Vec<Vec<u32>> {
        let n = self.adj.len();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        // Explicit DFS frame: (node, next-child position).
        let mut call: Vec<(u32, usize)> = Vec::new();

        for root in 0..n as u32 {
            if index[root as usize] != u32::MAX {
                continue;
            }
            call.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut child)) = call.last_mut() {
                let vu = v as usize;
                if *child < self.adj[vu].len() {
                    let w = self.adj[vu][*child];
                    *child += 1;
                    let wu = w as usize;
                    if index[wu] == u32::MAX {
                        index[wu] = next_index;
                        low[wu] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[wu] = true;
                        call.push((w, 0));
                    } else if on_stack[wu] {
                        low[vu] = low[vu].min(index[wu]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let pu = parent as usize;
                        low[pu] = low[pu].min(low[vu]);
                    }
                    if low[vu] == index[vu] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// True when the graph contains a (non-trivial or self-loop) cycle.
    pub fn has_cycle(&self) -> bool {
        if self.tarjan_scc().iter().any(|scc| scc.len() > 1) {
            return true;
        }
        // Self loops are their own SCCs of size 1.
        self.adj.iter().enumerate().any(|(u, vs)| vs.iter().any(|&v| v as usize == u))
    }

    /// Some cycle as a node sequence (first node repeated at the end), if
    /// any exists.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        // Self loop?
        for (u, vs) in self.adj.iter().enumerate() {
            if vs.iter().any(|&v| v as usize == u) {
                return Some(vec![u as u32, u as u32]);
            }
        }
        let scc = self.tarjan_scc().into_iter().find(|s| s.len() > 1)?;
        // DFS inside the SCC from its first node back to itself.
        let inside: FxHashSet<u32> = scc.iter().copied().collect();
        let start = scc[0];
        let mut parent: FxHashMap<u32, u32> = FxHashMap::default();
        let mut stack = vec![start];
        let mut visited: FxHashSet<u32> = FxHashSet::default();
        visited.insert(start);
        while let Some(u) = stack.pop() {
            for &v in self.successors(u) {
                if v == start {
                    // Reconstruct path start → ... → u → start.
                    let mut path = vec![start];
                    let mut cur = u;
                    let mut rev = vec![];
                    while cur != start {
                        rev.push(cur);
                        cur = parent[&cur];
                    }
                    rev.reverse();
                    path.extend(rev);
                    path.push(start);
                    return Some(path);
                }
                if inside.contains(&v) && visited.insert(v) {
                    parent.insert(v, u);
                    stack.push(v);
                }
            }
        }
        None
    }

    /// Transitive closure as row bitsets (`closure[u]` has bit `v` set iff
    /// `u →* v`, `u ≠ v` unless on a cycle). Quadratic memory: use for the
    /// solver's pruning on small-to-medium graphs only.
    pub fn transitive_closure(&self) -> BitMatrix {
        let n = self.adj.len();
        let mut m = BitMatrix::new(n);
        // Process in reverse topological order of the condensation so each
        // row is computed once.
        let sccs = self.tarjan_scc(); // reverse topological order
        for scc in &sccs {
            // Union of all successors' rows plus direct successors.
            let mut row = vec![0u64; m.words];
            for &u in scc {
                for &v in self.successors(u) {
                    row[(v as usize) / 64] |= 1 << (v % 64);
                    let (a, b) = (v as usize * m.words, v as usize * m.words + m.words);
                    let src = m.bits[a..b].to_vec();
                    for (dst, s) in row.iter_mut().zip(src) {
                        *dst |= s;
                    }
                }
            }
            // Nodes in a non-trivial SCC reach each other.
            if scc.len() > 1 {
                for &u in scc {
                    row[(u as usize) / 64] |= 1 << (u % 64);
                }
            }
            for &u in scc {
                let (a, b) = (u as usize * m.words, u as usize * m.words + m.words);
                m.bits[a..b].copy_from_slice(&row);
            }
        }
        m
    }
}

/// A dense boolean matrix packed into 64-bit words.
#[derive(Clone, Debug)]
pub struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-false `n × n` matrix.
    pub(crate) fn new(n: usize) -> BitMatrix {
        let words = n.div_ceil(64);
        BitMatrix { words, bits: vec![0; n * words] }
    }

    /// Get cell `(u, v)`.
    #[inline]
    pub fn get(&self, u: u32, v: u32) -> bool {
        self.bits[u as usize * self.words + v as usize / 64] >> (v % 64) & 1 == 1
    }
}

/// Incrementally maintained acyclic graph (Pearce–Kelly): edges are added
/// one at a time; an addition that would close a cycle is rejected. Used
/// by the constraint solver, where choices add/retract edge sets.
#[derive(Clone, Debug)]
pub struct IncrementalDag {
    adj: Vec<Vec<u32>>,
    radj: Vec<Vec<u32>>,
    /// Topological order index per node.
    ord: Vec<u32>,
}

impl IncrementalDag {
    /// A DAG with `n` nodes.
    pub fn new(n: usize) -> IncrementalDag {
        IncrementalDag {
            adj: vec![Vec::new(); n],
            radj: vec![Vec::new(); n],
            ord: (0..n as u32).collect(),
        }
    }

    /// Attempt to add `u → v`. Returns false (graph unchanged) if this
    /// would create a cycle.
    pub fn try_add_edge(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        if self.ord[u as usize] > self.ord[v as usize] {
            // Potential order violation: discover the affected region.
            let lb = self.ord[v as usize];
            let ub = self.ord[u as usize];
            // Forward from v within (lb..=ub); if we hit u, it's a cycle.
            let mut fwd = Vec::new();
            let mut stack = vec![v];
            let mut seen = vec![false; self.adj.len()];
            seen[v as usize] = true;
            while let Some(x) = stack.pop() {
                if x == u {
                    return false; // cycle
                }
                fwd.push(x);
                for &y in &self.adj[x as usize] {
                    if !seen[y as usize] && self.ord[y as usize] <= ub {
                        seen[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            // Backward from u within (lb..=ub).
            let mut bwd = Vec::new();
            let mut stack = vec![u];
            let mut seen_b = vec![false; self.adj.len()];
            seen_b[u as usize] = true;
            while let Some(x) = stack.pop() {
                bwd.push(x);
                for &y in &self.radj[x as usize] {
                    if !seen_b[y as usize] && self.ord[y as usize] >= lb {
                        seen_b[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            // Reassign the affected order slots: backward set first.
            let mut slots: Vec<u32> =
                fwd.iter().chain(bwd.iter()).map(|&x| self.ord[x as usize]).collect();
            slots.sort_unstable();
            bwd.sort_by_key(|&x| self.ord[x as usize]);
            fwd.sort_by_key(|&x| self.ord[x as usize]);
            for (slot, &node) in slots.iter().zip(bwd.iter().chain(fwd.iter())) {
                self.ord[node as usize] = *slot;
            }
        }
        self.adj[u as usize].push(v);
        self.radj[v as usize].push(u);
        true
    }

    /// Remove a previously added edge `u → v` (most-recent occurrence).
    pub(crate) fn remove_edge(&mut self, u: u32, v: u32) {
        if let Some(p) = self.adj[u as usize].iter().rposition(|&x| x == v) {
            self.adj[u as usize].remove(p);
        }
        if let Some(p) = self.radj[v as usize].iter().rposition(|&x| x == u) {
            self.radj[v as usize].remove(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32)]) -> DiGraph {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let g = graph(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(!g.has_cycle());
        assert!(g.find_cycle().is_none());
        assert_eq!(g.tarjan_scc().len(), 4);
    }

    #[test]
    fn simple_cycle_detected() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(g.has_cycle());
        let c = g.find_cycle().unwrap();
        assert_eq!(c.first(), c.last());
        assert!(c.len() >= 3);
    }

    #[test]
    fn self_loop_detected() {
        let g = graph(2, &[(0, 0)]);
        assert!(g.has_cycle());
        assert_eq!(g.find_cycle(), Some(vec![0, 0]));
    }

    #[test]
    fn tarjan_groups_components() {
        let g = graph(5, &[(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]);
        let mut sizes: Vec<usize> = g.tarjan_scc().iter().map(Vec::len).collect();
        sizes.sort();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn tarjan_handles_deep_chains_without_overflow() {
        // 200k-node chain would overflow a recursive implementation.
        let n = 200_000;
        let mut g = DiGraph::new(n);
        for i in 0..n as u32 - 1 {
            g.add_edge(i, i + 1);
        }
        assert_eq!(g.tarjan_scc().len(), n);
        assert!(!g.has_cycle());
    }

    #[test]
    fn closure_reflects_reachability() {
        let g = graph(4, &[(0, 1), (1, 2)]);
        let c = g.transitive_closure();
        assert!(c.get(0, 1));
        assert!(c.get(0, 2));
        assert!(c.get(1, 2));
        assert!(!c.get(2, 0));
        assert!(!c.get(0, 3));
        assert!(!c.get(0, 0));
    }

    #[test]
    fn closure_on_cycle_is_reflexive_inside_scc() {
        let g = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        let c = g.transitive_closure();
        assert!(c.get(0, 0));
        assert!(c.get(1, 1));
        assert!(c.get(0, 2));
        assert!(!c.get(2, 2));
    }

    #[test]
    fn incremental_dag_accepts_forward_edges() {
        let mut d = IncrementalDag::new(4);
        assert!(d.try_add_edge(0, 1));
        assert!(d.try_add_edge(1, 2));
        assert!(d.try_add_edge(0, 3));
        assert!(d.try_add_edge(3, 2));
    }

    #[test]
    fn incremental_dag_rejects_cycles() {
        let mut d = IncrementalDag::new(3);
        assert!(d.try_add_edge(0, 1));
        assert!(d.try_add_edge(1, 2));
        assert!(!d.try_add_edge(2, 0), "closing edge must be rejected");
        assert!(!d.try_add_edge(0, 0), "self loop rejected");
        // Graph unchanged: the reverse edge is still fine after removal.
        d.remove_edge(1, 2);
        assert!(d.try_add_edge(2, 0));
        assert!(!d.try_add_edge(1, 2), "now 1→2 closes 1→2→0→1? no — 2→0,0→1 gives 1→2 cycle");
    }

    #[test]
    fn incremental_dag_reorders_on_back_edges() {
        let mut d = IncrementalDag::new(5);
        // Insert edges in an order that forces repeated reordering.
        assert!(d.try_add_edge(3, 4));
        assert!(d.try_add_edge(2, 3));
        assert!(d.try_add_edge(1, 2));
        assert!(d.try_add_edge(0, 1));
        assert!(!d.try_add_edge(4, 0));
        assert!(d.try_add_edge(0, 4));
    }
}
