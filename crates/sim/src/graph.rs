//! Port-numbered graphs: the substrate of the §3 model.
//!
//! A [`PortGraph`] is a simple undirected graph where each node's incident
//! edges are numbered 1…deg(v) (0-based internally). Port numberings are
//! adversarial in the model; the generators in [`crate::generate`] produce
//! arbitrary (construction-order) numberings and tests permute them.
//!
//! The representation is a flat CSR (compressed sparse row) layout: one
//! `targets` arena of [`PortTarget`]s indexed by a per-node `offsets`
//! table, with `u32` node ids. This keeps a million-node Δ-regular graph
//! in two contiguous allocations (≈8 bytes per port); the flat index of
//! the port at the other end of a port's edge is `port_offset(t.node) +
//! t.port` for its target `t`. Port semantics are identical to the
//! previous nested `Vec<Vec<PortTarget>>` layout: ports are assigned in
//! edge-list order with reciprocal bookkeeping, a property
//! `tests/properties.rs` pins against an edge-list oracle.

use std::collections::VecDeque;

/// One endpoint of an edge as seen from a node: the neighbor and the
/// neighbor's port number for the connecting edge. Fields are `u32` so the
/// CSR arena stays at 8 bytes per port; cast to `usize` for indexing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PortTarget {
    /// The neighbor node id.
    pub node: u32,
    /// The port index of this edge at the neighbor.
    pub port: u32,
}

impl PortTarget {
    /// The neighbor node id as a `usize` index.
    #[inline]
    pub fn node_ix(&self) -> usize {
        self.node as usize
    }

    /// The neighbor-side port as a `usize` index.
    #[inline]
    pub fn port_ix(&self) -> usize {
        self.port as usize
    }
}

/// A simple undirected graph with per-node port numbering, stored as CSR.
///
/// ```
/// use roundelim_sim::graph::PortGraph;
/// let g = PortGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_regular(2));
/// assert_eq!(g.girth(), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for node `v`;
    /// length `node_count + 1`.
    offsets: Vec<u32>,
    /// Flat arena of port targets, all nodes back to back.
    targets: Vec<PortTarget>,
}

impl PortGraph {
    /// Builds a graph from an edge list. Ports are assigned in edge-list
    /// order. Returns `None` on self-loops, duplicate edges, or
    /// out-of-range endpoints.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Option<PortGraph> {
        if n > u32::MAX as usize {
            return None;
        }
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= n || v >= n {
                return None;
            }
            pairs.push((u as u32, v as u32));
        }
        Self::from_edge_pairs(n, &pairs)
    }

    /// Builds a graph from a `u32` edge list without an intermediate
    /// conversion pass — the entry point the million-node generators use.
    /// Same validation and port semantics as [`PortGraph::from_edges`].
    pub fn from_edge_pairs(n: usize, edges: &[(u32, u32)]) -> Option<PortGraph> {
        if n > u32::MAX as usize || edges.len() > (u32::MAX as usize) / 2 {
            return None;
        }
        let nu = n as u32;
        // Validate endpoints and detect duplicates by sorting packed edge
        // keys — O(m log m) with no hash table, and parallel-friendly.
        let mut keys: Vec<u64> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= nu || v >= nu || u == v {
                return None;
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            keys.push((u64::from(a) << 32) | u64::from(b));
        }
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        drop(keys);

        // Degree pass → prefix sums → placement pass. Ports grow in
        // edge-list order at both endpoints, exactly as the nested-Vec
        // `push` did.
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc: u32 = 0;
        offsets.push(0);
        for &d in &degree {
            acc = acc.checked_add(d)?;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![PortTarget { node: 0, port: 0 }; acc as usize];
        for &(u, v) in edges {
            let (ui, vi) = (u as usize, v as usize);
            let (cu, cv) = (cursor[ui], cursor[vi]);
            targets[cu as usize] = PortTarget { node: v, port: cv - offsets[vi] };
            targets[cv as usize] = PortTarget { node: u, port: cu - offsets[ui] };
            cursor[ui] += 1;
            cursor[vi] += 1;
        }
        Some(PortGraph { offsets, targets })
    }

    /// A `d`-regular graph on `n` nodes from its port targets, node by
    /// node in port order, so node `v`'s ports start at `v · d`. The
    /// caller guarantees `n · d ≤ u32::MAX` and that the targets are
    /// reciprocal and describe a simple graph.
    pub(crate) fn from_regular_targets(n: usize, d: usize, targets: Vec<PortTarget>) -> PortGraph {
        debug_assert_eq!(targets.len(), n * d, "d targets per node");
        let offsets = (0..=n).map(|v| (v * d) as u32).collect();
        PortGraph { offsets, targets }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Total number of ports (`2 · edge_count`); the length of every flat
    /// per-port arena aligned with this graph.
    pub fn total_ports(&self) -> usize {
        self.targets.len()
    }

    /// Index of `v`'s port 0 in flat per-port arenas (see
    /// [`PortGraph::total_ports`]).
    #[inline]
    pub fn port_offset(&self, v: usize) -> usize {
        self.offsets[v] as usize
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Whether all nodes have degree `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        (0..self.node_count()).all(|v| self.degree(v) == d)
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The neighbor reached through `port` of `v`.
    #[inline]
    pub fn neighbor(&self, v: usize, port: usize) -> PortTarget {
        self.targets[self.offsets[v] as usize + port]
    }

    /// All port targets of `v`, in port order.
    #[inline]
    pub fn ports(&self, v: usize) -> &[PortTarget] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates over edges as `(u, port_at_u, v, port_at_v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.ports(u).iter().enumerate().filter_map(move |(pu, t)| {
                if u < t.node_ix() {
                    Some((u, pu, t.node_ix(), t.port_ix()))
                } else {
                    None
                }
            })
        })
    }

    /// The nodes reachable from `root` in BFS order (neighbors explored in
    /// port order). Part of the pinned port semantics: property tests
    /// compare this against the edge-list oracle.
    pub fn bfs_order(&self, root: usize) -> Vec<u32> {
        let n = self.node_count();
        assert!(root < n, "bfs root out of range");
        let mut seen = vec![false; n];
        let mut order = Vec::new();
        let mut queue = VecDeque::from([root as u32]);
        seen[root] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for t in self.ports(u as usize) {
                if !seen[t.node_ix()] {
                    seen[t.node_ix()] = true;
                    queue.push_back(t.node);
                }
            }
        }
        order
    }

    /// The girth (length of a shortest cycle), or `None` for forests.
    ///
    /// BFS from every node; O(V·E) — intended for the modest test graphs.
    pub fn girth(&self) -> Option<usize> {
        let n = self.node_count();
        let mut best: Option<usize> = None;
        for root in 0..n {
            let mut dist = vec![u32::MAX; n];
            let mut parent = vec![u32::MAX; n];
            dist[root] = 0;
            let mut queue = VecDeque::from([root as u32]);
            while let Some(u) = queue.pop_front() {
                let ui = u as usize;
                for t in self.ports(ui) {
                    let vi = t.node_ix();
                    if dist[vi] == u32::MAX {
                        dist[vi] = dist[ui] + 1;
                        parent[vi] = u;
                        queue.push_back(t.node);
                    } else if parent[ui] != t.node {
                        // Cycle through root candidate.
                        let len = (dist[ui] + dist[vi] + 1) as usize;
                        if best.is_none_or(|b| len < b) {
                            best = Some(len);
                        }
                    }
                }
            }
        }
        best
    }

    /// Renumbers the ports of every node by the given permutations
    /// (`perms[v]` maps new port index → old port index). Used to realize
    /// adversarial port numberings in tests.
    ///
    /// # Panics
    ///
    /// Panics if a permutation has the wrong length or is not a bijection.
    #[must_use]
    pub fn with_port_permutations(&self, perms: &[Vec<usize>]) -> PortGraph {
        assert_eq!(perms.len(), self.node_count());
        // old→new port maps
        let inverse: Vec<Vec<u32>> = perms
            .iter()
            .enumerate()
            .map(|(v, p)| {
                assert_eq!(p.len(), self.degree(v), "permutation length mismatch at node {v}");
                let mut inv = vec![u32::MAX; p.len()];
                for (new, &old) in p.iter().enumerate() {
                    assert!(inv[old] == u32::MAX, "not a permutation at node {v}");
                    inv[old] = new as u32;
                }
                inv
            })
            .collect();
        let mut targets = Vec::with_capacity(self.targets.len());
        for (v, perm) in perms.iter().enumerate() {
            for &old in perm {
                let t = self.neighbor(v, old);
                targets.push(PortTarget { node: t.node, port: inverse[t.node_ix()][t.port_ix()] });
            }
        }
        PortGraph { offsets: self.offsets.clone(), targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect_cycle() {
        let g = PortGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.total_ports(), 10);
        assert!(g.is_regular(2));
        assert_eq!(g.girth(), Some(5));
        // port symmetry: following a port and coming back works
        for v in 0..5 {
            for p in 0..g.degree(v) {
                let t = g.neighbor(v, p);
                let back = g.neighbor(t.node_ix(), t.port_ix());
                assert_eq!(back.node_ix(), v);
                assert_eq!(back.port_ix(), p);
            }
        }
    }

    #[test]
    fn rejects_malformed_edge_lists() {
        assert!(PortGraph::from_edges(3, &[(0, 0)]).is_none()); // self loop
        assert!(PortGraph::from_edges(3, &[(0, 1), (1, 0)]).is_none()); // duplicate
        assert!(PortGraph::from_edges(3, &[(0, 5)]).is_none()); // out of range
        assert!(PortGraph::from_edge_pairs(3, &[(1, 1)]).is_none());
        assert!(PortGraph::from_edge_pairs(3, &[(0, 1), (1, 0)]).is_none());
    }

    #[test]
    fn girth_of_tree_is_none() {
        let g = PortGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.girth(), None);
        assert_eq!(g.max_degree(), 3);
        assert!(!g.is_regular(3));
    }

    #[test]
    fn girth_of_k4_is_three() {
        let g =
            PortGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(g.girth(), Some(3));
        assert!(g.is_regular(3));
    }

    #[test]
    fn port_permutation_preserves_structure() {
        let g = PortGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let perms: Vec<Vec<usize>> = (0..4).map(|v| (0..g.degree(v)).rev().collect()).collect();
        let h = g.with_port_permutations(&perms);
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(h.girth(), g.girth());
        for v in 0..4 {
            for p in 0..h.degree(v) {
                let t = h.neighbor(v, p);
                let back = h.neighbor(t.node_ix(), t.port_ix());
                assert_eq!((back.node_ix(), back.port_ix()), (v, p));
            }
        }
    }

    #[test]
    fn edges_iterator_is_complete() {
        let g = PortGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 3);
        for (u, pu, v, pv) in es {
            assert_eq!(g.neighbor(u, pu).node_ix(), v);
            assert_eq!(g.neighbor(v, pv).node_ix(), u);
        }
    }

    #[test]
    fn bfs_order_follows_ports() {
        // Star with center 0; BFS explores neighbors in port order, which
        // is edge-list order.
        let g = PortGraph::from_edges(4, &[(0, 2), (0, 1), (0, 3)]).unwrap();
        assert_eq!(g.bfs_order(0), vec![0, 2, 1, 3]);
        assert_eq!(g.bfs_order(2), vec![2, 0, 1, 3]);
    }

    #[test]
    fn csr_equals_itself_under_rebuild() {
        let edges = [(0usize, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let a = PortGraph::from_edges(4, &edges).unwrap();
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u as u32, v as u32)).collect();
        let b = PortGraph::from_edge_pairs(4, &pairs).unwrap();
        assert_eq!(a, b);
    }
}
