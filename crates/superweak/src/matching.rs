//! Bipartite maximum matching (Hopcroft–Karp) and Hall-violator
//! extraction — the combinatorial engine behind Lemma 2.
//!
//! The Lemma 2 proof applies Hall's marriage theorem to a bipartite graph
//! G′ built from a node's Π'₁ output: *either* a matching covers the left
//! side (and the proof converts it into a Property-A-violating choice),
//! *or* some left set `J′` has `|J′| > |N(J′)|` (a Hall violator, extracted
//! here via the standard alternating-reachability/König argument).

/// A bipartite graph on `left_count × right_count` vertices given by
/// adjacency lists from the left side.
#[derive(Debug, Clone)]
pub struct Bipartite {
    left_count: usize,
    right_count: usize,
    adj: Vec<Vec<usize>>,
}

impl Bipartite {
    /// Creates an empty bipartite graph.
    pub fn new(left_count: usize, right_count: usize) -> Bipartite {
        Bipartite { left_count, right_count, adj: vec![Vec::new(); left_count] }
    }

    /// Adds an edge between left vertex `l` and right vertex `r`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.left_count && r < self.right_count, "edge out of range");
        self.adj[l].push(r);
    }

    /// Neighbors of left vertex `l`.
    pub fn neighbors(&self, l: usize) -> &[usize] {
        &self.adj[l]
    }
}

/// A maximum matching: `left_match[l] = Some(r)` and `right_match[r] =
/// Some(l)` for matched pairs.
#[derive(Debug, Clone)]
pub struct Matching {
    /// Right partner of each left vertex.
    pub left_match: Vec<Option<usize>>,
    /// Left partner of each right vertex.
    pub right_match: Vec<Option<usize>>,
}

impl Matching {
    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.left_match.iter().flatten().count()
    }

    /// Whether every left vertex is matched.
    pub fn covers_left(&self) -> bool {
        self.left_match.iter().all(Option::is_some)
    }
}

/// Computes a maximum matching with Hopcroft–Karp (O(E·√V)).
pub fn maximum_matching(g: &Bipartite) -> Matching {
    const INF: u32 = u32::MAX;
    let (n, m) = (g.left_count, g.right_count);
    let mut left_match: Vec<Option<usize>> = vec![None; n];
    let mut right_match: Vec<Option<usize>> = vec![None; m];
    let mut dist = vec![INF; n];

    loop {
        // BFS layers from free left vertices.
        let mut queue = std::collections::VecDeque::new();
        for l in 0..n {
            if left_match[l].is_none() {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(l) = queue.pop_front() {
            for &r in &g.adj[l] {
                match right_match[r] {
                    None => found_augmenting = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS augmenting along layered structure.
        fn try_augment(
            l: usize,
            g: &Bipartite,
            dist: &mut Vec<u32>,
            left_match: &mut Vec<Option<usize>>,
            right_match: &mut Vec<Option<usize>>,
        ) -> bool {
            for i in 0..g.adj[l].len() {
                let r = g.adj[l][i];
                let ok = match right_match[r] {
                    None => true,
                    Some(l2) => {
                        dist[l2] == dist[l] + 1 && try_augment(l2, g, dist, left_match, right_match)
                    }
                };
                if ok {
                    left_match[l] = Some(r);
                    right_match[r] = Some(l);
                    return true;
                }
            }
            dist[l] = u32::MAX;
            false
        }
        for l in 0..n {
            if left_match[l].is_none() {
                try_augment(l, g, &mut dist, &mut left_match, &mut right_match);
            }
        }
    }
    Matching { left_match, right_match }
}

/// A Hall violator: a left set `J` with `|J| > |N(J)|`, witnessing that no
/// matching covers the left side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HallViolator {
    /// The violating left vertices.
    pub left: Vec<usize>,
    /// Their joint neighborhood (strictly smaller).
    pub neighborhood: Vec<usize>,
}

impl HallViolator {
    /// Re-checks the violator against the graph.
    pub fn verify(&self, g: &Bipartite) -> bool {
        if self.left.len() <= self.neighborhood.len() {
            return false;
        }
        let nb: std::collections::BTreeSet<usize> = self.neighborhood.iter().copied().collect();
        self.left.iter().all(|&l| g.neighbors(l).iter().all(|r| nb.contains(r)))
    }
}

/// Extracts a Hall violator from a maximum matching that fails to cover
/// the left side (König / alternating reachability: take the left vertices
/// reachable from a free left vertex by alternating paths; their
/// neighborhood is exactly the reachable — and matched — right side).
///
/// Returns `None` when the matching covers the left side.
pub fn hall_violator(g: &Bipartite, matching: &Matching) -> Option<HallViolator> {
    let free: Vec<usize> =
        (0..g.left_count).filter(|&l| matching.left_match[l].is_none()).collect();
    if free.is_empty() {
        return None;
    }
    let mut left_seen = vec![false; g.left_count];
    let mut right_seen = vec![false; g.right_count];
    let mut queue: std::collections::VecDeque<usize> = free.iter().copied().collect();
    for &l in &free {
        left_seen[l] = true;
    }
    while let Some(l) = queue.pop_front() {
        for &r in g.neighbors(l) {
            if !right_seen[r] {
                right_seen[r] = true;
                // In a maximum matching every reachable right vertex is
                // matched (else an augmenting path would exist).
                if let Some(l2) = matching.right_match[r] {
                    if !left_seen[l2] {
                        left_seen[l2] = true;
                        queue.push_back(l2);
                    }
                }
            }
        }
    }
    let left: Vec<usize> = (0..g.left_count).filter(|&l| left_seen[l]).collect();
    let neighborhood: Vec<usize> = (0..g.right_count).filter(|&r| right_seen[r]).collect();
    debug_assert!(left.len() > neighborhood.len());
    Some(HallViolator { left, neighborhood })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_found() {
        // K_{3,3} minus nothing: perfect matching exists.
        let mut g = Bipartite::new(3, 3);
        for l in 0..3 {
            for r in 0..3 {
                g.add_edge(l, r);
            }
        }
        let m = maximum_matching(&g);
        assert_eq!(m.size(), 3);
        assert!(m.covers_left());
        assert!(hall_violator(&g, &m).is_none());
    }

    #[test]
    fn hall_violator_extracted() {
        // Three left vertices all adjacent only to right vertex 0.
        let mut g = Bipartite::new(3, 2);
        for l in 0..3 {
            g.add_edge(l, 0);
        }
        let m = maximum_matching(&g);
        assert_eq!(m.size(), 1);
        let v = hall_violator(&g, &m).unwrap();
        assert!(v.verify(&g));
        assert_eq!(v.left.len(), 3);
        assert_eq!(v.neighborhood, vec![0]);
    }

    #[test]
    fn matching_respects_structure() {
        // Path-like: l0-r0, l1-{r0,r1}: matching size 2.
        let mut g = Bipartite::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        let m = maximum_matching(&g);
        assert_eq!(m.size(), 2);
        assert_eq!(m.left_match[0], Some(0));
        assert_eq!(m.left_match[1], Some(1));
    }

    #[test]
    fn isolated_left_vertex_is_trivial_violator() {
        let mut g = Bipartite::new(2, 1);
        g.add_edge(0, 0);
        let m = maximum_matching(&g);
        let v = hall_violator(&g, &m).unwrap();
        assert!(v.verify(&g));
        // vertex 1 has no neighbors: {1} with N = {} qualifies; the
        // reachability construction may also include the whole component.
        assert!(v.left.contains(&1));
    }

    #[test]
    fn randomized_matching_is_maximum() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(1..=7);
            let m = rng.gen_range(1..=7);
            let mut g = Bipartite::new(n, m);
            for l in 0..n {
                for r in 0..m {
                    if rng.gen_bool(0.4) {
                        g.add_edge(l, r);
                    }
                }
            }
            let matching = maximum_matching(&g);
            // Brute-force maximum by backtracking.
            fn brute(g: &Bipartite, l: usize, used: &mut Vec<bool>) -> usize {
                if l == g.left_count {
                    return 0;
                }
                let mut best = brute(g, l + 1, used); // skip l
                for &r in g.neighbors(l) {
                    if !used[r] {
                        used[r] = true;
                        best = best.max(1 + brute(g, l + 1, used));
                        used[r] = false;
                    }
                }
                best
            }
            let mut used = vec![false; m];
            assert_eq!(matching.size(), brute(&g, 0, &mut used));
            // Dichotomy: either covers left or violator verifies.
            match hall_violator(&g, &matching) {
                None => assert!(matching.covers_left()),
                Some(v) => assert!(v.verify(&g)),
            }
        }
    }
}
