//! Textbook graph families.

use crate::csr::{Duplicates, Graph, VertexId};
use crate::topology::CompleteTopo;

/// Complete graph `K_n`. The paper's claim (i): COBRA covers `K_n` in
/// `O(log n)` rounds.
///
/// Copies the rows of [`CompleteTopo`] into CSR, with no edge list and
/// no sort, so the build holds only the finished `4·n(n−1) + 8·(n + 1)`
/// bytes of arrays. `complete(0)` is the empty graph.
pub fn complete(n: usize) -> Graph {
    if n == 0 {
        return Graph::from_edges(0, &[]).expect("the empty graph is valid");
    }
    Graph::from_topology(&CompleteTopo::new(n))
}

/// Cycle `C_n` (`n ≥ 3`). 2-regular, diameter `⌊n/2⌋`, bipartite iff `n`
/// is even.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3, got {n}");
    let edges: Vec<_> = (0..n as VertexId)
        .map(|u| (u, ((u as usize + 1) % n) as VertexId))
        .collect();
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("cycle edges are valid")
}

/// Path `P_n` (`n ≥ 1`): vertices `0..n` in a line. The `m = n−1`,
/// `dmax = 2` stress case for Theorem 1.1's `O(m + dmax² log n)`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path needs n >= 1");
    let edges: Vec<_> = (1..n as VertexId).map(|u| (u - 1, u)).collect();
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("path edges are valid")
}

/// Star `S_n`: centre 0 joined to `n−1` leaves (`n ≥ 2`). Extreme
/// `dmax = n−1` case for Theorem 1.1.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs n >= 2");
    let edges: Vec<_> = (1..n as VertexId).map(|v| (0, v)).collect();
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("star edges are valid")
}

/// Wheel `W_n`: a cycle on `n−1 ≥ 3` rim vertices plus a hub adjacent to
/// every rim vertex.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs n >= 4");
    let rim = n - 1;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * rim);
    for i in 0..rim {
        let u = (1 + i) as VertexId;
        let v = (1 + (i + 1) % rim) as VertexId;
        edges.push((u, v));
        edges.push((0, u));
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("wheel edges are valid")
}

/// Complete bipartite graph `K_{a,b}`: sides `0..a` and `a..a+b`.
/// Bipartite, so the plain chain has `λ = 1` — the family the paper's
/// lazy variant exists for.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a >= 1 && b >= 1, "K_{{a,b}} needs both sides nonempty");
    let n = a + b;
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a as VertexId {
        for v in a as VertexId..n as VertexId {
            edges.push((u, v));
        }
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("complete bipartite edges are valid")
}

/// The Petersen graph: 10 vertices, 15 edges, 3-regular, vertex-transitive,
/// diameter 2. A standard small non-bipartite test case; its transition
/// matrix has eigenvalues {1, 1/3 (×5), −2/3 (×4)}.
pub fn petersen() -> Graph {
    // Outer 5-cycle 0..5, inner pentagram 5..10, spokes i — i+5.
    let mut edges = Vec::with_capacity(15);
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5));
        edges.push((5 + i, 5 + (i + 2) % 5));
        edges.push((i, i + 5));
    }
    Graph::from_edge_vec(10, edges, Duplicates::Reject).expect("petersen edges are valid")
}

/// Double star: two centres joined by an edge, with `a` and `b` leaves
/// respectively. Irregular, diameter 3; exercises Theorem 1.1 on graphs
/// with two hubs.
pub fn double_star(a: usize, b: usize) -> Graph {
    let n = a + b + 2;
    let c0 = 0 as VertexId;
    let c1 = 1 as VertexId;
    let mut edges = vec![(c0, c1)];
    for i in 0..a {
        edges.push((c0, (2 + i) as VertexId));
    }
    for i in 0..b {
        edges.push((c1, (2 + a + i) as VertexId));
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("double star edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.regularity(), Some(5));
        assert!(props::is_connected(&g));
        assert!(!props::is_bipartite(&g));
        assert_eq!(props::diameter(&g), Some(1));
    }

    #[test]
    fn complete_k1_and_k2() {
        assert_eq!(complete(1).m(), 0);
        let k2 = complete(2);
        assert_eq!(k2.m(), 1);
        assert!(props::is_bipartite(&k2));
    }

    #[test]
    fn cycle_structure() {
        let g = cycle(7);
        assert_eq!(g.m(), 7);
        assert_eq!(g.regularity(), Some(2));
        assert_eq!(props::diameter(&g), Some(3));
        assert!(!props::is_bipartite(&g));
        assert!(props::is_bipartite(&cycle(8)));
    }

    #[test]
    fn path_structure() {
        let g = path(5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(props::diameter(&g), Some(4));
        assert!(props::is_bipartite(&g));
        // Single vertex path is a valid degenerate graph.
        let p1 = path(1);
        assert_eq!(p1.n(), 1);
        assert_eq!(p1.m(), 0);
    }

    #[test]
    fn star_structure() {
        let g = star(9);
        assert_eq!(g.m(), 8);
        assert_eq!(g.max_degree(), 8);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(props::diameter(&g), Some(2));
        assert!(props::is_bipartite(&g));
    }

    #[test]
    fn wheel_structure() {
        let g = wheel(6); // hub + C5
        assert_eq!(g.m(), 10);
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(1), 3);
        assert!(props::is_connected(&g));
        assert!(!props::is_bipartite(&g));
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        assert!(props::is_bipartite(&g));
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 3);
        assert_eq!(props::diameter(&g), Some(2));
    }

    #[test]
    fn petersen_structure() {
        let g = petersen();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        assert_eq!(g.regularity(), Some(3));
        assert_eq!(props::diameter(&g), Some(2));
        assert!(!props::is_bipartite(&g));
        // Girth 5: no triangles, no 4-cycles through edge (0,1).
        for (u, v) in g.edges() {
            for &w in g.neighbors(u) {
                if w != v {
                    assert!(!g.has_edge(w, v), "triangle found");
                }
            }
        }
    }

    #[test]
    fn double_star_structure() {
        let g = double_star(3, 5);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 9);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 6);
        assert_eq!(props::diameter(&g), Some(3));
        assert!(props::is_bipartite(&g));
    }
}
