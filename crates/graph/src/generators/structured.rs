//! Structured families with tunable spectral/conductance parameters.
//!
//! Theorem 1.2's bound `O((r/(1−λ) + r²) log n)` needs regular graphs
//! whose eigenvalue gap can be dialled; Theorem 1.1's general bound wants
//! graphs engineered to be hard (hubs, bottlenecks, long appendages).

use crate::csr::{Duplicates, Graph, VertexId};

/// Circulant graph `C_n(S)`: vertex `i` adjacent to `i ± s (mod n)` for
/// each offset `s ∈ S`. Regular with degree `2|S|` (or `2|S|−1` when
/// `n` is even and `n/2 ∈ S`).
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    assert!(n >= 3, "circulant needs n >= 3");
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for &s in offsets {
        assert!(
            s >= 1 && s <= n / 2,
            "offset {s} out of range 1..={}",
            n / 2
        );
        for i in 0..n {
            let j = (i + s) % n;
            edges.push((i as VertexId, j as VertexId));
        }
    }
    Graph::from_edge_vec(n, edges, Duplicates::Merge).expect("circulant edges are valid")
}

/// Cycle power `C_n^k`: vertex `i` adjacent to the `k` nearest vertices
/// on each side. `2k`-regular for `n > 2k`; as `n` grows at fixed `k`
/// the eigenvalue gap shrinks like `Θ(k²/n²)` — the family used for the
/// Theorem 1.2 gap sweep.
pub fn cycle_power(n: usize, k: usize) -> Graph {
    assert!(k >= 1, "cycle power needs k >= 1");
    assert!(n > 2 * k, "cycle power needs n > 2k (got n={n}, k={k})");
    let offsets: Vec<usize> = (1..=k).collect();
    circulant(n, &offsets)
}

/// Regular ring of cliques: `k ≥ 3` cliques of size `c ≥ 3`; inside each
/// clique one edge `{a_i, b_i}` is removed and the ring edges
/// `b_i — a_{i+1}` are added, so every vertex has degree `c − 1`.
///
/// This is a `(c−1)`-regular graph with a conductance bottleneck of one
/// edge per clique boundary: the eigenvalue gap decays like `Θ(1/(k²c))`
/// at fixed `c`, giving a second, structurally different family for the
/// Theorem 1.2 sweep.
pub fn ring_of_cliques(k: usize, c: usize) -> Graph {
    assert!(k >= 3, "ring of cliques needs k >= 3 cliques");
    assert!(c >= 3, "ring of cliques needs clique size >= 3");
    let n = k * c;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for i in 0..k {
        let base = (i * c) as VertexId;
        // Clique on base..base+c minus the edge {base, base+1}.
        for a in 0..c as VertexId {
            for b in (a + 1)..c as VertexId {
                if !(a == 0 && b == 1) {
                    edges.push((base + a, base + b));
                }
            }
        }
        // Ring edge: b_i = base+1 connects to a_{i+1} = next clique's base.
        let next_base = (((i + 1) % k) * c) as VertexId;
        edges.push((base + 1, next_base));
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("ring of cliques edges are valid")
}

/// Barbell graph: two cliques `K_c` joined by a path of `p ≥ 0` interior
/// vertices. The classic worst case for random-walk cover times; for
/// COBRA it stresses the `O(m + dmax² log n)` bound with `m = Θ(c²)`.
pub fn barbell(c: usize, p: usize) -> Graph {
    assert!(c >= 2, "barbell cliques need size >= 2");
    let n = 2 * c + p;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    // Left clique 0..c, right clique c+p..n.
    for a in 0..c as VertexId {
        for b in (a + 1)..c as VertexId {
            edges.push((a, b));
            edges.push((a + (c + p) as VertexId, b + (c + p) as VertexId));
        }
    }
    // Path c-1 — c — c+1 — … — c+p (bridging vertex c-1 of left clique to
    // vertex c+p of right clique).
    let mut prev = (c - 1) as VertexId;
    for i in 0..p {
        let w = (c + i) as VertexId;
        edges.push((prev, w));
        prev = w;
    }
    edges.push((prev, (c + p) as VertexId));
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("barbell edges are valid")
}

/// Lollipop graph: a clique `K_c` with a path of `p` vertices attached.
/// Maximises hitting-time asymmetry; used for the worst-case-start
/// ablation.
pub fn lollipop(c: usize, p: usize) -> Graph {
    assert!(c >= 2, "lollipop clique needs size >= 2");
    let n = c + p;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for a in 0..c as VertexId {
        for b in (a + 1)..c as VertexId {
            edges.push((a, b));
        }
    }
    let mut prev = (c - 1) as VertexId;
    for i in 0..p {
        let w = (c + i) as VertexId;
        edges.push((prev, w));
        prev = w;
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("lollipop edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    #[test]
    fn circulant_basic() {
        let g = circulant(8, &[1, 2]);
        assert_eq!(g.regularity(), Some(4));
        assert_eq!(g.m(), 16);
        assert!(props::is_connected(&g));
        // n even with offset n/2 gives odd degree.
        let h = circulant(8, &[1, 4]);
        assert_eq!(h.regularity(), Some(3));
    }

    #[test]
    fn cycle_power_k1_is_cycle() {
        assert_eq!(cycle_power(9, 1), crate::generators::cycle(9));
    }

    #[test]
    fn cycle_power_regularity() {
        for k in 1..5 {
            let g = cycle_power(32, k);
            assert_eq!(g.regularity(), Some(2 * k));
            assert!(props::is_connected(&g));
            assert_eq!(g.m(), 32 * k);
        }
    }

    #[test]
    #[should_panic(expected = "n > 2k")]
    fn cycle_power_rejects_small_n() {
        cycle_power(6, 3);
    }

    #[test]
    fn ring_of_cliques_is_regular() {
        let g = ring_of_cliques(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.regularity(), Some(4), "every vertex has degree c-1");
        assert!(props::is_connected(&g));
        // Edges: k * (C(c,2) - 1 + 1) = 4 * 10 = 40.
        assert_eq!(g.m(), 40);
    }

    #[test]
    fn ring_of_cliques_minimum_size() {
        let g = ring_of_cliques(3, 3);
        assert_eq!(g.n(), 9);
        assert_eq!(g.regularity(), Some(2)); // 3 cliques of size 3 → 9-cycle-like
        assert!(props::is_connected(&g));
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(5, 3);
        assert_eq!(g.n(), 13);
        // 2*C(5,2) + path edges (3 interior => 4 path edges).
        assert_eq!(g.m(), 2 * 10 + 4);
        assert!(props::is_connected(&g));
        assert_eq!(g.max_degree(), 5); // bridge endpoints have c-1+1
        let d = props::diameter(&g).unwrap();
        assert_eq!(d, 6, "across the bar: 1 + 4 + 1");
    }

    #[test]
    fn barbell_without_interior_path() {
        let g = barbell(4, 0);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 13); // 2*6 + 1 bridge
        assert!(props::is_connected(&g));
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(6, 4);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15 + 4);
        assert!(props::is_connected(&g));
        assert_eq!(g.degree(9), 1, "end of the stick");
        assert_eq!(g.degree(5), 6, "attachment vertex");
    }

    #[test]
    fn lollipop_no_stick_is_clique() {
        assert_eq!(lollipop(5, 0), crate::generators::complete(5));
    }
}
