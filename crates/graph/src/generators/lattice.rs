//! Lattice-like families: D-dimensional grids, tori and hypercubes.
//!
//! The prior COBRA bounds the paper improves include `Õ(n^{1/D})` for
//! D-dimensional grids (Dutta et al.) and `O(D² n^{1/D})` (Mitzenmacher
//! et al.); the hypercube is the paper's running example for the bound
//! ladder `O(log⁸ n) → O(log⁴ n) → O(log³ n)`.

use crate::csr::{Duplicates, Graph, VertexId};
use crate::topology::HypercubeTopo;

/// D-dimensional grid with the given side lengths, open boundaries.
///
/// Vertex ids are mixed-radix encodings of the coordinates: coordinate
/// `c = (c_0, …, c_{D-1})` maps to `c_0 + dims[0]*(c_1 + dims[1]*(…))`.
pub fn grid(dims: &[usize]) -> Graph {
    lattice(dims, false)
}

/// D-dimensional torus (periodic boundaries). A side of length 2 would
/// create parallel edges; the duplicate is silently collapsed, matching
/// the simple-graph convention used everywhere else.
pub fn torus(dims: &[usize]) -> Graph {
    lattice(dims, true)
}

fn lattice(dims: &[usize], periodic: bool) -> Graph {
    assert!(!dims.is_empty(), "lattice needs at least one dimension");
    assert!(dims.iter().all(|&s| s >= 1), "side lengths must be >= 1");
    let n: usize = dims.iter().product();
    assert!(n <= u32::MAX as usize, "lattice too large for u32 ids");
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n * dims.len());
    let mut stride = vec![1usize; dims.len()];
    for d in 1..dims.len() {
        stride[d] = stride[d - 1] * dims[d - 1];
    }
    for v in 0..n {
        for (d, &side) in dims.iter().enumerate() {
            if side == 1 {
                continue;
            }
            let coord = (v / stride[d]) % side;
            if coord + 1 < side {
                edges.push((v as VertexId, (v + stride[d]) as VertexId));
            } else if periodic && side > 2 {
                // Wrap edge from the last coordinate back to 0. For
                // side == 2 the wrap edge equals the +1 edge, skip it.
                let w = v - (side - 1) * stride[d];
                edges.push((v as VertexId, w as VertexId));
            }
        }
    }
    Graph::from_edge_vec(n, edges, Duplicates::Merge).expect("lattice edges are valid")
}

/// Hypercube `Q_d` (`1 ≤ d ≤ 30`): `n = 2^d` vertices, ids adjacent iff
/// they differ in exactly one bit. `d`-regular and bipartite (so the
/// paper's results apply through the lazy variant).
///
/// Copies the rows of [`HypercubeTopo`] into CSR, with no edge list and
/// no sort, so the build holds only the finished `4·d·2^d + 8·(2^d + 1)`
/// bytes of arrays.
pub fn hypercube(d: u32) -> Graph {
    Graph::from_topology(&HypercubeTopo::new(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    #[test]
    fn grid_2d_counts() {
        let g = grid(&[3, 4]);
        assert_eq!(g.n(), 12);
        // 2D grid edges: 4*(3-1) + 3*(4-1) = 8 + 9 = 17.
        assert_eq!(g.m(), 17);
        assert!(props::is_connected(&g));
        assert!(props::is_bipartite(&g));
        assert_eq!(props::diameter(&g), Some(2 + 3));
    }

    #[test]
    fn grid_1d_is_path() {
        let g = grid(&[6]);
        let p = crate::generators::path(6);
        assert_eq!(g, p);
    }

    #[test]
    fn torus_1d_is_cycle() {
        let g = torus(&[7]);
        let c = crate::generators::cycle(7);
        assert_eq!(g, c);
    }

    #[test]
    fn torus_2d_is_4_regular() {
        let g = torus(&[4, 5]);
        assert_eq!(g.n(), 20);
        assert_eq!(g.regularity(), Some(4));
        assert_eq!(g.m(), 40);
        assert!(props::is_connected(&g));
    }

    #[test]
    fn torus_side_two_collapses_parallel_edges() {
        // 2x2 torus = C4 as a simple graph (wrap edges collapse).
        let g = torus(&[2, 2]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.regularity(), Some(2));
    }

    #[test]
    fn grid_3d_degree_range() {
        let g = grid(&[3, 3, 3]);
        assert_eq!(g.n(), 27);
        assert_eq!(g.min_degree(), 3); // corners
        assert_eq!(g.max_degree(), 6); // centre
        assert!(props::is_connected(&g));
    }

    #[test]
    fn degenerate_side_one_is_ignored() {
        let g = grid(&[1, 5, 1]);
        assert_eq!(g, crate::generators::path(5));
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.regularity(), Some(4));
        assert_eq!(g.m(), 32);
        assert!(props::is_connected(&g));
        assert!(props::is_bipartite(&g));
        assert_eq!(props::diameter(&g), Some(4));
        // Neighbours differ in exactly one bit.
        for (u, v) in g.edges() {
            assert_eq!((u ^ v).count_ones(), 1);
        }
    }

    #[test]
    fn hypercube_q1_is_an_edge() {
        let g = hypercube(1);
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn torus_equals_cycle_product_eigen_sanity() {
        // 3x3 torus: each vertex has 4 distinct neighbours (C3 wrap gives
        // two distinct neighbours per dimension).
        let g = torus(&[3, 3]);
        assert_eq!(g.regularity(), Some(4));
        assert_eq!(g.m(), 18);
    }
}
