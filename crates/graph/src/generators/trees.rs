//! Tree generators.

use crate::csr::{Duplicates, Graph, VertexId};

/// Complete `k`-ary tree with `n` vertices in heap layout: vertex `v` has
/// children `k·v + 1, …, k·v + k` (when `< n`) and parent `(v−1)/k`.
///
/// `k = 2` gives the complete binary tree — a bounded-degree graph with
/// logarithmic diameter but poor expansion, a useful contrast case for
/// Theorem 1.1 (small `m`, small `dmax`).
pub fn k_ary_tree(n: usize, k: usize) -> Graph {
    assert!(n >= 1, "tree needs at least one vertex");
    assert!(k >= 1, "arity must be at least 1");
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        let parent = (v - 1) / k;
        edges.push((parent as VertexId, v as VertexId));
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("tree edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    #[test]
    fn binary_tree_counts() {
        let g = k_ary_tree(15, 2); // perfect depth-3 binary tree
        assert_eq!(g.m(), 14);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(14), 1);
        assert_eq!(g.max_degree(), 3);
        assert!(props::is_connected(&g));
        assert!(props::is_bipartite(&g), "trees are bipartite");
        assert_eq!(props::diameter(&g), Some(6));
    }

    #[test]
    fn unary_tree_is_path() {
        assert_eq!(k_ary_tree(7, 1), crate::generators::path(7));
    }

    #[test]
    fn high_arity_tree_is_star_when_small() {
        assert_eq!(k_ary_tree(5, 4), crate::generators::star(5));
    }

    #[test]
    fn single_vertex_tree() {
        let g = k_ary_tree(1, 2);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn trees_have_n_minus_one_edges() {
        for n in 1..40 {
            for k in 1..5 {
                let g = k_ary_tree(n, k);
                assert_eq!(g.m(), n - 1);
                assert!(props::is_connected(&g));
            }
        }
    }
}
