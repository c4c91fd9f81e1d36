//! Structural graph properties.
//!
//! These feed the bound formulas: Theorem 1.1 needs `m` and `dmax`;
//! the lower bound needs the diameter; the regular-graph machinery needs
//! connectivity and bipartiteness checks (bipartite ⇒ `λ = 1` ⇒ use the
//! lazy variant).

use crate::csr::{Duplicates, Graph, VertexId};
use crate::topology::Topology;
use cobra_util::BitSet;
use std::collections::VecDeque;

/// Marker for unreachable vertices in distance arrays.
const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src`; `u32::MAX` for vertices in other
/// components. Generic over the graph backend, so `hit:far` resolution
/// and diameter probes run on implicit topologies without materializing
/// any adjacency.
pub fn bfs_distances<T: Topology>(g: &T, src: VertexId) -> Vec<u32> {
    assert!((src as usize) < g.n(), "bfs source out of range");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        g.for_each_neighbor(u, |w| {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        });
    }
    dist
}

/// Multi-source BFS distances: entry `v` is the hop distance from the
/// nearest source, `UNREACHABLE` outside the sources' components.
fn bfs_distances_multi<T: Topology>(g: &T, sources: &[VertexId]) -> Vec<u32> {
    assert!(!sources.is_empty(), "bfs needs at least one source");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!((s as usize) < g.n(), "bfs source out of range");
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        g.for_each_neighbor(u, |w| {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        });
    }
    dist
}

/// The vertex farthest (in BFS hops) from the source set, lowest id on
/// ties — the deterministic resolution behind the `hit:far` objective.
/// `Err(v)` names a vertex unreachable from every source (a hitting
/// time to it cannot terminate).
pub fn farthest_vertex<T: Topology>(
    g: &T,
    sources: &[VertexId],
) -> Result<(VertexId, u32), VertexId> {
    let dist = bfs_distances_multi(g, sources);
    if let Some(v) = dist.iter().position(|&d| d == UNREACHABLE) {
        return Err(v as VertexId);
    }
    let (v, &d) = dist
        .iter()
        .enumerate()
        .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))
        .expect("nonempty graph");
    Ok((v as VertexId, d))
}

/// True iff the graph is connected. The empty graph counts as connected;
/// a single vertex does too.
pub fn is_connected<T: Topology>(g: &T) -> bool {
    if g.n() <= 1 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Labels every vertex with the index of its connected component,
/// components numbered in order of their lowest vertex id, and returns
/// the labels with each component's vertex count. Generic over the
/// graph backend; the one component traversal behind
/// [`component_summary`] and [`largest_component`].
fn component_labels<T: Topology>(g: &T) -> (Vec<VertexId>, Vec<usize>) {
    let mut label = vec![VertexId::MAX; g.n()];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for s in 0..g.n() as VertexId {
        if label[s as usize] != VertexId::MAX {
            continue;
        }
        let c = sizes.len() as VertexId;
        label[s as usize] = c;
        queue.push_back(s);
        let mut size = 0usize;
        while let Some(u) = queue.pop_front() {
            size += 1;
            g.for_each_neighbor(u, |w| {
                if label[w as usize] == VertexId::MAX {
                    label[w as usize] = c;
                    queue.push_back(w);
                }
            });
        }
        sizes.push(size);
    }
    (label, sizes)
}

/// Connectivity structure in one pass: component count and giant-component
/// size. This is what resolve-time validation reports when a loaded graph
/// cannot support a full-reach objective (`cover`, `hit:far`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSummary {
    /// Number of connected components (isolated vertices count).
    pub components: usize,
    /// Vertex count of the largest component.
    pub giant_size: usize,
    /// Total vertex count.
    pub n: usize,
}

impl ComponentSummary {
    /// Fraction of vertices in the largest component, in `[0, 1]`.
    pub fn giant_fraction(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.giant_size as f64 / self.n as f64
        }
    }
}

/// Computes the [`ComponentSummary`] of any topology.
pub fn component_summary<T: Topology>(g: &T) -> ComponentSummary {
    let (_, sizes) = component_labels(g);
    ComponentSummary {
        components: sizes.len(),
        giant_size: sizes.iter().copied().max().unwrap_or(0),
        n: g.n(),
    }
}

/// Extracts the largest connected component as a new graph, together with
/// the mapping from new ids to original vertex ids.
///
/// `G(n,p)` below the connectivity threshold is used through its giant
/// component; the COBRA/BIPS processes are only defined on connected
/// graphs.
pub fn largest_component(g: &Graph) -> (Graph, Vec<VertexId>) {
    if g.n() == 0 {
        return (Graph::from_edges(0, &[]).expect("empty"), Vec::new());
    }
    let (labels, sizes) = component_labels(g);
    // Ties go to the component with the lowest vertex id.
    let best = (0..sizes.len())
        .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
        .expect("nonempty") as VertexId;
    let mut old_of_new: Vec<VertexId> = Vec::new();
    let mut new_of_old = vec![VertexId::MAX; g.n()];
    for v in 0..g.n() as VertexId {
        if labels[v as usize] == best {
            new_of_old[v as usize] = old_of_new.len() as VertexId;
            old_of_new.push(v);
        }
    }
    let edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .filter(|&(u, _)| labels[u as usize] == best)
        .map(|(u, v)| (new_of_old[u as usize], new_of_old[v as usize]))
        .collect();
    let sub = Graph::from_edge_vec(old_of_new.len(), edges, Duplicates::Reject)
        .expect("component edges are valid");
    (sub, old_of_new)
}

/// Two-colourability check via BFS.
pub fn is_bipartite(g: &Graph) -> bool {
    let mut colour = vec![u8::MAX; g.n()];
    let mut queue = VecDeque::new();
    for s in 0..g.n() as VertexId {
        if colour[s as usize] != u8::MAX {
            continue;
        }
        colour[s as usize] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if colour[w as usize] == u8::MAX {
                    colour[w as usize] = 1 - colour[u as usize];
                    queue.push_back(w);
                } else if colour[w as usize] == colour[u as usize] {
                    return false;
                }
            }
        }
    }
    true
}

/// Eccentricity of `src` (longest BFS distance); `None` if the graph is
/// disconnected.
pub fn eccentricity<T: Topology>(g: &T, src: VertexId) -> Option<u32> {
    let dist = bfs_distances(g, src);
    let mut ecc = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Exact diameter by all-source BFS: `O(n·m)`. `None` for disconnected
/// graphs; `Some(0)` for trivial graphs.
/// Fine up to a few thousand vertices.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return Some(0);
    }
    let mut best = 0;
    for v in 0..g.n() as VertexId {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// Vertices reachable from `set` in one hop: `N(S) = ∪_{u∈S} N(u)`
/// (not excluding `S` itself), as a [`BitSet`]. Used by the serialised
/// BIPS candidate-set computation.
pub fn neighborhood(g: &Graph, set: &[VertexId]) -> BitSet {
    let mut out = BitSet::new(g.n());
    for &u in set {
        for &w in g.neighbors(u) {
            out.insert(w as usize);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn component_summary_counts_and_sizes() {
        let g = generators::path(6);
        let s = component_summary(&g);
        assert_eq!(
            s,
            ComponentSummary {
                components: 1,
                giant_size: 6,
                n: 6
            }
        );
        assert!((s.giant_fraction() - 1.0).abs() < 1e-12);

        // Triangle + edge + isolated vertex.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let s = component_summary(&g);
        assert_eq!(
            s,
            ComponentSummary {
                components: 3,
                giant_size: 3,
                n: 6
            }
        );
        assert!((s.giant_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multi_source_bfs_takes_the_nearest_source() {
        let g = generators::path(7);
        assert_eq!(bfs_distances_multi(&g, &[0]), bfs_distances(&g, 0));
        assert_eq!(bfs_distances_multi(&g, &[0, 6]), vec![0, 1, 2, 3, 2, 1, 0]);
        // Duplicate sources are harmless.
        assert_eq!(bfs_distances_multi(&g, &[3, 3]), vec![3, 2, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn farthest_vertex_is_deterministic_and_flags_unreachable() {
        let g = generators::path(7);
        assert_eq!(farthest_vertex(&g, &[0]), Ok((6, 6)));
        // Ties resolve to the lowest vertex id: from the middle of the
        // path both endpoints are 3 hops away.
        assert_eq!(farthest_vertex(&g, &[3]), Ok((0, 3)));
        // From both endpoints the middle is farthest.
        assert_eq!(farthest_vertex(&g, &[0, 6]), Ok((3, 3)));
        let two = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(farthest_vertex(&two, &[0]), Err(2));
    }

    #[test]
    fn connectivity_cases() {
        assert!(is_connected(&generators::cycle(5)));
        assert!(is_connected(&Graph::from_edges(1, &[]).unwrap()));
        assert!(is_connected(&Graph::from_edges(0, &[]).unwrap()));
        let two = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&two));
    }

    #[test]
    fn components_and_largest() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        let (labels, sizes) = component_labels(&g);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 2, 2]);
        assert_eq!(sizes, vec![3, 2, 2]);
        let (sub, mapping) = largest_component(&g);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(mapping, vec![0, 1, 2]);
        // Equal sizes: the component holding the lowest vertex id wins.
        let tie = Graph::from_edges(5, &[(3, 4), (1, 2)]).unwrap();
        assert_eq!(largest_component(&tie).1, vec![1, 2]);
    }

    #[test]
    fn largest_component_of_gnp_giant() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp(300, 2.5 / 300.0, &mut rng);
        let (sub, mapping) = largest_component(&g);
        assert!(is_connected(&sub));
        assert!(sub.n() > 100, "supercritical G(n,p) has a giant component");
        // Mapping preserves adjacency.
        for (u, v) in sub.edges().take(50) {
            assert!(g.has_edge(mapping[u as usize], mapping[v as usize]));
        }
    }

    #[test]
    fn bipartite_classification() {
        assert!(is_bipartite(&generators::cycle(8)));
        assert!(!is_bipartite(&generators::cycle(9)));
        assert!(is_bipartite(&generators::hypercube(5)));
        assert!(!is_bipartite(&generators::complete(4)));
        assert!(is_bipartite(&generators::k_ary_tree(20, 3)));
        assert!(!is_bipartite(&generators::petersen()));
        // Disconnected: bipartite iff all components are.
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4), (4, 2)]).unwrap();
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn diameter_known_values() {
        assert_eq!(diameter(&generators::complete(8)), Some(1));
        assert_eq!(diameter(&generators::cycle(10)), Some(5));
        assert_eq!(diameter(&generators::cycle(11)), Some(5));
        assert_eq!(diameter(&generators::path(10)), Some(9));
        assert_eq!(diameter(&generators::hypercube(6)), Some(6));
        assert_eq!(diameter(&generators::star(20)), Some(2));
        let disconnected = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(diameter(&disconnected), None);
    }

    #[test]
    fn neighborhood_of_set() {
        let g = generators::path(5);
        let nb = neighborhood(&g, &[2]);
        assert_eq!(nb.to_vec(), vec![1, 3]);
        let nb2 = neighborhood(&g, &[0, 4]);
        assert_eq!(nb2.to_vec(), vec![1, 3]);
    }

    proptest! {
        /// Connectivity via BFS agrees with union-find over the edge list.
        #[test]
        fn connectivity_matches_union_find(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80)
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .filter(|(a, b)| a != b)
                .collect();
            let g = Graph::from_edges_dedup(n, &edges).unwrap();
            let mut uf = cobra_util::UnionFind::new(n);
            for (a, b) in g.edges() {
                uf.union(a as usize, b as usize);
            }
            prop_assert_eq!(is_connected(&g), uf.components() == 1);
            // Component labels partition consistently with union-find.
            let (labels, sizes) = component_labels(&g);
            prop_assert_eq!(sizes.len(), uf.components());
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(labels[a] == labels[b], uf.connected(a, b));
                }
            }
        }

        /// Eccentricities are within [diam/2, diam].
        #[test]
        fn eccentricity_bounds(n in 3usize..24) {
            let g = generators::cycle(n);
            let d = diameter(&g).unwrap();
            for v in 0..n as u32 {
                let e = eccentricity(&g, v).unwrap();
                prop_assert!(e <= d);
                prop_assert!(2 * e >= d);
            }
        }
    }
}
