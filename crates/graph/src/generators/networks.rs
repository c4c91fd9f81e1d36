//! Network models with realistic degree/locality structure.
//!
//! Theorem 1.1's bound is driven by `dmax²`: preferential-attachment
//! graphs (`dmax ≈ √n`) are the natural stress family. Watts–Strogatz
//! small worlds interpolate between the cycle-power family (big
//! diameter, big λ) and expanders — useful for the gap-dependence
//! story on *near*-regular graphs.

use crate::csr::{Duplicates, Graph, VertexId};
use rand::{Rng, RngExt};

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 = m_edges + 1` vertices; each subsequent vertex attaches `m_edges`
/// edges to existing vertices chosen proportionally to their current
/// degree (sampling by the repeated-endpoint trick, duplicate targets
/// rerolled).
///
/// The degree distribution has a power-law tail; `dmax = Θ(√n)` in
/// expectation, which makes the `dmax² log n` term of Theorem 1.1
/// comparable to `m = Θ(n)`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m_edges: usize, rng: &mut R) -> Graph {
    assert!(m_edges >= 1, "need at least one edge per new vertex");
    assert!(
        n > m_edges,
        "need n > m_edges (got n={n}, m_edges={m_edges})"
    );
    let m0 = m_edges + 1;
    let mut edges: Vec<(VertexId, VertexId)> =
        Vec::with_capacity(m0 * (m0 - 1) / 2 + (n - m0) * m_edges);
    // Seed clique.
    for u in 0..m0 as VertexId {
        for v in (u + 1)..m0 as VertexId {
            edges.push((u, v));
        }
    }
    // `endpoints` lists every edge endpoint; sampling a uniform entry is
    // degree-proportional sampling.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * edges.len() + 2 * (n - m0) * m_edges);
    for &(u, v) in &edges {
        endpoints.push(u);
        endpoints.push(v);
    }
    for new in m0..n {
        let mut targets: Vec<VertexId> = Vec::with_capacity(m_edges);
        while targets.len() < m_edges {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((new as VertexId, t));
            endpoints.push(new as VertexId);
            endpoints.push(t);
        }
    }
    // Freed first, so the build holds the edge list and the CSR only.
    drop(endpoints);
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("BA edges are simple by construction")
}

/// Watts–Strogatz small world: a cycle power `C_n^k` whose "far" end of
/// each edge is rewired to a uniform random non-neighbour with
/// probability `beta`. `beta = 0` is the cycle power (large diameter,
/// λ near 1); `beta = 1` approaches a random graph (small diameter,
/// constant gap); small `beta` gives the small-world middle.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k >= 1, "watts-strogatz needs k >= 1");
    assert!(n > 2 * k + 1, "watts-strogatz needs n > 2k+1");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    // Edge set as (u, (u + s) mod n) for s = 1..=k, possibly rewired.
    let mut present = std::collections::HashSet::<(VertexId, VertexId)>::with_capacity(n * k);
    let canon = |a: VertexId, b: VertexId| (a.min(b), a.max(b));
    for u in 0..n {
        for s in 1..=k {
            present.insert(canon(u as VertexId, ((u + s) % n) as VertexId));
        }
    }
    for u in 0..n {
        for s in 1..=k {
            let old = canon(u as VertexId, ((u + s) % n) as VertexId);
            if !present.contains(&old) || !rng.random_bool(beta) {
                continue;
            }
            // Rewire the far endpoint to a fresh uniform target.
            for _attempt in 0..64 {
                let w = rng.random_range(0..n as u32);
                let candidate = canon(u as VertexId, w);
                if w != u as VertexId && !present.contains(&candidate) {
                    present.remove(&old);
                    present.insert(candidate);
                    break;
                }
            }
        }
    }
    let edges: Vec<(VertexId, VertexId)> = present.into_iter().collect();
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("WS edges are simple by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ba_counts_and_connectivity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 400;
        let m_edges = 3;
        let g = barabasi_albert(n, m_edges, &mut rng);
        assert_eq!(g.n(), n);
        let m0 = m_edges + 1;
        assert_eq!(g.m(), m0 * (m0 - 1) / 2 + (n - m0) * m_edges);
        assert!(
            props::is_connected(&g),
            "attachment keeps the graph connected"
        );
        assert!(g.min_degree() >= m_edges);
    }

    #[test]
    fn ba_has_heavy_hubs() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = barabasi_albert(1000, 2, &mut rng);
        // dmax should far exceed the mean degree (≈ 4); √n ≈ 32.
        assert!(
            g.max_degree() >= 20,
            "no hub formed: dmax = {}",
            g.max_degree()
        );
        // And early vertices should be the hubs.
        let early_max = (0..10u32).map(|v| g.degree(v)).max().unwrap();
        let late_max = (500..510u32).map(|v| g.degree(v)).max().unwrap();
        assert!(early_max > late_max, "preferential attachment inverted");
    }

    #[test]
    fn ba_minimal_case() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = barabasi_albert(3, 1, &mut rng);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2); // K_2 seed + one attachment
    }

    #[test]
    fn ws_beta_zero_is_cycle_power() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = watts_strogatz(30, 3, 0.0, &mut rng);
        assert_eq!(g, crate::generators::cycle_power(30, 3));
    }

    #[test]
    fn ws_preserves_edge_count() {
        let mut rng = SmallRng::seed_from_u64(5);
        for beta in [0.1, 0.5, 1.0] {
            let g = watts_strogatz(64, 2, beta, &mut rng);
            assert_eq!(g.m(), 64 * 2, "rewiring must preserve m at beta={beta}");
            assert_eq!(g.n(), 64);
        }
    }

    #[test]
    fn ws_rewiring_shrinks_diameter() {
        let mut rng = SmallRng::seed_from_u64(6);
        let ring = watts_strogatz(200, 2, 0.0, &mut rng);
        let small_world = watts_strogatz(200, 2, 0.3, &mut rng);
        if props::is_connected(&small_world) {
            let d0 = props::diameter(&ring).unwrap();
            let d1 = props::diameter(&small_world).unwrap();
            assert!(d1 < d0, "rewiring failed to shrink diameter: {d0} -> {d1}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = barabasi_albert(100, 2, &mut SmallRng::seed_from_u64(7));
        let b = barabasi_albert(100, 2, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = watts_strogatz(50, 2, 0.2, &mut SmallRng::seed_from_u64(8));
        let d = watts_strogatz(50, 2, 0.2, &mut SmallRng::seed_from_u64(8));
        assert_eq!(c, d);
    }
}
