//! Random graph models.

use crate::csr::{Duplicates, Graph, VertexId};
use crate::props;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use std::fmt;

/// Erdős–Rényi `G(n, p)`: each of the `n(n−1)/2` possible edges appears
/// independently with probability `p`.
///
/// Sampling uses geometric skipping, so the cost is `O(n + m)` rather
/// than `O(n²)` — `G(n, p)` with `p = c/n` at `n = 10⁶` is practical.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if n == 0 || p == 0.0 {
        return Graph::from_edges(n, &[]).expect("edgeless graph");
    }
    if p >= 1.0 {
        return super::complete(n);
    }
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    // Walk the strictly-upper-triangular adjacency positions 0..n(n-1)/2,
    // jumping Geometric(p) positions between successive edges.
    let total = n * (n - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut pos: usize = 0;
    loop {
        // Geometric skip: number of failures before next success.
        let u: f64 = rng.random::<f64>();
        let skip = if u <= 0.0 {
            0
        } else {
            (u.ln() / log_q).floor() as usize
        };
        pos = match pos.checked_add(skip) {
            Some(p) => p,
            None => break,
        };
        if pos >= total {
            break;
        }
        edges.push(position_to_edge(pos, n));
        pos += 1;
        if pos >= total {
            break;
        }
    }
    Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("gnp edges are valid")
}

/// Maps a linear index over the strict upper triangle to the edge `(u,v)`,
/// `u < v`, rows enumerated `u = 0, 1, …`.
fn position_to_edge(pos: usize, n: usize) -> (VertexId, VertexId) {
    // Row u starts at offset u*n - u(u+3)/2 ... solve by scanning from a
    // closed-form initial guess to stay exact with integer arithmetic.
    let mut u = 0usize;
    let mut row_start = 0usize;
    // Row u has n-1-u entries.
    loop {
        let row_len = n - 1 - u;
        if pos < row_start + row_len {
            let v = u + 1 + (pos - row_start);
            return (u as VertexId, v as VertexId);
        }
        row_start += row_len;
        u += 1;
    }
}

/// Failure modes of [`random_regular`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RandomRegularError {
    /// `n·r` must be even and `r < n`.
    InfeasibleDegree { n: usize, r: usize },
    /// Simplicity (or connectivity, if requested) not achieved within the
    /// retry budget. For `r ≥ 3` this has vanishing probability; hitting
    /// it indicates a misconfiguration (e.g. `r = n−1` with huge `n`).
    RetriesExhausted { attempts: usize },
}

impl fmt::Display for RandomRegularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RandomRegularError::InfeasibleDegree { n, r } => {
                write!(
                    f,
                    "no r-regular graph with n={n}, r={r} (need nr even, r<n)"
                )
            }
            RandomRegularError::RetriesExhausted { attempts } => {
                write!(f, "configuration model failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RandomRegularError {}

/// Random `r`-regular graph via the configuration model.
///
/// Strategy: a bounded number of wholesale-rejection attempts first
/// (exactly uniform over simple `r`-regular graphs when one succeeds —
/// the common case for `r ≤ 4`), then pairing followed by edge-switch
/// repair (self-loops and parallel edges are removed by degree-
/// preserving double swaps with uniformly chosen partner edges). The
/// repair path is the standard practical sampler; its distribution is
/// approximately uniform, which is what the experiments need (structural
/// regular graphs with expander-like spectra).
///
/// If `require_connected` is set, disconnected samples are rerolled
/// (for `r ≥ 3` a sample is connected w.h.p., so this rarely retries).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    require_connected: bool,
    rng: &mut R,
) -> Result<Graph, RandomRegularError> {
    if n == 0 || r >= n || !(n * r).is_multiple_of(2) {
        return Err(RandomRegularError::InfeasibleDegree { n, r });
    }
    if r == 0 {
        return Ok(Graph::from_edges(n, &[]).expect("edgeless"));
    }
    const REJECTION_ATTEMPTS: usize = 200;
    const TOTAL_ATTEMPTS: usize = 400;
    let mut stubs: Vec<VertexId> = Vec::with_capacity(n * r);
    for v in 0..n as VertexId {
        for _ in 0..r {
            stubs.push(v);
        }
    }
    let mut partners = (r <= MAX_REJECTION_DEGREE).then(|| Partners::new(n));
    for attempt in 1..=TOTAL_ATTEMPTS {
        stubs.shuffle(rng);
        let candidate = match partners.as_mut() {
            Some(partners) if attempt <= REJECTION_ATTEMPTS => partners
                .accepts(&stubs)
                .then(|| stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect()),
            _ => pair_repair(&stubs, n, rng),
        };
        let Some(edges) = candidate else { continue };
        let g = Graph::from_edge_vec(n, edges, Duplicates::Reject).expect("simple by construction");
        if require_connected && !props::is_connected(&g) {
            continue;
        }
        return Ok(g);
    }
    Err(RandomRegularError::RetriesExhausted {
        attempts: TOTAL_ATTEMPTS,
    })
}

/// The largest degree [`random_regular`] tries wholesale rejection at
/// (its acceptance rate falls like `e^{-(r²-1)/4}`).
const MAX_REJECTION_DEGREE: usize = 4;

/// Marks an empty partner slot; no vertex has this id (`n ≤ u32::MAX`).
const NO_PARTNER: VertexId = VertexId::MAX;

/// The wholesale-rejection check of the configuration model: the
/// partners each vertex has been paired with so far in one attempt, at
/// most [`MAX_REJECTION_DEGREE`] each, kept across attempts and reset
/// after each. It allocates once per [`random_regular`] call, not once
/// per attempt, and a duplicate check is one compare of a fixed-width
/// row, with no loop over a variable-length one.
struct Partners {
    /// Vertex `v`'s partners so far, then [`NO_PARTNER`]s.
    rows: Vec<[VertexId; MAX_REJECTION_DEGREE]>,
    /// How many of `rows[v]` are partners.
    len: Vec<u8>,
}

impl Partners {
    fn new(n: usize) -> Partners {
        Partners {
            rows: vec![[NO_PARTNER; MAX_REJECTION_DEGREE]; n],
            len: vec![0; n],
        }
    }

    /// Whether pairing `stubs` sequentially (`stubs[2i]` with
    /// `stubs[2i + 1]`) makes no self-loop and no repeated edge — the
    /// attempt wholesale rejection accepts, exactly uniform over simple
    /// graphs conditioned on success. Stops at the first bad pair, then
    /// resets the vertices it touched. Every vertex may appear in
    /// `stubs` at most [`MAX_REJECTION_DEGREE`] times.
    fn accepts(&mut self, stubs: &[VertexId]) -> bool {
        let mut paired = 0;
        let ok = stubs.chunks_exact(2).all(|pair| {
            let (u, v) = (pair[0], pair[1]);
            let (ui, vi) = (u as usize, v as usize);
            if u == v || self.rows[ui].contains(&v) {
                return false;
            }
            self.rows[ui][self.len[ui] as usize] = v;
            self.rows[vi][self.len[vi] as usize] = u;
            self.len[ui] += 1;
            self.len[vi] += 1;
            paired += 1;
            true
        });
        for &w in &stubs[..2 * paired] {
            self.rows[w as usize] = [NO_PARTNER; MAX_REJECTION_DEGREE];
            self.len[w as usize] = 0;
        }
        ok
    }
}

/// Pairs stubs sequentially, then removes self-loops and parallel edges
/// by degree-preserving double edge swaps with random partner edges.
fn pair_repair<R: Rng + ?Sized>(
    stubs: &[VertexId],
    n: usize,
    rng: &mut R,
) -> Option<Vec<(VertexId, VertexId)>> {
    let m = stubs.len() / 2;
    let mut edges: Vec<(VertexId, VertexId)> =
        stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let canon = |u: VertexId, v: VertexId| (u.min(v), u.max(v));
    let mut count: std::collections::HashMap<(VertexId, VertexId), u32> =
        std::collections::HashMap::with_capacity(m);
    for &(u, v) in &edges {
        if u != v {
            *count.entry(canon(u, v)).or_insert(0) += 1;
        }
    }
    let is_bad = |(u, v): (VertexId, VertexId),
                  count: &std::collections::HashMap<(VertexId, VertexId), u32>| {
        u == v || count[&canon(u, v)] > 1
    };
    // Each successful swap strictly reduces the number of bad stubs in
    // expectation; the budget is generous for any feasible (n, r).
    let budget = 200 * m + 10_000;
    let mut steps = 0usize;
    while let Some(bad_idx) = edges.iter().position(|&e| is_bad(e, &count)) {
        steps += 1;
        if steps > budget {
            return None;
        }
        let j = rng.random_range(0..m);
        if j == bad_idx {
            continue;
        }
        let (u, v) = edges[bad_idx];
        let (x, y) = edges[j];
        // Propose (u, x), (v, y); the orientation of (x, y) is already
        // random, so this explores both pairings over time.
        if u == x || v == y {
            continue;
        }
        let e1 = canon(u, x);
        let e2 = canon(v, y);
        if count.get(&e1).copied().unwrap_or(0) > 0 || count.get(&e2).copied().unwrap_or(0) > 0 {
            continue;
        }
        if e1 == e2 {
            continue;
        }
        // Remove old multiset entries.
        if u != v {
            *count.get_mut(&canon(u, v)).expect("tracked") -= 1;
        }
        if x != y {
            *count.get_mut(&canon(x, y)).expect("tracked") -= 1;
        }
        *count.entry(e1).or_insert(0) += 1;
        *count.entry(e2).or_insert(0) += 1;
        edges[bad_idx] = (u, x);
        edges[j] = (v, y);
    }
    debug_assert_eq!(edges.len(), m);
    let _ = n;
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let empty = gnp(20, 0.0, &mut rng);
        assert_eq!(empty.m(), 0);
        let full = gnp(20, 1.0, &mut rng);
        assert_eq!(full.m(), 190);
        let none = gnp(0, 0.5, &mut rng);
        assert_eq!(none.n(), 0);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 400;
        let p = 0.05;
        let expected = (n * (n - 1) / 2) as f64 * p; // 3990
        let mut total = 0.0;
        let reps = 20;
        for _ in 0..reps {
            total += gnp(n, p, &mut rng).m() as f64;
        }
        let avg = total / reps as f64;
        assert!(
            (avg - expected).abs() < 0.05 * expected,
            "avg edge count {avg} vs expected {expected}"
        );
    }

    #[test]
    fn position_to_edge_enumerates_upper_triangle() {
        let n = 5;
        let mut seen = Vec::new();
        for pos in 0..(n * (n - 1) / 2) {
            seen.push(position_to_edge(pos, n));
        }
        let want: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = SmallRng::seed_from_u64(3);
        for &(n, r) in &[(10usize, 3usize), (50, 4), (64, 3), (21, 4)] {
            let g = random_regular(n, r, true, &mut rng).unwrap();
            assert_eq!(g.n(), n);
            assert_eq!(g.regularity(), Some(r), "n={n} r={r}");
            assert!(props::is_connected(&g));
        }
    }

    #[test]
    fn random_regular_rejects_infeasible() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            random_regular(5, 3, false, &mut rng),
            Err(RandomRegularError::InfeasibleDegree { .. })
        ));
        assert!(matches!(
            random_regular(4, 4, false, &mut rng),
            Err(RandomRegularError::InfeasibleDegree { .. })
        ));
    }

    #[test]
    fn random_regular_r0_and_r1() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g0 = random_regular(6, 0, false, &mut rng).unwrap();
        assert_eq!(g0.m(), 0);
        let g1 = random_regular(6, 1, false, &mut rng).unwrap();
        assert_eq!(g1.regularity(), Some(1)); // perfect matching
        assert_eq!(g1.m(), 3);
    }

    #[test]
    fn random_regular_complete_case() {
        // r = n-1 forces K_n; rejection must still terminate quickly.
        let mut rng = SmallRng::seed_from_u64(6);
        let g = random_regular(6, 5, true, &mut rng).unwrap();
        assert_eq!(g.m(), 15);
    }

    /// The wholesale-rejection predicate the partner table replaced.
    fn hash_set_accepts(stubs: &[VertexId]) -> bool {
        let mut seen = std::collections::HashSet::new();
        stubs
            .chunks_exact(2)
            .all(|p| p[0] != p[1] && seen.insert((p[0].min(p[1]), p[0].max(p[1]))))
    }

    proptest::proptest! {
        /// The partner table rejects exactly the attempts the `HashSet`
        /// reference rejects, attempt after attempt on one table.
        #[test]
        fn partner_table_rejects_where_the_hash_set_does(
            n in 2usize..40,
            r in 1usize..5,
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..20),
        ) {
            let n = if (n * r) % 2 == 1 { n + 1 } else { n };
            let mut stubs: Vec<VertexId> =
                (0..n as VertexId).flat_map(|v| std::iter::repeat_n(v, r)).collect();
            let mut partners = Partners::new(n);
            for seed in seeds {
                stubs.shuffle(&mut SmallRng::seed_from_u64(seed));
                proptest::prop_assert_eq!(partners.accepts(&stubs), hash_set_accepts(&stubs));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 = random_regular(30, 3, true, &mut SmallRng::seed_from_u64(9)).unwrap();
        let g2 = random_regular(30, 3, true, &mut SmallRng::seed_from_u64(9)).unwrap();
        assert_eq!(g1, g2);
        let h1 = gnp(50, 0.1, &mut SmallRng::seed_from_u64(11));
        let h2 = gnp(50, 0.1, &mut SmallRng::seed_from_u64(11));
        assert_eq!(h1, h2);
    }
}
