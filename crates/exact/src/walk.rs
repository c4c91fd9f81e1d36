//! Exact simple-random-walk quantities: hitting times by first-step
//! linear systems, cover times by visited-set dynamic programming.
//!
//! These are the oracles behind the `b = 1` baselines: classic closed
//! forms (cycle hitting time `k(n−k)`, coupon collector on `K_n`) come
//! out exactly, so the simulation baselines can be validated without
//! Monte-Carlo slack.

use cobra_graph::{Graph, VertexId};

/// Solves `Ax = b` by Gaussian elimination with partial pivoting.
/// Panics on (numerically) singular systems.
// Index loops are the clearest notation for elimination; clippy's
// iterator rewrite would obscure the row/column structure.
#[allow(clippy::needless_range_loop)]
pub fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    assert!(
        a.len() == n && a.iter().all(|r| r.len() == n),
        "system shape mismatch"
    );
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("nonempty");
        assert!(
            a[pivot][col].abs() > 1e-12,
            "singular system at column {col}"
        );
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

/// Exact expected hitting times `h(u) = E[time for SRW from u to reach
/// target]`, for every start vertex. First-step analysis:
/// `h(target) = 0`, `h(u) = 1 + (1/d(u))·Σ_{w∼u} h(w)`.
///
/// Requires a connected graph; `O(n³)` dense solve, fine to n ≈ 500.
pub fn srw_hitting_times(g: &Graph, target: VertexId) -> Vec<f64> {
    let n = g.n();
    assert!((target as usize) < n, "target out of range");
    assert!(
        cobra_graph::props::is_connected(g),
        "hitting times undefined on disconnected graphs"
    );
    if n == 1 {
        return vec![0.0];
    }
    // Unknowns: h(u) for u != target, indexed by compressed position.
    let mut index = vec![usize::MAX; n];
    let mut verts: Vec<VertexId> = Vec::with_capacity(n - 1);
    for u in 0..n as VertexId {
        if u != target {
            index[u as usize] = verts.len();
            verts.push(u);
        }
    }
    let mut a = vec![vec![0.0f64; n - 1]; n - 1];
    let b = vec![1.0f64; n - 1];
    for (row, &u) in verts.iter().enumerate() {
        a[row][row] = 1.0;
        let d = g.degree(u) as f64;
        for &w in g.neighbors(u) {
            if w != target {
                a[row][index[w as usize]] -= 1.0 / d;
            }
        }
    }
    let x = solve_dense(a, b);
    let mut h = vec![0.0f64; n];
    for (row, &u) in verts.iter().enumerate() {
        h[u as usize] = x[row];
    }
    h
}

/// Exact expected cover time of the SRW from `start`, by dynamic
/// programming over `(visited set, position)` states. States with the
/// same visited set form a small linear system; sets are processed in
/// decreasing order of size. `O(2^n · n³)` worst case — intended for
/// `n ≤ 14`.
pub fn srw_cover_time(g: &Graph, start: VertexId) -> f64 {
    let n = g.n();
    assert!(
        n <= crate::MAX_EXACT_VERTICES,
        "exact cover limited to small graphs"
    );
    assert!((start as usize) < n, "start out of range");
    assert!(
        cobra_graph::props::is_connected(g),
        "cover undefined on disconnected graphs"
    );
    if n == 1 {
        return 0.0;
    }
    let full = (1usize << n) - 1;
    // expected[mask] holds E[T | visited = mask, pos = p] for p ∈ mask,
    // stored densely per mask as a vec of length n (unused entries 0).
    let mut expected: Vec<Vec<f64>> = vec![Vec::new(); 1 << n];
    // Enumerate masks in decreasing popcount so successors are ready.
    let mut masks: Vec<usize> = (1..=full).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    for mask in masks {
        // Skip unreachable states (start not in mask never queried, but
        // computing them is harmless; skip only the trivial full mask).
        if mask == full {
            expected[mask] = vec![0.0; n];
            continue;
        }
        // Unknowns: h_p for p ∈ mask. h_p = 1 + Σ_w (1/d) · H(next),
        // where next = (mask ∪ {w}, w): unknown iff w ∈ mask.
        let members: Vec<usize> = (0..n).filter(|&p| mask >> p & 1 == 1).collect();
        let k = members.len();
        let pos_of: Vec<usize> = {
            let mut v = vec![usize::MAX; n];
            for (i, &p) in members.iter().enumerate() {
                v[p] = i;
            }
            v
        };
        let mut a = vec![vec![0.0f64; k]; k];
        let mut b = vec![1.0f64; k];
        for (row, &p) in members.iter().enumerate() {
            a[row][row] = 1.0;
            let d = g.degree(p as VertexId) as f64;
            for &w in g.neighbors(p as VertexId) {
                let w = w as usize;
                if mask >> w & 1 == 1 {
                    a[row][pos_of[w]] -= 1.0 / d;
                } else {
                    let next_mask = mask | (1 << w);
                    b[row] += expected[next_mask][w] / d;
                }
            }
        }
        let x = solve_dense(a, b);
        let mut h = vec![0.0f64; n];
        for (row, &p) in members.iter().enumerate() {
            h[p] = x[row];
        }
        expected[mask] = h;
    }
    expected[1usize << start][start as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use cobra_util::math::harmonic;

    #[test]
    fn solve_dense_identity_and_2x2() {
        let x = solve_dense(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![3.0, 4.0]);
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 4.0).abs() < 1e-12);
        // 2x + y = 5; x − y = 1 → x = 2, y = 1.
        let x = solve_dense(vec![vec![2.0, 1.0], vec![1.0, -1.0]], vec![5.0, 1.0]);
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn solve_dense_rejects_singular() {
        solve_dense(vec![vec![1.0, 1.0], vec![1.0, 1.0]], vec![1.0, 2.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cycle_hitting_time_closed_form() {
        // SRW on C_n: E[hit from distance k] = k(n−k).
        let n = 9;
        let g = generators::cycle(n);
        let h = srw_hitting_times(&g, 0);
        for u in 0..n {
            let k = u.min(n - u);
            let want = (k * (n - k)) as f64;
            assert!((h[u] - want).abs() < 1e-8, "h[{u}] = {} vs {want}", h[u]);
        }
    }

    #[test]
    fn path_hitting_time_closed_form() {
        // SRW on P_n from end 0 to end n−1: (n−1)².
        let n = 8;
        let g = generators::path(n);
        let h = srw_hitting_times(&g, (n - 1) as u32);
        assert!(
            (h[0] - ((n - 1) * (n - 1)) as f64).abs() < 1e-8,
            "h[0] = {}",
            h[0]
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn complete_graph_hitting_time() {
        // K_n: hitting any other vertex is Geometric(1/(n−1)) ⇒ n−1.
        let g = generators::complete(7);
        let h = srw_hitting_times(&g, 3);
        for u in 0..7 {
            if u != 3 {
                assert!((h[u] - 6.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn complete_graph_cover_is_coupon_collector() {
        let n = 8;
        let g = generators::complete(n);
        let want = (n - 1) as f64 * harmonic(n - 1);
        let got = srw_cover_time(&g, 0);
        assert!(
            (got - want).abs() < 1e-8,
            "cover {got} vs coupon-collector {want}"
        );
    }

    #[test]
    fn cycle_cover_closed_form() {
        // SRW cover time of C_n is n(n−1)/2 from any start.
        let n = 9;
        let g = generators::cycle(n);
        let want = (n * (n - 1)) as f64 / 2.0;
        let got = srw_cover_time(&g, 4);
        assert!((got - want).abs() < 1e-8, "cover {got} vs {want}");
    }

    #[test]
    fn path_cover_from_end() {
        // From an end of P_n the walk just has to reach the other end:
        // cover = (n−1)².
        let n = 7;
        let g = generators::path(n);
        let got = srw_cover_time(&g, 0);
        assert!((got - 36.0).abs() < 1e-8, "cover {got}");
    }

    #[test]
    fn star_cover_from_center() {
        // Star K_{1,k} from the centre: each leaf visit costs 2 steps
        // except the last (coupon collector over k leaves, 2 steps per
        // draw, last arrival ends at the leaf): 2k·H_k − 1.
        let k = 6;
        let g = generators::star(k + 1);
        let want = 2.0 * k as f64 * harmonic(k) - 1.0;
        let got = srw_cover_time(&g, 0);
        assert!((got - want).abs() < 1e-8, "cover {got} vs {want}");
    }

    #[test]
    fn monte_carlo_walk_agrees_with_exact_cover() {
        use cobra_process::{Laziness, ProcessState, RandomWalk, StepCtx, StopWhen};
        let g = generators::lollipop(4, 3);
        let exact = srw_cover_time(&g, 0);
        let trials = 3000u64;
        let mut total = 0.0;
        for i in 0..trials {
            let mut ctx = StepCtx::seeded(90_000 + i);
            let mut w = RandomWalk::new(&g, 0, Laziness::None);
            total += w
                .run_until(StopWhen::Complete, &mut ctx, 10_000_000)
                .unwrap() as f64;
        }
        let mc = total / trials as f64;
        assert!((mc - exact).abs() < 0.1 * exact, "MC {mc} vs exact {exact}");
    }
}
