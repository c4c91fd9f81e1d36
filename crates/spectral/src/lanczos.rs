//! Lanczos tridiagonalisation of the symmetric normalised adjacency
//! `N = D^{-1/2} A D^{-1/2}` (same spectrum as `P`), with full
//! reorthogonalisation, plus a bisection eigensolver for the resulting
//! symmetric tridiagonal matrix.
//!
//! The known top eigenvector `φ₁(u) = √π(u)` is deflated throughout, so
//! the extreme Ritz values approximate the *signed* second-largest
//! eigenvalue `λ₂` and the smallest eigenvalue `λ_min` of `P` — both of
//! which the paper's machinery needs (`λ = max(|λ₂|, |λ_min|)`; the lazy
//! chain's gap needs signed `λ₂` alone).

use crate::operator::{apply_normalized, axpy, dot, inv_sqrt_degrees, norm, scale};
use cobra_graph::Graph;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The signed edge of the non-trivial spectrum of `P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSpectrum {
    /// Second-largest eigenvalue of `P` (signed).
    pub lambda2: f64,
    /// Smallest eigenvalue of `P` (signed; `−1` iff bipartite).
    pub lambda_min: f64,
}

impl EdgeSpectrum {
    /// The paper's `λ = max_{i≥2} |λ_i|`.
    pub fn lambda_abs(&self) -> f64 {
        self.lambda2.abs().max(self.lambda_min.abs()).min(1.0)
    }

    /// Eigenvalue gap `1 − λ`.
    pub fn gap(&self) -> f64 {
        (1.0 - self.lambda_abs()).max(0.0)
    }
}

/// Maximum Krylov dimension; extremal eigenvalues of the graphs in this
/// workspace converge well before this.
const MAX_STEPS: usize = 160;
/// Breakdown threshold for the Lanczos β.
const BREAKDOWN: f64 = 1e-13;

/// Computes the deflated edge spectrum `{λ₂, λ_min}` of `P` by Lanczos.
///
/// `seed` controls the random start vector; any seed gives the same
/// answer to solver precision, so 0 is a fine default. Panics on
/// edgeless graphs. For `n == 1` returns the empty-spectrum convention
/// `λ₂ = λ_min = 0`.
pub fn lanczos_edge_spectrum(g: &Graph, seed: u64) -> EdgeSpectrum {
    assert!(
        g.m() > 0 || g.n() <= 1,
        "edge spectrum undefined for edgeless graph"
    );
    let n = g.n();
    if n <= 1 {
        return EdgeSpectrum {
            lambda2: 0.0,
            lambda_min: 0.0,
        };
    }
    let isd = inv_sqrt_degrees(g);
    // Deflation target: φ₁(u) = √(d(u)/2m), unit-norm top eigenvector of N.
    let two_m = g.degree_sum() as f64;
    let phi1: Vec<f64> = (0..n)
        .map(|u| (g.degree(u as u32) as f64 / two_m).sqrt())
        .collect();

    let steps = MAX_STEPS.min(n - 1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(steps);
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps.saturating_sub(1));

    let mut v = fresh_vector(n, &phi1, &basis, &mut rng)
        .expect("initial Lanczos vector must exist for n >= 2");
    let mut w = vec![0.0; n];
    while alphas.len() < steps {
        apply_normalized(g, &v, &mut w, &isd);
        let alpha = dot(&w, &v);
        alphas.push(alpha);
        axpy(-alpha, &v, &mut w);
        if let Some(prev) = basis.last() {
            // β term of the three-term recurrence (β of the previous step).
            let beta_prev = *betas.last().expect("betas tracks basis");
            axpy(-beta_prev, prev, &mut w);
        }
        basis.push(v.clone());
        // Full reorthogonalisation (twice) against φ₁ and all basis vectors:
        // the price is O(k·n) per step, irrelevant at these sizes, and it
        // keeps Ritz values honest.
        for _ in 0..2 {
            let p = dot(&w, &phi1);
            axpy(-p, &phi1, &mut w);
            for b in &basis {
                let p = dot(&w, b);
                axpy(-p, b, &mut w);
            }
        }
        let beta = norm(&w);
        if alphas.len() == steps {
            break;
        }
        if beta < BREAKDOWN {
            // Invariant subspace exhausted; restart in the orthogonal
            // complement if any directions remain.
            match fresh_vector(n, &phi1, &basis, &mut rng) {
                Some(next) => {
                    v = next;
                    betas.push(0.0);
                }
                None => break,
            }
        } else {
            betas.push(beta);
            scale(1.0 / beta, &mut w);
            std::mem::swap(&mut v, &mut w);
        }
    }

    let eigs = symmetric_tridiagonal_eigenvalues(&alphas, &betas);
    let lambda2 = *eigs.last().expect("at least one Ritz value");
    let lambda_min = eigs[0];
    EdgeSpectrum {
        lambda2: lambda2.clamp(-1.0, 1.0),
        lambda_min: lambda_min.clamp(-1.0, 1.0),
    }
}

/// Draws a random vector orthogonal to `phi1` and all of `basis`;
/// `None` once the complement is (numerically) empty.
fn fresh_vector(
    n: usize,
    phi1: &[f64],
    basis: &[Vec<f64>],
    rng: &mut SmallRng,
) -> Option<Vec<f64>> {
    for _attempt in 0..8 {
        let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
        for _ in 0..2 {
            let p = dot(&v, phi1);
            axpy(-p, phi1, &mut v);
            for b in basis {
                let p = dot(&v, b);
                axpy(-p, b, &mut v);
            }
        }
        let nv = norm(&v);
        if nv > 1e-8 {
            scale(1.0 / nv, &mut v);
            return Some(v);
        }
    }
    None
}

/// All eigenvalues (ascending) of the symmetric tridiagonal matrix with
/// diagonal `diag` and off-diagonal `offdiag` (`offdiag.len() + 1 ==
/// diag.len()`), by bisection with Sturm-sequence counts.
///
/// Robust for the `k ≤ 160` matrices Lanczos produces; `O(k² log(1/ε))`.
fn symmetric_tridiagonal_eigenvalues(diag: &[f64], offdiag: &[f64]) -> Vec<f64> {
    let k = diag.len();
    assert!(k > 0, "empty tridiagonal matrix");
    assert_eq!(offdiag.len() + 1, k, "off-diagonal length mismatch");
    // Gershgorin interval.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..k {
        let b_prev = if i > 0 { offdiag[i - 1].abs() } else { 0.0 };
        let b_next = if i + 1 < k { offdiag[i].abs() } else { 0.0 };
        lo = lo.min(diag[i] - b_prev - b_next);
        hi = hi.max(diag[i] + b_prev + b_next);
    }
    lo -= 1e-9;
    hi += 1e-9;

    let b2: Vec<f64> = offdiag.iter().map(|b| b * b).collect();
    // Sturm count: number of eigenvalues < x.
    let count_less = |x: f64| -> usize {
        let mut count = 0usize;
        let mut d = 1.0f64;
        for i in 0..k {
            d = diag[i] - x - if i > 0 { b2[i - 1] / d } else { 0.0 };
            if d == 0.0 {
                d = -1e-300;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };

    (0..k)
        .map(|idx| {
            // Smallest x with count_less(x) > idx is the idx-th (ascending)
            // eigenvalue; bisect on the predicate.
            let (mut a, mut b) = (lo, hi);
            for _ in 0..80 {
                let mid = 0.5 * (a + b);
                if count_less(mid) > idx {
                    b = mid;
                } else {
                    a = mid;
                }
            }
            0.5 * (a + b)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spec(g: &Graph) -> EdgeSpectrum {
        lanczos_edge_spectrum(g, 0)
    }

    #[test]
    fn tridiagonal_eigenvalues_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let e = symmetric_tridiagonal_eigenvalues(&[2.0, 2.0], &[1.0]);
        assert!((e[0] - 1.0).abs() < 1e-10);
        assert!((e[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn tridiagonal_eigenvalues_diagonal_matrix() {
        let e = symmetric_tridiagonal_eigenvalues(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert!((e[0] - 1.0).abs() < 1e-10);
        assert!((e[1] - 2.0).abs() < 1e-10);
        assert!((e[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn tridiagonal_toeplitz_closed_form() {
        // Jacobi matrix with diag 0, offdiag 1, size k: eigenvalues
        // 2 cos(jπ/(k+1)), j = 1..k.
        let k = 12;
        let e = symmetric_tridiagonal_eigenvalues(&vec![0.0; k], &vec![1.0; k - 1]);
        for (j, &got) in e.iter().enumerate() {
            let want = 2.0 * (std::f64::consts::PI * (k - j) as f64 / (k as f64 + 1.0)).cos();
            assert!((got - want).abs() < 1e-9, "index {j}: {got} vs {want}");
        }
    }

    #[test]
    fn complete_graph_spectrum() {
        for n in [3usize, 5, 10, 20] {
            let s = spec(&generators::complete(n));
            let want = -1.0 / (n as f64 - 1.0);
            assert!(
                (s.lambda2 - want).abs() < 1e-8,
                "K_{n} λ2: {} vs {want}",
                s.lambda2
            );
            assert!((s.lambda_min - want).abs() < 1e-8);
            assert!((s.lambda_abs() - want.abs()).abs() < 1e-8);
        }
    }

    #[test]
    fn cycle_spectrum() {
        // C_n: eigenvalues cos(2πk/n).
        let n = 11usize;
        let s = spec(&generators::cycle(n));
        let want2 = (2.0 * std::f64::consts::PI / n as f64).cos();
        let wantmin = (2.0 * std::f64::consts::PI * 5.0 / n as f64).cos();
        assert!(
            (s.lambda2 - want2).abs() < 1e-8,
            "λ2 {} vs {}",
            s.lambda2,
            want2
        );
        assert!(
            (s.lambda_min - wantmin).abs() < 1e-8,
            "λmin {} vs {}",
            s.lambda_min,
            wantmin
        );
    }

    #[test]
    fn even_cycle_bipartite_edge() {
        let s = spec(&generators::cycle(12));
        assert!((s.lambda_min + 1.0).abs() < 1e-8, "bipartite ⇒ λmin = −1");
        assert!((s.lambda_abs() - 1.0).abs() < 1e-8);
        // Lazy gap is positive: (1 − λ2)/2 with signed λ2 < 1.
        assert!(s.lambda2 < 1.0 - 1e-6);
    }

    #[test]
    fn petersen_spectrum() {
        let s = spec(&generators::petersen());
        assert!((s.lambda2 - 1.0 / 3.0).abs() < 1e-9, "λ2 {}", s.lambda2);
        assert!(
            (s.lambda_min + 2.0 / 3.0).abs() < 1e-9,
            "λmin {}",
            s.lambda_min
        );
    }

    #[test]
    fn hypercube_spectrum() {
        for d in [3u32, 5, 7] {
            let s = spec(&generators::hypercube(d));
            let want2 = 1.0 - 2.0 / d as f64;
            assert!(
                (s.lambda2 - want2).abs() < 1e-8,
                "Q_{d} λ2 {} vs {want2}",
                s.lambda2
            );
            assert!((s.lambda_min + 1.0).abs() < 1e-8, "Q_{d} bipartite");
        }
    }

    #[test]
    fn star_spectrum() {
        // K_{1,n−1}: P eigenvalues {1, 0^(n−2), −1}.
        let s = spec(&generators::star(10));
        assert!(s.lambda2.abs() < 1e-8, "λ2 {}", s.lambda2);
        assert!((s.lambda_min + 1.0).abs() < 1e-8);
    }

    #[test]
    fn two_vertex_path() {
        let s = spec(&generators::path(2));
        assert!(
            (s.lambda2 + 1.0).abs() < 1e-9,
            "deflated spectrum is {{−1}}"
        );
        assert!((s.lambda_min + 1.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_graph_has_unit_lambda2() {
        let g =
            cobra_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
                .unwrap();
        let s = spec(&g);
        assert!(
            (s.lambda2 - 1.0).abs() < 1e-8,
            "second component carries eigenvalue 1"
        );
    }

    #[test]
    fn torus_product_spectrum() {
        // Torus(a, b) is the Cartesian product C_a □ C_b, both 2-regular:
        // P eigenvalues (cos(2πi/a) + cos(2πj/b))/2.
        let (a, b) = (5usize, 7usize);
        let g = generators::torus(&[a, b]);
        let s = spec(&g);
        let mut eigs: Vec<f64> = Vec::new();
        for i in 0..a {
            for j in 0..b {
                let e = ((2.0 * std::f64::consts::PI * i as f64 / a as f64).cos()
                    + (2.0 * std::f64::consts::PI * j as f64 / b as f64).cos())
                    / 2.0;
                eigs.push(e);
            }
        }
        eigs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let want2 = eigs[eigs.len() - 2];
        let wantmin = eigs[0];
        assert!(
            (s.lambda2 - want2).abs() < 1e-7,
            "λ2 {} vs {}",
            s.lambda2,
            want2
        );
        assert!(
            (s.lambda_min - wantmin).abs() < 1e-7,
            "λmin {} vs {}",
            s.lambda_min,
            wantmin
        );
    }

    #[test]
    fn agrees_with_power_iteration_on_regular_and_irregular_graphs() {
        let mut rng = SmallRng::seed_from_u64(33);
        let regular = generators::random_regular(60, 4, true, &mut rng).unwrap();
        // A K_8 with a 6-vertex tail.
        let irregular = generators::lollipop(8, 6);
        assert_eq!(irregular.regularity(), None);
        for g in [regular, irregular] {
            let s = spec(&g);
            let p = crate::power::second_eigenvalue_abs(&g, crate::power::PowerOptions::default());
            assert!(
                (s.lambda_abs() - p.lambda_abs).abs() < 1e-5,
                "lanczos {} vs power {}",
                s.lambda_abs(),
                p.lambda_abs
            );
        }
    }

    #[test]
    fn ring_of_cliques_gap_shrinks_with_ring_length() {
        let g1 = generators::ring_of_cliques(4, 6);
        let g2 = generators::ring_of_cliques(16, 6);
        assert!(spec(&g2).gap() < spec(&g1).gap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Edge spectrum stays inside [−1, 1] with λmin ≤ λ2, across
        /// random connected graphs.
        #[test]
        fn spectrum_well_ordered(seed in 0u64..5000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = generators::gnp(30, 0.15, &mut rng);
            let (comp, _) = cobra_graph::props::largest_component(&g);
            prop_assume!(comp.n() >= 2 && comp.m() >= 1);
            let s = lanczos_edge_spectrum(&comp, seed);
            prop_assert!(s.lambda_min <= s.lambda2 + 1e-9);
            prop_assert!((-1.0..=1.0).contains(&s.lambda2));
            prop_assert!((-1.0..=1.0).contains(&s.lambda_min));
            prop_assert!(s.lambda_abs() <= 1.0);
            prop_assert_eq!(
                cobra_graph::props::is_bipartite(&comp),
                (s.lambda_min + 1.0).abs() < 1e-6
            );
        }
    }
}
