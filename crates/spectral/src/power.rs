//! Power iteration for `max_{i≥2} |λ_i(P)|` with π-orthogonal deflation.
//!
//! After projecting out the constant eigenvector, the power method on `P`
//! converges (in π-norm growth rate) to the largest *absolute* remaining
//! eigenvalue — exactly the λ in the paper's bounds. It is cheap
//! (`O(m)` per iteration) and cross-validates the Lanczos path.

use crate::operator::{apply_walk, deflate_constant, norm_pi, scale, stationary};
use cobra_graph::Graph;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Outcome of the power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerResult {
    /// Estimated `max_{i≥2} |λ_i|`.
    pub lambda_abs: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the estimate moved less than the tolerance at the end.
    pub converged: bool,
}

/// Options for [`second_eigenvalue_abs`].
#[derive(Debug, Clone, Copy)]
pub struct PowerOptions {
    pub max_iterations: usize,
    pub tolerance: f64,
    pub seed: u64,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            max_iterations: 20_000,
            tolerance: 1e-10,
            seed: 0x5EED,
        }
    }
}

/// Estimates `λ = max_{i≥2} |λ_i(P)|` by deflated power iteration.
///
/// Panics on edgeless graphs (no stationary distribution). On bipartite
/// or disconnected graphs converges to 1, matching theory.
pub fn second_eigenvalue_abs(g: &Graph, opts: PowerOptions) -> PowerResult {
    assert!(g.m() > 0, "second eigenvalue undefined for edgeless graph");
    let n = g.n();
    if n <= 1 {
        return PowerResult {
            lambda_abs: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let pi = stationary(g);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    deflate_constant(&pi, &mut x);
    let nx = norm_pi(&pi, &x);
    if nx < f64::MIN_POSITIVE {
        // Degenerate random start (essentially impossible); restart flat.
        x.iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = if i % 2 == 0 { 1.0 } else { -1.0 });
        deflate_constant(&pi, &mut x);
    }
    scale(1.0 / norm_pi(&pi, &x), &mut x);

    let mut y = vec![0.0; n];
    let mut estimate = 0.0f64;
    for it in 1..=opts.max_iterations {
        apply_walk(g, &x, &mut y);
        // Deflate again: numerical drift re-introduces the constant mode.
        deflate_constant(&pi, &mut y);
        let ny = norm_pi(&pi, &y);
        if ny < 1e-300 {
            // P annihilated the deflated space (e.g. a star graph where
            // all non-top eigenvalues come in {0, -1} pairs collapsing):
            // the remaining spectrum radius is 0 in this direction.
            // Return the best estimate so far.
            return PowerResult {
                lambda_abs: estimate,
                iterations: it,
                converged: true,
            };
        }
        let new_estimate = ny; // ‖P x‖_π with ‖x‖_π = 1 → spectral radius est.
        scale(1.0 / ny, &mut y);
        std::mem::swap(&mut x, &mut y);
        if (new_estimate - estimate).abs() <= opts.tolerance * new_estimate.max(1e-12) {
            return PowerResult {
                lambda_abs: new_estimate.min(1.0),
                iterations: it,
                converged: true,
            };
        }
        estimate = new_estimate;
    }
    PowerResult {
        lambda_abs: estimate.min(1.0),
        iterations: opts.max_iterations,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    fn lam(g: &Graph) -> f64 {
        second_eigenvalue_abs(g, PowerOptions::default()).lambda_abs
    }

    #[test]
    fn complete_graph_lambda() {
        // K_n: non-unit eigenvalues are all −1/(n−1).
        for n in [4usize, 8, 16] {
            let g = generators::complete(n);
            let want = 1.0 / (n as f64 - 1.0);
            assert!(
                (lam(&g) - want).abs() < 1e-6,
                "K_{n}: got {} want {want}",
                lam(&g)
            );
        }
    }

    #[test]
    fn odd_cycle_lambda() {
        // C_n odd: λ = cos(2π/n) (largest non-trivial in absolute value
        // for odd n is cos(2π⌊n/2⌋/n) = |cos(π(n−1)/n)| — compare both).
        let n = 9usize;
        let g = generators::cycle(n);
        let c1 = (2.0 * std::f64::consts::PI / n as f64).cos();
        let c2 = (2.0 * std::f64::consts::PI * 4.0 / n as f64).cos().abs();
        let want = c1.max(c2);
        assert!(
            (lam(&g) - want).abs() < 1e-6,
            "got {} want {}",
            lam(&g),
            want
        );
    }

    #[test]
    fn even_cycle_is_bipartite_lambda_one() {
        let g = generators::cycle(8);
        assert!((lam(&g) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn petersen_lambda() {
        let g = generators::petersen();
        assert!((lam(&g) - 2.0 / 3.0).abs() < 1e-8, "got {}", lam(&g));
    }

    #[test]
    fn hypercube_lambda_is_one_bipartite() {
        let g = generators::hypercube(4);
        assert!((lam(&g) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_graph_lambda_one() {
        let g =
            cobra_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
                .unwrap();
        assert!((lam(&g) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn single_edge_bipartite() {
        let g = generators::path(2);
        assert!((lam(&g) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generators::cycle_power(40, 3);
        let a = second_eigenvalue_abs(&g, PowerOptions::default());
        let b = second_eigenvalue_abs(&g, PowerOptions::default());
        assert_eq!(a, b);
    }
}
