//! Matrix-free application of random-walk operators and the
//! π-weighted geometry they are self-adjoint in.
//!
//! For an undirected graph, the random-walk matrix `P = D⁻¹A` is
//! self-adjoint with respect to the inner product weighted by the
//! stationary distribution `π(u) = d(u)/2m`. All iteration in this crate
//! happens in that geometry, which keeps symmetric-eigenvalue theory
//! applicable to irregular graphs.

use cobra_graph::Graph;

/// Applies the random-walk transition matrix: `y = P x`,
/// `y(u) = (1/d(u)) Σ_{w∼u} x(w)`.
///
/// Isolated vertices (degree 0) get `y(u) = 0`; connected-graph callers
/// never see this case.
pub fn apply_walk(g: &Graph, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), g.n(), "vector/graph size mismatch");
    assert_eq!(y.len(), g.n(), "vector/graph size mismatch");
    for u in 0..g.n() as u32 {
        let nbrs = g.neighbors(u);
        let mut acc = 0.0;
        for &w in nbrs {
            acc += x[w as usize];
        }
        y[u as usize] = if nbrs.is_empty() {
            0.0
        } else {
            acc / nbrs.len() as f64
        };
    }
}

/// Applies the lazy chain `y = (I + P)/2 · x`.
pub fn apply_lazy_walk(g: &Graph, x: &[f64], y: &mut [f64]) {
    apply_walk(g, x, y);
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = 0.5 * (*yi + *xi);
    }
}

/// Applies the symmetric normalised adjacency
/// `N = D^{-1/2} A D^{-1/2}`: `y(u) = Σ_{w∼u} x(w)/√(d(u)d(w))`.
/// Same spectrum as `P`; symmetric in the ordinary inner product.
pub fn apply_normalized(g: &Graph, x: &[f64], y: &mut [f64], inv_sqrt_deg: &[f64]) {
    assert_eq!(x.len(), g.n(), "vector/graph size mismatch");
    for u in 0..g.n() as u32 {
        let mut acc = 0.0;
        for &w in g.neighbors(u) {
            acc += x[w as usize] * inv_sqrt_deg[w as usize];
        }
        y[u as usize] = acc * inv_sqrt_deg[u as usize];
    }
}

/// Precomputes `1/√d(u)` (0 for isolated vertices).
pub fn inv_sqrt_degrees(g: &Graph) -> Vec<f64> {
    (0..g.n() as u32)
        .map(|u| {
            let d = g.degree(u);
            if d == 0 {
                0.0
            } else {
                1.0 / (d as f64).sqrt()
            }
        })
        .collect()
}

/// Stationary distribution `π(u) = d(u)/2m`.
pub fn stationary(g: &Graph) -> Vec<f64> {
    let two_m = g.degree_sum() as f64;
    assert!(
        two_m > 0.0,
        "stationary distribution undefined on edgeless graph"
    );
    (0..g.n() as u32)
        .map(|u| g.degree(u) as f64 / two_m)
        .collect()
}

/// π-weighted inner product `Σ π(u) x(u) y(u)`.
fn dot_pi(pi: &[f64], x: &[f64], y: &[f64]) -> f64 {
    pi.iter()
        .zip(x)
        .zip(y)
        .map(|((&p, &a), &b)| p * a * b)
        .sum()
}

/// π-weighted norm.
pub fn norm_pi(pi: &[f64], x: &[f64]) -> f64 {
    dot_pi(pi, x, x).sqrt()
}

/// Removes the component of `x` along the constant vector (the top
/// eigenvector of `P`) in π-geometry: `x ← x − ⟨x, 1⟩_π · 1`.
pub fn deflate_constant(pi: &[f64], x: &mut [f64]) {
    let proj: f64 = pi.iter().zip(x.iter()).map(|(&p, &v)| p * v).sum();
    for v in x.iter_mut() {
        *v -= proj;
    }
}

/// Ordinary dot product.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Ordinary Euclidean norm.
pub fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales `x` by `alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    #[test]
    fn walk_preserves_constant_vector() {
        let g = generators::petersen();
        let x = vec![1.0; g.n()];
        let mut y = vec![0.0; g.n()];
        apply_walk(&g, &x, &mut y);
        for &v in &y {
            assert!((v - 1.0).abs() < 1e-14, "P1 = 1");
        }
        apply_lazy_walk(&g, &x, &mut y);
        for &v in &y {
            assert!((v - 1.0).abs() < 1e-14, "(I+P)/2 · 1 = 1");
        }
    }

    #[test]
    fn walk_row_stochastic_on_irregular_graph() {
        let g = generators::star(6);
        // x = indicator of centre: (Px)(leaf) = 1, (Px)(centre) = 0.
        let mut x = vec![0.0; 6];
        x[0] = 1.0;
        let mut y = vec![0.0; 6];
        apply_walk(&g, &x, &mut y);
        assert_eq!(y[0], 0.0);
        for &v in &y[1..] {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn stationary_sums_to_one_and_is_invariant() {
        let g = generators::double_star(3, 5);
        let pi = stationary(&g);
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // π is a left eigenvector: Σ_u π(u) P(u,w) = π(w). Verify via
        // ⟨Px, 1{w}⟩ relations by applying P to coordinate vectors.
        let n = g.n();
        let mut pt = vec![0.0; n];
        for w in 0..n {
            let mut x = vec![0.0; n];
            x[w] = 1.0;
            let mut y = vec![0.0; n];
            apply_walk(&g, &x, &mut y);
            // (Px)(u) = P(u,w); so Σ_u π(u) (Px)(u) must equal π(w).
            pt[w] = dot_pi(&pi, &y, &vec![1.0; n]);
        }
        for w in 0..n {
            assert!((pt[w] - pi[w]).abs() < 1e-12, "π invariance at {w}");
        }
    }

    #[test]
    fn normalized_operator_is_symmetric() {
        let g = generators::lollipop(4, 3);
        let isd = inv_sqrt_degrees(&g);
        let n = g.n();
        // Check N(u,v) == N(v,u) by applying to basis vectors.
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for j in 0..n {
            let mut x = vec![0.0; n];
            x[j] = 1.0;
            let mut y = vec![0.0; n];
            apply_normalized(&g, &x, &mut y, &isd);
            cols.push(y);
        }
        for (i, row) in cols.iter().enumerate() {
            for (j, col) in cols.iter().enumerate() {
                assert!((col[i] - row[j]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn deflation_zeroes_constant_component() {
        let g = generators::cycle(8);
        let pi = stationary(&g);
        let mut x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        deflate_constant(&pi, &mut x);
        let proj: f64 = pi.iter().zip(&x).map(|(&p, &v)| p * v).sum();
        assert!(proj.abs() < 1e-12);
    }

    #[test]
    fn vector_helpers() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 5.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }
}
