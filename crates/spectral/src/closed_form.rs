//! Closed-form spectra for the graph families with known eigenvalues.
//!
//! They are the oracles that test the numerical solvers.

use std::f64::consts::PI;

/// Full spectrum (ascending) of the random-walk matrix of `K_n`.
pub fn complete(n: usize) -> Vec<f64> {
    assert!(n >= 2);
    let mut v = vec![-1.0 / (n as f64 - 1.0); n - 1];
    v.push(1.0);
    v
}

/// Full spectrum (ascending) of the random-walk matrix of the cycle `C_n`:
/// `cos(2πk/n)`, `k = 0..n`.
pub fn cycle(n: usize) -> Vec<f64> {
    assert!(n >= 3);
    let mut v: Vec<f64> = (0..n)
        .map(|k| (2.0 * PI * k as f64 / n as f64).cos())
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// Full spectrum (ascending) of the random-walk matrix of the hypercube
/// `Q_d`: `(d − 2k)/d` with multiplicity `C(d, k)`.
pub fn hypercube(d: u32) -> Vec<f64> {
    assert!(d >= 1);
    let mut v = Vec::with_capacity(1 << d);
    for k in 0..=d {
        let eig = (d as f64 - 2.0 * k as f64) / d as f64;
        let mult = binomial(d as u64, k as u64);
        for _ in 0..mult {
            v.push(eig);
        }
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// Full spectrum (ascending) of the random-walk matrix of `K_{a,b}`:
/// `{1, −1, 0^(a+b−2)}`.
pub fn complete_bipartite(a: usize, b: usize) -> Vec<f64> {
    assert!(a >= 1 && b >= 1);
    let mut v = vec![0.0; a + b - 2];
    v.insert(0, -1.0);
    v.push(1.0);
    v
}

/// Spectrum (ascending) of the random-walk matrix of the Petersen graph:
/// adjacency eigenvalues {3, 1⁵, (−2)⁴} over degree 3.
pub fn petersen() -> Vec<f64> {
    let mut v = vec![-2.0 / 3.0; 4];
    v.extend(std::iter::repeat_n(1.0 / 3.0, 5));
    v.push(1.0);
    v
}

/// Spectrum (ascending) of the D-dimensional torus with the given sides:
/// the Cartesian product of cycles; since every factor is 2-regular, the
/// product's walk eigenvalues are the averages
/// `(Σ_d cos(2π k_d / s_d)) / D`.
pub fn torus(dims: &[usize]) -> Vec<f64> {
    assert!(!dims.is_empty());
    assert!(
        dims.iter().all(|&s| s >= 3),
        "closed form needs all sides ≥ 3"
    );
    let mut eigs = vec![0.0f64];
    for &s in dims {
        let factor: Vec<f64> = (0..s)
            .map(|k| (2.0 * PI * k as f64 / s as f64).cos())
            .collect();
        let mut next = Vec::with_capacity(eigs.len() * s);
        for &e in &eigs {
            for &f in &factor {
                next.push(e + f);
            }
        }
        eigs = next;
    }
    let d = dims.len() as f64;
    for e in eigs.iter_mut() {
        *e /= d;
    }
    eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    eigs
}

/// `max_{i≥2} |λ_i|` from a full ascending spectrum.
pub fn lambda_abs_from_spectrum(spectrum: &[f64]) -> f64 {
    assert!(spectrum.len() >= 2, "need at least two eigenvalues");
    let second_largest = spectrum[spectrum.len() - 2];
    let smallest = spectrum[0];
    second_largest.abs().max(smallest.abs())
}

/// λ of the hypercube `Q_d` directly: `max(|1 − 2/d|, |−1|) = 1`
/// (bipartite); the *lazy* λ is `(1 + (1 − 2/d))/2 = 1 − 1/d`, so the
/// lazy gap is exactly `1/d = 1/log2 n` — the `Θ(1/log n)` the paper
/// quotes for the hypercube example.
pub fn hypercube_lazy_gap(d: u32) -> f64 {
    assert!(d >= 1);
    1.0 / d as f64
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanczos::lanczos_edge_spectrum;
    use cobra_graph::generators;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 5), 252);
        assert_eq!(binomial(3, 4), 0);
    }

    #[test]
    fn spectra_have_correct_size_and_top() {
        assert_eq!(complete(7).len(), 7);
        assert_eq!(cycle(9).len(), 9);
        assert_eq!(hypercube(5).len(), 32);
        assert_eq!(complete_bipartite(3, 4).len(), 7);
        assert_eq!(petersen().len(), 10);
        assert_eq!(torus(&[3, 5]).len(), 15);
        for spec in [
            complete(7),
            cycle(9),
            hypercube(5),
            petersen(),
            torus(&[3, 5]),
        ] {
            assert!(
                (spec.last().unwrap() - 1.0).abs() < 1e-12,
                "top eigenvalue is 1"
            );
        }
    }

    #[test]
    fn spectra_sum_to_trace_zero() {
        // Walk matrices of graphs without self-loops have zero trace.
        for spec in [
            complete(6),
            cycle(8),
            hypercube(4),
            complete_bipartite(2, 5),
            petersen(),
        ] {
            let s: f64 = spec.iter().sum();
            assert!(s.abs() < 1e-9, "trace {s}");
        }
    }

    #[test]
    fn closed_forms_match_lanczos() {
        let cases: Vec<(cobra_graph::Graph, Vec<f64>)> = vec![
            (generators::complete(8), complete(8)),
            (generators::cycle(9), cycle(9)),
            (generators::hypercube(4), hypercube(4)),
            (
                generators::complete_bipartite(3, 5),
                complete_bipartite(3, 5),
            ),
            (generators::petersen(), petersen()),
            (generators::torus(&[4, 5]), torus(&[4, 5])),
        ];
        for (g, spec) in cases {
            let s = lanczos_edge_spectrum(&g, 0);
            let want2 = spec[spec.len() - 2];
            let wantmin = spec[0];
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
    }

    #[test]
    fn hypercube_lazy_gap_matches_definition() {
        for d in [2u32, 4, 8, 16] {
            let spec = hypercube(d);
            let lambda2 = spec[spec.len() - 2];
            let lazy_gap = (1.0 - lambda2) / 2.0;
            assert!((hypercube_lazy_gap(d) - lazy_gap).abs() < 1e-12);
        }
    }

    #[test]
    fn lambda_abs_helper() {
        assert_eq!(lambda_abs_from_spectrum(&[-0.9, 0.3, 1.0]), 0.9);
        assert_eq!(lambda_abs_from_spectrum(&[-0.2, 0.5, 1.0]), 0.5);
    }
}
