//! Eigenvalue machinery for random-walk transition matrices.
//!
//! Theorem 1.2 of the paper bounds the COBRA cover time of a connected
//! `r`-regular graph by `O((r/(1−λ) + r²) log n)` where
//! `λ = max_{i≥2} |λ_i(P)|` and `P = A/r` is the random-walk transition
//! matrix. Lemmas 4.1–4.3 and Corollary 5.2 are all parameterised by λ.
//! This crate computes λ (and the signed extreme eigenvalues) for any
//! graph the experiments construct:
//!
//! * [`operator`] — matrix-free application of `P` (and of the lazy chain
//!   `(I+P)/2`), stationary-distribution inner products.
//! * [`power`] — power iteration with π-orthogonal deflation of the top
//!   eigenvector; returns `max_{i≥2} |λ_i|`. It checks Lanczos on graphs
//!   with no closed-form spectrum.
//! * [`lanczos`] — Lanczos tridiagonalisation (full reorthogonalisation)
//!   of the symmetric normalised adjacency, plus a bisection eigensolver;
//!   returns the *signed* second-largest and smallest eigenvalues.
//! * [`closed_form`] — exact spectra for the families with known
//!   eigenvalues (complete, cycle, hypercube, …): the test oracles.

pub mod closed_form;
pub mod lanczos;
pub mod operator;
pub mod power;

pub use lanczos::{lanczos_edge_spectrum, EdgeSpectrum};

use cobra_graph::Graph;

/// λ of the lazy chain `P' = (I + P)/2`, whose eigenvalues are
/// `(1 + λ_i)/2 ∈ [0, 1]`: the second-largest is `(1 + λ₂)/2`, so the
/// lazy eigenvalue gap is `(1 − λ₂)/2` with the *signed* λ₂.
///
/// This is the λ to feed Theorem 1.2 when running the lazy COBRA/BIPS
/// variants on bipartite graphs (the paper's remark after Theorem 1.2).
pub fn lazy_lambda(g: &Graph) -> f64 {
    let s = lanczos_edge_spectrum(g, 0);
    (1.0 + s.lambda2) / 2.0
}

/// Gap of the lazy chain, strictly positive for any connected graph.
pub fn lazy_eigenvalue_gap(g: &Graph) -> f64 {
    (1.0 - lazy_lambda(g)).max(0.0)
}
