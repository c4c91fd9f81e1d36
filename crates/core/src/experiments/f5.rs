//! F5 — Theorem 1.2's eigenvalue-gap dependence.
//!
//! Family: the regular ring of cliques (fixed degree `r = c−1`, gap
//! shrinking as the ring grows like a cycle's), so the sweep isolates
//! the `r/(1−λ)` term of `O((r/(1−λ) + r²) log n)`. The shape check:
//! `cover / bound` stays bounded as the gap collapses, and the fitted
//! exponent of cover vs `1/(1−λ)` stays at or below 1.

use super::stopping_summary;
use crate::bounds;
use crate::report::{fmt_f, Table};
use crate::sim::SimSpec;
use cobra_graph::generators;
use cobra_process::ProcessSpec;
use cobra_spectral::lanczos_edge_spectrum;
use cobra_stats::fit_power_law;

/// Runs F5 (`quick`: rings of 4/8 cliques; full: 8..64).
pub fn run(quick: bool) -> Table {
    let clique_size = 6usize; // r = 5 throughout
    let (rings, trials): (Vec<usize>, usize) = if quick {
        (vec![4, 8], 6)
    } else {
        (vec![8, 16, 32, 64], 20)
    };
    let mut table = Table::new(
        "F5",
        "Ring of cliques (r = 5): COBRA b=2 cover vs (r/(1−λ) + r²)·ln n",
        &[
            "cliques",
            "n",
            "1-λ",
            "mean cover",
            "Thm1.2 bound",
            "cover/bound",
            "1/(1-λ)",
        ],
    );
    let mut inv_gaps = Vec::new();
    let mut covers = Vec::new();
    for &k in &rings {
        let g = generators::ring_of_cliques(k, clique_size);
        let r = g.regularity().expect("ring of cliques is regular");
        let spec = lanczos_edge_spectrum(&g, 0);
        let gap = spec.gap();
        assert!(gap > 0.0, "ring of cliques must be non-bipartite");
        let s = stopping_summary(
            SimSpec::new(&g, ProcessSpec::COBRA_B2)
                .with_trials(trials)
                .with_seed(0xF5 + k as u64),
        );
        let bound = bounds::thm_1_2(g.n(), r, gap);
        inv_gaps.push(1.0 / gap);
        covers.push(s.mean);
        table.push_row(vec![
            k.to_string(),
            g.n().to_string(),
            fmt_f(gap),
            fmt_f(s.mean),
            fmt_f(bound),
            fmt_f(s.mean / bound),
            fmt_f(1.0 / gap),
        ]);
    }
    let (alpha, _, fit) = fit_power_law(&inv_gaps, &covers);
    table.note(format!(
        "fitted cover ≈ c·(1/(1−λ))^α: α = {} (R² = {}); Theorem 1.2 permits at most α = 1 \
         (plus the log n factor)",
        fmt_f(alpha),
        fmt_f(fit.r_squared)
    ));
    let max_ratio = table
        .rows
        .iter()
        .map(|r| r[5].parse::<f64>().unwrap())
        .fold(0.0f64, f64::max);
    table.note(format!(
        "max cover/bound = {} — bounded ratios across a {}x gap collapse confirm the shape",
        fmt_f(max_ratio),
        fmt_f(inv_gaps.last().unwrap() / inv_gaps.first().unwrap())
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.notes.len(), 2);
    }

    #[test]
    fn gap_shrinks_as_ring_grows() {
        let t = run(true);
        let g0: f64 = t.rows[0][2].parse().unwrap();
        let g1: f64 = t.rows[1][2].parse().unwrap();
        assert!(g1 < g0, "gap failed to shrink: {g0} -> {g1}");
    }

    #[test]
    fn cover_stays_below_bound_shape() {
        let t = run(true);
        for row in &t.rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!(
                ratio < 2.0,
                "cover/bound = {ratio}: Theorem 1.2 shape violated"
            );
        }
    }

    #[test]
    fn fitted_exponent_at_most_one_ish() {
        let t = run(true);
        let alpha: f64 = t.notes[0]
            .split("α = ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            alpha < 1.4,
            "gap exponent {alpha} exceeds Theorem 1.2's shape"
        );
    }
}
