//! F16 — ablation: laziness on bipartite graphs.
//!
//! The paper's theorems for bipartite graphs go through the lazy
//! variant (each pick is "self" with probability ½), because `λ = 1`
//! breaks the spectral machinery. The *set* process itself needs no
//! such fix to cover — coalescing across the two sides keeps both
//! parities active. This ablation measures the price of laziness: the
//! lazy process satisfies the theorem's preconditions but is slower by
//! roughly the factor-2 pick dilution.

use super::stopping_summary;
use crate::report::{fmt_f, Table};
use crate::sim::SimSpec;
use cobra_graph::{generators, props, Graph};
use cobra_spectral::{lanczos_edge_spectrum, lazy_lambda};

fn cases(quick: bool) -> Vec<(&'static str, Graph)> {
    if quick {
        vec![
            ("Q_6", generators::hypercube(6)),
            ("C_64", generators::cycle(64)),
            ("K_{16,16}", generators::complete_bipartite(16, 16)),
        ]
    } else {
        vec![
            ("Q_10", generators::hypercube(10)),
            ("C_256", generators::cycle(256)),
            ("K_{64,64}", generators::complete_bipartite(64, 64)),
            ("grid 16x16", generators::grid(&[16, 16])),
        ]
    }
}

/// Runs F16 (`quick`: 3 bipartite graphs, 8 trials; full: 4 graphs, 20).
pub fn run(quick: bool) -> Table {
    let trials = if quick { 8 } else { 20 };
    let mut table = Table::new(
        "F16",
        "Ablation: lazy vs plain COBRA b=2 on bipartite graphs",
        &[
            "graph",
            "n",
            "λ (plain)",
            "λ (lazy)",
            "cover plain",
            "cover lazy",
            "lazy/plain",
        ],
    );
    for (i, (label, g)) in cases(quick).into_iter().enumerate() {
        assert!(
            props::is_bipartite(&g),
            "{label} must be bipartite for this ablation"
        );
        let lam_plain = lanczos_edge_spectrum(&g, 0).lambda_abs();
        let lam_lazy = lazy_lambda(&g);
        let cover = |process: &str, seed| {
            let spec = SimSpec::new(&g, process.parse().expect("static spec"));
            stopping_summary(spec.with_trials(trials).with_seed(seed)).mean
        };
        let plain = cover("cobra:b2", 0x0F16_0000 + i as u64);
        let lazy = cover("cobra:b2:lazy", 0x0F16_1000 + i as u64);
        table.push_row(vec![
            label.to_string(),
            g.n().to_string(),
            fmt_f(lam_plain),
            fmt_f(lam_lazy),
            fmt_f(plain),
            fmt_f(lazy),
            fmt_f(lazy / plain),
        ]);
    }
    table.note(
        "plain λ = 1 on every row (bipartite), so Theorem 1.2 is inapplicable to the plain \
         chain — yet the plain set process still covers, and faster: laziness costs ≈ the \
         2x pick dilution"
            .to_string(),
    );
    table.note(
        "lazy λ < 1 restores the theorem's precondition — the paper's remark after \
         Theorem 1.2 quantified"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_lambda_is_one_and_lazy_below() {
        let t = run(true);
        for row in &t.rows {
            let plain: f64 = row[2].parse().unwrap();
            let lazy: f64 = row[3].parse().unwrap();
            assert!(
                (plain - 1.0).abs() < 1e-6,
                "bipartite must have λ = 1: {row:?}"
            );
            assert!(lazy < 1.0 - 1e-6, "lazy λ must drop below 1: {row:?}");
        }
    }

    #[test]
    fn both_variants_cover_and_lazy_is_slower() {
        let t = run(true);
        for row in &t.rows {
            let plain: f64 = row[4].parse().unwrap();
            let lazy: f64 = row[5].parse().unwrap();
            assert!(plain > 0.0 && lazy > 0.0);
            let ratio: f64 = row[6].parse().unwrap();
            assert!(
                (1.0..5.0).contains(&ratio),
                "laziness cost outside the expected band: {row:?}"
            );
        }
    }
}
