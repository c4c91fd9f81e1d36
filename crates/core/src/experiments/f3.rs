//! F3 — D-dimensional tori: cover `≈ n^{1/D}`.
//!
//! Prior work bounds quoted in §1: `Õ(n^{1/D})` (Dutta et al.) and
//! `O(D² n^{1/D})` (Mitzenmacher et al.). We sweep odd side lengths
//! (odd ⇒ non-bipartite, so the plain chain applies), fit the exponent
//! of cover vs `n` per dimension, and expect `α ≈ 1/D`.

use super::stopping_summary;
use crate::bounds;
use crate::report::{fmt_f, Table};
use crate::sim::SimSpec;
use cobra_graph::generators;
use cobra_process::ProcessSpec;
use cobra_stats::fit_power_law;

/// Runs F3 (`quick`: two sizes per dimension; full: four).
pub fn run(quick: bool) -> Table {
    // Odd sides keep the torus non-bipartite.
    let sides: Vec<Vec<usize>> = if quick {
        vec![
            vec![33, 65], // D = 1 (cycle)
            vec![9, 15],  // D = 2
            vec![5, 7],   // D = 3
        ]
    } else {
        vec![
            vec![65, 129, 257, 513],
            vec![9, 15, 25, 41],
            vec![5, 7, 9, 13],
        ]
    };
    let trials = if quick { 6 } else { 20 };
    let mut table = Table::new(
        "F3",
        "D-dimensional torus: COBRA b=2 cover vs n^{1/D}",
        &[
            "D",
            "side",
            "n",
            "mean cover",
            "n^{1/D}",
            "cover/n^{1/D}",
            "SPAA16 D²n^{1/D}",
        ],
    );
    for (dim_idx, dim_sides) in sides.iter().enumerate() {
        let d = dim_idx + 1;
        let mut ns = Vec::new();
        let mut covers = Vec::new();
        for &side in dim_sides {
            let dims = vec![side; d];
            let g = generators::torus(&dims);
            let n = g.n();
            let s = stopping_summary(
                SimSpec::new(&g, ProcessSpec::COBRA_B2)
                    .with_trials(trials)
                    .with_seed(0xF3 + (d * 1000 + side) as u64),
            );
            let root = (n as f64).powf(1.0 / d as f64);
            ns.push(n as f64);
            covers.push(s.mean);
            table.push_row(vec![
                d.to_string(),
                side.to_string(),
                n.to_string(),
                fmt_f(s.mean),
                fmt_f(root),
                fmt_f(s.mean / root),
                fmt_f(bounds::spaa16_grid(n, d as u32)),
            ]);
        }
        let (alpha, _, fit) = fit_power_law(&ns, &covers);
        table.note(format!(
            "D = {d}: fitted cover ≈ c·n^α, α = {} (R² = {}); claim shape 1/D = {}",
            fmt_f(alpha),
            fmt_f(fit.r_squared),
            fmt_f(1.0 / d as f64)
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 6, "3 dims × 2 sizes");
        assert_eq!(t.notes.len(), 3);
    }

    #[test]
    fn one_dimensional_cover_is_linear_in_n() {
        let t = run(true);
        // D=1 rows: cover/n^{1} should be order 1 (COBRA crosses a cycle
        // at boundary speed).
        for row in t.rows.iter().filter(|r| r[0] == "1") {
            let ratio: f64 = row[5].parse().unwrap();
            assert!((0.2..20.0).contains(&ratio), "cycle ratio {ratio}: {row:?}");
        }
    }

    #[test]
    fn exponents_decrease_with_dimension() {
        let t = run(true);
        let alphas: Vec<f64> = t
            .notes
            .iter()
            .map(|n| {
                n.split("α = ")
                    .nth(1)
                    .unwrap()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(alphas[0] > alphas[1], "α(D=1) ≤ α(D=2): {alphas:?}");
        assert!(alphas[1] > alphas[2] - 0.1, "α(D=2) ≪ α(D=3): {alphas:?}");
    }
}
