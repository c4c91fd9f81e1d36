//! F2 — random regular expanders: `O(log n)` cover (Theorem 1.2 with a
//! constant eigenvalue gap).
//!
//! Random `r`-regular graphs have `λ ≈ 2√(r−1)/r` w.h.p. (Friedman), so
//! `1 − λ` is a constant and Theorem 1.2 collapses to
//! `O((r + r²) log n)` — plain `O(log n)` at fixed `r`. We measure the
//! gap with Lanczos per instance, verify the Theorem 1.2 gap condition,
//! and fit the cover exponent in `ln n`.

use super::stopping_summary;
use crate::bounds;
use crate::report::{fmt_f, Table};
use crate::sim::SimSpec;
use cobra_graph::generators;
use cobra_process::ProcessSpec;
use cobra_spectral::lanczos_edge_spectrum;
use cobra_stats::fit_power_law;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs F2 (`quick`: r ∈ {3, 8}, n = 2^5..2^7; full: n = 2^7..2^12).
pub fn run(quick: bool) -> Table {
    let (exponents, trials): (Vec<u32>, usize) = if quick {
        ((5..=7).collect(), 6)
    } else {
        ((7..=12).collect(), 20)
    };
    let degrees = [3usize, 8];
    let mut table = Table::new(
        "F2",
        "Random r-regular expanders: COBRA b=2 cover vs Theorem 1.2",
        &[
            "r",
            "n",
            "1-λ",
            "gap margin",
            "mean cover",
            "cover/log2 n",
            "Thm1.2 shape",
        ],
    );
    for &r in &degrees {
        let mut ln_ns = Vec::new();
        let mut covers = Vec::new();
        for &k in &exponents {
            let n = 1usize << k;
            let mut gen_rng = SmallRng::seed_from_u64(0xF2_0000 + (r as u64) * 64 + k as u64);
            let g = generators::random_regular(n, r, true, &mut gen_rng)
                .expect("regular graph generation");
            let spec = lanczos_edge_spectrum(&g, 0);
            let gap = spec.gap();
            let s = stopping_summary(
                SimSpec::new(&g, ProcessSpec::COBRA_B2)
                    .with_trials(trials)
                    .with_seed(0xF2 + k as u64),
            );
            ln_ns.push((n as f64).ln());
            covers.push(s.mean);
            // Theorem 1.2's condition `1−λ > C·sqrt(log n / n)` is
            // asymptotic (C "suitably large"); the margin gap/sqrt(·)
            // must *grow* with n because expander gaps are constant.
            let margin = gap / (cobra_util::math::ln_usize(n) / n as f64).sqrt();
            table.push_row(vec![
                r.to_string(),
                n.to_string(),
                fmt_f(gap),
                fmt_f(margin),
                fmt_f(s.mean),
                fmt_f(s.mean / k as f64),
                fmt_f(bounds::thm_1_2(n, r, gap)),
            ]);
        }
        let (alpha, _, fit) = fit_power_law(&ln_ns, &covers);
        table.note(format!(
            "r = {r}: fitted cover ≈ c·(ln n)^α, α = {} (R² = {}); claim O(log n) ⇒ α ≈ 1",
            fmt_f(alpha),
            fmt_f(fit.r_squared)
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
        assert_eq!(t.rows.len(), 6, "2 degrees × 3 sizes");
        assert_eq!(t.notes.len(), 2);
    }

    #[test]
    fn gap_condition_margin_grows_with_n() {
        // Constant expander gap vs shrinking sqrt(log n / n): the margin
        // must increase down each degree's sweep, certifying that the
        // Theorem 1.2 condition holds for all large n.
        let t = run(true);
        for r in ["3", "8"] {
            let margins: Vec<f64> = t
                .rows
                .iter()
                .filter(|row| row[0] == r)
                .map(|row| row[3].parse().unwrap())
                .collect();
            assert!(margins.len() >= 2);
            for w in margins.windows(2) {
                assert!(
                    w[1] > w[0] * 0.9,
                    "margin not growing for r={r}: {margins:?}"
                );
            }
        }
    }

    #[test]
    fn cover_within_logarithmic_band() {
        let t = run(true);
        for row in &t.rows {
            let per_log: f64 = row[5].parse().unwrap();
            assert!(
                (0.8..15.0).contains(&per_log),
                "cover/log2n = {per_log} outside O(log n) band: {row:?}"
            );
        }
    }
}
