//! F7 — branching factor `b = 1+ρ` (§6): bounds scale by `1/ρ²`.
//!
//! The paper proves all four theorems survive with the round counts
//! multiplied by `1/ρ²`. We sweep ρ on an expander and a torus and
//! check (a) cover is monotone decreasing in ρ, and (b) the measured
//! slowdown `cover(ρ)/cover(1)` stays below the bound's `1/ρ²` envelope
//! (shape check: fitted exponent of slowdown vs `1/ρ` at most 2).

use super::stopping_summary;
use crate::report::{fmt_f, Table};
use crate::sim::SimSpec;
use cobra_graph::{generators, Graph};
use cobra_process::{Branching, Laziness, ProcessSpec};
use cobra_stats::fit_power_law;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs F7 (`quick`: 3 values of ρ on a small expander; full: 5 values
/// on expander + torus).
pub fn run(quick: bool) -> Table {
    let rhos: Vec<f64> = if quick {
        vec![1.0, 0.5, 0.25]
    } else {
        vec![1.0, 0.7, 0.5, 0.3, 0.2]
    };
    let trials = if quick { 6 } else { 20 };
    let graphs: Vec<(&str, Graph)> = {
        let mut v = Vec::new();
        let n = if quick { 128 } else { 512 };
        let mut gen_rng = SmallRng::seed_from_u64(0xF7_0001);
        v.push((
            "random 4-regular",
            generators::random_regular(n, 4, true, &mut gen_rng).expect("expander"),
        ));
        if !quick {
            v.push(("torus 15x15", generators::torus(&[15, 15])));
        }
        v
    };
    let mut table = Table::new(
        "F7",
        "Fractional branching b = 1+ρ: slowdown vs the 1/ρ² bound envelope",
        &[
            "graph",
            "rho",
            "mean cover",
            "slowdown vs rho=1",
            "1/rho²",
            "within envelope",
        ],
    );
    for (label, g) in &graphs {
        let mut base = f64::NAN;
        let mut inv_rhos = Vec::new();
        let mut slowdowns = Vec::new();
        for (i, &rho) in rhos.iter().enumerate() {
            let branching = if rho >= 1.0 {
                Branching::Fixed(2)
            } else {
                Branching::Expected(rho)
            };
            let process = ProcessSpec::Cobra {
                branching,
                laziness: Laziness::None,
            };
            let mean = stopping_summary(
                SimSpec::new(g, process)
                    .with_trials(trials)
                    .with_seed(0xF7_10 + i as u64),
            )
            .mean;
            if rho >= 1.0 {
                base = mean;
            }
            let slowdown = mean / base;
            let envelope = 1.0 / (rho * rho);
            inv_rhos.push(1.0 / rho);
            slowdowns.push(slowdown.max(1e-9));
            table.push_row(vec![
                label.to_string(),
                fmt_f(rho),
                fmt_f(mean),
                fmt_f(slowdown),
                fmt_f(envelope),
                // Generous ×2 noise allowance; the claim is an upper bound.
                if slowdown <= 2.0 * envelope {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
            ]);
        }
        if inv_rhos.len() >= 2 {
            let (alpha, _, fit) = fit_power_law(&inv_rhos, &slowdowns);
            table.note(format!(
                "{label}: slowdown ≈ (1/ρ)^α with α = {} (R² = {}); §6 permits at most α = 2",
                fmt_f(alpha),
                fmt_f(fit.r_squared)
            ));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.notes.len(), 1);
    }

    #[test]
    fn slowdown_within_envelope() {
        let t = run(true);
        for row in &t.rows {
            assert_eq!(row[5], "yes", "slowdown escaped the 1/ρ² envelope: {row:?}");
        }
    }

    #[test]
    fn cover_monotone_in_rho() {
        let t = run(true);
        let covers: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // ρ decreases down the rows; cover must not decrease (noise slack).
        for w in covers.windows(2) {
            assert!(
                w[1] >= w[0] * 0.85,
                "cover decreased as branching shrank: {covers:?}"
            );
        }
    }

    #[test]
    fn fitted_exponent_at_most_two() {
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
            alpha <= 2.2,
            "slowdown exponent {alpha} above the §6 envelope"
        );
    }
}
