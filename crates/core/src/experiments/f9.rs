//! F9 — Lemma 3.1 degree growth: `d(A_t) ≥ d(v) + k` within
//! `t(k) = 4k + C'·dmax²·log n` rounds, w.h.p.
//!
//! On irregular graphs we run BIPS `b = 2`, record the first round at
//! which the infected degree clears `d(v) + k` for a ladder of targets
//! `k`, and compare against the `t(k)` shape with `C' = 1`. The slope
//! of `t` versus `k` is the sharp part of the claim (4k dominates once
//! `k ≫ dmax² log n`), so the fitted slope is reported per graph.
//!
//! Each graph case is a `GraphSpec` string of a deterministic family,
//! and the cases run in order on one long-lived `StepCtx`, reseeded per
//! trial. The BIPS state is built once per case and reset per trial,
//! with values bit-identical to per-trial constructions (reset ≡ fresh
//! build, reseed ≡ fresh context; both pinned by the process-crate
//! tests).

use crate::report::{fmt_f, Table};
use cobra_graph::GraphSpec;
use cobra_process::{Bips, BipsMode, Branching, Laziness, ProcessState, ProcessView, StepCtx};
use cobra_stats::fit_line;
use cobra_util::math::ln_usize;

fn cases(quick: bool) -> Vec<(&'static str, String)> {
    let n = if quick { 96 } else { 256 };
    vec![
        ("path", format!("path:{n}")),
        ("cycle", format!("cycle:{}", n + 1)),
        ("binary_tree", format!("tree:2:{}", n - 1)),
        ("barbell", format!("barbell:{}:{}", n / 4, n / 2)),
    ]
}

/// Per-case measurement: mean first-passage rounds per target fraction.
struct CaseResult {
    rows: Vec<(f64, usize, f64, f64)>,
    slope: f64,
}

/// Runs F9 (`quick`: n ≈ 96, 5 trials; full: n ≈ 256, 15 trials).
pub fn run(quick: bool) -> Table {
    let trials = if quick { 5 } else { 15 };
    let fractions = [0.25f64, 0.5, 0.75, 1.0];
    let cases = cases(quick);
    let mut ctx = StepCtx::new();
    let mut run_case = |spec: &str| {
        let spec: GraphSpec = spec.parse().expect("static case spec");
        // Deterministic families ignore the build seed.
        let g = &spec.build(0).expect("static case specs build");
        let source = 0u32;
        let d_v = g.degree(source);
        let two_m = g.degree_sum();
        let dmax = g.max_degree();
        let shape_const = (dmax * dmax) as f64 * ln_usize(g.n());
        let targets: Vec<usize> = fractions
            .iter()
            .map(|f| (((two_m - d_v) as f64) * f).round() as usize)
            .collect();
        // Per-trial first-passage rounds for each target; one BIPS
        // state per case, reset per trial on the shared context.
        let mut p = Bips::new(
            g,
            source,
            Branching::B2,
            Laziness::None,
            BipsMode::Bernoulli,
        );
        let mut sums = vec![0.0f64; targets.len()];
        for trial in 0..trials {
            ctx.reseed(0xF9_00 + trial as u64);
            p.reset(g, &[source]);
            let mut reached = vec![None; targets.len()];
            let cap = 100 * two_m + 100_000;
            while reached.iter().any(Option::is_none) && p.rounds() < cap {
                p.step(&mut ctx);
                let d_now = p.infected_degree();
                for (i, &k) in targets.iter().enumerate() {
                    if reached[i].is_none() && d_now >= d_v + k {
                        reached[i] = Some(p.rounds());
                    }
                }
            }
            for (i, r) in reached.iter().enumerate() {
                sums[i] += r.expect("cap chosen far above Lemma 3.1's t(k)") as f64;
            }
        }
        let mut ks = Vec::new();
        let mut ts = Vec::new();
        let mut rows = Vec::new();
        for (i, &k) in targets.iter().enumerate() {
            let mean_t = sums[i] / trials as f64;
            let t_shape = 4.0 * k as f64 + shape_const;
            ks.push(k as f64);
            ts.push(mean_t);
            rows.push((fractions[i], k, mean_t, t_shape));
        }
        CaseResult {
            rows,
            slope: fit_line(&ks, &ts).slope,
        }
    };
    let results: Vec<CaseResult> = cases.iter().map(|(_, spec)| run_case(spec)).collect();
    let mut table = Table::new(
        "F9",
        "Lemma 3.1: rounds until d(A_t) ≥ d(v)+k vs t(k) = 4k + dmax²·ln n",
        &[
            "graph",
            "k/2m",
            "k",
            "mean t_emp(k)",
            "t(k) shape",
            "t_emp/t(k)",
        ],
    );
    for ((label, _), result) in cases.iter().zip(&results) {
        for &(fraction, k, mean_t, t_shape) in &result.rows {
            table.push_row(vec![
                label.to_string(),
                fmt_f(fraction),
                k.to_string(),
                fmt_f(mean_t),
                fmt_f(t_shape),
                fmt_f(mean_t / t_shape),
            ]);
        }
        table.note(format!(
            "{label}: d(A_t) first-passage slope dt/dk = {} (Lemma 3.1 shape: ≤ 4 once \
             k dominates dmax²·ln n)",
            fmt_f(result.slope)
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
        assert_eq!(t.rows.len(), 16, "4 graphs × 4 targets");
        assert_eq!(t.notes.len(), 4);
    }

    #[test]
    fn growth_stays_within_lemma_shape() {
        let t = run(true);
        for row in &t.rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!(
                ratio < 2.0,
                "t_emp/t(k) = {ratio}: Lemma 3.1 shape violated at {row:?}"
            );
        }
    }

    #[test]
    fn first_passage_slopes_within_bound() {
        let t = run(true);
        for note in &t.notes {
            let slope: f64 = note
                .split("dt/dk = ")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(
                slope <= 4.5,
                "slope {slope} above Lemma 3.1's 4 (+noise): {note}"
            );
            assert!(slope > 0.0);
        }
    }
}
