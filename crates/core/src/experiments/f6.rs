//! F6 — the duality theorem (Theorem 1.3) checked empirically.
//!
//! For several graphs, sources and start sets, both sides of
//! `P̂(Hit(v) > T | C₀=C) = P(C ∩ A_T = ∅ | A₀={v})` are estimated by
//! independent Monte-Carlo and compared per horizon with two-proportion
//! z-tests. The theorem needs no connectivity of spectra assumptions and
//! holds for every `b` — rows include bipartite graphs and `b = 1+ρ`.
//!
//! Each case names its graph as a `GraphSpec` string of a deterministic
//! family, and the cases run in order. The parallelism is inside each
//! case: both sides of the duality check spread their trials over every
//! core, with values identical for any thread count.

use crate::duality::{duality_check, DualityConfig};
use crate::report::{fmt_f, Table};
use cobra_graph::{GraphSpec, VertexId};
use cobra_process::Branching;

struct Case {
    label: &'static str,
    graph: &'static str,
    source: VertexId,
    start_set: Vec<VertexId>,
    branching: Branching,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "Petersen, C={8}",
            graph: "petersen",
            source: 3,
            start_set: vec![8],
            branching: Branching::B2,
        },
        Case {
            label: "K_12, C={4,5,6}",
            graph: "complete:12",
            source: 0,
            start_set: vec![4, 5, 6],
            branching: Branching::B2,
        },
        Case {
            label: "Q_4 (bipartite), C={15}",
            graph: "hypercube:4",
            source: 0,
            start_set: vec![15],
            branching: Branching::B2,
        },
        Case {
            label: "C_9, C={4}",
            graph: "cycle:9",
            source: 0,
            start_set: vec![4],
            branching: Branching::B2,
        },
        Case {
            label: "lollipop(5,4), C={tip}",
            graph: "lollipop:5:4",
            source: 0,
            start_set: vec![8],
            branching: Branching::B2,
        },
        Case {
            label: "K_8, b=1+0.5, C={6}",
            graph: "complete:8",
            source: 2,
            start_set: vec![6],
            branching: Branching::Expected(0.5),
        },
    ]
}

/// Runs F6 (`quick`: 800 trials/side; full: 8000).
pub fn run(quick: bool) -> Table {
    let trials = if quick { 800 } else { 8000 };
    let cases = cases();
    let reports: Vec<_> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let spec: GraphSpec = case.graph.parse().expect("static case spec");
            // Deterministic families ignore the build seed.
            let g = spec.build(0).expect("static case specs build");
            let cfg = DualityConfig {
                branching: case.branching,
                trials,
                horizons: vec![0, 1, 2, 3, 4, 6, 8, 12],
                master_seed: 0xF6_00 + i as u64,
                threads: 0,
            };
            (g.n(), duality_check(&g, case.source, &case.start_set, &cfg))
        })
        .collect();
    let mut table = Table::new(
        "F6",
        "Duality (Thm 1.3): max deviation between the COBRA and BIPS sides",
        &["case", "n", "horizons", "max |diff|", "max |z|", "verdict"],
    );
    for (case, (n, report)) in cases.iter().zip(&reports) {
        let max_z = report.max_abs_z();
        // 8 horizons × 6 cases: Bonferroni-ish noise ceiling ~4.
        let verdict = if max_z < 4.0 { "equal" } else { "VIOLATION" };
        table.push_row(vec![
            case.label.to_string(),
            n.to_string(),
            report.rows.len().to_string(),
            fmt_f(report.max_abs_diff()),
            fmt_f(max_z),
            verdict.to_string(),
        ]);
    }
    table.note(format!(
        "{trials} trials per side; z compares two binomial proportions"
    ));
    table.note(
        "Theorem 1.3 is an exact identity: every row must read `equal` (|z| within noise)"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_report_equality() {
        let t = run(true);
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            assert_eq!(row[5], "equal", "duality violated in {row:?}");
        }
    }

    #[test]
    fn diffs_are_small() {
        let t = run(true);
        for row in &t.rows {
            let diff: f64 = row[3].parse().unwrap();
            assert!(
                diff < 0.08,
                "max diff {diff} too large at quick fidelity: {row:?}"
            );
        }
    }
}
