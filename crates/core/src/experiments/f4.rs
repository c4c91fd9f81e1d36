//! F4 — Theorem 1.1 on irregular families: `cover = O(m + dmax² log n)`.
//!
//! Two sizes per family; the shape check is that `cover / bound` does
//! not grow with `n` (the bound's constant is irrelevant, its growth
//! rate is the claim). Families chosen to stress different terms:
//! paths/cycles (the `m` term with `dmax = 2`), stars/double stars (the
//! `dmax²` term), barbells and lollipops (dense blobs plus appendages),
//! and binary trees (both small).

use super::stopping_summary;
use crate::bounds;
use crate::report::{fmt_f, Table};
use crate::sim::SimSpec;
use cobra_graph::{props, Graph};
use cobra_process::ProcessSpec;

struct Family {
    name: &'static str,
    build: fn(usize) -> Graph,
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "path",
            build: |n| cobra_graph::generators::path(n),
        },
        Family {
            name: "cycle",
            build: |n| cobra_graph::generators::cycle(n | 1),
        },
        Family {
            name: "star",
            build: |n| cobra_graph::generators::star(n),
        },
        Family {
            name: "double_star",
            build: |n| cobra_graph::generators::double_star(n / 2 - 1, n - n / 2 - 1),
        },
        Family {
            name: "binary_tree",
            build: |n| cobra_graph::generators::k_ary_tree(n, 2),
        },
        Family {
            name: "barbell",
            build: |n| cobra_graph::generators::barbell(n / 4, n - 2 * (n / 4)),
        },
        Family {
            name: "lollipop",
            build: |n| cobra_graph::generators::lollipop(n / 3, n - n / 3),
        },
        Family {
            name: "wheel",
            build: |n| cobra_graph::generators::wheel(n),
        },
        Family {
            name: "pref_attach",
            build: |n| {
                // Deterministic instance: the heavy-tail stress for the
                // dmax² term (dmax ≈ √n).
                use rand::SeedableRng;
                let mut rng = rand::rngs::SmallRng::seed_from_u64(0xBA + n as u64);
                cobra_graph::generators::barabasi_albert(n, 2, &mut rng)
            },
        },
    ]
}

/// Runs F4 (`quick`: n ∈ {48, 96}; full: n ∈ {128, 256, 512}).
pub fn run(quick: bool) -> Table {
    let (sizes, trials): (Vec<usize>, usize) = if quick {
        (vec![48, 96], 6)
    } else {
        (vec![128, 256, 512], 20)
    };
    let mut table = Table::new(
        "F4",
        "Theorem 1.1 on irregular graphs: cover vs m + dmax²·ln n",
        &[
            "family",
            "n",
            "m",
            "dmax",
            "diam",
            "mean cover",
            "bound",
            "cover/bound",
        ],
    );
    let mut worst_growth: f64 = 0.0;
    for fam in families() {
        let mut prev_ratio: Option<f64> = None;
        for &n in &sizes {
            let g = (fam.build)(n);
            assert!(
                props::is_connected(&g),
                "{} generator broke connectivity",
                fam.name
            );
            let s = stopping_summary(
                SimSpec::new(&g, ProcessSpec::COBRA_B2)
                    .with_trials(trials)
                    .with_seed(0xF4 ^ (n as u64) << 8),
            );
            let bound = bounds::thm_1_1(g.n(), g.m(), g.max_degree());
            let ratio = s.mean / bound;
            let diam = props::diameter(&g).expect("connected");
            table.push_row(vec![
                fam.name.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                g.max_degree().to_string(),
                diam.to_string(),
                fmt_f(s.mean),
                fmt_f(bound),
                fmt_f(ratio),
            ]);
            if let Some(p) = prev_ratio {
                worst_growth = worst_growth.max(ratio / p);
            }
            prev_ratio = Some(ratio);
        }
    }
    table.note(format!(
        "shape check: cover/bound must not grow with n; worst consecutive growth factor = {}",
        fmt_f(worst_growth)
    ));
    table.note(
        "bounds use constant 1; ratios above 1 on sparse families reflect the paper's \
         unoptimised constants, not a shape violation"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_families_and_sizes() {
        let t = run(true);
        assert_eq!(t.rows.len(), 18, "9 families × 2 sizes");
    }

    #[test]
    fn star_cover_is_far_below_its_bound() {
        // Star: bound has dmax² = (n−1)², actual cover is Θ(log n)-ish;
        // ratio must be tiny.
        let t = run(true);
        for row in t.rows.iter().filter(|r| r[0] == "star") {
            let ratio: f64 = row[7].parse().unwrap();
            assert!(ratio < 0.1, "star ratio {ratio} unexpectedly large");
        }
    }

    #[test]
    fn ratios_do_not_explode_with_n() {
        let t = run(true);
        let worst: f64 = t.notes[0].split("= ").nth(1).unwrap().parse().unwrap();
        // A growth factor ≫ 2 between consecutive sizes would indicate a
        // shape violation of O(m + dmax² log n).
        assert!(worst < 3.0, "cover/bound grew by {worst}x between sizes");
    }

    #[test]
    fn cover_respects_lower_bound() {
        let t = run(true);
        for row in &t.rows {
            let n: usize = row[1].parse().unwrap();
            let diam: u32 = row[4].parse().unwrap();
            let cover: f64 = row[5].parse().unwrap();
            // Start vertex 0 may be central: eccentricity ≥ diam/2.
            let lb = bounds::lower_bound(n, diam / 2).floor();
            assert!(
                cover >= lb - 1.0,
                "{}: cover {cover} below lower bound {lb}",
                row[0]
            );
        }
    }
}
