//! Integration: measured cover times respect the paper's bounds
//! (upper bounds as shapes with slack, the lower bound exactly) across
//! graph families spanning every generator category.

use cobra::{bounds, SimSpec, StoppingEstimate};
use cobra_graph::{generators, props, Graph};
use cobra_spectral::{lanczos_edge_spectrum, lazy_eigenvalue_gap};

fn cover(g: &Graph, process: &str, trials: usize, seed: u64) -> StoppingEstimate {
    SimSpec::new(g, process.parse().unwrap())
        .with_trials(trials)
        .with_seed(seed)
        .measure()
        .unwrap()
        .into_stopping()
        .unwrap()
}

fn measured_cover(g: &Graph, trials: usize, seed: u64) -> f64 {
    cover(g, "cobra:b2", trials, seed).summary().mean
}

#[test]
fn thm_1_1_shape_with_slack_on_mixed_families() {
    // The constant-1 shape times a slack factor of 30 dominates the
    // measured cover on every family tried (the paper's own constants
    // are far larger).
    let graphs: Vec<(&str, Graph)> = vec![
        ("path", generators::path(96)),
        ("star", generators::star(96)),
        ("tree", generators::k_ary_tree(95, 2)),
        ("wheel", generators::wheel(96)),
        ("lollipop", generators::lollipop(32, 64)),
        ("K_64", generators::complete(64)),
    ];
    for (label, g) in graphs {
        let cover = measured_cover(&g, 10, 0xB0);
        let bound = bounds::thm_1_1(g.n(), g.m(), g.max_degree());
        assert!(
            cover <= 30.0 * bound,
            "{label}: measured {cover} far above Thm 1.1 shape {bound}"
        );
    }
}

#[test]
fn lower_bound_never_beaten() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("K_64", generators::complete(64)),
        ("cycle", generators::cycle(33)),
        ("torus", generators::torus(&[7, 7])),
        ("petersen", generators::petersen()),
    ];
    for (label, g) in graphs {
        // Sample minimum over trials still must respect the bound with
        // the start's eccentricity (≥ diam/2).
        let min = cover(&g, "cobra:b2", 15, 1).summary().min;
        let ecc = props::eccentricity(&g, 0).unwrap();
        let lb = ((g.n() as f64 + 1.0).log2() - 1.0).max(ecc as f64);
        assert!(
            min >= lb.floor(),
            "{label}: sample min {min} beats the information/distance bound {lb}"
        );
    }
}

#[test]
fn thm_1_2_shape_on_regular_graphs_with_slack() {
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
    let graphs: Vec<(&str, Graph)> = vec![
        (
            "rand 4-reg",
            generators::random_regular(128, 4, true, &mut rng).unwrap(),
        ),
        ("cycle_power", generators::cycle_power(99, 3)),
        ("ring_of_cliques", generators::ring_of_cliques(8, 6)),
        ("petersen", generators::petersen()),
    ];
    for (label, g) in graphs {
        let r = g.regularity().expect("regular family");
        let gap = lanczos_edge_spectrum(&g, 0).gap();
        assert!(gap > 0.0, "{label} must be non-bipartite");
        let cover = measured_cover(&g, 10, 0xB2);
        let bound = bounds::thm_1_2(g.n(), r, gap);
        assert!(
            cover <= 30.0 * bound,
            "{label}: measured {cover} far above Thm 1.2 shape {bound}"
        );
    }
}

#[test]
fn lazy_hypercube_obeys_lazy_gap_bound() {
    let d = 6u32;
    let g = generators::hypercube(d);
    // Lazy gap has the closed form 1/d.
    let lazy_gap = lazy_eigenvalue_gap(&g);
    assert!((lazy_gap - 1.0 / d as f64).abs() < 1e-6);
    let cover = cover(&g, "cobra:b2:lazy", 10, 0xB3).summary().mean;
    let bound = bounds::thm_1_2(g.n(), d as usize, lazy_gap);
    assert!(cover <= 30.0 * bound, "lazy Q_{d}: {cover} vs {bound}");
}

#[test]
fn bound_ordering_matches_paper_claims() {
    // On a small-gap regular graph, Theorem 1.2 must beat PODC'16; on
    // the hypercube the full ladder must be ordered.
    let g = generators::ring_of_cliques(16, 6);
    let r = g.regularity().unwrap();
    let gap = lanczos_edge_spectrum(&g, 0).gap();
    assert!(
        bounds::thm_1_2(g.n(), r, gap) < bounds::podc16(g.n(), gap),
        "Theorem 1.2 should improve PODC'16 in the small-gap regime"
    );
    for d in 4..=16u32 {
        let (s16, p16, tp) = bounds::hypercube_ladder(d);
        assert!(tp < p16 && p16 < s16);
    }
}
