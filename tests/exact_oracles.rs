//! Integration: the Monte-Carlo stack validated against the exact-DP
//! oracles through public APIs only. These tests close the loop between
//! `cobra-exact` (no sampling) and the estimation layer every
//! experiment relies on.

use cobra::duality::{duality_check, DualityConfig};
use cobra::{Objective, SimSpec};
use cobra_exact::bips::bips_distributions;
use cobra_exact::cobra::cobra_survival_probabilities;
use cobra_exact::walk::srw_cover_time;
use cobra_graph::generators;
use cobra_process::{Branching, Laziness};

#[test]
fn monte_carlo_duality_sides_match_exact_values() {
    // The F6 estimator's two sides must both converge to the single
    // exact value computed by subset DP.
    let g = generators::complete(6);
    let horizons = vec![0usize, 1, 2, 3];
    let cfg = DualityConfig {
        trials: 30_000,
        horizons: horizons.clone(),
        master_seed: 0xE1,
        ..DualityConfig::default()
    };
    let mc = duality_check(&g, 0, &[3], &cfg);
    let exact =
        cobra_survival_probabilities(&g, 0, 0b001000, Branching::B2, Laziness::None, &horizons);
    for (row, &ex) in mc.rows.iter().zip(&exact) {
        assert!(
            (row.cobra_side - ex).abs() < 0.01,
            "COBRA side off at T={}: mc {} vs exact {ex}",
            row.t,
            row.cobra_side
        );
        assert!(
            (row.bips_side - ex).abs() < 0.01,
            "BIPS side off at T={}: mc {} vs exact {ex}",
            row.t,
            row.bips_side
        );
    }
}

#[test]
fn b1_cover_estimator_matches_exact_walk_cover() {
    // COBRA with b = 1 is the SRW; its estimated cover time must match
    // the exact visited-set DP value.
    let g = generators::cycle(8);
    let exact = srw_cover_time(&g, 0); // = n(n−1)/2 = 28
    assert!((exact - 28.0).abs() < 1e-9, "closed form sanity");
    let s = SimSpec::new(&g, "cobra:b1".parse().unwrap())
        .with_trials(3000)
        .with_seed(0xE2)
        .measure()
        .unwrap()
        .into_stopping()
        .unwrap()
        .summary();
    assert!(
        (s.mean - exact).abs() < 0.05 * exact + 3.0 * s.std_error(),
        "MC cover {} vs exact {exact}",
        s.mean
    );
}

#[test]
fn infection_trajectory_matches_exact_expected_sizes() {
    let g = generators::petersen();
    let rounds = 4;
    let exact = bips_distributions(&g, 0, Branching::B2, Laziness::None, rounds);
    let traj = SimSpec::new(&g, "bips:b2".parse().unwrap())
        .with_trials(4000)
        .with_seed(0xE3)
        .with_cap(rounds)
        .with_objective(Objective::Trajectory)
        .measure()
        .unwrap()
        .into_trajectory()
        .unwrap()
        .mean_sizes;
    for t in 0..=rounds {
        let ex = exact[t].expected_size();
        assert!(
            (traj[t] - ex).abs() < 0.15,
            "round {t}: MC mean {} vs exact {ex}",
            traj[t]
        );
    }
}

#[test]
fn exact_full_infection_probability_bounds_mc_infection_time() {
    // If the exact P(A_T = V) is already > 0.9 at T, the MC median
    // infection time must be ≤ T (consistency of the exact chain with
    // the simulated one).
    let g = generators::complete(5);
    let dists = bips_distributions(&g, 0, Branching::B2, Laziness::None, 12);
    let t90 = (0..=12)
        .find(|&t| dists[t].prob_full() > 0.9)
        .expect("K_5 infects well within 12 rounds");
    // The exact sample median, from the per-trial outcomes.
    let samples: Vec<f64> = SimSpec::new(&g, "bips:b2".parse().unwrap())
        .with_trials(400)
        .with_seed(0xE4)
        .outcomes()
        .unwrap()
        .iter()
        .map(|o| o.rounds.expect("K_5 infects within the cap") as f64)
        .collect();
    let median = cobra_stats::Summary::from_samples(&samples).median;
    assert!(
        median <= t90 as f64,
        "median infection {median} exceeds exact 90% round {t90}"
    );
}
