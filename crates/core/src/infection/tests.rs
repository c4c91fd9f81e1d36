//! BIPS infection-time regression tests, driven through [`SimSpec`]
//! with seed `0xB195`.

use crate::sim::{Objective, SimSpec, StoppingEstimate};
use cobra_graph::{generators, Graph};

const SEED: u64 = 0xB195;

fn infect(g: &Graph, process: &str, trials: usize, seed: u64) -> StoppingEstimate {
    SimSpec::new(g, process.parse().unwrap())
        .with_trials(trials)
        .with_seed(seed)
        .measure()
        .unwrap()
        .into_stopping()
        .unwrap()
}

#[test]
fn complete_graph_infects_fast() {
    let g = generators::complete(128);
    let est = infect(&g, "bips:b2", 15, SEED);
    assert_eq!(est.censored, 0);
    assert!(est.summary().mean < 80.0);
}

#[test]
fn exact_and_bernoulli_summaries_agree() {
    let g = generators::petersen();
    let a = infect(&g, "bips:b2:exact", 200, SEED).summary();
    let b = infect(&g, "bips:b2", 200, SEED ^ 0x55).summary();
    let rel = (a.mean - b.mean).abs() / a.mean;
    assert!(rel < 0.25, "modes disagree: {} vs {}", a.mean, b.mean);
}

#[test]
fn trajectory_starts_at_one_and_grows_to_n() {
    let g = generators::complete(64);
    let traj = SimSpec::new(&g, "bips:b2".parse().unwrap())
        .with_trials(10)
        .with_seed(SEED)
        .with_cap(40)
        .with_objective(Objective::Trajectory)
        .measure()
        .unwrap()
        .into_trajectory()
        .unwrap()
        .mean_sizes;
    assert_eq!(traj[0], 1.0);
    assert!(traj[40] > 60.0, "mean final size {}", traj[40]);
    // Mean growth is (weakly) monotone on K_n at this scale.
    assert!(traj[5] < traj[20]);
}

#[test]
fn deterministic_given_seed() {
    let g = generators::cycle(21);
    let run = || {
        SimSpec::new(&g, "bips:b2".parse().unwrap())
            .with_trials(6)
            .with_seed(SEED)
            .outcomes()
            .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn lazy_infects_bipartite_graph() {
    let g = generators::hypercube(4);
    let est = infect(&g, "bips:b2:lazy", 8, SEED);
    assert_eq!(est.censored, 0);
}

#[test]
fn rho_branching_slower_than_b2() {
    let g = generators::complete(64);
    let b2 = infect(&g, "bips:b2", 20, SEED).summary().mean;
    let slow = infect(&g, "bips:rho0.2", 20, SEED).summary().mean;
    assert!(
        slow > b2,
        "rho=0.2 ({slow}) should be slower than b=2 ({b2})"
    );
}
