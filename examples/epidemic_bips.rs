//! BIPS as an epidemic: a persistently infected host in an SIS process.
//!
//! The paper motivates BIPS independently of the duality: an SIS-type
//! epidemic where one host stays infected forever ("certain viruses
//! exhibit the property that a particular host can become persistently
//! infected"). This example tracks the infection curve on an expander
//! and on a bottlenecked graph, showing the three phases the analysis
//! of §4–§5 works with.
//!
//! ```sh
//! cargo run --release --example epidemic_bips
//! ```

use cobra::{Objective, SimSpec};
use cobra_graph::{generators, Graph};
use cobra_spectral::lanczos_edge_spectrum;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn print_curve(label: &str, traj: &[f64], n: usize) {
    println!("{label} (n = {n}):");
    let width = 60usize;
    for (t, &size) in traj.iter().enumerate() {
        if t % (traj.len() / 15).max(1) != 0 && size < n as f64 {
            continue;
        }
        let bar = (size / n as f64 * width as f64).round() as usize;
        println!(
            "  t={t:>4}  |{}{}| {size:>7.1}",
            "#".repeat(bar),
            " ".repeat(width - bar.min(width))
        );
        if size >= n as f64 {
            break;
        }
    }
    println!();
}

/// Mean infected-set size `|A_t|` of BIPS b=2 from vertex 0 over 20
/// trials, for `t = 0..=rounds`.
fn mean_infection_curve(g: &Graph, rounds: usize) -> Vec<f64> {
    SimSpec::new(g, "bips:b2".parse().unwrap())
        .with_trials(20)
        .with_seed(0xB195)
        .with_cap(rounds)
        .with_objective(Objective::Trajectory)
        .measure()
        .expect("valid spec")
        .into_trajectory()
        .expect("trajectory objective")
        .mean_sizes
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(1);

    let expander = generators::random_regular(1024, 4, true, &mut rng).expect("expander");
    let gap_e = lanczos_edge_spectrum(&expander, 0).gap();
    let traj_e = mean_infection_curve(&expander, 60);
    println!("== expander: random 4-regular, gap 1−λ = {gap_e:.3} ==");
    print_curve("mean |A_t|", &traj_e, expander.n());

    let ring = generators::ring_of_cliques(24, 6);
    let gap_r = lanczos_edge_spectrum(&ring, 0).gap();
    let traj_r = mean_infection_curve(&ring, 400);
    println!("== bottlenecked: ring of 24 six-cliques, gap 1−λ = {gap_r:.4} ==");
    print_curve("mean |A_t|", &traj_r, ring.n());

    println!("reading: on the expander the curve shows the §5 phase structure —");
    println!("a slow start, a doubling middle, and an O(log n/(1−λ)) completion tail.");
    println!("On the bottlenecked ring the infection crawls clique-by-clique: the gap");
    println!(
        "is ~{:.0}x smaller and the completion time stretches accordingly,",
        gap_e / gap_r
    );
    println!("exactly the r/(1−λ) dependence of Theorem 1.2.");
}
