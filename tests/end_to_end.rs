//! End-to-end integration: the experiment registry, cross-crate
//! determinism, and the public API working together the way the
//! harness and examples use it.

use cobra::{experiments, SimSpec};
use cobra_graph::{generators, Graph};

/// Mean stopping time of `process` from vertex 0 on `g`.
fn mean_time(g: &Graph, process: &str, trials: usize, seed: u64) -> f64 {
    SimSpec::new(g, process.parse().unwrap())
        .with_trials(trials)
        .with_seed(seed)
        .measure()
        .unwrap()
        .into_stopping()
        .unwrap()
        .summary()
        .mean
}

#[test]
fn every_registered_experiment_runs_quick() {
    for id in experiments::ALL_IDS {
        let table = experiments::run(id, true).expect("registered id");
        assert!(!table.rows.is_empty(), "experiment {id} produced no rows");
        assert!(!table.headers.is_empty());
        // Every renderer must succeed on real output.
        assert!(table.render().contains(&table.id));
        assert!(table.to_csv().lines().count() == table.rows.len() + 1);
        assert!(table.to_markdown().contains("---"));
    }
}

#[test]
fn experiment_output_is_deterministic() {
    // Identical seeds are baked into each experiment; two runs must
    // produce byte-identical tables (threading is invisible).
    let a = experiments::run("f1", true).unwrap();
    let b = experiments::run("f1", true).unwrap();
    assert_eq!(a, b);
    let c = experiments::run("f8", true).unwrap();
    let d = experiments::run("f8", true).unwrap();
    assert_eq!(c, d);
}

/// The `cobra-exps --quick` tables of the experiments that estimate
/// cover times through `SimSpec`, exactly as the CLI prints them.
const QUICK_TABLES: &str = include_str!("data/quick_tables.txt");

#[test]
fn quick_tables_match_the_recording() {
    let printed: String = ["f2", "f3", "f4", "f5", "f7", "f16"]
        .iter()
        .map(|id| format!("{}\n", experiments::run(id, true).unwrap().render()))
        .collect();
    assert_eq!(printed, QUICK_TABLES);
}

#[test]
fn cover_and_infection_agree_on_order_of_magnitude() {
    // COBRA cover(u) and BIPS infec(v) are linked by duality plus a
    // union bound; on a small expander they land in the same regime.
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
    let g = generators::random_regular(128, 4, true, &mut rng).unwrap();
    let cover = mean_time(&g, "cobra:b2", 20, 0xC0B7A);
    let infect = mean_time(&g, "bips:b2", 20, 0xB195);
    assert!(cover > 1.0 && infect > 1.0);
    let ratio = cover / infect;
    assert!(
        (0.1..10.0).contains(&ratio),
        "cover {cover} vs infection {infect} in different regimes"
    );
}

#[test]
fn bounds_rank_processes_correctly_on_k_n() {
    // The b=1 baseline (SRW) is Θ(n log n) on K_n while COBRA b=2 is
    // Θ(log n): measured separation must be at least ~n/ something.
    use cobra_process::{Laziness, RandomWalk, StepCtx};
    let g = generators::complete(64);
    let cobra_mean = mean_time(&g, "cobra:b2", 15, 0xC0B7A);
    let mut srw_total = 0.0;
    for i in 0..15u64 {
        let mut ctx = StepCtx::seeded(100 + i);
        let mut w = RandomWalk::new(&g, 0, Laziness::None);
        srw_total += w.run_until_cover(&mut ctx, 10_000_000).unwrap() as f64;
    }
    let srw_mean = srw_total / 15.0;
    assert!(
        srw_mean > 8.0 * cobra_mean,
        "expected strong separation: SRW {srw_mean} vs COBRA {cobra_mean}"
    );
    // And the coupon-collector oracle pins the SRW value.
    let oracle = cobra::bounds::srw_complete_graph_cover(64);
    assert!(
        (srw_mean - oracle).abs() < 0.25 * oracle,
        "SRW mean {srw_mean} far from coupon-collector {oracle}"
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(experiments::run("f99", true).is_none());
}
