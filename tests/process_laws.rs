//! Integration: distributional laws that tie the crates together —
//! serialised BIPS ≡ plain BIPS ≡ fast-path BIPS, and COBRA b=1 ≡ the
//! simple random walk, established with KS tests through the public
//! APIs.

use cobra_graph::generators;
use cobra_process::{
    Bips, BipsMode, Branching, Cobra, Laziness, ProcessState, RandomWalk, SerialBips, StepCtx,
    StopWhen,
};
use cobra_stats::ks_two_sample;

#[test]
fn cobra_b1_hits_like_a_random_walk() {
    // Hitting time of the antipode on a cycle: COBRA b=1 vs SRW.
    let g = generators::cycle(16);
    let target = 8u32;
    let trials = 400u64;
    let cap = 1_000_000;
    let cobra: Vec<f64> = (0..trials)
        .map(|i| {
            let mut rng = StepCtx::seeded(1000 + i);
            let mut p = Cobra::new(&g, &[0], Branching::Fixed(1), Laziness::None);
            p.run_until(StopWhen::Reached(target), &mut rng, cap)
                .unwrap() as f64
        })
        .collect();
    let walk: Vec<f64> = (0..trials)
        .map(|i| {
            let mut rng = StepCtx::seeded(500_000 + i);
            let mut p = RandomWalk::new(&g, 0, Laziness::None);
            p.run_until(StopWhen::Reached(target), &mut rng, cap)
                .unwrap() as f64
        })
        .collect();
    let ks = ks_two_sample(&cobra, &walk);
    assert!(
        ks.p_value > 0.001,
        "COBRA b=1 and SRW differ in law: D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}

#[test]
fn three_bips_implementations_share_one_law() {
    // Infection size after 5 rounds on a lollipop: serialised vs exact
    // vs Bernoulli fast path, pairwise KS.
    let g = generators::lollipop(6, 6);
    let trials = 400u64;
    let rounds = 5;
    let serial: Vec<f64> = (0..trials)
        .map(|i| {
            let mut rng = StepCtx::seeded(2000 + i);
            let mut p = SerialBips::new(&g, 0, Branching::B2);
            for _ in 0..rounds {
                p.step_round(&mut rng);
            }
            p.infected_count() as f64
        })
        .collect();
    let sample = |mode: BipsMode, salt: u64| -> Vec<f64> {
        (0..trials)
            .map(|i| {
                let mut rng = StepCtx::seeded(salt + i);
                let mut p = Bips::new(&g, 0, Branching::B2, Laziness::None, mode);
                for _ in 0..rounds {
                    p.step(&mut rng);
                }
                p.infected_count() as f64
            })
            .collect()
    };
    let exact = sample(BipsMode::ExactSampling, 700_000);
    let fast = sample(BipsMode::Bernoulli, 900_000);
    for (a, b, label) in [
        (&serial, &exact, "serial vs exact"),
        (&serial, &fast, "serial vs fast"),
        (&exact, &fast, "exact vs fast"),
    ] {
        let ks = ks_two_sample(a, b);
        assert!(
            ks.p_value > 0.001,
            "{label}: D = {}, p = {}",
            ks.statistic,
            ks.p_value
        );
    }
}

#[test]
fn lazy_and_plain_cobra_differ_on_bipartite_graphs() {
    // Negative control for the KS machinery: on an even cycle the lazy
    // and non-lazy processes genuinely differ (parity constraint), and
    // the test must detect it.
    let g = generators::cycle(12);
    let trials = 400u64;
    let rounds = 6;
    let sample = |lazy: Laziness, salt: u64| -> Vec<f64> {
        (0..trials)
            .map(|i| {
                let mut rng = StepCtx::seeded(salt + i);
                let mut p = Cobra::new(&g, &[0], Branching::B2, lazy);
                for _ in 0..rounds {
                    p.step(&mut rng);
                }
                p.visited_count() as f64
            })
            .collect()
    };
    let plain = sample(Laziness::None, 10_000);
    let lazy = sample(Laziness::Half, 20_000);
    let ks = ks_two_sample(&plain, &lazy);
    assert!(
        ks.p_value < 0.05,
        "laziness should be distinguishable on C_12: D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}

#[test]
fn fixed2_equals_expected_rho_one() {
    // Branching::Fixed(2) and Branching::Expected(1.0) are the same
    // process; check on cover-time samples.
    let g = generators::torus(&[5, 5]);
    let trials = 300u64;
    let sample = |b: Branching, salt: u64| -> Vec<f64> {
        (0..trials)
            .map(|i| {
                let mut rng = StepCtx::seeded(salt + i);
                let mut p = Cobra::new(&g, &[0], b, Laziness::None);
                p.run_until(StopWhen::Complete, &mut rng, 1_000_000)
                    .unwrap() as f64
            })
            .collect()
    };
    let fixed = sample(Branching::Fixed(2), 30_000);
    let expected = sample(Branching::Expected(1.0), 40_000);
    let ks = ks_two_sample(&fixed, &expected);
    assert!(
        ks.p_value > 0.001,
        "Fixed(2) vs Expected(1.0): D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}
