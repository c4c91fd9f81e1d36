//! Cover- and hitting-time regression tests, driven through
//! [`SimSpec`] with the default seed `0xC0B7A`.

use crate::sim::{resolve_cap, SimSpec, StoppingEstimate, TrialOutcome};
use cobra_graph::generators;
use cobra_process::ProcessSpec;

fn cobra(spec: &str) -> ProcessSpec {
    spec.parse().unwrap()
}

/// Cover estimate from the spec's default start vertex 0.
fn cover(spec: SimSpec<'_>) -> StoppingEstimate {
    spec.measure().unwrap().into_stopping().unwrap()
}

fn samples(outcomes: &[TrialOutcome]) -> Vec<usize> {
    outcomes.iter().filter_map(|o| o.rounds).collect()
}

#[test]
fn complete_graph_cover_is_logarithmic() {
    let g = generators::complete(128);
    let est = cover(SimSpec::new(&g, ProcessSpec::COBRA_B2).with_trials(20));
    assert_eq!(est.censored, 0);
    let s = est.summary();
    assert!(s.mean >= 7.0, "cannot beat log2(128): {}", s.mean);
    assert!(s.mean <= 60.0, "K_128 mean cover too slow: {}", s.mean);
}

#[test]
fn deterministic_given_seed() {
    let g = generators::torus(&[5, 5]);
    let run = || {
        SimSpec::new(&g, ProcessSpec::COBRA_B2)
            .with_trials(8)
            .outcomes()
            .unwrap()
    };
    assert_eq!(samples(&run()), samples(&run()));
}

#[test]
fn thread_count_does_not_change_results() {
    let g = generators::cycle(32);
    let spec = SimSpec::new(&g, ProcessSpec::COBRA_B2).with_trials(12);
    let seq = spec.clone().with_threads(1).outcomes().unwrap();
    let par = spec.with_threads(4).outcomes().unwrap();
    assert_eq!(samples(&seq), samples(&par));
}

#[test]
fn explicit_cap_censors() {
    let g = generators::path(128);
    let spec = SimSpec::new(&g, ProcessSpec::COBRA_B2)
        .with_trials(5)
        .with_cap(3);
    let est = cover(spec.clone());
    assert_eq!(est.censored, 5);
    assert!(samples(&spec.outcomes().unwrap()).is_empty());
}

#[test]
#[should_panic(expected = "censored")]
fn summary_of_all_censored_panics() {
    let g = generators::path(128);
    let spec = SimSpec::new(&g, ProcessSpec::COBRA_B2)
        .with_trials(3)
        .with_cap(2);
    cover(spec).summary();
}

#[test]
fn hit_time_zero_when_target_in_start_set() {
    let g = generators::cycle(10);
    let outcomes = SimSpec::new(&g, ProcessSpec::COBRA_B2)
        .with_trials(4)
        .with_starts(&[2, 7])
        .reaching(7)
        .outcomes()
        .unwrap();
    assert_eq!(samples(&outcomes), vec![0; 4]);
}

#[test]
fn default_cap_allows_slow_graphs() {
    // Path cover is Θ(n) ≪ default cap; no censoring expected.
    let g = generators::path(64);
    let est = cover(SimSpec::new(&g, ProcessSpec::COBRA_B2).with_trials(6));
    assert_eq!(est.censored, 0);
}

#[test]
fn b1_cap_scales_to_random_walk_times() {
    // b = 1 on a cycle is a plain random walk with Θ(n²) cover; the
    // derived cap must accommodate it.
    let g = generators::cycle(24);
    let est = cover(SimSpec::new(&g, cobra("cobra:b1")).with_trials(4));
    assert_eq!(est.censored, 0, "cap {} too small for SRW", est.cap);
}

#[test]
fn b1_cap_is_derived_from_n_times_m() {
    // The b = 1 cap is the Θ(n·m) walk cap — an explicit formula, not a
    // multiplicative fudge of the COBRA bound — and dominates the b = 2
    // cap on sparse graphs while staying proportionate.
    let g = generators::cycle(64);
    let (b1, b2) = (cobra("cobra:b1"), cobra("cobra:b2"));
    let cap1 = resolve_cap(&g, &b1, None);
    let cap2 = resolve_cap(&g, &b2, None);
    assert_eq!(
        cap1,
        32 * g.n() * g.m() + 10_000,
        "b=1 cap is the documented walk formula"
    );
    assert!(
        cap1 as f64 >= 2.0 * (g.n() * g.m()) as f64,
        "b=1 cap must cover the 2·n·m expected walk cover time"
    );
    assert!(
        cap1 > cap2,
        "walk cap must exceed the COBRA cap on a cycle: {cap1} vs {cap2}"
    );
    // A spec without an explicit cap runs under the derived one...
    assert_eq!(SimSpec::new(&g, b1.clone()).resolve().unwrap().cap, cap1);
    // ...and an explicit cap still wins for both.
    assert_eq!(
        SimSpec::new(&g, b1.clone())
            .with_cap(123)
            .resolve()
            .unwrap()
            .cap,
        123
    );
    assert_eq!(
        SimSpec::new(&g, b2.clone())
            .with_cap(123)
            .resolve()
            .unwrap()
            .cap,
        123
    );
}
