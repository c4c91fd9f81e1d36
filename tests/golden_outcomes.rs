//! Golden-seed behavioral invariance for the spec/state API split.
//!
//! The fixtures live in `tests/common/mod.rs` (shared with
//! `objective_equivalence.rs`): per-trial `(rounds, reached,
//! transmissions)` triples recorded on the **pre-refactor** API at
//! commit `cc5fc81`. The refactored zero-allocation path (one
//! `ProcessState` + `StepCtx` per worker, `reset` per trial, batched
//! sampling kernels) must reproduce every triple **bit-identically**:
//! the batching re-orders memory traffic, never RNG draws.
//!
//! If a change legitimately alters the law or the draw order of a
//! process, the fixtures must be re-recorded and the change called
//! out loudly — silent drift here means every historical experiment
//! table stops being reproducible.

mod common;

use cobra_mc::{Completion, StopWhen};
use common::{spec, GOLDEN, GOLDEN_REACHING, GOLDEN_TRIALS};

#[test]
fn every_process_family_reproduces_pre_refactor_outcomes() {
    for &(process, graph, want) in GOLDEN {
        let outcomes = spec(process, graph)
            .run_observed(StopWhen::Complete, |_| Completion)
            .unwrap();
        assert_eq!(outcomes.len(), GOLDEN_TRIALS);
        for (i, (o, (rounds, reached, tx))) in outcomes.iter().zip(want).enumerate() {
            assert_eq!(
                (o.rounds, o.reached, o.transmissions),
                (Some(rounds), reached, tx),
                "{process} on {graph}, trial {i}: drifted from the pre-refactor recording"
            );
        }
    }
}

#[test]
fn hitting_time_objective_reproduces_pre_refactor_outcomes() {
    let (process, graph, target, want) = GOLDEN_REACHING;
    let outcomes = spec(process, graph)
        .reaching(target)
        .run_observed(StopWhen::Reached(target), |_| Completion)
        .unwrap();
    for (i, (o, (rounds, reached, tx))) in outcomes.iter().zip(want).enumerate() {
        assert_eq!(
            (o.rounds, o.reached, o.transmissions),
            (Some(rounds), reached, tx),
            "{process} reaching {target} on {graph}, trial {i}: drifted"
        );
    }
}

#[test]
fn golden_outcomes_are_backend_invariant() {
    // Every fixture row whose family has an implicit backend must
    // reproduce the recordings on BOTH backends — the acceptance bar of
    // the pluggable-topology redesign. (The default `auto` backend
    // already runs these rows implicitly in the test above; this pins
    // the forced-backend spellings against each other too.)
    use cobra_graph::Backend;
    let mut compared = 0;
    for &(process, graph, want) in GOLDEN {
        let gspec: cobra_graph::GraphSpec = graph.parse().unwrap();
        if !gspec.has_implicit() {
            continue;
        }
        compared += 1;
        let run = |backend: Backend| {
            spec(process, graph)
                .with_backend(backend)
                .run_observed(StopWhen::Complete, |_| Completion)
                .unwrap()
        };
        let csr = run(Backend::Csr);
        let implicit = run(Backend::Implicit);
        assert_eq!(
            csr, implicit,
            "{process} on {graph}: backends diverged per-trial"
        );
        for (i, (o, (rounds, reached, tx))) in implicit.iter().zip(want).enumerate() {
            assert_eq!(
                (o.rounds, o.reached, o.transmissions),
                (Some(rounds), reached, tx),
                "{process} on {graph}, trial {i}: implicit backend drifted from the recording"
            );
        }
    }
    assert!(
        compared > 0,
        "no GOLDEN row has an implicit backend to compare"
    );
}

#[test]
fn golden_outcomes_are_thread_count_invariant() {
    // The recording was made sequentially; the parallel path must agree
    // for every family (worker-state reuse must not leak across trials).
    for &(process, graph, _) in GOLDEN {
        let seq = spec(process, graph).with_threads(1).outcomes().unwrap();
        let par = spec(process, graph).with_threads(8).outcomes().unwrap();
        assert_eq!(seq, par, "{process} on {graph}: threads changed results");
    }
}
