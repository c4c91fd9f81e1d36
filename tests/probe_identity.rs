//! Probes observe, never perturb: golden bit-identity with telemetry on.
//!
//! The telemetry layer's contract is that attaching a probe changes
//! *nothing* about a run — probes read `ProcessView` deltas after each
//! step and never touch the RNG stream. These suites pin that contract
//! to the same pre-refactor recordings as `tests/golden_outcomes.rs`:
//! every fixture row must reproduce its `(rounds, reached,
//! transmissions)` triples through the traced path, and the traced
//! estimate must equal the untraced one exactly. On top of identity,
//! the per-round records must be *internally consistent*: contiguous
//! round indices, per-round deltas summing to the trial totals, and the
//! coalesced count derived from the frontier/transmission gap.

mod common;

use cobra::SimSpec;
use cobra_obs::{MemorySink, Phase};
use common::{spec, GOLDEN, GOLDEN_SEED, GOLDEN_TRIALS};

#[test]
fn traced_measurement_matches_untraced_and_the_recordings() {
    for &(process, graph, want) in GOLDEN {
        let s = spec(process, graph);
        let untraced = s.measure().unwrap();
        let mut sink = MemorySink::default();
        let (traced, timers) = s.measure_traced(&mut sink, false).unwrap();
        assert_eq!(
            traced, untraced,
            "{process} on {graph}: tracing changed the estimate"
        );
        assert!(timers.is_none(), "untimed run must not return timers");
        assert_eq!(sink.totals.len(), GOLDEN_TRIALS);
        for (i, ((trial, totals), (rounds, reached, tx))) in
            sink.totals.iter().zip(want).enumerate()
        {
            assert_eq!(*trial, i, "trials must arrive in order");
            assert_eq!(
                (totals.rounds, totals.reached, totals.transmissions),
                (Some(rounds), reached, tx),
                "{process} on {graph}, trial {i}: probed trial drifted from the recording"
            );
        }
    }
}

#[test]
fn per_round_records_sum_to_trial_totals() {
    // Monotone processes (COBRA never un-reaches a vertex), so the
    // per-round coverage deltas must reconstruct the final reached set
    // exactly: |start| + sum(new_covered) == reached. `cobra:b1` runs on
    // the random-walk kernel and must trace exactly like a one-particle
    // COBRA: a frontier of 1, nothing coalesced, every phase lapped.
    for process in ["cobra:b2", "cobra:b1"] {
        let s = spec(process, "torus:6x6");
        let mut sink = MemorySink::default();
        let (_, timers) = s.measure_traced(&mut sink, true).unwrap();
        assert!(
            timers.is_some_and(|t| !t.is_empty()),
            "{process}: timed run must return accumulated phase timers"
        );
        assert_eq!(sink.totals.len(), GOLDEN_TRIALS);
        for (trial, totals) in &sink.totals {
            let rounds: Vec<_> = sink.rounds.iter().filter(|r| r.trial == *trial).collect();
            assert_eq!(rounds.len(), totals.executed, "one record per round");
            for (i, r) in rounds.iter().enumerate() {
                assert_eq!(r.round, i + 1, "round indices are contiguous from 1");
                assert_eq!(
                    r.coalesced,
                    r.transmissions.saturating_sub(r.frontier as u64),
                    "coalesced picks are the transmission/frontier gap"
                );
                assert!(r.shard_traffic.is_empty(), "unsharded records carry none");
                if process == "cobra:b1" {
                    assert_eq!((r.frontier, r.coalesced), (1, 0), "one walker, no merges");
                }
            }
            let covered: usize = rounds.iter().map(|r| r.new_covered).sum();
            assert_eq!(covered + 1, totals.reached, "start + deltas == reached");
            let tx: u64 = rounds.iter().map(|r| r.transmissions).sum();
            assert_eq!(tx, totals.transmissions, "per-round tx sums to the total");
            let last = rounds.last().expect("covering trials run at least a round");
            assert_eq!(last.reached, totals.reached);
            assert_eq!(last.total_transmissions, totals.transmissions);
        }
        // Phase timers lapped every unsharded phase at least once overall.
        assert_eq!(sink.phases.len(), GOLDEN_TRIALS);
        let seen: Vec<Phase> = sink
            .phases
            .iter()
            .flat_map(|(_, deltas)| deltas.iter().map(|(p, _)| *p))
            .collect();
        for phase in [Phase::Draw, Phase::Gather, Phase::Coalesce] {
            assert!(seen.contains(&phase), "{process}: {phase:?} never timed");
        }
    }
}

#[test]
fn walk_family_frontiers_count_walkers() {
    // `walks:K` reports its K walkers as the frontier, not the reached
    // set; independent walkers never merge.
    let s = spec("walks:4", "torus:6x6");
    let mut sink = MemorySink::default();
    s.measure_traced(&mut sink, false).unwrap();
    assert!(!sink.rounds.is_empty());
    for r in &sink.rounds {
        assert_eq!((r.frontier, r.transmissions, r.coalesced), (4, 4, 0));
    }
    // `coalescing:K` reports its live particles, which only merge.
    let s = spec("coalescing:4", "torus:6x6");
    let mut sink = MemorySink::default();
    s.measure_traced(&mut sink, false).unwrap();
    assert!(!sink.rounds.is_empty());
    for r in &sink.rounds {
        assert!(
            (1..=4).contains(&r.frontier),
            "{} live particles",
            r.frontier
        );
    }
    for pair in sink.rounds.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.trial == b.trial {
            assert!(b.frontier <= a.frontier, "particles never split");
        }
    }
}

#[test]
fn sharded_traces_carry_per_shard_traffic_and_stay_identical() {
    let s = SimSpec::parse("hypercube:8", "cobra:b2")
        .unwrap()
        .with_trials(2)
        .with_seed(GOLDEN_SEED)
        .with_shards(2);
    let untraced = s.measure().unwrap();
    let mut sink = MemorySink::default();
    let (traced, _) = s.measure_traced(&mut sink, false).unwrap();
    assert_eq!(traced, untraced, "tracing changed the sharded estimate");
    assert!(!sink.rounds.is_empty());
    for r in &sink.rounds {
        assert_eq!(
            r.shard_traffic.len(),
            2,
            "sharded records carry one traffic entry per shard"
        );
    }
    for (_, totals) in &sink.totals {
        assert_eq!(totals.reached, 256, "every trial covers hypercube:8");
    }
}
