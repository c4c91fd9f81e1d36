//! The sharded sibling of [`run_trial_probed`](crate::run_trial_probed).
//!
//! [`run_sharded_trial`] drives a
//! [`ShardedState`] through the same
//! stop/cap protocol as the unsharded trial loop, seeding shard `i`'s
//! RNG stream from [`shard_seed`]`(trial_seed, i)`. Threads only change
//! wall-clock time — the trajectory is fixed by `(trial_seed, shards)`
//! — so outcomes are bit-identical across thread counts. A whole batch
//! runs through [`Engine::run_sequential`](crate::Engine::run_sequential)
//! on one reusable [`TrialState::Sharded`](crate::TrialState::Sharded)
//! (the shards themselves are the parallelism).
//!
//! Observers are not supported here: the sharded state has no global
//! reached bitset to expose through `ProcessView`, so only the
//! stopping-reduced objectives (cover, hit, infection thresholds) run
//! sharded. The `SimSpec` layer enforces that before it ever gets here.

use crate::engine::{StopWhen, TrialOutcome};
use crate::seed::shard_seed;
use cobra_graph::{Topology, VertexId};
use cobra_obs::{Probe, RoundRecord, TrialTotals};
use cobra_process::ShardedState;

/// Runs one trial of a sharded process to its stop condition (the cap
/// always applies on top), resetting `state` from `start` with the
/// per-shard streams of `trial_seed`. Mirrors
/// [`run_trial_probed`](crate::run_trial_probed) exactly: `rounds =
/// None` iff censored at the cap (always, for [`StopWhen::AtCap`]);
/// `if Pr::ENABLED` blocks compile away under [`NoProbe`](cobra_obs::NoProbe),
/// and enabled probes observe view deltas after each `step` without
/// ever touching the per-shard RNG streams. When `state` is
/// [`instrument`](ShardedState::instrument)ed, each record additionally
/// carries the round's per-sender outbox traffic.
pub fn run_sharded_trial<T: Topology + Sync, Pr: Probe>(
    state: &mut ShardedState<'_, T>,
    trial_seed: u64,
    start: VertexId,
    stop: StopWhen,
    cap: usize,
    threads: usize,
    probe: &mut Pr,
) -> TrialOutcome {
    state.reset(start, |i| shard_seed(trial_seed, i));
    let rounds = loop {
        let stopped = match stop {
            StopWhen::Complete => state.is_complete(),
            StopWhen::Reached(v) => state.has_reached(v),
            StopWhen::ReachedCount(k) => state.reached_count() >= k,
            StopWhen::AtCap => false,
        };
        if stopped {
            break Some(state.rounds());
        }
        if state.rounds() >= cap {
            break None;
        }
        let (tx_before, reached_before) = if Pr::ENABLED {
            (state.transmissions(), state.reached_count())
        } else {
            (0, 0)
        };
        state.step(threads);
        if Pr::ENABLED {
            let total_transmissions = state.transmissions();
            // saturating: mirrors the unsharded engine — not every process
            // family's transmission counter is monotone across a step.
            let transmissions = total_transmissions.saturating_sub(tx_before);
            let frontier = state.frontier_len();
            let reached = state.reached_count();
            probe.on_round(&RoundRecord {
                round: state.rounds(),
                frontier,
                new_covered: reached.saturating_sub(reached_before),
                reached,
                transmissions,
                total_transmissions,
                coalesced: transmissions.saturating_sub(frontier as u64),
                shard_traffic: state.last_outbox_traffic(),
            });
        }
    };
    let outcome = TrialOutcome {
        rounds,
        executed: state.rounds(),
        reached: state.reached_count(),
        transmissions: state.transmissions(),
    };
    if Pr::ENABLED {
        probe.on_trial_end(&TrialTotals {
            rounds: outcome.rounds,
            executed: outcome.executed,
            reached: outcome.reached,
            transmissions: outcome.transmissions,
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::trial_seed;
    use cobra_graph::generators;
    use cobra_obs::NoProbe;
    use cobra_process::ProcessSpec;

    /// `trials` sharded cover trials under `seed`, in trial order.
    fn cover_batch<T: Topology + Sync>(
        s: &mut ShardedState<'_, T>,
        trials: u64,
        seed: u64,
        threads: usize,
    ) -> Vec<TrialOutcome> {
        let (cover, cap) = (StopWhen::Complete, 100_000);
        (0..trials)
            .map(|i| {
                run_sharded_trial(s, trial_seed(seed, i), 0, cover, cap, threads, &mut NoProbe)
            })
            .collect()
    }

    fn state_for<'g, T: Topology + Sync>(
        g: &'g T,
        spec: &str,
        shards: usize,
    ) -> ShardedState<'g, T> {
        let spec: ProcessSpec = spec.parse().unwrap();
        ShardedState::new(g, spec.shard_kernel().expect("shardable"), shards)
    }

    #[test]
    fn outcomes_are_thread_count_invariant() {
        let g = generators::hypercube(8);
        let mut s = state_for(&g, "cobra:b2", 4);
        let seq = cover_batch(&mut s, 6, 0x5EED, 1);
        let par = cover_batch(&mut s, 6, 0x5EED, 8);
        assert_eq!(seq, par);
        for o in &seq {
            assert_eq!(o.reached, 256);
            assert!(o.rounds.is_some());
        }
    }

    #[test]
    fn censoring_matches_unsharded_protocol() {
        let g = generators::path(64);
        let mut s = state_for(&g, "cobra:b2", 2);
        let o = run_sharded_trial(&mut s, 7, 0, StopWhen::Complete, 3, 1, &mut NoProbe);
        assert_eq!(o.rounds, None);
        assert_eq!(o.executed, 3);
        // AtCap runs to the cap exactly and never completes.
        let o = run_sharded_trial(&mut s, 7, 0, StopWhen::AtCap, 5, 1, &mut NoProbe);
        assert_eq!(o.rounds, None);
        assert_eq!(o.executed, 5);
    }

    #[test]
    fn hitting_and_threshold_stops() {
        let g = generators::cycle(24);
        let mut s = state_for(&g, "cobra:b2", 3);
        let o = run_sharded_trial(
            &mut s,
            11,
            0,
            StopWhen::Reached(12),
            100_000,
            1,
            &mut NoProbe,
        );
        assert!(o.rounds.expect("must hit") >= 12, "beat the distance bound");
        let o = run_sharded_trial(
            &mut s,
            11,
            0,
            StopWhen::Reached(0),
            100_000,
            1,
            &mut NoProbe,
        );
        assert_eq!(o.rounds, Some(0), "start vertex hits instantly");
        let o = run_sharded_trial(
            &mut s,
            11,
            0,
            StopWhen::ReachedCount(1),
            100_000,
            1,
            &mut NoProbe,
        );
        assert_eq!(o.rounds, Some(0));
    }

    #[test]
    fn trials_use_independent_seeds() {
        let g = generators::hypercube(7);
        let outcomes = cover_batch(&mut state_for(&g, "bips:b2", 4), 8, 3, 1);
        let rounds: std::collections::HashSet<_> = outcomes.iter().map(|o| o.executed).collect();
        assert!(rounds.len() > 1, "8 trials all identical: {outcomes:?}");
    }
}
