//! The sharded engine's side of the trial loop: a [`ShardedState`]
//! stepped on `threads` workers is a [`RoundView`] and a `RoundState`,
//! so [`TrialState::Sharded`](crate::TrialState::Sharded) runs the same
//! stop/cap/observer loop as the unsharded engine, and every
//! [`Observer`](crate::Observer) (trajectories, custom readings,
//! telemetry) runs on it unchanged. An
//! [`instrument`](ShardedState::instrument)ed state adds each round's
//! per-sender outbox traffic to the view. Threads only change
//! wall-clock time: the trajectory is fixed by `(trial_seed, shards)`.

use crate::engine::{RoundState, RoundView};
use cobra_graph::{Topology, VertexId};
use cobra_process::ShardedState;

impl<T: Topology + Sync> RoundView for (&mut ShardedState<'_, T>, usize) {
    fn rounds(&self) -> usize {
        self.0.rounds()
    }
    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }
    fn reached_count(&self) -> usize {
        self.0.reached_count()
    }
    fn has_reached(&self, v: VertexId) -> bool {
        self.0.has_reached(v)
    }
    fn transmissions(&self) -> u64 {
        self.0.transmissions()
    }
    fn frontier_len(&self) -> usize {
        self.0.frontier_len()
    }
    fn shard_traffic(&self) -> &[u64] {
        self.0.last_outbox_traffic()
    }
}

impl<T: Topology + Sync> RoundState<T> for (&mut ShardedState<'_, T>, usize) {
    fn step(&mut self) {
        self.0.step(self.1)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Completion, Engine, StopWhen, TrialOutcome, TrialState};
    use cobra_graph::{generators, Graph};
    use cobra_process::{ProcessSpec, StepCtx};

    /// A sharded state for `spec` on `g`, started at vertex 0.
    fn sharded<'c, 'g>(
        g: &'g Graph,
        spec: &str,
        shards: usize,
        threads: usize,
        ctx: &'c mut StepCtx,
    ) -> TrialState<'c, 'g, Graph> {
        let spec: ProcessSpec = spec.parse().unwrap();
        let state = TrialState::new(g, &spec, &[0], shards, threads, ctx);
        assert!(matches!(state, TrialState::Sharded { .. }));
        state
    }

    /// `trials` sharded cover trials under `seed`, in trial order.
    fn cover_batch(
        s: &mut TrialState<'_, '_, Graph>,
        trials: usize,
        seed: u64,
    ) -> Vec<TrialOutcome> {
        let mut out = Vec::new();
        Engine::new(trials, seed, 100_000).run_sequential(
            s,
            StopWhen::Complete,
            None,
            None,
            |_| Completion,
            |o| out.push(o),
        );
        out
    }

    #[test]
    fn outcomes_are_thread_count_invariant() {
        let g = generators::hypercube(8);
        let (mut c1, mut c8) = (StepCtx::new(), StepCtx::new());
        let seq = cover_batch(&mut sharded(&g, "cobra:b2", 4, 1, &mut c1), 6, 0x5EED);
        let par = cover_batch(&mut sharded(&g, "cobra:b2", 4, 8, &mut c8), 6, 0x5EED);
        assert_eq!(seq, par);
        for o in &seq {
            assert_eq!(o.reached, 256);
            assert!(o.rounds.is_some());
        }
    }

    #[test]
    fn censoring_matches_unsharded_protocol() {
        let g = generators::path(64);
        let mut ctx = StepCtx::new();
        let mut s = sharded(&g, "cobra:b2", 2, 1, &mut ctx);
        let o = s.run_trial(7, StopWhen::Complete, 3, Completion);
        assert_eq!(o.rounds, None);
        assert_eq!(o.executed, 3);
        // AtCap runs to the cap exactly and never completes.
        let o = s.run_trial(7, StopWhen::AtCap, 5, Completion);
        assert_eq!(o.rounds, None);
        assert_eq!(o.executed, 5);
    }

    #[test]
    fn hitting_and_threshold_stops() {
        let g = generators::cycle(24);
        let mut ctx = StepCtx::new();
        let mut s = sharded(&g, "cobra:b2", 3, 1, &mut ctx);
        let o = s.run_trial(11, StopWhen::Reached(12), 100_000, Completion);
        assert!(o.rounds.expect("must hit") >= 12, "beat the distance bound");
        let o = s.run_trial(11, StopWhen::Reached(0), 100_000, Completion);
        assert_eq!(o.rounds, Some(0), "start vertex hits instantly");
        let o = s.run_trial(11, StopWhen::ReachedCount(1), 100_000, Completion);
        assert_eq!(o.rounds, Some(0));
    }

    #[test]
    fn trials_use_independent_seeds() {
        let g = generators::hypercube(7);
        let mut ctx = StepCtx::new();
        let outcomes = cover_batch(&mut sharded(&g, "bips:b2", 4, 1, &mut ctx), 8, 3);
        let rounds: std::collections::HashSet<_> = outcomes.iter().map(|o| o.executed).collect();
        assert!(rounds.len() > 1, "8 trials all identical: {outcomes:?}");
    }
}
