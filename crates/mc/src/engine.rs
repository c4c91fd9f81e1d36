//! The unified Monte-Carlo engine: one trial loop for every process.
//!
//! Before this engine existed, cover-time, infection-time, and duality
//! estimation each owned a hand-rolled loop over [`run_trials`] with its
//! own seeding, stepping, stop condition, and censoring bookkeeping.
//! The engine centralises all of that in one per-trial step (reseed →
//! reset → run) and two loops over it: [`Engine::run`] spreads trials
//! over threads; [`Engine::run_sequential`] runs them in order on one
//! reusable [`TrialState`] (traced runs, sharded runs, campaign points):
//!
//! * trials, master seed, and thread count live in the engine;
//! * the per-trial round cap and the [`StopWhen`] condition decide when
//!   a trial ends (completion, reaching a target vertex, or only at the
//!   cap — the horizon-scan mode duality checks use);
//! * an [`Observer`] sees the process after every round and distils each
//!   trial into whatever output the estimator needs: nothing but the
//!   outcome ([`Completion`]), a reached-count trajectory
//!   ([`Trajectory`]), or any custom per-round probe.
//!
//! # Zero-allocation trial loop
//!
//! The trial loop is generic over `P:`[`ProcessState`], so with a
//! concrete process type stepping and stop checks monomorphize (no
//! virtual dispatch per round). Each worker thread builds **one** process
//! state and **one** [`StepCtx`] via [`run_trials_with`]; every trial
//! reseeds the context and [`ProcessState::reset`]s the state, so
//! steady-state trials perform no heap allocation at all.
//!
//! Every string-spec run (`SimSpec`, and through it `run`, `sweep` and
//! `serve`) steps a [`cobra_process::BoxedProcess`] instead, which is
//! itself a `ProcessState`. The `Box` is built once per worker, not once
//! per trial, but each round makes three virtual calls through it: the
//! stop check, `rounds` and `step`.
//!
//! Determinism is inherited from [`run_trials`]: trial `i` sees only
//! `trial_seed(master_seed, i)`, so results are identical across thread
//! counts.
//!
//! [`run_trials`]: crate::runner::run_trials

use crate::queue::CancelToken;
use crate::runner::{run_trials_with, RunConfig};
use crate::seed::trial_seed;
use crate::shard::run_sharded_trial;
use cobra_graph::{Topology, VertexId};
use cobra_obs::{
    NoProbe, Phase, PhaseTimers, Probe, RoundRecord, RoundSink, SinkProbe, TrialTotals, PHASES,
};
use cobra_process::{BoxedProcess, ProcessSpec, ProcessState, ProcessView, ShardedState, StepCtx};

/// When a trial stops stepping (the round cap always applies on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Every vertex reached — cover time, full-infection time,
    /// broadcast time.
    Complete,
    /// A specific vertex reached — hitting time.
    Reached(VertexId),
    /// At least this many vertices reached — partial-infection
    /// (threshold) first-passage times.
    ReachedCount(usize),
    /// Only the cap stops the trial — fixed-horizon scans.
    AtCap,
}

/// What happened in one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Rounds until the stop condition held, or `None` if the trial was
    /// censored at the cap (for [`StopWhen::AtCap`] this is always
    /// `None`: there is nothing to complete).
    pub rounds: Option<usize>,
    /// Rounds actually executed (equals the cap when censored).
    pub executed: usize,
    /// Vertices reached when the trial ended.
    pub reached: usize,
    /// Total transmissions sent.
    pub transmissions: u64,
}

/// Per-trial hooks: sees the process after construction and after every
/// round, then distils the trial into its output.
///
/// Hooks read through the object-safe [`ProcessView`] surface, so one
/// observer type serves every process the (monomorphized) trial loop
/// drives.
pub trait Observer {
    type Output: Send;

    /// Called once, before the first round (the process is in its
    /// round-0 state).
    fn on_start(&mut self, _process: &dyn ProcessView) {}

    /// Called after every executed round.
    fn on_round(&mut self, _process: &dyn ProcessView) {}

    /// Called once when the trial ends.
    fn finish(self, outcome: TrialOutcome, process: &dyn ProcessView) -> Self::Output;
}

/// The no-op observer: a trial reduces to its [`TrialOutcome`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Completion;

impl Observer for Completion {
    type Output = TrialOutcome;
    fn finish(self, outcome: TrialOutcome, _process: &dyn ProcessView) -> TrialOutcome {
        outcome
    }
}

/// Records the reached-set size after every round (index 0 is the
/// round-0 state) — the observer behind infection/cover trajectories.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    sizes: Vec<usize>,
    /// Expected round count; `on_start` pre-reserves `cap + 1` entries
    /// so long-horizon trials never re-grow the vec mid-trial.
    cap: usize,
}

impl Trajectory {
    /// A trajectory observer sized for a `cap`-round trial (`cap + 1`
    /// entries: the round-0 state plus one per executed round).
    pub fn with_capacity(cap: usize) -> Trajectory {
        Trajectory {
            sizes: Vec::new(),
            cap,
        }
    }
}

impl Observer for Trajectory {
    type Output = Vec<usize>;
    fn on_start(&mut self, process: &dyn ProcessView) {
        self.sizes.reserve_exact(self.cap + 1);
        self.sizes.push(process.reached_count());
    }
    fn on_round(&mut self, process: &dyn ProcessView) {
        self.sizes.push(process.reached_count());
    }
    fn finish(self, _outcome: TrialOutcome, _process: &dyn ProcessView) -> Vec<usize> {
        self.sizes
    }
}

/// Drives one trial of an already-reset process to its stop condition.
///
/// This is the single trial loop of the workspace, shared by
/// [`Engine::run`] (which parallelizes over *trials*) and
/// [`Engine::run_sequential`] (which the campaign scheduler runs per
/// job, on a per-worker [`StepCtx`]). The caller is responsible for
/// reseeding `ctx` and resetting `process` beforehand; given the same
/// post-reset state and seed, the outcome is identical whichever layer
/// invokes it.
pub fn run_trial<'g, T, P, Ob>(
    process: &mut P,
    ctx: &mut StepCtx,
    stop: StopWhen,
    cap: usize,
    observer: Ob,
) -> Ob::Output
where
    T: Topology,
    P: ProcessState<'g, T>,
    Ob: Observer,
{
    run_trial_probed(process, ctx, stop, cap, observer, &mut NoProbe)
}

/// [`run_trial`] with a telemetry [`Probe`] attached.
///
/// Every instrumentation block is guarded by `if Pr::ENABLED`, an
/// associated const: with [`NoProbe`] (what [`run_trial`] passes) the
/// blocks are statically dead and this function compiles to exactly
/// the unprobed loop — probes-off stays bit-identical and
/// allocation-free by construction. With an enabled probe, each round
/// is observed *after* `step` returns: the per-round record is built
/// from view deltas (transmissions / reached snapshots taken just
/// before the step) and the probe never touches the trial RNG, so the
/// trajectory is identical with probes off and on.
pub fn run_trial_probed<'g, T, P, Ob, Pr>(
    process: &mut P,
    ctx: &mut StepCtx,
    stop: StopWhen,
    cap: usize,
    mut observer: Ob,
    probe: &mut Pr,
) -> Ob::Output
where
    T: Topology,
    P: ProcessState<'g, T>,
    Ob: Observer,
    Pr: Probe,
{
    observer.on_start(process);
    let rounds = loop {
        let stopped = match stop {
            StopWhen::Complete => process.is_complete(),
            StopWhen::Reached(v) => process.has_reached(v),
            StopWhen::ReachedCount(k) => process.reached_count() >= k,
            StopWhen::AtCap => false,
        };
        if stopped {
            break Some(process.rounds());
        }
        if process.rounds() >= cap {
            break None;
        }
        let (tx_before, reached_before) = if Pr::ENABLED {
            (process.transmissions(), process.reached_count())
        } else {
            (0, 0)
        };
        process.step(ctx);
        if Pr::ENABLED {
            let total_transmissions = process.transmissions();
            // saturating: coalescing families report `rounds × particles`,
            // which shrinks as particles merge.
            let transmissions = total_transmissions.saturating_sub(tx_before);
            let frontier = process.frontier_len();
            let reached = process.reached_count();
            probe.on_round(&RoundRecord {
                round: process.rounds(),
                frontier,
                // saturating: BIPS `reached` can shrink between rounds.
                new_covered: reached.saturating_sub(reached_before),
                reached,
                transmissions,
                total_transmissions,
                coalesced: transmissions.saturating_sub(frontier as u64),
                shard_traffic: &[],
            });
        }
        observer.on_round(process);
    };
    let outcome = TrialOutcome {
        rounds,
        executed: process.rounds(),
        reached: process.reached_count(),
        transmissions: process.transmissions(),
    };
    if Pr::ENABLED {
        probe.on_trial_end(&TrialTotals {
            rounds: outcome.rounds,
            executed: outcome.executed,
            reached: outcome.reached,
            transmissions: outcome.transmissions,
        });
    }
    observer.finish(outcome, process)
}

/// One seeded trial: reseed `ctx`, `reset` the state to round 0 (it may
/// draw from the fresh stream), run to the stop condition. The step
/// both [`Engine::run`] and [`Engine::run_sequential`] take, so the two
/// loops cannot drift apart bit-wise.
#[allow(clippy::too_many_arguments)]
fn seeded_trial<'g, T: Topology, P: ProcessState<'g, T>, Ob: Observer>(
    process: &mut P,
    ctx: &mut StepCtx,
    seed: u64,
    reset: impl FnOnce(&mut P, &mut StepCtx),
    stop: StopWhen,
    cap: usize,
    observer: Ob,
    probe: &mut impl Probe,
) -> Ob::Output {
    ctx.reseed(seed);
    reset(process, ctx);
    run_trial_probed(process, ctx, stop, cap, observer, probe)
}

/// The unified trial executor. Owns everything the three former
/// bespoke loops duplicated: trial count, master seed, worker threads,
/// and the per-trial round cap.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    /// Independent Monte-Carlo trials.
    pub trials: usize,
    /// Master seed; trial `i` derives its own seed from it.
    pub master_seed: u64,
    /// Worker threads (0 = one per core).
    pub threads: usize,
    /// Hard per-trial round cap.
    pub cap: usize,
}

impl Engine {
    /// An engine running `trials` trials under `master_seed` with the
    /// given round cap, auto threading.
    pub fn new(trials: usize, master_seed: u64, cap: usize) -> Engine {
        Engine {
            trials,
            master_seed,
            threads: 0,
            cap,
        }
    }

    /// Overrides the worker thread count (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.threads = threads;
        self
    }

    /// Runs the trials over a reusable process state per worker.
    ///
    /// `make_state` builds the worker's process state (once per worker
    /// thread); `reset` restores it to round 0 for a trial — it receives
    /// the trial index and the freshly reseeded [`StepCtx`] and may draw
    /// from `ctx.rng` (e.g. for random start sets) before stepping
    /// begins. `make_observer` builds the per-trial observer. Output
    /// order is by trial index, identical for any thread count.
    ///
    /// The trial loop monomorphizes over `P`, so for a concrete process
    /// the per-round stop check and `step` call compile to direct,
    /// inlinable code. For a [`BoxedProcess`] (the [`Engine::run_spec`]
    /// path) they are three virtual calls per round: the stop check,
    /// `rounds` and `step`.
    pub fn run<'g, T, P, F, R, Ob, G>(
        &self,
        stop: StopWhen,
        make_state: F,
        reset: R,
        make_observer: G,
    ) -> Vec<Ob::Output>
    where
        T: Topology,
        P: ProcessState<'g, T>,
        F: Fn() -> P + Sync,
        R: Fn(&mut P, usize, &mut StepCtx) + Sync,
        Ob: Observer,
        G: Fn(usize) -> Ob + Sync,
        Ob::Output: Send,
    {
        let cap = self.cap;
        run_trials_with(
            RunConfig::new(self.trials, self.master_seed).with_threads(self.threads),
            || (make_state(), StepCtx::new()),
            |(process, ctx), seed, index| {
                seeded_trial(
                    process,
                    ctx,
                    seed,
                    |p, ctx| reset(p, index, ctx),
                    stop,
                    cap,
                    make_observer(index),
                    &mut NoProbe,
                )
            },
        )
    }

    /// [`Engine::run`] for a parsed [`ProcessSpec`] — the type-erased
    /// path string-driven entry points (CLI, config files) use. The
    /// [`BoxedProcess`] is built once per worker and reset per trial.
    /// Generic over the graph backend: CSR graphs and implicit
    /// topologies run through the same loop, bit-identically.
    pub fn run_spec<'g, T, Ob, G>(
        &self,
        g: &'g T,
        spec: &ProcessSpec,
        start: &[VertexId],
        stop: StopWhen,
        make_observer: G,
    ) -> Vec<Ob::Output>
    where
        T: Topology + Sync,
        Ob: Observer,
        G: Fn(usize) -> Ob + Sync,
        Ob::Output: Send,
    {
        self.run(
            stop,
            || spec.build(g, start),
            |p: &mut BoxedProcess<'g, T>, _, _| p.reset(g, start),
            make_observer,
        )
    }

    /// The sequential stopping-trial loop: runs the trials in trial order
    /// on one reusable [`TrialState`] (ignoring `threads`) and hands each
    /// outcome to `fold`. Trial `i` sees `trial_seed(master_seed, i)`, as
    /// in [`Engine::run`], so unsharded outcomes match the parallel path.
    ///
    /// `cancel` is polled before every trial; a cancelled batch returns
    /// `false`. A `sink` receives every round and trial total, then the
    /// trial's phase-time split when the state carries timers.
    pub fn run_sequential<T: Topology + Sync>(
        &self,
        state: &mut TrialState<'_, '_, T>,
        stop: StopWhen,
        cancel: Option<&CancelToken>,
        mut sink: Option<&mut dyn RoundSink>,
        mut fold: impl FnMut(&TrialOutcome),
    ) -> bool {
        for i in 0..self.trials {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return false;
            }
            let seed = trial_seed(self.master_seed, i as u64);
            let outcome = match sink.as_deref_mut() {
                None => state.run_trial(seed, stop, self.cap, &mut NoProbe),
                Some(sink) => {
                    let before = state.timers().map(PhaseTimers::sums);
                    let outcome =
                        state.run_trial(seed, stop, self.cap, &mut SinkProbe::new(i, &mut *sink));
                    if let (Some(before), Some(timers)) = (before, state.timers()) {
                        sink.on_trial_phases(i, &phase_deltas(before, timers));
                    }
                    outcome
                }
            };
            fold(&outcome);
        }
        true
    }
}

/// The reusable state [`Engine::run_sequential`] drives: a process built
/// from a [`ProcessSpec`] on a caller-owned [`StepCtx`], or the sharded
/// engine's partitioned state.
pub enum TrialState<'c, 'g, T: Topology> {
    /// The unsharded engine.
    Process {
        process: BoxedProcess<'g, T>,
        ctx: &'c mut StepCtx,
        graph: &'g T,
        start: &'c [VertexId],
    },
    /// The sharded engine, stepping its shards on `threads` workers.
    Sharded {
        state: ShardedState<'g, T>,
        start: VertexId,
        threads: usize,
    },
}

impl<'c, 'g, T: Topology + Sync> TrialState<'c, 'g, T> {
    /// The state `process` runs on from `start`: sharded when `shards > 1`
    /// (callers vet that the process shards and `start` is one vertex).
    pub fn new(
        graph: &'g T,
        process: &ProcessSpec,
        start: &'c [VertexId],
        shards: usize,
        threads: usize,
        ctx: &'c mut StepCtx,
    ) -> Self {
        if shards > 1 {
            let kernel = process
                .shard_kernel()
                .expect("sharded runs are vetted to use a shardable process");
            TrialState::Sharded {
                state: ShardedState::new(graph, kernel, shards),
                start: start[0],
                threads,
            }
        } else {
            TrialState::Process {
                process: process.build(graph, start),
                ctx,
                graph,
                start,
            }
        }
    }

    /// Turns on telemetry for a traced batch: phase timing when
    /// `time_phases` is set and, sharded, per-round outbox traffic.
    pub fn instrument(&mut self, time_phases: bool) {
        match self {
            TrialState::Process { ctx, .. } => {
                if time_phases {
                    ctx.timers = Some(Box::default());
                }
            }
            TrialState::Sharded { state, .. } => state.instrument(time_phases),
        }
    }

    /// The phase timers accumulated so far, when timing is on.
    pub fn timers(&self) -> Option<&PhaseTimers> {
        match self {
            TrialState::Process { ctx, .. } => ctx.timers.as_deref(),
            TrialState::Sharded { state, .. } => state.timers(),
        }
    }

    /// One trial from `seed`: reseed → reset → run to `stop` or `cap`.
    fn run_trial<Pr: Probe>(
        &mut self,
        seed: u64,
        stop: StopWhen,
        cap: usize,
        probe: &mut Pr,
    ) -> TrialOutcome {
        match self {
            TrialState::Process {
                process,
                ctx,
                graph,
                start,
            } => seeded_trial(
                process,
                ctx,
                seed,
                |p, _| p.reset(graph, start),
                stop,
                cap,
                Completion,
                probe,
            ),
            TrialState::Sharded {
                state,
                start,
                threads,
            } => run_sharded_trial(state, seed, *start, stop, cap, *threads, probe),
        }
    }
}

/// Per-phase nanoseconds accumulated since the `before` snapshot — the
/// per-trial split handed to [`RoundSink::on_trial_phases`]. Only phases
/// that advanced appear.
fn phase_deltas(before: [u64; PHASES], timers: &PhaseTimers) -> Vec<(Phase, u64)> {
    let after = timers.sums();
    Phase::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| after[i] > before[i])
        .map(|(i, &p)| (p, after[i] - before[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use cobra_process::{Branching, Cobra, Laziness};

    fn k16_cobra(trials: usize, cap: usize) -> (Engine, cobra_graph::Graph) {
        (Engine::new(trials, 0xE6E, cap), generators::complete(16))
    }

    #[test]
    fn completes_and_orders_outcomes() {
        let (engine, g) = k16_cobra(12, 10_000);
        let outcomes = engine.run(
            StopWhen::Complete,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        assert_eq!(outcomes.len(), 12);
        for o in &outcomes {
            assert!(o.rounds.is_some());
            assert_eq!(o.reached, 16);
            assert!(o.transmissions > 0);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (engine, g) = k16_cobra(16, 10_000);
        let seq = engine.with_threads(1).run(
            StopWhen::Complete,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        let par = engine.with_threads(8).run(
            StopWhen::Complete,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn cap_censors_with_executed_rounds() {
        let engine = Engine::new(5, 1, 3);
        let g = generators::path(64);
        let outcomes = engine.run(
            StopWhen::Complete,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        for o in outcomes {
            assert_eq!(o.rounds, None);
            assert_eq!(o.executed, 3);
        }
    }

    #[test]
    fn reached_stop_is_hitting_time() {
        let engine = Engine::new(10, 2, 100_000);
        let g = generators::cycle(24);
        let make = || Cobra::new(&g, &[0], Branching::B2, Laziness::None);
        let outcomes = engine.run(
            StopWhen::Reached(12),
            make,
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        for o in &outcomes {
            let hit = o.rounds.expect("must hit within cap");
            // Vertex 12 is 12 hops away; spreading one hop per round.
            assert!(hit >= 12, "hit {hit} beats the distance bound");
        }
        // Hitting the start vertex takes zero rounds.
        let zero = engine.run(
            StopWhen::Reached(0),
            make,
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        assert!(zero.iter().all(|o| o.rounds == Some(0)));
    }

    #[test]
    fn reached_count_stop_is_threshold_first_passage() {
        let engine = Engine::new(8, 6, 100_000);
        let g = generators::complete(32);
        let make = || Cobra::b2(&g, 0);
        let run = |stop| engine.run(stop, make, |p, _, _| p.reset(&g, &[0]), |_| Completion);
        let half = run(StopWhen::ReachedCount(16));
        let full = run(StopWhen::Complete);
        for (h, f) in half.iter().zip(&full) {
            assert!(h.reached >= 16, "stopped before the threshold");
            assert!(
                h.rounds.unwrap() <= f.rounds.unwrap(),
                "half coverage cannot take longer than full"
            );
        }
        // Threshold n is the completion condition itself.
        let all = run(StopWhen::ReachedCount(32));
        assert_eq!(all, full);
        // Threshold 1 is met by the start set at round 0.
        let trivial = run(StopWhen::ReachedCount(1));
        assert!(trivial.iter().all(|o| o.rounds == Some(0)));
    }

    #[test]
    fn trajectory_with_capacity_records_identically() {
        let engine = Engine::new(4, 11, 25);
        let g = generators::cycle(16);
        let run = |make_ob: fn() -> Trajectory| {
            engine.run(
                StopWhen::AtCap,
                || Cobra::b2(&g, 0),
                |p, _, _| p.reset(&g, &[0]),
                |_| make_ob(),
            )
        };
        let reserved = run(|| Trajectory::with_capacity(25));
        let lazy = run(Trajectory::default);
        assert_eq!(reserved, lazy, "pre-reserving must not change outputs");
        for t in &reserved {
            assert_eq!(t.len(), 26, "cap + 1 entries");
        }
    }

    #[test]
    fn at_cap_runs_exactly_cap_rounds() {
        let engine = Engine::new(4, 3, 7);
        let g = generators::complete(8);
        let outcomes = engine.run(
            StopWhen::AtCap,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        for o in outcomes {
            assert_eq!(o.rounds, None);
            assert_eq!(o.executed, 7, "AtCap must run to the cap exactly");
        }
    }

    #[test]
    fn trajectory_observer_records_every_round() {
        let engine = Engine::new(6, 4, 10_000);
        let g = generators::complete(32);
        let trajectories = engine.run(
            StopWhen::Complete,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Trajectory::default(),
        );
        for t in trajectories {
            assert_eq!(t[0], 1, "round 0 state is the start set");
            assert_eq!(*t.last().unwrap(), 32, "last entry is full coverage");
            assert!(
                t.windows(2).all(|w| w[0] <= w[1]),
                "COBRA coverage is monotone"
            );
        }
    }

    #[test]
    fn trial_index_can_vary_the_reset() {
        // Per-trial start vertices through the reset hook: hitting
        // vertex 0 takes zero rounds only for the trial starting there.
        let engine = Engine::new(6, 5, 100_000);
        let g = generators::cycle(12);
        let outcomes = engine.run(
            StopWhen::Reached(0),
            || Cobra::b2(&g, 0),
            |p, i, _| p.reset(&g, &[(i as u32 % 12)]),
            |_| Completion,
        );
        assert_eq!(outcomes[0].rounds, Some(0));
        for o in &outcomes[1..] {
            assert!(o.rounds.unwrap() > 0, "non-zero start hit instantly");
        }
    }

    #[test]
    fn spec_path_runs_through_the_engine() {
        // The ProcessSpec path hands the engine a BoxedProcess.
        let engine = Engine::new(5, 5, 100_000);
        let g = generators::petersen();
        let spec: ProcessSpec = "bips:b2".parse().unwrap();
        let outcomes = engine.run_spec(&g, &spec, &[0], StopWhen::Complete, |_| Completion);
        assert!(outcomes.iter().all(|o| o.rounds.is_some()));
    }

    #[test]
    fn spec_path_matches_monomorphic_path_exactly() {
        // Boxed-and-reset must be bit-identical to concrete-and-reset.
        let engine = Engine::new(8, 9, 100_000);
        let g = generators::torus(&[5, 5]);
        let spec: ProcessSpec = "cobra:b2".parse().unwrap();
        let boxed = engine.run_spec(&g, &spec, &[0], StopWhen::Complete, |_| Completion);
        let concrete = engine.run(
            StopWhen::Complete,
            || Cobra::b2(&g, 0),
            |p, _, _| p.reset(&g, &[0]),
            |_| Completion,
        );
        assert_eq!(boxed, concrete);
    }
}
