//! The unified Monte-Carlo engine: one trial loop for every process.
//!
//! One per-trial step (reseed → reset → run) and two loops over it:
//! [`Engine::run_spec`] spreads a [`ProcessSpec`]'s trials over threads;
//! [`Engine::run_sequential`] runs them in order on one reusable
//! [`TrialState`] (traced runs, sharded runs, campaign points). These
//! two are the only batch runners in the workspace. Both hand each
//! trial's output to a caller fold in trial order and return no
//! per-trial vector:
//!
//! * trials, master seed, and thread count live in the engine;
//! * the per-trial round cap and the [`StopWhen`] condition decide when
//!   a trial ends (completion, reaching a target vertex, or only at the
//!   cap — the horizon-scan mode duality checks use);
//! * an [`Observer`] — the loop's one per-round hook — reads the trial
//!   through a [`RoundView`] after every round and distils it into
//!   whatever output the estimator needs: nothing but the outcome
//!   ([`Completion`]), a reached-count trajectory ([`Trajectory`]), or
//!   any custom reading. Telemetry is one more observer: a traced
//!   [`Engine::run_sequential`] wraps the trial's observer in one that
//!   feeds a [`RoundSink`].
//!
//! The stop check, the cap, the observer calls and the [`TrialOutcome`]
//! live in one loop; [`run_trial`] runs it on a process, and the sharded
//! engine reaches it through the crate-private `RoundState` trait, so
//! every observer runs on both kernels.
//!
//! # Zero-allocation trial loop
//!
//! [`run_trial`] is generic over `P:`[`ProcessState`], so with a
//! concrete process type stepping and stop checks monomorphize (no
//! virtual dispatch per round). [`Engine::run_spec`] steps a
//! [`BoxedProcess`], itself a `ProcessState`: each worker thread builds
//! **one** box and **one** [`StepCtx`], and every trial reseeds the
//! context and resets the process, so steady-state trials perform no
//! heap allocation at all. Under an observer that reads no round
//! ([`Completion`], what estimation and campaign points use) a trial
//! makes one virtual call through the box, to
//! [`ProcessState::run_until`], whose stop/cap/step loop is compiled
//! once per kernel; reading the totals adds three more per trial.
//! An observer that reads every round (trajectories, telemetry) pays
//! the stop check, `rounds`, `step` and its reads per round instead.
//!
//! Determinism: trial `i` sees only `trial_seed(master_seed, i)` and the
//! fold sees trials in index order (the crate-private parallel runner
//! reorders them), so results are identical across thread counts.

use crate::runner::run_trials_with;
use crate::seed::{shard_seed, trial_seed};
use cobra_graph::{Topology, VertexId};
use cobra_obs::{Phase, PhaseTimers, RoundRecord, RoundSink, PHASES};
pub use cobra_process::StopWhen;
use cobra_process::{BoxedProcess, ProcessSpec, ProcessState, ProcessView, ShardedState, StepCtx};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cooperative cancellation flag, polled by [`Engine::run_sequential`]
/// at trial boundaries (never inside a trial). Clones share the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has called [`CancelToken::cancel`].
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What happened in one trial: the totals a traced run also hands its
/// sink.
pub type TrialOutcome = cobra_obs::TrialTotals;

/// What an [`Observer`] reads of a trial: the unsharded (process,
/// [`StepCtx`]) pair and the sharded (`ShardedState`, worker threads)
/// pair both provide it, so one observer runs on either kernel.
pub trait RoundView {
    /// Rounds executed so far.
    fn rounds(&self) -> usize;
    /// True once every vertex is reached.
    fn is_complete(&self) -> bool;
    /// Vertices reached so far.
    fn reached_count(&self) -> usize;
    /// Whether `v` is reached.
    fn has_reached(&self, v: VertexId) -> bool;
    /// Total transmissions so far.
    fn transmissions(&self) -> u64;
    /// Current frontier size (see `ProcessView::frontier_len`).
    fn frontier_len(&self) -> usize;
    /// Per-sender outbox entries of the last round (empty unsharded, and
    /// unless the sharded state is instrumented).
    fn shard_traffic(&self) -> &[u64];
}

/// Per-trial hooks: see the trial after its reset and after every
/// round, then distil it into the trial's output.
///
/// Hooks run after `step` returns and read only the object-safe
/// [`RoundView`]: they never draw from the trial RNG, so attaching an
/// observer never changes a sample.
pub trait Observer {
    type Output: Send;

    /// False for an observer whose `on_start` and `on_round` do nothing:
    /// [`run_trial`] then hands the whole stop/cap/step loop to
    /// [`ProcessState::run_until`] and calls only `finish`.
    const READS_ROUNDS: bool = true;

    /// Called once, before the first round (the trial is in its round-0
    /// state).
    fn on_start(&mut self, _view: &dyn RoundView) {}

    /// Called after every executed round.
    fn on_round(&mut self, _view: &dyn RoundView) {}

    /// Called once when the trial ends.
    fn finish(self, outcome: TrialOutcome, view: &dyn RoundView) -> Self::Output;
}

/// The no-op observer: a trial reduces to its [`TrialOutcome`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Completion;

impl Observer for Completion {
    type Output = TrialOutcome;
    const READS_ROUNDS: bool = false;
    fn finish(self, outcome: TrialOutcome, _view: &dyn RoundView) -> TrialOutcome {
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
    fn on_start(&mut self, view: &dyn RoundView) {
        self.sizes.reserve_exact(self.cap + 1);
        self.sizes.push(view.reached_count());
    }
    fn on_round(&mut self, view: &dyn RoundView) {
        self.sizes.push(view.reached_count());
    }
    fn finish(self, _outcome: TrialOutcome, _view: &dyn RoundView) -> Vec<usize> {
        self.sizes
    }
}

/// The telemetry observer a traced [`Engine::run_sequential`] wraps
/// around each trial's observer: it keeps the totals of the previous
/// round, so it can hand `sink` one [`RoundRecord`] of deltas per round
/// and the trial's totals at the end. It is the only code that builds a
/// `RoundRecord`.
struct Telemetry<'s, Ob> {
    inner: Ob,
    trial: usize,
    sink: &'s mut dyn RoundSink,
    transmissions: u64,
    reached: usize,
}

impl<Ob: Observer> Observer for Telemetry<'_, Ob> {
    type Output = Ob::Output;

    fn on_start(&mut self, view: &dyn RoundView) {
        (self.transmissions, self.reached) = (view.transmissions(), view.reached_count());
        self.inner.on_start(view);
    }

    fn on_round(&mut self, view: &dyn RoundView) {
        let (total_transmissions, reached) = (view.transmissions(), view.reached_count());
        // saturating: coalescing families report `rounds × particles`,
        // which shrinks as particles merge.
        let transmissions = total_transmissions.saturating_sub(self.transmissions);
        let frontier = view.frontier_len();
        let record = RoundRecord {
            round: view.rounds(),
            frontier,
            // saturating: BIPS `reached` can shrink between rounds.
            new_covered: reached.saturating_sub(self.reached),
            reached,
            transmissions,
            total_transmissions,
            coalesced: transmissions.saturating_sub(frontier as u64),
            shard_traffic: view.shard_traffic(),
        };
        self.sink.on_round(self.trial, &record);
        (self.transmissions, self.reached) = (total_transmissions, reached);
        self.inner.on_round(view);
    }

    fn finish(self, outcome: TrialOutcome, view: &dyn RoundView) -> Ob::Output {
        self.sink.on_trial_end(self.trial, &outcome);
        self.inner.finish(outcome, view)
    }
}

/// Drives one trial of an already-reset process to its stop condition:
/// the trial loop [`Engine::run_spec`] and [`Engine::run_sequential`] share.
/// The caller reseeds `ctx` and resets `process` beforehand; given the
/// same post-reset state and seed, the outcome is identical whichever
/// layer invokes it. An observer that reads no round runs the trial in
/// one [`ProcessState::run_until`] call; the others step round by round
/// through the shared loop. Both make the same `step` calls in the same
/// order, so the outcome does not depend on which path ran.
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
    if !Ob::READS_ROUNDS {
        let rounds = process.run_until(stop, ctx, cap);
        let state = (process, ctx);
        return observer.finish(outcome(&state, rounds), &state);
    }
    run_rounds::<T, _, _>(&mut (process, ctx), stop, cap, observer)
}

/// The trial's totals once it has stopped after `rounds`.
fn outcome(state: &dyn RoundView, rounds: Option<usize>) -> TrialOutcome {
    TrialOutcome {
        rounds,
        executed: state.rounds(),
        reached: state.reached_count(),
        transmissions: state.transmissions(),
    }
}

/// A [`RoundView`] the trial loop can also step.
pub(crate) trait RoundState<T>: RoundView {
    fn step(&mut self);
}

impl<P: ProcessView> RoundView for (&mut P, &mut StepCtx) {
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
        &[]
    }
}

impl<'g, T: Topology, P: ProcessState<'g, T>> RoundState<T> for (&mut P, &mut StepCtx) {
    fn step(&mut self) {
        self.0.step(self.1)
    }
}

/// The trial loop: steps `state` until `stop` holds (`rounds = Some`)
/// or the cap censors it (`None`; always for [`StopWhen::AtCap`]),
/// showing `observer` the trial before the first round and after every
/// round.
fn run_rounds<T, S: RoundState<T>, Ob: Observer>(
    state: &mut S,
    stop: StopWhen,
    cap: usize,
    mut observer: Ob,
) -> Ob::Output {
    observer.on_start(state);
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
        state.step();
        observer.on_round(state);
    };
    observer.finish(outcome(state, rounds), state)
}

/// The unified trial executor: trial count, master seed, worker
/// threads, and the per-trial round cap.
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

    /// Runs the trials of a parsed [`ProcessSpec`] from `start`, spread
    /// over the worker threads. Each worker builds one
    /// [`BoxedProcess`] and one [`StepCtx`]; every trial reseeds the
    /// context and resets the process. `make_observer` builds the
    /// per-trial observer, and `fold` receives each trial's output on
    /// the calling thread in trial-index order, identical for any thread
    /// count. Generic over the graph backend: CSR graphs and implicit
    /// topologies run through the same loop, bit-identically.
    pub fn run_spec<T, Ob, G>(
        &self,
        g: &T,
        spec: &ProcessSpec,
        start: &[VertexId],
        stop: StopWhen,
        make_observer: G,
        fold: impl FnMut(Ob::Output),
    ) where
        T: Topology + Sync,
        Ob: Observer,
        G: Fn(usize) -> Ob + Sync,
    {
        let cap = self.cap;
        run_trials_with(
            self,
            || (spec.build(g, start), StepCtx::new()),
            |(process, ctx), seed, index| {
                ctx.reseed(seed);
                process.reset(g, start);
                run_trial(process, ctx, stop, cap, make_observer(index))
            },
            fold,
        )
    }

    /// The sequential loop: runs the trials in trial order on one
    /// reusable [`TrialState`] (ignoring `threads`) and hands each
    /// observer output to `fold`. Trial `i` sees `trial_seed(master_seed,
    /// i)`, as in [`Engine::run_spec`], so unsharded outputs match the
    /// parallel path; sharded states run the same observers.
    ///
    /// `cancel` is polled before every trial; a cancelled batch returns
    /// `false`. A `sink` receives every round and trial total through the
    /// telemetry observer wrapped around `make_observer(i)`, then the
    /// trial's phase-time split when the state carries timers.
    pub fn run_sequential<T: Topology + Sync, Ob: Observer>(
        &self,
        state: &mut TrialState<'_, '_, T>,
        stop: StopWhen,
        cancel: Option<&CancelToken>,
        mut sink: Option<&mut dyn RoundSink>,
        make_observer: impl Fn(usize) -> Ob,
        mut fold: impl FnMut(Ob::Output),
    ) -> bool {
        for i in 0..self.trials {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return false;
            }
            let seed = trial_seed(self.master_seed, i as u64);
            let output = match sink.as_deref_mut() {
                None => state.run_trial(seed, stop, self.cap, make_observer(i)),
                Some(sink) => {
                    let before = state.timers().map(PhaseTimers::sums);
                    let telemetry = Telemetry {
                        inner: make_observer(i),
                        trial: i,
                        sink: &mut *sink,
                        transmissions: 0,
                        reached: 0,
                    };
                    let output = state.run_trial(seed, stop, self.cap, telemetry);
                    if let (Some(before), Some(timers)) = (before, state.timers()) {
                        sink.on_trial_phases(i, &phase_deltas(before, timers));
                    }
                    output
                }
            };
            fold(output);
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

    /// One trial from `seed`: reseed → reset → run to `stop` or `cap`
    /// under `observer`. Shard `i` of a sharded state draws from
    /// `shard_seed(seed, i)`.
    pub(crate) fn run_trial<Ob: Observer>(
        &mut self,
        seed: u64,
        stop: StopWhen,
        cap: usize,
        observer: Ob,
    ) -> Ob::Output {
        match self {
            TrialState::Process {
                process,
                ctx,
                graph,
                start,
            } => {
                ctx.reseed(seed);
                process.reset(graph, start);
                run_trial(process, ctx, stop, cap, observer)
            }
            TrialState::Sharded {
                state,
                start,
                threads,
            } => {
                state.reset(*start, |i| shard_seed(seed, i));
                run_rounds(&mut (&mut *state, *threads), stop, cap, observer)
            }
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
    use cobra_graph::{generators, Graph};
    use cobra_process::Cobra;

    /// Every output of `engine.run_spec` for `process` from vertex 0,
    /// collected through its fold.
    fn outputs<Ob: Observer>(
        engine: Engine,
        g: &Graph,
        process: &str,
        stop: StopWhen,
        observer: impl Fn(usize) -> Ob + Sync,
    ) -> Vec<Ob::Output> {
        let spec: ProcessSpec = process.parse().unwrap();
        let mut out = Vec::new();
        engine.run_spec(g, &spec, &[0], stop, observer, |o| out.push(o));
        out
    }

    #[test]
    fn completes_and_orders_outcomes() {
        let (engine, g) = (Engine::new(12, 0xE6E, 10_000), generators::complete(16));
        let outcomes = outputs(engine, &g, "cobra:b2", StopWhen::Complete, |_| Completion);
        assert_eq!(outcomes.len(), 12);
        for o in &outcomes {
            assert!(o.rounds.is_some());
            assert_eq!(o.reached, 16);
            assert!(o.transmissions > 0);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (engine, g) = (Engine::new(16, 0xE6E, 10_000), generators::complete(16));
        let run = |threads| {
            let engine = engine.with_threads(threads);
            outputs(engine, &g, "cobra:b2", StopWhen::Complete, |_| Completion)
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn cap_censors_with_executed_rounds() {
        let engine = Engine::new(5, 1, 3);
        let g = generators::path(64);
        for o in outputs(engine, &g, "cobra:b2", StopWhen::Complete, |_| Completion) {
            assert_eq!(o.rounds, None);
            assert_eq!(o.executed, 3);
        }
    }

    #[test]
    fn reached_stop_is_hitting_time() {
        let engine = Engine::new(10, 2, 100_000);
        let g = generators::cycle(24);
        let hit = |v| outputs(engine, &g, "cobra:b2", StopWhen::Reached(v), |_| Completion);
        for o in &hit(12) {
            let rounds = o.rounds.expect("must hit within cap");
            // Vertex 12 is 12 hops away; spreading one hop per round.
            assert!(rounds >= 12, "hit {rounds} beats the distance bound");
        }
        // Hitting the start vertex takes zero rounds.
        assert!(hit(0).iter().all(|o| o.rounds == Some(0)));
    }

    #[test]
    fn reached_count_stop_is_threshold_first_passage() {
        let engine = Engine::new(8, 6, 100_000);
        let g = generators::complete(32);
        let run = |stop| outputs(engine, &g, "cobra:b2", stop, |_| Completion);
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
            outputs(engine, &g, "cobra:b2", StopWhen::AtCap, |_| make_ob())
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
        for o in outputs(engine, &g, "cobra:b2", StopWhen::AtCap, |_| Completion) {
            assert_eq!(o.rounds, None);
            assert_eq!(o.executed, 7, "AtCap must run to the cap exactly");
        }
    }

    #[test]
    fn trajectory_observer_records_every_round() {
        let engine = Engine::new(6, 4, 10_000);
        let g = generators::complete(32);
        let trajectories = outputs(engine, &g, "cobra:b2", StopWhen::Complete, |_| {
            Trajectory::default()
        });
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
    fn spec_path_runs_through_the_engine() {
        // The ProcessSpec path hands the engine a BoxedProcess.
        let engine = Engine::new(5, 5, 100_000);
        let g = generators::petersen();
        let outcomes = outputs(engine, &g, "bips:b2", StopWhen::Complete, |_| Completion);
        assert!(outcomes.iter().all(|o| o.rounds.is_some()));
    }

    #[test]
    fn spec_path_matches_monomorphic_path_exactly() {
        // Boxed-and-reset must be bit-identical to a hand loop over a
        // concrete process reset per trial under the engine's seeds.
        let engine = Engine::new(8, 9, 100_000);
        let g = generators::torus(&[5, 5]);
        let boxed = outputs(engine, &g, "cobra:b2", StopWhen::Complete, |_| Completion);
        let mut cobra = Cobra::b2(&g, 0);
        let mut ctx = StepCtx::new();
        let concrete: Vec<TrialOutcome> = (0..engine.trials)
            .map(|i| {
                ctx.reseed(trial_seed(engine.master_seed, i as u64));
                cobra.reset(&g, &[0]);
                run_trial(
                    &mut cobra,
                    &mut ctx,
                    StopWhen::Complete,
                    engine.cap,
                    Completion,
                )
            })
            .collect();
        assert_eq!(boxed, concrete);
    }
}
