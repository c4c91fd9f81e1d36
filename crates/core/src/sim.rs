//! `SimSpec` — the declarative entry point for every simulation.
//!
//! Every quantitative claim in the paper has the same shape: run a
//! spreading process on a graph over many seeded trials and reduce the
//! trials to an estimand. A [`SimSpec`] captures that shape as a value
//! — and the estimand itself is a value too, the [`Objective`]:
//!
//! ```
//! use cobra::sim::SimSpec;
//!
//! // COBRA b=2 cover time on the 6-dimensional hypercube, 20 trials.
//! let spec = SimSpec::parse("hypercube:6", "cobra:b2:lazy")
//!     .unwrap()
//!     .with_trials(20);
//! let cover = spec.measure().unwrap().into_stopping().unwrap();
//! assert_eq!(cover.censored, 0);
//! assert!(cover.min >= 6.0, "cannot beat log2 n");
//!
//! // The same scenario measured through a parsed objective — partial
//! // infection to half the vertices.
//! let half = spec
//!     .with_objective("infection:0.5".parse().unwrap())
//!     .measure()
//!     .unwrap()
//!     .into_stopping()
//!     .unwrap();
//! assert_eq!(half.censored, 0);
//! assert!(half.mean <= cover.mean);
//! ```
//!
//! All three coordinates are data — [`GraphSpec`], [`ProcessSpec`], and
//! [`Objective`] parse from strings — so a scenario can come from a
//! command line (`cobra-exps run --process cobra:b2 --graph
//! hypercube:10 --objective hit:far`), a sweep axis
//! (`objective={cover,hit:far,infection:0.5}`), a config file, or code.
//! Execution always goes through [`cobra_mc::Engine`]: one trial loop,
//! one seeding scheme, one cap policy, identical results for any thread
//! count: traced and sharded runs take its sequential loop
//! ([`Engine::run_sequential`]) on the same trial seeds. Each call
//! materialises the graph once as a [`BuiltTopology`]; a borrowed graph
//! stays borrowed.
//!
//! # How an objective executes
//!
//! [`SimSpec::measure`] maps each [`Objective`] variant onto the three
//! engine ingredients it bundles:
//!
//! | objective | [`StopWhen`] | observer | reducer |
//! |-----------|--------------|----------|---------|
//! | `cover` | `Complete` | [`Completion`] | [`StoppingAccumulator`] (Welford + P²) |
//! | `hit:V` / `hit:far` | `Reached(v)` (far = BFS-farthest from the start set) | `Completion` | `StoppingAccumulator` |
//! | `infection:T` | `ReachedCount(⌈T·n⌉)` (`T = 1` ⇒ `Complete`) | `Completion` | `StoppingAccumulator` |
//! | `duality:h{..}` | `AtCap` at the max horizon (both sides) | horizon-disjointness probe | per-horizon two-proportion z |
//! | `trajectory` | `AtCap` | [`Trajectory`] (pre-reserved to the cap) | running per-round mean |
//!
//! Every objective folds its trials in trial order as they finish: the
//! stopping objectives through [`StoppingAccumulator`], duality through
//! per-horizon counts, trajectories through per-round running sums. No
//! `measure()` keeps a value per trial, so its memory is bounded by the
//! engine's fold window whatever the trial count, and so is a campaign
//! point's (`cobra_campaign::run_point`). Callers that genuinely need
//! per-trial samples (KS tests, bootstrap CIs) take the same trials
//! unfolded from [`SimSpec::outcomes`], or a custom observer's outputs
//! from [`SimSpec::run_observed`].
//!
//! Programmatic callers that already hold a [`Graph`] borrow it instead
//! of re-building: `SimSpec::new(&g, spec)`.

use crate::bounds;
use crate::duality::{duality_check, DualityConfig, DualityReport};
use cobra_graph::{
    with_topology, Backend, BuiltTopology, Graph, GraphShape, GraphSpec, GraphSpecError, Topology,
    VertexId,
};
use cobra_mc::{resolve_threads, Completion, Engine, Observer, StopWhen, Trajectory, TrialState};
use cobra_obs::{PhaseTimers, RoundSink};
use cobra_process::{per_shard_state_bytes, Branching, ProcessSpec, ProcessSpecError, StepCtx};
use std::fmt;

pub use cobra_mc::objective::{
    HitTarget, Objective, StoppingAccumulator, StoppingEstimate, OBJECTIVE_USAGES,
};
pub use cobra_mc::TrialOutcome;

/// Where the graph of a simulation comes from.
#[derive(Debug, Clone)]
pub enum GraphSource<'g> {
    /// A graph the caller already built.
    Borrowed(&'g Graph),
    /// A family spec, materialised per run (random families derive
    /// their randomness from the sim's master seed).
    Spec(GraphSpec),
}

impl<'g> From<&'g Graph> for GraphSource<'g> {
    fn from(g: &'g Graph) -> GraphSource<'g> {
        GraphSource::Borrowed(g)
    }
}

impl From<GraphSpec> for GraphSource<'static> {
    fn from(spec: GraphSpec) -> GraphSource<'static> {
        GraphSource::Spec(spec)
    }
}

/// Why a simulation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    Graph(GraphSpecError),
    Process(ProcessSpecError),
    Invalid(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Graph(e) => write!(f, "{e}"),
            SimError::Process(e) => write!(f, "{e}"),
            SimError::Invalid(m) => write!(f, "invalid sim spec: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<GraphSpecError> for SimError {
    fn from(e: GraphSpecError) -> SimError {
        SimError::Graph(e)
    }
}

impl From<ProcessSpecError> for SimError {
    fn from(e: ProcessSpecError) -> SimError {
        SimError::Process(e)
    }
}

/// The declarative simulation spec: graph × process × start × objective
/// × (trials, seed, threads, cap).
#[derive(Debug, Clone)]
pub struct SimSpec<'g> {
    pub graph: GraphSource<'g>,
    pub process: ProcessSpec,
    /// Start set (`C_0` for COBRA; single-source processes use the
    /// first entry). Defaults to `[0]`.
    pub start: Vec<VertexId>,
    pub objective: Objective,
    /// Independent Monte-Carlo trials.
    pub trials: usize,
    /// Master seed: drives trial seeds and (for random families) graph
    /// construction.
    pub master_seed: u64,
    /// Worker threads (0 = auto). Never changes results.
    pub threads: usize,
    /// Explicit per-trial round cap; `None` derives one from the
    /// paper's bounds via [`resolve_cap`].
    pub cap: Option<usize>,
    /// Graph backend selection for spec-built graphs: implicit for
    /// `complete` and `hypercube` by default ([`Backend::Auto`]), CSR for
    /// every other family; overridable to `csr` or `implicit`. Never changes results — backends are
    /// bit-identical — only the memory/speed profile. Ignored for
    /// borrowed graphs (already CSR).
    pub backend: Backend,
    /// Shard count for the partitioned trial engine. `1` (the default)
    /// runs the unsharded engine; `> 1` partitions vertex state across
    /// shards with per-shard RNG streams. **Part of the result's
    /// identity** (unlike `backend`): a different shard count is a
    /// different — equally valid — sample path, bit-reproducible for a
    /// fixed count regardless of thread count. Only `cobra`/`bips`
    /// processes and stopping objectives shard.
    pub shards: usize,
}

impl<'g> SimSpec<'g> {
    /// A spec with the workspace defaults: start `[0]`, objective
    /// `cover`, 30 trials, seed `0xC0B7A`, auto threads, derived cap,
    /// auto backend.
    pub fn new(graph: impl Into<GraphSource<'g>>, process: ProcessSpec) -> SimSpec<'g> {
        SimSpec {
            graph: graph.into(),
            process,
            start: vec![0],
            objective: Objective::Cover,
            trials: 30,
            master_seed: 0xC0B7A,
            threads: 0,
            cap: None,
            backend: Backend::Auto,
            shards: 1,
        }
    }

    /// Builds a spec entirely from strings — the CLI/config entry point.
    pub fn parse(graph: &str, process: &str) -> Result<SimSpec<'static>, SimError> {
        let graph: GraphSpec = graph.parse()?;
        let process: ProcessSpec = process.parse()?;
        Ok(SimSpec::new(graph, process))
    }

    /// Sets a single start vertex.
    pub fn with_start(mut self, v: VertexId) -> Self {
        self.start = vec![v];
        self
    }

    /// Sets the full start set.
    pub fn with_starts(mut self, starts: &[VertexId]) -> Self {
        self.start = starts.to_vec();
        self
    }

    /// Sets the objective (the estimand the trials reduce to).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Measures the hitting time of `target` instead of cover —
    /// shorthand for `with_objective(Objective::hit(target))`.
    pub fn reaching(self, target: VertexId) -> Self {
        self.with_objective(Objective::hit(target))
    }

    /// Sets the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the worker thread count (1 = sequential; results never
    /// change).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets an explicit round cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Overrides the graph backend (`auto`, `csr`, `implicit`).
    /// Results never change; `implicit` errors on every family but
    /// `complete` and `hypercube`.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the shard count (1 = the unsharded engine). Unlike the
    /// backend, this changes the sample path — see [`SimSpec::shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Materialises the backend-resolved topology every run path steps
    /// on: the borrowed CSR graph as-is, or the spec built under
    /// [`SimSpec::backend`] (implicit by default for `complete` and
    /// `hypercube` — `hypercube:24` costs bytes, not gigabytes). Random
    /// families are seeded from the master seed, so a spec denotes one
    /// concrete graph.
    pub fn topology(&self) -> Result<BuiltTopology<'g>, SimError> {
        match &self.graph {
            GraphSource::Borrowed(g) => Ok(BuiltTopology::Borrowed(g)),
            GraphSource::Spec(spec) => {
                Ok(spec.build_topology(graph_seed(self.master_seed), self.backend)?)
            }
        }
    }

    /// Validates the spec against its materialised graph (any
    /// backend): at least one trial, a non-empty in-range start set, a
    /// connected graph for the full-reach objectives, no isolated start
    /// vertex, then the objective's own termination checks (`hit:`
    /// target in range, `hit:far` reachable, threshold in range). Every
    /// run path calls this; external drivers (the CLI's `--dry-run`) can
    /// call it to reject a spec without running a round.
    pub fn check<T: Topology>(&self, g: &T) -> Result<(), SimError> {
        if self.start.is_empty() {
            return Err(SimError::Invalid("start set is empty".into()));
        }
        if self.trials == 0 {
            return Err(SimError::Invalid("trials must be >= 1".into()));
        }
        self.check_sharding()?;
        let spec = match &self.graph {
            GraphSource::Spec(spec) => Some(spec),
            GraphSource::Borrowed(_) => None,
        };
        self.objective
            .check_graph(spec, g, &self.start)
            .map_err(SimError::Invalid)
    }

    /// Validates the shard configuration (graph-independent): positive
    /// count; for `shards > 1`, a shardable process, a single start
    /// vertex, and a stopping objective.
    fn check_sharding(&self) -> Result<(), SimError> {
        if self.shards == 0 {
            return Err(SimError::Invalid(
                "shards must be >= 1 (1 = the unsharded engine)".into(),
            ));
        }
        if self.shards == 1 {
            return Ok(());
        }
        if !self.process.is_shardable() {
            return Err(SimError::Invalid(format!(
                "process \"{}\" does not shard — the sharded engine partitions \
                 set-valued vertex state (shardable processes: cobra, bips); \
                 drop shards= or use shards=1",
                self.process
            )));
        }
        if self.start.len() != 1 {
            return Err(SimError::Invalid(format!(
                "sharded runs take a single start vertex (got {} starts)",
                self.start.len()
            )));
        }
        if !self.objective.is_sweepable() {
            return Err(SimError::Invalid(format!(
                "objective \"{}\" cannot run sharded — only the stopping \
                 objectives (cover, hit:*, infection:*) do; use shards=1",
                self.objective
            )));
        }
        Ok(())
    }

    /// Runs the spec's stopping trials on an already-checked graph,
    /// folding each outcome in trial order: over the engine's threads,
    /// or through its sequential loop when sharded (the shards are the
    /// parallelism) or traced (one `&mut` sink). Returns the cap and, with
    /// `time_phases`, the aggregated phase timers.
    fn run_stopping<T: Topology + Sync>(
        &self,
        g: &T,
        sink: Option<&mut dyn RoundSink>,
        time_phases: bool,
        fold: impl FnMut(TrialOutcome),
    ) -> Result<(usize, Option<Box<PhaseTimers>>), SimError> {
        let stop = self
            .objective
            .stop_when(g, &self.start)
            .map_err(SimError::Invalid)?;
        let engine = self.engine(g);
        if self.shards == 1 && sink.is_none() {
            engine.run_spec(g, &self.process, &self.start, stop, |_| Completion, fold);
            return Ok((engine.cap, None));
        }
        let mut ctx = StepCtx::new();
        let threads = resolve_threads(self.threads);
        let mut state = TrialState::new(
            g,
            &self.process,
            &self.start,
            self.shards,
            threads,
            &mut ctx,
        );
        if sink.is_some() {
            state.instrument(time_phases);
        }
        engine.run_sequential(&mut state, stop, None, sink, fold);
        Ok((engine.cap, state.timers().cloned().map(Box::new)))
    }

    /// The engine this spec resolves to, given its materialised graph
    /// (any backend).
    pub fn engine<T: Topology>(&self, g: &T) -> Engine {
        Engine::new(
            self.trials,
            self.master_seed,
            resolve_cap(g, &self.process, self.cap),
        )
        .with_threads(self.threads)
    }

    /// The per-trial samples behind [`SimSpec::measure`]: the same
    /// stopping trials (objective, shards, backend and threads
    /// included), returned unfolded in trial order. `rounds` is the
    /// stopping time (`None` when censored at the cap) and `executed`
    /// the rounds run — what KS tests and bootstrap CIs consume. Only
    /// the stopping objectives (`cover`, `hit:*`, `infection:*`) have
    /// per-trial samples.
    pub fn outcomes(&self) -> Result<Vec<TrialOutcome>, SimError> {
        let topo = self.topology()?;
        with_topology!(&topo, |g| {
            self.check(g)?;
            if !self.objective.is_sweepable() {
                return Err(SimError::Invalid(format!(
                    "objective \"{}\" has no per-trial samples; use SimSpec::measure()",
                    self.objective
                )));
            }
            let mut outcomes = Vec::new();
            self.run_stopping(g, None, false, |o| outcomes.push(o))?;
            Ok(outcomes)
        })
    }

    /// The unified measurement path: resolves the objective to its
    /// stop condition, observer, and reducer (see the module docs for
    /// the mapping) and returns the objective-shaped [`Measurement`].
    ///
    /// Stopping objectives fold their trials through a streaming
    /// [`StoppingAccumulator`] in trial order — bit-identical to
    /// [`SimSpec::outcomes`] folded through the same reducer, whatever
    /// the thread count.
    pub fn measure(&self) -> Result<Measurement, SimError> {
        let topo = self.topology()?;
        with_topology!(&topo, |g| self.measure_on(g))
    }

    fn measure_on<T: Topology + Sync>(&self, g: &T) -> Result<Measurement, SimError> {
        self.check(g)?;
        match &self.objective {
            Objective::Cover | Objective::Hit(_) | Objective::Infection { .. } => {
                let mut acc = StoppingAccumulator::new();
                let (cap, _) = self.run_stopping(g, None, false, |o| acc.push(&o))?;
                Ok(Measurement::Stopping(acc.finish(cap)))
            }
            Objective::Duality { horizons } => {
                // The duality identity relates a COBRA hitting time to a
                // BIPS infection overlap: the spec contributes its
                // branching factor (from a cobra/bips process), its
                // start set as `C`, and the BFS-farthest vertex as the
                // source `v`.
                let branching = match &self.process {
                    ProcessSpec::Cobra { branching, .. } | ProcessSpec::Bips { branching, .. } => {
                        *branching
                    }
                    other => {
                        return Err(SimError::Invalid(format!(
                            "objective \"{}\" needs a cobra or bips process \
                             (got \"{other}\"): the duality identity is about \
                             branching processes",
                            self.objective
                        )));
                    }
                };
                let source = self
                    .objective
                    .resolve_hit(g, &self.start, HitTarget::Far)
                    .map_err(SimError::Invalid)?;
                let cfg = DualityConfig {
                    branching,
                    trials: self.trials,
                    horizons: horizons.clone(),
                    master_seed: self.master_seed,
                    threads: self.threads,
                };
                Ok(Measurement::Duality(duality_check(
                    g,
                    source,
                    &self.start,
                    &cfg,
                )))
            }
            Objective::Trajectory => {
                let rounds = self.cap.unwrap_or_else(|| {
                    // A full derived cap makes an absurdly long curve;
                    // default to something trajectory-sized instead.
                    4 * g.n().max(2)
                });
                Ok(Measurement::Trajectory(TrajectoryEstimate {
                    mean_sizes: self.trajectory_with(g, rounds),
                    trials: self.trials,
                }))
            }
        }
    }

    /// [`SimSpec::measure`] with telemetry attached: every executed
    /// round is delivered to `sink` as a per-round record (frontier
    /// size, newly covered vertices, transmissions, coalesced picks,
    /// and — sharded — per-shard outbox traffic), followed by one
    /// totals record per trial. With `time_phases`, kernels also lap
    /// their round phases into log2 histograms, surfaced per trial via
    /// [`RoundSink::on_trial_phases`] and returned aggregated.
    ///
    /// Probes are observe-only (they never draw from the trial RNG and
    /// run after each `step` commits), so the returned [`Measurement`]
    /// is **bit-identical** to [`SimSpec::measure`] — pinned across all
    /// golden families by `tests/probe_identity.rs`. Trials run
    /// sequentially (one dynamic sink), so tracing trades wall-clock
    /// for visibility; only the stopping objectives (`cover`, `hit:*`,
    /// `infection:*`) can be traced.
    pub fn measure_traced(
        &self,
        sink: &mut dyn RoundSink,
        time_phases: bool,
    ) -> Result<(Measurement, Option<Box<PhaseTimers>>), SimError> {
        let topo = self.topology()?;
        with_topology!(&topo, |g| self.measure_traced_on(g, sink, time_phases))
    }

    fn measure_traced_on<T: Topology + Sync>(
        &self,
        g: &T,
        sink: &mut dyn RoundSink,
        time_phases: bool,
    ) -> Result<(Measurement, Option<Box<PhaseTimers>>), SimError> {
        self.check(g)?;
        if !self.objective.is_sweepable() {
            return Err(SimError::Invalid(format!(
                "objective \"{}\" cannot be traced — per-round probes attach \
                 to the stopping objectives (cover, hit:*, infection:*)",
                self.objective
            )));
        }
        let mut acc = StoppingAccumulator::new();
        let (cap, timers) = self.run_stopping(g, Some(sink), time_phases, |o| acc.push(&o))?;
        Ok((Measurement::Stopping(acc.finish(cap)), timers))
    }

    /// Resolves everything a trial would see — backend, sizes, stop
    /// condition, cap — without running a round, rejecting specs that
    /// cannot terminate. The `--dry-run`/`--verbose` CLI paths print
    /// this; for implicit backends it never materialises an edge, so a
    /// `hypercube:24` dry run costs bytes.
    pub fn resolve(&self) -> Result<ResolvedRun, SimError> {
        let topo = self.topology()?;
        with_topology!(&topo, |g| {
            self.check(g)?;
            let stop = self
                .objective
                .stop_when(g, &self.start)
                .map_err(SimError::Invalid)?;
            Ok(ResolvedRun {
                n: g.n(),
                m: g.m(),
                backend: topo.backend_name(),
                graph_bytes: g.memory_bytes(),
                stop,
                cap: resolve_cap(g, &self.process, self.cap),
                explicit_cap: self.cap.is_some(),
                shards: self.shards,
                shard_state_bytes: self
                    .process
                    .shard_kernel()
                    .map(|kernel| per_shard_state_bytes(g.n(), self.shards, kernel)),
            })
        })
    }

    /// Runs with a custom per-trial [`Observer`] and an explicit stop
    /// condition — the escape hatch composite estimators (duality,
    /// trajectories) are built from. All trial-loop mechanics still
    /// live in the engine. Observers read the unsharded
    /// [`ProcessView`](cobra_process::ProcessView), so `shards > 1` is
    /// rejected.
    pub fn run_observed<Ob, G>(
        &self,
        stop: StopWhen,
        make_observer: G,
    ) -> Result<Vec<Ob::Output>, SimError>
    where
        Ob: Observer,
        G: Fn(usize) -> Ob + Sync,
        Ob::Output: Send,
    {
        let topo = self.topology()?;
        with_topology!(&topo, |g| {
            self.check(g)?;
            if self.shards > 1 {
                return Err(SimError::Invalid(format!(
                    "custom observers run on the unsharded engine (got shards={}); \
                     use shards=1",
                    self.shards
                )));
            }
            let (engine, mut outputs) = (self.engine(g), Vec::new());
            engine.run_spec(g, &self.process, &self.start, stop, make_observer, |o| {
                outputs.push(o)
            });
            Ok(outputs)
        })
    }

    /// Mean reached-set-size trajectory over `rounds` rounds: entry `t`
    /// is the Monte-Carlo mean of the reached count after `t` rounds,
    /// summed in trial order.
    fn trajectory_with<T: Topology + Sync>(&self, g: &T, rounds: usize) -> Vec<f64> {
        let engine = Engine::new(self.trials, self.master_seed, rounds).with_threads(self.threads);
        let observer = |_| Trajectory::with_capacity(rounds);
        let mut sums = vec![0.0; rounds + 1];
        let add = |sizes: Vec<usize>| {
            for (sum, size) in sums.iter_mut().zip(sizes) {
                *sum += size as f64;
            }
        };
        let stop = StopWhen::AtCap;
        engine.run_spec(g, &self.process, &self.start, stop, observer, add);
        let trials = self.trials.max(1) as f64;
        sums.into_iter().map(|sum| sum / trials).collect()
    }
}

/// The fully-resolved scenario of a [`SimSpec`] — what a dry run
/// prints (see [`SimSpec::resolve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedRun {
    /// Vertices of the materialised graph.
    pub n: usize,
    /// Undirected edges.
    pub m: usize,
    /// `"csr"` (generated families and every `file:` graph) or
    /// `"implicit"`.
    pub backend: &'static str,
    /// Approximate resident bytes of the graph representation.
    pub graph_bytes: usize,
    /// The resolved engine stop condition.
    pub stop: StopWhen,
    /// The per-trial round cap in force.
    pub cap: usize,
    /// True when the cap was given explicitly (vs derived from the
    /// paper's bounds).
    pub explicit_cap: bool,
    /// Shard count of the partitioned engine (1 = unsharded).
    pub shards: usize,
    /// Resident vertex-state bytes *per shard* (COBRA: visited,
    /// frontier and next bitsets; BIPS: frontier, next and candidate
    /// bitsets plus a `u32` counter per vertex) — what to budget
    /// alongside [`ResolvedRun::graph_bytes`] when planning a
    /// `hypercube:30`-scale run. `None` for processes that do not shard.
    pub shard_state_bytes: Option<usize>,
}

/// The objective-shaped result of [`SimSpec::measure`].
#[derive(Debug, Clone, PartialEq)]
pub enum Measurement {
    /// `cover` / `hit:*` / `infection:*`: a streamed stopping-time
    /// summary (no sample vector).
    Stopping(StoppingEstimate),
    /// `duality:h{..}`: the two-sided Theorem 1.3 comparison.
    Duality(DualityReport),
    /// `trajectory`: the mean reached-set-size curve.
    Trajectory(TrajectoryEstimate),
}

impl Measurement {
    /// The stopping-time summary, if this measurement has one.
    pub fn into_stopping(self) -> Option<StoppingEstimate> {
        match self {
            Measurement::Stopping(est) => Some(est),
            _ => None,
        }
    }

    /// The duality report, if this measurement has one.
    pub fn into_duality(self) -> Option<DualityReport> {
        match self {
            Measurement::Duality(report) => Some(report),
            _ => None,
        }
    }

    /// The trajectory estimate, if this measurement has one.
    pub fn into_trajectory(self) -> Option<TrajectoryEstimate> {
        match self {
            Measurement::Trajectory(traj) => Some(traj),
            _ => None,
        }
    }
}

/// Mean reached-set-size curve over the round budget.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEstimate {
    /// Entry `t` is the Monte-Carlo mean reached count after `t`
    /// rounds.
    pub mean_sizes: Vec<f64>,
    /// Trials averaged.
    pub trials: usize,
}

/// The graph-construction seed for a master seed (kept distinct from
/// trial seeds so graph sampling never correlates with trial noise).
pub fn graph_seed(master_seed: u64) -> u64 {
    master_seed ^ 0x6AF5_EED0_6AF5_EED0
}

/// The per-trial round cap for `process` on `g`: explicit if given,
/// otherwise derived from the paper's bounds.
///
/// * Walk-like processes (`rw`, `walks:K`, `coalescing:K`, `cobra:b1`,
///   `bips:b1`) get `32·n·m + 10 000`: the expected cover time of a
///   random walk is at most `2·n·m` (Aleliunas et al.), so by Markov
///   each window of `4·n·m` rounds completes with probability ≥ ½ and
///   the cap spans 8 such windows — censoring probability at most
///   `2⁻⁸` per trial, far below the trial counts in use.
/// * Branching processes get `500×` the Theorem 1.1 bound, divided by
///   `ρ²` for fractional branching `1 + ρ` (the §6 scaling), plus
///   additive slack for small graphs.
pub fn resolve_cap<T: Topology>(g: &T, process: &ProcessSpec, explicit: Option<usize>) -> usize {
    resolve_cap_shape(g.shape(), process, explicit)
}

/// [`resolve_cap`] from a bare [`GraphShape`] — the form cap policies
/// that cannot be generic (e.g. the campaign's `dyn Fn` policy slot)
/// consume.
pub fn resolve_cap_shape(
    shape: GraphShape,
    process: &ProcessSpec,
    explicit: Option<usize>,
) -> usize {
    if let Some(c) = explicit {
        return c;
    }
    let n = shape.n.max(2);
    if process.is_walk_like() {
        return 32 * n * shape.m.max(1) + 10_000;
    }
    let base = bounds::thm_1_1(n, shape.m, shape.max_degree);
    let rho_penalty = match process {
        ProcessSpec::Cobra {
            branching: Branching::Expected(rho),
            ..
        }
        | ProcessSpec::Bips {
            branching: Branching::Expected(rho),
            ..
        } => 1.0 / (rho * rho),
        _ => 1.0,
    };
    (500.0 * base * rho_penalty) as usize + 10_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use proptest::prelude::*;

    /// `outcomes()` folded through the reducer `measure()` uses, under
    /// the spec's resolved cap.
    fn folded(spec: &SimSpec<'_>) -> StoppingEstimate {
        let mut acc = StoppingAccumulator::new();
        spec.outcomes().unwrap().iter().for_each(|o| acc.push(o));
        acc.finish(spec.resolve().unwrap().cap)
    }

    #[test]
    fn parse_run_covers_complete_graph() {
        let est = SimSpec::parse("complete:64", "cobra:b2")
            .unwrap()
            .with_trials(15)
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        assert_eq!(est.censored, 0);
        assert!(
            est.mean >= 5.0 && est.mean <= 60.0,
            "K_64 mean cover {}",
            est.mean
        );
        assert_eq!(est.mean_reached, 64.0);
        assert!(est.mean_transmissions > 0.0);
    }

    #[test]
    fn borrowed_and_spec_graphs_agree() {
        // A deterministic family gives identical results whether the
        // caller builds the graph or the spec does.
        let g = generators::torus(&[5, 5]);
        let borrowed = SimSpec::new(&g, ProcessSpec::COBRA_B2)
            .with_trials(8)
            .outcomes()
            .unwrap();
        let speced = SimSpec::parse("torus:5x5", "cobra:b2")
            .unwrap()
            .with_trials(8)
            .outcomes()
            .unwrap();
        assert_eq!(borrowed, speced);
    }

    #[test]
    fn threads_do_not_change_the_estimate() {
        let spec = SimSpec::parse("cycle:32", "cobra:b2")
            .unwrap()
            .with_trials(12);
        let seq = spec.clone().with_threads(1).outcomes().unwrap();
        let par = spec.clone().with_threads(8).outcomes().unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn hitting_objective_reports_distance_consistent_times() {
        let hit = |starts: &[VertexId], target| {
            SimSpec::parse("cycle:24", "cobra:b2")
                .unwrap()
                .with_starts(starts)
                .reaching(target)
                .with_trials(10)
                .outcomes()
                .unwrap()
        };
        let far = hit(&[0], 12);
        assert!(far.iter().all(|o| o.rounds >= Some(12)), "{far:?}");
        // A target inside the start set is hit at round 0.
        assert!(hit(&[2, 7], 7).iter().all(|o| o.rounds == Some(0)));
    }

    #[test]
    fn explicit_cap_censors() {
        let spec = SimSpec::parse("path:128", "cobra:b2")
            .unwrap()
            .with_trials(5)
            .with_cap(3);
        let outcomes = spec.outcomes().unwrap();
        assert!(outcomes
            .iter()
            .all(|o| o.rounds.is_none() && o.executed == 3));
        let est = spec.measure().unwrap().into_stopping().unwrap();
        assert_eq!((est.censored, est.cap), (5, 3));
        assert_eq!(est.completion_rate(), 0.0);
    }

    #[test]
    fn invalid_specs_surface_errors_not_panics() {
        assert!(SimSpec::parse("nope:1", "cobra:b2").is_err());
        assert!(SimSpec::parse("cycle:8", "warp:9").is_err());
        let bad_start = SimSpec::parse("cycle:8", "cobra:b2")
            .unwrap()
            .with_start(99);
        assert!(matches!(bad_start.outcomes(), Err(SimError::Invalid(_))));
        let bad_target = SimSpec::parse("cycle:8", "cobra:b2").unwrap().reaching(99);
        assert!(matches!(bad_target.outcomes(), Err(SimError::Invalid(_))));
        let no_trials = SimSpec::parse("cycle:8", "cobra:b2")
            .unwrap()
            .with_trials(0)
            .measure()
            .unwrap_err();
        assert_eq!(
            no_trials.to_string(),
            "invalid sim spec: trials must be >= 1"
        );
    }

    #[test]
    fn walk_cap_derivation_is_nm_scaled() {
        let walk: ProcessSpec = "rw".parse().unwrap();
        let b2: ProcessSpec = "cobra:b2".parse().unwrap();
        let b1: ProcessSpec = "cobra:b1".parse().unwrap();
        for n in [24, 64] {
            let g = generators::cycle(n);
            let walk_cap = resolve_cap(&g, &walk, None);
            assert_eq!(walk_cap, 32 * g.n() * g.m() + 10_000);
            // b=1 COBRA *is* a random walk: identical cap derivation.
            assert_eq!(resolve_cap(&g, &b1, None), walk_cap);
            // The walk cap covers the Θ(n·m) regime...
            assert!(walk_cap >= 2 * g.n() * g.m());
            // ...and an explicit cap always wins.
            assert_eq!(resolve_cap(&g, &walk, Some(77)), 77);
            assert_eq!(resolve_cap(&g, &b2, Some(77)), 77);
            // b=2 uses the (smaller) Theorem 1.1-shaped cap instead.
            assert!(resolve_cap(&g, &b2, None) < walk_cap);
        }
    }

    #[test]
    fn trajectory_grows_to_n() {
        let traj = SimSpec::parse("complete:64", "bips:b2")
            .unwrap()
            .with_trials(10)
            .with_cap(40)
            .with_objective(Objective::Trajectory)
            .measure()
            .unwrap()
            .into_trajectory()
            .unwrap()
            .mean_sizes;
        assert_eq!(traj.len(), 41);
        assert_eq!(traj[0], 1.0);
        assert!(traj[40] > 60.0, "mean final size {}", traj[40]);
    }

    #[test]
    fn measure_streams_the_same_fold_as_the_sample_path() {
        for objective in ["cover", "hit:far", "hit:12", "infection:0.5", "infection:1"] {
            let spec = SimSpec::parse("cycle:24", "cobra:b2")
                .unwrap()
                .with_trials(12)
                .with_objective(objective.parse().unwrap());
            let streamed = spec.measure().unwrap().into_stopping().unwrap();
            assert_eq!(streamed, folded(&spec), "{objective}: paths diverged");
        }
    }

    #[test]
    fn infection_one_is_cover_bit_for_bit() {
        let base = SimSpec::parse("hypercube:5", "bips:b2")
            .unwrap()
            .with_trials(10);
        let cover = base.clone().measure().unwrap().into_stopping().unwrap();
        let full = base
            .clone()
            .with_objective("infection:1".parse().unwrap())
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        assert_eq!(cover, full);
    }

    #[test]
    fn infection_threshold_orders_means() {
        let spec = |process: &str, t: &str| {
            SimSpec::parse("complete:64", process)
                .unwrap()
                .with_trials(12)
                .with_objective(t.parse().unwrap())
                .measure()
                .unwrap()
                .into_stopping()
                .unwrap()
        };
        let quarter = spec("bips:b2", "infection:0.25");
        let half = spec("bips:b2", "infection:0.5");
        let full = spec("bips:b2", "infection:1");
        assert!(quarter.mean <= half.mean && half.mean <= full.mean);
        assert_eq!(full.censored, 0);
        // Fractional branching 1 + ρ infects more slowly than b = 2.
        let slow = spec("bips:rho0.2", "infection:1");
        assert!(slow.mean > full.mean, "{} vs {}", slow.mean, full.mean);
    }

    #[test]
    fn hit_far_resolves_to_the_bfs_farthest_vertex() {
        // On a path from vertex 0, `hit:far` is the other endpoint.
        let far = SimSpec::parse("path:32", "cobra:b2")
            .unwrap()
            .with_trials(6)
            .with_objective("hit:far".parse().unwrap())
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        let explicit = SimSpec::parse("path:32", "cobra:b2")
            .unwrap()
            .with_trials(6)
            .reaching(31)
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        assert_eq!(far, explicit);
        assert!(far.min >= 31.0, "path distance is a hard lower bound");
    }

    #[test]
    fn duality_objective_matches_the_direct_check() {
        use crate::duality::{duality_check, DualityConfig};
        let spec = SimSpec::parse("petersen", "cobra:b2")
            .unwrap()
            .with_start(3)
            .with_trials(400)
            .with_objective("duality:h{0,1,2,3}".parse().unwrap());
        let via_objective = spec.measure().unwrap().into_duality().unwrap();
        let g = generators::petersen();
        let (source, _) = cobra_graph::props::farthest_vertex(&g, &[3]).unwrap();
        let direct = duality_check(
            &g,
            source,
            &[3],
            &DualityConfig {
                branching: cobra_process::Branching::B2,
                trials: 400,
                horizons: vec![0, 1, 2, 3],
                master_seed: 0xC0B7A,
                threads: 0,
            },
        );
        assert_eq!(via_objective.trials, direct.trials);
        for (a, b) in via_objective.rows.iter().zip(&direct.rows) {
            assert_eq!(
                (a.t, a.cobra_side, a.bips_side),
                (b.t, b.cobra_side, b.bips_side)
            );
        }
        assert!(via_objective.max_abs_z() < 4.5);
    }

    #[test]
    fn duality_objective_requires_a_branching_process() {
        let err = SimSpec::parse("petersen", "rw")
            .unwrap()
            .with_objective("duality:h{2}".parse().unwrap())
            .measure()
            .unwrap_err();
        assert!(
            err.to_string().contains("cobra or bips"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn trajectory_objective_reports_the_mean_curve() {
        let spec = SimSpec::parse("complete:64", "bips:b2")
            .unwrap()
            .with_trials(10)
            .with_cap(40)
            .with_objective(Objective::Trajectory);
        let traj = spec.measure().unwrap().into_trajectory().unwrap();
        assert_eq!(traj.trials, 10);
        // The same curve averaged by hand from the raw observer path.
        let curves = spec
            .run_observed(StopWhen::AtCap, |_| Trajectory::with_capacity(40))
            .unwrap();
        let by_hand: Vec<f64> = (0..=40)
            .map(|t| curves.iter().map(|c| c[t] as f64).sum::<f64>() / 10.0)
            .collect();
        assert_eq!(traj.mean_sizes, by_hand);
        assert_eq!(traj.mean_sizes[0], 1.0);
    }

    #[test]
    fn non_stopping_objectives_reject_the_sample_path() {
        let err = SimSpec::parse("petersen", "cobra:b2")
            .unwrap()
            .with_objective(Objective::Trajectory)
            .outcomes()
            .unwrap_err();
        assert!(err.to_string().contains("measure"), "{err}");
    }

    proptest! {
        /// `FromStr`/`Display` is an exact round trip over every
        /// objective variant.
        #[test]
        fn objective_display_parse_round_trips(
            variant in 0usize..6,
            v in 0u32..10_000,
            threshold_milli in 1u32..1001,
            horizons in proptest::collection::vec(0usize..10_000, 1..6),
        ) {
            let objective = match variant {
                0 => Objective::Cover,
                1 => Objective::hit(v),
                2 => Objective::Hit(HitTarget::Far),
                3 => Objective::Infection { threshold: threshold_milli as f64 / 1000.0 },
                4 => {
                    let mut hs = horizons.clone();
                    hs.sort_unstable();
                    Objective::Duality { horizons: hs }
                }
                _ => Objective::Trajectory,
            };
            let text = objective.to_string();
            let back: Objective = text.parse().expect("canonical display parses");
            prop_assert_eq!(&back, &objective, "{} did not round-trip", text);
            prop_assert_eq!(back.to_string(), text);
        }
    }

    #[test]
    fn sharded_runs_are_reproducible_and_thread_invariant() {
        let spec = SimSpec::parse("hypercube:8", "cobra:b2")
            .unwrap()
            .with_trials(6)
            .with_shards(4);
        let seq = spec.clone().with_threads(1).outcomes().unwrap();
        let par = spec.clone().with_threads(8).outcomes().unwrap();
        assert_eq!(seq, par, "thread count changed a sharded result");
        let again = spec.clone().with_threads(1).outcomes().unwrap();
        assert_eq!(seq, again, "sharded rerun diverged");
        assert!(seq.iter().all(|o| o.rounds.is_some() && o.reached == 256));
        // The streaming measure() path agrees with the sample path.
        let streamed = spec.measure().unwrap().into_stopping().unwrap();
        assert_eq!(streamed, folded(&spec));
    }

    #[test]
    fn shard_count_changes_the_sample_path() {
        let run = |shards| {
            SimSpec::parse("hypercube:9", "cobra:b2")
                .unwrap()
                .with_trials(4)
                .with_shards(shards)
                .outcomes()
                .unwrap()
        };
        assert_ne!(
            run(2),
            run(4),
            "independent shard streams should not collide"
        );
    }

    #[test]
    fn sharded_spec_validation_names_the_offender() {
        let err = SimSpec::parse("cycle:16", "rw")
            .unwrap()
            .with_shards(4)
            .outcomes()
            .unwrap_err();
        assert!(err.to_string().contains("cobra, bips"), "{err}");
        let err = SimSpec::parse("cycle:16", "cobra:b2")
            .unwrap()
            .with_shards(2)
            .with_objective(Objective::Trajectory)
            .measure()
            .unwrap_err();
        assert!(err.to_string().contains("shards=1"), "{err}");
        let err = SimSpec::parse("cycle:16", "cobra:b2")
            .unwrap()
            .with_shards(0)
            .outcomes()
            .unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");
    }

    #[test]
    fn run_observed_rejects_sharded_specs() {
        // `check` accepts the sharded cover spec; the observer path must
        // still refuse it rather than silently run unsharded.
        let spec = SimSpec::parse("hypercube:6", "cobra:b2")
            .unwrap()
            .with_trials(2)
            .with_shards(4);
        assert!(spec.outcomes().is_ok());
        let err = spec
            .run_observed(StopWhen::Complete, |_| Completion)
            .unwrap_err();
        assert!(err.to_string().contains("shards=1"), "{err}");
    }

    #[test]
    fn disconnected_random_graphs_are_rejected_not_run() {
        // gnp:100:0.001 has ~5 edges: vertex 0 is isolated and the
        // graph has ~95 components.
        let sparse = |objective: &str| {
            SimSpec::parse("gnp:100:0.001", "cobra:b2")
                .unwrap()
                .with_trials(2)
                .with_objective(objective.parse().unwrap())
        };
        for objective in ["cover", "hit:far"] {
            let err = sparse(objective).measure().unwrap_err();
            assert!(err.to_string().contains("connected components"), "{err}");
        }
        // Objectives that need no full reach still refuse an isolated
        // start vertex instead of panicking in the kernel.
        for objective in ["hit:1", "infection:0.5"] {
            let err = sparse(objective).outcomes().unwrap_err();
            assert!(err.to_string().contains("isolated"), "{err}");
        }
    }

    #[test]
    fn resolve_reports_per_shard_state_bytes() {
        let r = SimSpec::parse("hypercube:20", "cobra:b2")
            .unwrap()
            .with_shards(8)
            .resolve()
            .unwrap();
        assert_eq!(r.shards, 8);
        // span = 2^20/8 = 2^17 local vertices → 16 KiB per bitset, ×3.
        assert_eq!(r.shard_state_bytes, Some(3 * (1 << 14)));
        let unsharded = SimSpec::parse("hypercube:20", "cobra:b2")
            .unwrap()
            .resolve()
            .unwrap();
        assert_eq!(unsharded.shards, 1);
        assert_eq!(unsharded.shard_state_bytes, Some(3 * (1 << 17)));
        // BIPS adds a u32 `d_A` counter per local vertex.
        let bips = SimSpec::parse("hypercube:20", "bips:b2")
            .unwrap()
            .with_shards(8)
            .resolve()
            .unwrap();
        assert_eq!(bips.shard_state_bytes, Some(3 * (1 << 14) + 4 * (1 << 17)));
        let walk = SimSpec::parse("hypercube:20", "rw")
            .unwrap()
            .resolve()
            .unwrap();
        assert_eq!(walk.shard_state_bytes, None, "walks do not shard");
    }

    #[test]
    fn disconnected_file_graphs_reject_full_reach_objectives() {
        let dir = std::env::temp_dir().join(format!("cobra-sim-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disconnected-check.txt");
        // Triangle {0,1,2} plus the far edge {3,4}.
        std::fs::write(&path, "0 1\n1 2\n0 2\n3 4\n").unwrap();
        let spec = format!("file:{}", path.display());

        for objective in ["cover", "hit:far"] {
            let err = SimSpec::parse(&spec, "cobra:b2")
                .unwrap()
                .with_objective(objective.parse().unwrap())
                .measure()
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("2 connected components")
                    && msg.contains("60.0%")
                    && msg.contains("component=giant"),
                "{objective}: {msg}"
            );
        }

        // Objectives that can terminate inside one component still run.
        let est = SimSpec::parse(&spec, "cobra:b2")
            .unwrap()
            .with_trials(4)
            .reaching(2)
            .outcomes()
            .unwrap();
        assert!(est.iter().all(|o| o.rounds.is_some()));

        // The giant modifier restricts to the triangle and cover works.
        let giant = format!("file:{}?component=giant", path.display());
        let est = SimSpec::parse(&giant, "cobra:b2")
            .unwrap()
            .with_trials(4)
            .outcomes()
            .unwrap();
        assert!(est.iter().all(|o| o.rounds.is_some() && o.reached == 3));
    }

    #[test]
    fn random_graph_spec_is_reproducible() {
        let spec = SimSpec::parse("gnp:64:0.2", "cobra:b2")
            .unwrap()
            .with_trials(6);
        let a = spec.outcomes().unwrap();
        let b = spec.outcomes().unwrap();
        assert_eq!(a, b);
        // A different master seed samples a different graph.
        let c = spec.clone().with_seed(99).outcomes().unwrap();
        assert_ne!(a, c);
    }
}
