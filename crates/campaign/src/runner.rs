//! Sweep planning and execution: expand → skip cached → run → persist.
//!
//! A sweep run is a plan (every point resolved, graphs memoized, caps
//! fixed, keys derived) submitted to a private [`Scheduler`] — the same
//! dedup scheduler the `cobra-serve` daemon shares across campaigns —
//! and drained by scoped workers running [`Scheduler::work`] under a
//! cancel flag, with one lifecycle event per point. [`run_sweep`],
//! [`run_sweep_with_progress`] and [`run_sweep_watched`] are views of
//! that one submission. Each worker thread owns one long-lived
//! [`StepCtx`] reused across every job it executes; within a job the
//! process is built once and reset per trial, so the zero-allocation
//! steady state of the engine extends across whole campaign points. Each finished record is appended (and
//! flushed) to the store immediately, which is what makes a killed
//! campaign resumable.
//!
//! Determinism: a point's trials are seeded `trial_seed(point.seed, i)`
//! with `point.seed` derived from the point's content key — never from
//! scheduling. Per-point results are therefore bit-identical whatever
//! the thread count, whichever points are cached, and however the grid
//! around them changes. (The equivalence with `Engine::run_spec` under
//! `master_seed = point.seed` is pinned by tests.)

use crate::cache::GraphMemo;
use crate::point::SweepPoint;
use crate::scheduler::{JobError, Scheduler, Subscriber};
use crate::store::{PointRecord, PointTiming, SharedStore, Store};
use crate::sweep::SweepSpec;
use crate::CampaignError;
use cobra_graph::{with_topology, BuiltTopology, GraphShape, GraphSpec, Topology};
use cobra_mc::{
    key_seed, resolve_threads, CancelToken, Completion, Engine, StoppingAccumulator, TrialState,
};
use cobra_process::{ProcessSpec, StepCtx};
use cobra_stats::streaming::StreamingSummary;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How a point with no explicit cap resolves one, given its graph's
/// size parameters. The CLI injects the paper-bound policy from
/// `cobra::sim::resolve_cap_shape`; [`default_cap`] is the standalone
/// fallback. Shape-based (not graph-based) so one object-safe policy
/// serves every backend.
pub type CapPolicy<'a> = &'a (dyn Fn(GraphShape, &ProcessSpec) -> usize + Sync);

/// The standalone cap fallback: the random-walk-regime bound
/// `32·n·m + 10 000`, which dominates every process family's expected
/// completion time (branching processes finish much earlier).
pub fn default_cap(shape: GraphShape, _process: &ProcessSpec) -> usize {
    32 * shape.n.max(2) * shape.m.max(1) + 10_000
}

/// One fully-resolved point plus its graph: a plan-shared CSR graph
/// ([`BuiltTopology::Csr`], one `Arc` for every point on the graph,
/// `file:` specs included) or an implicit topology (a few bytes of
/// parameters).
#[derive(Debug, Clone)]
pub struct PlannedPoint {
    pub point: SweepPoint,
    pub topology: BuiltTopology<'static>,
}

/// The resolved expansion of a sweep against a store.
#[derive(Debug)]
pub struct Plan {
    /// Every point, in expansion order (graph-major).
    pub points: Vec<PlannedPoint>,
    /// Indices into `points` that the store already holds.
    pub cached: Vec<usize>,
    /// Indices into `points` that must be computed (distinct content
    /// keys only — duplicates in the expansion schedule one job).
    pub missing: Vec<usize>,
    /// Indices whose content key equals an earlier point in this plan
    /// (e.g. overlapping ranges like `cycle:{8..10}|cycle:{9..11}`);
    /// they are served by that point's record, never recomputed.
    pub duplicates: Vec<usize>,
    /// Distinct graphs materialised (memoization across points).
    pub distinct_graphs: usize,
    /// How graph materialisation behaved while resolving this plan.
    pub cache_stats: PlanCacheStats,
}

/// The plan's graph accounting, surfaced so `--dry-run` and
/// `--metrics` can show what graph construction cost instead of hiding
/// it. Only CSR graphs count; implicit topologies are a few bytes of
/// parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Points served by a graph an earlier point already built.
    pub hits: usize,
    /// Distinct graphs built (or loaded from a `.csrbin`).
    pub misses: usize,
    /// Bytes of the built graphs, all held until the plan drops.
    pub resident_bytes: usize,
}

impl Plan {
    /// Total points in the expansion.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for an empty expansion (cannot happen for a parsed spec).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The outcome of [`run_sweep`]: every record in expansion order, plus
/// the cache accounting.
#[derive(Debug)]
pub struct RunOutcome {
    /// One record per point, in expansion order (cached and computed
    /// alike).
    pub records: Vec<PointRecord>,
    /// Points served from the store.
    pub cached: usize,
    /// Points computed this run.
    pub computed: usize,
    /// Graph-cache accounting from the planning phase.
    pub cache_stats: PlanCacheStats,
}

/// One progress snapshot, handed to the [`run_sweep_with_progress`]
/// callback after each computed point is persisted. `computed` is
/// monotone across calls (worker threads may invoke the callback
/// concurrently, but each call carries a distinct count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Points computed and appended to the store so far this run.
    pub computed: usize,
    /// Points this run must compute in total.
    pub to_compute: usize,
    /// Points served from the store (duplicates included).
    pub cached: usize,
    /// Total points in the expansion.
    pub total: usize,
}

/// Resolves a sweep into a [`Plan`]: expands the axes, materialises
/// each distinct graph once (random families seeded from the campaign
/// master seed and the graph spec — *not* the point — so every point
/// on `gnp:N:P` shares one concrete graph), resolves caps, derives
/// key-based point seeds, and partitions against the store.
pub fn plan_sweep(
    spec: &SweepSpec,
    store: &Store,
    cap_policy: CapPolicy<'_>,
) -> Result<Plan, CampaignError> {
    let grid = spec.expand_axes()?;
    // One build per distinct graph: every point on it shares the same
    // topology (one `Arc` for every CSR graph, `file:` ones included).
    let mut memo = GraphMemo::new(spec.backend);
    let mut points = Vec::with_capacity(grid.len());
    let mut cached = Vec::new();
    let mut missing = Vec::new();
    let mut duplicates = Vec::new();
    let mut scheduled_keys = HashSet::new();
    for (index, (objective, gspec, pspec)) in grid.into_iter().enumerate() {
        let topology = memo.get(&gspec, graph_build_seed(spec.seed, &gspec))?;
        let (named, start) = (Some(&gspec), [spec.start]);
        objective
            .check_sharding(&pspec, &start, spec.shards)
            .and_then(|()| with_topology!(&topology, |g| objective.check_graph(named, g, &start)))
            .map_err(CampaignError::Invalid)?;
        let cap = spec
            .cap
            .unwrap_or_else(|| cap_policy(topology.shape(), &pspec));
        let point = SweepPoint::resolve(
            gspec,
            pspec,
            objective,
            spec.start,
            spec.trials,
            cap,
            spec.shards,
            spec.seed,
        );
        let key = point.digest_hex();
        if !scheduled_keys.insert(key.clone()) {
            duplicates.push(index);
        } else if store.get(&key, &point.full_key()).is_some() {
            cached.push(index);
        } else {
            missing.push(index);
        }
        points.push(PlannedPoint { point, topology });
    }
    Ok(Plan {
        points,
        cached,
        missing,
        duplicates,
        distinct_graphs: memo.len(),
        cache_stats: memo.stats(),
    })
}

/// The build seed for a graph spec under a campaign master seed —
/// derived from the spec's stable digest alone (domain-separated from
/// point seeds by the `graph;` prefix), so memoization across points
/// is sound and every point on one random family shares one concrete
/// graph.
pub fn graph_build_seed(master_seed: u64, spec: &GraphSpec) -> u64 {
    key_seed(master_seed, &format!("graph;{:016x}", spec.digest()))
}

/// Plans and runs a sweep: cached points are served from the store,
/// missing points run across the worker pool (0 = one per core), and
/// every finished record is appended to the store before the run moves
/// on. Returns records for the full grid in expansion order.
pub fn run_sweep(
    spec: &SweepSpec,
    store: &mut Store,
    threads: usize,
    cap_policy: CapPolicy<'_>,
) -> Result<RunOutcome, CampaignError> {
    run_sweep_with_progress(spec, store, threads, cap_policy, &|_| {})
}

/// [`run_sweep`] with a live progress callback: invoked once per
/// computed point, after the record is appended to the store, possibly
/// from a worker thread. The callback must be cheap and is responsible
/// for its own rendering; all-cached sweeps never invoke it. The points
/// run on the same scheduler as [`run_sweep_watched`], under a cancel
/// flag that is never raised.
pub fn run_sweep_with_progress(
    spec: &SweepSpec,
    store: &mut Store,
    threads: usize,
    cap_policy: CapPolicy<'_>,
    progress: &(dyn Fn(SweepProgress) + Sync),
) -> Result<RunOutcome, CampaignError> {
    let counts = OnceLock::new();
    let done = AtomicUsize::new(0);
    let on_event = |event: &PointEvent| {
        if event.status == PointStatus::Computed {
            let &(to_compute, cached, total) = counts.get().expect("set at plan time");
            progress(SweepProgress {
                computed: done.fetch_add(1, Ordering::Relaxed) + 1,
                to_compute,
                cached,
                total,
            });
        }
    };
    let subscriber = |plan: &Plan| {
        // Duplicates count as cached: they are served from the record
        // their twin produced (or the store already held), never rerun.
        let cached = plan.cached.len() + plan.duplicates.len();
        counts.get_or_init(|| (plan.missing.len(), cached, plan.len()));
        &on_event
    };
    let never = AtomicBool::new(false);
    let outcome = sweep_with(spec, store, threads, cap_policy, subscriber, &never)?;
    Ok(RunOutcome {
        cached: outcome.cached,
        computed: outcome.computed,
        cache_stats: outcome.cache_stats,
        records: outcome.complete_records(),
    })
}

/// Runs every trial of one point on the worker's context, reducing
/// through the objective's streaming accumulator — each trial's
/// outcome and wall time fold into Welford/P² state the moment it
/// finishes, so a point's memory is O(1) in its trial count (no sample
/// vector ever exists).
///
/// The trials ride [`Engine::run_sequential`]: trial `i` sees exactly
/// `trial_seed(point.seed, i)`, so this matches `Engine::run_spec` under
/// `master_seed = point.seed` bit-for-bit — and the record's summary
/// matches `SimSpec::measure` on the equivalent spec. Sharded points
/// step their shards on the calling worker thread (the campaign already
/// parallelizes across jobs, and trajectories are thread-invariant).
pub fn run_point(point: &SweepPoint, topology: &BuiltTopology, ctx: &mut StepCtx) -> PointRecord {
    run_point_cancellable(point, topology, ctx, &CancelToken::new())
        .expect("a fresh token never cancels")
}

/// [`run_point`] under a cancellation token: the token is polled at
/// every trial boundary (never inside a trial), so cancellation frees
/// the worker within one trial's wall time and discards only the
/// partially-accumulated point. `None` means cancelled — nothing is
/// persisted and the point stays missing for the next run.
pub fn run_point_cancellable(
    point: &SweepPoint,
    topology: &BuiltTopology,
    ctx: &mut StepCtx,
    token: &CancelToken,
) -> Option<PointRecord> {
    with_topology!(topology, |graph| {
        let start = [point.start];
        let stop = point
            .objective
            .stop_when(graph, &start)
            .expect("plan_sweep validated every point objective");
        let mut state = TrialState::new(graph, &point.process, &start, point.shards, 1, ctx);
        let mut acc = StoppingAccumulator::new();
        let started = Instant::now();
        let mut trial_time = StreamingSummary::new();
        let mut lap = started;
        let finished = Engine::new(point.trials, point.seed, point.cap).run_sequential(
            &mut state,
            stop,
            Some(token),
            None,
            |_| Completion,
            |outcome| {
                acc.push(&outcome);
                let now = Instant::now();
                trial_time.push(now.duration_since(lap).as_secs_f64());
                lap = now;
            },
        );
        if !finished {
            return None;
        }
        // P² quartiles of the trial seconds; 0 for a point with no trials.
        let q = |v: f64| if trial_time.count() == 0 { 0.0 } else { v };
        let timing = PointTiming {
            wall_seconds: started.elapsed().as_secs_f64(),
            trial_q25: q(trial_time.q25()),
            trial_median: q(trial_time.median()),
            trial_q75: q(trial_time.q75()),
        };
        Some(PointRecord::from_fold(
            point,
            (graph.n(), graph.m()),
            acc,
            timing,
        ))
    })
}

// ---------------------------------------------------------------------------
// Lifecycle events and the scheduled sweep
// ---------------------------------------------------------------------------

/// What happened to one expanded point — the lifecycle vocabulary
/// shared by `cobra-exps sweep --watch` and the `cobra-serve` NDJSON
/// event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// Served warm from the content-addressed store; never ran.
    Cached,
    /// A worker claimed the point and its trials are running.
    Started,
    /// Computed this run and persisted to the store.
    Computed,
    /// Served by an identical point computed elsewhere (an expansion
    /// twin, or — in the daemon — another client's in-flight job).
    Deduped,
    /// Discarded before completion (shutdown or explicit cancel); the
    /// point stays missing and the next run recomputes it.
    Cancelled,
    /// The run panicked. The event carries the panic message, nothing
    /// is persisted, and the next run tries the point again.
    Failed,
}

impl PointStatus {
    /// The wire spelling used in NDJSON events.
    pub fn as_str(&self) -> &'static str {
        match self {
            PointStatus::Cached => "cached",
            PointStatus::Started => "started",
            PointStatus::Computed => "computed",
            PointStatus::Deduped => "deduped",
            PointStatus::Cancelled => "cancelled",
            PointStatus::Failed => "failed",
        }
    }
}

/// One per-point lifecycle event. Terminal statuses (`cached`,
/// `computed`, `deduped`) carry the finished record; `started`,
/// `cancelled` and `failed` carry `None`, and `failed` carries its
/// panic message in `error`.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEvent {
    /// Index into the expansion (stable for a given spec).
    pub index: usize,
    pub status: PointStatus,
    /// The point's content digest (store address).
    pub key: String,
    pub objective: String,
    pub graph: String,
    pub process: String,
    pub record: Option<PointRecord>,
    pub error: Option<String>,
}

impl PointEvent {
    /// The event for one planned point; terminal statuses that carry a
    /// finished record pass it as `record`.
    pub fn from_planned(
        index: usize,
        planned: &PlannedPoint,
        status: PointStatus,
        record: Option<PointRecord>,
    ) -> PointEvent {
        PointEvent {
            index,
            status,
            key: planned.point.digest_hex(),
            objective: planned.point.objective.to_string(),
            graph: planned.point.graph.to_string(),
            process: planned.point.process.to_string(),
            record,
            error: None,
        }
    }

    /// The NDJSON encoding: the identity fields always, plus the
    /// streamed summary for terminal statuses that carry a record, or
    /// the `error` of a `failed` one.
    /// Callers (the daemon) may append envelope fields — the value is a
    /// [`Json::Object`](cobra_util::Json::Object) with insertion-ordered
    /// keys.
    pub fn to_json(&self) -> cobra_util::Json {
        use cobra_util::json::obj;
        use cobra_util::Json;
        let mut event = obj([
            ("type", Json::Str("point".into())),
            ("index", Json::Int(self.index as i128)),
            ("status", Json::Str(self.status.as_str().into())),
            ("key", Json::Str(self.key.clone())),
            ("objective", Json::Str(self.objective.clone())),
            ("graph", Json::Str(self.graph.clone())),
            ("process", Json::Str(self.process.clone())),
        ]);
        if let (Json::Object(fields), Some(rec)) = (&mut event, &self.record) {
            for (key, value) in [
                ("trials", Json::Int(rec.trials as i128)),
                ("completed", Json::Int(rec.completed as i128)),
                ("censored", Json::Int(rec.censored as i128)),
                ("mean", Json::Float(rec.mean)),
                ("median", Json::Float(rec.median)),
                ("q25", Json::Float(rec.q25)),
                ("q75", Json::Float(rec.q75)),
                ("wall_seconds", Json::Float(rec.wall_seconds)),
            ] {
                fields.push((key.to_string(), value));
            }
        }
        if let (Json::Object(fields), Some(error)) = (&mut event, &self.error) {
            fields.push(("error".to_string(), Json::Str(error.clone())));
        }
        event
    }
}

/// The outcome of [`run_sweep_watched`]: like [`RunOutcome`], but able
/// to represent a gracefully interrupted run — cancelled points simply
/// have no record yet.
#[derive(Debug)]
pub struct WatchOutcome {
    /// One slot per point in expansion order; `None` means the point
    /// was cancelled before completing (only under interruption).
    pub records: Vec<Option<PointRecord>>,
    /// Points served from the store (expansion duplicates included).
    pub cached: usize,
    /// Points computed and persisted this run.
    pub computed: usize,
    /// Points cancelled by the interrupt flag.
    pub cancelled: usize,
    /// True when the cancel flag stopped the run early.
    pub interrupted: bool,
    /// Graph-cache accounting from the planning phase.
    pub cache_stats: PlanCacheStats,
}

impl WatchOutcome {
    /// The records of a run that was *not* interrupted, in expansion
    /// order. Panics on an interrupted outcome.
    fn complete_records(self) -> Vec<PointRecord> {
        self.records
            .into_iter()
            .map(|r| r.expect("complete run has every record"))
            .collect()
    }
}

/// [`run_sweep`] with per-point lifecycle events and graceful
/// interruption — the engine under `cobra-exps sweep` (where the flag is
/// wired to SIGINT/SIGTERM).
///
/// The sweep is one submission to a private [`Scheduler`], drained by
/// `threads` workers (0 = one per core). Every finished record is
/// appended (and flushed) to the store before its `computed` event
/// fires; an expansion twin of a computed point gets `deduped` with the
/// same record, and one whose key the store already holds is `cached`.
/// When `cancel` flips, the scheduler shuts down: queued points are
/// discarded, in-flight points stop at their next trial boundary, and
/// everything already persisted stays — the run loses at most one trial
/// per worker beyond the records it kept. A point whose run panics gets
/// `failed`; the other points still run, and the sweep then returns
/// [`CampaignError::Failed`] naming it.
///
/// Results are bit-identical whatever the thread count or interruption
/// history (point seeds derive from content keys, never from
/// scheduling); the queue-vs-direct golden test and the engine
/// equivalence test of [`run_point`] pin this.
pub fn run_sweep_watched(
    spec: &SweepSpec,
    store: &mut Store,
    threads: usize,
    cap_policy: CapPolicy<'_>,
    on_event: &(dyn Fn(&PointEvent) + Sync),
    cancel: &AtomicBool,
) -> Result<WatchOutcome, CampaignError> {
    sweep_with(spec, store, threads, cap_policy, |_| on_event, cancel)
}

/// Every `run_sweep*` entry point: lends the store to a private
/// [`Scheduler`], submits the sweep with the subscriber `subscriber`
/// builds from its plan, drains it, and counts the outcome.
fn sweep_with<S: Subscriber + Clone + Send + Sync>(
    spec: &SweepSpec,
    store: &mut Store,
    threads: usize,
    cap_policy: CapPolicy<'_>,
    subscriber: impl FnOnce(&Plan) -> S,
    cancel: &AtomicBool,
) -> Result<WatchOutcome, CampaignError> {
    let shared = SharedStore::new(std::mem::replace(store, Store::in_memory()));
    let run = || {
        let scheduler = Scheduler::default();
        let plan = |s: &Store| plan_sweep(spec, s, cap_policy);
        let submission = scheduler.submit(&shared, plan, subscriber)?;
        scheduler.close();
        let threads = resolve_threads(threads).min(submission.scheduled.max(1));
        drain(&scheduler, threads, cancel).map(|()| submission.plan)
    };
    let drained = run();
    *store = shared.into_inner();
    let plan = drained?;
    let records: Vec<Option<PointRecord>> = plan
        .points
        .iter()
        .map(|p| {
            store
                .get(&p.point.digest_hex(), &p.point.full_key())
                .cloned()
        })
        .collect();
    // A fresh scheduler makes a job of exactly the plan's missing points.
    let computed = plan
        .missing
        .iter()
        .filter(|&&i| records[i].is_some())
        .count();
    let resolved = records.iter().flatten().count();
    Ok(WatchOutcome {
        cached: resolved - computed,
        computed,
        cancelled: records.len() - resolved,
        interrupted: cancel.load(Ordering::Acquire),
        cache_stats: plan.cache_stats,
        records,
    })
}

/// Drains a closed scheduler on `threads` workers (the calling thread
/// is one) under the interrupt relay. Every point runs; the first
/// failed point or store error comes back afterwards.
fn drain<S: Subscriber + Clone + Send + Sync>(
    scheduler: &Scheduler<S>,
    threads: usize,
    cancel: &AtomicBool,
) -> Result<(), CampaignError> {
    // A flag raised before the run cancels every point: shut down
    // before a worker can claim one, not when the relay first polls.
    if cancel.load(Ordering::Acquire) {
        scheduler.shutdown();
    }
    let first_error = Mutex::new(None);
    let done = |point: &SweepPoint, result| {
        let error = match result {
            Ok(()) => return,
            Err(JobError::Store(e)) => {
                CampaignError::Io(format!("cannot append to result store: {e}"))
            }
            Err(JobError::Panicked(message)) => CampaignError::Failed(format!(
                "{} × {} × {} (key {}): {message}",
                point.objective,
                point.graph,
                point.process,
                point.digest_hex()
            )),
        };
        first_error.lock().expect("error slot").get_or_insert(error);
    };
    std::thread::scope(|scope| {
        // The interrupt relay: flag → shutdown. Polling keeps the flag a
        // plain AtomicBool a signal handler can set. It waits on the job
        // table, so it ends with the last job however the workers end.
        scope.spawn(|| {
            while !scheduler.wait_idle(Some(Duration::from_millis(10))) {
                if cancel.load(Ordering::Acquire) {
                    return scheduler.shutdown();
                }
            }
        });
        for _ in 1..threads {
            scope.spawn(|| scheduler.work(done));
        }
        scheduler.work(done);
    });
    first_error
        .into_inner()
        .expect("error slot")
        .map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::Backend;
    use std::sync::Arc;

    fn small_spec() -> SweepSpec {
        "cover; graph=cycle:{12..14}|complete:16; process=cobra:b2|rw; trials=5"
            .parse()
            .unwrap()
    }

    /// A grid of the two families with an implicit backend.
    fn implicit_families_spec() -> SweepSpec {
        "cover; graph=hypercube:{3..5}|complete:16; process=cobra:b2|rw; trials=5"
            .parse()
            .unwrap()
    }

    #[test]
    fn plan_memoizes_graphs_and_partitions() {
        let store = Store::in_memory();
        let plan = plan_sweep(&small_spec(), &store, &default_cap).unwrap();
        assert_eq!(plan.len(), 4 * 2);
        assert_eq!(plan.distinct_graphs, 4, "2 processes share each graph");
        assert_eq!(plan.cached.len(), 0);
        assert_eq!(plan.missing.len(), 8);
        // Auto builds CSR for the cycles and the implicit backend for
        // complete.
        for p in &plan.points {
            let complete = matches!(p.point.graph, cobra_graph::GraphSpec::Complete { .. });
            assert_eq!(p.topology.is_implicit(), complete, "{}", p.point.graph);
        }

        // Forced CSR: graph Arcs are shared between the two points of
        // each graph through the plan memo.
        let csr = small_spec().with_backend(Backend::Csr);
        let plan = plan_sweep(&csr, &store, &default_cap).unwrap();
        assert_eq!(plan.distinct_graphs, 4);
        match (&plan.points[0].topology, &plan.points[1].topology) {
            (BuiltTopology::Csr(a), BuiltTopology::Csr(b)) => {
                assert!(Arc::ptr_eq(a, b), "the plan must share the CSR graph");
            }
            other => panic!("backend=csr built {other:?}"),
        }
    }

    #[test]
    fn backends_produce_bit_identical_records_under_one_store() {
        // The same grid under csr and implicit backends: identical
        // records, and the second backend is served entirely from the
        // first backend's store (backend is not part of the key).
        let mut store = Store::in_memory();
        let csr = implicit_families_spec().with_backend(Backend::Csr);
        let implicit = implicit_families_spec().with_backend(Backend::Implicit);
        assert_eq!(csr.name(), implicit.name(), "stores must be shared");
        let first = run_sweep(&csr, &mut store, 1, &default_cap).unwrap();
        assert_eq!((first.computed, first.cached), (8, 0));
        let second = run_sweep(&implicit, &mut store, 4, &default_cap).unwrap();
        assert_eq!((second.computed, second.cached), (0, 8));
        assert_eq!(first.records, second.records);
        // And computed fresh on the implicit backend, they still match.
        let fresh = run_sweep(&implicit, &mut Store::in_memory(), 1, &default_cap).unwrap();
        assert_eq!(first.records, fresh.records);
    }

    #[test]
    fn second_run_is_fully_cached_and_identical() {
        let mut store = Store::in_memory();
        let spec = small_spec();
        let first = run_sweep(&spec, &mut store, 1, &default_cap).unwrap();
        assert_eq!(first.computed, 8);
        assert_eq!(first.cached, 0);
        let second = run_sweep(&spec, &mut store, 4, &default_cap).unwrap();
        assert_eq!(second.computed, 0);
        assert_eq!(second.cached, 8);
        assert_eq!(first.records, second.records);
    }

    #[test]
    fn progress_fires_per_computed_point_with_timing_recorded() {
        let spec = small_spec();
        let mut store = Store::in_memory();
        let seen = Mutex::new(Vec::new());
        let out = run_sweep_with_progress(&spec, &mut store, 1, &default_cap, &|p| {
            seen.lock().unwrap().push(p);
        })
        .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|p| p.computed);
        assert_eq!(seen.len(), 8, "one callback per computed point");
        assert_eq!(
            seen[7],
            SweepProgress {
                computed: 8,
                to_compute: 8,
                cached: 0,
                total: 8
            }
        );
        for r in &out.records {
            assert!(r.wall_seconds > 0.0, "computed points carry wall time");
            assert!(r.trial_q25 <= r.trial_median && r.trial_median <= r.trial_q75);
        }
        // A fully-cached re-run never invokes the callback — the CLI's
        // final 100% line is printed unconditionally for that reason.
        let calls = AtomicUsize::new(0);
        let second = run_sweep_with_progress(&spec, &mut store, 1, &default_cap, &|_| {
            calls.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!((second.computed, second.cached), (0, 8));
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn plans_surface_graph_cache_accounting() {
        // Implicit backends bypass the CSR cache entirely.
        let implicit =
            plan_sweep(&implicit_families_spec(), &Store::in_memory(), &default_cap).unwrap();
        assert_eq!(implicit.cache_stats, PlanCacheStats::default());
        // Forced CSR: each distinct graph is built once, the second
        // point of each graph is a hit, and the built graphs stay
        // resident.
        let csr = small_spec().with_backend(Backend::Csr);
        let plan = plan_sweep(&csr, &Store::in_memory(), &default_cap).unwrap();
        assert_eq!(plan.cache_stats.misses, 4);
        assert_eq!(plan.cache_stats.hits, 4);
        assert!(plan.cache_stats.resident_bytes > 0);
        let out = run_sweep(&csr, &mut Store::in_memory(), 1, &default_cap).unwrap();
        assert_eq!(out.cache_stats.misses, 4, "run outcome carries the stats");
    }

    #[test]
    fn thread_count_never_changes_records() {
        let spec = small_spec();
        let seq = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).unwrap();
        let par = run_sweep(&spec, &mut Store::in_memory(), 8, &default_cap).unwrap();
        assert_eq!(seq.records, par.records);
    }

    #[test]
    fn point_results_are_independent_of_the_surrounding_grid() {
        // The cycle:12/cobra:b2 point must be bit-identical whether it
        // runs alone or inside a larger grid.
        let solo: SweepSpec = "cover; graph=cycle:12; process=cobra:b2; trials=5"
            .parse()
            .unwrap();
        let solo_run = run_sweep(&solo, &mut Store::in_memory(), 1, &default_cap).unwrap();
        let grid_run = run_sweep(&small_spec(), &mut Store::in_memory(), 0, &default_cap).unwrap();
        let in_grid = grid_run
            .records
            .iter()
            .find(|r| r.graph == "cycle:12" && r.process == "cobra:b2")
            .unwrap();
        assert_eq!(&solo_run.records[0], in_grid);
    }

    #[test]
    fn run_point_matches_the_engine_bit_for_bit() {
        use cobra_mc::{Completion, Engine};
        let spec = small_spec();
        let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).unwrap();
        for planned in &plan.points {
            let p = &planned.point;
            let mut ctx = StepCtx::new();
            let record = run_point(p, &planned.topology, &mut ctx);
            let (est, tx, reached) = with_topology!(&planned.topology, |g| {
                let stop = p.objective.stop_when(g, &[p.start]).unwrap();
                let mut acc = StoppingAccumulator::new();
                Engine::new(p.trials, p.seed, p.cap)
                    .with_threads(1)
                    .run_spec(
                        g,
                        &p.process,
                        &[p.start],
                        stop,
                        |_| Completion,
                        |o| acc.push(&o),
                    );
                let (tx, reached) = (acc.total_transmissions(), acc.total_reached());
                (acc.finish(p.cap), tx, reached)
            });
            assert_eq!(
                record.to_estimate(),
                est,
                "{}/{}: record diverged from the engine fold",
                p.graph,
                p.process
            );
            assert_eq!(record.total_transmissions, tx);
            assert_eq!(record.total_reached, reached);
        }
    }

    #[test]
    fn a_huge_trial_count_reserves_nothing_it_cannot_hold() {
        let plan = plan_sweep(&small_spec(), &Store::in_memory(), &default_cap).unwrap();
        let planned = &plan.points[0];
        let mut point = planned.point.clone();
        point.trials = usize::MAX;
        let token = CancelToken::new();
        token.cancel();
        let out = run_point_cancellable(&point, &planned.topology, &mut StepCtx::new(), &token);
        assert!(out.is_none());
    }

    #[test]
    fn hit_objective_and_vertex_checks() {
        let spec: SweepSpec = "hit:6; graph=cycle:12; process=cobra:b2; trials=4"
            .parse()
            .unwrap();
        let out = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).unwrap();
        assert!(out.records[0].min >= 6.0, "hitting time beats the distance");
        let bad: SweepSpec = "hit:99; graph=cycle:12; process=cobra:b2; trials=4"
            .parse()
            .unwrap();
        let err = run_sweep(&bad, &mut Store::in_memory(), 1, &default_cap).unwrap_err();
        assert!(
            err.to_string().contains("hit:99") && err.to_string().contains("cycle:12"),
            "error must name the offending token and graph: {err}"
        );
        let bad_start: SweepSpec = "cover; graph=cycle:12; process=rw; trials=2; start=50"
            .parse()
            .unwrap();
        assert!(matches!(
            run_sweep(&bad_start, &mut Store::in_memory(), 1, &default_cap),
            Err(CampaignError::Invalid(_))
        ));
    }

    #[test]
    fn objective_axis_runs_and_caches_per_objective() {
        let spec: SweepSpec =
            "{cover,hit:far,infection:1.0}; graph=hypercube:{3,4}; process=cobra:b2; trials=4"
                .parse()
                .unwrap();
        let mut store = Store::in_memory();
        let first = run_sweep(&spec, &mut store, 0, &default_cap).unwrap();
        assert_eq!((first.computed, first.cached), (6, 0));
        // One record per (objective, graph) cell, objective-major.
        let objectives: Vec<&str> = first.records.iter().map(|r| r.objective.as_str()).collect();
        assert_eq!(
            objectives,
            [
                "cover",
                "cover",
                "hit:far",
                "hit:far",
                "infection:1",
                "infection:1"
            ]
        );
        // infection:1 is cover under a different key: same stop rule,
        // different key-derived seed, so the estimand agrees in law but
        // the records are distinct points.
        assert_eq!(first.records.len(), 6);
        let second = run_sweep(&spec, &mut store, 0, &default_cap).unwrap();
        assert_eq!((second.computed, second.cached), (0, 6));
        assert_eq!(first.records, second.records);
    }

    #[test]
    fn hit_far_sweeps_across_sizes() {
        // One spelling, many graphs: hit:far resolves per graph.
        let spec: SweepSpec = "hit:far; graph=cycle:{8,16}; process=cobra:b2; trials=4"
            .parse()
            .unwrap();
        let out = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).unwrap();
        // On cycle:n from vertex 0 the farthest vertex is n/2 hops away.
        assert!(out.records[0].min >= 4.0);
        assert!(out.records[1].min >= 8.0);
    }

    #[test]
    fn overlapping_expansions_schedule_each_key_once() {
        // cycle:9 and cycle:10 appear in both alternatives; each key
        // must run exactly one job and every copy sees the same record.
        let spec: SweepSpec = "cover; graph=cycle:{8..10}|cycle:{9..11}; process=rw; trials=3"
            .parse()
            .unwrap();
        let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).unwrap();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.missing.len(), 4, "4 distinct keys");
        assert_eq!(plan.duplicates.len(), 2);
        let mut store = Store::in_memory();
        let out = run_sweep(&spec, &mut store, 1, &default_cap).unwrap();
        assert_eq!((out.computed, out.cached), (4, 2));
        assert_eq!(out.records.len(), 6, "one record per expansion cell");
        assert_eq!(out.records[1], out.records[3], "cycle:9 twice, same record");
        assert_eq!(out.records[2], out.records[4]);
        assert_eq!(store.len(), 4, "store holds each key once");
    }

    #[test]
    fn sharded_points_are_distinct_keys_and_reproducible() {
        let mut store = Store::in_memory();
        let base: SweepSpec = "cover; graph=hypercube:6; process=cobra:b2; trials=4"
            .parse()
            .unwrap();
        let sharded: SweepSpec = "cover; graph=hypercube:6; process=cobra:b2; trials=4; shards=4"
            .parse()
            .unwrap();
        let a = run_sweep(&base, &mut store, 1, &default_cap).unwrap();
        // shards=4 is a distinct content key: nothing served from the
        // unsharded record, even in the same store.
        let b = run_sweep(&sharded, &mut store, 1, &default_cap).unwrap();
        assert_eq!((b.computed, b.cached), (1, 0));
        assert_ne!(a.records[0].key, b.records[0].key);
        assert_ne!(a.records[0].seed, b.records[0].seed);
        // A re-run of the sharded sweep is fully cached and identical,
        // whatever the worker count.
        let c = run_sweep(&sharded, &mut store, 4, &default_cap).unwrap();
        assert_eq!((c.computed, c.cached), (0, 1));
        assert_eq!(b.records, c.records);
        // Computed fresh in a clean store, the sharded record matches
        // bit for bit (key-derived seeds, thread-invariant kernel).
        let fresh = run_sweep(&sharded, &mut Store::in_memory(), 1, &default_cap).unwrap();
        assert_eq!(b.records, fresh.records);
        // Every trial still covers the whole graph.
        assert_eq!(b.records[0].total_reached, 4 * 64);
    }

    #[test]
    fn sharded_sweep_rejects_unshardable_processes() {
        let spec: SweepSpec = "cover; graph=cycle:12; process=rw; trials=2; shards=2"
            .parse()
            .unwrap();
        let err = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("cobra, bips") && err.contains("shards=1"),
            "{err:?}"
        );
    }

    #[test]
    fn file_specs_plan_cold_then_warm_csr_bit_identically() {
        let dir = std::env::temp_dir().join(format!("cobra-runner-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-plan.txt");
        std::fs::write(&path, "0 1\n1 2\n2 3\n3 0\n0 2\n").unwrap();
        let spec: SweepSpec = format!(
            "cover; graph=file:{}; process=cobra:b2|rw; trials=4",
            path.display()
        )
        .parse()
        .unwrap();
        // Cold: no .csrbin yet — the plan parses the text to CSR (and
        // the build writes the cache for next time).
        let cold = plan_sweep(&spec, &Store::in_memory(), &default_cap).unwrap();
        assert!(
            matches!(cold.points[0].topology, BuiltTopology::Csr(_)),
            "cold file plans must parse to CSR"
        );
        // Warm: the same spec now loads the cache into the same CSR
        // graph, shared by both process points.
        let warm = plan_sweep(&spec, &Store::in_memory(), &default_cap).unwrap();
        for planned in &warm.points {
            assert_eq!(planned.topology.as_csr(), cold.points[0].topology.as_csr());
        }
        assert_eq!(warm.distinct_graphs, 1);
        // Same points, same keys, and bit-identical records either way.
        for (a, b) in cold.points.iter().zip(&warm.points) {
            assert_eq!(a.point, b.point, "the load path must not enter the key");
            let mut ctx = StepCtx::new();
            let ra = run_point(&a.point, &a.topology, &mut ctx);
            let rb = run_point(&b.point, &b.topology, &mut ctx);
            assert_eq!(ra, rb, "cold and warm diverged on {}", a.point.process);
        }
        // Forced CSR is the same graph.
        let forced = plan_sweep(
            &spec.clone().with_backend(Backend::Csr),
            &Store::in_memory(),
            &default_cap,
        )
        .unwrap();
        assert_eq!(
            forced.points[0].topology.as_csr(),
            cold.points[0].topology.as_csr()
        );
    }

    #[test]
    fn disconnected_file_sweeps_fail_at_plan_time() {
        let dir = std::env::temp_dir().join(format!("cobra-runner-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disconnected.txt");
        std::fs::write(&path, "0 1\n1 2\n0 2\n3 4\n").unwrap();
        let spec: SweepSpec = format!(
            "cover; graph=file:{}; process=cobra:b2; trials=2",
            path.display()
        )
        .parse()
        .unwrap();
        let err = plan_sweep(&spec, &Store::in_memory(), &default_cap)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("2 connected components") && err.contains("component=giant"),
            "{err:?}"
        );
        // The giant modifier restricts to the triangle and plans fine.
        let giant: SweepSpec = format!(
            "cover; graph=file:{}?component=giant; process=cobra:b2; trials=2",
            path.display()
        )
        .parse()
        .unwrap();
        let out = run_sweep(&giant, &mut Store::in_memory(), 1, &default_cap).unwrap();
        assert_eq!(out.records[0].n, 3);
    }

    #[test]
    fn disconnected_random_sweeps_fail_at_plan_time() {
        // gnp:100:0.001 samples ~5 edges: cover cannot terminate, and
        // vertex 0 is isolated, so no other objective can start from it.
        for (objective, want) in [("cover", "connected components"), ("hit:1", "isolated")] {
            let spec: SweepSpec =
                format!("{objective}; graph=gnp:100:0.001; process=cobra:b2; trials=2")
                    .parse()
                    .unwrap();
            let err = plan_sweep(&spec, &Store::in_memory(), &default_cap)
                .unwrap_err()
                .to_string();
            assert!(err.contains(want), "{objective}: {err}");
        }
    }

    #[test]
    fn watched_sweep_is_bit_identical_to_direct_run() {
        // The queue-vs-direct golden: the same grid through the fair-
        // share queue (watched path) and through run_sweep must agree
        // bit for bit, at any thread count.
        let spec = small_spec();
        let direct = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).unwrap();
        let never = AtomicBool::new(false);
        let watched = run_sweep_watched(
            &spec,
            &mut Store::in_memory(),
            4,
            &default_cap,
            &|_| {},
            &never,
        )
        .unwrap();
        assert!(!watched.interrupted);
        assert_eq!(watched.cancelled, 0);
        assert_eq!(watched.computed, 8);
        assert_eq!(direct.records, watched.complete_records());
    }

    #[test]
    fn watched_sweep_emits_lifecycle_events() {
        let spec = small_spec();
        let mut store = Store::in_memory();
        let never = AtomicBool::new(false);
        let events = Mutex::new(Vec::new());
        run_sweep_watched(
            &spec,
            &mut store,
            1,
            &default_cap,
            &|e| {
                events.lock().unwrap().push(e.clone());
            },
            &never,
        )
        .unwrap();
        let events = events.into_inner().unwrap();
        let started = events.iter().filter(|e| e.status == PointStatus::Started);
        let computed: Vec<_> = events
            .iter()
            .filter(|e| e.status == PointStatus::Computed)
            .collect();
        assert_eq!(started.count(), 8);
        assert_eq!(computed.len(), 8);
        for e in &computed {
            let rec = e.record.as_ref().expect("computed events carry records");
            assert_eq!(rec.key, e.key);
            // The NDJSON encoding carries the summary fields.
            let json = e.to_json();
            assert_eq!(json.get("status").unwrap().as_str(), Some("computed"));
            assert!(json.get("mean").is_some());
        }
        // A warm re-run emits only cached events, again with records.
        let events = Mutex::new(Vec::new());
        let out = run_sweep_watched(
            &spec,
            &mut store,
            1,
            &default_cap,
            &|e| {
                events.lock().unwrap().push(e.clone());
            },
            &never,
        )
        .unwrap();
        assert_eq!((out.computed, out.cached), (0, 8));
        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .all(|e| e.status == PointStatus::Cached && e.record.is_some()));
    }

    #[test]
    fn pre_cancelled_watched_sweep_computes_nothing_and_resumes() {
        let spec = small_spec();
        let mut store = Store::in_memory();
        let cancel = AtomicBool::new(true);
        let out = run_sweep_watched(&spec, &mut store, 2, &default_cap, &|_| {}, &cancel).unwrap();
        assert!(out.interrupted);
        assert_eq!(out.computed, 0);
        assert_eq!(out.cancelled, 8);
        assert!(out.records.iter().all(Option::is_none));
        assert!(store.is_empty(), "nothing persisted from a cancelled run");
        // The next (uncancelled) run computes exactly what was lost and
        // matches a direct run bit for bit.
        let cancel = AtomicBool::new(false);
        let resumed =
            run_sweep_watched(&spec, &mut store, 1, &default_cap, &|_| {}, &cancel).unwrap();
        assert_eq!(resumed.computed, 8);
        let direct = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).unwrap();
        assert_eq!(direct.records, resumed.complete_records());
    }

    #[test]
    fn watched_sweep_serves_expansion_twins_as_deduped_events() {
        let spec: SweepSpec = "cover; graph=cycle:{8..10}|cycle:{9..11}; process=rw; trials=3"
            .parse()
            .unwrap();
        let never = AtomicBool::new(false);
        let mut store = Store::in_memory();
        let events = Mutex::new(Vec::new());
        let out = run_sweep_watched(
            &spec,
            &mut store,
            1,
            &default_cap,
            &|e| events.lock().unwrap().push(e.clone()),
            &never,
        )
        .unwrap();
        assert_eq!((out.computed, out.cached), (4, 2));
        let events = events.into_inner().unwrap();
        let deduped: Vec<_> = events
            .iter()
            .filter(|e| e.status == PointStatus::Deduped)
            .collect();
        assert_eq!(deduped.len(), 2);
        for e in deduped {
            assert!(e.record.is_some(), "deduped events carry the twin's record");
        }
        // Warm, a twin's key is in the store: every point is cached.
        let events = Mutex::new(Vec::new());
        let out = run_sweep_watched(
            &spec,
            &mut store,
            1,
            &default_cap,
            &|e| events.lock().unwrap().push(e.clone()),
            &never,
        )
        .unwrap();
        assert_eq!((out.computed, out.cached), (0, 6));
        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| e.status == PointStatus::Cached));
    }

    #[test]
    fn random_graphs_are_shared_across_points_and_stable() {
        let spec: SweepSpec = "cover; graph=gnp:48:0.15; process=cobra:b2|rw; trials=3"
            .parse()
            .unwrap();
        let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).unwrap();
        assert_eq!(plan.distinct_graphs, 1);
        let a = run_sweep(&spec, &mut Store::in_memory(), 1, &default_cap).unwrap();
        let b = run_sweep(&spec, &mut Store::in_memory(), 4, &default_cap).unwrap();
        assert_eq!(a.records, b.records);
        // Both points saw the same concrete graph.
        assert_eq!(a.records[0].m, a.records[1].m);
    }

    #[test]
    fn a_panicking_point_fails_alone_and_the_sweep_reports_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        // A helper thread, so a hung drain fails the test by timeout.
        let handle = std::thread::spawn(move || {
            let store = SharedStore::in_memory();
            let events = Mutex::new(Vec::new());
            let on_event = |e: &PointEvent| events.lock().unwrap().push(e.clone());
            let scheduler = Scheduler::default();
            let spec = "cover; graph=cycle:8; process=cobra:b2; trials=4"
                .parse()
                .unwrap();
            let plan = |s: &Store| {
                let mut plan = plan_sweep(&spec, s, &default_cap)?;
                // plan_sweep rejects this start; enqueued anyway, it makes
                // `Cobra::reset` assert inside the run.
                let mut bad = plan.points[0].clone();
                bad.point.start = 99;
                plan.points.push(bad);
                Ok(plan)
            };
            scheduler.submit(&store, plan, |_| &on_event).unwrap();
            scheduler.close();
            let drained = drain(&scheduler, 2, &AtomicBool::new(false));
            let events = events.into_inner().unwrap();
            let _ = tx.send((drained.map_err(|e| e.to_string()), events, store.len()));
        });
        let (drained, events, stored) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the sweep returns");
        let error = drained.unwrap_err();
        assert!(
            error.contains("cycle:8") && error.contains("start vertex 99"),
            "{error}"
        );
        let terminal = |index| {
            let event = events
                .iter()
                .find(|e| e.index == index && e.status != PointStatus::Started);
            event.expect("every point resolves")
        };
        assert_eq!(terminal(0).status, PointStatus::Computed);
        let failed = terminal(1);
        assert_eq!(failed.status, PointStatus::Failed);
        assert!(failed.record.is_none());
        let message = failed.error.as_deref().unwrap();
        assert!(message.contains("out of range"), "{message}");
        assert_eq!(
            failed.to_json().get("error").and_then(|e| e.as_str()),
            Some(message)
        );
        assert_eq!(stored, 1, "the failed point leaves the store alone");
        handle.join().expect("the sweep thread returns");
    }
}
