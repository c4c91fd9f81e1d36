//! `cobra-campaign` — declarative parameter sweeps over the engine.
//!
//! Every figure in the paper (and in the related COBRA/BIPS
//! experimental literature) is a *sweep*: a stopping time measured
//! across a grid of graph families, sizes, and branching factors. This
//! crate is the workload layer that turns such a grid into one value —
//! a [`SweepSpec`] — and runs it with caching and resumability:
//!
//! ```
//! use cobra_campaign::{run_sweep, default_cap, Store, SweepSpec};
//!
//! // 3 hypercubes × 2 branching factors, 8 trials per point.
//! let spec: SweepSpec = "cover; graph=hypercube:{4..6}; process=cobra:b{2,3}; trials=8"
//!     .parse()
//!     .unwrap();
//! let mut store = Store::in_memory();
//! let first = run_sweep(&spec, &mut store, 0, &default_cap).unwrap();
//! assert_eq!((first.computed, first.cached), (6, 0));
//!
//! // Re-running the same sweep computes nothing.
//! let second = run_sweep(&spec, &mut store, 0, &default_cap).unwrap();
//! assert_eq!((second.computed, second.cached), (0, 6));
//! assert_eq!(first.records, second.records);
//! ```
//!
//! # The sweep grammar
//!
//! `<objectives>; graph=<patterns>; process=<patterns>; trials=N
//! [; start=V] [; seed=S] [; cap=C] [; name=N]` — see [`sweep`] for the
//! full table. The objective axis is first-class: any sweepable
//! [`Objective`] (`cover`, `hit:V`, `hit:far`, `infection:T`) and any
//! brace pattern over them (`objective={cover,hit:far,infection:0.5}`)
//! rides the grid. Patterns brace-expand (`hypercube:{10..16}`,
//! `cobra:b{1,2,3}`, `grid:{8,16}x{8,16}`) and `|`-alternate; the grid
//! is the cross product of the three axes. [`SweepSpec`] round-trips
//! through [`FromStr`](std::str::FromStr)/[`Display`](std::fmt::Display)
//! exactly, like `GraphSpec`, `ProcessSpec`, and `Objective`.
//!
//! # Content-addressed results, resumable runs
//!
//! Each expanded point resolves to a [`SweepPoint`] whose identity is a
//! canonical key string (objective, graph, process, start, trials, cap,
//! code-version) — see [`point`]. The point's RNG seed derives from
//! `(campaign seed, key)` via [`cobra_mc::key_seed`], never from its
//! position or the thread schedule, so per-point results are
//! bit-identical across thread counts, expansion orders, and grid
//! edits. The [`Store`] persists one JSON line per finished point under
//! `campaigns/<name>/results.jsonl`, addressed by a stable hash of the
//! full key; a re-run recomputes exactly the missing keys, which is
//! also what makes a killed campaign resume where it stopped.
//!
//! # Scheduling
//!
//! [`run_sweep`] parallelizes at the *job* (point) level: each worker
//! thread owns one long-lived `StepCtx` reused across all its jobs, and
//! within a job the process is built once and reset per trial — the
//! engine's zero-allocation steady state stretched across whole sweep
//! points. Graph construction is memoized per spec within a plan
//! ([`cache::GraphMemo`]), so `cobra:b{1,2,3}` over one hypercube
//! builds it once and every point holds the same graph until the plan
//! is dropped. Every sweep
//! is one submission to a [`Scheduler`] — the one job table, with fair
//! share across submissions, that the `cobra-serve` daemon shares
//! across campaigns — see [`scheduler`].
//!
//! # Artifacts
//!
//! [`artifact`] folds finished records through `cobra-stats` summaries
//! into the workspace [`Table`](cobra_stats::report::Table) (plain /
//! markdown / CSV) and a log–log scaling figure, written next to the
//! store. The `cobra-exps sweep` subcommand is the CLI face of this
//! crate.

pub mod artifact;
pub mod cache;
pub mod point;
pub mod runner;
pub mod scheduler;
pub mod store;
pub mod sweep;

use cobra_graph::GraphSpecError;
use cobra_process::ProcessSpecError;
use std::fmt;

pub use cobra_graph::Backend;
pub use cobra_mc::{HitTarget, Objective};
pub use point::{SweepPoint, CODE_VERSION};
pub use runner::{
    default_cap, plan_sweep, run_point, run_point_cancellable, run_sweep, run_sweep_watched,
    run_sweep_with_progress, CapPolicy, Plan, PlanCacheStats, PlannedPoint, PointEvent,
    PointStatus, RunOutcome, SweepProgress, WatchOutcome,
};
pub use scheduler::{JobError, QueueStats, Scheduler, Submission, Subscriber};
pub use store::{PointRecord, PointTiming, SharedStore, Store};
pub use sweep::SweepSpec;

/// Why a campaign could not be parsed, planned, or run.
#[derive(Debug)]
pub enum CampaignError {
    /// Sweep-grammar errors (bad segment, bad brace expansion, …).
    Spec(String),
    /// An expanded graph token failed to parse or build.
    Graph(GraphSpecError),
    /// An expanded process token failed to parse.
    Process(ProcessSpecError),
    /// Semantic errors (out-of-range vertices, oversized grids).
    Invalid(String),
    /// Result-store I/O failures.
    Io(String),
    /// A submission reached a [`Scheduler`] after its shutdown.
    Closed,
    /// A point's run panicked (the point, then the panic message).
    Failed(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(m) => write!(f, "sweep spec error: {m}"),
            CampaignError::Graph(e) => write!(f, "{e}"),
            CampaignError::Process(e) => write!(f, "{e}"),
            CampaignError::Invalid(m) => write!(f, "invalid sweep: {m}"),
            CampaignError::Io(m) => write!(f, "campaign store error: {m}"),
            CampaignError::Closed => write!(f, "the scheduler is shutting down"),
            CampaignError::Failed(m) => write!(f, "point failed: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<GraphSpecError> for CampaignError {
    fn from(e: GraphSpecError) -> CampaignError {
        CampaignError::Graph(e)
    }
}

impl From<ProcessSpecError> for CampaignError {
    fn from(e: ProcessSpecError) -> CampaignError {
        CampaignError::Process(e)
    }
}
