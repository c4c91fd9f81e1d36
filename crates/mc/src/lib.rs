//! Deterministic parallel Monte-Carlo trial runner.
//!
//! Every experiment in the reproduction is a map from trial index to an
//! independent simulation outcome. This crate provides:
//!
//! * [`seed`] — SplitMix64 seed derivation: one master seed fans out to
//!   per-trial seeds that are stable across runs, thread counts, and
//!   platforms;
//! * a crate-private parallel runner over `std::thread::scope` that
//!   folds outputs on the caller in trial-index order through a bounded
//!   reorder window, so a parallel run is bit-identical to a sequential
//!   one and never holds a value per trial ([`resolve_threads`] turns
//!   the `threads = 0` knob into a core count);
//! * [`engine`] — the unified [`Engine`], the workspace's one batch
//!   runner: one trial loop driving any [`cobra_process::ProcessState`]
//!   under a [`StopWhen`] condition and a round cap, run in parallel
//!   over trials of a parsed process ([`Engine::run_spec`]) or in trial
//!   order on one reusable [`TrialState`] ([`Engine::run_sequential`],
//!   which polls a [`CancelToken`] between trials — the campaign
//!   scheduler's one cancel flag), both folding each trial as it
//!   finishes, with one per-round hook, the [`Observer`] (outcomes,
//!   trajectories, duality's horizon snapshots, telemetry), reading
//!   through a [`RoundView`] that the unsharded and the sharded kernel
//!   both provide. All Monte-Carlo estimation in the workspace goes
//!   through it. Each worker thread owns one reusable process state and
//!   one [`cobra_process::StepCtx`] (RNG + scratch buffers), so
//!   steady-state trials perform zero heap allocation;
//! * [`objective`] — the first-class estimand: a parseable, sweepable
//!   [`Objective`] value (`cover`, `hit:V`/`hit:far`, `infection:T`,
//!   `duality:h{..}`, `trajectory`) that resolves to a [`StopWhen`] per
//!   graph and reduces trial outcomes through a streaming
//!   [`StoppingAccumulator`] (Welford + P² quantiles, O(1) memory).

pub mod engine;
pub mod objective;
mod runner;
pub mod seed;
mod shard;

pub use engine::{
    run_trial, CancelToken, Completion, Engine, Observer, RoundView, StopWhen, Trajectory,
    TrialOutcome, TrialState,
};
pub use objective::{
    HitTarget, Objective, StoppingAccumulator, StoppingEstimate, OBJECTIVE_USAGES,
};
pub use runner::resolve_threads;
pub use seed::{key_seed, shard_seed, trial_seed, SeedSequence};
