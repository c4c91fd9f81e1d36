//! Deterministic parallel Monte-Carlo trial runner.
//!
//! Every experiment in the reproduction is a map from trial index to an
//! independent simulation outcome. This crate provides:
//!
//! * [`seed`] — SplitMix64 seed derivation: one master seed fans out to
//!   per-trial seeds that are stable across runs, thread counts, and
//!   platforms;
//! * [`runner`] — an embarrassingly-parallel executor over
//!   `std::thread::scope` whose output is ordered by trial index, so a
//!   parallel run is bit-identical to a sequential one;
//! * [`engine`] — the unified [`Engine`]: one monomorphized trial loop
//!   driving any [`cobra_process::ProcessState`] under a [`StopWhen`]
//!   condition and a round cap, run in parallel over trials
//!   ([`Engine::run`]) or in trial order on one reusable [`TrialState`]
//!   ([`Engine::run_sequential`]), with pluggable [`Observer`] hooks
//!   (cover detection, trajectories, transmission accounting, round
//!   snapshots) reading through [`cobra_process::ProcessView`]. All
//!   Monte-Carlo estimation in the workspace goes through it. Each
//!   worker thread owns one reusable process state and one
//!   [`cobra_process::StepCtx`] (RNG + scratch buffers), so
//!   steady-state trials perform zero heap allocation;
//! * [`objective`] — the first-class estimand: a parseable, sweepable
//!   [`Objective`] value (`cover`, `hit:V`/`hit:far`, `infection:T`,
//!   `duality:h{..}`, `trajectory`) that resolves to a [`StopWhen`] per
//!   graph and reduces trial outcomes through a streaming
//!   [`StoppingAccumulator`] (Welford + P² quantiles, O(1) memory).
//!
//! An atomic work counter plus scoped threads cover everything the
//! workload needs.

pub mod engine;
pub mod objective;
pub mod queue;
pub mod runner;
pub mod seed;
pub mod shard;

pub use engine::{
    run_trial, run_trial_probed, Completion, Engine, Observer, StopWhen, Trajectory, TrialOutcome,
    TrialState,
};
pub use objective::{
    HitTarget, Objective, StoppingAccumulator, StoppingEstimate, OBJECTIVE_USAGES,
};
pub use queue::{CancelToken, Claimed, JobQueue, LaneId, QueueClosed, QueueStats};
pub use runner::{resolve_threads, run_trials, run_trials_with, RunConfig, MAX_RESERVED_TRIALS};
pub use seed::{key_seed, shard_seed, trial_seed, SeedSequence};
pub use shard::run_sharded_trial;
