//! Telemetry for the COBRA stack: per-round probes, phase timers,
//! trace sinks, and a metrics registry — always compiled, zero-cost
//! when off.
//!
//! The paper's cover-time story is really a story about frontier
//! dynamics: how fast the COBRA frontier grows and how much coalescing
//! eats the branching factor each round. This crate gives the engine
//! eyes on those quantities without taxing the measurement path:
//!
//! - [`Probe`] is the monomorphized observation hook the trial loop
//!   (`cobra_mc::run_trial_probed`, which the sharded engine shares) is
//!   generic over. The default [`NoProbe`] sets `ENABLED = false`, so
//!   every instrumentation block (`if Pr::ENABLED { .. }`) compiles to
//!   nothing — the probes-off path is instruction-for-instruction the
//!   uninstrumented loop, which is what keeps the golden bit-identity
//!   and zero-allocation regressions trivially true.
//! - **The probe contract is observe-only.** Probes run *after*
//!   `step()` returns and compute every [`RoundRecord`] field from
//!   [`ProcessView`]-style deltas; they never draw from the trial RNG
//!   and never mutate process state, so the RNG stream — and therefore
//!   every per-trial outcome — is identical with probes off and on.
//! - [`RoundSink`] is the object-safe delivery side: [`TraceWriter`]
//!   streams exact-round-trip JSONL (with `every=N` subsampling so
//!   hypercube:20 traces stay bounded), [`MemorySink`] buffers records
//!   for tests, [`RegistrySink`] folds them into a [`MetricsRegistry`].
//! - [`PhaseTimers`] + [`PhaseClock`] split rounds into phases (draw /
//!   gather / coalesce unsharded; shard-gather / exchange / commit
//!   sharded) recorded into hand-rolled [`Log2Histogram`]s — no
//!   external histogram dependency.
//! - [`status`] writes whole status lines in one `write` call each so
//!   concurrent writers cannot interleave partial lines.
//!
//! `ProcessView` lives upstream in `cobra-process`; this crate is a
//! leaf (it depends only on `cobra-util` for JSON) so every layer of
//! the stack can use it.
//!
//! ```
//! use cobra_obs::{MemorySink, Probe, RoundRecord, RoundSink, SinkProbe};
//!
//! let mut sink = MemorySink::default();
//! let mut probe = SinkProbe::new(0, &mut sink);
//! probe.on_round(&RoundRecord {
//!     round: 1,
//!     frontier: 2,
//!     new_covered: 2,
//!     reached: 3,
//!     transmissions: 4,
//!     total_transmissions: 4,
//!     coalesced: 2,
//!     shard_traffic: &[],
//! });
//! assert_eq!(sink.rounds.len(), 1);
//! assert_eq!(sink.rounds[0].coalesced, 2);
//! ```
//!
//! [`ProcessView`]: https://docs.rs/cobra-process

pub mod metrics;
pub mod probe;
pub mod sink;
pub mod status;
pub mod timer;

pub use metrics::{MetricsRegistry, SharedRegistry};
pub use probe::{NoProbe, Probe, RoundRecord, TrialTotals};
pub use sink::{
    MemorySink, NullSink, RecordedRound, RegistrySink, RoundSink, SinkProbe, TraceWriter,
};
pub use timer::{Log2Histogram, Phase, PhaseClock, PhaseTimers, PHASES};
