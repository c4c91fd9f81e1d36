//! Telemetry for the COBRA stack: per-round records, phase timers,
//! trace sinks, and a metrics registry — always compiled, free when
//! off.
//!
//! The paper's cover-time story is really a story about frontier
//! dynamics: how fast the COBRA frontier grows and how much coalescing
//! eats the branching factor each round. This crate gives the engine
//! eyes on those quantities without taxing the measurement path:
//!
//! - [`RoundRecord`] and [`TrialTotals`] are what one round and one
//!   trial look like from outside. The engine's one per-round hook, the
//!   `cobra_mc::Observer`, builds them: a traced run wraps its observer
//!   in an engine-private telemetry observer that keeps the previous
//!   round's totals and hands each record to a [`RoundSink`]. An
//!   untraced run attaches nothing, so its loop is the plain one — which
//!   keeps the golden bit-identity and zero-allocation regressions true.
//! - **The observer contract is observe-only.** Observers run *after*
//!   `step()` returns and read the trial through a read-only view; they
//!   never draw from the trial RNG and never mutate process state, so
//!   the RNG stream — and therefore every per-trial outcome — is
//!   identical with telemetry off and on.
//! - [`RoundSink`] is the object-safe delivery side: [`TraceWriter`]
//!   streams exact-round-trip JSONL (with `every=N` subsampling so
//!   hypercube:20 traces stay bounded), [`MemorySink`] buffers records
//!   for tests, [`RegistrySink`] folds them into a [`MetricsRegistry`].
//! - [`PhaseTimers`] + [`PhaseClock`] split rounds into phases (draw /
//!   gather / coalesce unsharded; shard-gather / exchange / commit
//!   sharded) and keep a lap count and a nanosecond sum per phase.
//!   [`Log2Histogram`] is the registry's hand-rolled histogram — no
//!   external histogram dependency.
//! - [`status`] writes whole status lines in one `write` call each so
//!   concurrent writers cannot interleave partial lines.
//!
//! This crate is a leaf (it depends only on `cobra-util` for JSON) so
//! every layer of the stack can use it.
//!
//! ```
//! use cobra_obs::{MemorySink, RoundRecord, RoundSink};
//!
//! let mut sink = MemorySink::default();
//! sink.on_round(0, &RoundRecord {
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

pub mod metrics;
pub mod sink;
pub mod status;
pub mod timer;

pub use metrics::{MetricsRegistry, SharedRegistry};
pub use sink::{
    MemorySink, NullSink, RecordedRound, RegistrySink, RoundRecord, RoundSink, TraceWriter,
    TrialTotals,
};
pub use timer::{Log2Histogram, Phase, PhaseClock, PhaseTimers, PHASES};
