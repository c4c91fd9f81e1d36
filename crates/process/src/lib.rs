//! The random processes of the SPAA 2017 paper and their baselines.
//!
//! * [`cobra`] — the COBRA process `(C_t)`: every vertex holding the
//!   token pushes it to `b` uniformly random neighbours (with
//!   replacement); simultaneous arrivals coalesce. `b = 1` is the simple
//!   random walk; `b = 1+ρ` is the fractional-branching variant of §6.
//! * [`bips`] — the dual BIPS process `(A_t)` (Biased Infection with
//!   Persistent Source): every vertex samples `b` random neighbours each
//!   round and is infected next round iff it sampled an infected one;
//!   the source is always infected. Two provably law-identical round
//!   implementations (literal sampling and a Bernoulli fast path).
//! * [`serial`] — the paper's §3 proof device: a BIPS round expanded
//!   into per-vertex steps over the candidate set, recording the
//!   martingale increments `Y_l = d(u)·X_u − d_A(u)` of equation (14).
//! * [`walk`] — simple random walk and `k` independent random walks.
//! * [`coalescing`] — `k` coalescing (non-branching) walks, the
//!   ablation for COBRA's branching step.
//! * [`gossip`] — round-synchronous PUSH/PULL rumour spreading (informed
//!   vertices stay informed), the classic comparison point.
//!
//! # The spec / state split
//!
//! Every process exists at two layers:
//!
//! * **Description** — constructor parameters, or a parsed
//!   [`ProcessSpec`] (`"cobra:b2"`, `"bips:rho0.5:lazy"`, …). Cheap,
//!   cloneable, serialisable data.
//! * **State** — a long-lived [`ProcessState`]: `reset(g, start)`
//!   restores round 0 without reallocating, `step(&mut StepCtx)`
//!   advances one round drawing randomness and scratch buffers from the
//!   per-worker [`StepCtx`]. The engine's stop conditions and observers
//!   read through the object-safe [`ProcessView`] surface.
//!
//! The Monte-Carlo engine in `cobra-mc` monomorphizes its trial loop
//! over `P: ProcessState`; [`ProcessSpec::build`] returns the
//! [`BoxedProcess`] adapter for string-driven entry points. See
//! [`state`] for the `StepCtx` ownership rules.
//!
//! Every process is additionally generic over the graph backend
//! `T: cobra_graph::Topology` (default: the CSR `Graph`): the implicit
//! O(1)-memory families step through the same monomorphized kernels
//! with bit-identical trajectories, since all backends agree on sorted
//! neighbour order and RNG consumption.

pub mod bips;
pub mod branching;
pub mod coalescing;
pub mod cobra;
pub mod gossip;
pub mod serial;
pub mod shard;
pub mod spec;
pub mod state;
pub mod walk;

pub use bips::{Bips, BipsMode};
pub use branching::{Branching, InfectionThresholds, Laziness};
pub use coalescing::CoalescingWalks;
pub use cobra::Cobra;
pub use gossip::{Gossip, GossipMode};
pub use serial::{SerialBips, StepRecord};
pub use shard::{per_shard_state_bytes, ShardKernel, ShardedState};
pub use spec::{ProcessSpec, ProcessSpecError};
pub use state::{
    BoxedProcess, ProcessState, ProcessView, Scratch, ScratchParts, StepCtx, StopWhen,
};
pub use walk::{MultiWalk, RandomWalk};
