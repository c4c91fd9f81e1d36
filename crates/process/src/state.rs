//! The zero-allocation stepping API: [`ProcessState`], [`ProcessView`],
//! and the per-worker [`StepCtx`].
//!
//! The paper's experiments run millions of rounds across thousands of
//! trials per scenario. Under the original API every trial rebuilt its
//! process from scratch (two `BitSet`s plus frontier `Vec`s per
//! construction) and every COBRA round allocated a fresh `next` vector,
//! so the inner loop was dominated by allocator traffic rather than
//! neighbour sampling. This module splits the process API in two:
//!
//! * a cheap, cloneable **description** — constructor parameters or a
//!   parsed [`crate::ProcessSpec`];
//! * a long-lived **state** — a [`ProcessState`] that is allocated once
//!   per worker thread and recycled across trials via
//!   [`ProcessState::reset`].
//!
//! All transient per-round storage lives in the [`StepCtx`] handed to
//! [`ProcessState::step`]: the RNG, the double-buffered frontier
//! vectors, the per-round coalescing mark [`BitSet`], and the `n + 1`
//! slots the COBRA pass compacts its next frontier into. One
//! `StepCtx` per worker thread serves every trial and every round, so
//! steady-state stepping performs **zero heap allocation** (pinned by
//! `tests/zero_alloc.rs` with a counting allocator).
//!
//! # Ownership rules
//!
//! * A `StepCtx` is exclusive to one worker thread; it is never shared
//!   or sent between trials running concurrently.
//! * [`Scratch`] buffers are valid only within a single `step` call.
//!   Processes must leave the mark bit set empty when they return
//!   (cheapest via [`BitSet::clear_indices`] over the bits they set);
//!   [`Scratch::parts`] debug-asserts that invariant on entry.
//! * Persistent process state (visited/infected sets, walker positions)
//!   lives in the `ProcessState` implementor itself and is recycled by
//!   `reset` without reallocating.

use cobra_graph::{Graph, Topology, VertexId};
use cobra_util::BitSet;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The read surface of a running process: what the Monte-Carlo
/// engine's stop conditions and observers inspect (the engine's
/// `RoundView` of an unsharded trial reads through it). Object-safe and
/// lifetime-free, so it serves every concrete process the
/// (monomorphized) trial loop drives.
pub trait ProcessView {
    /// Rounds executed so far.
    fn rounds(&self) -> usize;

    /// The set of vertices reached so far (cumulative for walk-like
    /// processes; the *current* infected set for BIPS, whose membership
    /// can fluctuate).
    fn reached(&self) -> &BitSet;

    /// Total point-to-point transmissions so far (the resource COBRA is
    /// designed to limit).
    fn transmissions(&self) -> u64;

    /// True once every vertex has been reached.
    fn is_complete(&self) -> bool {
        self.reached().is_full()
    }

    /// Number of vertices reached so far.
    fn reached_count(&self) -> usize {
        self.reached().count()
    }

    /// True iff `v` is currently in the reached set.
    fn has_reached(&self, v: VertexId) -> bool {
        self.reached().contains(v as usize)
    }

    /// Size of the *active frontier* after the last round — the set of
    /// vertices (or particles) that will transmit next round. Processes
    /// without a distinct frontier (BIPS, gossip) fall back to the
    /// reached count; COBRA reports its active-set size and the walk
    /// families their walker or live-particle count.
    /// Observability only: stop conditions never read it.
    fn frontier_len(&self) -> usize {
        self.reached_count()
    }
}

/// A round-synchronous spreading process as reusable state.
///
/// Constructors build a state ready to step; [`ProcessState::reset`]
/// returns it to that condition for the next trial without reallocating
/// its persistent buffers. `step` advances exactly one round, drawing
/// randomness from the [`StepCtx`] and borrowing its scratch buffers.
///
/// The trait is generic over the graph backend `T:`[`Topology`]
/// (defaulting to the CSR [`Graph`]); every process monomorphizes per
/// backend, so implicit O(1)-memory topologies step through exactly the
/// same zero-allocation kernels as CSR graphs — with bit-identical
/// trajectories, since backends agree on sorted neighbour order and RNG
/// consumption.
///
/// `reset` must not draw from the context RNG: the trial seed's stream
/// belongs entirely to the rounds, which is what keeps outcomes
/// bit-identical to the historical build-per-trial API.
pub trait ProcessState<'g, T: Topology = Graph>: ProcessView {
    /// Restores the state to round 0 on `g` with the given start set,
    /// reusing existing allocations wherever the graph size allows.
    ///
    /// Start-set interpretation follows the process's constructor
    /// convention (single-source processes use `start[0]`; the
    /// multi-particle walks re-derive their placements from a single
    /// start exactly as [`crate::ProcessSpec::build`] does).
    fn reset(&mut self, g: &'g T, start: &[VertexId]);

    /// Advances one synchronous round.
    fn step(&mut self, ctx: &mut StepCtx);

    /// Steps until `stop` holds or `cap` rounds have run: the whole
    /// trial loop of an observer that reads no round. `Some(rounds)` is
    /// the stopping time (0 if `stop` holds at round 0), `None` a trial
    /// censored at the cap (always for [`StopWhen::AtCap`]).
    ///
    /// Provided, so it monomorphizes per kernel, and
    /// [`BoxedProcess`] forwards it: a boxed trial makes one dynamic
    /// call here, not three per round.
    fn run_until(&mut self, stop: StopWhen, ctx: &mut StepCtx, cap: usize) -> Option<usize> {
        loop {
            if stop.holds(self) {
                return Some(self.rounds());
            }
            if self.rounds() >= cap {
                return None;
            }
            self.step(ctx);
        }
    }
}

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

impl StopWhen {
    /// Whether a process in `view`'s state has met this condition.
    #[inline]
    pub fn holds<V: ProcessView + ?Sized>(self, view: &V) -> bool {
        match self {
            StopWhen::Complete => view.is_complete(),
            StopWhen::Reached(v) => view.has_reached(v),
            StopWhen::ReachedCount(k) => view.reached_count() >= k,
            StopWhen::AtCap => false,
        }
    }
}

/// A type-erased process state — the thin adapter the string-spec
/// ([`crate::ProcessSpec`]) CLI entry point hands to the engine. Built
/// once per worker and reset per trial, so even the dynamic path
/// allocates only at worker start-up. The erasure is over the *process*
/// only; the graph backend stays a concrete type parameter, so stepping
/// through the box still reads the topology with no double dispatch.
pub type BoxedProcess<'g, T = Graph> = Box<dyn ProcessState<'g, T> + 'g>;

impl<'g, T: Topology> ProcessView for BoxedProcess<'g, T> {
    fn rounds(&self) -> usize {
        (**self).rounds()
    }
    fn reached(&self) -> &BitSet {
        (**self).reached()
    }
    fn transmissions(&self) -> u64 {
        (**self).transmissions()
    }
    fn is_complete(&self) -> bool {
        (**self).is_complete()
    }
    fn reached_count(&self) -> usize {
        (**self).reached_count()
    }
    fn has_reached(&self, v: VertexId) -> bool {
        (**self).has_reached(v)
    }
    fn frontier_len(&self) -> usize {
        (**self).frontier_len()
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for BoxedProcess<'g, T> {
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        (**self).reset(g, start)
    }
    fn step(&mut self, ctx: &mut StepCtx) {
        (**self).step(ctx)
    }
    fn run_until(&mut self, stop: StopWhen, ctx: &mut StepCtx, cap: usize) -> Option<usize> {
        (**self).run_until(stop, ctx, cap)
    }
}

/// Per-worker stepping context: the trial RNG plus the shared scratch
/// buffers. Allocated once per worker thread, reused by every trial and
/// round that worker executes.
#[derive(Debug, Clone)]
pub struct StepCtx {
    /// The trial's random stream. Reseeded (not reconstructed) at each
    /// trial boundary via [`StepCtx::reseed`], which reproduces exactly
    /// the stream `SmallRng::seed_from_u64` would give a fresh process.
    pub rng: SmallRng,
    /// Round-transient buffers; see [`Scratch`].
    pub scratch: Scratch,
    /// Phase timers, when telemetry is enabled (`None` by default).
    /// Kernels that support phase timing lap draw/gather/coalesce into
    /// these histograms; `None` costs one branch per phase boundary and
    /// never calls `Instant::now`. Timers survive [`StepCtx::reseed`],
    /// accumulating across the trials of one traced run.
    pub timers: Option<Box<cobra_obs::PhaseTimers>>,
}

impl StepCtx {
    /// A context seeded with `seed`.
    pub fn seeded(seed: u64) -> StepCtx {
        StepCtx {
            rng: SmallRng::seed_from_u64(seed),
            scratch: Scratch::default(),
            timers: None,
        }
    }

    /// An unseeded context (seed 0) — callers that drive trials
    /// themselves should [`StepCtx::reseed`] before each trial.
    pub fn new() -> StepCtx {
        StepCtx::seeded(0)
    }

    /// Restarts the RNG stream for a new trial, keeping the scratch
    /// buffers (and their capacity) intact.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }
}

impl Default for StepCtx {
    fn default() -> StepCtx {
        StepCtx::new()
    }
}

/// Round-transient scratch storage shared by all processes on a worker.
///
/// The buffers grow to the high-water mark of the scenarios the worker
/// runs and are never shrunk, so steady-state rounds perform no heap
/// allocation. Contents are meaningless between `step` calls except for
/// the invariant that `mark` is empty.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Back buffer for the next frontier (double-buffered against the
    /// process's own frontier via `mem::swap`).
    frontier: Vec<VertexId>,
    /// `n + 1` slots the COBRA pass compacts the next frontier into
    /// with plain indexed stores; resized only when `n` changes.
    slots: Vec<VertexId>,
    /// Per-round coalescing marks; empty between rounds.
    mark: BitSet,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            frontier: Vec::new(),
            slots: Vec::new(),
            mark: BitSet::new(0),
        }
    }
}

/// Mutable views of the scratch buffers, borrowed for one `step` call.
pub struct ScratchParts<'a> {
    /// Next-frontier back buffer (cleared).
    pub frontier: &'a mut Vec<VertexId>,
    /// Exactly `n + 1` slots; contents unspecified.
    pub slots: &'a mut [VertexId],
    /// Mark bit set over `0..n`, guaranteed empty.
    pub mark: &'a mut BitSet,
}

impl Scratch {
    /// Borrows all scratch buffers for a universe of `n` vertices. The
    /// frontier comes back cleared with its capacity intact; `mark` and
    /// `slots` are resized (only when the universe changes) and `mark`
    /// is guaranteed empty.
    pub fn parts(&mut self, n: usize) -> ScratchParts<'_> {
        // `slots` and `mark` are only ever resized together.
        if self.slots.len() != n + 1 {
            self.mark = BitSet::new(n);
            self.slots = vec![0; n + 1];
        }
        debug_assert_eq!(self.mark.count(), 0, "mark left dirty by a prior step");
        self.frontier.clear();
        // The frontier is empty here, so this guarantees capacity ≥ n —
        // a frontier is duplicate-free and can never outgrow it.
        self.frontier.reserve(n);
        ScratchParts {
            frontier: &mut self.frontier,
            slots: &mut self.slots,
            mark: &mut self.mark,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_matches_fresh_seeding() {
        use rand::Rng;
        let mut ctx = StepCtx::seeded(7);
        let _ = ctx.rng.next_u64();
        ctx.reseed(42);
        let mut fresh = SmallRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(ctx.rng.next_u64(), fresh.next_u64());
        }
    }

    #[test]
    fn parts_resizes_mark_and_clears_vecs() {
        let mut s = Scratch::default();
        {
            let p = s.parts(100);
            assert_eq!((p.mark.len(), p.slots.len()), (100, 101));
            p.frontier.push(1);
            p.slots[100] = 3;
            p.mark.insert(5);
            p.mark.remove(5);
        }
        let p = s.parts(64);
        assert_eq!((p.mark.len(), p.slots.len()), (64, 65));
        assert!(p.frontier.is_empty());
    }

    #[test]
    fn parts_keeps_capacity() {
        let mut s = Scratch::default();
        {
            let p = s.parts(32);
            for i in 0..1000 {
                p.frontier.push(i);
            }
            p.slots[7] = 9;
        }
        let p = s.parts(32);
        assert!(p.frontier.capacity() >= 1000, "capacity shrank");
        // Same universe: the slots are reused, not reallocated.
        assert_eq!(p.slots[7], 9);
    }
}
