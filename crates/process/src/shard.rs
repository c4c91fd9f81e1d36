//! The sharded trial engine: partitioned vertex state plus cross-shard
//! activation exchange.
//!
//! PR 5's implicit topologies made the *graph* free; at hypercube:30 the
//! remaining wall is the O(n) visited/infected state and the
//! single-threaded round loop that sweeps it. This module partitions
//! that state by vertex ownership: a [`ShardMap`] splits `0..n` into
//! contiguous ranges and each shard slot owns one range's bitsets,
//! frontier, scratch, and an independent RNG stream. No shard ever
//! writes another shard's state.
//!
//! # Round structure
//!
//! A round is two phases separated by a barrier:
//!
//! 1. **gather** — every shard walks its local frontier, draws picks
//!    from its own RNG, and resolves them through the [`Topology`]
//!    trait (implicit backends need no shared graph at all).
//!    Destinations the shard owns are applied directly; remotely-owned
//!    activations are appended to a per-destination outbox.
//! 2. **exchange + apply** — the outboxes live in one sender-major
//!    table beside the slots (no channel machinery, no per-round
//!    buffers), so every shard drains the entries addressed to it — in
//!    sender order — straight from the table and commits its next
//!    frontier.
//!
//! Phases run the slots either sequentially or on scoped worker
//! threads; each closure touches exactly one slot (and, gathering, its
//! own outbox row) and reads the outbox table only once gathering is
//! done, so the trajectory is **bit-identical for a fixed
//! shard count regardless of thread count**. The shard count itself
//! *does* change which RNG stream serves which vertex, so `shards=` is
//! part of a result's identity (unlike `backend=`).
//!
//! # RNG streams
//!
//! Shard `i` seeds its own `SmallRng` from a caller-supplied
//! `seed_of(i)` — the `cobra-mc` layer derives it as
//! `key_seed(trial_seed, "shard:i")`, giving every `(trial, shard)`
//! pair an independent, reproducible stream.
//!
//! # Law, not trajectory
//!
//! The sharded kernels implement the same *processes* as
//! [`Cobra`](crate::Cobra)/[`Bips`](crate::Bips) — identical per-vertex
//! pick distributions — but draw in shard-local ascending-id order
//! rather than the unsharded kernels' frontier order, so a sharded run
//! is a different (equally valid) sample path. `shards=1` callers are
//! expected to use the unsharded engine (the `SimSpec` layer does so
//! automatically), which keeps the single-shard path zero-alloc and
//! bit-identical to every existing golden result.

use crate::branching::{Branching, InfectionThresholds, Laziness};
use cobra_graph::{ShardMap, Topology, VertexId};
use cobra_util::BitSet;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::Range;

/// Which process a [`ShardedState`] runs. Only the set-valued processes
/// shard (their per-vertex updates commute within a round); walk-like
/// and gossip processes do not.
///
/// BIPS always runs its Bernoulli law here — the law `exact` sampling
/// is equivalent to, per the KS-tested equivalence in
/// [`bips`](crate::bips) — and draws each candidate through the same
/// exact [`InfectionThresholds`] table as the unsharded kernel, one per
/// shard slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardKernel {
    /// COBRA: every frontier vertex pushes `b` copies; arrivals
    /// coalesce; visited is monotone.
    Cobra {
        branching: Branching,
        laziness: Laziness,
    },
    /// BIPS: every vertex samples `b` neighbours; infected iff one was
    /// infected; the source is persistent.
    Bips {
        branching: Branching,
        laziness: Laziness,
    },
}

/// One shard's worth of vertex state: everything needed to run its
/// contiguous id range through a round.
#[derive(Debug)]
struct ShardSlot {
    index: usize,
    /// The global-id range this shard owns.
    range: Range<usize>,
    /// COBRA: `∪_{t'≤t} C_t'` over the local span (empty for BIPS).
    visited: BitSet,
    /// Current frontier / infected set over the local span.
    active: BitSet,
    /// Next round's frontier, assembled during gather + drain.
    next: BitSet,
    /// This shard's private RNG stream.
    rng: SmallRng,
    /// COBRA: cumulative local visited count (kept incrementally so
    /// global coverage is an O(shards) sum).
    reached: usize,
    transmissions: u64,
    /// BIPS scratch: `d_A(u)` counters over the local span.
    d_a: Vec<u32>,
    /// BIPS scratch: local vertices with nonzero `d_a` this round.
    cand: BitSet,
    /// BIPS: the exact draw thresholds, kept across resets.
    thresholds: InfectionThresholds,
}

impl ShardKernel {
    /// Lengths of the kernel-specific buffers over a `span`-vertex
    /// shard, as `(visited, d_a)`: COBRA keeps `visited`; BIPS keeps the
    /// `d_a` counters and their `cand` bitset.
    fn scratch_lens(self, span: usize) -> (usize, usize) {
        match self {
            ShardKernel::Cobra { .. } => (span, 0),
            ShardKernel::Bips { .. } => (0, span),
        }
    }
}

impl ShardSlot {
    fn new(index: usize, range: Range<usize>, kernel: ShardKernel) -> ShardSlot {
        let span = range.end - range.start;
        let (visited_len, d_a_len) = kernel.scratch_lens(span);
        let (ShardKernel::Cobra {
            branching,
            laziness,
        }
        | ShardKernel::Bips {
            branching,
            laziness,
        }) = kernel;
        ShardSlot {
            index,
            range,
            visited: BitSet::new(visited_len),
            active: BitSet::new(span),
            next: BitSet::new(span),
            rng: SmallRng::seed_from_u64(0),
            reached: 0,
            transmissions: 0,
            d_a: vec![0; d_a_len],
            cand: BitSet::new(d_a_len),
            thresholds: InfectionThresholds::new(branching, laziness),
        }
    }
}

/// Runs `f` over every slot (with, gathering, its outbox row),
/// sequentially (`threads <= 1`) or on scoped worker threads. Each
/// invocation owns exactly one slot, so the results are identical
/// either way — the parallel path only changes wall-clock time.
fn for_each_slot<S: Send>(
    threads: usize,
    mut slots: impl ExactSizeIterator<Item = S>,
    f: impl Fn(S) + Sync,
) {
    let len = slots.len();
    if threads <= 1 || len <= 1 {
        slots.for_each(f);
        return;
    }
    let chunk = len.div_ceil(threads.min(len));
    std::thread::scope(|scope| {
        let f = &f;
        for _ in 0..len.div_ceil(chunk) {
            let mine: Vec<S> = slots.by_ref().take(chunk).collect();
            scope.spawn(move || mine.into_iter().for_each(f));
        }
    });
}

/// Heap bytes of one shard's resident vertex state under `kernel`: the
/// bitsets and counters `ShardSlot::new` allocates over a full span
/// (outboxes are traffic-dependent and excluded). The
/// `SimSpec::resolve()` planning surface reports this next to
/// resident-graph bytes.
pub fn per_shard_state_bytes(n: usize, shards: usize, kernel: ShardKernel) -> usize {
    let span = ShardMap::new(n, shards).span().min(n);
    let (visited_len, d_a_len) = kernel.scratch_lens(span);
    let bitset = |len: usize| len.div_ceil(64) * std::mem::size_of::<u64>();
    // visited + active + next + cand, then the d_a counters.
    bitset(visited_len) + 2 * bitset(span) + bitset(d_a_len) + d_a_len * std::mem::size_of::<u32>()
}

/// A spreading process partitioned across shards.
///
/// Build once with [`ShardedState::new`], then [`reset`](Self::reset) +
/// [`step`](Self::step) per trial — like the unsharded
/// [`ProcessState`](crate::ProcessState) contract, steady-state rounds
/// reuse every buffer.
#[derive(Debug)]
pub struct ShardedState<'g, T: Topology> {
    g: &'g T,
    map: ShardMap,
    kernel: ShardKernel,
    slots: Vec<ShardSlot>,
    /// Outgoing activations, sender-major: `outboxes[s][d]` holds what
    /// shard `s` sends shard `d` this round. Entries are
    /// *receiver-local* ids — senders pay the ownership split once so
    /// receivers drain with bare bit-sets. Kept beside `slots` so the
    /// commit phase reads every row while it mutates the slots.
    outboxes: Vec<Vec<Vec<VertexId>>>,
    rounds: usize,
    source: VertexId,
    /// Telemetry switch (see [`instrument`](Self::instrument)); off by
    /// default so the measurement path never touches the fields below.
    instrument: bool,
    /// Outbox traffic per *sender* shard for the last executed round
    /// (vertex ids pushed through the exchange barrier). Empty unless
    /// instrumented.
    last_traffic: Vec<u64>,
    /// Phase timers (shard-gather / exchange / commit), when enabled.
    timers: Option<Box<cobra_obs::PhaseTimers>>,
}

impl<'g, T: Topology + Sync> ShardedState<'g, T> {
    /// Allocates shard state for `g` partitioned `shards` ways. The
    /// state is inert until [`reset`](Self::reset) seeds it.
    pub fn new(g: &'g T, kernel: ShardKernel, shards: usize) -> ShardedState<'g, T> {
        match kernel {
            ShardKernel::Cobra { branching, .. } | ShardKernel::Bips { branching, .. } => {
                branching.validate()
            }
        }
        let map = g.shard_map(shards);
        let slots = (0..shards)
            .map(|i| ShardSlot::new(i, map.range(i), kernel))
            .collect();
        ShardedState {
            g,
            map,
            kernel,
            slots,
            outboxes: vec![vec![Vec::new(); shards]; shards],
            rounds: 0,
            source: 0,
            instrument: false,
            last_traffic: Vec::new(),
            timers: None,
        }
    }

    /// Turns on telemetry: per-round outbox traffic capture and, when
    /// `timers` is set, phase timing of gather / exchange / commit.
    /// Observe-only — the RNG streams and trajectories are unchanged
    /// (pinned by the sharded probe-identity test).
    pub fn instrument(&mut self, timers: bool) {
        self.instrument = true;
        self.last_traffic = vec![0; self.slots.len()];
        if timers {
            self.timers = Some(Box::default());
        }
    }

    /// Outbox traffic of the last executed round, one entry per
    /// *sender* shard: how many vertex ids that shard pushed through
    /// the exchange barrier. Empty unless [`instrument`](Self::instrument)ed.
    pub fn last_outbox_traffic(&self) -> &[u64] {
        &self.last_traffic
    }

    /// The accumulated phase timers, if timing was enabled.
    pub fn timers(&self) -> Option<&cobra_obs::PhaseTimers> {
        self.timers.as_deref()
    }

    /// Active frontier size after the last round: vertices that will
    /// transmit next round, summed across shards (mirrors the
    /// unsharded [`ProcessView::frontier_len`](crate::ProcessView::frontier_len)).
    /// Counts the set bits: the COBRA gather fills the frontier with
    /// uncounted inserts, so `BitSet::count` is stale there.
    pub fn frontier_len(&self) -> usize {
        self.slots
            .iter()
            .flat_map(|s| s.active.words())
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Restores round 0 from a single start vertex, reseeding shard
    /// `i`'s RNG from `seed_of(i)` (the `cobra-mc` layer passes
    /// `|i| shard_seed(trial_seed, i)`). No allocation.
    pub fn reset(&mut self, start: VertexId, seed_of: impl Fn(usize) -> u64) {
        let n = self.map.n();
        assert!((start as usize) < n, "start vertex {start} out of range");
        self.source = start;
        self.rounds = 0;
        for slot in &mut self.slots {
            slot.rng = SmallRng::seed_from_u64(seed_of(slot.index));
            slot.active.clear();
            slot.next.clear();
            slot.visited.clear();
            slot.cand.clear();
            slot.d_a.fill(0);
            slot.reached = 0;
            slot.transmissions = 0;
        }
        let owner = self.map.owner(start as usize);
        let local = self.map.local(start as usize);
        let slot = &mut self.slots[owner];
        slot.active.insert(local);
        if matches!(self.kernel, ShardKernel::Cobra { .. }) {
            slot.visited.insert(local);
            slot.reached = 1;
        }
    }

    /// Rounds executed since the last reset.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Vertices currently counted as reached: cumulative visited for
    /// COBRA, the current infected set for BIPS (matching the unsharded
    /// processes' `reached` semantics).
    pub fn reached_count(&self) -> usize {
        match self.kernel {
            ShardKernel::Cobra { .. } => self.slots.iter().map(|s| s.reached).sum(),
            ShardKernel::Bips { .. } => self.slots.iter().map(|s| s.active.count()).sum(),
        }
    }

    /// Total transmissions across all shards.
    pub fn transmissions(&self) -> u64 {
        self.slots.iter().map(|s| s.transmissions).sum()
    }

    /// True when every vertex is reached.
    pub fn is_complete(&self) -> bool {
        self.reached_count() == self.map.n()
    }

    /// True iff `v` is reached, answered by its owning shard.
    pub fn has_reached(&self, v: VertexId) -> bool {
        let slot = &self.slots[self.map.owner(v as usize)];
        let local = self.map.local(v as usize);
        match self.kernel {
            ShardKernel::Cobra { .. } => slot.visited.contains(local),
            ShardKernel::Bips { .. } => slot.active.contains(local),
        }
    }

    /// Executes one round on up to `threads` worker threads
    /// (`threads <= 1` runs the slots sequentially; the trajectory is
    /// identical either way).
    pub fn step(&mut self, threads: usize) {
        let (g, map, kernel, source) = (self.g, self.map, self.kernel, self.source);
        // Telemetry only: taken out for the round so the clock can
        // borrow it while the slot loops borrow `self.slots`.
        let mut timers = self.timers.take();
        let mut clock = timers.as_deref_mut().map(cobra_obs::PhaseClock::start);
        // Phase 1: shard-local gather. Locally-owned destinations are
        // applied directly; remote ones queue in the slot's outbox row,
        // emptied of last round's entries first.
        let gather = self.slots.iter_mut().zip(self.outboxes.iter_mut());
        for_each_slot(threads, gather, |(slot, outbox)| {
            outbox.iter_mut().for_each(Vec::clear);
            match kernel {
                ShardKernel::Cobra {
                    branching,
                    laziness,
                } => cobra_gather(slot, outbox, g, &map, branching, laziness),
                ShardKernel::Bips { .. } => bips_scatter(slot, outbox, g, &map),
            }
        });
        if let Some(c) = clock.as_mut() {
            c.lap(cobra_obs::Phase::ShardGather);
        }
        // Barrier: from here on the outboxes are read-only.
        let outboxes = &self.outboxes;
        if self.instrument {
            for (traffic, sent) in self.last_traffic.iter_mut().zip(outboxes) {
                *traffic = sent.iter().map(|buf| buf.len() as u64).sum();
            }
        }
        if let Some(c) = clock.as_mut() {
            c.lap(cobra_obs::Phase::Exchange);
        }
        // Phase 2: drain the entries addressed to each slot (in sender
        // order) and commit.
        for_each_slot(threads, self.slots.iter_mut(), |slot| match kernel {
            ShardKernel::Cobra { .. } => {
                for sender in outboxes {
                    for &w in &sender[slot.index] {
                        slot.next.set_uncounted(w as usize);
                    }
                }
                cobra_commit(slot);
            }
            ShardKernel::Bips {
                branching,
                laziness,
            } => {
                for sender in outboxes {
                    for &w in &sender[slot.index] {
                        slot.cand.set_uncounted(w as usize);
                        slot.d_a[w as usize] += 1;
                    }
                }
                bips_draw_and_commit(slot, g, &map, branching, laziness, source);
            }
        });
        self.rounds += 1;
        if let Some(c) = clock.as_mut() {
            c.lap(cobra_obs::Phase::Commit);
        }
        self.timers = timers;
    }
}

/// Two independent uniform draws from `0..deg` out of a single RNG
/// word: a 32-bit Lemire multiply-shift per half, with the bias zone
/// (probability `deg / 2^32` per draw — astronomically rare for graph
/// degrees) rejected exactly, so each half is *exactly* uniform.
#[inline]
fn pick_pair(rng: &mut SmallRng, deg: u32) -> (u32, u32) {
    let r = rng.next_u64();
    (
        lemire_u32(rng, r as u32, deg),
        lemire_u32(rng, (r >> 32) as u32, deg),
    )
}

/// Maps the 32-bit sample `x` to `0..deg` by widening multiply,
/// rejecting the `2^32 mod deg`-wide bias zone (Lemire's
/// nearly-divisionless method; the `%` runs only on the cold path).
#[inline]
fn lemire_u32(rng: &mut SmallRng, x: u32, deg: u32) -> u32 {
    let mut m = x as u64 * deg as u64;
    if (m as u32) < deg {
        let t = deg.wrapping_neg() % deg;
        while (m as u32) < t {
            m = rng.next_u32() as u64 * deg as u64;
        }
    }
    (m >> 32) as u32
}

/// Routes destination `w`: into the local next-frontier when owned,
/// into the owner's outbox otherwise. Outbox entries carry the
/// *receiver-local* id — the sender already paid for the
/// `(owner, local)` split, so the drain side is a bare bit-set.
#[inline]
fn route_cobra(
    w: VertexId,
    slot_index: usize,
    map: &ShardMap,
    next: &mut BitSet,
    outbox: &mut [Vec<VertexId>],
) {
    let (owner, local) = map.route(w as usize);
    if owner == slot_index {
        next.set_uncounted(local);
    } else {
        outbox[owner].push(local as VertexId);
    }
}

/// COBRA gather: every local frontier vertex draws its `b` picks (in
/// ascending local-id order) and routes the copies. Fused
/// draw-resolve-route — the sharded engine trades the unsharded
/// kernel's pick/dest staging buffers for one bitset insert per pick,
/// which keeps each shard's working set to its own span.
fn cobra_gather<T: Topology>(
    slot: &mut ShardSlot,
    outbox: &mut [Vec<VertexId>],
    g: &T,
    map: &ShardMap,
    branching: Branching,
    laziness: Laziness,
) {
    let ShardSlot {
        index,
        range,
        active,
        next,
        rng,
        transmissions,
        ..
    } = slot;
    let base = range.start;
    // `neighbor(v, i)` is contractually `resolve_pick(neighbor_range(v).0
    // + i)`, but skips packing and unpacking the pick token.
    match (branching, laziness) {
        (Branching::Fixed(b), Laziness::None) => {
            // The saturated-frontier fast path: walk the frontier words
            // directly (no iterator state) and count the frontier
            // inline, so `next` can take branchless uncounted inserts.
            let mut frontier = 0u64;
            for (wi, &word) in active.words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let lv = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    frontier += 1;
                    let v = (base + lv) as VertexId;
                    let deg = g.degree(v);
                    assert!(deg > 0, "COBRA cannot push from isolated vertex {v}");
                    if b == 2 {
                        // Paired picks: one RNG word serves both draws,
                        // halving the serial state-advance chain on the
                        // b=2 workhorse configuration.
                        let (i, j) = pick_pair(rng, deg as u32);
                        route_cobra(g.neighbor(v, i as usize), *index, map, next, outbox);
                        route_cobra(g.neighbor(v, j as usize), *index, map, next, outbox);
                    } else {
                        for _ in 0..b {
                            let w = g.neighbor(v, rng.random_range(0..deg));
                            route_cobra(w, *index, map, next, outbox);
                        }
                    }
                }
            }
            *transmissions += frontier * b as u64;
        }
        _ => {
            for lv in active.iter() {
                let v = (base + lv) as VertexId;
                let copies = branching.sample(rng);
                *transmissions += copies as u64;
                let deg = g.degree(v);
                for _ in 0..copies {
                    let w = match laziness {
                        Laziness::None => {
                            assert!(deg > 0, "COBRA cannot push from isolated vertex {v}");
                            g.neighbor(v, rng.random_range(0..deg))
                        }
                        Laziness::Half => {
                            if rng.random_bool(0.5) {
                                v
                            } else {
                                assert!(deg > 0, "COBRA cannot push from isolated vertex {v}");
                                g.neighbor(v, rng.random_range(0..deg))
                            }
                        }
                    };
                    route_cobra(w, *index, map, next, outbox);
                }
            }
        }
    }
}

/// COBRA commit: fold the assembled next-frontier into visited word by
/// word, counting fresh coverage per word, then swap frontiers.
fn cobra_commit(slot: &mut ShardSlot) {
    let ShardSlot {
        visited,
        active,
        next,
        reached,
        ..
    } = slot;
    for wi in 0..next.words().len() {
        let bits = next.words()[wi];
        if bits != 0 {
            *reached += visited.or_word(wi, bits).count_ones() as usize;
        }
    }
    std::mem::swap(active, next);
    next.clear();
}

/// BIPS scatter: every local infected vertex contributes +1 to each
/// neighbour's `d_A` — locally when owned, via the outbox otherwise
/// (outbox entries carry multiplicity, one receiver-local id per edge).
fn bips_scatter<T: Topology>(
    slot: &mut ShardSlot,
    outbox: &mut [Vec<VertexId>],
    g: &T,
    map: &ShardMap,
) {
    let ShardSlot {
        index,
        range,
        active,
        d_a,
        cand,
        ..
    } = slot;
    let base = range.start;
    for lu in active.iter() {
        let u = (base + lu) as VertexId;
        g.for_each_neighbor(u, |w| {
            let (owner, local) = map.route(w as usize);
            if owner == *index {
                cand.set_uncounted(local);
                d_a[local] += 1;
            } else {
                outbox[owner].push(local as VertexId);
            }
        });
    }
}

/// BIPS draw + commit: with all `d_A` contributions in, draw one
/// Bernoulli per candidate (ascending local order) as an integer
/// compare against the slot's [`InfectionThresholds`] — the same
/// decision and the same words as `random_bool(p)` — re-insert the
/// source, handle the lazy self-pick extras, and swap in the new
/// infected set.
fn bips_draw_and_commit<T: Topology>(
    slot: &mut ShardSlot,
    g: &T,
    map: &ShardMap,
    branching: Branching,
    laziness: Laziness,
    source: VertexId,
) {
    let ShardSlot {
        index,
        range,
        active,
        next,
        rng,
        transmissions,
        d_a,
        cand,
        thresholds,
        ..
    } = slot;
    let base = range.start;
    let owns_source = map.owner(source as usize) == *index;
    let source_local = map.local(source as usize);
    if owns_source {
        next.insert(source_local);
    }
    // `cand` never repeats a vertex and the lazy extras are disjoint
    // from it, so only the source is in `next` yet: the hit is ORed in
    // without testing membership or branching on the coin.
    for lu in cand.iter() {
        if owns_source && lu == source_local {
            continue;
        }
        let u = (base + lu) as VertexId;
        let hit = thresholds.draw(rng, g.degree(u), d_a[lu], active.contains(lu));
        next.or_word(lu / 64, u64::from(hit) << (lu % 64));
    }
    if laziness == Laziness::Half {
        // Infected vertices with no infected neighbour still get their
        // self-pick chance; those with d_a > 0 were drawn above.
        for lu in active.iter() {
            if d_a[lu] > 0 || (owns_source && lu == source_local) {
                continue;
            }
            let u = (base + lu) as VertexId;
            let hit = thresholds.draw(rng, g.degree(u), 0, true);
            next.or_word(lu / 64, u64::from(hit) << (lu % 64));
        }
    }
    // Transmission accounting matches the unsharded Bernoulli path —
    // what the process would send, counted once (by the leader shard).
    if *index == 0 {
        *transmissions += ((map.n() - 1) as f64 * branching.expected()).round() as u64;
    }
    for lu in cand.iter() {
        d_a[lu] = 0;
    }
    cand.clear();
    std::mem::swap(active, next);
    next.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use cobra_graph::HypercubeTopo;

    fn cobra_b2() -> ShardKernel {
        ShardKernel::Cobra {
            branching: Branching::B2,
            laziness: Laziness::None,
        }
    }

    fn bips_b2() -> ShardKernel {
        ShardKernel::Bips {
            branching: Branching::B2,
            laziness: Laziness::None,
        }
    }

    fn run_cover<T: Topology + Sync>(
        g: &T,
        kernel: ShardKernel,
        shards: usize,
        threads: usize,
        seed: u64,
        cap: usize,
    ) -> (Option<usize>, usize, u64) {
        let mut s = ShardedState::new(g, kernel, shards);
        s.reset(0, |i| seed.wrapping_mul(31).wrapping_add(i as u64));
        while !s.is_complete() {
            if s.rounds() >= cap {
                return (None, s.reached_count(), s.transmissions());
            }
            s.step(threads);
        }
        (Some(s.rounds()), s.reached_count(), s.transmissions())
    }

    #[test]
    fn sharded_cobra_covers_small_graphs() {
        for g in [generators::complete(64), generators::hypercube(6)] {
            for shards in [1, 2, 4, 7] {
                let (rounds, reached, tx) = run_cover(&g, cobra_b2(), shards, 1, 42, 10_000);
                let rounds = rounds.expect("censored");
                assert!(rounds >= 6, "beat the doubling bound on n=64: {rounds}");
                assert_eq!(reached, 64);
                assert!(tx > 0);
            }
        }
    }

    #[test]
    fn frontier_len_counts_the_active_bits() {
        let g = generators::hypercube(8);
        for shards in [1, 3] {
            let mut s = ShardedState::new(&g, cobra_b2(), shards);
            s.reset(0, |i| 9 + i as u64);
            assert_eq!(s.frontier_len(), 1, "round 0 frontier is the start");
            let mut grew = false;
            while !s.is_complete() {
                s.step(1);
                let set_bits: usize = s.slots.iter().map(|slot| slot.active.iter().count()).sum();
                assert_eq!(s.frontier_len(), set_bits);
                grew |= set_bits > 1;
            }
            assert!(grew, "the COBRA frontier never branched");
        }
    }

    #[test]
    fn sharded_bips_infects_small_graphs() {
        let kernel = bips_b2();
        let g = generators::complete(48);
        for shards in [1, 3, 8] {
            let (rounds, reached, _) = run_cover(&g, kernel, shards, 1, 7, 10_000);
            assert!(
                rounds.is_some(),
                "BIPS censored on K_48 with {shards} shards"
            );
            assert_eq!(reached, 48);
        }
    }

    #[test]
    fn lazy_sharded_kernels_complete_on_bipartite_graphs() {
        let g = generators::hypercube(4);
        for kernel in [
            ShardKernel::Cobra {
                branching: Branching::B2,
                laziness: Laziness::Half,
            },
            ShardKernel::Bips {
                branching: Branching::B2,
                laziness: Laziness::Half,
            },
        ] {
            let (rounds, ..) = run_cover(&g, kernel, 4, 1, 9, 100_000);
            assert!(rounds.is_some(), "{kernel:?} censored on Q_4");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_trajectory() {
        let g = generators::hypercube(8);
        for kernel in [
            cobra_b2(),
            ShardKernel::Bips {
                branching: Branching::Expected(0.5),
                laziness: Laziness::None,
            },
        ] {
            let seq = run_cover(&g, kernel, 4, 1, 1234, 100_000);
            let par = run_cover(&g, kernel, 4, 8, 1234, 100_000);
            assert_eq!(seq, par, "{kernel:?} diverged across thread counts");
        }
    }

    #[test]
    fn shard_count_is_part_of_the_identity() {
        // Different partitions assign different RNG streams, so the
        // sample paths (almost surely) differ — which is exactly why
        // `shards=` participates in campaign point keys.
        let g = generators::hypercube(9);
        let one = run_cover(&g, cobra_b2(), 1, 1, 5, 100_000);
        let four = run_cover(&g, cobra_b2(), 4, 1, 5, 100_000);
        assert_ne!(one, four, "independent streams should not collide here");
    }

    #[test]
    fn reset_reproduces_a_run_bit_for_bit() {
        let g = generators::torus(&[8, 8]);
        let mut s = ShardedState::new(&g, cobra_b2(), 3);
        let seed_of = |i: usize| 0xABCD ^ (i as u64);
        s.reset(5, seed_of);
        let mut first = Vec::new();
        while !s.is_complete() {
            s.step(1);
            first.push(s.reached_count());
        }
        let tx = s.transmissions();
        s.reset(5, seed_of);
        assert_eq!(s.rounds(), 0);
        assert_eq!(s.transmissions(), 0);
        let mut second = Vec::new();
        while !s.is_complete() {
            s.step(1);
            second.push(s.reached_count());
        }
        assert_eq!(first, second);
        assert_eq!(tx, s.transmissions());
    }

    #[test]
    fn has_reached_agrees_with_ownership() {
        let g = generators::cycle(10);
        let mut s = ShardedState::new(&g, cobra_b2(), 4);
        s.reset(7, |i| i as u64 + 1);
        assert!(s.has_reached(7));
        assert!(!s.has_reached(0));
        assert_eq!(s.reached_count(), 1);
    }

    #[test]
    fn implicit_backend_needs_no_shared_graph() {
        // The sharded path on an implicit topology: the only O(n) state
        // anywhere is the shard-local bitsets.
        let g = HypercubeTopo::new(10);
        let (rounds, reached, _) = run_cover(&g, cobra_b2(), 8, 1, 77, 100_000);
        assert!(rounds.is_some());
        assert_eq!(reached, 1 << 10);
    }

    #[test]
    fn more_shards_than_vertices_is_harmless() {
        let g = generators::complete(5);
        let (rounds, reached, _) = run_cover(&g, cobra_b2(), 16, 1, 3, 10_000);
        assert!(rounds.is_some());
        assert_eq!(reached, 5);
    }

    #[test]
    fn pick_pair_is_uniform_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(99);
        for deg in [1u32, 3, 20, 64] {
            let draws = 120_000usize;
            let mut counts = vec![0u64; deg as usize];
            for _ in 0..draws / 2 {
                let (i, j) = pick_pair(&mut rng, deg);
                counts[i as usize] += 1;
                counts[j as usize] += 1;
            }
            let expect = draws as f64 / deg as f64;
            let sigma = (expect * (1.0 - 1.0 / deg as f64)).sqrt().max(1.0);
            for (k, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64 - expect).abs() < 6.0 * sigma,
                    "deg={deg} value {k}: {c} vs expected {expect}"
                );
            }
        }
        // A divisor just past 2^31 makes the Lemire bias zone ~50% per
        // draw, hammering the rejection path; outputs must stay in
        // range.
        let deg = (1u32 << 31) + 1;
        for _ in 0..1_000 {
            let (i, j) = pick_pair(&mut rng, deg);
            assert!(i < deg && j < deg);
        }
    }

    #[test]
    fn per_shard_state_bytes_math() {
        // hypercube:30 at 8 shards: span 2^27, three bitsets of
        // 2^27/8 = 16 MiB each for COBRA; BIPS adds a u32 per vertex.
        let b = per_shard_state_bytes(1 << 30, 8, cobra_b2());
        assert_eq!(b, 3 * (1 << 24));
        let b = per_shard_state_bytes(1 << 30, 8, bips_b2());
        assert_eq!(b, 3 * (1 << 24) + 4 * (1 << 27));
        // Single shard covers the whole universe.
        assert_eq!(per_shard_state_bytes(64, 1, cobra_b2()), 3 * 8);
        // Tiny universes never report more than the universe.
        assert_eq!(per_shard_state_bytes(10, 64, cobra_b2()), 3 * 8);
    }

    #[test]
    fn per_shard_state_bytes_matches_what_slots_allocate() {
        fn allocated(slot: &ShardSlot) -> usize {
            [&slot.visited, &slot.active, &slot.next, &slot.cand]
                .iter()
                .map(|b| std::mem::size_of_val(b.words()))
                .sum::<usize>()
                + std::mem::size_of_val(slot.d_a.as_slice())
        }
        let g = HypercubeTopo::new(12);
        for kernel in [cobra_b2(), bips_b2()] {
            for shards in [1, 3, 8] {
                let state = ShardedState::new(&g, kernel, shards);
                assert_eq!(
                    per_shard_state_bytes(g.n(), shards, kernel),
                    allocated(&state.slots[0]),
                    "{kernel:?} at {shards} shards"
                );
            }
        }
    }
}
