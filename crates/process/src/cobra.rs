//! The COBRA (COalescing-BRAnching) random walk.
//!
//! Set formulation, exactly as the paper defines it: `C_0` is the start
//! set; in each round every vertex of `C_t` independently chooses `b`
//! neighbours uniformly at random with replacement, and `C_{t+1}` is the
//! *set* of chosen vertices (coalescing is implicit in the set union).
//! `cover(u) = min{T : ∪_{t≤T} C_t = V}` with `C_0 = {u}`.
//!
//! # The round kernel: one pass
//!
//! A round is one loop over `C_t` in active order. For each of a
//! vertex's `b` picks it
//!
//! 1. **draws** the neighbour index with the same `random_range` call,
//!    in the same order, as the naive pick-mark-push loop (after the
//!    `random_bool(0.5)` coin, for a lazy process);
//! 2. **resolves** it at once — [`Topology::resolve_pick`] on the
//!    `(base, degree)` of [`Topology::neighbor_range`] the loop already
//!    holds (a flat-array load on CSR, arithmetic on the implicit
//!    backends), or `v` itself for a lazy self-pick;
//! 3. **lands** it without a data-dependent branch: the pick is stored
//!    at slot `len` of the scratch's `n + 1` slots and `len` advances by
//!    the 0/1 result of [`BitSet::test_and_set_uncounted`] on the
//!    round's mark set, so the next frontier `slots[..len]` comes out in
//!    first-arrival order, as the naive loop builds it (`len ≤ n` when
//!    a slot is written, so `n + 1` slots always do). Nothing reads the
//!    mark's count, so neither this nor the sparse reset keeps one.
//!
//! Resolving consumes no randomness, so draw order, frontier order,
//! `visited` and every trajectory are bit-identical to the naive loop.
//! How `visited` is updated depends on the round's density, decided
//! before the pass from the fewest picks it can make (`b·|C_t|` for
//! `Fixed(b)`, `|C_t|` for `Expected(ρ)`); the switch affects cost,
//! never results:
//!
//! - a **dense** round (at least one pick per mark word) skips the
//!   per-pick `visited` update, folds the mark in afterwards with one
//!   word-wise [`BitSet::union_with`], and resets it with
//!   [`BitSet::clear`];
//! - a **sparse** round sets `visited` per pick and resets only the
//!   marked bits ([`BitSet::clear_indices_uncounted`] over the new frontier), so
//!   its cost stays proportional to the picks, not to `n`.
//!
//! Software prefetch runs at two depths through the [`Topology`] hooks:
//! the CSR offsets of the vertex 16 places ahead, and the first and last
//! adjacency entry of the vertex 8 places ahead (a hub's list spans
//! several cache lines). Only an irregular CSR graph has offsets to
//! fetch: on a regular one `neighbor_range` is `(v·d, d)`, computed with
//! no load, so each active vertex costs one adjacency miss, not two.
//!
//! The kernel used to make three passes — draw every pick token into a
//! buffer, resolve the buffer, then compact it. The split once took an
//! unpredictable branch on the mark out of the sampling loop; the
//! branch-free landing above removed that reason, and the two staging
//! buffers then cost more than they saved. Fusing the passes raised
//! `perfbench --workload dense-hypercube` (`cobra:b2` on
//! `hypercube:16`) from a median of 3798 to 5267 rounds/s, +39%, and
//! won 10 of 10 alternating 25 s pairs (2-vCPU host, one worker
//! thread; per-pair gains 23–45%).
//! The kernel is monomorphized per backend, and the RNG draws depend
//! only on degrees (identical across backends), so trajectories are
//! bit-identical on CSR and implicit representations of the same graph.

use crate::branching::{Branching, Laziness};
use crate::state::{ProcessState, ProcessView, StepCtx};
use cobra_graph::{Graph, Topology, VertexId};
use cobra_util::BitSet;

/// How far ahead of the current vertex the pass prefetches adjacency
/// entries; offsets are prefetched twice as far ahead.
const PREFETCH_AHEAD: usize = 8;

/// A running COBRA process, generic over the graph backend.
#[derive(Debug, Clone)]
pub struct Cobra<'g, T: Topology = Graph> {
    g: &'g T,
    branching: Branching,
    laziness: Laziness,
    /// `C_t` as a duplicate-free list.
    active: Vec<VertexId>,
    /// `∪_{t' ≤ t} C_{t'}`.
    visited: BitSet,
    rounds: usize,
    transmissions: u64,
}

impl<'g, T: Topology> Cobra<'g, T> {
    /// Starts COBRA from the vertices of `start` (deduplicated).
    ///
    /// Panics if `start` is empty, contains out-of-range ids, or if the
    /// graph has an isolated vertex in `start` (the process cannot push
    /// from it).
    pub fn new(g: &'g T, start: &[VertexId], branching: Branching, laziness: Laziness) -> Self {
        branching.validate();
        let mut cobra = Cobra {
            g,
            branching,
            laziness,
            active: Vec::new(),
            visited: BitSet::new(g.n()),
            rounds: 0,
            transmissions: 0,
        };
        cobra.reset(g, start);
        cobra
    }

    /// Convenience constructor for the paper's canonical process:
    /// `b = 2`, non-lazy, started at a single vertex.
    pub fn b2(g: &'g T, start: VertexId) -> Self {
        Cobra::new(g, &[start], Branching::B2, Laziness::None)
    }

    /// The current active set `C_t` (unordered, duplicate-free).
    pub fn active(&self) -> &[VertexId] {
        &self.active
    }

    /// The visited set `∪_{t'≤t} C_{t'}`.
    pub fn visited(&self) -> &BitSet {
        &self.visited
    }

    /// Number of distinct vertices visited so far.
    pub fn visited_count(&self) -> usize {
        self.visited.count()
    }

    /// True iff `v` has been visited.
    pub fn has_visited(&self, v: VertexId) -> bool {
        self.visited.contains(v as usize)
    }
}

impl<T: Topology> ProcessView for Cobra<'_, T> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn reached(&self) -> &BitSet {
        &self.visited
    }

    fn transmissions(&self) -> u64 {
        self.transmissions
    }

    fn frontier_len(&self) -> usize {
        self.active.len()
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for Cobra<'g, T> {
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        assert!(!start.is_empty(), "COBRA needs a nonempty start set");
        self.g = g;
        if self.visited.len() != g.n() {
            self.visited = BitSet::new(g.n());
        } else {
            self.visited.clear();
        }
        self.active.clear();
        for &v in start {
            assert!((v as usize) < g.n(), "start vertex {v} out of range");
            if self.visited.insert(v as usize) {
                self.active.push(v);
            }
        }
        self.rounds = 0;
        self.transmissions = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        use rand::RngExt;
        debug_assert!(!self.active.is_empty(), "COBRA active set vanished");
        let g = self.g;
        let StepCtx {
            rng,
            scratch,
            timers,
        } = ctx;
        // Telemetry only: `None` (the default) never reads the clock.
        let mut clock = timers.as_deref_mut().map(cobra_obs::PhaseClock::start);
        let parts = scratch.parts(g.n());
        let (next, slots, mark) = (parts.frontier, parts.slots, parts.mark);
        let (active, visited) = (&self.active, &mut self.visited);
        // Dense: at least one pick per mark word, so folding the whole
        // mark into `visited` and clearing it word by word is cheaper
        // than touching both sets per pick. Decided before the pass from
        // the fewest picks the round can make.
        let min_picks = match self.branching {
            Branching::Fixed(b) => active.len() * b as usize,
            Branching::Expected(_) => active.len(),
        };
        let dense = min_picks >= mark.words().len();
        // Coalesce in pick order, branch-free: every pick is stored at
        // `slots[len]` and `len` advances only on the first arrival at
        // its vertex (`len ≤ n`, so `n + 1` slots always suffice).
        let mut len = 0;
        let mut land = |w: VertexId| {
            slots[len] = w;
            if !dense {
                visited.test_and_set(w as usize);
            }
            len += mark.test_and_set_uncounted(w as usize) as usize;
        };
        // One pass in active order, `b` picks per vertex: the draw order
        // of the naive loop, with each pick resolved and landed at once.
        match (self.branching, self.laziness) {
            (Branching::Fixed(b), Laziness::None) => {
                for (i, &v) in active.iter().enumerate() {
                    prefetch_ahead(g, active, i);
                    let (base, deg) = g.neighbor_range(v);
                    assert!(deg > 0, "COBRA cannot push from isolated vertex {v}");
                    for _ in 0..b {
                        land(g.resolve_pick(base + rng.random_range(0..deg)));
                    }
                }
                self.transmissions += active.len() as u64 * b as u64;
            }
            _ => {
                for (i, &v) in active.iter().enumerate() {
                    prefetch_ahead(g, active, i);
                    let copies = self.branching.sample(rng);
                    self.transmissions += copies as u64;
                    let (base, deg) = g.neighbor_range(v);
                    for _ in 0..copies {
                        let w = if self.laziness == Laziness::Half && rng.random_bool(0.5) {
                            v
                        } else {
                            assert!(deg > 0, "COBRA cannot push from isolated vertex {v}");
                            g.resolve_pick(base + rng.random_range(0..deg))
                        };
                        land(w);
                    }
                }
            }
        }
        if let Some(c) = clock.as_mut() {
            c.lap(cobra_obs::Phase::Draw);
            // Resolving is part of the pass: this lap is clock overhead.
            c.lap(cobra_obs::Phase::Gather);
        }

        // Within the frontier's reserved capacity n: no allocation.
        next.extend_from_slice(&slots[..len]);
        if dense {
            self.visited.union_with(mark);
            mark.clear();
        } else {
            // Cheaper than a full clear when |C_t| ≪ n.
            mark.clear_indices_uncounted(next);
        }
        std::mem::swap(&mut self.active, next);
        self.rounds += 1;
        if let Some(c) = clock.as_mut() {
            c.lap(cobra_obs::Phase::Coalesce);
        }
    }
}

/// The pass's two prefetch levels, issued as it samples `active[i]`:
/// the CSR offsets of the vertex two strides ahead (irregular graphs
/// only), and the first and last adjacency entries of the vertex one
/// stride ahead (a list of more than 16 ids spans several cache lines).
/// The hooks are no-ops on the implicit backends.
#[inline(always)]
fn prefetch_ahead<T: Topology>(g: &T, active: &[VertexId], i: usize) {
    if let Some(&u) = active.get(i + 2 * PREFETCH_AHEAD) {
        g.prefetch_neighbor_meta(u);
    }
    if let Some(&u) = active.get(i + PREFETCH_AHEAD) {
        let (base, deg) = g.neighbor_range(u);
        g.prefetch_pick(base);
        g.prefetch_pick(base + deg.saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StopWhen;
    use cobra_graph::generators;
    use proptest::prelude::*;

    fn ctx(seed: u64) -> StepCtx {
        StepCtx::seeded(seed)
    }

    #[test]
    fn single_vertex_graph_covers_instantly() {
        let g = generators::path(1);
        let cobra = Cobra::new(&g, &[0], Branching::B2, Laziness::Half);
        assert!(cobra.is_complete());
        assert_eq!(cobra.rounds(), 0);
    }

    #[test]
    fn start_set_counts_as_visited() {
        let g = generators::cycle(6);
        let cobra = Cobra::new(&g, &[2, 4, 2], Branching::B2, Laziness::None);
        assert_eq!(cobra.visited_count(), 2, "duplicates collapse");
        assert_eq!(cobra.active().len(), 2);
        assert!(cobra.has_visited(2));
        assert!(!cobra.has_visited(0));
    }

    #[test]
    fn covers_complete_graph_quickly() {
        let g = generators::complete(64);
        let mut c = Cobra::b2(&g, 0);
        let rounds = c
            .run_until(StopWhen::Complete, &mut ctx(1), 10_000)
            .expect("covers");
        // O(log n) on K_n: 6 doublings minimum, generous upper slack.
        assert!(rounds >= 6, "cannot beat doubling: {rounds}");
        assert!(rounds < 60, "K_64 should cover in tens of rounds: {rounds}");
        assert!(c.is_complete());
        assert_eq!(c.reached_count(), 64);
    }

    #[test]
    fn covers_path_graph() {
        let g = generators::path(24);
        let mut c = Cobra::b2(&g, 0);
        let rounds = c
            .run_until(StopWhen::Complete, &mut ctx(2), 1_000_000)
            .expect("covers");
        assert!(rounds >= 23, "must at least reach the far end");
    }

    #[test]
    fn b1_active_set_never_grows() {
        // b = 1 is a single random walk: |C_t| stays 1 forever.
        let g = generators::cycle(12);
        let mut c = Cobra::new(&g, &[0], Branching::Fixed(1), Laziness::None);
        let mut cx = ctx(3);
        for _ in 0..200 {
            c.step(&mut cx);
            assert_eq!(c.active().len(), 1);
        }
    }

    #[test]
    fn active_set_is_duplicate_free_and_visited_is_monotone() {
        let g = generators::torus(&[5, 5]);
        let mut c = Cobra::b2(&g, 7);
        let mut cx = ctx(4);
        let mut prev_visited = c.visited_count();
        for _ in 0..60 {
            c.step(&mut cx);
            let mut seen = std::collections::HashSet::new();
            for &v in c.active() {
                assert!(seen.insert(v), "duplicate {v} in active set");
                assert!(c.has_visited(v), "active vertex not marked visited");
            }
            assert!(c.visited_count() >= prev_visited, "visited set shrank");
            prev_visited = c.visited_count();
        }
    }

    #[test]
    fn active_set_growth_bounded_by_branching() {
        let g = generators::complete(100);
        let mut c = Cobra::b2(&g, 0);
        let mut cx = ctx(5);
        let mut prev = 1usize;
        for _ in 0..20 {
            c.step(&mut cx);
            assert!(c.active().len() <= prev * 2, "|C_{{t+1}}| ≤ 2|C_t|");
            prev = c.active().len().max(1);
        }
    }

    #[test]
    fn hit_time_of_start_vertex_is_zero() {
        let g = generators::cycle(9);
        let mut c = Cobra::b2(&g, 3);
        assert_eq!(c.run_until(StopWhen::Reached(3), &mut ctx(6), 10), Some(0));
    }

    #[test]
    fn censoring_returns_none_and_preserves_state() {
        let g = generators::path(64);
        let mut c = Cobra::b2(&g, 0);
        let out = c.run_until(StopWhen::Complete, &mut ctx(7), 3);
        assert_eq!(out, None);
        assert_eq!(c.rounds(), 3);
        assert!(!c.is_complete());
    }

    #[test]
    fn lazy_cobra_covers_bipartite_graphs() {
        let g = generators::hypercube(5);
        let mut c = Cobra::new(&g, &[0], Branching::B2, Laziness::Half);
        let rounds = c
            .run_until(StopWhen::Complete, &mut ctx(8), 100_000)
            .expect("covers");
        assert!(rounds >= 5, "diameter lower bound");
    }

    #[test]
    fn transmissions_accounting_b2() {
        let g = generators::complete(16);
        let mut c = Cobra::b2(&g, 0);
        let mut cx = ctx(9);
        c.step(&mut cx);
        assert_eq!(c.transmissions(), 2, "one particle pushed two copies");
        let active_after_1 = c.active().len() as u64;
        c.step(&mut cx);
        assert_eq!(c.transmissions(), 2 + 2 * active_after_1);
    }

    #[test]
    fn full_start_set_covers_immediately() {
        let g = generators::cycle(5);
        let all: Vec<u32> = (0..5).collect();
        let c = Cobra::new(&g, &all, Branching::B2, Laziness::None);
        assert!(c.is_complete());
    }

    #[test]
    #[should_panic(expected = "nonempty start")]
    fn rejects_empty_start() {
        let g = generators::cycle(5);
        Cobra::new(&g, &[], Branching::B2, Laziness::None);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::torus(&[6, 6]);
        let a = Cobra::b2(&g, 0).run_until(StopWhen::Complete, &mut ctx(10), 100_000);
        let b = Cobra::b2(&g, 0).run_until(StopWhen::Complete, &mut ctx(10), 100_000);
        assert_eq!(a, b);
    }

    #[test]
    fn reset_reproduces_a_fresh_state_bit_for_bit() {
        // One state reused across trials must equal fresh construction.
        let g = generators::torus(&[6, 6]);
        let mut reused = Cobra::b2(&g, 0);
        let mut cx = ctx(77);
        let first = reused.run_until(StopWhen::Complete, &mut cx, 100_000);
        let tx_first = reused.transmissions();
        reused.reset(&g, &[0]);
        assert_eq!(reused.rounds(), 0);
        assert_eq!(reused.transmissions(), 0);
        cx.reseed(77);
        let second = reused.run_until(StopWhen::Complete, &mut cx, 100_000);
        assert_eq!(first, second);
        assert_eq!(tx_first, reused.transmissions());
        // And against an entirely fresh state + context.
        let fresh = Cobra::b2(&g, 0).run_until(StopWhen::Complete, &mut ctx(77), 100_000);
        assert_eq!(first, fresh);
    }

    #[test]
    fn reset_rebinds_to_a_different_graph() {
        let g1 = generators::cycle(8);
        let g2 = generators::complete(32);
        let mut c = Cobra::b2(&g1, 0);
        c.step(&mut ctx(1));
        c.reset(&g2, &[3]);
        assert_eq!(c.reached().len(), 32);
        assert!(c.has_visited(3));
        assert_eq!(c.visited_count(), 1);
        assert!(c
            .run_until(StopWhen::Complete, &mut ctx(2), 10_000)
            .is_some());
    }

    /// The naive pick-mark-push loop the one-pass kernel reproduces: one
    /// round of COBRA drawing from `rng` in the kernel's order. Returns
    /// the number of picks, by which the test below classifies rounds as
    /// dense or sparse.
    fn naive_round(
        g: &Graph,
        active: &mut Vec<VertexId>,
        visited: &mut BitSet,
        branching: Branching,
        laziness: Laziness,
        rng: &mut rand::rngs::SmallRng,
    ) -> usize {
        use rand::RngExt;
        let mut mark = BitSet::new(g.n());
        let mut next = Vec::new();
        let mut picks = 0;
        for &v in active.iter() {
            for _ in 0..branching.sample(rng) {
                picks += 1;
                let w = if laziness == Laziness::Half && rng.random_bool(0.5) {
                    v
                } else {
                    let nbrs = g.neighbors(v);
                    nbrs[rng.random_range(0..nbrs.len())]
                };
                if mark.insert(w as usize) {
                    next.push(w);
                    visited.insert(w as usize);
                }
            }
        }
        *active = next;
        picks
    }

    #[test]
    fn kernel_matches_the_naive_loop_round_by_round() {
        // Dense graphs put at least one pick per mark word into almost
        // every round; on the sparse ones the frontier starts far below
        // n/64 (cycle:64 would not do: its mark is one word, so every
        // round is dense).
        let dense = [generators::complete(128), generators::hypercube(10)];
        let sparse = [generators::cycle(4096), generators::lollipop(64, 2048)];
        let laws = [
            (Branching::B2, Laziness::None),
            (Branching::Expected(0.5), Laziness::None),
            (Branching::B2, Laziness::Half),
        ];
        for (g, want_dense) in dense
            .iter()
            .map(|g| (g, true))
            .chain(sparse.iter().map(|g| (g, false)))
        {
            let start = g.n() as VertexId - 1;
            let words = g.n().div_ceil(64);
            for (seed, &(branching, laziness)) in laws.iter().enumerate() {
                let label = format!("n={} {branching:?} {laziness:?}", g.n());
                let mut cobra = Cobra::new(g, &[start], branching, laziness);
                let mut cx = ctx(seed as u64);
                let mut rng = ctx(seed as u64).rng;
                let mut active = vec![start];
                let mut visited = BitSet::from_indices(g.n(), &active);
                let (mut tx, mut dense_rounds, mut sparse_rounds) = (0, 0, 0);
                while !cobra.is_complete() && cobra.rounds() < 300 {
                    cobra.step(&mut cx);
                    let picks =
                        naive_round(g, &mut active, &mut visited, branching, laziness, &mut rng);
                    tx += picks as u64;
                    if picks >= words {
                        dense_rounds += 1;
                    } else {
                        sparse_rounds += 1;
                    }
                    let round = cobra.rounds();
                    assert_eq!(
                        cobra.active(),
                        &active[..],
                        "{label}: frontier, round {round}"
                    );
                    assert_eq!(cobra.visited(), &visited, "{label}: visited, round {round}");
                    assert_eq!(cobra.visited_count(), visited.count(), "{label}: count");
                    assert_eq!(cobra.transmissions(), tx, "{label}: transmissions");
                }
                if want_dense {
                    assert!(
                        dense_rounds > sparse_rounds,
                        "{label}: {dense_rounds} dense rounds"
                    );
                } else {
                    assert!(sparse_rounds > 0, "{label}: no sparse round");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// On arbitrary connected graphs, COBRA b=2 terminates within the
        /// (generous) cap, visits monotonically, and its cover time
        /// respects the max(log2 n, diam) lower bound.
        #[test]
        fn covers_random_connected_graphs(seed in 0u64..10_000) {
            let mut cx = ctx(seed);
            let g0 = generators::gnp(40, 0.12, &mut cx.rng);
            let (g, _) = cobra_graph::props::largest_component(&g0);
            prop_assume!(g.n() >= 3);
            let mut c = Cobra::b2(&g, 0);
            let cap = 200 * g.n() + 10_000;
            let rounds = c.run_until(StopWhen::Complete, &mut cx, cap);
            prop_assert!(rounds.is_some(), "censored on n={}", g.n());
            let rounds = rounds.unwrap();
            // Visited count after t rounds is ≤ 2^{t+1} − 1, so covering
            // needs t + 1 ≥ log2(n + 1).
            let lb = cobra_util::math::log2_ceil(g.n() + 1) as usize;
            prop_assert!(rounds + 1 >= lb, "beat the doubling bound: {rounds}");
            // And the farthest vertex from the start must be reached.
            let ecc = cobra_graph::props::eccentricity(&g, 0).unwrap() as usize;
            prop_assert!(rounds >= ecc, "beat the eccentricity bound: {rounds} < {ecc}");
        }
    }
}
