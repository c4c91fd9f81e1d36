//! Coalescing random walks without branching — the other half of
//! COBRA's name.
//!
//! `k` particles walk independently; particles meeting at a vertex merge
//! into one. Without branching the particle count only decreases, so the
//! process eventually degrades to a single walk — the ablation showing
//! *why* COBRA needs the branching step to keep its parallelism alive.

use crate::branching::Laziness;
use crate::state::{ProcessState, ProcessView, StepCtx};
use cobra_graph::{Graph, Topology, VertexId};
use cobra_util::BitSet;

/// `k` coalescing random walks tracking their joint visited set,
/// generic over the graph backend.
#[derive(Debug, Clone)]
pub struct CoalescingWalks<'g, T: Topology = Graph> {
    g: &'g T,
    laziness: Laziness,
    /// Particle count a single-vertex reset re-derives (spaced starts).
    k: usize,
    /// Current particle positions (duplicate-free: one particle per
    /// occupied vertex).
    particles: Vec<VertexId>,
    occupied: BitSet,
    visited: BitSet,
    rounds: usize,
    merges: u64,
}

impl<'g, T: Topology> CoalescingWalks<'g, T> {
    /// Starts particles at `starts` (duplicates coalesce immediately).
    pub fn new(g: &'g T, starts: &[VertexId], laziness: Laziness) -> Self {
        let mut walks = CoalescingWalks {
            g,
            laziness,
            k: starts.len(),
            particles: Vec::new(),
            occupied: BitSet::new(g.n()),
            visited: BitSet::new(g.n()),
            rounds: 0,
            merges: 0,
        };
        walks.reset(g, starts);
        walks
    }

    /// `k` particles at vertices evenly spaced from `start` — the
    /// deterministic placement [`crate::ProcessSpec::build`] uses when a
    /// multi-particle spec is given a single start vertex.
    pub fn new_spaced(g: &'g T, start: VertexId, k: usize, laziness: Laziness) -> Self {
        assert!(k >= 1, "need at least one particle");
        let mut walks = CoalescingWalks {
            g,
            laziness,
            k,
            particles: Vec::new(),
            occupied: BitSet::new(g.n()),
            visited: BitSet::new(g.n()),
            rounds: 0,
            merges: 0,
        };
        walks.reset(g, &[start]);
        walks
    }

    /// Surviving particle count.
    pub fn particle_count(&self) -> usize {
        self.particles.len()
    }

    /// Total merge events so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Runs until a single particle survives (coalescence time), or
    /// `None` at the cap. Returns the rounds taken.
    pub fn run_until_coalesced(&mut self, ctx: &mut StepCtx, cap: usize) -> Option<usize> {
        while self.particles.len() > 1 {
            if self.rounds >= cap {
                return None;
            }
            self.step(ctx);
        }
        Some(self.rounds)
    }
}

/// `k` vertices evenly spaced around the vertex-id ring starting at
/// `start`, yielded lazily so resets place them without a buffer.
pub(crate) fn spaced_starts(n: usize, start: VertexId, k: usize) -> impl Iterator<Item = VertexId> {
    (0..k).map(move |i| (((start as usize) + i * n / k) % n) as VertexId)
}

impl<T: Topology> ProcessView for CoalescingWalks<'_, T> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn reached(&self) -> &BitSet {
        &self.visited
    }

    fn transmissions(&self) -> u64 {
        // One transmission per particle per round; reconstruct from the
        // merge history: particles(t) = starts − merges, summed over t
        // is tracked implicitly — report rounds × current particles as a
        // lower bound plus merges (each merge consumed one transmission).
        self.rounds as u64 * self.particles.len() as u64 + self.merges
    }

    fn frontier_len(&self) -> usize {
        self.particles.len()
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for CoalescingWalks<'g, T> {
    /// Several starts place one particle each (duplicates coalesce); a
    /// single start re-derives `k` evenly spaced particles, matching
    /// [`crate::ProcessSpec::build`]'s convention.
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        assert!(!start.is_empty(), "need at least one particle");
        self.g = g;
        if self.visited.len() != g.n() {
            self.visited = BitSet::new(g.n());
            self.occupied = BitSet::new(g.n());
        } else {
            self.visited.clear();
            self.occupied.clear();
        }
        self.particles.clear();
        let place = |slf: &mut Self, s: VertexId| {
            assert!((s as usize) < g.n(), "start vertex out of range");
            slf.visited.insert(s as usize);
            if slf.occupied.insert(s as usize) {
                slf.particles.push(s);
            }
        };
        if start.len() > 1 || self.k == 1 {
            self.k = start.len();
            for &s in start {
                place(self, s);
            }
        } else {
            for s in spaced_starts(g.n(), start[0], self.k) {
                place(self, s);
            }
        }
        self.rounds = 0;
        self.merges = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let StepCtx { rng, scratch, .. } = ctx;
        let parts = scratch.parts(self.g.n());
        let next = parts.frontier;
        // Clear occupancy of the departing particles, then re-occupy.
        self.occupied.clear_indices(&self.particles);
        for i in 0..self.particles.len() {
            let w = self.laziness.pick(self.g, self.particles[i], rng);
            self.visited.insert(w as usize);
            if self.occupied.insert(w as usize) {
                next.push(w);
            } else {
                self.merges += 1;
            }
        }
        std::mem::swap(&mut self.particles, next);
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StopWhen;
    use cobra_graph::generators;

    fn ctx(seed: u64) -> StepCtx {
        StepCtx::seeded(seed)
    }

    #[test]
    fn duplicates_coalesce_at_start() {
        let g = generators::cycle(8);
        let c = CoalescingWalks::new(&g, &[3, 3, 5], Laziness::None);
        assert_eq!(c.particle_count(), 2);
    }

    #[test]
    fn particle_count_never_increases() {
        let g = generators::complete(16);
        let mut c = CoalescingWalks::new(&g, &(0..8u32).collect::<Vec<_>>(), Laziness::None);
        let mut cx = ctx(1);
        let mut prev = c.particle_count();
        for _ in 0..100 {
            c.step(&mut cx);
            assert!(
                c.particle_count() <= prev,
                "particles multiplied without branching"
            );
            assert!(c.particle_count() >= 1, "all particles vanished");
            prev = c.particle_count();
        }
    }

    #[test]
    fn eventually_coalesces_on_complete_graph() {
        let g = generators::complete(12);
        let mut c = CoalescingWalks::new(&g, &(0..12u32).collect::<Vec<_>>(), Laziness::None);
        let t = c
            .run_until_coalesced(&mut ctx(2), 1_000_000)
            .expect("coalesces");
        assert!(t > 0);
        assert_eq!(c.particle_count(), 1);
        assert_eq!(c.merges(), 11, "12 particles merge 11 times");
    }

    #[test]
    fn lazy_walks_coalesce_on_bipartite_graphs() {
        // Non-lazy walks on an even cycle preserve parity: particles on
        // the same colour class can never meet those on the other...
        // but same-class particles can. Laziness breaks parity entirely.
        let g = generators::cycle(10);
        let mut c = CoalescingWalks::new(&g, &[0, 1], Laziness::Half);
        assert!(c.run_until_coalesced(&mut ctx(3), 1_000_000).is_some());
    }

    #[test]
    fn parity_blocks_non_lazy_coalescence_on_even_cycle() {
        // Two particles at odd distance on C_8 can never meet without
        // laziness (each step flips both parities in the same way).
        let g = generators::cycle(8);
        let mut c = CoalescingWalks::new(&g, &[0, 1], Laziness::None);
        let mut cx = ctx(4);
        for _ in 0..5000 {
            c.step(&mut cx);
            assert_eq!(c.particle_count(), 2, "parity-violating merge");
        }
    }

    #[test]
    fn covers_like_multiwalk_until_merges_bite() {
        let g = generators::torus(&[5, 5]);
        let mut c = CoalescingWalks::new(&g, &[0, 6, 12, 18], Laziness::None);
        assert!(c
            .run_until(StopWhen::Complete, &mut ctx(5), 10_000_000)
            .is_some());
        assert!(c.is_complete());
    }

    #[test]
    fn spaced_reset_matches_spaced_construction() {
        let g = generators::cycle(20);
        let fresh = CoalescingWalks::new_spaced(&g, 3, 4, Laziness::None);
        let mut reused = CoalescingWalks::new_spaced(&g, 0, 4, Laziness::None);
        reused.step(&mut ctx(6));
        reused.reset(&g, &[3]);
        assert_eq!(fresh.particles, reused.particles);
        assert_eq!(reused.merges(), 0);
        assert_eq!(reused.rounds(), 0);
    }
}
