//! Simple random walks and multiple independent random walks.
//!
//! COBRA with `b = 1` *is* the simple random walk; these standalone
//! implementations are the baselines the paper positions COBRA against
//! (`Ω(n log n)` cover time for any graph at `b = 1`, and the multiple-
//! walk literature [1, 3, 7] cited in the related work).
//!
//! [`RandomWalk`] is also the kernel of single-start `cobra:b1`:
//! [`crate::ProcessSpec::build`] routes it here instead of to the
//! [`crate::Cobra`] kernel. Both draw the same stream per round (the
//! lazy coin, then one `random_range(0..deg)`), so every trajectory is
//! the same, and with timers on a walk round laps the same
//! draw/gather/coalesce phases a COBRA round does.

use crate::branching::Laziness;
use crate::state::{ProcessState, ProcessView, StepCtx};
use cobra_graph::{Graph, Topology, VertexId};
use cobra_obs::{Phase, PhaseClock};
use cobra_util::BitSet;

/// A single random walk tracking its visited set, generic over the
/// graph backend.
#[derive(Debug, Clone)]
pub struct RandomWalk<'g, T: Topology = Graph> {
    g: &'g T,
    laziness: Laziness,
    position: VertexId,
    visited: BitSet,
    rounds: usize,
}

impl<'g, T: Topology> RandomWalk<'g, T> {
    /// Starts a walk at `start`.
    pub fn new(g: &'g T, start: VertexId, laziness: Laziness) -> Self {
        let mut walk = RandomWalk {
            g,
            laziness,
            position: start,
            visited: BitSet::new(g.n()),
            rounds: 0,
        };
        walk.reset(g, &[start]);
        walk
    }

    /// Current position.
    pub fn position(&self) -> VertexId {
        self.position
    }

    /// Visited set.
    pub fn visited(&self) -> &BitSet {
        &self.visited
    }
}

impl<T: Topology> ProcessView for RandomWalk<'_, T> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn reached(&self) -> &BitSet {
        &self.visited
    }

    fn transmissions(&self) -> u64 {
        self.rounds as u64
    }

    fn frontier_len(&self) -> usize {
        1
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for RandomWalk<'g, T> {
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        assert!(!start.is_empty(), "walk needs a start vertex");
        let start = start[0];
        assert!((start as usize) < g.n(), "start vertex out of range");
        self.g = g;
        if self.visited.len() != g.n() {
            self.visited = BitSet::new(g.n());
        } else {
            self.visited.clear();
        }
        self.position = start;
        self.visited.insert(start as usize);
        self.rounds = 0;
    }

    /// With timers set, a round laps the three phases `Cobra::step` laps:
    /// the pick is charged to draw, and gather is only clock overhead
    /// (a walk has no inbox to gather).
    fn step(&mut self, ctx: &mut StepCtx) {
        // Telemetry only: `None` (the default) never reads the clock.
        let mut clock = ctx.timers.as_deref_mut().map(PhaseClock::start);
        self.position = self.laziness.pick(self.g, self.position, &mut ctx.rng);
        if let Some(c) = clock.as_mut() {
            c.lap(Phase::Draw);
            c.lap(Phase::Gather);
        }
        self.visited.insert(self.position as usize);
        self.rounds += 1;
        if let Some(c) = clock.as_mut() {
            c.lap(Phase::Coalesce);
        }
    }
}

/// `k` independent random walks advanced in synchronous rounds; the
/// visited set is the union.
#[derive(Debug, Clone)]
pub struct MultiWalk<'g, T: Topology = Graph> {
    g: &'g T,
    laziness: Laziness,
    /// Number of walkers a single-vertex reset re-creates.
    k: usize,
    positions: Vec<VertexId>,
    visited: BitSet,
    rounds: usize,
}

impl<'g, T: Topology> MultiWalk<'g, T> {
    /// Starts `starts.len()` walkers at the given vertices (duplicates
    /// allowed: walkers are distinguishable and never coalesce).
    pub fn new(g: &'g T, starts: &[VertexId], laziness: Laziness) -> Self {
        let mut walk = MultiWalk {
            g,
            laziness,
            k: starts.len(),
            positions: Vec::new(),
            visited: BitSet::new(g.n()),
            rounds: 0,
        };
        walk.reset(g, starts);
        walk
    }

    /// All walkers at the same start vertex.
    pub fn new_at(g: &'g T, start: VertexId, k: usize, laziness: Laziness) -> Self {
        assert!(k >= 1, "need at least one walker");
        let mut walk = MultiWalk {
            g,
            laziness,
            k,
            positions: Vec::new(),
            visited: BitSet::new(g.n()),
            rounds: 0,
        };
        walk.reset(g, &[start]);
        walk
    }

    /// Walker positions.
    pub fn positions(&self) -> &[VertexId] {
        &self.positions
    }
}

impl<T: Topology> ProcessView for MultiWalk<'_, T> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn reached(&self) -> &BitSet {
        &self.visited
    }

    fn transmissions(&self) -> u64 {
        (self.rounds * self.positions.len()) as u64
    }

    fn frontier_len(&self) -> usize {
        self.positions.len()
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for MultiWalk<'g, T> {
    /// Several starts place one walker each; a single start re-creates
    /// the construction-time walker count `k` there (matching
    /// [`crate::ProcessSpec::build`]'s convention).
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        assert!(!start.is_empty(), "need at least one walker");
        self.g = g;
        if self.visited.len() != g.n() {
            self.visited = BitSet::new(g.n());
        } else {
            self.visited.clear();
        }
        self.positions.clear();
        if start.len() > 1 {
            self.k = start.len();
            self.positions.extend_from_slice(start);
        } else {
            self.positions.resize(self.k, start[0]);
        }
        for &s in &self.positions {
            assert!((s as usize) < g.n(), "start vertex out of range");
            self.visited.insert(s as usize);
        }
        self.rounds = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        for p in self.positions.iter_mut() {
            *p = self.laziness.pick(self.g, *p, &mut ctx.rng);
            self.visited.insert(*p as usize);
        }
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StopWhen;
    use crate::{Branching, Cobra};
    use cobra_graph::{generators, CompleteTopo, HypercubeTopo};
    use cobra_obs::PhaseTimers;
    use cobra_stats::Summary;
    use cobra_util::math::harmonic;

    fn ctx(seed: u64) -> StepCtx {
        StepCtx::seeded(seed)
    }

    /// Steps `Cobra` at `b = 1` and `RandomWalk` from the same start and
    /// seed, checking they agree after every round. A `timed` walk must
    /// also lap each of COBRA's three phases once per round.
    fn assert_lockstep<T: Topology>(g: &T, start: VertexId, timed: bool) {
        for laziness in [Laziness::None, Laziness::Half] {
            for seed in [1, 7, 0x601D] {
                let mut cobra = Cobra::new(g, &[start], Branching::Fixed(1), laziness);
                let mut walk = RandomWalk::new(g, start, laziness);
                let (mut cx, mut wx) = (ctx(seed), ctx(seed));
                if timed {
                    wx.timers = Some(Box::new(PhaseTimers::default()));
                }
                for round in 1..=400 {
                    cobra.step(&mut cx);
                    walk.step(&mut wx);
                    let at = format!("{laziness:?}, seed {seed}, round {round}");
                    assert_eq!(cobra.active(), &[walk.position()], "{at}");
                    assert_eq!(cobra.rounds(), walk.rounds(), "{at}");
                    assert_eq!(cobra.transmissions(), walk.transmissions(), "{at}");
                    assert_eq!(cobra.frontier_len(), walk.frontier_len(), "{at}");
                    assert_eq!(cobra.visited(), walk.visited(), "{at}");
                }
                if let Some(timers) = &wx.timers {
                    for phase in [Phase::Draw, Phase::Gather, Phase::Coalesce] {
                        assert_eq!(timers.laps(phase), 400, "{phase:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn walk_steps_in_lockstep_with_single_particle_cobra() {
        assert_lockstep(&generators::petersen(), 0, false);
        assert_lockstep(&generators::lollipop(12, 12), 3, false);
        assert_lockstep(&generators::torus(&[5, 7]), 4, false);
        assert_lockstep(&CompleteTopo::new(12), 4, false);
        assert_lockstep(&generators::hypercube(6), 9, false);
        assert_lockstep(&HypercubeTopo::new(6), 9, false);
        // Phase timing draws nothing extra.
        assert_lockstep(&generators::torus(&[5, 7]), 4, true);
        assert_lockstep(&HypercubeTopo::new(6), 9, true);
    }

    #[test]
    fn walk_stays_on_edges() {
        let g = generators::petersen();
        let mut w = RandomWalk::new(&g, 0, Laziness::None);
        let mut cx = ctx(1);
        let mut prev = w.position();
        for _ in 0..200 {
            w.step(&mut cx);
            assert!(g.has_edge(prev, w.position()));
            prev = w.position();
        }
    }

    #[test]
    fn lazy_walk_may_stay() {
        let g = generators::cycle(6);
        let mut w = RandomWalk::new(&g, 0, Laziness::Half);
        let mut cx = ctx(2);
        let mut stayed = false;
        let mut prev = w.position();
        for _ in 0..100 {
            w.step(&mut cx);
            if w.position() == prev {
                stayed = true;
            }
            prev = w.position();
        }
        assert!(stayed, "lazy walk never stayed in 100 steps");
    }

    #[test]
    fn cover_time_on_complete_graph_is_coupon_collector() {
        // K_n cover by SRW is n·H_{n−1} in expectation (coupon collector
        // over the other n−1 vertices). Check the sample mean is close.
        let n = 24;
        let g = generators::complete(n);
        let samples: Vec<f64> = (0..300)
            .map(|i| {
                let mut w = RandomWalk::new(&g, 0, Laziness::None);
                w.run_until(StopWhen::Complete, &mut ctx(100 + i), 1_000_000)
                    .unwrap() as f64
            })
            .collect();
        let s = Summary::from_samples(&samples);
        let expected = (n - 1) as f64 * harmonic(n - 1);
        assert!(
            (s.mean - expected).abs() < 0.15 * expected,
            "mean {} vs coupon-collector {expected}",
            s.mean
        );
    }

    #[test]
    fn hitting_start_is_zero_rounds() {
        let g = generators::cycle(7);
        let mut w = RandomWalk::new(&g, 3, Laziness::None);
        assert_eq!(w.run_until(StopWhen::Reached(3), &mut ctx(3), 10), Some(0));
    }

    #[test]
    fn censoring_on_path() {
        let g = generators::path(1000);
        let mut w = RandomWalk::new(&g, 0, Laziness::None);
        assert_eq!(w.run_until(StopWhen::Complete, &mut ctx(4), 100), None);
    }

    #[test]
    fn multiwalk_covers_faster_than_single() {
        let g = generators::cycle(64);
        let single: f64 = {
            let samples: Vec<f64> = (0..40)
                .map(|i| {
                    let mut w = RandomWalk::new(&g, 0, Laziness::None);
                    w.run_until(StopWhen::Complete, &mut ctx(500 + i), 10_000_000)
                        .unwrap() as f64
                })
                .collect();
            Summary::from_samples(&samples).mean
        };
        let multi: f64 = {
            let samples: Vec<f64> = (0..40)
                .map(|i| {
                    let mut w = MultiWalk::new_at(&g, 0, 8, Laziness::None);
                    w.run_until(StopWhen::Complete, &mut ctx(900 + i), 10_000_000)
                        .unwrap() as f64
                })
                .collect();
            Summary::from_samples(&samples).mean
        };
        assert!(
            multi < single / 2.0,
            "8 walkers not even 2x faster: {multi} vs {single}"
        );
    }

    #[test]
    fn multiwalk_walker_count_is_preserved() {
        let g = generators::torus(&[4, 4]);
        let mut w = MultiWalk::new(&g, &[0, 0, 5], Laziness::None);
        let mut cx = ctx(5);
        for _ in 0..50 {
            w.step(&mut cx);
            assert_eq!(w.positions().len(), 3, "walkers never coalesce");
        }
        assert_eq!(w.transmissions(), 150);
    }

    #[test]
    fn walk_transmissions_equal_rounds() {
        let g = generators::cycle(5);
        let mut w = RandomWalk::new(&g, 0, Laziness::None);
        let mut cx = ctx(6);
        for _ in 0..17 {
            w.step(&mut cx);
        }
        assert_eq!(w.transmissions(), 17);
    }

    #[test]
    fn multiwalk_single_vertex_reset_restores_k_walkers() {
        let g = generators::cycle(12);
        let mut w = MultiWalk::new_at(&g, 0, 5, Laziness::None);
        w.step(&mut ctx(7));
        w.reset(&g, &[4]);
        assert_eq!(w.positions(), &[4; 5]);
        assert_eq!(w.rounds(), 0);
        assert_eq!(w.reached_count(), 1);
    }
}
