//! Round-synchronous PUSH/PULL rumour spreading.
//!
//! The classic epidemic baseline: once informed, a vertex pushes the
//! rumour to random neighbours in *every* subsequent round and never
//! forgets. COBRA's design point is matching PUSH-like speed while
//! keeping per-round transmissions bounded by the active set (vertices
//! stop pushing until re-hit) — this baseline quantifies the other end
//! of that trade-off.

use crate::state::{ProcessState, ProcessView, StepCtx};
use cobra_graph::{Graph, Topology, VertexId};
use cobra_util::BitSet;

/// Which directions a [`Gossip`] round uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipMode {
    /// Informed vertices push to one random neighbour.
    Push,
    /// Every uninformed vertex pulls from one random neighbour.
    Pull,
    /// Both (the Karp et al. push–pull protocol).
    PushPull,
}

/// Round-synchronous gossip in push, pull, or push–pull mode. Vertices
/// stay informed forever — the "unbounded memory" end of the trade-off
/// COBRA sits on.
#[derive(Debug, Clone)]
pub struct Gossip<'g, T: Topology = Graph> {
    g: &'g T,
    mode: GossipMode,
    informed: BitSet,
    informed_list: Vec<VertexId>,
    rounds: usize,
    transmissions: u64,
}

impl<'g, T: Topology> Gossip<'g, T> {
    /// Starts with a single informed vertex.
    pub fn new(g: &'g T, start: VertexId, mode: GossipMode) -> Self {
        let mut gossip = Gossip {
            g,
            mode,
            informed: BitSet::new(g.n()),
            informed_list: Vec::new(),
            rounds: 0,
            transmissions: 0,
        };
        gossip.reset(g, &[start]);
        gossip
    }

    /// Informed set.
    pub fn informed(&self) -> &BitSet {
        &self.informed
    }
}

impl<T: Topology> ProcessView for Gossip<'_, T> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn reached(&self) -> &BitSet {
        &self.informed
    }

    fn transmissions(&self) -> u64 {
        self.transmissions
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for Gossip<'g, T> {
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        assert!(!start.is_empty(), "gossip needs a start vertex");
        let start = start[0];
        assert!((start as usize) < g.n(), "start vertex out of range");
        self.g = g;
        if self.informed.len() != g.n() {
            self.informed = BitSet::new(g.n());
        } else {
            self.informed.clear();
        }
        self.informed.insert(start as usize);
        self.informed_list.clear();
        self.informed_list.push(start);
        self.rounds = 0;
        self.transmissions = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let StepCtx { rng, scratch, .. } = ctx;
        let parts = scratch.parts(self.g.n());
        // `mark` holds this round's newly informed vertices, so each
        // joins `newly` once, in first-arrival order.
        let (newly, mark) = (parts.frontier, parts.mark);
        let push = matches!(self.mode, GossipMode::Push | GossipMode::PushPull);
        let pull = matches!(self.mode, GossipMode::Pull | GossipMode::PushPull);
        if push {
            for &v in &self.informed_list {
                let w = self.g.sample_neighbor(v, rng);
                self.transmissions += 1;
                if !self.informed.contains(w as usize) && mark.insert(w as usize) {
                    newly.push(w);
                }
            }
        }
        if pull {
            for u in 0..self.g.n() as VertexId {
                if self.informed.contains(u as usize) {
                    continue;
                }
                let w = self.g.sample_neighbor(u, rng);
                self.transmissions += 1;
                if self.informed.contains(w as usize) && mark.insert(u as usize) {
                    newly.push(u);
                }
            }
        }
        mark.clear_indices(newly);
        // Synchronous semantics: all of this round's infections use the
        // round-start informed set; commit afterwards.
        for &w in newly.iter() {
            self.informed.insert(w as usize);
        }
        self.informed_list.extend_from_slice(newly);
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
    fn informed_set_is_monotone() {
        let g = generators::torus(&[6, 6]);
        let mut p = Gossip::new(&g, 0, GossipMode::Push);
        let mut cx = ctx(1);
        let mut prev = 1;
        for _ in 0..100 {
            p.step(&mut cx);
            assert!(p.reached_count() >= prev, "gossip forgot something");
            prev = p.reached_count();
        }
    }

    #[test]
    fn broadcasts_complete_graph_in_logarithmic_rounds() {
        let g = generators::complete(256);
        let mut p = Gossip::new(&g, 0, GossipMode::Push);
        let t = p
            .run_until(StopWhen::Complete, &mut ctx(2), 10_000)
            .unwrap();
        // Push on K_n: ~log2 n + ln n ≈ 13.5 expected; allow wide slack.
        assert!((8..60).contains(&t), "broadcast took {t}");
    }

    #[test]
    fn transmissions_grow_with_informed_set() {
        let g = generators::complete(32);
        let mut p = Gossip::new(&g, 0, GossipMode::Push);
        let mut cx = ctx(3);
        p.step(&mut cx);
        assert_eq!(p.transmissions(), 1);
        let informed_now = p.reached_count() as u64;
        p.step(&mut cx);
        assert_eq!(p.transmissions(), 1 + informed_now);
    }

    #[test]
    fn gossip_eventually_informs_path() {
        let g = generators::path(40);
        let mut p = Gossip::new(&g, 0, GossipMode::Push);
        assert!(p
            .run_until(StopWhen::Complete, &mut ctx(4), 100_000)
            .is_some());
    }

    #[test]
    fn single_vertex_trivially_done() {
        let g = generators::path(1);
        let p = Gossip::new(&g, 0, GossipMode::Push);
        assert!(p.is_complete());
    }

    #[test]
    fn pull_informs_star_leaves_in_one_round() {
        // Star with informed centre: every leaf pulls from the centre.
        let g = generators::star(10);
        let mut p = Gossip::new(&g, 0, GossipMode::Pull);
        p.step(&mut ctx(10));
        assert!(
            p.is_complete(),
            "pull from the hub must finish in one round"
        );
    }

    #[test]
    fn push_struggles_where_pull_shines() {
        // Same star, push-only from the centre: one leaf per round.
        let g = generators::star(10);
        let mut p = Gossip::new(&g, 0, GossipMode::Push);
        let mut cx = ctx(11);
        p.step(&mut cx);
        assert_eq!(
            p.reached_count(),
            2,
            "push informs exactly one leaf per round"
        );
    }

    #[test]
    fn push_pull_dominates_both() {
        let g = generators::torus(&[7, 7]);
        let mean_rounds = |mode: GossipMode, salt: u64| -> f64 {
            let mut total = 0.0;
            for i in 0..20u64 {
                let mut p = Gossip::new(&g, 0, mode);
                total += p
                    .run_until(StopWhen::Complete, &mut ctx(salt + i), 100_000)
                    .unwrap() as f64;
            }
            total / 20.0
        };
        let push = mean_rounds(GossipMode::Push, 100);
        let pull = mean_rounds(GossipMode::Pull, 200);
        let both = mean_rounds(GossipMode::PushPull, 300);
        assert!(
            both <= push && both <= pull,
            "push-pull {both} vs push {push}, pull {pull}"
        );
    }

    #[test]
    fn gossip_modes_all_complete_on_expander() {
        let g = generators::complete(64);
        for mode in [GossipMode::Push, GossipMode::Pull, GossipMode::PushPull] {
            let mut p = Gossip::new(&g, 0, mode);
            let t = p
                .run_until(StopWhen::Complete, &mut ctx(12), 10_000)
                .unwrap();
            assert!(t < 100, "{mode:?} took {t}");
        }
    }

    #[test]
    fn pull_transmissions_counted_per_uninformed_vertex() {
        let g = generators::complete(8);
        let mut p = Gossip::new(&g, 0, GossipMode::Pull);
        p.step(&mut ctx(13));
        assert_eq!(p.transmissions(), 7, "7 uninformed vertices pulled once");
    }

    #[test]
    fn synchronous_pull_uses_round_start_set() {
        // On a path 0-1-2 with only 0 informed, vertex 2 cannot become
        // informed in round 1 even if vertex 1 does (it pulls from the
        // round-start set).
        let g = generators::path(3);
        for seed in 0..50 {
            let mut p = Gossip::new(&g, 0, GossipMode::Pull);
            p.step(&mut ctx(1000 + seed));
            assert!(
                !p.informed().contains(2),
                "vertex 2 informed in one round: pull is not synchronous"
            );
        }
    }

    #[test]
    fn reset_reproduces_fresh_broadcast() {
        let g = generators::complete(32);
        let mut p = Gossip::new(&g, 0, GossipMode::PushPull);
        let mut cx = ctx(21);
        let a = p.run_until(StopWhen::Complete, &mut cx, 10_000);
        p.reset(&g, &[0]);
        cx.reseed(21);
        let b = p.run_until(StopWhen::Complete, &mut cx, 10_000);
        assert_eq!(a, b);
    }
}
