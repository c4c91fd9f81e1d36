//! BIPS — Biased Infection with Persistent Source.
//!
//! For a source `v`: `A_0 = {v}`; each round every vertex `u ≠ v`
//! independently samples `b` neighbours uniformly with replacement and
//! belongs to `A_{t+1}` iff at least one sample lies in `A_t`; the
//! source belongs to every `A_t`. `infec(v) = min{t : A_t = V}`.
//!
//! Two round implementations with *identical law* (vertices sample
//! independently given `A_t`, so per-vertex Bernoulli draws with the
//! exact per-vertex infection probability reproduce the joint
//! distribution):
//!
//! * [`BipsMode::ExactSampling`] — literally draw the `b` neighbour
//!   picks per vertex; `O(n·b)` per round. The reference semantics.
//! * [`BipsMode::Bernoulli`] — compute `d_A(u)` by scanning the edges of
//!   the infected set, then draw one Bernoulli per candidate with
//!   `p = 1 − (1 − q)(1 − ρq)` (eq. 33) or `1 − (1 − q)^b` (eq. 32);
//!   `O(d(A_t))` per round, much faster while the infection is small.
//!
//! The Bernoulli draw is an integer compare. `random_bool(p)` tests
//! `(x >> 11) · 2⁻⁵³ < p` for one RNG word `x`, which holds exactly when
//! `x >> 11 < ⌈p · 2⁵³⌉`, so [`InfectionThresholds`] keeps that bound per
//! `(d(u), d_A(u), u ∈ A_t)`. It decides as `random_bool(p)` would on
//! every word and consumes the same words, so no sample differs from the
//! floating-point draw (the `lollipop:12` golden rows pin several
//! degree rows). The sharded kernel draws through the same table.
//!
//! The equivalence is property-tested in this module (KS test on
//! infection trajectories, and a round-by-round replay against a naive
//! `random_bool` round) — it is the implementation detail the fast
//! experiments lean on.
//!
//! # State and cost
//!
//! The state owns a double-buffered pair of infected-set bit sets, the
//! `d_A` counters, the first-arrival slots and each vertex's threshold
//! row, so steady-state rounds and trial resets perform no heap
//! allocation. There is no vertex list of `A_t`: a round walks the
//! infected set's words in ascending order, which is the order a sorted
//! list would give. The rows are resolved once per graph (at the reset
//! onto it): one shared row when every vertex has the same degree, else
//! one row start per vertex. A plain candidate then costs one threshold
//! load and one RNG word, with no degree, row or membership lookup; its
//! `d_A` counter is cleared in the same loop. A lazy candidate adds one
//! membership test.

use crate::branching::{Branching, InfectionThresholds, Laziness};
use crate::state::{ProcessState, ProcessView, StepCtx};
use cobra_graph::{Graph, Topology, VertexId};
use cobra_util::BitSet;
use rand::rngs::SmallRng;

/// Which round implementation a [`Bips`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BipsMode {
    /// Literal neighbour sampling (reference semantics).
    ExactSampling,
    /// Law-identical Bernoulli fast path over candidates.
    Bernoulli,
}

/// A running BIPS process, generic over the graph backend.
#[derive(Debug, Clone)]
pub struct Bips<'g, T: Topology = Graph> {
    g: &'g T,
    source: VertexId,
    branching: Branching,
    laziness: Laziness,
    mode: BipsMode,
    infected: BitSet,
    /// Back buffer for the next infected set (double-buffered).
    next: BitSet,
    rounds: usize,
    transmissions: u64,
    /// Scratch: `d_A(u)` counters for the Bernoulli path.
    d_a: Vec<u32>,
    /// Scratch: vertices with nonzero `d_a` this round, in first-arrival
    /// order, as a prefix; one spare slot past `n` takes the writes of
    /// repeat arrivals once every vertex is in.
    touched_slots: Vec<VertexId>,
    /// The Bernoulli path's exact draw thresholds, kept across resets.
    thresholds: InfectionThresholds,
    /// Where each vertex's threshold row starts, for the graph the
    /// Bernoulli path last reset onto.
    rows: ThresholdRows,
}

/// Each vertex's row in the [`InfectionThresholds`] table.
#[derive(Debug, Clone)]
enum ThresholdRows {
    /// Not resolved for the current graph.
    Unresolved,
    /// Every vertex has the same degree, so it shares this row.
    Shared(usize),
    /// Row start per vertex.
    PerVertex(Vec<u32>),
}

impl<'g, T: Topology> Bips<'g, T> {
    /// Starts BIPS with the given persistent source.
    pub fn new(
        g: &'g T,
        source: VertexId,
        branching: Branching,
        laziness: Laziness,
        mode: BipsMode,
    ) -> Self {
        branching.validate();
        let mut bips = Bips {
            g,
            source,
            branching,
            laziness,
            mode,
            infected: BitSet::new(g.n()),
            next: BitSet::new(g.n()),
            rounds: 0,
            transmissions: 0,
            d_a: vec![0; g.n()],
            touched_slots: vec![0; g.n() + 1],
            thresholds: InfectionThresholds::new(branching, laziness),
            rows: ThresholdRows::Unresolved,
        };
        bips.reset(g, &[source]);
        bips
    }

    /// The canonical process of the paper: `b = 2`, non-lazy, fast path.
    pub fn b2(g: &'g T, source: VertexId) -> Self {
        Bips::new(
            g,
            source,
            Branching::B2,
            Laziness::None,
            BipsMode::Bernoulli,
        )
    }

    /// Current infected set `A_t`.
    pub fn infected(&self) -> &BitSet {
        &self.infected
    }

    /// `|A_t|`.
    pub fn infected_count(&self) -> usize {
        self.infected.count()
    }

    /// `d(A_t) = Σ_{u∈A_t} d(u)` — the quantity Theorem 1.4's analysis
    /// tracks.
    pub fn infected_degree(&self) -> usize {
        self.infected
            .iter()
            .map(|u| self.g.degree(u as VertexId))
            .sum()
    }

    /// True iff `u ∈ A_t`.
    pub fn is_infected(&self, u: VertexId) -> bool {
        self.infected.contains(u as usize)
    }

    /// The persistent source.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Overrides the current infected set (the source is inserted
    /// regardless). Used by conditional-expectation experiments that
    /// check per-configuration statements like Lemma 4.1
    /// (`E(|A_{t+1}| | A_t = A)`), which quantify over arbitrary sets `A`.
    pub fn set_infected_state(&mut self, vertices: &[VertexId]) {
        self.infected.clear();
        self.infected.insert(self.source as usize);
        for &u in vertices {
            assert!((u as usize) < self.g.n(), "vertex {u} out of range");
            self.infected.insert(u as usize);
        }
    }

    fn step_exact(&mut self, rng: &mut SmallRng) {
        let n = self.g.n();
        let mut next = std::mem::replace(&mut self.next, BitSet::new(0));
        next.clear();
        next.insert(self.source as usize);
        for u in 0..n as VertexId {
            if u == self.source {
                continue;
            }
            let picks = self.branching.sample(rng);
            self.transmissions += picks as u64;
            for _ in 0..picks {
                let w = self.laziness.pick(self.g, u, rng);
                if self.infected.contains(w as usize) {
                    next.insert(u as usize);
                    break;
                }
            }
        }
        self.commit(next);
    }

    fn step_bernoulli(&mut self, rng: &mut SmallRng) {
        let n = self.g.n();
        // d_A(u) for every u adjacent to the infected set, scattered from
        // the infected vertices in ascending order (neighbours enumerate
        // in sorted order on every backend, so `touched` order — and the
        // Bernoulli draw order below — is backend-invariant).
        let (g, d_a, slots) = (self.g, &mut self.d_a, &mut self.touched_slots);
        let mut len = 0;
        for_each_member(&self.infected, |w| {
            g.for_each_neighbor(w, |u| {
                // Branch-free append: every arrival writes the next slot,
                // only a first arrival keeps it.
                slots[len] = u;
                len += usize::from(d_a[u as usize] == 0);
                d_a[u as usize] += 1;
            });
        });
        let mut next = std::mem::replace(&mut self.next, BitSet::new(0));
        next.clear();
        next.insert(self.source as usize);
        let round = Draws {
            touched: &self.touched_slots[..len],
            infected: &self.infected,
            table: self.thresholds.table(),
            source: self.source,
            lazy: self.laziness == Laziness::Half,
        };
        match &self.rows {
            ThresholdRows::Shared(row) => round.run(rng, &mut self.d_a, &mut next, |_| *row),
            ThresholdRows::PerVertex(rows) => {
                round.run(rng, &mut self.d_a, &mut next, |u| rows[u as usize] as usize)
            }
            ThresholdRows::Unresolved => unreachable!("reset resolves the threshold rows"),
        }
        // Bookkeeping: transmissions are what the *process* would send
        // (b picks per non-source vertex), independent of the shortcut.
        self.transmissions += ((n - 1) as f64 * self.branching.expected()).round() as u64;
        self.commit(next);
    }

    /// Installs `next` as `A_{t+1}`, recycling the old set as the next
    /// round's back buffer.
    fn commit(&mut self, next: BitSet) {
        self.next = std::mem::replace(&mut self.infected, next);
        self.rounds += 1;
    }

    /// Resolves every vertex's threshold row on `g`: one shared row
    /// when `g` is regular, else one row start per vertex.
    fn resolve_rows(&mut self, g: &T) {
        let (d0, thresholds) = (g.degree(0), &mut self.thresholds);
        self.rows = if (1..g.n() as VertexId).all(|v| g.degree(v) == d0) {
            ThresholdRows::Shared(thresholds.row(d0))
        } else {
            ThresholdRows::PerVertex(
                (0..g.n() as VertexId)
                    .map(|v| {
                        let row = thresholds.row(g.degree(v));
                        u32::try_from(row).expect("threshold table over u32 entries")
                    })
                    .collect(),
            )
        };
    }
}

/// The candidate draws of one Bernoulli round, after the scatter.
struct Draws<'a> {
    /// Candidates in first-arrival order.
    touched: &'a [VertexId],
    infected: &'a BitSet,
    table: &'a [u64],
    source: VertexId,
    lazy: bool,
}

impl Draws<'_> {
    /// Draws every candidate in `touched` order, then (lazy) every
    /// infected vertex without an infected neighbour in ascending order,
    /// ORing hits into `next` and leaving `d_a` all zero. `row(u)` is
    /// the start of `u`'s threshold row; monomorphized per row layout.
    #[inline(always)]
    fn run(
        &self,
        rng: &mut SmallRng,
        d_a: &mut [u32],
        next: &mut BitSet,
        row: impl Fn(VertexId) -> usize,
    ) {
        // `touched` never repeats a vertex, so only the source is in
        // `next` yet: each hit is ORed in without testing membership or
        // branching on the coin.
        let mut infect = |u: VertexId, t: u64| {
            let hit = InfectionThresholds::decide(rng, t);
            next.or_word(u as usize / 64, u64::from(hit) << (u % 64));
        };
        for &u in self.touched {
            let k = d_a[u as usize] as usize;
            if self.lazy {
                // A lazy pick can land on `u` itself. Infected candidates
                // keep a mark for the pass below, which clears it.
                let self_infected = self.infected.contains(u as usize);
                d_a[u as usize] = u32::from(self_infected);
                if u != self.source {
                    infect(u, self.table[row(u) + 2 * k + usize::from(self_infected)]);
                }
            } else {
                d_a[u as usize] = 0;
                if u != self.source {
                    infect(u, self.table[row(u) + k]);
                }
            }
        }
        if self.lazy {
            // A self-pick can re-infect, so an infected vertex is a
            // candidate even with no infected neighbour. Those with one
            // were drawn above (and marked); a second draw would break
            // the law.
            for_each_member(self.infected, |u| {
                if d_a[u as usize] != 0 {
                    d_a[u as usize] = 0;
                } else if u != self.source {
                    infect(u, self.table[row(u) + 1]);
                }
            });
        }
    }
}

/// Calls `f` for every member of `set` in ascending order, straight from
/// its words.
#[inline]
fn for_each_member(set: &BitSet, mut f: impl FnMut(VertexId)) {
    for (wi, &word) in set.words().iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f((wi * 64) as VertexId + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

impl<T: Topology> ProcessView for Bips<'_, T> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn reached(&self) -> &BitSet {
        &self.infected
    }

    fn transmissions(&self) -> u64 {
        self.transmissions
    }
}

impl<'g, T: Topology> ProcessState<'g, T> for Bips<'g, T> {
    fn reset(&mut self, g: &'g T, start: &[VertexId]) {
        assert!(!start.is_empty(), "BIPS needs a source");
        let source = start[0];
        assert!((source as usize) < g.n(), "source vertex out of range");
        assert!(
            g.n() == 1 || g.degree(source) > 0,
            "source must not be isolated"
        );
        if !std::ptr::eq(self.g, g) {
            self.rows = ThresholdRows::Unresolved;
        }
        self.g = g;
        self.source = source;
        if self.infected.len() != g.n() {
            self.infected = BitSet::new(g.n());
            self.next = BitSet::new(g.n());
            self.d_a = vec![0; g.n()];
            self.touched_slots = vec![0; g.n() + 1];
        } else {
            self.infected.clear();
            self.next.clear();
            debug_assert!(self.d_a.iter().all(|&c| c == 0), "d_a left dirty");
        }
        self.infected.insert(source as usize);
        if self.mode == BipsMode::Bernoulli && matches!(self.rows, ThresholdRows::Unresolved) {
            self.resolve_rows(g);
        }
        self.rounds = 0;
        self.transmissions = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        match self.mode {
            BipsMode::ExactSampling => self.step_exact(&mut ctx.rng),
            BipsMode::Bernoulli => self.step_bernoulli(&mut ctx.rng),
        }
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
    fn source_is_always_infected() {
        let g = generators::cycle(8);
        for mode in [BipsMode::ExactSampling, BipsMode::Bernoulli] {
            let mut b = Bips::new(&g, 3, Branching::B2, Laziness::None, mode);
            let mut cx = ctx(1);
            for _ in 0..50 {
                b.step(&mut cx);
                assert!(b.is_infected(3), "{mode:?}: source dropped out");
            }
        }
    }

    #[test]
    fn infection_can_recede_but_source_remains() {
        // On a star with source at a leaf, the centre flickers: verify
        // |A_t| both grows and shrinks over a long run (SIS behaviour).
        let g = generators::star(12);
        let mut b = Bips::new(
            &g,
            1,
            Branching::B2,
            Laziness::None,
            BipsMode::ExactSampling,
        );
        let mut cx = ctx(2);
        let mut grew = false;
        let mut shrank = false;
        let mut prev = b.infected_count();
        for _ in 0..400 {
            b.step(&mut cx);
            let now = b.infected_count();
            grew |= now > prev;
            shrank |= now < prev;
            prev = now;
        }
        assert!(grew && shrank, "grew={grew} shrank={shrank}");
    }

    #[test]
    fn infects_complete_graph_quickly() {
        let g = generators::complete(64);
        for mode in [BipsMode::ExactSampling, BipsMode::Bernoulli] {
            let mut b = Bips::new(&g, 0, Branching::B2, Laziness::None, mode);
            let t = b
                .run_until(StopWhen::Complete, &mut ctx(3), 10_000)
                .expect("infects");
            assert!(t < 100, "{mode:?}: K_64 infection took {t}");
        }
    }

    #[test]
    fn infected_degree_accounting() {
        let g = generators::star(6);
        let b = Bips::b2(&g, 0);
        assert_eq!(b.infected_degree(), 5, "centre has degree 5");
    }

    #[test]
    fn modes_agree_in_distribution() {
        // Same law: compare infection-size samples after a fixed number
        // of rounds via KS across many independent runs.
        let g = generators::petersen();
        let trials = 400;
        let rounds = 4;
        let collect = |mode: BipsMode, salt: u64| -> Vec<f64> {
            (0..trials)
                .map(|i| {
                    let mut b = Bips::new(&g, 0, Branching::B2, Laziness::None, mode);
                    let mut cx = ctx(1000 + salt * 7919 + i);
                    for _ in 0..rounds {
                        b.step(&mut cx);
                    }
                    b.infected_count() as f64
                })
                .collect()
        };
        let exact = collect(BipsMode::ExactSampling, 1);
        let fast = collect(BipsMode::Bernoulli, 2);
        let ks = cobra_stats::ks_two_sample(&exact, &fast);
        assert!(
            ks.p_value > 0.001,
            "modes differ in law: D={} p={}",
            ks.statistic,
            ks.p_value
        );
    }

    #[test]
    fn modes_agree_with_rho_branching() {
        let g = generators::complete(12);
        let trials = 300;
        let collect = |mode: BipsMode, salt: u64| -> Vec<f64> {
            (0..trials)
                .map(|i| {
                    let mut b = Bips::new(&g, 0, Branching::Expected(0.4), Laziness::None, mode);
                    let mut cx = ctx(5000 + salt * 104_729 + i);
                    for _ in 0..3 {
                        b.step(&mut cx);
                    }
                    b.infected_count() as f64
                })
                .collect()
        };
        let ks = cobra_stats::ks_two_sample(
            &collect(BipsMode::ExactSampling, 1),
            &collect(BipsMode::Bernoulli, 2),
        );
        assert!(ks.p_value > 0.001, "rho modes differ: {ks:?}");
    }

    #[test]
    fn lazy_modes_agree() {
        let g = generators::cycle(10); // bipartite; laziness matters here
        let trials = 300;
        let collect = |mode: BipsMode, salt: u64| -> Vec<f64> {
            (0..trials)
                .map(|i| {
                    let mut b = Bips::new(&g, 0, Branching::B2, Laziness::Half, mode);
                    let mut cx = ctx(9000 + salt * 31 + i);
                    for _ in 0..6 {
                        b.step(&mut cx);
                    }
                    b.infected_count() as f64
                })
                .collect()
        };
        let ks = cobra_stats::ks_two_sample(
            &collect(BipsMode::ExactSampling, 1),
            &collect(BipsMode::Bernoulli, 2),
        );
        assert!(ks.p_value > 0.001, "lazy modes differ: {ks:?}");
    }

    #[test]
    fn bernoulli_mode_handles_single_vertex() {
        let g = generators::path(1);
        let b = Bips::new(&g, 0, Branching::B2, Laziness::None, BipsMode::Bernoulli);
        assert!(b.is_complete());
    }

    #[test]
    fn censoring_reports_none() {
        let g = generators::path(256);
        let mut b = Bips::b2(&g, 0);
        assert_eq!(b.run_until(StopWhen::Complete, &mut ctx(6), 5), None);
        assert_eq!(b.rounds(), 5);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut cx = ctx(7);
        let g = generators::random_regular(40, 3, true, &mut cx.rng).unwrap();
        let a = Bips::b2(&g, 0).run_until(StopWhen::Complete, &mut ctx(8), 1_000_000);
        let b = Bips::b2(&g, 0).run_until(StopWhen::Complete, &mut ctx(8), 1_000_000);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn reset_reproduces_a_fresh_state_bit_for_bit() {
        let g = generators::petersen();
        for mode in [BipsMode::ExactSampling, BipsMode::Bernoulli] {
            let mut reused = Bips::new(&g, 0, Branching::B2, Laziness::Half, mode);
            let mut cx = ctx(55);
            let a = reused.run_until(StopWhen::Complete, &mut cx, 100_000);
            reused.reset(&g, &[0]);
            cx.reseed(55);
            let b = reused.run_until(StopWhen::Complete, &mut cx, 100_000);
            assert_eq!(a, b, "{mode:?}");
        }
    }

    /// One Bernoulli round written the obvious way: `d_A` and the
    /// first-arrival order from the neighbours of the sorted infected
    /// set, `random_bool(p)` per candidate, then the lazy self-pick
    /// candidates over the sorted set. Returns the sorted `A_{t+1}`.
    fn naive_round(
        g: &Graph,
        source: VertexId,
        (branching, laziness): (Branching, Laziness),
        infected: &[VertexId],
        rng: &mut SmallRng,
    ) -> Vec<VertexId> {
        use rand::RngExt;
        let mut d_a = vec![0u32; g.n()];
        let mut order = Vec::new();
        for &w in infected {
            for &u in g.neighbors(w) {
                if d_a[u as usize] == 0 {
                    order.push(u);
                }
                d_a[u as usize] += 1;
            }
        }
        let mut p = |u: VertexId, k: u32, self_infected: bool| {
            let frac = k as f64 / g.degree(u) as f64;
            let q = laziness.pick_infected_probability(frac, self_infected);
            rng.random_bool(branching.infection_probability(q))
        };
        let mut next = vec![source];
        for &u in &order {
            let self_infected = infected.binary_search(&u).is_ok();
            if u != source && p(u, d_a[u as usize], self_infected) {
                next.push(u);
            }
        }
        if laziness == Laziness::Half {
            for &u in infected {
                if u != source && d_a[u as usize] == 0 && p(u, 0, true) {
                    next.push(u);
                }
            }
        }
        next.sort_unstable();
        next
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The Bernoulli round against [`naive_round`], round by round:
        /// equal infected sets and equal RNG state after every round, on
        /// irregular graphs (per-vertex rows) and a regular one (a
        /// shared row), across resets onto a new graph of the same `n`.
        #[test]
        fn bernoulli_round_matches_the_naive_round(
            seed in 0u64..1_000_000,
            n in 12usize..48,
            law in 0usize..6,
        ) {
            let mut gen = ctx(seed).rng;
            let graphs = [
                generators::barabasi_albert(n, 2, &mut gen),
                generators::barabasi_albert(n, 3, &mut gen),
                generators::cycle(n),
                generators::lollipop(n / 2, n - n / 2),
            ];
            let branching = [Branching::B2, Branching::Fixed(3), Branching::Expected(0.4)][law % 3];
            let laziness = [Laziness::None, Laziness::Half][law / 3];
            let mut bips = Bips::new(&graphs[0], 0, branching, laziness, BipsMode::Bernoulli);
            let mut cx = ctx(seed ^ 0xB1B5);
            let mut rng = cx.rng.clone();
            for (i, g) in graphs.iter().enumerate() {
                prop_assert_eq!(g.n(), n);
                let source = (seed as usize + i) % n;
                bips.reset(g, &[source as VertexId]);
                let mut infected = vec![source as VertexId];
                for round in 0..30 {
                    bips.step(&mut cx);
                    infected = naive_round(g, source as VertexId, (branching, laziness), &infected, &mut rng);
                    prop_assert_eq!(bips.infected().to_vec(), infected.clone(), "graph {} round {}", i, round);
                    prop_assert!(cx.rng == rng, "graph {} round {}: RNG streams drifted", i, round);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// BIPS b=2 fully infects random connected graphs within the
        /// Theorem 1.4 cap shape (with a generous constant).
        #[test]
        fn infects_random_connected_graphs(seed in 0u64..10_000) {
            let mut cx = ctx(seed);
            let g0 = generators::gnp(36, 0.14, &mut cx.rng);
            let (g, _) = cobra_graph::props::largest_component(&g0);
            prop_assume!(g.n() >= 3);
            let mut b = Bips::b2(&g, 0);
            let n = g.n();
            let dmax = g.max_degree();
            let cap = 200 * (g.m() + dmax * dmax * (cobra_util::math::log2_ceil(n) as usize + 1)) + 10_000;
            prop_assert!(b.run_until(StopWhen::Complete, &mut cx, cap).is_some());
        }
    }
}
