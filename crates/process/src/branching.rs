//! Branching factors and laziness, shared by COBRA and BIPS.

use cobra_graph::{Topology, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt};

/// Branching factor `b` of the COBRA/BIPS processes.
///
/// The paper's main results take `b = 2` (`Fixed(2)`); §6 extends them
/// to the expected branching factor `b = 1 + ρ` where each particle
/// doubles with probability ρ (`Expected(ρ)`); `Fixed(1)` degenerates to
/// a simple random walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Branching {
    /// Every particle sends exactly `b ≥ 1` copies.
    Fixed(u32),
    /// Every particle sends 2 copies with probability ρ, else 1
    /// (expected branching factor `1 + ρ`), `0 < ρ ≤ 1`.
    Expected(f64),
}

impl Branching {
    /// The canonical process of the paper.
    pub const B2: Branching = Branching::Fixed(2);

    /// Validates parameters; called by process constructors.
    pub fn validate(&self) {
        match *self {
            Branching::Fixed(b) => assert!(b >= 1, "branching factor must be >= 1"),
            Branching::Expected(rho) => {
                assert!(
                    rho > 0.0 && rho <= 1.0,
                    "expected branching needs 0 < rho <= 1, got {rho}"
                )
            }
        }
    }

    /// Number of copies pushed this round by one particle.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        match *self {
            Branching::Fixed(b) => b,
            Branching::Expected(rho) => {
                if rng.random_bool(rho) {
                    2
                } else {
                    1
                }
            }
        }
    }

    /// Expected number of copies per particle per round.
    pub fn expected(&self) -> f64 {
        match *self {
            Branching::Fixed(b) => b as f64,
            Branching::Expected(rho) => 1.0 + rho,
        }
    }

    /// Probability that a vertex with infected-neighbour fraction `q`
    /// catches the infection in one BIPS round (equations (32)/(33) of
    /// the paper), where `q = d_A(u)/d(u)` — or the lazy-adjusted pick
    /// probability.
    pub fn infection_probability(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q));
        match *self {
            Branching::Fixed(b) => 1.0 - (1.0 - q).powi(b as i32),
            Branching::Expected(rho) => 1.0 - (1.0 - q) * (1.0 - rho * q),
        }
    }
}

/// Laziness of the neighbour picks.
///
/// The paper's fix for bipartite graphs: each individual pick lands on
/// the vertex itself with probability ½, otherwise on a uniform
/// neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Laziness {
    /// Plain uniform neighbour picks.
    None,
    /// Each pick is "self" with probability ½.
    Half,
}

impl Laziness {
    /// Draws one pick for vertex `v` under this laziness policy. The
    /// RNG consumption is identical on every backend (one
    /// `random_range(0..degree)` per neighbour pick), so trajectories
    /// are backend-invariant.
    #[inline]
    pub fn pick<T: Topology>(&self, g: &T, v: VertexId, rng: &mut SmallRng) -> VertexId {
        match self {
            Laziness::None => g.sample_neighbor(v, rng),
            Laziness::Half => {
                if rng.random_bool(0.5) {
                    v
                } else {
                    g.sample_neighbor(v, rng)
                }
            }
        }
    }

    /// Per-pick probability of landing on an infected vertex, given the
    /// infected-neighbour fraction `frac = d_A(u)/d(u)` and whether `u`
    /// itself is currently infected.
    #[inline]
    pub fn pick_infected_probability(&self, frac: f64, self_infected: bool) -> f64 {
        match self {
            Laziness::None => frac,
            Laziness::Half => 0.5 * frac + if self_infected { 0.5 } else { 0.0 },
        }
    }
}

/// The BIPS per-candidate Bernoulli draw as an exact integer compare.
///
/// A candidate `u` of degree `d` with `k = d_A(u)` infected neighbours
/// is infected with `p = infection_probability(pick_infected_probability(k / d, u ∈ A))`
/// (equations (32)/(33)). The vendored `random_bool(p)` draws one word
/// `x` and tests `(x >> 11) · 2⁻⁵³ < p`. Both sides are exact in `f64`
/// (a 53-bit integer times a power of two), so the test holds exactly
/// when the integer `x >> 11` is below `T = ⌈p · 2⁵³⌉`. This table holds
/// `T` for every `(d, k, u ∈ A)`, computed through the same two calls,
/// so [`draw`](Self::draw) makes the same decision as `random_bool(p)`
/// for every word and consumes the same words: one `next_u64` when
/// `p > 0` (exactly when `T > 0`), none otherwise. No sample can change.
///
/// A row depends only on `(branching, laziness, d)`, never on the graph.
/// Rows fill the first time their degree is met and survive trial
/// resets, so steady-state rounds allocate nothing. Nothing is
/// precomputed up to the maximum degree, which would cost
/// `O(d_max²)` on hub-heavy graphs.
#[derive(Debug, Clone)]
pub struct InfectionThresholds {
    branching: Branching,
    laziness: Laziness,
    /// Start of degree `d`'s row in `thresholds`, or [`Self::UNFILLED`].
    rows: Vec<usize>,
    /// Row `d` holds `T` for `k = 0..=d`; lazy rows interleave the
    /// `u ∉ A` and `u ∈ A` entries per `k`.
    thresholds: Vec<u64>,
}

impl InfectionThresholds {
    const UNFILLED: usize = usize::MAX;

    /// An empty table for one process's `(branching, laziness)`.
    pub fn new(branching: Branching, laziness: Laziness) -> InfectionThresholds {
        InfectionThresholds {
            branching,
            laziness,
            rows: Vec::new(),
            thresholds: Vec::new(),
        }
    }

    /// Entries per `k`: only a lazy pick can land on `u` itself.
    fn stride(&self) -> usize {
        match self.laziness {
            Laziness::None => 1,
            Laziness::Half => 2,
        }
    }

    /// `T = ⌈p · 2⁵³⌉` for a vertex of degree `degree` with `k` infected
    /// neighbours, `self_infected` saying whether it is in `A_t` itself.
    #[inline]
    fn threshold(&mut self, degree: usize, k: u32, self_infected: bool) -> u64 {
        let row = self.row(degree);
        let stride = self.stride();
        self.thresholds[row + k as usize * stride + (self_infected as usize & (stride - 1))]
    }

    /// Start of degree `degree`'s row in [`table`](Self::table), filled
    /// on first use. Entry `k` of a plain row is at `row + k`; a lazy
    /// row holds `u ∉ A` at `row + 2k` and `u ∈ A` at `row + 2k + 1`.
    #[inline]
    pub fn row(&mut self, degree: usize) -> usize {
        match self.rows.get(degree) {
            Some(&row) if row != Self::UNFILLED => row,
            _ => self.fill(degree),
        }
    }

    /// Every filled row, addressed through [`row`](Self::row).
    pub fn table(&self) -> &[u64] {
        &self.thresholds
    }

    /// One candidate's Bernoulli draw: `random_bool(p)` without the
    /// floating point, and without a word when `p = 0`.
    #[inline]
    pub fn draw(&mut self, rng: &mut SmallRng, degree: usize, k: u32, self_infected: bool) -> bool {
        Self::decide(rng, self.threshold(degree, k, self_infected))
    }

    /// The draw against a threshold `t` already read from the table.
    #[inline]
    pub fn decide(rng: &mut SmallRng, t: u64) -> bool {
        t > 0 && (rng.next_u64() >> 11) < t
    }

    #[cold]
    fn fill(&mut self, degree: usize) -> usize {
        if self.rows.len() <= degree {
            self.rows.resize(degree + 1, Self::UNFILLED);
        }
        let row = self.thresholds.len();
        let flags: &[bool] = match self.laziness {
            Laziness::None => &[false],
            Laziness::Half => &[false, true],
        };
        for k in 0..=degree {
            let frac = k as f64 / degree as f64;
            for &self_infected in flags {
                // An isolated vertex (`k / d = 0/0`) has no neighbour to
                // pick: its row is all 0 and never drawn.
                let t = if degree == 0 {
                    0
                } else {
                    let q = self.laziness.pick_infected_probability(frac, self_infected);
                    let p = self.branching.infection_probability(q);
                    // Exact: scaling by 2⁵³ only moves the exponent.
                    (p * (1u64 << 53) as f64).ceil() as u64
                };
                self.thresholds.push(t);
            }
        }
        self.rows[degree] = row;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use rand::SeedableRng;

    #[test]
    fn fixed_branching_samples_constant() {
        let mut rng = SmallRng::seed_from_u64(0);
        let b = Branching::Fixed(3);
        for _ in 0..100 {
            assert_eq!(b.sample(&mut rng), 3);
        }
        assert_eq!(b.expected(), 3.0);
    }

    #[test]
    fn expected_branching_mean() {
        let mut rng = SmallRng::seed_from_u64(1);
        let b = Branching::Expected(0.25);
        let n = 40_000;
        let total: u64 = (0..n).map(|_| b.sample(&mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.25).abs() < 0.02, "mean {mean}");
        assert_eq!(b.expected(), 1.25);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_rho_zero() {
        Branching::Expected(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn rejects_b_zero() {
        Branching::Fixed(0).validate();
    }

    #[test]
    fn infection_probability_formulas() {
        // b = 2 at q = 1/2: 1 − (1/2)² = 3/4.
        assert!((Branching::Fixed(2).infection_probability(0.5) - 0.75).abs() < 1e-12);
        // b = 1: probability is q itself.
        assert!((Branching::Fixed(1).infection_probability(0.3) - 0.3).abs() < 1e-12);
        // b = 1+ρ at ρ = 1 must equal b = 2.
        for q in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let a = Branching::Expected(1.0).infection_probability(q);
            let b = Branching::Fixed(2).infection_probability(q);
            assert!((a - b).abs() < 1e-12, "q={q}");
        }
        // Boundary values.
        assert_eq!(Branching::Fixed(2).infection_probability(0.0), 0.0);
        assert_eq!(Branching::Fixed(2).infection_probability(1.0), 1.0);
    }

    #[test]
    fn lazy_pick_hits_self_half_the_time() {
        let g = generators::cycle(5);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut selfs = 0;
        let n = 20_000;
        for _ in 0..n {
            let p = Laziness::Half.pick(&g, 0, &mut rng);
            if p == 0 {
                selfs += 1;
            } else {
                assert!(g.has_edge(0, p));
            }
        }
        let frac = selfs as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "self fraction {frac}");
    }

    #[test]
    fn non_lazy_pick_never_hits_self() {
        let g = generators::cycle(5);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert_ne!(Laziness::None.pick(&g, 2, &mut rng), 2);
        }
    }

    /// A generator that hands `random_bool` one chosen word.
    struct Word(u64);

    impl Rng for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn thresholds_decide_exactly_like_random_bool() {
        let branchings = [
            Branching::Fixed(1),
            Branching::Fixed(2),
            Branching::Fixed(3),
            Branching::Fixed(4),
            Branching::Expected(0.25),
            Branching::Expected(0.5),
            Branching::Expected(1.0),
        ];
        let mut words = SmallRng::seed_from_u64(4);
        for branching in branchings {
            for laziness in [Laziness::None, Laziness::Half] {
                let mut table = InfectionThresholds::new(branching, laziness);
                // Degree 0 has no row in use: a candidate has an
                // infected neighbour, and the source is never drawn.
                for d in 1..=64usize {
                    let mut row = Vec::new();
                    for k in 0..=d as u32 {
                        for self_infected in [false, true] {
                            let frac = k as f64 / d as f64;
                            let q = laziness.pick_infected_probability(frac, self_infected);
                            let p = branching.infection_probability(q);
                            let t = table.threshold(d, k, self_infected);
                            let at =
                                format!("{branching:?} {laziness:?} d={d} k={k} {self_infected}");
                            assert_eq!(t > 0, p > 0.0, "{at}");
                            // The 53-bit values either side of the cut,
                            // with random low bits.
                            for m in [t.wrapping_sub(1), t, t + 1] {
                                if m >= 1 << 53 {
                                    continue;
                                }
                                let x = (m << 11) | (words.next_u64() & 0x7ff);
                                assert_eq!(Word(x).random_bool(p), (x >> 11) < t, "{at} x={x:#x}");
                            }
                            row.push((k, self_infected, p));
                        }
                    }
                    // `draw` against `p > 0 && random_bool(p)` on twin
                    // streams: same decisions, same words consumed.
                    let mut want = words.clone();
                    let mut got = words.clone();
                    for _ in 0..10_000 {
                        let (k, self_infected, p) = row[words.random_range(0..row.len())];
                        assert_eq!(
                            p > 0.0 && want.random_bool(p),
                            table.draw(&mut got, d, k, self_infected),
                            "{branching:?} {laziness:?} d={d} k={k} {self_infected}"
                        );
                    }
                    assert_eq!(
                        want, got,
                        "{branching:?} {laziness:?} d={d}: streams drifted"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_rows_fill_on_first_use_and_stay() {
        let mut table = InfectionThresholds::new(Branching::B2, Laziness::Half);
        assert_eq!(table.threshold(5, 0, false), 0);
        // b = 2, lazy: q = 1 gives p = 1; q = 1/2 gives p = 3/4.
        assert_eq!(table.threshold(5, 5, true), 1 << 53);
        assert_eq!(table.threshold(5, 5, false), 3 << 51);
        assert_eq!(table.threshold(3, 0, true), 3 << 51);
        // Rows for degrees 3 and 5 only, two entries per `k`.
        assert_eq!(table.thresholds.len(), 2 * (6 + 4));
        table.threshold(5, 2, true);
        assert_eq!(table.thresholds.len(), 2 * (6 + 4));
    }

    #[test]
    fn lazy_pick_probability_accounts_for_self() {
        assert_eq!(Laziness::None.pick_infected_probability(0.4, true), 0.4);
        assert_eq!(Laziness::Half.pick_infected_probability(0.4, false), 0.2);
        assert_eq!(Laziness::Half.pick_infected_probability(0.4, true), 0.7);
    }
}
