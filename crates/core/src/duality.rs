//! Two-sided estimation of the duality theorem (Theorem 1.3).
//!
//! For every source `v`, start set `C` and horizon `T`:
//!
//! ```text
//! P̂(Hit(v) > T | C₀ = C)  =  P(C ∩ A_T = ∅ | A₀ = {v})
//! ```
//!
//! The left side is measured on COBRA sample paths (did the walk started
//! from `C` reach `v` within `T` rounds?), the right side on BIPS sample
//! paths (is `C` disjoint from the infected set at round `T`?). The two
//! Monte-Carlo proportions are compared with a two-proportion z-test per
//! horizon; under a correct implementation every |z| stays at noise
//! level for every `T` simultaneously (up to multiplicity).
//!
//! The check is a first-class [`Objective`](crate::sim::Objective) —
//! `"duality:h{8,16,32}"` — so the usual entry point is a
//! [`SimSpec`](crate::sim::SimSpec) with that objective and a
//! [`SimSpec::measure`](crate::sim::SimSpec::measure) call (the spec's
//! start set is `C`, its branching factor comes from the process, and
//! the source `v` resolves to the BFS-farthest vertex). [`duality_check`]
//! remains the explicit-source form the objective path delegates to.
//!
//! Both sides run through the unified engine: the COBRA side is a plain
//! hitting-time run (stop when `v` is reached), the BIPS side a
//! fixed-horizon run with a round-snapshot [`Observer`] checking
//! disjointness at each horizon — no bespoke trial loop on either side,
//! and both sides are generic over the graph backend.

use crate::report::{fmt_f, Table};
use cobra_graph::{Topology, VertexId};
use cobra_mc::{Completion, Engine, Observer, RoundView, StopWhen, TrialOutcome};
use cobra_process::{BipsMode, Branching, Laziness, ProcessSpec};

/// Configuration of a duality check.
#[derive(Debug, Clone)]
pub struct DualityConfig {
    /// Branching factor (the theorem holds for any `b ≥ 1`, including
    /// the fractional `1+ρ` of §6).
    pub branching: Branching,
    /// Trials per side.
    pub trials: usize,
    /// Horizons `T` to evaluate, in nondecreasing order.
    pub horizons: Vec<usize>,
    pub master_seed: u64,
    pub threads: usize,
}

impl Default for DualityConfig {
    fn default() -> Self {
        DualityConfig {
            branching: Branching::B2,
            trials: 2000,
            horizons: vec![0, 1, 2, 3, 4, 6, 8, 12],
            master_seed: 0xD0A1,
            threads: 0,
        }
    }
}

/// One horizon's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualityRow {
    pub t: usize,
    /// `P̂(Hit(v) > T)` estimate (COBRA side).
    pub cobra_side: f64,
    /// `P(C ∩ A_T = ∅)` estimate (BIPS side).
    pub bips_side: f64,
    /// Two-proportion z statistic.
    pub z: f64,
}

/// Full report of a duality check.
#[derive(Debug, Clone, PartialEq)]
pub struct DualityReport {
    pub rows: Vec<DualityRow>,
    pub trials: usize,
}

impl DualityReport {
    /// Largest |z| across horizons.
    pub fn max_abs_z(&self) -> f64 {
        self.rows.iter().map(|r| r.z.abs()).fold(0.0, f64::max)
    }

    /// Largest |difference| of the two estimated probabilities.
    pub fn max_abs_diff(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| (r.cobra_side - r.bips_side).abs())
            .fold(0.0, f64::max)
    }

    /// Renders the report as a [`Table`].
    pub fn to_table(&self, id: &str, graph_label: &str) -> Table {
        let mut t = Table::new(
            id,
            format!("Duality check (Thm 1.3) on {graph_label}"),
            &["T", "P(Hit(v)>T) [COBRA]", "P(C∩A_T=∅) [BIPS]", "diff", "z"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.t.to_string(),
                fmt_f(r.cobra_side),
                fmt_f(r.bips_side),
                fmt_f(r.cobra_side - r.bips_side),
                fmt_f(r.z),
            ]);
        }
        t.note(format!(
            "{} trials/side; max |z| = {} (noise threshold ≈ 3.3 with multiplicity)",
            self.trials,
            fmt_f(self.max_abs_z())
        ));
        t
    }
}

/// Observer for the BIPS side: at each horizon, records whether the
/// current infected set is disjoint from `C` (`A_T` fluctuates, so the
/// flag must be captured in-flight, per round).
struct HorizonDisjoint<'a> {
    horizons: &'a [usize],
    c: &'a [VertexId],
    flags: Vec<bool>,
    round: usize,
    idx: usize,
}

impl<'a> HorizonDisjoint<'a> {
    fn new(horizons: &'a [usize], c: &'a [VertexId]) -> Self {
        HorizonDisjoint {
            horizons,
            c,
            flags: Vec::with_capacity(horizons.len()),
            round: 0,
            idx: 0,
        }
    }

    fn capture(&mut self, view: &dyn RoundView) {
        while self.idx < self.horizons.len() && self.horizons[self.idx] == self.round {
            self.flags
                .push(!self.c.iter().any(|&u| view.has_reached(u)));
            self.idx += 1;
        }
    }
}

impl Observer for HorizonDisjoint<'_> {
    type Output = Vec<bool>;
    fn on_start(&mut self, view: &dyn RoundView) {
        self.capture(view);
    }
    fn on_round(&mut self, view: &dyn RoundView) {
        self.round += 1;
        self.capture(view);
    }
    fn finish(self, _outcome: TrialOutcome, _view: &dyn RoundView) -> Vec<bool> {
        debug_assert_eq!(self.flags.len(), self.horizons.len());
        self.flags
    }
}

/// Runs the two-sided estimation for source `v` and start set `c`, on
/// any graph backend. Both sides drive the unified [`Engine`] directly
/// and count each trial per horizon as it finishes.
pub fn duality_check<T: Topology + Sync>(
    g: &T,
    v: VertexId,
    c: &[VertexId],
    cfg: &DualityConfig,
) -> DualityReport {
    assert!(!c.is_empty(), "duality needs a nonempty start set C");
    assert!((v as usize) < g.n(), "source out of range");
    for &u in c {
        assert!((u as usize) < g.n(), "start vertex {u} out of range");
    }
    assert!(
        cfg.horizons.windows(2).all(|w| w[0] <= w[1]),
        "horizons must be nondecreasing"
    );
    let max_t = *cfg.horizons.iter().max().expect("nonempty horizons");

    // COBRA side: one sample path yields Hit(v), which answers every
    // horizon at once (Hit(v) > T is monotone in T). Censoring at the
    // max_t cap means Hit(v) > max_t ≥ T for every horizon.
    let cobra_spec = ProcessSpec::Cobra {
        branching: cfg.branching,
        laziness: Laziness::None,
    };
    let cobra_engine = Engine::new(cfg.trials, cfg.master_seed, max_t).with_threads(cfg.threads);
    let mut cobra_not_hit = vec![0; cfg.horizons.len()];
    let count_not_hit = |o: TrialOutcome| {
        let not_hit = cfg.horizons.iter().map(|&t| o.rounds.is_none_or(|h| h > t));
        tally(&mut cobra_not_hit, not_hit)
    };
    let hit = StopWhen::Reached(v);
    cobra_engine.run_spec(g, &cobra_spec, c, hit, |_| Completion, count_not_hit);

    // BIPS side: run to the fixed horizon, snapshotting disjointness.
    let bips_spec = ProcessSpec::Bips {
        branching: cfg.branching,
        laziness: Laziness::None,
        mode: BipsMode::ExactSampling,
    };
    let bips_engine =
        Engine::new(cfg.trials, cfg.master_seed ^ 0xB1B5_D0A1, max_t).with_threads(cfg.threads);
    let mut bips_disjoint = vec![0; cfg.horizons.len()];
    let observer = |_| HorizonDisjoint::new(&cfg.horizons, c);
    bips_engine.run_spec(g, &bips_spec, &[v], StopWhen::AtCap, observer, |flags| {
        tally(&mut bips_disjoint, flags)
    });

    let n = cfg.trials as f64;
    let rows = cfg
        .horizons
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let (cobra_not_hit, bips_disjoint) = (cobra_not_hit[i] as f64, bips_disjoint[i] as f64);
            let p1 = cobra_not_hit / n;
            let p2 = bips_disjoint / n;
            let pooled = (cobra_not_hit + bips_disjoint) / (2.0 * n);
            let se = (pooled * (1.0 - pooled) * (2.0 / n)).sqrt();
            let z = if se > 0.0 { (p1 - p2) / se } else { 0.0 };
            DualityRow {
                t,
                cobra_side: p1,
                bips_side: p2,
                z,
            }
        })
        .collect();

    DualityReport {
        rows,
        trials: cfg.trials,
    }
}

/// Adds one trial's per-horizon flags to the per-horizon counts.
fn tally(counts: &mut [usize], flags: impl IntoIterator<Item = bool>) {
    for (count, flag) in counts.iter_mut().zip(flags) {
        *count += usize::from(flag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::{generators, Graph};

    fn check(g: &Graph, v: VertexId, c: &[VertexId], trials: usize, seed: u64) -> DualityReport {
        let cfg = DualityConfig {
            trials,
            master_seed: seed,
            horizons: vec![0, 1, 2, 3, 5],
            ..DualityConfig::default()
        };
        duality_check(g, v, c, &cfg)
    }

    #[test]
    fn horizon_zero_is_deterministic() {
        // T = 0: Hit(v) > 0 ⟺ v ∉ C, and A_0 ∩ C = {v} ∩ C.
        let g = generators::petersen();
        let r = check(&g, 0, &[0], 200, 1);
        assert_eq!(r.rows[0].cobra_side, 0.0);
        assert_eq!(r.rows[0].bips_side, 0.0);
        let r2 = check(&g, 0, &[5], 200, 2);
        assert_eq!(r2.rows[0].cobra_side, 1.0);
        assert_eq!(r2.rows[0].bips_side, 1.0);
    }

    #[test]
    fn duality_holds_on_petersen() {
        let g = generators::petersen();
        let r = check(&g, 3, &[8], 3000, 3);
        assert!(r.max_abs_z() < 4.0, "duality violated: {:?}", r.rows);
    }

    #[test]
    fn duality_holds_on_complete_graph_with_set_start() {
        let g = generators::complete(12);
        let r = check(&g, 0, &[4, 5, 6], 3000, 4);
        assert!(r.max_abs_z() < 4.0, "duality violated: {:?}", r.rows);
    }

    #[test]
    fn duality_holds_on_bipartite_cycle() {
        // Theorem 1.3 needs no spectral condition — even cycles included.
        let g = generators::cycle(8);
        let r = check(&g, 1, &[5], 3000, 5);
        assert!(r.max_abs_z() < 4.0, "duality violated: {:?}", r.rows);
    }

    #[test]
    fn duality_holds_with_fractional_branching() {
        let g = generators::complete(8);
        let cfg = DualityConfig {
            branching: Branching::Expected(0.5),
            trials: 3000,
            horizons: vec![0, 1, 2, 4],
            master_seed: 6,
            threads: 0,
        };
        let r = duality_check(&g, 2, &[6], &cfg);
        assert!(r.max_abs_z() < 4.0, "ρ-duality violated: {:?}", r.rows);
    }

    #[test]
    fn report_table_renders() {
        let g = generators::petersen();
        let r = check(&g, 0, &[9], 200, 7);
        let t = r.to_table("F6", "Petersen");
        assert!(t.render().contains("Duality"));
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn probabilities_monotone_on_cobra_side() {
        let g = generators::cycle(16);
        let r = check(&g, 8, &[0], 1000, 8);
        for w in r.rows.windows(2) {
            assert!(
                w[0].cobra_side >= w[1].cobra_side - 1e-12,
                "P(Hit > T) must be nonincreasing in T"
            );
        }
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unsorted_horizons_are_rejected() {
        let g = generators::petersen();
        let cfg = DualityConfig {
            horizons: vec![3, 1],
            ..DualityConfig::default()
        };
        duality_check(&g, 0, &[1], &cfg);
    }
}
