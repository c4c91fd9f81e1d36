//! First-class estimands: the [`Objective`] type.
//!
//! The paper measures several quantities on the same (process × graph)
//! pair — cover time (Thms 1.1–1.3), partial-infection growth
//! (Thm 1.4), the COBRA/BIPS duality identity, and full reached-set
//! trajectories. Before this type each estimand was a bespoke entry
//! point; an [`Objective`] makes the estimand itself a parseable,
//! sweepable *value*:
//!
//! ```text
//! cover                 rounds until every vertex is reached
//! hit:V | hit:far       rounds until vertex V (or the BFS-farthest
//!                       vertex from the start set) is reached
//! infection:T           rounds until ⌈T·n⌉ vertices are reached, 0<T≤1
//! duality:h{T1,T2,...}  two-sided Thm 1.3 check at the given horizons
//! trajectory            reached-set size after every round, to the cap
//! ```
//!
//! [`FromStr`]/[`Display`](fmt::Display) round-trip exactly, like `GraphSpec` and
//! `ProcessSpec`, so an objective can live on a command line, in a
//! sweep axis (`objective={cover,hit:far,infection:0.5}`), or in a
//! result-store content key.
//!
//! Each variant bundles the three things an estimand needs:
//!
//! * its **stop condition** — [`Objective::stop_when`] resolves the
//!   variant (plus the concrete graph and start set) to a
//!   [`StopWhen`];
//! * its **observer** — the stopping objectives reduce each trial to a
//!   bare [`TrialOutcome`]; `trajectory` and `duality` need per-round
//!   probes, which the `cobra` crate's `SimSpec::measure` wires up;
//! * its **streaming reducer** — [`StoppingAccumulator`] folds trial
//!   outcomes through Welford moments and P² quantile markers
//!   ([`cobra_stats::streaming`]) in O(1) memory, so a sweep point
//!   never materializes a sample vector.

use crate::engine::{StopWhen, TrialOutcome};
use cobra_graph::{props, GraphSpec, Topology, VertexId};
use cobra_stats::streaming::StreamingSummary;
use std::fmt;
use std::str::FromStr;

/// The canonical spellings, quoted by every parse error.
pub const OBJECTIVE_USAGES: &[&str] = &[
    "cover",
    "hit:V",
    "hit:far",
    "infection:T  (0 < T <= 1)",
    "duality:h{T1,T2,...}",
    "trajectory",
];

/// The target of a hitting-time objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTarget {
    /// A concrete vertex id.
    Vertex(VertexId),
    /// The vertex farthest (BFS hops) from the start set, lowest id on
    /// ties — resolved per graph, so one spelling sweeps across sizes.
    Far,
}

/// What a batch of trials estimates.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Rounds until every vertex is reached: cover time for COBRA and
    /// walks, full-infection time for BIPS, broadcast time for gossip.
    Cover,
    /// Rounds until one target vertex is reached: hitting time.
    Hit(HitTarget),
    /// Rounds until a `threshold` fraction of the vertices is reached
    /// (first passage of `|A_t| ≥ ⌈threshold·n⌉`); `infection:1` is
    /// exactly `cover`.
    Infection {
        /// Fraction of `n` to reach, in `(0, 1]`.
        threshold: f64,
    },
    /// The two-sided Theorem 1.3 duality check at fixed horizons
    /// (nondecreasing, nonempty).
    Duality {
        /// Horizons `T` to compare at.
        horizons: Vec<usize>,
    },
    /// Mean reached-set-size trajectory over the full round budget.
    Trajectory,
}

impl Objective {
    /// Convenience constructor for `hit:V`.
    pub fn hit(v: VertexId) -> Objective {
        Objective::Hit(HitTarget::Vertex(v))
    }

    /// True for the objectives that can only terminate when every part
    /// of the graph is reachable from the start set: `cover` must touch
    /// all `n` vertices and `hit:far` resolves its target by a BFS that
    /// must reach everything. Loaded real-world graphs are routinely
    /// disconnected, so spec resolution checks these up front and points
    /// at `?component=giant` instead of censoring every trial.
    pub fn requires_full_reach(&self) -> bool {
        matches!(self, Objective::Cover | Objective::Hit(HitTarget::Far))
    }

    /// True for the stopping-time objectives a sweep grid can carry
    /// (`cover`, `hit:*`, `infection:*`) — the ones whose result is one
    /// streamed stopping-time summary per point.
    pub fn is_sweepable(&self) -> bool {
        matches!(
            self,
            Objective::Cover | Objective::Hit(_) | Objective::Infection { .. }
        )
    }

    /// Rejects a full-reach objective (`cover`, `hit:far`) on a
    /// disconnected graph, naming the components and the fix. Only the
    /// families that are not connected by construction pay the
    /// O(n + m) scan: loaded `file:` graphs (fix: `?component=giant`),
    /// `gnp` and Watts–Strogatz samples.
    pub fn check_reachable<T: Topology>(&self, spec: &GraphSpec, g: &T) -> Result<(), String> {
        let fix = match spec {
            GraphSpec::File { giant: false, .. } => {
                "append ?component=giant to the file: spec to restrict to the giant component"
            }
            GraphSpec::Gnp { .. } | GraphSpec::WattsStrogatz { .. } => {
                "raise the edge density or change the seed to sample a connected graph"
            }
            _ => return Ok(()),
        };
        if !self.requires_full_reach() {
            return Ok(());
        }
        let cc = props::component_summary(g);
        if cc.components > 1 {
            return Err(format!(
                "objective \"{self}\" cannot terminate: the graph {spec} has {} connected \
                 components (largest spans {:.1}% of {} vertices); {fix}",
                cc.components,
                100.0 * cc.giant_fraction(),
                cc.n
            ));
        }
        Ok(())
    }

    /// Checks the objective against a concrete graph and start set
    /// (any [`Topology`] backend); errors name the offending token and
    /// say why the estimand cannot terminate.
    pub fn validate<T: Topology>(&self, g: &T, start: &[VertexId]) -> Result<(), String> {
        match self {
            Objective::Cover | Objective::Trajectory => Ok(()),
            Objective::Hit(target) => self.resolve_hit(g, start, *target).map(|_| ()),
            Objective::Infection { threshold } => {
                if *threshold > 0.0 && *threshold <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "objective \"infection:{threshold}\" needs a threshold in (0, 1]"
                    ))
                }
            }
            Objective::Duality { horizons } => validate_horizons(horizons),
        }
    }

    /// The engine stop condition this objective denotes on `g` from
    /// `start` (resolving `hit:far` and infection thresholds against
    /// the concrete graph).
    pub fn stop_when<T: Topology>(&self, g: &T, start: &[VertexId]) -> Result<StopWhen, String> {
        match self {
            Objective::Cover => Ok(StopWhen::Complete),
            Objective::Hit(target) => Ok(StopWhen::Reached(self.resolve_hit(g, start, *target)?)),
            Objective::Infection { threshold } => {
                self.validate(g, start)?;
                let k = (threshold * g.n() as f64).ceil() as usize;
                if k >= g.n() {
                    // `infection:1` *is* cover — use the same stop
                    // condition so the two are bit-identical.
                    Ok(StopWhen::Complete)
                } else {
                    Ok(StopWhen::ReachedCount(k.max(1)))
                }
            }
            // Fixed-horizon estimands: only the cap stops a trial.
            Objective::Duality { horizons } => {
                validate_horizons(horizons)?;
                Ok(StopWhen::AtCap)
            }
            Objective::Trajectory => Ok(StopWhen::AtCap),
        }
    }

    /// The concrete hitting target (`hit:far` resolves to the
    /// BFS-farthest vertex from the start set, lowest id on ties).
    pub fn resolve_hit<T: Topology>(
        &self,
        g: &T,
        start: &[VertexId],
        target: HitTarget,
    ) -> Result<VertexId, String> {
        match target {
            HitTarget::Vertex(v) => {
                if (v as usize) < g.n() {
                    Ok(v)
                } else {
                    Err(format!(
                        "objective \"hit:{v}\" names a vertex outside the graph \
                         (n = {}); the hitting time cannot terminate",
                        g.n()
                    ))
                }
            }
            HitTarget::Far => match props::farthest_vertex(g, start) {
                Ok((v, _)) => Ok(v),
                Err(unreachable) => Err(format!(
                    "objective \"hit:far\" cannot terminate: vertex {unreachable} is \
                     unreachable from the start set"
                )),
            },
        }
    }
}

fn validate_horizons(horizons: &[usize]) -> Result<(), String> {
    if horizons.is_empty() {
        return Err("objective \"duality:h{}\" needs at least one horizon".into());
    }
    if horizons.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!(
            "objective \"duality:h{{{}}}\" needs nondecreasing horizons",
            join(horizons)
        ));
    }
    Ok(())
}

fn join(horizons: &[usize]) -> String {
    horizons
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Cover => write!(f, "cover"),
            Objective::Hit(HitTarget::Vertex(v)) => write!(f, "hit:{v}"),
            Objective::Hit(HitTarget::Far) => write!(f, "hit:far"),
            Objective::Infection { threshold } => write!(f, "infection:{threshold}"),
            Objective::Duality { horizons } => write!(f, "duality:h{{{}}}", join(horizons)),
            Objective::Trajectory => write!(f, "trajectory"),
        }
    }
}

impl FromStr for Objective {
    type Err = String;

    fn from_str(s: &str) -> Result<Objective, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("cover") {
            return Ok(Objective::Cover);
        }
        if s.eq_ignore_ascii_case("trajectory") {
            return Ok(Objective::Trajectory);
        }
        if let Some(rest) = s.strip_prefix("hit:") {
            if rest.eq_ignore_ascii_case("far") {
                return Ok(Objective::Hit(HitTarget::Far));
            }
            return rest
                .parse()
                .map(Objective::hit)
                .map_err(|_| format!("bad hit target {rest:?} (usage: hit:V or hit:far)"));
        }
        if let Some(rest) = s.strip_prefix("infection:") {
            let threshold: f64 = rest.parse().map_err(|_| {
                format!("bad infection threshold {rest:?} (usage: infection:T, 0 < T <= 1)")
            })?;
            if !(threshold > 0.0 && threshold <= 1.0) {
                return Err(format!(
                    "infection threshold {rest:?} out of range (usage: infection:T, 0 < T <= 1)"
                ));
            }
            return Ok(Objective::Infection { threshold });
        }
        if let Some(rest) = s.strip_prefix("duality:h{") {
            let Some(body) = rest.strip_suffix('}') else {
                return Err(format!(
                    "unclosed horizon list in {s:?} (usage: duality:h{{T1,T2,...}})"
                ));
            };
            let horizons = body
                .split(',')
                .map(|t| {
                    t.trim().parse::<usize>().map_err(|_| {
                        format!("bad horizon {t:?} in {s:?} (usage: duality:h{{T1,T2,...}})")
                    })
                })
                .collect::<Result<Vec<usize>, String>>()?;
            validate_horizons(&horizons)?;
            return Ok(Objective::Duality { horizons });
        }
        Err(format!(
            "unknown objective {s:?} (valid objectives: {})",
            OBJECTIVE_USAGES.join(", ")
        ))
    }
}

/// Streaming reducer for the stopping-time objectives: folds each
/// [`TrialOutcome`] as it finishes — Welford moments and P² quartiles
/// over the completed stopping times, censoring and resource tallies on
/// the side — in O(1) memory, independent of the trial count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoppingAccumulator {
    summary: StreamingSummary,
    trials: usize,
    censored: usize,
    transmissions: u64,
    reached: u64,
}

impl StoppingAccumulator {
    /// An empty reducer.
    pub fn new() -> StoppingAccumulator {
        StoppingAccumulator::default()
    }

    /// Folds one finished trial.
    pub fn push(&mut self, outcome: &TrialOutcome) {
        self.trials += 1;
        match outcome.rounds {
            Some(r) => self.summary.push(r as f64),
            None => self.censored += 1,
        }
        self.transmissions += outcome.transmissions;
        self.reached += outcome.reached as u64;
    }

    /// Trials folded so far.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Total transmissions across folded trials.
    pub fn total_transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Total reached-set size at trial end, summed over folded trials.
    pub fn total_reached(&self) -> u64 {
        self.reached
    }

    /// Closes the fold under the cap that produced the outcomes.
    pub fn finish(self, cap: usize) -> StoppingEstimate {
        let trials = self.trials.max(1) as f64;
        StoppingEstimate::from_fold(
            &self.summary,
            self.trials,
            self.censored,
            cap,
            self.transmissions as f64 / trials,
            self.reached as f64 / trials,
        )
    }
}

/// The streamed result of a batch of stopping-time trials: moments,
/// quartiles, censoring and resource means, without the samples.
///
/// All statistics cover the *completed* trials
/// (`trials - censored`); the fields are zero when every trial was
/// censored (and [`StoppingEstimate::summary`] panics).
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingEstimate {
    /// Trials folded (completed + censored).
    pub trials: usize,
    /// Trials that hit the cap without meeting the objective.
    pub censored: usize,
    /// The round cap that was in force.
    pub cap: usize,
    /// Mean stopping time (Welford).
    pub mean: f64,
    /// Sample standard deviation of the stopping time.
    pub std_dev: f64,
    /// Smallest observed stopping time.
    pub min: f64,
    /// Largest observed stopping time.
    pub max: f64,
    /// First-quartile estimate (P², exact under five samples).
    pub q25: f64,
    /// Median estimate (P², exact under five samples).
    pub median: f64,
    /// Third-quartile estimate (P², exact under five samples).
    pub q75: f64,
    /// Mean transmissions per trial (censored included).
    pub mean_transmissions: f64,
    /// Mean reached-set size at trial end (censored included).
    pub mean_reached: f64,
}

impl StoppingEstimate {
    /// Closes a streamed fold over completed stopping times into an
    /// estimate — the single place the censored-fold zero sentinels
    /// and the quartile unpacking live ([`StoppingAccumulator::finish`]
    /// and hand folds of per-trial outcomes both build through here).
    pub fn from_fold(
        summary: &StreamingSummary,
        trials: usize,
        censored: usize,
        cap: usize,
        mean_transmissions: f64,
        mean_reached: f64,
    ) -> StoppingEstimate {
        let (mean, std_dev, min, max, q25, median, q75) = if summary.count() == 0 {
            // Zero sentinels keep the estimate (and the records built
            // from it) comparable with `==`; `summary()` still panics.
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        } else {
            let s = summary.to_summary();
            (s.mean, s.std_dev, s.min, s.max, s.q25, s.median, s.q75)
        };
        StoppingEstimate {
            trials,
            censored,
            cap,
            mean,
            std_dev,
            min,
            max,
            q25,
            median,
            q75,
            mean_transmissions,
            mean_reached,
        }
    }

    /// Trials that met the objective.
    pub fn completed(&self) -> usize {
        self.trials - self.censored
    }

    /// Fraction of trials that met the objective.
    pub fn completion_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.completed() as f64 / self.trials as f64
    }

    /// The completed-trial statistics as a [`cobra_stats::Summary`].
    /// Panics if every trial was censored.
    pub fn summary(&self) -> cobra_stats::Summary {
        assert!(
            self.completed() > 0,
            "all {} trials censored at cap {}",
            self.censored,
            self.cap
        );
        cobra_stats::Summary {
            count: self.completed(),
            mean: self.mean,
            std_dev: self.std_dev,
            min: self.min,
            q25: self.q25,
            median: self.median,
            q75: self.q75,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    #[test]
    fn canonical_objectives_round_trip() {
        for s in [
            "cover",
            "hit:7",
            "hit:far",
            "infection:0.5",
            "infection:1",
            "duality:h{8,16,32}",
            "duality:h{4}",
            "trajectory",
        ] {
            let o: Objective = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(o.to_string(), s, "display not canonical for {s}");
            assert_eq!(
                o.to_string().parse::<Objective>().unwrap(),
                o,
                "parse∘display not identity for {s}"
            );
        }
    }

    #[test]
    fn near_miss_spellings_are_rejected_with_usage() {
        for (s, needle) in [
            ("", "valid objectives"),
            ("fly", "valid objectives"),
            ("hit", "valid objectives"),
            ("hit:", "hit:V or hit:far"),
            ("hit:x", "hit:V or hit:far"),
            ("infection:", "infection:T"),
            ("infection:0", "0 < T <= 1"),
            ("infection:1.5", "0 < T <= 1"),
            ("infection:-0.5", "0 < T <= 1"),
            ("duality:h{8,16", "unclosed"),
            ("duality:h{}", "horizon"),
            ("duality:h{8,x}", "bad horizon"),
            ("duality:h{9,3}", "nondecreasing"),
            ("cover:5", "valid objectives"),
        ] {
            let err = s.parse::<Objective>().expect_err(s);
            assert!(err.contains(needle), "{s:?}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn stop_conditions_resolve_against_the_graph() {
        let g = generators::path(8);
        let start = [0u32];
        assert_eq!(
            Objective::Cover.stop_when(&g, &start),
            Ok(StopWhen::Complete)
        );
        assert_eq!(
            Objective::hit(5).stop_when(&g, &start),
            Ok(StopWhen::Reached(5))
        );
        assert_eq!(
            Objective::Hit(HitTarget::Far).stop_when(&g, &start),
            Ok(StopWhen::Reached(7))
        );
        assert_eq!(
            Objective::Infection { threshold: 0.5 }.stop_when(&g, &start),
            Ok(StopWhen::ReachedCount(4))
        );
        // infection:1 is cover, bit for bit.
        assert_eq!(
            Objective::Infection { threshold: 1.0 }.stop_when(&g, &start),
            Ok(StopWhen::Complete)
        );
        assert_eq!(
            "duality:h{2,4}"
                .parse::<Objective>()
                .unwrap()
                .stop_when(&g, &start),
            Ok(StopWhen::AtCap)
        );
        assert_eq!(
            Objective::Trajectory.stop_when(&g, &start),
            Ok(StopWhen::AtCap)
        );
    }

    #[test]
    fn nonterminating_combos_are_named() {
        let g = generators::path(8);
        let err = Objective::hit(99).stop_when(&g, &[0]).unwrap_err();
        assert!(
            err.contains("hit:99") && err.contains("cannot terminate"),
            "{err}"
        );
        let two = cobra_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let err = Objective::Hit(HitTarget::Far)
            .stop_when(&two, &[0])
            .unwrap_err();
        assert!(
            err.contains("hit:far") && err.contains("unreachable"),
            "{err}"
        );
    }

    #[test]
    fn full_reach_partition() {
        assert!(Objective::Cover.requires_full_reach());
        assert!(Objective::Hit(HitTarget::Far).requires_full_reach());
        assert!(!Objective::hit(3).requires_full_reach());
        assert!(!Objective::Infection { threshold: 0.5 }.requires_full_reach());
        assert!(!Objective::Trajectory.requires_full_reach());
        assert!(!"duality:h{4}"
            .parse::<Objective>()
            .unwrap()
            .requires_full_reach());
    }

    #[test]
    fn sampled_families_are_checked_for_reachability() {
        // gnp and Watts–Strogatz can sample a disconnected graph, so
        // full-reach objectives pay the component scan on them.
        for spec in ["gnp:100:0.001", "ws:200:1:1"] {
            let spec: GraphSpec = spec.parse().unwrap();
            let g = spec.build(7).unwrap();
            let err = Objective::Cover.check_reachable(&spec, &g).unwrap_err();
            assert!(err.contains("connected components"), "{spec}: {err}");
            assert!(Objective::hit(0).check_reachable(&spec, &g).is_ok());
        }
        let dense: GraphSpec = "gnp:64:0.5".parse().unwrap();
        let g = dense.build(7).unwrap();
        assert!(Objective::Cover.check_reachable(&dense, &g).is_ok());
    }

    #[test]
    fn sweepability_partition() {
        assert!(Objective::Cover.is_sweepable());
        assert!(Objective::Hit(HitTarget::Far).is_sweepable());
        assert!(Objective::Infection { threshold: 0.5 }.is_sweepable());
        assert!(!Objective::Trajectory.is_sweepable());
        assert!(!"duality:h{4}".parse::<Objective>().unwrap().is_sweepable());
    }

    #[test]
    fn accumulator_matches_sample_vector_statistics() {
        let outcomes: Vec<TrialOutcome> = [7usize, 3, 9, 5, 11, 4, 6]
            .iter()
            .map(|&r| TrialOutcome {
                rounds: Some(r),
                executed: r,
                reached: 10,
                transmissions: 2 * r as u64,
            })
            .collect();
        let mut acc = StoppingAccumulator::new();
        for o in &outcomes {
            acc.push(o);
        }
        assert_eq!(acc.trials(), 7);
        let est = acc.finish(1000);
        assert_eq!(est.completed(), 7);
        assert_eq!(est.censored, 0);
        assert_eq!(est.min, 3.0);
        assert_eq!(est.max, 11.0);
        let samples: Vec<f64> = outcomes.iter().map(|o| o.rounds.unwrap() as f64).collect();
        let exact = cobra_stats::Summary::from_samples(&samples);
        assert_eq!(est.mean, exact.mean);
        assert!((est.std_dev - exact.std_dev).abs() < 1e-12);
        assert_eq!(est.mean_reached, 10.0);
        assert_eq!(
            est.mean_transmissions,
            samples.iter().sum::<f64>() * 2.0 / 7.0
        );
    }

    #[test]
    fn accumulator_censoring_and_empty_fold() {
        let mut acc = StoppingAccumulator::new();
        acc.push(&TrialOutcome {
            rounds: None,
            executed: 50,
            reached: 3,
            transmissions: 100,
        });
        let est = acc.finish(50);
        assert_eq!((est.trials, est.censored, est.completed()), (1, 1, 0));
        assert_eq!(est.completion_rate(), 0.0);
        assert_eq!(est.mean, 0.0, "zero sentinel, not NaN");
        let empty = StoppingAccumulator::new().finish(10);
        assert_eq!(empty.trials, 0);
        assert_eq!(empty.completion_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "censored")]
    fn summary_of_all_censored_panics() {
        let mut acc = StoppingAccumulator::new();
        acc.push(&TrialOutcome {
            rounds: None,
            executed: 5,
            reached: 1,
            transmissions: 0,
        });
        acc.finish(5).summary();
    }
}
