//! `ProcessSpec` — every spreading process as a parseable, printable
//! value.
//!
//! A spec is a compact string such as `"cobra:b2"`, `"bips:rho0.5:lazy"`
//! or `"walks:8"`. [`ProcessSpec`] implements [`FromStr`] and
//! [`Display`](std::fmt::Display) with exact round-tripping, so any process variant the
//! paper (or the related COBRA/coalescence literature) studies can be
//! named on a command line and instantiated against any graph.
//!
//! | process | syntax | notes |
//! |---------|--------|-------|
//! | COBRA | `cobra:bB[:lazy]` or `cobra:rhoR[:lazy]` | `b ≥ 1` fixed, or expected `1+ρ` branching (§6) |
//! | BIPS | `bips:bB[:exact][:lazy]` | `:exact` selects literal sampling over the Bernoulli fast path |
//! | simple random walk | `rw[:lazy]` | equals `cobra:b1` in law |
//! | `k` independent walks | `walks:K[:lazy]` | |
//! | coalescing walks | `coalescing:K[:lazy]` | `K` particles, no branching |
//! | gossip | `gossip:push`, `gossip:pull`, `gossip:pushpull` | round-synchronous rumour spreading |
//!
//! Canonical order of the optional tokens is branching, then `exact`,
//! then `lazy` — what [`Display`](std::fmt::Display) prints and the round-trip tests pin.

use crate::branching::{Branching, Laziness};
use crate::state::BoxedProcess;
use crate::{Bips, BipsMode, CoalescingWalks, Cobra, Gossip, GossipMode, MultiWalk, RandomWalk};
use cobra_graph::{Topology, VertexId};
use std::fmt;
use std::str::FromStr;

/// A spreading process plus its parameters, as data.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessSpec {
    /// The coalescing-branching random walk of the paper.
    Cobra {
        branching: Branching,
        laziness: Laziness,
    },
    /// The dual biased-infection process.
    Bips {
        branching: Branching,
        laziness: Laziness,
        mode: BipsMode,
    },
    /// Simple random walk (COBRA at `b = 1`, kept separate as the
    /// baseline implementation).
    RandomWalk { laziness: Laziness },
    /// `k` independent random walks.
    MultiWalk { k: usize, laziness: Laziness },
    /// `k` coalescing (non-branching) random walks.
    CoalescingWalks { k: usize, laziness: Laziness },
    /// Round-synchronous gossip.
    Gossip { mode: GossipMode },
}

/// Why a process spec failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpecError {
    message: String,
}

impl ProcessSpecError {
    fn new(message: impl Into<String>) -> Self {
        ProcessSpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProcessSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process spec error: {}", self.message)
    }
}

impl std::error::Error for ProcessSpecError {}

impl ProcessSpecError {
    /// Tags the error with the full spec being parsed, so a failure
    /// buried in a sweep expansion still names its source.
    fn in_spec(mut self, s: &str) -> ProcessSpecError {
        let quoted = format!("{s:?}");
        if !self.message.contains(&quoted) {
            self.message = format!("{} (in process spec {quoted})", self.message);
        }
        self
    }
}

/// Every accepted process family with its usage form — the source of
/// truth for error messages and CLI help.
pub const FAMILY_USAGES: &[(&str, &str)] = &[
    ("cobra", "cobra:bB[:lazy] | cobra:rhoR[:lazy]"),
    ("bips", "bips:bB[:exact][:lazy] | bips:rhoR[:exact][:lazy]"),
    ("rw", "rw[:lazy]"),
    ("walks", "walks:K[:lazy]"),
    ("coalescing", "coalescing:K[:lazy]"),
    ("gossip", "gossip:push|pull|pushpull"),
];

fn family_list() -> String {
    FAMILY_USAGES
        .iter()
        .map(|(_, usage)| *usage)
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_branching(token: &str) -> Result<Branching, ProcessSpecError> {
    if let Some(b) = token.strip_prefix('b') {
        let b: u32 = b
            .parse()
            .map_err(|_| ProcessSpecError::new(format!("bad branching factor {token:?}")))?;
        if b == 0 {
            return Err(ProcessSpecError::new("branching factor must be >= 1"));
        }
        Ok(Branching::Fixed(b))
    } else if let Some(rho) = token.strip_prefix("rho") {
        let rho: f64 = rho
            .parse()
            .map_err(|_| ProcessSpecError::new(format!("bad rho in {token:?}")))?;
        if !(rho > 0.0 && rho <= 1.0) {
            return Err(ProcessSpecError::new(format!("rho {rho} outside (0, 1]")));
        }
        Ok(Branching::Expected(rho))
    } else {
        Err(ProcessSpecError::new(format!(
            "expected a branching token (bN or rhoX), got {token:?}"
        )))
    }
}

fn fmt_branching(b: &Branching) -> String {
    match b {
        Branching::Fixed(b) => format!("b{b}"),
        Branching::Expected(rho) => format!("rho{rho}"),
    }
}

/// Parses trailing option tokens in canonical order: `[exact] [lazy]`.
fn parse_options(
    rest: &[&str],
    allow_exact: bool,
) -> Result<(BipsMode, Laziness), ProcessSpecError> {
    let mut mode = BipsMode::Bernoulli;
    let mut laziness = Laziness::None;
    let mut idx = 0;
    if allow_exact && idx < rest.len() && rest[idx] == "exact" {
        mode = BipsMode::ExactSampling;
        idx += 1;
    }
    if idx < rest.len() && rest[idx] == "lazy" {
        laziness = Laziness::Half;
        idx += 1;
    }
    if idx < rest.len() {
        return Err(ProcessSpecError::new(format!(
            "unexpected token {:?} (canonical option order is [exact] [lazy])",
            rest[idx]
        )));
    }
    Ok((mode, laziness))
}

impl FromStr for ProcessSpec {
    type Err = ProcessSpecError;

    fn from_str(s: &str) -> Result<ProcessSpec, ProcessSpecError> {
        parse_process_spec(s).map_err(|e| e.in_spec(s.trim()))
    }
}

fn parse_process_spec(s: &str) -> Result<ProcessSpec, ProcessSpecError> {
    {
        let parts: Vec<&str> = s.trim().split(':').collect();
        if parts.is_empty() || parts[0].is_empty() {
            return Err(ProcessSpecError::new(format!(
                "empty process spec (valid forms: {})",
                family_list()
            )));
        }
        let family = parts[0].to_ascii_lowercase();
        match family.as_str() {
            "cobra" => {
                if parts.len() < 2 {
                    return Err(ProcessSpecError::new(
                        "usage: cobra:bB[:lazy] or cobra:rhoR[:lazy]",
                    ));
                }
                let branching = parse_branching(parts[1])?;
                let (_, laziness) = parse_options(&parts[2..], false)?;
                Ok(ProcessSpec::Cobra {
                    branching,
                    laziness,
                })
            }
            "bips" => {
                if parts.len() < 2 {
                    return Err(ProcessSpecError::new("usage: bips:bB[:exact][:lazy]"));
                }
                let branching = parse_branching(parts[1])?;
                let (mode, laziness) = parse_options(&parts[2..], true)?;
                Ok(ProcessSpec::Bips {
                    branching,
                    laziness,
                    mode,
                })
            }
            "rw" => {
                let (_, laziness) = parse_options(&parts[1..], false)?;
                Ok(ProcessSpec::RandomWalk { laziness })
            }
            "walks" => {
                if parts.len() < 2 {
                    return Err(ProcessSpecError::new("usage: walks:K[:lazy]"));
                }
                let k: usize = parts[1].parse().map_err(|_| {
                    ProcessSpecError::new(format!("bad walker count {:?}", parts[1]))
                })?;
                if k == 0 {
                    return Err(ProcessSpecError::new("walker count must be >= 1"));
                }
                let (_, laziness) = parse_options(&parts[2..], false)?;
                Ok(ProcessSpec::MultiWalk { k, laziness })
            }
            "coalescing" => {
                if parts.len() < 2 {
                    return Err(ProcessSpecError::new("usage: coalescing:K[:lazy]"));
                }
                let k: usize = parts[1].parse().map_err(|_| {
                    ProcessSpecError::new(format!("bad particle count {:?}", parts[1]))
                })?;
                if k == 0 {
                    return Err(ProcessSpecError::new("particle count must be >= 1"));
                }
                let (_, laziness) = parse_options(&parts[2..], false)?;
                Ok(ProcessSpec::CoalescingWalks { k, laziness })
            }
            "gossip" => {
                if parts.len() != 2 {
                    return Err(ProcessSpecError::new("usage: gossip:push|pull|pushpull"));
                }
                let mode = match parts[1] {
                    "push" => GossipMode::Push,
                    "pull" => GossipMode::Pull,
                    "pushpull" => GossipMode::PushPull,
                    other => {
                        return Err(ProcessSpecError::new(format!(
                            "unknown gossip mode {other:?}"
                        )))
                    }
                };
                Ok(ProcessSpec::Gossip { mode })
            }
            other => Err(ProcessSpecError::new(format!(
                "unknown process family {other:?} (valid forms: {})",
                family_list()
            ))),
        }
    }
}

impl fmt::Display for ProcessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lazy = |l: &Laziness| if *l == Laziness::Half { ":lazy" } else { "" };
        match self {
            ProcessSpec::Cobra {
                branching,
                laziness,
            } => {
                write!(f, "cobra:{}{}", fmt_branching(branching), lazy(laziness))
            }
            ProcessSpec::Bips {
                branching,
                laziness,
                mode,
            } => {
                let exact = if *mode == BipsMode::ExactSampling {
                    ":exact"
                } else {
                    ""
                };
                write!(
                    f,
                    "bips:{}{}{}",
                    fmt_branching(branching),
                    exact,
                    lazy(laziness)
                )
            }
            ProcessSpec::RandomWalk { laziness } => write!(f, "rw{}", lazy(laziness)),
            ProcessSpec::MultiWalk { k, laziness } => write!(f, "walks:{k}{}", lazy(laziness)),
            ProcessSpec::CoalescingWalks { k, laziness } => {
                write!(f, "coalescing:{k}{}", lazy(laziness))
            }
            ProcessSpec::Gossip { mode } => {
                let mode = match mode {
                    GossipMode::Push => "push",
                    GossipMode::Pull => "pull",
                    GossipMode::PushPull => "pushpull",
                };
                write!(f, "gossip:{mode}")
            }
        }
    }
}

impl ProcessSpec {
    /// The paper's canonical process: COBRA `b = 2`, non-lazy.
    pub const COBRA_B2: ProcessSpec = ProcessSpec::Cobra {
        branching: Branching::B2,
        laziness: Laziness::None,
    };

    /// Expected copies pushed per active vertex per round — 1 for all
    /// walk-like processes, `b` (or `1+ρ`) for the branching ones.
    pub fn expected_branching(&self) -> f64 {
        match self {
            ProcessSpec::Cobra { branching, .. } | ProcessSpec::Bips { branching, .. } => {
                branching.expected()
            }
            ProcessSpec::RandomWalk { .. }
            | ProcessSpec::MultiWalk { .. }
            | ProcessSpec::CoalescingWalks { .. }
            | ProcessSpec::Gossip { .. } => 1.0,
        }
    }

    /// True for processes whose completion time is random-walk-like —
    /// `Θ(n·m)` in the worst case rather than the COBRA bounds. Covers
    /// `cobra:b1` (literally a random walk), the walk baselines, and
    /// `bips:b1` (whose infection time matches the `b = 1` walk regime
    /// by the Theorem 1.3 duality). Drives cap resolution in the
    /// `SimSpec` layer.
    pub fn is_walk_like(&self) -> bool {
        match self {
            ProcessSpec::Cobra { branching, .. } | ProcessSpec::Bips { branching, .. } => {
                *branching == Branching::Fixed(1)
            }
            ProcessSpec::RandomWalk { .. }
            | ProcessSpec::MultiWalk { .. }
            | ProcessSpec::CoalescingWalks { .. } => true,
            ProcessSpec::Gossip { .. } => false,
        }
    }

    /// The sharded-engine kernel for this process, or `None` for the
    /// processes that do not shard (walk-like particle processes and
    /// gossip, whose per-round updates are not vertex-partitionable).
    ///
    /// BIPS maps to the sharded Bernoulli law regardless of its
    /// `exact`/fast-path mode — the two are law-identical, and the
    /// sharded engine is a different sample path from the unsharded
    /// one either way.
    pub fn shard_kernel(&self) -> Option<crate::shard::ShardKernel> {
        match self {
            ProcessSpec::Cobra {
                branching,
                laziness,
            } => Some(crate::shard::ShardKernel::Cobra {
                branching: *branching,
                laziness: *laziness,
            }),
            ProcessSpec::Bips {
                branching,
                laziness,
                ..
            } => Some(crate::shard::ShardKernel::Bips {
                branching: *branching,
                laziness: *laziness,
            }),
            ProcessSpec::RandomWalk { .. }
            | ProcessSpec::MultiWalk { .. }
            | ProcessSpec::CoalescingWalks { .. }
            | ProcessSpec::Gossip { .. } => None,
        }
    }

    /// True for processes the sharded engine can run (`cobra`, `bips`).
    pub fn is_shardable(&self) -> bool {
        self.shard_kernel().is_some()
    }

    /// Instantiates the process on `g` (any [`Topology`] backend) from
    /// the given start set, as a type-erased [`BoxedProcess`] ready to
    /// step (the thin adapter the string-driven CLI path hands to the
    /// engine; build once per worker, then
    /// [`crate::ProcessState::reset`] per trial). The box erases the
    /// process, not the backend, so stepping stays monomorphized over
    /// `T`.
    ///
    /// Single-source processes (BIPS, random walk, gossip) use
    /// `start[0]`. `walks:K`/`coalescing:K` given a single start place
    /// their `K` particles by the process's own convention (all at the
    /// start for independent walks, evenly spaced for coalescing walks);
    /// given several starts they use exactly those. `reset` re-applies
    /// the same interpretation, so a recycled state is indistinguishable
    /// from a fresh build.
    ///
    /// Panics if `start` is empty or contains out-of-range vertices (the
    /// same contract as the process constructors).
    pub fn build<'g, T: Topology>(&self, g: &'g T, start: &[VertexId]) -> BoxedProcess<'g, T> {
        assert!(!start.is_empty(), "process needs a nonempty start set");
        match self {
            ProcessSpec::Cobra {
                branching,
                laziness,
            } => Box::new(Cobra::new(g, start, *branching, *laziness)),
            ProcessSpec::Bips {
                branching,
                laziness,
                mode,
            } => Box::new(Bips::new(g, start[0], *branching, *laziness, *mode)),
            ProcessSpec::RandomWalk { laziness } => {
                Box::new(RandomWalk::new(g, start[0], *laziness))
            }
            ProcessSpec::MultiWalk { k, laziness } => {
                if start.len() > 1 {
                    Box::new(MultiWalk::new(g, start, *laziness))
                } else {
                    Box::new(MultiWalk::new_at(g, start[0], *k, *laziness))
                }
            }
            ProcessSpec::CoalescingWalks { k, laziness } => {
                if start.len() > 1 {
                    Box::new(CoalescingWalks::new(g, start, *laziness))
                } else {
                    Box::new(CoalescingWalks::new_spaced(g, start[0], *k, *laziness))
                }
            }
            ProcessSpec::Gossip { mode } => Box::new(Gossip::new(g, start[0], *mode)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ProcessState, StepCtx};
    use cobra_graph::generators;

    fn roundtrip(s: &str) -> ProcessSpec {
        let spec: ProcessSpec = s.parse().expect(s);
        assert_eq!(spec.to_string(), s, "display not canonical for {s}");
        let again: ProcessSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec, "parse∘display not identity for {s}");
        spec
    }

    #[test]
    fn canonical_specs_round_trip() {
        for s in [
            "cobra:b2",
            "cobra:b1",
            "cobra:b3:lazy",
            "cobra:rho0.5",
            "cobra:rho0.25:lazy",
            "bips:b2",
            "bips:b2:exact",
            "bips:b2:lazy",
            "bips:rho0.5:exact:lazy",
            "rw",
            "rw:lazy",
            "walks:8",
            "walks:4:lazy",
            "coalescing:8",
            "coalescing:3:lazy",
            "gossip:push",
            "gossip:pull",
            "gossip:pushpull",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in [
            "",
            "cobra",
            "cobra:2",
            "cobra:b0",
            "cobra:rho0",
            "cobra:rho1.5",
            "cobra:b2:eager",
            "cobra:b2:lazy:lazy",
            "bips:b2:lazy:exact", // non-canonical order
            "rw:b2",
            "walks",
            "walks:0",
            "coalescing:x",
            "gossip",
            "gossip:shout",
            "teleport:b2",
        ] {
            assert!(s.parse::<ProcessSpec>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn errors_name_the_token_and_list_forms() {
        // Unknown family: names the offender and lists every valid form.
        let e = "teleport:b2"
            .parse::<ProcessSpec>()
            .unwrap_err()
            .to_string();
        assert!(e.contains("\"teleport\""), "missing offender in {e:?}");
        for (family, _) in FAMILY_USAGES {
            assert!(e.contains(family), "family {family} not listed in {e:?}");
        }
        // Bad branching token: names it and the enclosing spec.
        let e = "cobra:x9".parse::<ProcessSpec>().unwrap_err().to_string();
        assert!(e.contains("\"x9\""), "missing token in {e:?}");
        assert!(e.contains("\"cobra:x9\""), "missing spec in {e:?}");
        // Unexpected trailing option: names it.
        let e = "cobra:b2:eager"
            .parse::<ProcessSpec>()
            .unwrap_err()
            .to_string();
        assert!(e.contains("\"eager\""), "missing token in {e:?}");
        // Bad gossip mode: names it.
        let e = "gossip:shout"
            .parse::<ProcessSpec>()
            .unwrap_err()
            .to_string();
        assert!(e.contains("\"shout\""), "missing mode in {e:?}");
    }

    #[test]
    fn cobra_b2_constant_matches_parse() {
        assert_eq!(
            "cobra:b2".parse::<ProcessSpec>().unwrap(),
            ProcessSpec::COBRA_B2
        );
        assert_eq!(ProcessSpec::COBRA_B2.expected_branching(), 2.0);
        assert!(!ProcessSpec::COBRA_B2.is_walk_like());
        assert!("cobra:b1".parse::<ProcessSpec>().unwrap().is_walk_like());
        assert!("bips:b1".parse::<ProcessSpec>().unwrap().is_walk_like());
        assert!(!"bips:b2".parse::<ProcessSpec>().unwrap().is_walk_like());
        assert!("rw".parse::<ProcessSpec>().unwrap().is_walk_like());
    }

    #[test]
    fn built_processes_complete_on_a_small_graph() {
        let g = generators::complete(16);
        for s in [
            "cobra:b2",
            "bips:b2",
            "rw",
            "walks:4",
            "coalescing:4",
            "gossip:push",
        ] {
            let spec: ProcessSpec = s.parse().unwrap();
            let mut p = spec.build(&g, &[0]);
            let mut ctx = StepCtx::seeded(1);
            let rounds = p.run_to_completion(&mut ctx, 100_000);
            assert!(rounds.is_some(), "{s} censored on K_16");
            assert!(p.is_complete());
            assert_eq!(p.reached_count(), 16);
        }
    }

    #[test]
    fn lazy_specs_complete_on_bipartite_graphs() {
        // Plain BIPS b=1 on a bipartite graph can oscillate forever; the
        // lazy variants must complete.
        let g = generators::hypercube(4);
        for s in ["cobra:b2:lazy", "bips:b2:lazy"] {
            let spec: ProcessSpec = s.parse().unwrap();
            let mut p = spec.build(&g, &[0]);
            let mut ctx = StepCtx::seeded(2);
            assert!(p.run_to_completion(&mut ctx, 100_000).is_some(), "{s}");
        }
    }

    #[test]
    fn spaced_starts_are_distinct_and_in_range() {
        let starts: Vec<u32> = crate::coalescing::spaced_starts(100, 17, 4).collect();
        assert_eq!(starts.len(), 4);
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "spaced starts collide: {starts:?}");
        assert!(starts.iter().all(|&v| (v as usize) < 100));
        assert_eq!(starts[0], 17);
    }

    #[test]
    fn multiwalk_spec_honours_explicit_start_sets() {
        let g = generators::cycle(12);
        let spec: ProcessSpec = "walks:2".parse().unwrap();
        // Three explicit starts override k = 2.
        let p = spec.build(&g, &[0, 4, 8]);
        assert_eq!(p.reached_count(), 3);
    }

    #[test]
    fn reset_boxed_process_matches_fresh_build() {
        // The engine builds once per worker and resets per trial; the
        // recycled state must reproduce a fresh build's run exactly.
        let g = generators::petersen();
        for s in [
            "cobra:b2",
            "bips:b2",
            "rw",
            "walks:4",
            "coalescing:4:lazy",
            "gossip:pushpull",
        ] {
            let spec: ProcessSpec = s.parse().unwrap();
            let mut reused = spec.build(&g, &[0]);
            let mut ctx = StepCtx::seeded(31);
            let a = reused.run_to_completion(&mut ctx, 100_000);
            reused.reset(&g, &[0]);
            ctx.reseed(31);
            let b = reused.run_to_completion(&mut ctx, 100_000);
            let fresh = spec
                .build(&g, &[0])
                .run_to_completion(&mut StepCtx::seeded(31), 100_000);
            assert_eq!(a, b, "{s}: reset diverged from first run");
            assert_eq!(a, fresh, "{s}: reset diverged from fresh build");
        }
    }
}
