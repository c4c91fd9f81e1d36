//! The declarative sweep grammar: one line names a whole grid.
//!
//! A [`SweepSpec`] is a `;`-separated list of segments. An optional
//! leading segment carries the objective axis (any `;`-free segment
//! without `=`); the rest are `key=value` pairs in any order:
//!
//! ```text
//! cover; graph=hypercube:{10..16}; process=cobra:b{1,2,3}; trials=64
//! hit:5; graph=cycle:{16,32,64}|torus:8x8; process=rw|cobra:b2; trials=32; seed=9
//! objective={cover,hit:far,infection:1.0}; graph=hypercube:{8..12}; process=cobra:b{1,2}; trials=32
//! ```
//!
//! | key | value | default |
//! |-----|-------|---------|
//! | `objective` | `\|`-separated objective patterns (alias of the leading segment) | `cover` |
//! | `graph` | `\|`-separated graph-spec patterns | required |
//! | `process` | `\|`-separated process-spec patterns | required |
//! | `trials` | trials per point | 32 |
//! | `start` | start vertex | 0 |
//! | `seed` | campaign master seed | `0xC0B7A` |
//! | `cap` | explicit per-trial round cap | derived per point |
//! | `name` | campaign name (store directory) | `sweep-<digest>` |
//! | `shards` | worker shards per trial (`1` = unsharded engine) | 1 |
//! | `backend` | graph backend `auto`\|`csr`\|`implicit` (`auto`: implicit for `complete` and `hypercube`, CSR otherwise) | `auto` |
//!
//! The backend is an *execution* knob, not an identity one: backends
//! produce bit-identical results, so it never enters a point's content
//! key — records computed under `backend=csr` serve `backend=implicit`
//! re-runs and vice versa.
//!
//! `shards` is the opposite: the shard count fixes which RNG stream
//! draws each vertex's picks, so `shards=4` samples a different (equally
//! valid) trajectory than `shards=1` and *is* part of every point's
//! content key. Records never migrate across shard counts.
//!
//! Patterns expand with shell-style braces: `{a..b}` is an inclusive
//! integer range, `{x,y,z}` a list, and multiple groups in one pattern
//! cross-product (`grid:{8,16}x{8,16}` is four graphs). The grid is
//! the cross product objective-axis × graph-axis × process-axis, in
//! writing order. Objective tokens must parse as sweepable
//! [`Objective`]s — the stopping estimands `cover`, `hit:V`,
//! `hit:far`, `infection:T`; the composite estimands (`duality:h{..}`,
//! `trajectory`) are rejected by name.
//!
//! [`FromStr`] and [`Display`](fmt::Display) round-trip exactly, like
//! [`GraphSpec`] and [`ProcessSpec`] — a sweep can be named on a
//! command line, in a file, or in a log, and reconstructed
//! bit-for-bit. (The canonical display puts the objective axis in the
//! leading segment.)

use crate::CampaignError;
use cobra_graph::{Backend, GraphSpec, VertexId};
use cobra_mc::Objective;
use cobra_process::ProcessSpec;
use cobra_util::hash::{fnv1a_str, hex16};
use std::fmt;
use std::str::FromStr;

/// Default trials per point.
const DEFAULT_TRIALS: usize = 32;
/// Default campaign master seed (shared with `SimSpec` for familiarity).
const DEFAULT_SEED: u64 = 0xC0B7A;
/// Ceiling on points per sweep — a typo guard (`{1..9999999}`), not a
/// capacity limit.
const MAX_POINTS: usize = 100_000;

/// A declarative sweep: objective axis × graph axis × process axis ×
/// (trials, start, seed, cap, name).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Objective-axis patterns, each possibly containing brace groups
    /// (`{cover,hit:far}`); every expanded token must be a sweepable
    /// [`Objective`].
    pub objectives: Vec<String>,
    /// Graph-axis patterns, each possibly containing brace groups.
    pub graphs: Vec<String>,
    /// Process-axis patterns, each possibly containing brace groups.
    pub processes: Vec<String>,
    pub trials: usize,
    pub start: VertexId,
    pub seed: u64,
    /// Explicit per-trial cap; `None` defers to the runner's cap policy.
    pub cap: Option<usize>,
    /// Explicit campaign name; `None` derives `sweep-<digest>` from the
    /// canonical spec string.
    pub name: Option<String>,
    /// Worker shards per trial (`1` = the unsharded engine). Unlike
    /// `backend`, this *is* part of every point's content key: the
    /// shard count fixes the per-shard RNG streams, so different shard
    /// counts sample different (equally valid) trajectories.
    pub shards: usize,
    /// Graph backend for every point (`auto` = implicit for `complete`
    /// and `hypercube`, CSR otherwise). Excluded from point content keys: backends are
    /// bit-identical, so the store is backend-agnostic.
    pub backend: Backend,
}

impl SweepSpec {
    /// A sweep over the given axes with all defaults.
    pub fn new(
        objectives: &[&str],
        graphs: &[&str],
        processes: &[&str],
    ) -> Result<SweepSpec, CampaignError> {
        let spec = SweepSpec {
            objectives: objectives.iter().map(|s| s.trim().to_string()).collect(),
            graphs: graphs.iter().map(|s| s.trim().to_string()).collect(),
            processes: processes.iter().map(|s| s.trim().to_string()).collect(),
            trials: DEFAULT_TRIALS,
            start: 0,
            seed: DEFAULT_SEED,
            cap: None,
            name: None,
            shards: 1,
            backend: Backend::Auto,
        };
        spec.expand_axes()?;
        Ok(spec)
    }

    /// Sets the trial count per point.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the campaign master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the graph backend for every point (results never change).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the shard count for every point (`1` = unsharded). Unlike
    /// the backend, this changes every point's content key — and its
    /// sampled trajectory. Panics on `0`, mirroring the parser.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(
            shards >= 1,
            "shards must be >= 1 (1 = the unsharded engine)"
        );
        self.shards = shards;
        self
    }

    /// Sets an explicit per-trial round cap for every point.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// The campaign name: explicit, or `sweep-<hex>` derived from the
    /// canonical spec string (stable across runs, so an unnamed sweep
    /// still resumes into the same store). The backend is excluded from
    /// the derivation — backends are bit-identical, so `backend=csr`
    /// and `backend=implicit` runs of one grid share a store and serve
    /// each other's cached records. `shards=` stays in: the shard count
    /// is part of every point's identity, so sharded and unsharded runs
    /// of one grid are different campaigns.
    pub fn name(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => {
                let canonical = SweepSpec {
                    backend: Backend::Auto,
                    ..self.clone()
                }
                .to_string();
                format!("sweep-{}", &hex16(fnv1a_str(&canonical))[..8])
            }
        }
    }

    /// Expands the three axes and returns the grid (objective-major,
    /// then graph-major order). Every expanded token must parse as its
    /// spec type — and objective tokens must be sweepable — with errors
    /// naming the offending token and pattern.
    #[allow(clippy::type_complexity)]
    pub fn expand_axes(&self) -> Result<Vec<(Objective, GraphSpec, ProcessSpec)>, CampaignError> {
        if self.objectives.is_empty() {
            return Err(CampaignError::Spec("sweep needs an objective axis".into()));
        }
        if self.graphs.is_empty() {
            return Err(CampaignError::Spec("sweep needs a graph axis".into()));
        }
        if self.processes.is_empty() {
            return Err(CampaignError::Spec("sweep needs a process axis".into()));
        }
        let mut objectives: Vec<Objective> = Vec::new();
        for pattern in &self.objectives {
            // Reject the non-sweepable brace-carrying form before brace
            // expansion mangles its horizon list.
            if pattern.trim_start().starts_with("duality:") {
                return Err(CampaignError::Spec(format!(
                    "objective {pattern:?} cannot ride a sweep (sweepable objectives: \
                     cover, hit:V, hit:far, infection:T)"
                )));
            }
            for token in expand_pattern(pattern).map_err(CampaignError::Spec)? {
                let objective: Objective = token.parse().map_err(CampaignError::Spec)?;
                if !objective.is_sweepable() {
                    return Err(CampaignError::Spec(format!(
                        "objective {token:?} cannot ride a sweep (sweepable objectives: \
                         cover, hit:V, hit:far, infection:T)"
                    )));
                }
                objectives.push(objective);
            }
        }
        let mut graphs: Vec<GraphSpec> = Vec::new();
        for pattern in &self.graphs {
            for token in expand_pattern(pattern).map_err(CampaignError::Spec)? {
                graphs.push(token.parse().map_err(CampaignError::Graph)?);
            }
        }
        let mut processes: Vec<ProcessSpec> = Vec::new();
        for pattern in &self.processes {
            for token in expand_pattern(pattern).map_err(CampaignError::Spec)? {
                processes.push(token.parse().map_err(CampaignError::Process)?);
            }
        }
        let total = objectives.len() * graphs.len() * processes.len();
        if total > MAX_POINTS {
            return Err(CampaignError::Spec(format!(
                "sweep expands to {total} points (limit {MAX_POINTS})"
            )));
        }
        let mut grid = Vec::with_capacity(total);
        for o in &objectives {
            for g in &graphs {
                for p in &processes {
                    grid.push((o.clone(), g.clone(), p.clone()));
                }
            }
        }
        Ok(grid)
    }
}

impl fmt::Display for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The canonical spelling leads with the objective axis — an
        // objective pattern never contains '=', so the parser can tell
        // it from a key=value segment unambiguously.
        write!(
            f,
            "{}; graph={}; process={}; trials={}",
            self.objectives.join("|"),
            self.graphs.join("|"),
            self.processes.join("|"),
            self.trials
        )?;
        if self.start != 0 {
            write!(f, "; start={}", self.start)?;
        }
        if self.seed != DEFAULT_SEED {
            write!(f, "; seed={}", self.seed)?;
        }
        if let Some(cap) = self.cap {
            write!(f, "; cap={cap}")?;
        }
        if let Some(name) = &self.name {
            write!(f, "; name={name}")?;
        }
        if self.shards != 1 {
            write!(f, "; shards={}", self.shards)?;
        }
        if self.backend != Backend::Auto {
            write!(f, "; backend={}", self.backend)?;
        }
        Ok(())
    }
}

impl FromStr for SweepSpec {
    type Err = CampaignError;

    fn from_str(s: &str) -> Result<SweepSpec, CampaignError> {
        if s.trim().is_empty() {
            return Err(CampaignError::Spec("empty sweep spec".into()));
        }
        let mut segments = s.split(';').map(str::trim).peekable();
        // An optional leading objective-axis segment: any first segment
        // that is not key=value.
        let mut objectives: Option<Vec<String>> = None;
        if let Some(first) = segments.peek() {
            if !first.contains('=') {
                let first = segments.next().expect("peeked");
                if first.is_empty() {
                    return Err(CampaignError::Spec("empty sweep spec".into()));
                }
                objectives = Some(split_axis(first, "objective")?);
            }
        }
        let mut graphs: Option<Vec<String>> = None;
        let mut processes: Option<Vec<String>> = None;
        let mut trials = DEFAULT_TRIALS;
        let mut start: VertexId = 0;
        let mut seed = DEFAULT_SEED;
        let mut cap: Option<usize> = None;
        let mut name: Option<String> = None;
        let mut shards = 1usize;
        let mut backend = Backend::Auto;
        for seg in segments {
            if seg.is_empty() {
                continue;
            }
            let Some((key, value)) = seg.split_once('=') else {
                return Err(CampaignError::Spec(format!(
                    "segment {seg:?} is not key=value (valid keys: objective, graph, \
                     process, trials, start, seed, cap, name, shards, backend)"
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            let parse_num = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| CampaignError::Spec(format!("cannot parse {what} from {value:?}")))
            };
            match key {
                "objective" => {
                    if objectives.is_some() {
                        return Err(CampaignError::Spec(
                            "objective given twice (leading segment and objective= key)".into(),
                        ));
                    }
                    objectives = Some(split_axis(value, "objective")?);
                }
                "graph" => {
                    graphs = Some(split_axis(value, "graph")?);
                }
                "process" => {
                    processes = Some(split_axis(value, "process")?);
                }
                "trials" => {
                    trials = parse_num("trials")? as usize;
                    if trials == 0 {
                        return Err(CampaignError::Spec("trials must be >= 1".into()));
                    }
                }
                "start" => start = parse_num("start vertex")? as VertexId,
                "seed" => seed = parse_num("seed")?,
                "cap" => cap = Some(parse_num("cap")? as usize),
                "name" => {
                    validate_name(value).map_err(CampaignError::Spec)?;
                    name = Some(value.to_string());
                }
                "shards" => {
                    shards = parse_num("shard count")? as usize;
                    if shards == 0 {
                        return Err(CampaignError::Spec(
                            "shards must be >= 1 (1 = the unsharded engine; unlike backend=, \
                             shards= is part of every point's content key)"
                                .into(),
                        ));
                    }
                }
                "backend" => backend = value.parse().map_err(CampaignError::Spec)?,
                other => {
                    return Err(CampaignError::Spec(format!(
                        "unknown sweep key {other:?} (valid keys: objective, graph, process, \
                         trials, start, seed, cap, name, shards, backend)"
                    )));
                }
            }
        }
        let spec = SweepSpec {
            objectives: objectives.unwrap_or_else(|| vec!["cover".to_string()]),
            graphs: graphs
                .ok_or_else(|| CampaignError::Spec("sweep needs graph=<patterns>".into()))?,
            processes: processes
                .ok_or_else(|| CampaignError::Spec("sweep needs process=<patterns>".into()))?,
            trials,
            start,
            seed,
            cap,
            name,
            shards,
            backend,
        };
        // Validate the whole expansion eagerly so a bad token fails at
        // parse time, not mid-campaign.
        spec.expand_axes()?;
        Ok(spec)
    }
}

/// A campaign name names a directory under the store root: non-empty
/// `[A-Za-z0-9._-]` and not a path-traversal component. The parser
/// checks every `name=` segment with it, so a parsed spec keeps
/// `store_root.join(name)` inside the store root and the
/// `FromStr`/`Display` round trip intact.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty()
        || name == "."
        || name == ".."
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(format!(
            "campaign name {name:?} must be non-empty [A-Za-z0-9._-] and not \".\" or \"..\" \
             (it names a directory)"
        ));
    }
    Ok(())
}

fn split_axis(value: &str, what: &str) -> Result<Vec<String>, CampaignError> {
    let parts: Vec<String> = value
        .split('|')
        .map(str::trim)
        .map(str::to_string)
        .collect();
    if parts.iter().any(String::is_empty) {
        return Err(CampaignError::Spec(format!(
            "empty {what} pattern in {value:?}"
        )));
    }
    Ok(parts)
}

/// Ceiling on expansions per pattern: bounds every brace group *and*
/// the cross product of groups, checked before anything materializes,
/// so a typo'd `{1..1000}x{1..1000}x{1..1000}` errors cleanly instead
/// of exhausting memory.
const MAX_PATTERN_EXPANSIONS: usize = 4096;

/// Brace expansion: `{a..b}` inclusive integer ranges, `{x,y,z}` lists,
/// cross-producting left to right. No nesting.
fn expand_pattern(pattern: &str) -> Result<Vec<String>, String> {
    let Some(open) = pattern.find('{') else {
        if pattern.contains('}') {
            return Err(format!("'}}' without '{{' in pattern {pattern:?}"));
        }
        return Ok(vec![pattern.to_string()]);
    };
    let close = pattern[open..]
        .find('}')
        .map(|i| open + i)
        .ok_or_else(|| format!("unclosed '{{' in pattern {pattern:?}"))?;
    let head = &pattern[..open];
    let body = &pattern[open + 1..close];
    let tail = &pattern[close + 1..];
    if body.contains('{') {
        return Err(format!("nested braces in pattern {pattern:?}"));
    }
    let items: Vec<String> = if let Some((a, b)) = body.split_once("..") {
        let parse = |t: &str| {
            t.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad range bound {t:?} in pattern {pattern:?}"))
        };
        let (a, b) = (parse(a)?, parse(b)?);
        if b < a {
            return Err(format!(
                "descending range {{{a}..{b}}} in pattern {pattern:?}"
            ));
        }
        if (b - a) as usize >= MAX_PATTERN_EXPANSIONS {
            return Err(format!(
                "range {{{a}..{b}}} expands to {} items (limit {MAX_PATTERN_EXPANSIONS})",
                b - a + 1
            ));
        }
        (a..=b).map(|v| v.to_string()).collect()
    } else {
        body.split(',').map(|t| t.trim().to_string()).collect()
    };
    if items.is_empty() || items.iter().any(String::is_empty) {
        return Err(format!("empty item in brace group of pattern {pattern:?}"));
    }
    let tails = expand_pattern(tail)?;
    // Bound the cross product of groups *before* materializing it (the
    // recursion bounds `tails` the same way, so memory stays small even
    // for adversarial patterns).
    let total = items.len().saturating_mul(tails.len());
    if total > MAX_PATTERN_EXPANSIONS {
        return Err(format!(
            "pattern {pattern:?} expands to {total} combinations (limit {MAX_PATTERN_EXPANSIONS})"
        ));
    }
    let mut out = Vec::with_capacity(total);
    for item in &items {
        for t in &tails {
            out.push(format!("{head}{item}{t}"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> SweepSpec {
        let spec: SweepSpec = s.parse().expect(s);
        assert_eq!(spec.to_string(), s, "display not canonical for {s}");
        let again: SweepSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec, "parse∘display not identity for {s}");
        spec
    }

    #[test]
    fn canonical_specs_round_trip() {
        for s in [
            "cover; graph=hypercube:{10..16}; process=cobra:b{1,2,3}; trials=64",
            "cover; graph=cycle:32; process=rw; trials=32",
            "hit:5; graph=cycle:{16,32}|torus:8x8; process=rw|cobra:b2; trials=8",
            "cover|hit:far; graph=cycle:32; process=rw; trials=4",
            "{cover,hit:far,infection:0.5}; graph=hypercube:{3,4}; process=cobra:b2; trials=4",
            "infection:0.5; graph=complete:32; process=bips:b2; trials=8",
            "cover; graph=complete:64; process=bips:b2; trials=16; start=3; seed=9; \
             cap=1000; name=probe-1",
            "cover; graph=hypercube:{8..10}; process=cobra:b2; trials=8; backend=csr",
            "cover; graph=hypercube:8; process=cobra:b2; trials=8; backend=implicit",
            "cover; graph=hypercube:{8..10}; process=cobra:b2; trials=8; shards=4",
            "cover; graph=hypercube:20; process=bips:b2; trials=8; shards=8; backend=implicit",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn shards_parse_default_and_enter_derived_names() {
        let plain: SweepSpec = "cover; graph=hypercube:8; process=cobra:b2; trials=4"
            .parse()
            .unwrap();
        assert_eq!(plain.shards, 1, "default is the unsharded engine");
        let sharded: SweepSpec = "cover; graph=hypercube:8; process=cobra:b2; trials=4; shards=4"
            .parse()
            .unwrap();
        assert_eq!(sharded.shards, 4);
        // shards=1 is the default and displays canonically bare.
        let explicit_one: SweepSpec =
            "cover; graph=hypercube:8; process=cobra:b2; trials=4; shards=1"
                .parse()
                .unwrap();
        assert_eq!(explicit_one, plain);
        // Unlike backend, the shard count changes the derived store
        // name: a sharded campaign is a different campaign.
        assert_ne!(plain.name(), sharded.name());
        assert_eq!(
            plain.name(),
            plain.clone().with_backend(Backend::Csr).name()
        );
        // Zero is rejected with the identity semantics spelled out.
        let err = "cover; graph=hypercube:8; process=cobra:b2; shards=0"
            .parse::<SweepSpec>()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(">= 1") && err.contains("content key"),
            "{err:?}"
        );
        // Garbage names the value; unknown keys list shards.
        let err = "cover; graph=hypercube:8; process=cobra:b2; shards=many"
            .parse::<SweepSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("\"many\""), "{err:?}");
        let err = "cover; graph=hypercube:8; process=cobra:b2; bogus=1"
            .parse::<SweepSpec>()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("shards"),
            "valid-keys list must name shards: {err:?}"
        );
    }

    #[test]
    fn backend_segment_parses_and_stays_out_of_derived_names() {
        let auto: SweepSpec = "cover; graph=cycle:8; process=rw; trials=4"
            .parse()
            .unwrap();
        let csr: SweepSpec = "cover; graph=cycle:8; process=rw; trials=4; backend=csr"
            .parse()
            .unwrap();
        assert_eq!(auto.backend, Backend::Auto);
        assert_eq!(csr.backend, Backend::Csr);
        // backend=auto is the default and displays canonically bare.
        let explicit_auto: SweepSpec = "cover; graph=cycle:8; process=rw; trials=4; backend=auto"
            .parse()
            .unwrap();
        assert_eq!(explicit_auto, auto);
        // Derived store names ignore the backend: backends are
        // bit-identical, so their runs share a store.
        assert_eq!(auto.name(), csr.name());
        // Typos name the valid choices.
        let err = "cover; graph=cycle:8; process=rw; backend=sparse"
            .parse::<SweepSpec>()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("\"sparse\"") && err.contains("implicit"),
            "{err:?}"
        );
    }

    #[test]
    fn objective_key_form_is_the_leading_segment_in_disguise() {
        let keyed: SweepSpec = "objective={cover,hit:far,infection:1.0}; graph=hypercube:{8..9}; \
             process=cobra:b{1,2}; trials=32"
            .parse()
            .unwrap();
        let leading: SweepSpec =
            "{cover,hit:far,infection:1.0}; graph=hypercube:{8..9}; process=cobra:b{1,2}; \
             trials=32"
                .parse()
                .unwrap();
        assert_eq!(keyed, leading);
        // Canonical display leads with the objective axis.
        assert!(keyed
            .to_string()
            .starts_with("{cover,hit:far,infection:1.0}; "));
        // Omitting the objective entirely defaults to cover.
        let defaulted: SweepSpec = "graph=cycle:8; process=rw; trials=4".parse().unwrap();
        assert_eq!(defaulted.objectives, vec!["cover".to_string()]);
        assert!(defaulted.to_string().starts_with("cover; "));
    }

    #[test]
    fn issue_example_expands_to_the_advertised_grid() {
        let spec = roundtrip("cover; graph=hypercube:{10..16}; process=cobra:b{1,2,3}; trials=64");
        let grid = spec.expand_axes().unwrap();
        assert_eq!(grid.len(), 7 * 3);
        assert_eq!(grid[0].0, Objective::Cover);
        assert_eq!(grid[0].1.to_string(), "hypercube:10");
        assert_eq!(grid[0].2.to_string(), "cobra:b1");
        assert_eq!(grid.last().unwrap().1.to_string(), "hypercube:16");
        assert_eq!(grid.last().unwrap().2.to_string(), "cobra:b3");
        assert_eq!(spec.trials, 64);
    }

    #[test]
    fn objective_axis_is_outermost() {
        let spec: SweepSpec = "{cover,hit:far}; graph=cycle:{8,9}; process=rw; trials=2"
            .parse()
            .unwrap();
        let grid = spec.expand_axes().unwrap();
        let spelled: Vec<String> = grid.iter().map(|(o, g, _)| format!("{o}/{g}")).collect();
        assert_eq!(
            spelled,
            [
                "cover/cycle:8",
                "cover/cycle:9",
                "hit:far/cycle:8",
                "hit:far/cycle:9"
            ]
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_named_offenders() {
        for (s, needle) in [
            ("", "empty sweep spec"),
            ("fly; graph=cycle:8; process=rw", "\"fly\""),
            ("cover; process=rw", "graph="),
            ("cover; graph=cycle:8", "process="),
            ("cover; graph=cycle:8; process=rw; bogus=1", "\"bogus\""),
            ("cover; graph=cycle:8; process=rw; trials=0", "trials"),
            ("cover; graph=cycle:8; process=rw; trials=abc", "\"abc\""),
            ("cover; graph=nope:8; process=rw", "\"nope\""),
            ("cover; graph=cycle:8; process=warp:2", "\"warp\""),
            ("cover; graph=cycle:{8..4}; process=rw", "descending"),
            ("cover; graph=cycle:{8; process=rw", "unclosed"),
            ("cover; graph=cycle:8}; process=rw", "without"),
            ("cover; graph=cycle:8; process=rw; name=a/b", "directory"),
            ("cover; graph=cycle:8; process=rw; name=..", "directory"),
            ("cover; graph=cycle:8; process=rw; name=.", "directory"),
            ("cover; graph=cycle:8; process=rw; 42", "key=value"),
            ("cover; graph=cycle:8; process=rw junk", "\"rw junk\""),
            // Objective-axis offenders are named too.
            ("trajectory; graph=cycle:8; process=rw", "\"trajectory\""),
            ("duality:h{4}; graph=cycle:8; process=cobra:b2", "sweepable"),
            (
                "infection:1.5; graph=cycle:8; process=bips:b2",
                "0 < T <= 1",
            ),
            ("hit:x; graph=cycle:8; process=rw", "\"x\""),
            (
                "cover; objective=hit:far; graph=cycle:8; process=rw",
                "twice",
            ),
        ] {
            let err = s.parse::<SweepSpec>().expect_err(s).to_string();
            assert!(err.contains(needle), "{s:?}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn brace_expansion_forms() {
        assert_eq!(expand_pattern("rw").unwrap(), vec!["rw"]);
        assert_eq!(
            expand_pattern("hypercube:{3..5}").unwrap(),
            vec!["hypercube:3", "hypercube:4", "hypercube:5"]
        );
        assert_eq!(
            expand_pattern("cobra:b{1,2,3}").unwrap(),
            vec!["cobra:b1", "cobra:b2", "cobra:b3"]
        );
        assert_eq!(
            expand_pattern("grid:{8,16}x{8,16}").unwrap(),
            vec!["grid:8x8", "grid:8x16", "grid:16x8", "grid:16x16"]
        );
        assert_eq!(
            expand_pattern("cobra:rho{0.25,0.5}").unwrap(),
            vec!["cobra:rho0.25", "cobra:rho0.5"]
        );
        assert!(expand_pattern("x{1..9000}").is_err(), "range limit");
        // The *product* of groups is bounded before materialization:
        // this would be 10^9 strings if checked only at the end.
        let err = expand_pattern("torus:{1..1000}x{1..1000}x{1..1000}").unwrap_err();
        assert!(err.contains("limit"), "{err:?}");
    }

    #[test]
    fn derived_names_are_stable_and_explicit_names_win() {
        let a: SweepSpec = "cover; graph=cycle:8; process=rw; trials=4"
            .parse()
            .unwrap();
        let b: SweepSpec = "cover; graph=cycle:8; process=rw; trials=4"
            .parse()
            .unwrap();
        assert_eq!(a.name(), b.name());
        assert!(a.name().starts_with("sweep-"));
        let c: SweepSpec = "cover; graph=cycle:8; process=rw; trials=4; name=mine"
            .parse()
            .unwrap();
        assert_eq!(c.name(), "mine");
        // A different grid derives a different name.
        let d: SweepSpec = "cover; graph=cycle:9; process=rw; trials=4"
            .parse()
            .unwrap();
        assert_ne!(a.name(), d.name());
    }

    #[test]
    fn segments_accept_any_order() {
        let a: SweepSpec = "cover; trials=8; process=rw; graph=cycle:8"
            .parse()
            .unwrap();
        let b: SweepSpec = "cover; graph=cycle:8; process=rw; trials=8"
            .parse()
            .unwrap();
        assert_eq!(a, b);
    }
}
