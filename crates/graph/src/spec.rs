//! `GraphSpec` — every graph family as a parseable, printable value.
//!
//! A spec is a compact string such as `"hypercube:10"`, `"grid:32x32"`
//! or `"gnp:2000:0.01"`. [`GraphSpec`] implements [`FromStr`] and
//! [`Display`](std::fmt::Display) with exact round-tripping (`parse ∘ to_string = id`), so
//! any scenario in the workspace can be named on a command line, in a
//! config file, or in a log, and reconstructed bit-for-bit.
//!
//! Deterministic families ignore the seed passed to [`GraphSpec::build`];
//! random families (`gnp`, `regular`/`rreg`, `ba`/`pa`, `ws`) consume it,
//! so a `(spec, seed)` pair always denotes one concrete graph. `file:`
//! specs load an edge-list file (see [`crate::ingest`]) and are keyed by
//! a digest of the file's bytes, so they too denote one concrete graph.
//!
//! | family | syntax | generator |
//! |--------|--------|-----------|
//! | complete graph | `complete:N` | [`generators::complete`] |
//! | cycle | `cycle:N` | [`generators::cycle`] |
//! | path | `path:N` | [`generators::path`] |
//! | star | `star:N` | [`generators::star`] |
//! | wheel | `wheel:N` | [`generators::wheel`] |
//! | Petersen graph | `petersen` | [`generators::petersen`] |
//! | complete bipartite | `bipartite:AxB` | [`generators::complete_bipartite`] |
//! | double star | `doublestar:AxB` | [`generators::double_star`] |
//! | grid | `grid:AxB[x...]` | [`generators::grid`] |
//! | torus | `torus:AxB[x...]` | [`generators::torus`] |
//! | hypercube `Q_d` | `hypercube:D` | [`generators::hypercube`] |
//! | complete k-ary tree | `tree:K:N` | [`generators::k_ary_tree`] |
//! | cycle power | `cyclepower:N:K` | [`generators::cycle_power`] |
//! | circulant | `circulant:N:O1+O2+...` | [`generators::circulant`] |
//! | ring of cliques | `ringcliques:K:C` | [`generators::ring_of_cliques`] |
//! | barbell | `barbell:C:P` or `barbell:N` | [`generators::barbell`] |
//! | lollipop | `lollipop:C:P` or `lollipop:N` | [`generators::lollipop`] |
//! | two cliques + path | `twoclique:C:P` | [`generators::barbell`] |
//! | Erdős–Rényi | `gnp:N:P` | [`generators::gnp`] |
//! | random regular | `regular:N:R` or `rreg:N:D` | [`generators::random_regular`] |
//! | Barabási–Albert | `ba:N:M` or `pa:N:M` | [`generators::barabasi_albert`] |
//! | Watts–Strogatz | `ws:N:K:BETA` | [`generators::watts_strogatz`] |
//! | edge-list file | `file:<path>[?component=giant]` | [`crate::ingest`] |
//!
//! The single-parameter adversarial forms fix the literature's canonical
//! proportions: `lollipop:n` is a `⌈2n/3⌉`-clique with an `⌊n/3⌋`-path
//! (the extremal hitting-time shape), `barbell:n` two `⌊n/3⌋`-cliques
//! joined by a path through the remaining vertices.

use crate::csr::Graph;
use crate::generators;
use crate::topology::{Backend, BuiltTopology, CompleteTopo, HypercubeTopo};
use cobra_util::hash::fnv1a_str;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

/// A graph family plus its parameters, as data.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    Complete {
        n: usize,
    },
    Cycle {
        n: usize,
    },
    Path {
        n: usize,
    },
    Star {
        n: usize,
    },
    Wheel {
        n: usize,
    },
    Petersen,
    CompleteBipartite {
        a: usize,
        b: usize,
    },
    DoubleStar {
        a: usize,
        b: usize,
    },
    Grid {
        dims: Vec<usize>,
    },
    Torus {
        dims: Vec<usize>,
    },
    Hypercube {
        d: u32,
    },
    /// Complete `k`-ary tree on `n` vertices.
    KaryTree {
        k: usize,
        n: usize,
    },
    CyclePower {
        n: usize,
        k: usize,
    },
    Circulant {
        n: usize,
        offsets: Vec<usize>,
    },
    /// `k` cliques of `c` vertices each, joined in a ring.
    RingOfCliques {
        k: usize,
        c: usize,
    },
    /// Two `c`-cliques joined by a `p`-path.
    Barbell {
        c: usize,
        p: usize,
    },
    /// A `c`-clique with a pendant `p`-path.
    Lollipop {
        c: usize,
        p: usize,
    },
    /// Canonical lollipop on `n` vertices: `⌈2n/3⌉`-clique, `⌊n/3⌋`-path.
    LollipopN {
        n: usize,
    },
    /// Canonical barbell on `n` vertices: two `⌊n/3⌋`-cliques joined by a
    /// path through the remaining vertices.
    BarbellN {
        n: usize,
    },
    /// Two `c`-cliques joined by a `p`-path (explicit-proportion barbell
    /// under the literature's "two cliques" name).
    TwoClique {
        c: usize,
        p: usize,
    },
    Gnp {
        n: usize,
        p: f64,
    },
    /// Random `r`-regular (connected samples only).
    RandomRegular {
        n: usize,
        r: usize,
    },
    /// Random `d`-regular via the pairing model with retry — the source
    /// paper's core regime, under its conventional `rreg` name.
    RReg {
        n: usize,
        d: usize,
    },
    BarabasiAlbert {
        n: usize,
        m: usize,
    },
    /// Preferential attachment under its generic `pa` name.
    PrefAttach {
        n: usize,
        m: usize,
    },
    WattsStrogatz {
        n: usize,
        k: usize,
        beta: f64,
    },
    /// An edge-list/SNAP file ingested through [`crate::ingest`].
    /// `digest` is the FNV-1a hash of the file bytes, computed at parse
    /// time — it pins the spec's identity to the file's *content*, so
    /// campaign keys stay stable across renames and go stale with edits.
    /// `giant` restricts to the largest connected component.
    File {
        path: String,
        digest: u64,
        giant: bool,
    },
}

/// Why a spec string failed to parse (or to build).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSpecError {
    message: String,
}

impl GraphSpecError {
    fn new(message: impl Into<String>) -> Self {
        GraphSpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for GraphSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph spec error: {}", self.message)
    }
}

impl std::error::Error for GraphSpecError {}

impl GraphSpecError {
    /// Tags the error with the full spec being parsed, so a failure
    /// buried in a 300-point sweep expansion still names its source.
    fn in_spec(mut self, s: &str) -> GraphSpecError {
        let quoted = format!("{s:?}");
        if !self.message.contains(&quoted) {
            self.message = format!("{} (in graph spec {quoted})", self.message);
        }
        self
    }
}

/// Every accepted family with its usage form, in documentation order —
/// the source of truth for error messages and CLI help.
pub const FAMILY_USAGES: &[(&str, &str)] = &[
    ("complete", "complete:N"),
    ("cycle", "cycle:N"),
    ("path", "path:N"),
    ("star", "star:N"),
    ("wheel", "wheel:N"),
    ("petersen", "petersen"),
    ("bipartite", "bipartite:AxB"),
    ("doublestar", "doublestar:AxB"),
    ("grid", "grid:AxB[x...]"),
    ("torus", "torus:AxB[x...]"),
    ("hypercube", "hypercube:D"),
    ("tree", "tree:K:N"),
    ("cyclepower", "cyclepower:N:K"),
    ("circulant", "circulant:N:O1+O2+..."),
    ("ringcliques", "ringcliques:K:C"),
    ("barbell", "barbell:C:P"),
    ("barbell", "barbell:N"),
    ("lollipop", "lollipop:C:P"),
    ("lollipop", "lollipop:N"),
    ("twoclique", "twoclique:C:P"),
    ("gnp", "gnp:N:P"),
    ("regular", "regular:N:R"),
    ("rreg", "rreg:N:D"),
    ("ba", "ba:N:M"),
    ("pa", "pa:N:M"),
    ("ws", "ws:N:K:BETA"),
    ("file", "file:<path>[?component=giant]"),
];

/// The families with an implicit O(1)-memory backend (see
/// [`crate::topology`]): the two whose CSR limits the size that runs.
/// `backend=auto` picks implicit for exactly these; `backend=implicit`
/// rejections quote them.
pub const IMPLICIT_FAMILIES: &[&str] = &["complete", "hypercube"];

fn family_list() -> String {
    let mut names: Vec<&str> = FAMILY_USAGES.iter().map(|(f, _)| *f).collect();
    // Families with several accepted arities appear once per usage form.
    names.dedup();
    names.join(", ")
}

fn parse_num<T: FromStr>(token: &str, what: &str) -> Result<T, GraphSpecError> {
    token
        .parse()
        .map_err(|_| GraphSpecError::new(format!("cannot parse {what} from {token:?}")))
}

fn parse_dims(token: &str, what: &str) -> Result<Vec<usize>, GraphSpecError> {
    let dims: Vec<usize> = token
        .split('x')
        .map(|t| parse_num(t, "a dimension"))
        .collect::<Result<_, _>>()?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(GraphSpecError::new(format!(
            "{what} needs positive dimensions, got {token:?}"
        )));
    }
    Ok(dims)
}

fn expect_arity(parts: &[&str], arity: usize, usage: &str) -> Result<(), GraphSpecError> {
    if parts.len() != arity + 1 {
        return Err(GraphSpecError::new(format!(
            "{:?} takes {} parameter(s): usage {usage}",
            parts[0], arity
        )));
    }
    Ok(())
}

impl FromStr for GraphSpec {
    type Err = GraphSpecError;

    fn from_str(s: &str) -> Result<GraphSpec, GraphSpecError> {
        parse_graph_spec(s).map_err(|e| e.in_spec(s.trim()))
    }
}

/// Parses the remainder of a `file:` spec: a filesystem path (which may
/// itself contain `:`), optionally followed by `?component=giant`. The
/// content digest is computed here, so an unreadable file fails at parse
/// time with a named error rather than deep inside a sweep.
fn parse_file_spec(rest: &str) -> Result<GraphSpec, GraphSpecError> {
    let (path, modifier) = match rest.split_once('?') {
        Some((p, m)) => (p, Some(m)),
        None => (rest, None),
    };
    let giant = match modifier {
        None => false,
        Some("component=giant") => true,
        Some(other) => {
            return Err(GraphSpecError::new(format!(
                "unknown file: modifier {other:?} (supported: component=giant)"
            )))
        }
    };
    if path.is_empty() {
        return Err(GraphSpecError::new(
            "file: needs a path: usage file:<path>[?component=giant]",
        ));
    }
    let digest = crate::ingest::digest_file(Path::new(path))
        .map_err(|e| GraphSpecError::new(format!("cannot read graph file {path:?}: {e}")))?;
    Ok(GraphSpec::File {
        path: path.to_string(),
        digest,
        giant,
    })
}

fn parse_graph_spec(s: &str) -> Result<GraphSpec, GraphSpecError> {
    {
        // `file:` paths may contain `:` of their own — route them before
        // the family split.
        let t = s.trim();
        if t.len() >= 5 && t[..5].eq_ignore_ascii_case("file:") {
            return parse_file_spec(&t[5..]);
        }
        let parts: Vec<&str> = s.trim().split(':').collect();
        if parts.is_empty() || parts[0].is_empty() {
            return Err(GraphSpecError::new(format!(
                "empty graph spec (valid families: {})",
                family_list()
            )));
        }
        let family = parts[0].to_ascii_lowercase();
        let spec = match family.as_str() {
            "complete" | "k" => {
                expect_arity(&parts, 1, "complete:N")?;
                GraphSpec::Complete {
                    n: parse_num(parts[1], "vertex count")?,
                }
            }
            "cycle" => {
                expect_arity(&parts, 1, "cycle:N")?;
                GraphSpec::Cycle {
                    n: parse_num(parts[1], "vertex count")?,
                }
            }
            "path" => {
                expect_arity(&parts, 1, "path:N")?;
                GraphSpec::Path {
                    n: parse_num(parts[1], "vertex count")?,
                }
            }
            "star" => {
                expect_arity(&parts, 1, "star:N")?;
                GraphSpec::Star {
                    n: parse_num(parts[1], "vertex count")?,
                }
            }
            "wheel" => {
                expect_arity(&parts, 1, "wheel:N")?;
                GraphSpec::Wheel {
                    n: parse_num(parts[1], "vertex count")?,
                }
            }
            "petersen" => {
                expect_arity(&parts, 0, "petersen")?;
                GraphSpec::Petersen
            }
            "bipartite" => {
                expect_arity(&parts, 1, "bipartite:AxB")?;
                let dims = parse_dims(parts[1], "bipartite")?;
                if dims.len() != 2 {
                    return Err(GraphSpecError::new(
                        "bipartite takes exactly two sides: AxB",
                    ));
                }
                GraphSpec::CompleteBipartite {
                    a: dims[0],
                    b: dims[1],
                }
            }
            "doublestar" => {
                expect_arity(&parts, 1, "doublestar:AxB")?;
                let dims = parse_dims(parts[1], "doublestar")?;
                if dims.len() != 2 {
                    return Err(GraphSpecError::new(
                        "doublestar takes exactly two sides: AxB",
                    ));
                }
                GraphSpec::DoubleStar {
                    a: dims[0],
                    b: dims[1],
                }
            }
            "grid" => {
                expect_arity(&parts, 1, "grid:AxB[x...]")?;
                GraphSpec::Grid {
                    dims: parse_dims(parts[1], "grid")?,
                }
            }
            "torus" => {
                expect_arity(&parts, 1, "torus:AxB[x...]")?;
                GraphSpec::Torus {
                    dims: parse_dims(parts[1], "torus")?,
                }
            }
            "hypercube" => {
                expect_arity(&parts, 1, "hypercube:D")?;
                GraphSpec::Hypercube {
                    d: parse_num(parts[1], "dimension")?,
                }
            }
            "tree" => {
                expect_arity(&parts, 2, "tree:K:N")?;
                GraphSpec::KaryTree {
                    k: parse_num(parts[1], "arity")?,
                    n: parse_num(parts[2], "vertex count")?,
                }
            }
            "cyclepower" => {
                expect_arity(&parts, 2, "cyclepower:N:K")?;
                GraphSpec::CyclePower {
                    n: parse_num(parts[1], "vertex count")?,
                    k: parse_num(parts[2], "power")?,
                }
            }
            "circulant" => {
                expect_arity(&parts, 2, "circulant:N:O1+O2+...")?;
                let n = parse_num(parts[1], "vertex count")?;
                let offsets: Vec<usize> = parts[2]
                    .split('+')
                    .map(|t| parse_num(t, "an offset"))
                    .collect::<Result<_, _>>()?;
                GraphSpec::Circulant { n, offsets }
            }
            "ringcliques" => {
                expect_arity(&parts, 2, "ringcliques:K:C")?;
                GraphSpec::RingOfCliques {
                    k: parse_num(parts[1], "clique count")?,
                    c: parse_num(parts[2], "clique size")?,
                }
            }
            "barbell" => {
                if parts.len() == 2 {
                    GraphSpec::BarbellN {
                        n: parse_num(parts[1], "vertex count")?,
                    }
                } else {
                    expect_arity(&parts, 2, "barbell:C:P (or barbell:N)")?;
                    GraphSpec::Barbell {
                        c: parse_num(parts[1], "clique size")?,
                        p: parse_num(parts[2], "path length")?,
                    }
                }
            }
            "lollipop" => {
                if parts.len() == 2 {
                    GraphSpec::LollipopN {
                        n: parse_num(parts[1], "vertex count")?,
                    }
                } else {
                    expect_arity(&parts, 2, "lollipop:C:P (or lollipop:N)")?;
                    GraphSpec::Lollipop {
                        c: parse_num(parts[1], "clique size")?,
                        p: parse_num(parts[2], "path length")?,
                    }
                }
            }
            "twoclique" => {
                expect_arity(&parts, 2, "twoclique:C:P")?;
                GraphSpec::TwoClique {
                    c: parse_num(parts[1], "clique size")?,
                    p: parse_num(parts[2], "path length")?,
                }
            }
            "gnp" => {
                expect_arity(&parts, 2, "gnp:N:P")?;
                let n = parse_num(parts[1], "vertex count")?;
                let p: f64 = parse_num(parts[2], "edge probability")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(GraphSpecError::new(format!(
                        "gnp probability {p} outside [0, 1]"
                    )));
                }
                GraphSpec::Gnp { n, p }
            }
            "regular" => {
                expect_arity(&parts, 2, "regular:N:R")?;
                GraphSpec::RandomRegular {
                    n: parse_num(parts[1], "vertex count")?,
                    r: parse_num(parts[2], "degree")?,
                }
            }
            "rreg" => {
                expect_arity(&parts, 2, "rreg:N:D")?;
                GraphSpec::RReg {
                    n: parse_num(parts[1], "vertex count")?,
                    d: parse_num(parts[2], "degree")?,
                }
            }
            "ba" => {
                expect_arity(&parts, 2, "ba:N:M")?;
                GraphSpec::BarabasiAlbert {
                    n: parse_num(parts[1], "vertex count")?,
                    m: parse_num(parts[2], "edges per arrival")?,
                }
            }
            "pa" => {
                expect_arity(&parts, 2, "pa:N:M")?;
                GraphSpec::PrefAttach {
                    n: parse_num(parts[1], "vertex count")?,
                    m: parse_num(parts[2], "edges per arrival")?,
                }
            }
            "ws" => {
                expect_arity(&parts, 3, "ws:N:K:BETA")?;
                let n = parse_num(parts[1], "vertex count")?;
                let k = parse_num(parts[2], "ring degree")?;
                let beta: f64 = parse_num(parts[3], "rewiring probability")?;
                if !(0.0..=1.0).contains(&beta) {
                    return Err(GraphSpecError::new(format!(
                        "ws beta {beta} outside [0, 1]"
                    )));
                }
                GraphSpec::WattsStrogatz { n, k, beta }
            }
            other => {
                return Err(GraphSpecError::new(format!(
                    "unknown graph family {other:?} (valid families: {}; backend=auto \
                     computes {} implicitly and builds CSR for the rest)",
                    family_list(),
                    IMPLICIT_FAMILIES.join(" and "),
                )));
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSpec::Complete { n } => write!(f, "complete:{n}"),
            GraphSpec::Cycle { n } => write!(f, "cycle:{n}"),
            GraphSpec::Path { n } => write!(f, "path:{n}"),
            GraphSpec::Star { n } => write!(f, "star:{n}"),
            GraphSpec::Wheel { n } => write!(f, "wheel:{n}"),
            GraphSpec::Petersen => write!(f, "petersen"),
            GraphSpec::CompleteBipartite { a, b } => write!(f, "bipartite:{a}x{b}"),
            GraphSpec::DoubleStar { a, b } => write!(f, "doublestar:{a}x{b}"),
            GraphSpec::Grid { dims } => write!(f, "grid:{}", join(dims, "x")),
            GraphSpec::Torus { dims } => write!(f, "torus:{}", join(dims, "x")),
            GraphSpec::Hypercube { d } => write!(f, "hypercube:{d}"),
            GraphSpec::KaryTree { k, n } => write!(f, "tree:{k}:{n}"),
            GraphSpec::CyclePower { n, k } => write!(f, "cyclepower:{n}:{k}"),
            GraphSpec::Circulant { n, offsets } => {
                write!(f, "circulant:{n}:{}", join(offsets, "+"))
            }
            GraphSpec::RingOfCliques { k, c } => write!(f, "ringcliques:{k}:{c}"),
            GraphSpec::Barbell { c, p } => write!(f, "barbell:{c}:{p}"),
            GraphSpec::Lollipop { c, p } => write!(f, "lollipop:{c}:{p}"),
            GraphSpec::LollipopN { n } => write!(f, "lollipop:{n}"),
            GraphSpec::BarbellN { n } => write!(f, "barbell:{n}"),
            GraphSpec::TwoClique { c, p } => write!(f, "twoclique:{c}:{p}"),
            GraphSpec::Gnp { n, p } => write!(f, "gnp:{n}:{p}"),
            GraphSpec::RandomRegular { n, r } => write!(f, "regular:{n}:{r}"),
            GraphSpec::RReg { n, d } => write!(f, "rreg:{n}:{d}"),
            GraphSpec::BarabasiAlbert { n, m } => write!(f, "ba:{n}:{m}"),
            GraphSpec::PrefAttach { n, m } => write!(f, "pa:{n}:{m}"),
            GraphSpec::WattsStrogatz { n, k, beta } => write!(f, "ws:{n}:{k}:{beta}"),
            GraphSpec::File { path, giant, .. } => {
                write!(f, "file:{path}")?;
                if *giant {
                    write!(f, "?component=giant")?;
                }
                Ok(())
            }
        }
    }
}

fn join(xs: &[usize], sep: &str) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

impl GraphSpec {
    /// Checks parameter sanity shared by parsing and programmatic
    /// construction. Every value accepted here builds: the bounds are
    /// the generators' own preconditions, so a spec that parses can
    /// never panic in [`GraphSpec::build`] or [`GraphSpec::build_topology`].
    /// Vertex ids are `u32`, so no family may exceed `u32::MAX` vertices.
    pub fn validate(&self) -> Result<(), GraphSpecError> {
        let at_least = |v: usize, min: usize, what: &str| {
            if v < min {
                Err(GraphSpecError::new(format!(
                    "{what} must be at least {min}, got {v}"
                )))
            } else {
                Ok(())
            }
        };
        match self {
            GraphSpec::Complete { n } | GraphSpec::Path { n } | GraphSpec::Gnp { n, .. } => {
                at_least(*n, 1, "vertex count")
            }
            GraphSpec::Cycle { n } => at_least(*n, 3, "cycle vertex count"),
            GraphSpec::Star { n } => at_least(*n, 2, "star vertex count"),
            GraphSpec::Wheel { n } => at_least(*n, 4, "wheel vertex count"),
            GraphSpec::Petersen => Ok(()),
            GraphSpec::Hypercube { d } => {
                if !(1..=30).contains(d) {
                    return Err(GraphSpecError::new(format!(
                        "hypercube dimension must be in 1..=30, got {d}"
                    )));
                }
                Ok(())
            }
            GraphSpec::CompleteBipartite { a, b } | GraphSpec::DoubleStar { a, b } => {
                at_least(*a, 1, "side size")?;
                at_least(*b, 1, "side size")
            }
            GraphSpec::Grid { dims } | GraphSpec::Torus { dims } => {
                if dims.is_empty() {
                    return Err(GraphSpecError::new("need at least one dimension"));
                }
                dims.iter().try_for_each(|&d| at_least(d, 1, "dimension"))
            }
            GraphSpec::KaryTree { k, n } => {
                at_least(*k, 1, "arity")?;
                at_least(*n, 1, "vertex count")
            }
            GraphSpec::CyclePower { n, k } => {
                at_least(*k, 1, "power")?;
                let min = k.saturating_mul(2).saturating_add(1);
                at_least(*n, min, "cycle power vertex count (n > 2k)")
            }
            GraphSpec::Circulant { n, offsets } => {
                at_least(*n, 3, "circulant vertex count")?;
                if offsets.is_empty() || offsets.iter().any(|&o| o == 0 || o > n / 2) {
                    return Err(GraphSpecError::new(format!(
                        "circulant offsets must lie in 1..={}, got {}",
                        n / 2,
                        join(offsets, "+")
                    )));
                }
                Ok(())
            }
            GraphSpec::RingOfCliques { k, c } => {
                at_least(*k, 3, "clique count")?;
                at_least(*c, 3, "clique size")
            }
            GraphSpec::Barbell { c, p }
            | GraphSpec::Lollipop { c, p }
            | GraphSpec::TwoClique { c, p } => {
                at_least(*c, 2, "clique size")?;
                at_least(*p, 1, "path length")
            }
            GraphSpec::LollipopN { n } => {
                if *n < 3 {
                    return Err(GraphSpecError::new(
                        "lollipop:N needs n >= 3 (a clique and a pendant path)",
                    ));
                }
                Ok(())
            }
            GraphSpec::BarbellN { n } => {
                if *n < 6 {
                    return Err(GraphSpecError::new(
                        "barbell:N needs n >= 6 (two cliques and a path)",
                    ));
                }
                Ok(())
            }
            GraphSpec::RandomRegular { n, r } | GraphSpec::RReg { n, d: r } => {
                if *n == 0 || *r >= *n || n.checked_mul(*r).is_none_or(|nr| nr % 2 != 0) {
                    return Err(GraphSpecError::new(format!(
                        "no simple {r}-regular graph on {n} vertices"
                    )));
                }
                Ok(())
            }
            GraphSpec::BarabasiAlbert { n, m } | GraphSpec::PrefAttach { n, m } => {
                at_least(*m, 1, "edges per arrival")?;
                if *n <= *m {
                    return Err(GraphSpecError::new(format!(
                        "preferential attachment needs n > m (got n={n}, m={m})"
                    )));
                }
                Ok(())
            }
            GraphSpec::WattsStrogatz { n, k, beta } => {
                at_least(*k, 1, "ring degree")?;
                let min = k.saturating_mul(2).saturating_add(2);
                at_least(*n, min, "ws vertex count (n > 2k + 1)")?;
                if !(0.0..=1.0).contains(beta) {
                    return Err(GraphSpecError::new(format!(
                        "ws beta {beta} outside [0, 1]"
                    )));
                }
                Ok(())
            }
            GraphSpec::File { .. } => Ok(()),
        }?;
        if self.vertex_count().is_none_or(|n| n > u32::MAX as usize) {
            return Err(GraphSpecError::new(format!(
                "{:?} has more than 2^32 - 1 vertices (vertex ids are u32)",
                self.to_string()
            )));
        }
        Ok(())
    }

    /// The number of vertices the spec builds, or `None` when it
    /// overflows `usize`. `file:` specs count 0 here: ingestion bounds
    /// their ids.
    fn vertex_count(&self) -> Option<usize> {
        Some(match self {
            GraphSpec::Complete { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Path { n }
            | GraphSpec::Star { n }
            | GraphSpec::Wheel { n }
            | GraphSpec::KaryTree { n, .. }
            | GraphSpec::CyclePower { n, .. }
            | GraphSpec::Circulant { n, .. }
            | GraphSpec::LollipopN { n }
            | GraphSpec::BarbellN { n }
            | GraphSpec::Gnp { n, .. }
            | GraphSpec::RandomRegular { n, .. }
            | GraphSpec::RReg { n, .. }
            | GraphSpec::BarabasiAlbert { n, .. }
            | GraphSpec::PrefAttach { n, .. }
            | GraphSpec::WattsStrogatz { n, .. } => *n,
            GraphSpec::Petersen => 10,
            GraphSpec::CompleteBipartite { a, b } => a.checked_add(*b)?,
            GraphSpec::DoubleStar { a, b } => a.checked_add(*b)?.checked_add(2)?,
            GraphSpec::Grid { dims } | GraphSpec::Torus { dims } => {
                dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?
            }
            GraphSpec::Hypercube { d } => 1usize.checked_shl(*d)?,
            GraphSpec::RingOfCliques { k, c } => k.checked_mul(*c)?,
            GraphSpec::Barbell { c, p } | GraphSpec::TwoClique { c, p } => {
                c.checked_mul(2)?.checked_add(*p)?
            }
            GraphSpec::Lollipop { c, p } => c.checked_add(*p)?,
            GraphSpec::File { .. } => 0,
        })
    }

    /// Adjacency entries (twice the edge count) of the CSR graph a
    /// family builds, known from its parameters alone — also for the
    /// random families whose size the parameters fix (`regular`/`rreg`,
    /// `ba`/`pa`, `ws`). `None` for `gnp`, whose edge count is random,
    /// and for `file:`, unknown until parsed. Exact, and free of overflow
    /// for every spec [`GraphSpec::validate`] accepts.
    fn adjacency_entries(&self) -> Option<u128> {
        let n = self.vertex_count()? as u128;
        let clique = |c: usize| c as u128 * (c as u128 - 1);
        let barbell = |c: usize, p: usize| 2 * clique(c) + 2 * (p as u128 + 1);
        let lollipop = |c: usize, p: usize| clique(c) + 2 * p as u128;
        let lattice = |dims: &[usize], periodic: bool| {
            let along = |side: u128| match (periodic, side) {
                (true, 3..) => side,
                (true, _) => side / 2,
                (false, _) => side - 1,
            };
            dims.iter()
                .map(|&d| 2 * along(d as u128) * (n / d as u128))
                .sum()
        };
        Some(match self {
            GraphSpec::Complete { n } => clique(*n),
            GraphSpec::Cycle { .. } => 2 * n,
            GraphSpec::Path { .. } | GraphSpec::Star { .. } | GraphSpec::KaryTree { .. } => {
                2 * (n - 1)
            }
            GraphSpec::Wheel { .. } => 4 * (n - 1),
            GraphSpec::Petersen => 30,
            GraphSpec::CompleteBipartite { a, b } => 2 * *a as u128 * *b as u128,
            GraphSpec::DoubleStar { .. } => 2 * (n - 1),
            GraphSpec::Grid { dims } => lattice(dims, false),
            GraphSpec::Torus { dims } => lattice(dims, true),
            GraphSpec::Hypercube { d } => n * *d as u128,
            GraphSpec::CyclePower { k, .. } => 2 * *k as u128 * n,
            GraphSpec::Circulant { offsets, .. } => {
                let mut distinct = offsets.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let per_vertex = |o: usize| if 2 * o as u128 == n { 1 } else { 2 };
                distinct.iter().map(|&o| per_vertex(o) * n).sum()
            }
            GraphSpec::RingOfCliques { k, c } => *k as u128 * clique(*c),
            GraphSpec::Barbell { c, p } | GraphSpec::TwoClique { c, p } => barbell(*c, *p),
            GraphSpec::Lollipop { c, p } => lollipop(*c, *p),
            GraphSpec::LollipopN { n } => {
                let (c, p) = Self::lollipop_shape(*n);
                lollipop(c, p)
            }
            GraphSpec::BarbellN { n } => {
                let (c, p) = Self::barbell_shape(*n);
                barbell(c, p)
            }
            GraphSpec::RandomRegular { r, .. } | GraphSpec::RReg { d: r, .. } => n * *r as u128,
            // An (m + 1)-clique seed, then m edges per arriving vertex.
            GraphSpec::BarabasiAlbert { m, .. } | GraphSpec::PrefAttach { m, .. } => {
                clique(m + 1) + 2 * (n - (*m as u128 + 1)) * *m as u128
            }
            // The k-ring; rewiring swaps one edge for another.
            GraphSpec::WattsStrogatz { k, .. } => 2 * n * *k as u128,
            GraphSpec::Gnp { .. } | GraphSpec::File { .. } => return None,
        })
    }

    /// The adjacency entries [`GraphSpec::build`] checks against the CSR
    /// limit of 2^32 − 1: [`GraphSpec::adjacency_entries`] where the
    /// parameters fix them, and for `gnp` the *expected* count `p·n(n−1)`,
    /// rounded up (exact at `p ∈ {0, 1}`). A `gnp` sample can land on
    /// either side of its expectation, so for `gnp` this bounds the
    /// expected size, not the built one.
    fn checked_entries(&self) -> Option<u128> {
        match self {
            GraphSpec::Gnp { n, p } => {
                let pairs = *n as u128 * (*n as u128).saturating_sub(1);
                Some((pairs as f64 * p).ceil() as u128)
            }
            _ => self.adjacency_entries(),
        }
    }

    /// The bytes [`GraphSpec::build`] reserves before it builds: the CSR
    /// arrays (4 per adjacency entry, 8 per offset), plus the edge list
    /// (8 per edge) for every family but `complete` and `hypercube`,
    /// whose rows are copied from their implicit topologies. Counted on
    /// [`GraphSpec::checked_entries`], so `None` for `file:`.
    fn build_bytes(&self) -> Option<u128> {
        let entries = self.checked_entries()?;
        let offsets = 8 * (self.vertex_count()? as u128 + 1);
        let edge_list = if self.has_implicit() { 0 } else { 4 * entries };
        Some(4 * entries + offsets + edge_list)
    }

    /// Asks the allocator once for `bytes` and gives them straight back:
    /// a build it would refuse fails here with one line instead of
    /// aborting the process partway through.
    fn reserve_build(&self, bytes: u128) -> Result<(), GraphSpecError> {
        let granted = usize::try_from(bytes)
            .is_ok_and(|bytes| Vec::<u8>::new().try_reserve_exact(bytes).is_ok());
        if granted {
            Ok(())
        } else {
            Err(GraphSpecError::new(format!(
                "{:?} needs {bytes} bytes to build as CSR, more than the allocator grants",
                self.to_string()
            )))
        }
    }

    /// True for families whose [`GraphSpec::build`] consumes the seed.
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            GraphSpec::Gnp { .. }
                | GraphSpec::RandomRegular { .. }
                | GraphSpec::RReg { .. }
                | GraphSpec::BarabasiAlbert { .. }
                | GraphSpec::PrefAttach { .. }
                | GraphSpec::WattsStrogatz { .. }
        )
    }

    /// Canonical proportions of the single-parameter lollipop:
    /// `(clique size, path length)` for `lollipop:n`.
    fn lollipop_shape(n: usize) -> (usize, usize) {
        let p = n / 3;
        (n - p, p)
    }

    /// Canonical proportions of the single-parameter barbell:
    /// `(clique size, path length)` for `barbell:n`.
    fn barbell_shape(n: usize) -> (usize, usize) {
        let c = n / 3;
        (c, n - 2 * c)
    }

    /// Materialises the graph. Deterministic families ignore `seed`;
    /// random families derive all their randomness from it, so equal
    /// `(spec, seed)` pairs build equal graphs.
    pub fn build(&self, seed: u64) -> Result<Graph, GraphSpecError> {
        self.validate()?;
        // Checked before the generator allocates: its edge list alone
        // would exhaust memory long before the CSR exists.
        if let Some(entries) = self.checked_entries().filter(|&a| a > u32::MAX as u128) {
            return Err(GraphSpecError::new(format!(
                "{:?} needs {entries} adjacency entries, more than 2^32 - 1 (too large to \
                 build as CSR)",
                self.to_string()
            )));
        }
        if let Some(bytes) = self.build_bytes() {
            self.reserve_build(bytes)?;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = match self {
            GraphSpec::Complete { n } => generators::complete(*n),
            GraphSpec::Cycle { n } => generators::cycle(*n),
            GraphSpec::Path { n } => generators::path(*n),
            GraphSpec::Star { n } => generators::star(*n),
            GraphSpec::Wheel { n } => generators::wheel(*n),
            GraphSpec::Petersen => generators::petersen(),
            GraphSpec::CompleteBipartite { a, b } => generators::complete_bipartite(*a, *b),
            GraphSpec::DoubleStar { a, b } => generators::double_star(*a, *b),
            GraphSpec::Grid { dims } => generators::grid(dims),
            GraphSpec::Torus { dims } => generators::torus(dims),
            GraphSpec::Hypercube { d } => generators::hypercube(*d),
            GraphSpec::KaryTree { k, n } => generators::k_ary_tree(*n, *k),
            GraphSpec::CyclePower { n, k } => generators::cycle_power(*n, *k),
            GraphSpec::Circulant { n, offsets } => generators::circulant(*n, offsets),
            GraphSpec::RingOfCliques { k, c } => generators::ring_of_cliques(*k, *c),
            GraphSpec::Barbell { c, p } => generators::barbell(*c, *p),
            GraphSpec::Lollipop { c, p } => generators::lollipop(*c, *p),
            GraphSpec::LollipopN { n } => {
                let (c, p) = Self::lollipop_shape(*n);
                generators::lollipop(c, p)
            }
            GraphSpec::BarbellN { n } => {
                let (c, p) = Self::barbell_shape(*n);
                generators::barbell(c, p)
            }
            GraphSpec::TwoClique { c, p } => generators::barbell(*c, *p),
            GraphSpec::Gnp { n, p } => generators::gnp(*n, *p, &mut rng),
            GraphSpec::RandomRegular { n, r } => generators::random_regular(*n, *r, true, &mut rng)
                .map_err(|e| GraphSpecError::new(format!("regular:{n}:{r}: {e:?}")))?,
            GraphSpec::RReg { n, d } => generators::random_regular(*n, *d, true, &mut rng)
                .map_err(|e| GraphSpecError::new(format!("rreg:{n}:{d}: {e:?}")))?,
            GraphSpec::BarabasiAlbert { n, m } | GraphSpec::PrefAttach { n, m } => {
                generators::barabasi_albert(*n, *m, &mut rng)
            }
            GraphSpec::WattsStrogatz { n, k, beta } => {
                generators::watts_strogatz(*n, *k, *beta, &mut rng)
            }
            // A warm binary cache loads bit-identically to a fresh text
            // parse; a missing, stale or corrupt one is re-parsed (and
            // rewritten for next time).
            GraphSpec::File {
                path,
                digest,
                giant,
            } => {
                let path = Path::new(path);
                match crate::ingest::try_open_cached(path, *digest, *giant) {
                    Some(g) => g,
                    None => {
                        crate::ingest::load_and_cache(path, *digest, *giant)
                            .map_err(|e| GraphSpecError::new(e.to_string()))?
                            .0
                    }
                }
            }
        };
        Ok(g)
    }

    /// The identity string campaign keys and caches should use. For
    /// every generated family this is the canonical `Display` form;
    /// for `file:` specs the path is replaced by the content digest, so
    /// the same bytes at two paths (or the same path on two machines)
    /// share one identity, and editing the file changes it.
    pub fn key_string(&self) -> String {
        match self {
            GraphSpec::File { digest, giant, .. } => {
                let suffix = if *giant { "?component=giant" } else { "" };
                format!("file:@{digest:016x}{suffix}")
            }
            _ => self.to_string(),
        }
    }

    /// A stable 64-bit digest of the spec (FNV-1a over
    /// [`GraphSpec::key_string`]). Stable across runs and platforms —
    /// the campaign layer derives graph-build seeds from it
    /// (`cobra_campaign::runner::graph_build_seed`), so changing the
    /// key format re-seeds every random family's build.
    pub fn digest(&self) -> u64 {
        fnv1a_str(&self.key_string())
    }

    /// True when this spec has an implicit O(1)-memory backend (see
    /// [`crate::topology`]): `complete` and `hypercube`, the
    /// [`IMPLICIT_FAMILIES`].
    pub fn has_implicit(&self) -> bool {
        matches!(
            self,
            GraphSpec::Complete { .. } | GraphSpec::Hypercube { .. }
        )
    }

    /// The implicit backend for this spec, when one exists. Parameter
    /// contracts mirror the CSR generators exactly (same asserts), so
    /// the two backends accept the same spec set.
    fn build_implicit(&self) -> Option<BuiltTopology<'static>> {
        match self {
            GraphSpec::Complete { n } => Some(BuiltTopology::Complete(CompleteTopo::new(*n))),
            GraphSpec::Hypercube { d } => Some(BuiltTopology::Hypercube(HypercubeTopo::new(*d))),
            _ => None,
        }
    }

    /// Materialises the graph behind the chosen [`Backend`]:
    ///
    /// * [`Backend::Auto`] — implicit for `complete` and `hypercube`
    ///   (zero edge storage), CSR for every other family;
    /// * [`Backend::Csr`] — always the materialized adjacency;
    /// * [`Backend::Implicit`] — required implicit; families without
    ///   one are rejected with an error naming the supported set.
    ///
    /// Both backends of one spec denote the *same* graph — sorted
    /// neighbour enumeration and RNG sampling agree bit for bit — so
    /// the backend is an execution detail, never part of a result's
    /// identity. Deterministic families ignore `seed` exactly as
    /// [`GraphSpec::build`] does.
    pub fn build_topology(
        &self,
        seed: u64,
        backend: Backend,
    ) -> Result<BuiltTopology<'static>, GraphSpecError> {
        self.validate()?;
        match backend {
            Backend::Csr => Ok(BuiltTopology::Csr(Arc::new(self.build(seed)?))),
            Backend::Auto => match self.build_implicit() {
                Some(t) => Ok(t),
                None => Ok(BuiltTopology::Csr(Arc::new(self.build(seed)?))),
            },
            Backend::Implicit => self.build_implicit().ok_or_else(|| {
                GraphSpecError::new(format!(
                    "{self} has no implicit backend (implicit families: {}); use \
                     backend=csr or backend=auto",
                    IMPLICIT_FAMILIES.join(", ")
                ))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> GraphSpec {
        let spec: GraphSpec = s.parse().expect(s);
        assert_eq!(spec.to_string(), s, "display not canonical for {s}");
        let again: GraphSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec, "parse∘display not identity for {s}");
        spec
    }

    #[test]
    fn canonical_specs_round_trip() {
        for s in [
            "complete:64",
            "cycle:32",
            "path:64",
            "star:17",
            "wheel:12",
            "petersen",
            "bipartite:8x8",
            "doublestar:5x7",
            "grid:32x32",
            "grid:4x5x6",
            "torus:8x8",
            "hypercube:10",
            "tree:2:63",
            "cyclepower:64:3",
            "circulant:24:1+2+5",
            "ringcliques:10:5",
            "barbell:8:8",
            "barbell:64",
            "lollipop:8:8",
            "lollipop:64",
            "twoclique:8:4",
            "gnp:2000:0.01",
            "regular:100:3",
            "rreg:64:8",
            "ba:500:3",
            "pa:500:3",
            "ws:500:4:0.1",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in [
            "",
            "nope:12",
            "complete",
            "complete:zero",
            "complete:0",
            "complete:12:13",
            "grid:",
            "grid:3x0",
            "grid:3xx4",
            "hypercube:99",
            "bipartite:3",
            "bipartite:3x4x5",
            "tree:0:7",
            "gnp:100:1.5",
            "gnp:100:-0.1",
            "regular:5:5",
            "regular:5:3",
            "circulant:8:0",
            "ws:100:4:2.0",
            "petersen:10",
            // Near-misses of the adversarial/ingestion families.
            "lolipop:100",
            "lollipop:2",
            "barbell:5",
            "twoclique:8",
            "twoclique:1:4",
            "rreg:10:11",
            "rreg:5:3",
            "pa:3:5",
            "pa:5:0",
            "file:",
            "file:/definitely/not/a/real/path.snap",
            "file:?component=giant",
        ] {
            assert!(s.parse::<GraphSpec>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn every_family_rejects_below_its_generator_bounds_and_builds_at_them() {
        // (smallest rejected, smallest accepted) for each family and each
        // bounded parameter. The rejected value is a one-line parse error,
        // never a generator panic; the accepted one builds on every
        // backend it has.
        let file = file_fixture("bounds", "0 1\n");
        let file_ok = format!("file:{}", file.display());
        let cases = [
            ("complete:0", "complete:1"),
            ("cycle:2", "cycle:3"),
            ("path:0", "path:1"),
            ("star:1", "star:2"),
            ("wheel:3", "wheel:4"),
            ("petersen:1", "petersen"),
            ("bipartite:0x1", "bipartite:1x1"),
            ("doublestar:0x1", "doublestar:1x1"),
            ("grid:0", "grid:1"),
            ("torus:0", "torus:1"),
            ("hypercube:0", "hypercube:1"),
            ("tree:0:1", "tree:1:1"),
            ("tree:1:0", "tree:1:1"),
            ("cyclepower:2:1", "cyclepower:3:1"),
            ("cyclepower:3:0", "cyclepower:3:1"),
            ("circulant:2:1", "circulant:3:1"),
            ("circulant:4:3", "circulant:4:2"),
            ("ringcliques:2:3", "ringcliques:3:3"),
            ("ringcliques:3:2", "ringcliques:3:3"),
            ("barbell:1:1", "barbell:2:1"),
            ("barbell:2:0", "barbell:2:1"),
            ("barbell:5", "barbell:6"),
            ("lollipop:1:1", "lollipop:2:1"),
            ("lollipop:2:0", "lollipop:2:1"),
            ("lollipop:2", "lollipop:3"),
            ("twoclique:1:1", "twoclique:2:1"),
            ("gnp:0:0.5", "gnp:1:0.5"),
            ("regular:1:1", "regular:1:0"),
            ("rreg:1:1", "rreg:1:0"),
            ("ba:1:1", "ba:2:1"),
            ("pa:1:1", "pa:2:1"),
            ("ws:3:1:0.5", "ws:4:1:0.5"),
            ("ws:4:0:0.5", "ws:4:1:0.5"),
            ("file:", file_ok.as_str()),
        ];
        for (family, _) in FAMILY_USAGES {
            assert!(
                cases
                    .iter()
                    .any(|(bad, _)| bad.split(':').next() == Some(family)),
                "family {family} has no bounds case"
            );
        }
        for (bad, good) in cases {
            let e = bad.parse::<GraphSpec>().expect_err(bad).to_string();
            assert!(
                e.starts_with("graph spec error: ") && !e.contains('\n'),
                "{e:?}"
            );
            let spec: GraphSpec = good.parse().expect(good);
            spec.build(1).unwrap_or_else(|e| panic!("{good}: {e}"));
            spec.build_topology(1, Backend::Auto)
                .unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        // Upper bounds, and every spec that once panicked after parsing
        // or aborted on a failed allocation (vertex ids are u32).
        for bad in [
            "hypercube:31",
            "grid:65536x65536",
            "torus:4294967296x4294967296",
            "cyclepower:64:9223372036854775808",
            "ws:64:9223372036854775808:0.5",
            "cycle:1",
            "wheel:1",
            "circulant:1:1",
            "ringcliques:1:1",
            "ringcliques:2:1",
            "complete:5000000000",
            "cycle:5000000000",
            "path:5000000000",
            "star:5000000000",
            "gnp:4294967296:0.1",
            "tree:2:4294967296",
            "bipartite:4294967295x1",
            "doublestar:4294967294x1",
            "ringcliques:65536:65536",
            "barbell:2147483648:1",
            "rreg:18446744073709551615:18446744073709551613",
        ] {
            let e = bad.parse::<GraphSpec>().expect_err(bad).to_string();
            assert!(!e.contains('\n'), "{bad:?}: {e:?}");
        }
        for max in ["cycle:4294967295", "bipartite:4294967294x1"] {
            max.parse::<GraphSpec>().expect(max);
        }
    }

    #[test]
    fn near_miss_errors_are_descriptive() {
        // Misspelled family lists the real ones, including the new set.
        let e = "lolipop:100".parse::<GraphSpec>().unwrap_err().to_string();
        for family in ["lollipop", "twoclique", "rreg", "pa", "file"] {
            assert!(e.contains(family), "{family} not suggested in {e:?}");
        }
        // Missing path states the usage form.
        let e = "file:".parse::<GraphSpec>().unwrap_err().to_string();
        assert!(e.contains("file:<path>"), "{e:?}");
        // Odd-degree infeasibility is named, not a generator panic.
        let e = "rreg:10:11".parse::<GraphSpec>().unwrap_err().to_string();
        assert!(e.contains("no simple 11-regular graph"), "{e:?}");
        let e = "rreg:5:3".parse::<GraphSpec>().unwrap_err().to_string();
        assert!(e.contains("no simple 3-regular graph on 5"), "{e:?}");
    }

    #[test]
    fn errors_name_the_token_and_list_families() {
        // Unknown family: names the offender and lists every valid one.
        let e = "hyprcube:10".parse::<GraphSpec>().unwrap_err().to_string();
        assert!(e.contains("\"hyprcube\""), "missing offender in {e:?}");
        for (family, _) in FAMILY_USAGES {
            assert!(e.contains(family), "family {family} not listed in {e:?}");
        }
        // Bad parameter: names the unparseable token and the full spec.
        let e = "complete:zero"
            .parse::<GraphSpec>()
            .unwrap_err()
            .to_string();
        assert!(e.contains("\"zero\""), "missing token in {e:?}");
        assert!(e.contains("\"complete:zero\""), "missing spec in {e:?}");
        // Wrong arity: states the usage form.
        let e = "tree:7".parse::<GraphSpec>().unwrap_err().to_string();
        assert!(e.contains("tree:K:N"), "missing usage in {e:?}");
    }

    #[test]
    fn family_usage_listing_matches_the_parser() {
        // Every listed usage (with placeholders instantiated) parses,
        // and its family round-trips through the listing.
        for (family, usage) in FAMILY_USAGES {
            if *family == "file" {
                // The one usage whose placeholder is a real filesystem
                // path: instantiate it with a scratch fixture.
                let path = std::env::temp_dir()
                    .join(format!("cobra-spec-usage-{}.snap", std::process::id()));
                std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
                for example in [
                    format!("file:{}", path.display()),
                    format!("file:{}?component=giant", path.display()),
                ] {
                    let spec: GraphSpec = example
                        .parse()
                        .unwrap_or_else(|e| panic!("usage example {example:?}: {e}"));
                    assert!(spec.to_string().starts_with("file:"), "{spec}");
                }
                continue;
            }
            let example = usage
                .replace("AxB[x...]", "4x5")
                .replace("AxB", "4x5")
                .replace("O1+O2+...", "1+2")
                .replace(":N:P", ":64:0.1")
                .replace(":N:K:BETA", ":64:4:0.1")
                .replace(":N:R", ":64:3")
                .replace(":N:M", ":64:3")
                .replace(":N:K", ":64:2")
                .replace(":K:N", ":2:63")
                .replace(":K:C", ":4:5")
                .replace(":C:P", ":5:4")
                .replace(":N", ":64")
                .replace(":D", ":6");
            let spec: GraphSpec = example
                .parse()
                .unwrap_or_else(|e| panic!("usage example {example:?}: {e}"));
            assert!(
                spec.to_string().starts_with(family),
                "{family} usage {example:?} parsed to {spec}"
            );
        }
    }

    #[test]
    fn case_insensitive_family_parses_to_canonical() {
        let spec: GraphSpec = "Hypercube:5".parse().unwrap();
        assert_eq!(spec, GraphSpec::Hypercube { d: 5 });
        assert_eq!(spec.to_string(), "hypercube:5");
    }

    #[test]
    fn deterministic_families_build_ignoring_seed() {
        let spec: GraphSpec = "torus:5x5".parse().unwrap();
        assert!(!spec.is_random());
        let a = spec.build(1).unwrap();
        let b = spec.build(2).unwrap();
        assert_eq!(a.n(), 25);
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn random_families_are_seed_deterministic() {
        let spec: GraphSpec = "gnp:64:0.1".parse().unwrap();
        assert!(spec.is_random());
        let a = spec.build(7).unwrap();
        let b = spec.build(7).unwrap();
        assert_eq!(a.m(), b.m());
        let edges_a: Vec<_> = a.edges().collect();
        let edges_b: Vec<_> = b.edges().collect();
        assert_eq!(edges_a, edges_b);
        let other: Vec<_> = spec.build(8).unwrap().edges().collect();
        assert_ne!(edges_a, other, "different seeds, different graphs");
    }

    #[test]
    fn csr_topology_matches_direct_build() {
        let spec: GraphSpec = "gnp:64:0.1".parse().unwrap();
        let built = spec.build_topology(7, Backend::Csr).unwrap();
        let direct = spec.build(7).unwrap();
        let a: Vec<_> = built.as_csr().unwrap().edges().collect();
        let b: Vec<_> = direct.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn digest_is_stable_and_distinguishes_specs() {
        let a: GraphSpec = "hypercube:10".parse().unwrap();
        let b: GraphSpec = "hypercube:11".parse().unwrap();
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
        // Pinned value: changing the Display format (or the hash) is a
        // store-invalidating event and must be deliberate.
        assert_eq!(a.digest(), fnv1a_str("hypercube:10"));
    }

    #[test]
    fn regular_spec_builds_connected_regular_graph() {
        let spec: GraphSpec = "regular:60:3".parse().unwrap();
        let g = spec.build(3).unwrap();
        assert_eq!(g.regularity(), Some(3));
        assert!(crate::props::is_connected(&g));
    }

    #[test]
    fn adjacency_entries_are_exact_for_every_deterministic_family() {
        for text in [
            "complete:7",
            "cycle:9",
            "path:6",
            "star:5",
            "wheel:6",
            "petersen",
            "bipartite:3x4",
            "doublestar:2x3",
            "grid:3x4",
            "grid:1x5x2",
            "torus:3x4",
            "torus:2x5",
            "torus:1x2x3",
            "hypercube:4",
            "tree:3:13",
            "cyclepower:9:2",
            "circulant:10:5",
            "circulant:10:1+3+5",
            "circulant:9:2+2",
            "ringcliques:3:4",
            "barbell:4:2",
            "barbell:10",
            "lollipop:4:3",
            "lollipop:10",
            "twoclique:3:2",
        ] {
            let spec: GraphSpec = text.parse().expect(text);
            let g = spec.build(0).expect(text);
            assert_eq!(spec.adjacency_entries(), Some(2 * g.m() as u128), "{text}");
        }
        let random: GraphSpec = "gnp:20:0.5".parse().unwrap();
        assert_eq!(random.adjacency_entries(), None);
    }

    #[test]
    fn specs_too_large_for_csr_fail_before_allocating() {
        // 3.6e9 vertices fit u32 ids, but 1.44e10 adjacency entries do not.
        let torus: GraphSpec = "torus:60000x60000".parse().unwrap();
        let err = torus.build_topology(0, Backend::Auto).unwrap_err();
        assert!(
            err.to_string().contains("14400000000 adjacency entries"),
            "{err}"
        );
        // The implicit backends build no CSR, so they stay accepted.
        for text in ["complete:1000000000", "hypercube:30"] {
            let spec: GraphSpec = text.parse().unwrap();
            assert!(spec.build_topology(0, Backend::Auto).is_ok(), "{text}");
            assert!(spec.build_topology(0, Backend::Csr).is_err(), "{text}");
        }
    }

    #[test]
    fn build_reserves_the_csr_and_edge_list_bytes_first() {
        // Exact for these: the CSR arrays, plus the edge list on every
        // family but the two built from their implicit rows.
        for text in [
            "hypercube:6",
            "complete:9",
            "torus:4x5",
            "star:7",
            "pa:30:2",
        ] {
            let spec: GraphSpec = text.parse().unwrap();
            let g = spec.build(0).unwrap();
            let csr = crate::Topology::memory_bytes(&g) - std::mem::size_of::<Graph>();
            let edge_list = if spec.has_implicit() { 0 } else { 8 * g.m() };
            assert_eq!(
                spec.build_bytes(),
                Some((csr + edge_list) as u128),
                "{text}"
            );
        }
        let star: GraphSpec = "star:2000000000".parse().unwrap();
        assert_eq!(star.build_bytes(), Some(47_999_999_992));
        // A refused reservation is the spec's one-line error. A size past
        // `isize::MAX` is refused without calling the allocator.
        let err = star.reserve_build(u64::MAX.into()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "graph spec error: \"star:2000000000\" needs 18446744073709551615 bytes to build \
             as CSR, more than the allocator grants"
        );
        assert!(star.reserve_build(1 << 20).is_ok());
    }

    #[test]
    fn adjacency_entries_are_exact_for_the_sized_random_families() {
        for text in [
            "regular:20:3",
            "rreg:16:4",
            "ba:30:1",
            "ba:40:3",
            "pa:25:2",
            "ws:20:1:0.5",
            "ws:30:3:1",
            "ws:12:2:0",
        ] {
            let spec: GraphSpec = text.parse().expect(text);
            for seed in 0..4 {
                let g = spec.build(seed).expect(text);
                let want = Some(2 * g.m() as u128);
                assert_eq!(spec.adjacency_entries(), want, "{text} seed {seed}");
            }
        }
    }

    #[test]
    fn random_specs_too_large_for_csr_fail_before_allocating() {
        for (text, entries) in [
            ("rreg:3000000000:3", "9000000000"),
            ("regular:3000000000:3", "9000000000"),
            ("pa:3000000000:2", "11999999994"),
            ("ba:3000000000:2", "11999999994"),
            ("ws:3000000000:1:0.1", "6000000000"),
        ] {
            let spec: GraphSpec = text.parse().unwrap();
            let err = spec.build(0).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{entries} adjacency entries")),
                "{err}"
            );
        }
    }

    #[test]
    fn gnp_over_the_csr_limit_in_expectation_fails_before_allocating() {
        // The expected adjacency p·n(n−1) is checked, the same way as the
        // exact sizes of the other families.
        for (text, entries) in [
            ("gnp:200000:0.5", "19999900000"),
            ("gnp:65537:1", "4295032832"),
        ] {
            let spec: GraphSpec = text.parse().unwrap();
            let err = spec.build(0).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{entries} adjacency entries, more than 2^32 - 1")),
                "{err}"
            );
        }
        // Exact at p ∈ {0, 1}; K_65536 stays just under the limit.
        let entries = |text: &str| text.parse::<GraphSpec>().unwrap().checked_entries();
        assert_eq!(entries("gnp:65536:1"), Some(65536 * 65535));
        for text in ["gnp:12:1", "gnp:12:0", "gnp:200000:0"] {
            let g = text.parse::<GraphSpec>().unwrap().build(0).unwrap();
            assert_eq!(entries(text), Some(2 * g.m() as u128), "{text}");
        }
    }

    #[test]
    fn build_matches_direct_generator_for_hypercube() {
        let spec: GraphSpec = "hypercube:6".parse().unwrap();
        let g = spec.build(0).unwrap();
        let h = generators::hypercube(6);
        assert_eq!(g.n(), h.n());
        assert_eq!(g.m(), h.m());
    }

    #[test]
    fn single_arity_adversarial_shapes_are_canonical() {
        // lollipop:n = ⌈2n/3⌉-clique + ⌊n/3⌋-path, exactly n vertices.
        for n in [3usize, 7, 64, 100] {
            let g = format!("lollipop:{n}")
                .parse::<GraphSpec>()
                .unwrap()
                .build(0)
                .unwrap();
            assert_eq!(g.n(), n, "lollipop:{n}");
            let c = n - n / 3;
            assert_eq!(g.m(), c * (c - 1) / 2 + n / 3, "lollipop:{n}");
            assert!(crate::props::is_connected(&g));
        }
        // barbell:n = two ⌊n/3⌋-cliques + path, exactly n vertices.
        for n in [6usize, 9, 64, 100] {
            let g = format!("barbell:{n}")
                .parse::<GraphSpec>()
                .unwrap()
                .build(0)
                .unwrap();
            assert_eq!(g.n(), n, "barbell:{n}");
            let c = n / 3;
            assert_eq!(g.m(), c * (c - 1) + (n - 2 * c) + 1, "barbell:{n}");
            assert!(crate::props::is_connected(&g));
        }
        // twoclique:c:p is the explicit-proportion form of the same shape.
        let a = "twoclique:8:4"
            .parse::<GraphSpec>()
            .unwrap()
            .build(0)
            .unwrap();
        let b = GraphSpec::Barbell { c: 8, p: 4 }.build(0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rreg_and_pa_are_seed_deterministic_aliases() {
        let r = "rreg:64:8".parse::<GraphSpec>().unwrap();
        assert!(r.is_random());
        let a = r.build(9).unwrap();
        assert_eq!(a.regularity(), Some(8));
        assert!(crate::props::is_connected(&a));
        // Same generator stream as regular:N:R at equal seeds.
        let b = "regular:64:8"
            .parse::<GraphSpec>()
            .unwrap()
            .build(9)
            .unwrap();
        assert_eq!(a, b);

        let p = "pa:200:3".parse::<GraphSpec>().unwrap();
        assert!(p.is_random());
        let a = p.build(4).unwrap();
        let b = "ba:200:3".parse::<GraphSpec>().unwrap().build(4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.n(), 200);
    }

    fn file_fixture(tag: &str, contents: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cobra-spec-file-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn file_specs_round_trip_and_serve_both_backends() {
        let path = file_fixture("roundtrip", "0 1\n1 2\n2 0\n2 3\n");
        let s = format!("file:{}", path.display());
        let spec: GraphSpec = s.parse().unwrap();
        assert_eq!(spec.to_string(), s, "display round-trip");
        assert!(!spec.is_random());
        assert!(!spec.has_implicit());

        // Cold build parses the text (and writes the .csrbin cache).
        let cold = spec.build_topology(0, Backend::Auto).unwrap();
        assert_eq!(cold.backend_name(), "csr");
        assert_eq!(cold.n(), 4);
        // Warm build loads the binary cache into the same CSR graph.
        let warm = spec.build_topology(0, Backend::Auto).unwrap();
        assert_eq!(warm.backend_name(), "csr");
        assert_eq!(warm.as_csr(), cold.as_csr());
        assert_eq!(spec.build(0).unwrap(), *cold.as_csr().unwrap());
        // Forced CSR is the same graph.
        let forced = spec.build_topology(0, Backend::Csr).unwrap();
        assert_eq!(forced.as_csr(), cold.as_csr());
        // Implicit is refused by name.
        assert!(spec.build_topology(0, Backend::Implicit).is_err());
    }

    #[test]
    fn file_identity_follows_content_not_path() {
        let a = file_fixture("ident-a", "0 1\n1 2\n");
        let b = file_fixture("ident-b", "0 1\n1 2\n");
        let sa: GraphSpec = format!("file:{}", a.display()).parse().unwrap();
        let sb: GraphSpec = format!("file:{}", b.display()).parse().unwrap();
        // Different paths, same bytes: same key identity.
        assert_ne!(sa, sb, "paths differ");
        assert_eq!(sa.key_string(), sb.key_string());
        // Editing the file changes the identity.
        std::fs::write(&a, "0 1\n1 2\n2 3\n").unwrap();
        let sa2: GraphSpec = format!("file:{}", a.display()).parse().unwrap();
        assert_ne!(sa.key_string(), sa2.key_string());
        // Giant restriction is part of the identity.
        let sg: GraphSpec = format!("file:{}?component=giant", b.display())
            .parse()
            .unwrap();
        assert!(sg.key_string().ends_with("?component=giant"));
        assert_ne!(sg.key_string(), sb.key_string());
        // Generated families keep their Display identity.
        let h: GraphSpec = "hypercube:10".parse().unwrap();
        assert_eq!(h.key_string(), "hypercube:10");
    }

    use proptest::prelude::*;

    fn sorted_strict(g: &Graph) -> bool {
        (0..g.n() as u32).all(|v| g.neighbors(v).windows(2).all(|w| w[0] < w[1]))
    }

    proptest! {
        #[test]
        fn prop_lollipop_n_invariants(n in 3usize..160) {
            let g = GraphSpec::LollipopN { n }.build(0).unwrap();
            prop_assert_eq!(g.n(), n);
            prop_assert_eq!(g.degree_sum(), 2 * g.m());
            prop_assert!(crate::props::is_connected(&g));
            prop_assert!(sorted_strict(&g));
        }

        #[test]
        fn prop_barbell_n_invariants(n in 6usize..160) {
            let g = GraphSpec::BarbellN { n }.build(0).unwrap();
            prop_assert_eq!(g.n(), n);
            prop_assert_eq!(g.degree_sum(), 2 * g.m());
            prop_assert!(crate::props::is_connected(&g));
            prop_assert!(sorted_strict(&g));
        }

        #[test]
        fn prop_twoclique_invariants(c in 2usize..40, p in 1usize..40) {
            let g = GraphSpec::TwoClique { c, p }.build(0).unwrap();
            prop_assert_eq!(g.n(), 2 * c + p);
            prop_assert_eq!(g.m(), c * (c - 1) + p + 1);
            prop_assert_eq!(g.degree_sum(), 2 * g.m());
            prop_assert!(crate::props::is_connected(&g));
            prop_assert!(sorted_strict(&g));
        }

        #[test]
        fn prop_rreg_is_exactly_d_regular_and_connected(
            n in 8usize..48,
            d0 in 3usize..6,
            seed in 0u64..1000,
        ) {
            // d >= 3 so connected samples exist (d <= 2 is a matching or
            // a cycle union); round odd n·d up to the nearest feasible
            // degree.
            let d = if (n * d0) % 2 == 1 { d0 + 1 } else { d0 };
            let g = GraphSpec::RReg { n, d }.build(seed).unwrap();
            prop_assert_eq!(g.n(), n);
            prop_assert_eq!(g.regularity(), Some(d));
            prop_assert_eq!(g.degree_sum(), n * d);
            prop_assert!(crate::props::is_connected(&g));
            prop_assert!(sorted_strict(&g));
        }

        #[test]
        fn prop_pa_invariants(m in 1usize..5, extra in 1usize..80, seed in 0u64..1000) {
            let n = m + 1 + extra; // n > m0 = m + 1
            let g = GraphSpec::PrefAttach { n, m }.build(seed).unwrap();
            let m0 = m + 1;
            prop_assert_eq!(g.n(), n);
            prop_assert_eq!(g.m(), m0 * (m0 - 1) / 2 + (n - m0) * m);
            prop_assert_eq!(g.degree_sum(), 2 * g.m());
            prop_assert!(crate::props::is_connected(&g));
            prop_assert!(sorted_strict(&g));
        }
    }

    #[test]
    fn file_giant_modifier_restricts_to_largest_component() {
        let path = file_fixture("giant", "0 1\n1 2\n2 0\n8 9\n");
        let full: GraphSpec = format!("file:{}", path.display()).parse().unwrap();
        assert_eq!(full.build(0).unwrap().n(), 5);
        let giant: GraphSpec = format!("file:{}?component=giant", path.display())
            .parse()
            .unwrap();
        let g = giant.build(0).unwrap();
        assert_eq!(g.n(), 3);
        assert!(crate::props::is_connected(&g));
        // Warm reload of the giant variant agrees.
        let warm = giant.build_topology(0, Backend::Auto).unwrap();
        assert_eq!(warm.as_csr(), Some(&g));
    }
}
