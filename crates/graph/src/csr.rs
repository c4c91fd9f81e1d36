//! Compressed sparse row (CSR) representation of undirected simple graphs.
//!
//! Vertices are dense `u32` ids `0..n`. Each undirected edge `{u, v}` is
//! stored twice (once per endpoint); adjacency lists are sorted, which
//! gives `O(log d)` membership tests and deterministic iteration order.
//!
//! A graph is built on one of two paths, which produce the same arrays
//! for the same graph:
//!
//! * **From an edge list** ([`Graph::from_edges`], and inside the crate
//!   `Graph::from_edge_vec`, which takes the vector over): the pairs are
//!   canonicalised, sorted and de-duplicated in place, then scattered
//!   into the rows. The peak is the edge list (8 bytes per edge) plus
//!   the finished CSR; the public slice entry points add one copy of
//!   the list. Every generated family but two, `file:` ingestion and
//!   [`crate::props::largest_component`] build this way.
//! * **From an implicit topology** (`Graph::from_topology`): each
//!   vertex's sorted row is copied from
//!   [`Topology::for_each_neighbor`] into an exactly sized array, with no
//!   edge list and no sort. The peak is the finished CSR. The `complete`
//!   and `hypercube` generators, and so `--backend csr` on those two
//!   families, build this way.

use crate::topology::Topology;
use rand::{Rng, RngExt};
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Dense vertex identifier.
pub type VertexId = u32;

/// Errors raised when building a graph from an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    VertexOutOfRange {
        edge: (VertexId, VertexId),
        n: usize,
    },
    /// An edge `{u, u}`.
    SelfLoop { vertex: VertexId },
    /// The same undirected edge appeared twice (only in strict building).
    DuplicateEdge { edge: (VertexId, VertexId) },
    /// More vertices than `u32` can index.
    TooManyVertices { n: usize },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { edge, n } => {
                write!(
                    f,
                    "edge ({}, {}) has endpoint outside 0..{}",
                    edge.0, edge.1, n
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::DuplicateEdge { edge } => {
                write!(f, "duplicate edge ({}, {})", edge.0, edge.1)
            }
            GraphError::TooManyVertices { n } => write!(f, "{n} vertices exceed u32 indexing"),
        }
    }
}

impl std::error::Error for GraphError {}

/// What [`Graph::from_edge_vec`] does with an edge listed twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Duplicates {
    /// Fail with [`GraphError::DuplicateEdge`].
    Reject,
    /// Keep one copy.
    Merge,
}

/// An immutable undirected simple graph in CSR form.
///
/// Every constructor records the common degree `d` when all vertices
/// have the same degree `d > 0` (hypercube, torus, cycle, `rreg`,
/// petersen, complete). Vertex `v`'s adjacency list then starts at
/// `v·d`, so [`Graph::degree`], [`Graph::neighbors`] and
/// [`Graph::neighbor_range`] compute it without loading `offsets` — one
/// dependent cache miss fewer per sampled vertex on a large graph. On
/// every other graph they read `offsets`. Both paths return the same
/// values; the offsets array is kept either way (the `.csrbin` writer
/// stores it).
///
/// ```
/// use cobra_graph::Graph;
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// assert_eq!(g.neighbor_range(3), (6, 2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists (`2m` entries).
    neighbors: Vec<VertexId>,
    /// The common degree `d > 0` of a regular graph, derived from
    /// `offsets` by [`common_degree`]: then `offsets[v] == v·d`.
    regular: Option<NonZeroUsize>,
}

/// `Some(d)` when every vertex has degree `d > 0`; `None` for irregular,
/// edgeless and empty graphs. `offsets` must be monotone.
fn common_degree(offsets: &[usize]) -> Option<NonZeroUsize> {
    let d = NonZeroUsize::new(*offsets.get(1)?)?;
    offsets
        .windows(2)
        .all(|w| w[1] - w[0] == d.get())
        .then_some(d)
}

impl Graph {
    /// Builds a graph from an undirected edge list, rejecting self-loops
    /// and duplicate edges. Edges may be given in either orientation.
    /// Works on a copy of `edges`; the crate's own callers hand their
    /// vectors over through `Graph::from_edge_vec` instead.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Graph, GraphError> {
        Self::from_edge_vec(n, edges.to_vec(), Duplicates::Reject)
    }

    /// Builds a graph from an undirected edge list, silently de-duplicating
    /// repeated edges (still rejecting self-loops). Generators whose
    /// natural construction can emit an edge twice (e.g. a torus with side
    /// length 2) use this entry point.
    pub fn from_edges_dedup(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Graph, GraphError> {
        Self::from_edge_vec(n, edges.to_vec(), Duplicates::Merge)
    }

    /// The edge-list build, in place in `edges`: canonicalise each pair
    /// to `(min, max)`, sort, then reject or merge repeats (a rejected
    /// list names its smallest repeated edge). Degrees are counted into
    /// `offsets`, which doubles as the scatter cursor, so the peak is
    /// `edges` plus the finished CSR and nothing else.
    pub(crate) fn from_edge_vec(
        n: usize,
        mut edges: Vec<(VertexId, VertexId)>,
        duplicates: Duplicates,
    ) -> Result<Graph, GraphError> {
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices { n });
        }
        for edge in &mut edges {
            let (u, v) = *edge;
            if (u as usize) >= n || (v as usize) >= n {
                return Err(GraphError::VertexOutOfRange { edge: (u, v), n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            *edge = (u.min(v), u.max(v));
        }
        edges.sort_unstable();
        match duplicates {
            Duplicates::Reject => {
                if let Some(pair) = edges.windows(2).find(|pair| pair[0] == pair[1]) {
                    return Err(GraphError::DuplicateEdge { edge: pair[0] });
                }
            }
            Duplicates::Merge => edges.dedup(),
        }

        // `offsets[v + 1]` counts `v`'s degree, then the prefix sum makes
        // `offsets[v]` the start of `v`'s row.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        // Scatter with `offsets[v]` as `v`'s cursor. Each row comes out
        // sorted: the pairs `(u, v)` with `u < v` arrive in sorted order,
        // so `x` receives its lower neighbours (from `(u, x)`) in
        // ascending order before its higher ones (from `(x, v)`).
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        for &(u, v) in &edges {
            neighbors[offsets[u as usize]] = v;
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize]] = u;
            offsets[v as usize] += 1;
        }
        drop(edges);
        // Every cursor now sits at the end of its row, the next row's
        // start: shift them up one slot to get the offsets back.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Ok(Graph::from_csr_parts(offsets, neighbors))
    }

    /// Copies an implicit topology's rows into CSR: the degrees summed
    /// into `offsets`, then each vertex's sorted row from
    /// [`Topology::for_each_neighbor`] appended to an exactly sized
    /// adjacency array. No edge list and no sort; the peak is the
    /// finished graph.
    pub(crate) fn from_topology(topo: &impl Topology) -> Graph {
        let n = topo.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for v in 0..n as VertexId {
            offsets.push(offsets[v as usize] + topo.degree(v));
        }
        let mut neighbors = Vec::with_capacity(offsets[n]);
        for v in 0..n as VertexId {
            topo.for_each_neighbor(v, |w| neighbors.push(w));
        }
        Graph::from_csr_parts(offsets, neighbors)
    }

    /// Reassembles a graph from raw CSR parts (the build and the
    /// binary-cache reload path). The caller must supply arrays
    /// satisfying the CSR invariants: `offsets` monotone with
    /// `offsets[0] == 0` and `offsets[n] == neighbors.len() == 2m`,
    /// per-vertex neighbor runs sorted, every edge mirrored. Checked in
    /// debug builds only — callers validate untrusted input themselves.
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Graph {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len() % 2, 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets
            .windows(2)
            .all(|w| neighbors[w[0]..w[1]].is_sorted()));
        Graph {
            regular: common_degree(&offsets),
            offsets,
            neighbors,
        }
    }

    /// The positions of `v`'s adjacency list in `neighbors`:
    /// `v·d..v·d + d` on a regular graph, two `offsets` loads otherwise.
    /// Panics if `v >= n` on both paths.
    #[inline]
    fn span(&self, v: VertexId) -> Range<usize> {
        let v = v as usize;
        match self.regular {
            Some(d) => {
                let base = v * d.get();
                // `base < n·d` exactly when `v < n`.
                assert!(
                    base < self.neighbors.len(),
                    "vertex {v} out of range 0..{}",
                    self.n()
                );
                base..base + d.get()
            }
            None => self.offsets[v]..self.offsets[v + 1],
        }
    }

    /// True when [`Graph::neighbor_range`] is arithmetic and reads no
    /// `offsets` (every vertex has the same degree `d > 0`).
    #[inline]
    pub(crate) fn has_arithmetic_spans(&self) -> bool {
        self.regular.is_some()
    }

    /// The raw offsets array (`n + 1` entries; binary-cache write path).
    #[inline]
    pub(crate) fn offsets_slice(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbor_range(v).1
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.span(v)]
    }

    /// Uniformly random neighbour of `v`.
    ///
    /// Panics if `v` is isolated: the COBRA/BIPS processes are only
    /// defined on graphs without isolated vertices, and sampling from an
    /// empty list would be a logic error worth failing loudly on.
    #[inline]
    pub fn random_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        let nbrs = self.neighbors(v);
        assert!(!nbrs.is_empty(), "random_neighbor on isolated vertex {v}");
        nbrs[rng.random_range(0..nbrs.len())]
    }

    /// The CSR position and length of `v`'s adjacency list, as
    /// `(offset, degree)`. Together with [`Graph::neighbor_flat`] this
    /// lets a sampler read the range once per vertex and resolve each
    /// drawn index with one flat-array load. On a regular graph the range
    /// is `(v·d, d)`, computed with no memory access; otherwise it is
    /// read from `offsets`, and a sampler can prefetch the ranges of
    /// vertices ahead to keep several memory accesses in flight.
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        // Not `span.len()`: its clamp at 0 keeps `(v·d + d) − v·d` from
        // folding to `d`.
        let span = self.span(v);
        (span.start, span.end - span.start)
    }

    /// Pointer to the start of `v`'s entry in `offsets`, for software
    /// prefetching a few vertices ahead of the sampling loop (useful only
    /// when the spans are not arithmetic). Reading through it is only
    /// valid via the safe accessors.
    #[inline]
    pub fn neighbor_range_ptr(&self, v: VertexId) -> *const u8 {
        self.offsets[v as usize..].as_ptr() as *const u8
    }

    /// The concatenated adjacency array underlying the CSR layout.
    /// `neighbor_flat()[neighbor_range(v).0 + j]` is the `j`-th
    /// neighbour of `v`.
    #[inline]
    pub fn neighbor_flat(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Membership test via binary search: `O(log deg)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if (u as usize) < self.n() && (v as usize) < self.n() {
            self.neighbors(u).binary_search(&v).is_ok()
        } else {
            false
        }
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Sum of degrees, `2m`. The paper tracks `d(A_t)` against `d(V) = 2m`.
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// Every vertex degree, read from `offsets`.
    fn offset_degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Maximum vertex degree `dmax` (0 for the empty graph). `O(1)` on
    /// a regular graph.
    pub fn max_degree(&self) -> usize {
        match self.regular {
            Some(d) => d.get(),
            None => self.offset_degrees().max().unwrap_or(0),
        }
    }

    /// Minimum vertex degree (0 for the empty graph). `O(1)` on a
    /// regular graph.
    pub fn min_degree(&self) -> usize {
        match self.regular {
            Some(d) => d.get(),
            None => self.offset_degrees().min().unwrap_or(0),
        }
    }

    /// `Some(r)` if the graph is `r`-regular, else `None` (also for the
    /// empty graph). `O(1)`: the constructors recorded every `r > 0`, and
    /// with `n > 0` the only other regular graphs are the edgeless ones.
    pub fn regularity(&self) -> Option<usize> {
        match self.regular {
            Some(d) => Some(d.get()),
            None => (self.n() > 0 && self.m() == 0).then_some(0),
        }
    }

    /// Total degree of a set of vertices: `d(S) = Σ_{u∈S} d(u)`.
    pub fn set_degree(&self, vertices: &[VertexId]) -> usize {
        vertices.iter().map(|&v| self.degree(v)).sum()
    }

    /// Number of neighbours of `u` inside the sorted vertex set `set`:
    /// `d_S(u)` in the paper's notation. `set` must be sorted ascending.
    pub fn degree_into_sorted_set(&self, u: VertexId, set: &[VertexId]) -> usize {
        self.neighbors(u)
            .iter()
            .filter(|&&w| set.binary_search(&w).is_ok())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree_sum(), 6);
        assert_eq!(g.regularity(), Some(2));
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let g = Graph::from_edges(5, &[(4, 0), (2, 0), (0, 1), (3, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.regularity(), None);
    }

    #[test]
    fn edge_orientation_is_normalised() {
        let a = Graph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        let b = Graph::from_edges(3, &[(1, 0), (1, 2)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn strict_rejects_duplicates_dedup_accepts() {
        let edges = [(0, 1), (1, 0)];
        assert_eq!(
            Graph::from_edges(2, &edges),
            Err(GraphError::DuplicateEdge { edge: (0, 1) })
        );
        let g = Graph::from_edges_dedup(2, &edges).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = Graph::from_edges(3, &[]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.min_degree(), 0);
    }

    /// Both span paths (arithmetic on a regular graph, `offsets` loads
    /// otherwise) give what the raw offsets give, and both panic at `n`.
    #[test]
    fn spans_match_the_offsets_on_both_paths() {
        let spec = |text: &str| text.parse::<crate::GraphSpec>().unwrap().build(3).unwrap();
        let mut chorded: Vec<_> = (0..8).map(|v| (v, (v + 1) % 8)).collect();
        chorded.push((0, 4));
        let regular = [
            "cycle:12",
            "torus:4x5",
            "hypercube:5",
            "rreg:20:3",
            "complete:7",
        ];
        let irregular = ["grid:3x4", "lollipop:10", "pa:30:2", "star:6"];
        let cases = regular
            .into_iter()
            .chain(["petersen"])
            .map(|text| (text, spec(text), true))
            .chain(irregular.into_iter().map(|text| (text, spec(text), false)))
            .chain([
                (
                    "cycle:8+chord",
                    Graph::from_edges(8, &chorded).unwrap(),
                    false,
                ),
                ("edgeless:5", Graph::from_edges(5, &[]).unwrap(), false),
                ("path:1", crate::generators::path(1), false),
                ("empty", Graph::from_edges(0, &[]).unwrap(), false),
            ]);
        for (text, g, arithmetic) in cases {
            assert_eq!(g.has_arithmetic_spans(), arithmetic, "{text}");
            let offsets = g.offsets_slice();
            let degrees: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
            for v in 0..g.n() as VertexId {
                let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
                assert_eq!(g.neighbor_range(v), (lo, hi - lo), "{text} v={v}");
                assert_eq!(g.degree(v), hi - lo, "{text} v={v}");
                assert_eq!(g.neighbors(v), &g.neighbor_flat()[lo..hi], "{text} v={v}");
            }
            let common = degrees
                .first()
                .filter(|&&d| degrees.iter().all(|&e| e == d));
            assert_eq!(g.regularity(), common.copied(), "{text}");
            let (max, min) = (degrees.iter().max(), degrees.iter().min());
            assert_eq!(g.max_degree(), max.copied().unwrap_or(0), "{text}");
            assert_eq!(g.min_degree(), min.copied().unwrap_or(0), "{text}");
            let n = g.n() as VertexId;
            assert!(std::panic::catch_unwind(|| g.degree(n)).is_err(), "{text}");
            assert!(
                std::panic::catch_unwind(|| g.neighbor_range(n)).is_err(),
                "{text}"
            );
        }
    }

    /// `hypercube` and `complete` copy their implicit rows; the edge-list
    /// build they replaced, kept here as the reference, gives the same
    /// offsets, adjacency, recorded degree and `memory_bytes`.
    #[test]
    fn implicit_row_builds_match_the_edge_list_build() {
        let check = |built: Graph, edges: Vec<(VertexId, VertexId)>| {
            let want = Graph::from_edges(built.n(), &edges).unwrap();
            let label = format!("n={} m={}", want.n(), want.m());
            assert_eq!(built.offsets, want.offsets, "{label}");
            assert_eq!(built.neighbors, want.neighbors, "{label}");
            assert_eq!(built.regular, want.regular, "{label}");
            assert_eq!(built.memory_bytes(), want.memory_bytes(), "{label}");
        };
        for d in 1..=14u32 {
            let edges = (0..1 << d)
                .flat_map(|v| (0..d).map(move |b| (v, v ^ (1 << b))))
                .filter(|&(v, w)| v < w)
                .collect();
            check(crate::generators::hypercube(d), edges);
        }
        for n in 0..=200 {
            let edges = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .collect();
            check(crate::generators::complete(n as usize), edges);
        }
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)];
        let g = Graph::from_edges(4, &edges).unwrap();
        let got: Vec<_> = g.edges().collect();
        let mut want = edges.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn random_neighbor_is_always_adjacent_and_roughly_uniform() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        for _ in 0..4000 {
            let u = g.random_neighbor(0, &mut rng);
            assert!(g.has_edge(0, u));
            counts[u as usize] += 1;
        }
        for &c in &counts[1..] {
            // Each neighbour expected 1000 times; allow generous slack.
            assert!(
                (700..1300).contains(&c),
                "non-uniform sample counts {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "isolated vertex")]
    fn random_neighbor_panics_on_isolated() {
        let g = Graph::from_edges(2, &[]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        g.random_neighbor(0, &mut rng);
    }

    #[test]
    fn set_degree_and_degree_into_set() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.set_degree(&[0, 2]), 4);
        assert_eq!(g.degree_into_sorted_set(1, &[0, 2]), 2);
        assert_eq!(g.degree_into_sorted_set(1, &[3]), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// CSR invariants on arbitrary edge lists: handshake lemma,
            /// sorted adjacency, symmetric membership, edge-iterator
            /// round-trip.
            #[test]
            fn csr_invariants(
                n in 1usize..48,
                raw in proptest::collection::vec((0u32..48, 0u32..48), 0..120)
            ) {
                let edges: Vec<(u32, u32)> = raw
                    .into_iter()
                    .map(|(a, b)| (a % n as u32, b % n as u32))
                    .filter(|(a, b)| a != b)
                    .collect();
                let g = Graph::from_edges_dedup(n, &edges).unwrap();
                // Handshake lemma.
                let degree_total: usize = (0..n as u32).map(|v| g.degree(v)).sum();
                prop_assert_eq!(degree_total, 2 * g.m());
                prop_assert_eq!(g.degree_sum(), 2 * g.m());
                for v in 0..n as u32 {
                    let nbrs = g.neighbors(v);
                    // Sorted, duplicate-free, no self-loop.
                    for w in nbrs.windows(2) {
                        prop_assert!(w[0] < w[1], "unsorted or duplicate adjacency");
                    }
                    prop_assert!(!nbrs.contains(&v), "self-loop survived");
                    // Symmetry.
                    for &w in nbrs {
                        prop_assert!(g.has_edge(w, v), "asymmetric edge ({v},{w})");
                    }
                }
                // edges() round-trips to the dedup'd canonical input.
                let mut want: Vec<(u32, u32)> =
                    edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                want.sort_unstable();
                want.dedup();
                let got: Vec<(u32, u32)> = g.edges().collect();
                prop_assert_eq!(got, want);
            }

            /// d_S(u) summed over u ∈ V equals d(S) — the E(X, Y)
            /// double-counting identity the paper's Section 3 leans on.
            #[test]
            fn cut_degree_double_counting(seed in 0u64..5000) {
                use rand::rngs::SmallRng;
                use rand::{RngExt, SeedableRng};
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = crate::generators::gnp(24, 0.2, &mut rng);
                let set: Vec<u32> =
                    (0..24u32).filter(|_| rng.random_bool(0.4)).collect();
                let lhs: usize = (0..g.n() as u32)
                    .map(|u| g.degree_into_sorted_set(u, &set))
                    .sum();
                prop_assert_eq!(lhs, g.set_degree(&set), "E(V,S) != d(S)");
            }
        }
    }
}
