//! Pluggable graph backends: the [`Topology`] trait and the implicit
//! O(1)-memory graph families.
//!
//! Every simulation kernel in the workspace reads its graph through this
//! trait. Two backend families implement it:
//!
//! * **CSR** — the materialized [`Graph`]: adjacency stored explicitly,
//!   `O(n + m)` memory, any family.
//! * **Implicit** — structured families whose adjacency is *computed*
//!   instead of stored: [`CompleteTopo`], [`CirculantTopo`] (which also
//!   serves `cycle` and `cyclepower`), [`GridTopo`], [`TorusTopo`], and
//!   [`HypercubeTopo`]. Zero edge storage, so `hypercube:24` costs a
//!   few bytes of parameters instead of ~1.6 GB of CSR.
//!
//! # The contract
//!
//! For a fixed graph, every backend must agree **exactly**:
//!
//! * `neighbor(v, i)` enumerates the neighbours of `v` in **sorted
//!   ascending order** — the same order a CSR adjacency list stores
//!   them. This is what makes simulation results bit-identical across
//!   backends: the processes draw `random_range(0..degree)` and resolve
//!   the index, so equal orders mean equal trajectories.
//! * `neighbor_range(v)` returns `(base, degree)` such that
//!   `resolve_pick(base + i) == neighbor(v, i)` for `i < degree`. The
//!   COBRA kernel reads `(base, degree)` once per active vertex and
//!   resolves each pick token the moment it draws it; CSR backs the
//!   tokens with flat-array indices (plus the software prefetch hooks),
//!   implicit backends with an arithmetic encoding.
//! * All methods are deterministic and `&self` — a topology can be
//!   shared across worker threads freely.

use crate::csr::{Graph, VertexId};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::fmt;
use std::sync::Arc;

/// The read surface of a graph, as the simulation kernels see it.
///
/// Implementors must enumerate neighbours in sorted ascending order and
/// keep [`Topology::resolve_pick`] consistent with
/// [`Topology::neighbor_range`]; see the module docs for the full
/// contract.
pub trait Topology {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of undirected edges.
    fn m(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// The `i`-th neighbour of `v` in sorted ascending order
    /// (`i < degree(v)`).
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId;

    /// `(base, degree)` of `v`'s pick-token range:
    /// `resolve_pick(base + i) == neighbor(v, i)`.
    fn neighbor_range(&self, v: VertexId) -> (usize, usize);

    /// Resolves an absolute pick token from [`Topology::neighbor_range`]
    /// to the vertex it denotes.
    fn resolve_pick(&self, pick: usize) -> VertexId;

    /// Uniformly random neighbour of `v`. Draws exactly one
    /// `random_range(0..degree)` from `rng` — the same stream the CSR
    /// backend consumes, so backends are RNG-compatible.
    ///
    /// Panics if `v` is isolated (the spreading processes are only
    /// defined on graphs without isolated vertices).
    #[inline]
    fn sample_neighbor(&self, v: VertexId, rng: &mut SmallRng) -> VertexId {
        let (base, deg) = self.neighbor_range(v);
        assert!(deg > 0, "sample_neighbor on isolated vertex {v}");
        self.resolve_pick(base + rng.random_range(0..deg))
    }

    /// Calls `f` for every neighbour of `v` in sorted ascending order.
    #[inline]
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId))
    where
        Self: Sized,
    {
        for i in 0..self.degree(v) {
            f(self.neighbor(v, i));
        }
    }

    /// Maximum vertex degree.
    fn max_degree(&self) -> usize;

    /// Sum of degrees, `2m`.
    #[inline]
    fn degree_sum(&self) -> usize {
        2 * self.m()
    }

    /// Total degree of a vertex set: `d(S) = Σ_{u∈S} d(u)`.
    fn set_degree(&self, vertices: &[VertexId]) -> usize {
        vertices.iter().map(|&v| self.degree(v)).sum()
    }

    /// Best-effort prefetch of `v`'s adjacency metadata, issued a few
    /// vertices ahead of the sampling loop. No-op for implicit backends
    /// (there is nothing to fetch).
    #[inline]
    fn prefetch_neighbor_meta(&self, _v: VertexId) {}

    /// Best-effort prefetch of the storage behind a pick token. No-op
    /// for implicit backends.
    #[inline]
    fn prefetch_pick(&self, _pick: usize) {}

    /// Approximate resident bytes of this representation — the number
    /// the memory-scaling reports print.
    fn memory_bytes(&self) -> usize;

    /// The `(n, m, max_degree)` triple the cap policies consume.
    fn shape(&self) -> GraphShape {
        GraphShape {
            n: self.n(),
            m: self.m(),
            max_degree: self.max_degree(),
        }
    }

    /// The [`ShardMap`](crate::shard::ShardMap) partitioning this
    /// topology's vertices into `shards` contiguous owned ranges — the
    /// ownership model of the sharded trial engine. Pure arithmetic
    /// over `(n, shards)`; implicit backends need no shared graph state
    /// to route an activation to its home shard.
    fn shard_map(&self, shards: usize) -> crate::shard::ShardMap {
        crate::shard::ShardMap::new(self.n(), shards)
    }
}

/// The size parameters a round-cap policy needs, detached from any
/// concrete backend so policies stay object-safe (`dyn Fn(GraphShape,
/// …)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphShape {
    /// Vertices.
    pub n: usize,
    /// Undirected edges.
    pub m: usize,
    /// Maximum vertex degree.
    pub max_degree: usize,
}

/// Issues a best-effort prefetch of the cache line holding `p`.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

impl Topology for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn m(&self) -> usize {
        Graph::m(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors(v)[i]
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        Graph::neighbor_range(self, v)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        self.neighbor_flat()[pick]
    }

    #[inline]
    fn sample_neighbor(&self, v: VertexId, rng: &mut SmallRng) -> VertexId {
        self.random_neighbor(v, rng)
    }

    #[inline]
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId)) {
        for &w in self.neighbors(v) {
            f(w);
        }
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    fn set_degree(&self, vertices: &[VertexId]) -> usize {
        Graph::set_degree(self, vertices)
    }

    #[inline]
    fn prefetch_neighbor_meta(&self, v: VertexId) {
        prefetch_read(self.neighbor_range_ptr(v));
    }

    #[inline]
    fn prefetch_pick(&self, pick: usize) {
        let flat = self.neighbor_flat();
        if pick < flat.len() {
            prefetch_read(unsafe { flat.as_ptr().add(pick) });
        }
    }

    fn memory_bytes(&self) -> usize {
        // offsets: (n + 1) × usize, adjacency: 2m × u32.
        std::mem::size_of::<Graph>()
            + (Graph::n(self) + 1) * std::mem::size_of::<usize>()
            + std::mem::size_of_val(self.neighbor_flat())
    }
}

// ---------------------------------------------------------------------------
// Implicit backends

/// Implicit complete graph `K_n`: every other vertex is a neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteTopo {
    n: usize,
}

impl CompleteTopo {
    /// `K_n` (`n ≥ 1`).
    pub fn new(n: usize) -> CompleteTopo {
        assert!(n >= 1, "complete graph needs n >= 1");
        assert!(n <= u32::MAX as usize, "complete graph too large for u32");
        CompleteTopo { n }
    }
}

impl Topology for CompleteTopo {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn m(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    #[inline]
    fn degree(&self, _v: VertexId) -> usize {
        self.n - 1
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        debug_assert!(i < self.n - 1, "neighbor index {i} out of range");
        // Sorted neighbours of v are 0..n with v skipped.
        if (i as u64) < v as u64 {
            i as VertexId
        } else {
            (i + 1) as VertexId
        }
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        let deg = self.n - 1;
        (v as usize * deg, deg)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        let deg = self.n - 1;
        self.neighbor((pick / deg) as VertexId, pick % deg)
    }

    fn max_degree(&self) -> usize {
        self.n - 1
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Implicit circulant graph `C_n(S)` — also the implicit backend for
/// `cycle:N` (`C_n({1})`) and `cyclepower:N:K` (`C_n({1..K})`).
///
/// Stores only the sorted distinct step set `D = {s, n−s : s ∈ S}`;
/// the sorted neighbour list of `v` is `[(v + d) mod n]` with the
/// wrapped entries (ascending) before the unwrapped ones (ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CirculantTopo {
    n: usize,
    /// Sorted distinct deltas in `1..n`.
    deltas: Vec<u32>,
}

impl CirculantTopo {
    /// `C_n(S)` with the same parameter contract as the CSR generator:
    /// `n ≥ 3`, offsets in `1..=n/2`.
    pub fn new(n: usize, offsets: &[usize]) -> CirculantTopo {
        assert!(n >= 3, "circulant needs n >= 3");
        assert!(n <= u32::MAX as usize, "circulant too large for u32");
        let mut deltas: Vec<u32> = Vec::with_capacity(2 * offsets.len());
        for &s in offsets {
            assert!(
                s >= 1 && s <= n / 2,
                "offset {s} out of range 1..={}",
                n / 2
            );
            deltas.push(s as u32);
            deltas.push((n - s) as u32);
        }
        deltas.sort_unstable();
        deltas.dedup();
        CirculantTopo { n, deltas }
    }

    /// The cycle `C_n` (`n ≥ 3`).
    pub fn cycle(n: usize) -> CirculantTopo {
        assert!(n >= 3, "cycle needs n >= 3, got {n}");
        CirculantTopo::new(n, &[1])
    }

    /// The cycle power `C_n^k` (`k ≥ 1`, `n > 2k`).
    pub fn cycle_power(n: usize, k: usize) -> CirculantTopo {
        assert!(k >= 1, "cycle power needs k >= 1");
        assert!(n > 2 * k, "cycle power needs n > 2k (got n={n}, k={k})");
        let offsets: Vec<usize> = (1..=k).collect();
        CirculantTopo::new(n, &offsets)
    }
}

impl Topology for CirculantTopo {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn m(&self) -> usize {
        // Vertex-transitive: handshake gives n·deg/2 (always integral —
        // odd degree requires the n/2 delta, hence even n).
        self.n * self.deltas.len() / 2
    }

    #[inline]
    fn degree(&self, _v: VertexId) -> usize {
        self.deltas.len()
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        debug_assert!(i < self.deltas.len(), "neighbor index {i} out of range");
        let v = v as usize;
        // Deltas below `n - v` don't wrap; the tail wraps. Wrapped
        // values (all < v) come first in sorted order, ascending in
        // delta; unwrapped (> v) follow, also ascending.
        let unwrapped = self.deltas.partition_point(|&d| (d as usize) < self.n - v);
        let wrapped = self.deltas.len() - unwrapped;
        if i < wrapped {
            (v + self.deltas[unwrapped + i] as usize - self.n) as VertexId
        } else {
            (v + self.deltas[i - wrapped] as usize) as VertexId
        }
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        let deg = self.deltas.len();
        (v as usize * deg, deg)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        let deg = self.deltas.len();
        self.neighbor((pick / deg) as VertexId, pick % deg)
    }

    fn max_degree(&self) -> usize {
        self.deltas.len()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.deltas.len() * std::mem::size_of::<u32>()
    }
}

/// Implicit hypercube `Q_d`: ids adjacent iff they differ in one bit.
///
/// `neighbor(v, i)` runs without data-dependent branches or loops: a
/// sign mask picks the arm (clear one of `v`'s set bits, or set one of
/// its unset bits — both are `v ^ (1 << pos)`), and `nth_set_bit`
/// finds `pos` with SWAR byte counts and a select-in-byte table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercubeTopo {
    d: u32,
}

impl HypercubeTopo {
    /// `Q_d` (`1 ≤ d ≤ 30`, matching the CSR generator's range).
    pub fn new(d: u32) -> HypercubeTopo {
        assert!(
            (1..31).contains(&d),
            "hypercube dimension out of supported range"
        );
        HypercubeTopo { d }
    }

    /// The dimension `d`.
    pub fn dimension(&self) -> u32 {
        self.d
    }
}

/// `SELECT_IN_BYTE[b][r]`: position of the `r`-th set bit of byte `b`
/// (LSB-first); 0 where `b` has fewer than `r + 1` set bits. 2 KiB.
const SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut pos, mut r) = (0, 0);
        while pos < 8 {
            if (b >> pos) & 1 == 1 {
                table[b][r] = pos as u8;
                r += 1;
            }
            pos += 1;
        }
        b += 1;
    }
    table
};

/// Position of the `j`-th set bit of `v` (LSB-first, `j <
/// popcount(v)`), branch-free: SWAR per-byte popcounts, a multiply
/// into inclusive per-byte prefix counts, the byte `k` holding the bit
/// as the number of low prefixes `≤ j`, then a table select inside
/// byte `k`.
#[inline]
fn nth_set_bit(v: u32, j: u32) -> u32 {
    debug_assert!(j < v.count_ones(), "rank {j} out of range for {v:#x}");
    let c = v - ((v >> 1) & 0x5555_5555);
    let c = (c & 0x3333_3333) + ((c >> 2) & 0x3333_3333);
    let c = (c + (c >> 4)) & 0x0f0f_0f0f;
    // Byte b of `prefix` = set bits in bytes 0..=b (at most 32, no carry).
    let prefix = c.wrapping_mul(0x0101_0101);
    let k = ((prefix & 0xff) <= j) as u32
        + (((prefix >> 8) & 0xff) <= j) as u32
        + (((prefix >> 16) & 0xff) <= j) as u32;
    // Set bits below byte k: byte k − 1 of `prefix` (0 for k = 0).
    let below = ((prefix << 8) >> (8 * k)) & 0xff;
    let byte = (v >> (8 * k)) & 0xff;
    // `& 7` keeps valid ranks as they are and drops the bounds check.
    8 * k + SELECT_IN_BYTE[byte as usize][((j - below) & 7) as usize] as u32
}

impl Topology for HypercubeTopo {
    #[inline]
    fn n(&self) -> usize {
        1usize << self.d
    }

    #[inline]
    fn m(&self) -> usize {
        (1usize << self.d) * self.d as usize / 2
    }

    #[inline]
    fn degree(&self, _v: VertexId) -> usize {
        self.d as usize
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        debug_assert!(i < self.d as usize, "neighbor index {i} out of range");
        // Sorted order lists the ids below `v` first: cleared set bits,
        // highest bit first (rank `set − 1 − i` among the set bits of
        // `v`); then the ids above: set unset bits, lowest first (rank
        // `i − set` among the set bits of `!v`). `flip` is all ones
        // exactly in the second case, and `!(set − 1 − i) == i − set`.
        let rank = v.count_ones().wrapping_sub(1).wrapping_sub(i as u32);
        let flip = ((rank as i32) >> 31) as u32;
        v ^ (1 << nth_set_bit(v ^ flip, rank ^ flip))
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        let deg = self.d as usize;
        (v as usize * deg, deg)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        let deg = self.d as usize;
        self.neighbor((pick / deg) as VertexId, pick % deg)
    }

    fn max_degree(&self) -> usize {
        self.d as usize
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Active (side ≥ 2) dimension cap for the implicit lattice backends —
/// bounds the on-stack neighbour buffer. Lattices beyond it use CSR.
pub const MAX_LATTICE_DIMS: usize = 16;

/// Shared mixed-radix bookkeeping of the lattice backends.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lattice {
    dims: Vec<usize>,
    strides: Vec<usize>,
    n: usize,
}

impl Lattice {
    fn new(dims: &[usize]) -> Lattice {
        assert!(!dims.is_empty(), "lattice needs at least one dimension");
        assert!(dims.iter().all(|&s| s >= 1), "side lengths must be >= 1");
        let active = dims.iter().filter(|&&s| s >= 2).count();
        assert!(
            active <= MAX_LATTICE_DIMS,
            "implicit lattice supports at most {MAX_LATTICE_DIMS} non-trivial dimensions"
        );
        let n: usize = dims.iter().product();
        assert!(n <= u32::MAX as usize, "lattice too large for u32 ids");
        let mut strides = vec![1usize; dims.len()];
        for d in 1..dims.len() {
            strides[d] = strides[d - 1] * dims[d - 1];
        }
        Lattice {
            dims: dims.to_vec(),
            strides,
            n,
        }
    }

    #[inline]
    fn coord(&self, v: usize, d: usize) -> usize {
        (v / self.strides[d]) % self.dims[d]
    }

    fn memory_bytes(&self) -> usize {
        2 * self.dims.len() * std::mem::size_of::<usize>()
    }
}

/// Implicit D-dimensional grid (open boundaries), id layout identical
/// to the CSR generator's mixed-radix encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridTopo {
    lat: Lattice,
    max_degree: usize,
    m: usize,
}

impl GridTopo {
    /// A grid with the given side lengths (each ≥ 1, at most
    /// [`MAX_LATTICE_DIMS`] sides ≥ 2).
    pub fn new(dims: &[usize]) -> GridTopo {
        let lat = Lattice::new(dims);
        let max_degree = dims.iter().map(|&s| (s - 1).min(2)).sum();
        let m = dims.iter().map(|&s| (s - 1) * lat.n / s).sum();
        GridTopo { lat, max_degree, m }
    }
}

impl Topology for GridTopo {
    #[inline]
    fn n(&self) -> usize {
        self.lat.n
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        let mut deg = 0;
        for d in 0..self.lat.dims.len() {
            let c = self.lat.coord(v, d);
            deg += usize::from(c > 0) + usize::from(c + 1 < self.lat.dims[d]);
        }
        deg
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        let vu = v as usize;
        let mut k = i;
        // Sorted order: −stride neighbours (descending dimension gives
        // ascending ids, all < v), then +stride (ascending dimension).
        for d in (0..self.lat.dims.len()).rev() {
            if self.lat.coord(vu, d) > 0 {
                if k == 0 {
                    return (vu - self.lat.strides[d]) as VertexId;
                }
                k -= 1;
            }
        }
        for d in 0..self.lat.dims.len() {
            if self.lat.coord(vu, d) + 1 < self.lat.dims[d] {
                if k == 0 {
                    return (vu + self.lat.strides[d]) as VertexId;
                }
                k -= 1;
            }
        }
        panic!("neighbor index {i} out of range for vertex {v}");
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        (v as usize * self.max_degree, self.degree(v))
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        self.neighbor((pick / self.max_degree) as VertexId, pick % self.max_degree)
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.lat.memory_bytes()
    }
}

/// Implicit D-dimensional torus (periodic boundaries); a side of
/// length 2 contributes one neighbour (the wrap edge collapses onto the
/// +1 edge), matching the CSR generator's simple-graph convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorusTopo {
    lat: Lattice,
    degree: usize,
    m: usize,
}

impl TorusTopo {
    /// A torus with the given side lengths (each ≥ 1, at most
    /// [`MAX_LATTICE_DIMS`] sides ≥ 2).
    pub fn new(dims: &[usize]) -> TorusTopo {
        let lat = Lattice::new(dims);
        let degree = dims
            .iter()
            .map(|&s| match s {
                1 => 0,
                2 => 1,
                _ => 2,
            })
            .sum();
        let m = dims
            .iter()
            .map(|&s| match s {
                1 => 0,
                2 => lat.n / 2,
                _ => lat.n,
            })
            .sum();
        TorusTopo { lat, degree, m }
    }

    /// Writes the neighbours of `v` into `buf` sorted ascending,
    /// returning the count. Wrap edges interleave across dimensions, so
    /// the list is insertion-sorted (at most `2·MAX_LATTICE_DIMS`
    /// entries).
    #[inline]
    fn fill_sorted_neighbors(&self, v: usize, buf: &mut [VertexId; 2 * MAX_LATTICE_DIMS]) -> usize {
        let len = self.fill_neighbors(v, buf);
        for a in 1..len {
            let x = buf[a];
            let mut b = a;
            while b > 0 && buf[b - 1] > x {
                buf[b] = buf[b - 1];
                b -= 1;
            }
            buf[b] = x;
        }
        len
    }

    /// Writes the (unsorted) neighbours of `v` into `buf`, returning
    /// the count.
    #[inline]
    fn fill_neighbors(&self, v: usize, buf: &mut [VertexId; 2 * MAX_LATTICE_DIMS]) -> usize {
        let mut len = 0;
        for d in 0..self.lat.dims.len() {
            let side = self.lat.dims[d];
            if side == 1 {
                continue;
            }
            let st = self.lat.strides[d];
            let c = self.lat.coord(v, d);
            let up = if c + 1 < side {
                v + st
            } else {
                v - (side - 1) * st
            };
            buf[len] = up as VertexId;
            len += 1;
            if side > 2 {
                let down = if c > 0 { v - st } else { v + (side - 1) * st };
                buf[len] = down as VertexId;
                len += 1;
            }
        }
        len
    }
}

impl Topology for TorusTopo {
    #[inline]
    fn n(&self) -> usize {
        self.lat.n
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, _v: VertexId) -> usize {
        self.degree
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        let mut buf = [0 as VertexId; 2 * MAX_LATTICE_DIMS];
        let len = self.fill_sorted_neighbors(v as usize, &mut buf);
        debug_assert!(i < len, "neighbor index {i} out of range");
        buf[i]
    }

    /// Full-enumeration override: one fill + sort per vertex instead of
    /// one per neighbour index (the default would be O(deg²) here).
    #[inline]
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId)) {
        let mut buf = [0 as VertexId; 2 * MAX_LATTICE_DIMS];
        let len = self.fill_sorted_neighbors(v as usize, &mut buf);
        for &w in &buf[..len] {
            f(w);
        }
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        (v as usize * self.degree, self.degree)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        self.neighbor((pick / self.degree) as VertexId, pick % self.degree)
    }

    fn max_degree(&self) -> usize {
        self.degree
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.lat.memory_bytes()
    }
}

// ---------------------------------------------------------------------------
// Backend selection

/// Which backend a [`crate::GraphSpec`] materializes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Implicit for the structured families that have one, CSR
    /// otherwise.
    #[default]
    Auto,
    /// Always materialize the CSR adjacency.
    Csr,
    /// Require the implicit backend; families without one are rejected
    /// with an error naming the supported set.
    Implicit,
}

/// The canonical backend spellings, quoted by every parse error.
pub const BACKEND_CHOICES: &[&str] = &["auto", "csr", "implicit"];

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Auto => write!(f, "auto"),
            Backend::Csr => write!(f, "csr"),
            Backend::Implicit => write!(f, "implicit"),
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(Backend::Auto),
            "csr" => Ok(Backend::Csr),
            "implicit" => Ok(Backend::Implicit),
            other => Err(format!(
                "unknown backend {other:?} (valid backends: {})",
                BACKEND_CHOICES.join(", ")
            )),
        }
    }
}

/// A materialized graph behind one of the concrete backends — the one
/// graph wrapper every run path steps on. [`crate::GraphSpec::build_topology`]
/// and the campaign planner produce the owned variants (`'static`); a
/// caller that already holds a [`Graph`] lends it as
/// [`BuiltTopology::Borrowed`] without copying it. Callers monomorphize
/// their simulation path per variant via [`crate::with_topology!`].
#[derive(Debug, Clone)]
pub enum BuiltTopology<'g> {
    /// Materialized CSR adjacency, shared (the campaign planner hands
    /// one `Arc` to every point on the same graph). Every `file:` graph
    /// lands here too, whether parsed from its text or loaded from its
    /// `.csrbin` cache.
    Csr(Arc<Graph>),
    /// A caller-owned CSR graph (backend selection does not apply).
    Borrowed(&'g Graph),
    /// Implicit `K_n`.
    Complete(CompleteTopo),
    /// Implicit circulant (also `cycle` and `cyclepower`).
    Circulant(CirculantTopo),
    /// Implicit open grid.
    Grid(GridTopo),
    /// Implicit torus.
    Torus(TorusTopo),
    /// Implicit hypercube.
    Hypercube(HypercubeTopo),
}

/// Dispatches a generic expression over the concrete backend inside a
/// [`BuiltTopology`] reference: `with_topology!(&built, |g| f(g))`
/// monomorphizes `f` per backend, so the simulation kernels inline with
/// no per-call dispatch. Both CSR variants bind `g: &Graph`.
#[macro_export]
macro_rules! with_topology {
    ($topo:expr, |$g:ident| $body:expr) => {
        match $topo {
            $crate::topology::BuiltTopology::Csr(g) => {
                let $g: &$crate::csr::Graph = g;
                $body
            }
            $crate::topology::BuiltTopology::Borrowed(g) => {
                let $g: &$crate::csr::Graph = g;
                $body
            }
            $crate::topology::BuiltTopology::Complete($g) => $body,
            $crate::topology::BuiltTopology::Circulant($g) => $body,
            $crate::topology::BuiltTopology::Grid($g) => $body,
            $crate::topology::BuiltTopology::Torus($g) => $body,
            $crate::topology::BuiltTopology::Hypercube($g) => $body,
        }
    };
}

impl BuiltTopology<'_> {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        with_topology!(self, |g| g.n())
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        with_topology!(self, |g| g.m())
    }

    /// The `(n, m, max_degree)` triple for cap policies.
    pub fn shape(&self) -> GraphShape {
        with_topology!(self, |g| g.shape())
    }

    /// Approximate resident bytes of the representation.
    pub fn memory_bytes(&self) -> usize {
        with_topology!(self, |g| g.memory_bytes())
    }

    /// True for the arithmetic O(1)-memory backends (everything but
    /// CSR).
    pub fn is_implicit(&self) -> bool {
        !matches!(self, BuiltTopology::Csr(_) | BuiltTopology::Borrowed(_))
    }

    /// `"csr"` or `"implicit"` — for logs and reports.
    pub fn backend_name(&self) -> &'static str {
        if self.is_implicit() {
            "implicit"
        } else {
            "csr"
        }
    }

    /// The CSR graph, when that is the backend in use.
    pub fn as_csr(&self) -> Option<&Graph> {
        match self {
            BuiltTopology::Csr(g) => Some(g),
            BuiltTopology::Borrowed(g) => Some(g),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::spec::GraphSpec;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Asserts the full backend contract: the implicit `(n, m, degree,
    /// neighbor(v, i))` tables match the CSR graph element for element,
    /// pick resolution is consistent, and RNG sampling is
    /// stream-compatible.
    fn assert_matches_csr<T: Topology>(implicit: &T, csr: &Graph, label: &str) {
        assert_eq!(implicit.n(), Topology::n(csr), "{label}: n");
        assert_eq!(implicit.m(), Topology::m(csr), "{label}: m");
        assert_eq!(
            implicit.max_degree(),
            Topology::max_degree(csr),
            "{label}: max_degree"
        );
        for v in 0..csr.n() as VertexId {
            let want = csr.neighbors(v);
            assert_eq!(
                implicit.degree(v),
                want.len(),
                "{label}: degree({v}) diverged"
            );
            let (base, deg) = implicit.neighbor_range(v);
            assert_eq!(deg, want.len(), "{label}: neighbor_range({v}).1");
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(
                    implicit.neighbor(v, i),
                    w,
                    "{label}: neighbor({v}, {i}) diverged from sorted CSR"
                );
                assert_eq!(
                    implicit.resolve_pick(base + i),
                    w,
                    "{label}: resolve_pick(base + {i}) != neighbor({v}, {i})"
                );
            }
            let mut collected = Vec::new();
            implicit.for_each_neighbor(v, |w| collected.push(w));
            assert_eq!(collected, want, "{label}: for_each_neighbor({v})");
            // Same RNG stream, same samples as the CSR backend.
            if !want.is_empty() {
                let mut a = SmallRng::seed_from_u64(v as u64 ^ 0xA5);
                let mut b = SmallRng::seed_from_u64(v as u64 ^ 0xA5);
                for _ in 0..8 {
                    assert_eq!(
                        implicit.sample_neighbor(v, &mut a),
                        csr.random_neighbor(v, &mut b),
                        "{label}: sample_neighbor({v}) left the CSR RNG stream"
                    );
                }
            }
        }
    }

    /// Builds a spec's implicit backend, asserting it exists.
    fn implicit_of(spec: &str) -> BuiltTopology<'static> {
        let spec: GraphSpec = spec.parse().unwrap();
        let built = spec.build_topology(0, Backend::Implicit).unwrap();
        assert!(built.is_implicit(), "{spec} did not build implicit");
        built
    }

    #[test]
    fn every_implicit_family_matches_csr_over_a_size_grid() {
        let cases: &[&str] = &[
            "complete:1",
            "complete:2",
            "complete:3",
            "complete:7",
            "complete:16",
            "cycle:3",
            "cycle:4",
            "cycle:9",
            "cycle:24",
            "cyclepower:7:2",
            "cyclepower:12:3",
            "cyclepower:33:5",
            "circulant:8:1+2",
            "circulant:8:1+4",
            "circulant:9:2+3",
            "circulant:24:1+2+5",
            "circulant:10:5",
            "grid:5",
            "grid:3x4",
            "grid:2x2",
            "grid:1x5x1",
            "grid:3x3x3",
            "grid:2x3x4x2",
            "torus:7",
            "torus:2x2",
            "torus:2x3",
            "torus:4x5",
            "torus:6x6",
            "torus:3x3x3",
            "torus:2x3x4x2",
            "hypercube:1",
            "hypercube:2",
            "hypercube:5",
            "hypercube:8",
            "hypercube:12",
        ];
        for case in cases {
            let spec: GraphSpec = case.parse().unwrap();
            let csr = spec.build(0).unwrap();
            let built = implicit_of(case);
            with_topology!(&built, |g| assert_matches_csr(g, &csr, case));
            assert!(
                built.memory_bytes() <= csr.memory_bytes() || csr.n() < 16,
                "{case}: implicit backend larger than CSR"
            );
        }
    }

    #[test]
    fn families_without_implicit_backends_are_rejected_by_name() {
        for spec in [
            "petersen",
            "gnp:64:0.1",
            "star:9",
            "tree:2:15",
            "barbell:4:2",
        ] {
            let spec: GraphSpec = spec.parse().unwrap();
            let err = spec
                .build_topology(0, Backend::Implicit)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("no implicit backend") && err.contains("hypercube"),
                "{spec}: error must name the supported set, got {err:?}"
            );
            // Auto falls back to CSR instead.
            let auto = spec.build_topology(0, Backend::Auto).unwrap();
            assert!(!auto.is_implicit(), "{spec}: auto must fall back to CSR");
        }
    }

    #[test]
    fn auto_selects_implicit_for_structured_families() {
        for spec in [
            "complete:12",
            "cycle:9",
            "cyclepower:12:2",
            "circulant:9:1+3",
            "grid:4x4",
            "torus:5x5",
            "hypercube:6",
        ] {
            let spec: GraphSpec = spec.parse().unwrap();
            let built = spec.build_topology(0, Backend::Auto).unwrap();
            assert!(built.is_implicit(), "{spec}: auto must choose implicit");
            assert_eq!(built.backend_name(), "implicit");
            // Forced CSR still works and agrees on the shape.
            let csr = spec.build_topology(0, Backend::Csr).unwrap();
            assert!(!csr.is_implicit());
            assert_eq!(csr.shape(), built.shape(), "{spec}: shapes diverged");
        }
    }

    #[test]
    fn backend_spellings_round_trip_and_reject_typos() {
        for (text, want) in [
            ("auto", Backend::Auto),
            ("csr", Backend::Csr),
            ("implicit", Backend::Implicit),
            ("Implicit", Backend::Implicit),
        ] {
            let parsed: Backend = text.parse().unwrap();
            assert_eq!(parsed, want);
            assert_eq!(parsed.to_string().parse::<Backend>().unwrap(), parsed);
        }
        let err = "sparse".parse::<Backend>().unwrap_err();
        assert!(
            err.contains("\"sparse\"") && err.contains("implicit"),
            "{err:?}"
        );
    }

    #[test]
    fn hypercube_neighbors_are_bit_flips_in_sorted_order() {
        let q = HypercubeTopo::new(10);
        for v in [0u32, 1, 5, 0b10_1010_1010, 1023] {
            let mut prev = None;
            for i in 0..10 {
                let w = q.neighbor(v, i);
                assert_eq!((v ^ w).count_ones(), 1, "not a bit flip");
                if let Some(p) = prev {
                    assert!(w > p, "neighbors of {v} not ascending");
                }
                prev = Some(w);
            }
        }
    }

    /// The clear-lowest-bit loop the branch-free select replaced: the
    /// reference [`nth_set_bit`] is checked against.
    fn nth_set_bit_loop(mut v: u32, j: u32) -> u32 {
        for _ in 0..j {
            v &= v - 1;
        }
        v.trailing_zeros()
    }

    /// The two-armed `HypercubeTopo::neighbor` the sign-mask arm choice
    /// replaced, on the loop select.
    fn hypercube_neighbor_loop(v: u32, i: u32) -> u32 {
        let set = v.count_ones();
        if i < set {
            v ^ (1 << nth_set_bit_loop(v, set - 1 - i))
        } else {
            v | (1 << nth_set_bit_loop(!v, i - set))
        }
    }

    /// Asserts `neighbor(v, i)` of `Q_d` equals the reference for every
    /// `i < d`.
    fn assert_hypercube_matches_loop(d: u32, v: u32) {
        let q = HypercubeTopo::new(d);
        for i in 0..d {
            assert_eq!(
                q.neighbor(v, i as usize),
                hypercube_neighbor_loop(v, i),
                "hypercube:{d}: neighbor({v:#x}, {i})"
            );
        }
    }

    #[test]
    fn hypercube_neighbor_matches_loop_reference_on_bit_patterns() {
        for d in 1..=30u32 {
            let all = (1u32 << d) - 1;
            for v in [0, all, 0x5555_5555 & all, 0xAAAA_AAAA & all] {
                assert_hypercube_matches_loop(d, v);
            }
            for b in 0..d {
                assert_hypercube_matches_loop(d, 1 << b);
                assert_hypercube_matches_loop(d, all ^ (1 << b));
            }
        }
    }

    #[test]
    fn nth_set_bit_matches_loop_reference_on_every_16_bit_word() {
        // Each word both in the low half and shifted into the high half,
        // so all four bytes meet every byte pattern.
        for w in 0..=u16::MAX as u32 {
            for word in [w, w << 16] {
                for j in 0..word.count_ones() {
                    assert_eq!(
                        nth_set_bit(word, j),
                        nth_set_bit_loop(word, j),
                        "nth_set_bit({word:#x}, {j})"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random ids of every dimension: bytes 1–3 of the select are
        /// only reached from `hypercube:9` up.
        #[test]
        fn hypercube_neighbor_matches_loop_reference(raw in any::<u32>()) {
            for d in 1..=30u32 {
                assert_hypercube_matches_loop(d, raw & ((1 << d) - 1));
            }
        }

        #[test]
        fn nth_set_bit_matches_loop_reference(w in any::<u32>()) {
            for j in 0..w.count_ones() {
                prop_assert_eq!(nth_set_bit(w, j), nth_set_bit_loop(w, j), "word {:#x}, rank {}", w, j);
            }
        }
    }

    #[test]
    fn large_hypercube_is_constant_memory() {
        let q = HypercubeTopo::new(24);
        assert_eq!(q.n(), 1 << 24);
        assert_eq!(q.m(), (1usize << 24) * 12);
        assert!(q.memory_bytes() < 64, "implicit Q_24 must be O(1) bytes");
        // Far corners of the id space resolve correctly.
        let v = (1u32 << 24) - 1;
        assert_eq!(q.neighbor(v, 0), v ^ (1 << 23));
        assert_eq!(q.degree(v), 24);
    }

    #[test]
    fn torus_rejects_too_many_active_dimensions() {
        let dims = vec![2usize; MAX_LATTICE_DIMS + 1];
        let spec = GraphSpec::Torus { dims };
        let err = spec
            .build_topology(0, Backend::Implicit)
            .unwrap_err()
            .to_string();
        assert!(err.contains("no implicit backend"), "{err:?}");
        // Auto silently falls back to CSR.
        let auto = spec.build_topology(0, Backend::Auto).unwrap();
        assert!(!auto.is_implicit());
    }

    proptest! {
        /// Randomized parameter sweep: every implicit family agrees with
        /// its CSR materialization element for element.
        #[test]
        fn implicit_matches_csr_on_random_parameters(
            n in 3usize..40,
            k in 1usize..5,
            d in 1u32..8,
            dims in proptest::collection::vec(1usize..5, 1..4),
            offsets in proptest::collection::vec(1usize..12, 1..4),
        ) {
            let cases = [
                format!("complete:{n}"),
                format!("cycle:{n}"),
                format!("hypercube:{d}"),
                format!(
                    "grid:{}",
                    dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
                ),
                format!(
                    "torus:{}",
                    dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
                ),
            ];
            for case in &cases {
                let spec: GraphSpec = case.parse().unwrap();
                let csr = spec.build(0).unwrap();
                let built = spec.build_topology(0, Backend::Implicit).unwrap();
                with_topology!(&built, |g| assert_matches_csr(g, &csr, case));
            }
            if n > 2 * k {
                let spec: GraphSpec = format!("cyclepower:{n}:{k}").parse().unwrap();
                let csr = spec.build(0).unwrap();
                let built = spec.build_topology(0, Backend::Implicit).unwrap();
                with_topology!(&built, |g| assert_matches_csr(g, &csr, "cyclepower"));
            }
            let clamped: Vec<usize> =
                offsets.iter().map(|&o| 1 + (o - 1) % (n / 2)).collect();
            let circ = format!(
                "circulant:{n}:{}",
                clamped.iter().map(|o| o.to_string()).collect::<Vec<_>>().join("+")
            );
            let spec: GraphSpec = circ.parse().unwrap();
            let csr = spec.build(0).unwrap();
            let built = spec.build_topology(0, Backend::Implicit).unwrap();
            with_topology!(&built, |g| assert_matches_csr(g, &csr, &circ));
        }
    }

    #[test]
    fn graph_shape_matches_direct_queries() {
        let g = generators::petersen();
        let shape = Topology::shape(&g);
        assert_eq!(
            shape,
            GraphShape {
                n: 10,
                m: 15,
                max_degree: 3
            }
        );
    }
}
