//! Pluggable graph backends: the [`Topology`] trait and the implicit
//! O(1)-memory graph families.
//!
//! Every simulation kernel in the workspace reads its graph through this
//! trait. Two backend families implement it:
//!
//! * **CSR** — the materialized [`Graph`]: adjacency stored explicitly,
//!   `O(n + m)` memory, any family.
//! * **Implicit** — the two families whose adjacency is *computed*
//!   instead of stored, because their CSR is what limits the size that
//!   runs: [`CompleteTopo`] (CSR is quadratic in `n`) and
//!   [`HypercubeTopo`] (`hypercube:24` costs a few bytes of parameters
//!   instead of ~1.6 GB of CSR). Lattices and circulants use CSR: at
//!   every size that covers in feasible time it is both small and
//!   2–4× faster per pick than computing the neighbour.
//!
//! The hypercube's `neighbor(v, i)` is a bit select: flip the bit of
//! the right rank among `v`'s set (or unset) bits. It has two arms that
//! return the same vertex. Where the CPU has a fast BMI2 `pdep`, one
//! `pdep` does the select; [`HypercubeTopo::new`] checks the CPU once
//! and stores the answer. Everywhere else — non-x86 targets, x86 CPUs
//! without BMI2, and AMD Zen 1/2 (family 17h, and Hygon's family 18h
//! derivative), which run `pdep` in microcode at tens of cycles — a
//! portable SWAR select does it. The SWAR arm stays because those hosts
//! still run the hypercube, and it is the reference the `pdep` arm is
//! tested against.
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
//!   implicit backends with a division-free bit packing of `(v, i)`
//!   (tokens need not be dense, only `base + i` for `i < degree`).
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
    /// and regular CSR graphs (there is nothing to fetch).
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

    /// Prefetches `v`'s `offsets` entry; a no-op on a regular graph,
    /// whose [`Graph::neighbor_range`] is arithmetic and reads none.
    #[inline]
    fn prefetch_neighbor_meta(&self, v: VertexId) {
        if !self.has_arithmetic_spans() {
            prefetch_read(self.neighbor_range_ptr(v));
        }
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

// The implicit backends pack `(v, i)` into one `usize` pick token
// (`(v << 32) | i` for `CompleteTopo`, `(v << 5) | i` for
// `HypercubeTopo` up to `v < 2^30`), which needs a 64-bit `usize`.
const _: () = assert!(
    usize::BITS == 64,
    "implicit pick tokens need a 64-bit usize"
);

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

    /// Token `(v << 32) | i`: `n ≤ u32::MAX` keeps `i` in the low word
    /// (`usize` is asserted to be 64 bits wide).
    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        ((v as usize) << 32, self.n - 1)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        self.neighbor((pick >> 32) as VertexId, pick & 0xffff_ffff)
    }

    fn max_degree(&self) -> usize {
        self.n - 1
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Implicit hypercube `Q_d`: ids adjacent iff they differ in one bit.
///
/// `neighbor(v, i)` runs without data-dependent branches or loops: a
/// sign mask picks the arm (clear one of `v`'s set bits, or set one of
/// its unset bits — both are `v ^ (1 << pos)`), and a select finds
/// `pos`. The select has two arms, chosen once in [`HypercubeTopo::new`]:
///
/// * **`pdep`** — when the CPU has BMI2 and POPCNT and is not an AMD
///   Zen 1/2 (or Hygon) part, one non-inlined
///   `#[target_feature(enable = "bmi2,popcnt")]` call deposits the
///   rank's bit into `v`'s mask (`pdep_select_is_fast`).
/// * **SWAR** — everywhere else: per-byte popcounts, a multiply into
///   prefix counts and a select-in-byte table (`nth_set_bit`). Zen 1/2
///   run `pdep` in microcode, where it loses to this path.
///
/// Both arms return the same vertex, so the choice never moves a
/// sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercubeTopo {
    d: u32,
    /// `neighbor` takes the `pdep` arm; set only where
    /// `pdep_select_is_fast` found BMI2 and POPCNT on this CPU.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pdep: bool,
}

impl HypercubeTopo {
    /// `Q_d` (`1 ≤ d ≤ 30`, matching the CSR generator's range).
    pub fn new(d: u32) -> HypercubeTopo {
        assert!(
            (1..31).contains(&d),
            "hypercube dimension out of supported range"
        );
        HypercubeTopo {
            d,
            pdep: host_has_fast_pdep(),
        }
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

/// Whether this CPU runs the `pdep` select fast: BMI2 and POPCNT
/// present, and not an AMD Zen 1/2 (or Hygon) part.
fn host_has_fast_pdep() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::__cpuid;
        let leaf0 = __cpuid(0);
        let mut vendor = [0u8; 12];
        for (chunk, reg) in vendor.chunks_mut(4).zip([leaf0.ebx, leaf0.edx, leaf0.ecx]) {
            chunk.copy_from_slice(&reg.to_le_bytes());
        }
        pdep_select_is_fast(
            &vendor,
            display_family(__cpuid(1).eax),
            is_x86_feature_detected!("bmi2"),
            is_x86_feature_detected!("popcnt"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The display family of a CPUID leaf-1 `eax` signature: the base
/// family, plus the extended family when the base reads 0xf.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn display_family(eax: u32) -> u32 {
    let base = (eax >> 8) & 0xf;
    if base == 0xf {
        base + ((eax >> 20) & 0xff)
    } else {
        base
    }
}

/// The CPU check behind [`HypercubeTopo`]'s `pdep` arm, as a pure
/// function of the CPUID vendor string, the display family and the two
/// feature bits. AMD family 17h (Zen 1/2) and its Hygon derivative
/// (family 18h) implement `pdep` in microcode, with a latency that
/// grows with the mask's popcount; Intel (Haswell on) and AMD family
/// 19h on (Zen 3+) run it in 3 cycles. Source: Agner Fog's
/// "Instruction tables" (the AMD Zen 1/2 and Zen 3 sections) and the
/// `PDEP` rows of uops.info. The exclusion follows those tables; it has
/// not been measured on a Zen 1/2 host.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn pdep_select_is_fast(vendor: &[u8; 12], family: u32, bmi2: bool, popcnt: bool) -> bool {
    let microcoded = matches!(
        (vendor, family),
        (b"AuthenticAMD", 0x17) | (b"HygonGenuine", 0x18)
    );
    bmi2 && popcnt && !microcoded
}

/// `neighbor(v, i)` of the hypercube on the BMI2 select: `_pdep_u32(1
/// << r, mask)` is the `r`-th set bit of `mask`, with the same sign-mask
/// arm choice as the SWAR path. Callers must have found BMI2 and POPCNT
/// on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn neighbor_pdep(v: u32, i: u32) -> u32 {
    let rank = v.count_ones().wrapping_sub(1).wrapping_sub(i);
    let flip = ((rank as i32) >> 31) as u32;
    v ^ core::arch::x86_64::_pdep_u32(1 << (rank ^ flip), v ^ flip)
}

/// `neighbor(v, i)` of the hypercube on the portable SWAR select.
#[inline]
fn neighbor_swar(v: u32, i: u32) -> u32 {
    // Sorted order lists the ids below `v` first: cleared set bits,
    // highest bit first (rank `set − 1 − i` among the set bits of `v`);
    // then the ids above: set unset bits, lowest first (rank `i − set`
    // among the set bits of `!v`). `flip` is all ones exactly in the
    // second case, and `!(set − 1 − i) == i − set`.
    let rank = v.count_ones().wrapping_sub(1).wrapping_sub(i);
    let flip = ((rank as i32) >> 31) as u32;
    v ^ (1 << nth_set_bit(v ^ flip, rank ^ flip))
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
        #[cfg(target_arch = "x86_64")]
        if self.pdep {
            // SAFETY: `pdep` is true only when `new()` found BMI2 and
            // POPCNT on this CPU (`host_has_fast_pdep`), the two
            // features `neighbor_pdep` is compiled for.
            return unsafe { neighbor_pdep(v, i as u32) };
        }
        neighbor_swar(v, i as u32)
    }

    /// Token `(v << 5) | i`: `d ≤ 30` keeps `i` in the low five bits.
    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        ((v as usize) << 5, self.d as usize)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        self.neighbor((pick >> 5) as VertexId, pick & 31)
    }

    /// The sorted order without a select per neighbour: clear `v`'s set
    /// bits from the highest down (the ids below `v`), then set its
    /// unset bits below `d` from the lowest up (the ids above).
    #[inline]
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId)) {
        let mut set = v;
        while set != 0 {
            let top = 1 << (31 - set.leading_zeros());
            f(v ^ top);
            set ^= top;
        }
        let mut unset = !v & ((1 << self.d) - 1);
        while unset != 0 {
            f(v | (unset & unset.wrapping_neg()));
            unset &= unset - 1;
        }
    }

    fn max_degree(&self) -> usize {
        self.d as usize
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

// ---------------------------------------------------------------------------
// Backend selection

/// Which backend a [`crate::GraphSpec`] materializes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Implicit for `complete` and `hypercube`, CSR for every other
    /// family.
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
            "cycle:9",
            "cyclepower:12:2",
            "circulant:9:1+3",
            "grid:4x4",
            "torus:5x5",
        ] {
            let spec: GraphSpec = spec.parse().unwrap();
            let err = spec
                .build_topology(0, Backend::Implicit)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("no implicit backend")
                    && err.contains("implicit families: complete, hypercube)")
                    && !err.contains('\n'),
                "{spec}: error must name the supported set, got {err:?}"
            );
            // Auto falls back to CSR instead.
            let auto = spec.build_topology(0, Backend::Auto).unwrap();
            assert!(!auto.is_implicit(), "{spec}: auto must fall back to CSR");
        }
    }

    #[test]
    fn auto_selects_implicit_for_structured_families() {
        for spec in ["complete:12", "hypercube:6"] {
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

    /// `Q_d` on every select arm this CPU can run: SWAR always, forced
    /// through the private field, and `pdep` where BMI2 is present
    /// (whether or not `new()` chose it).
    fn select_arms(d: u32) -> Vec<HypercubeTopo> {
        let swar = HypercubeTopo {
            pdep: false,
            ..HypercubeTopo::new(d)
        };
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("popcnt") {
            return vec![swar, HypercubeTopo { pdep: true, ..swar }];
        }
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| eprintln!("note: no BMI2 on this CPU; the pdep select arm is untested"));
        vec![swar]
    }

    /// Asserts `neighbor(v, i)` of `Q_d` equals the reference for every
    /// `i < d`, on every select arm.
    fn assert_hypercube_matches_loop(d: u32, v: u32) {
        for q in select_arms(d) {
            for i in 0..d {
                assert_eq!(
                    q.neighbor(v, i as usize),
                    hypercube_neighbor_loop(v, i),
                    "hypercube:{d} ({q:?}): neighbor({v:#x}, {i})"
                );
            }
        }
    }

    #[test]
    fn both_select_arms_match_loop_reference_on_every_16_bit_word() {
        // Each word as a vertex of Q_16, and shifted into the top of
        // Q_30, so the select meets every byte pattern in all four bytes.
        let (q16, q30) = (select_arms(16), select_arms(30));
        for w in 0..=u16::MAX as u32 {
            for (arms, d, v) in [(&q16, 16, w), (&q30, 30, w << 14)] {
                for i in 0..d {
                    let want = hypercube_neighbor_loop(v, i);
                    for q in arms {
                        assert_eq!(
                            q.neighbor(v, i as usize),
                            want,
                            "{q:?}: neighbor({v:#x}, {i})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pdep_check_admits_intel_and_zen3_and_excludes_zen1_and_zen2() {
        let (intel, amd, hygon) = (b"GenuineIntel", b"AuthenticAMD", b"HygonGenuine");
        // Intel (Haswell on is family 6) and AMD Zen 3+ (19h, 1Ah).
        for (vendor, family) in [(intel, 6), (amd, 0x19), (amd, 0x1a)] {
            assert!(pdep_select_is_fast(vendor, family, true, true));
            assert!(!pdep_select_is_fast(vendor, family, false, true));
            assert!(!pdep_select_is_fast(vendor, family, true, false));
        }
        // Zen 1/2 and its Hygon derivative run pdep in microcode.
        assert!(!pdep_select_is_fast(amd, 0x17, true, true));
        assert!(!pdep_select_is_fast(hygon, 0x18, true, true));
        // Leaf-1 signatures: Skylake, Zen 2 (Rome), Zen 3 (Milan).
        for (eax, family) in [(0x0005_06e3, 6), (0x0083_0f10, 0x17), (0x00a0_0f11, 0x19)] {
            assert_eq!(display_family(eax), family, "{eax:#x}");
        }
    }

    /// Asserts `for_each_neighbor(v)` lists `neighbor(v, 0..d)`.
    fn assert_for_each_matches_neighbor(q: &HypercubeTopo, v: u32) {
        let mut listed = Vec::with_capacity(q.d as usize);
        q.for_each_neighbor(v, |w| listed.push(w));
        let want: Vec<u32> = (0..q.d as usize).map(|i| q.neighbor(v, i)).collect();
        assert_eq!(listed, want, "hypercube:{}: for_each_neighbor({v:#x})", q.d);
    }

    #[test]
    fn hypercube_for_each_neighbor_matches_neighbor_on_all_of_q12() {
        let q = HypercubeTopo::new(12);
        for v in 0..1 << 12 {
            assert_for_each_matches_neighbor(&q, v);
        }
    }

    #[test]
    fn pick_tokens_round_trip_on_both_implicit_backends() {
        // Complete at the largest n: implicit, so nothing is allocated.
        for n in [2, 3, 1000, u32::MAX as usize] {
            let k = CompleteTopo::new(n);
            let last = (n - 1) as VertexId;
            for v in [0, 1 % n as VertexId, last / 2, last] {
                let (base, deg) = k.neighbor_range(v);
                assert_eq!(deg, n - 1);
                for i in [0, 1 % deg, deg / 2, deg - 1] {
                    assert_eq!(
                        k.resolve_pick(base + i),
                        k.neighbor(v, i),
                        "complete:{n}: ({v}, {i})"
                    );
                }
            }
        }
        for q in select_arms(30) {
            for v in [0, 1, 0x2aaa_aaaa, (1 << 30) - 1] {
                let (base, deg) = q.neighbor_range(v);
                assert_eq!(deg, 30);
                for i in 0..deg {
                    assert_eq!(
                        q.resolve_pick(base + i),
                        q.neighbor(v, i),
                        "{q:?}: ({v:#x}, {i})"
                    );
                }
            }
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
        fn hypercube_for_each_neighbor_matches_neighbor_on_q30(raw in any::<u32>()) {
            assert_for_each_matches_neighbor(&HypercubeTopo::new(30), raw & ((1 << 30) - 1));
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

    proptest! {
        /// Randomized parameter sweep: every implicit family agrees with
        /// its CSR materialization element for element.
        #[test]
        fn implicit_matches_csr_on_random_parameters(n in 3usize..40, d in 1u32..8) {
            for case in [format!("complete:{n}"), format!("hypercube:{d}")] {
                let spec: GraphSpec = case.parse().unwrap();
                let csr = spec.build(0).unwrap();
                let built = spec.build_topology(0, Backend::Implicit).unwrap();
                with_topology!(&built, |g| assert_matches_csr(g, &csr, &case));
            }
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
