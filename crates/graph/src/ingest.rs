//! Graph ingestion: edge-list/SNAP text loading and an mmap-backed
//! binary CSR cache.
//!
//! Real-world cover-time workloads (SNAP social/web graphs, the
//! adversarial shapes from the literature) arrive as whitespace-separated
//! edge lists. This module turns them into the same [`Graph`] CSR the
//! synthetic generators produce, with three properties the campaign layer
//! depends on:
//!
//! * **Stable identity.** A `file:` spec is keyed by an FNV-1a digest of
//!   the file *bytes* ([`digest_file`]), so campaign point keys survive
//!   renames and stay warm across machines, and silently-edited inputs
//!   invalidate their caches.
//! * **Deterministic shape.** Arbitrary (possibly sparse, 64-bit) vertex
//!   ids are compacted to dense `0..n` in sorted-by-original-id order;
//!   self-loops are dropped and duplicate edges (SNAP lists both
//!   directions) collapse, both counted in [`IngestStats`]. The result is
//!   bit-identical to [`Graph::from_edges_dedup`] on the same edge list.
//! * **Parse-free reloads.** The first parse writes `<path>.csrbin` — a
//!   versioned little-endian snapshot of the CSR arrays with FNV
//!   checksums — and later loads map it with `mmap(2)` ([`MappedCsr`]),
//!   so a multi-GB graph costs one page table and one sequential
//!   structure check instead of a parse and a copy, and shares physical
//!   pages across every worker process. Platforms without `mmap` read
//!   the file into a `Vec` behind the same type.

use crate::csr::{Graph, GraphError, VertexId};
use crate::props;
use crate::topology::{prefetch_read, Topology};
use cobra_util::hash::Fnv1a;
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `.csrbin` container version; bumped on any layout change.
pub const CSRBIN_VERSION: u32 = 1;

const MAGIC: [u8; 8] = *b"COBRCSR\x01";
/// Fixed header: magic, version, flags, source digest, n, m, max_degree,
/// offsets checksum, neighbors checksum, header checksum.
const HEADER_LEN: usize = 72;
const FLAG_GIANT: u32 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors raised while ingesting an edge-list file.
#[derive(Debug)]
pub enum IngestError {
    /// The file could not be read.
    Io { path: PathBuf, err: io::Error },
    /// A line failed to parse as an edge.
    Parse {
        path: PathBuf,
        line: usize,
        msg: String,
    },
    /// No edges survived parsing.
    Empty { path: PathBuf },
    /// CSR construction rejected the edge list.
    Graph { path: PathBuf, err: GraphError },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, err } => {
                write!(f, "cannot read graph file {}: {err}", path.display())
            }
            IngestError::Parse { path, line, msg } => {
                write!(f, "{}:{line}: {msg}", path.display())
            }
            IngestError::Empty { path } => {
                write!(f, "graph file {} contains no edges", path.display())
            }
            IngestError::Graph { path, err } => {
                write!(f, "graph file {}: {err}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

// ---------------------------------------------------------------------------
// Text parsing
// ---------------------------------------------------------------------------

/// Counters from one text parse; surfaced by the CLI so silent policy
/// (dropped self-loops, collapsed duplicates, id renumbering) is visible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Total lines in the file.
    pub lines: usize,
    /// Comment (`#`/`%`) and blank lines skipped.
    pub comments: usize,
    /// Self-loop edges dropped (their endpoints still count as vertices).
    pub self_loops: usize,
    /// Duplicate undirected edges collapsed (a SNAP file listing both
    /// `u v` and `v u` counts one duplicate per repeated pair).
    pub duplicates: usize,
    /// Whether original ids were renumbered (not already dense `0..n`).
    pub compacted: bool,
}

/// What [`parse_edge_list`] yields: the compacted vertex count, the
/// canonical deduplicated edge list, and the parse accounting.
pub type ParsedEdges = (usize, Vec<(VertexId, VertexId)>, IngestStats);

/// Parses SNAP-style edge-list text: one edge per line as two
/// whitespace-separated integer ids (extra columns such as weights or
/// timestamps are ignored), `#`/`%` comment lines and blank lines
/// skipped. Returns `(n, canonical deduplicated edges, stats)` with ids
/// compacted to `0..n` in sorted-by-original-id order.
pub fn parse_edge_list(text: &str, path: &Path) -> Result<ParsedEdges, IngestError> {
    let mut stats = IngestStats::default();
    let mut raw: Vec<(u64, u64)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        stats.lines += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            stats.comments += 1;
            continue;
        }
        let mut tok = t.split_whitespace();
        let (a, b) = match (tok.next(), tok.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(IngestError::Parse {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    msg: format!("expected two vertex ids, got {t:?}"),
                })
            }
        };
        let parse = |s: &str| -> Result<u64, IngestError> {
            s.parse::<u64>().map_err(|_| IngestError::Parse {
                path: path.to_path_buf(),
                line: idx + 1,
                msg: format!("{s:?} is not a non-negative integer vertex id"),
            })
        };
        raw.push((parse(a)?, parse(b)?));
    }
    if raw.is_empty() {
        return Err(IngestError::Empty {
            path: path.to_path_buf(),
        });
    }

    // Compact ids: sorted original ids -> dense 0..n. Self-loop endpoints
    // keep their vertex (degree 0 unless other edges touch it).
    let mut ids: Vec<u64> = raw.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() > u32::MAX as usize {
        return Err(IngestError::Parse {
            path: path.to_path_buf(),
            line: 0,
            msg: format!("{} distinct vertex ids exceed u32 indexing", ids.len()),
        });
    }
    let n = ids.len();
    stats.compacted = ids.last() != Some(&(n as u64 - 1)) || ids[0] != 0;

    let lookup =
        |id: u64| -> VertexId { ids.binary_search(&id).expect("id collected above") as VertexId };
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(raw.len());
    for &(u, v) in &raw {
        if u == v {
            stats.self_loops += 1;
            continue;
        }
        let (a, b) = (lookup(u), lookup(v));
        edges.push((a.min(b), a.max(b)));
    }
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    stats.duplicates = before - edges.len();
    Ok((n, edges, stats))
}

/// Streaming FNV-1a digest of a file's raw bytes — the content identity
/// of a `file:` spec.
pub fn digest_file(path: &Path) -> io::Result<u64> {
    let mut f = fs::File::open(path)?;
    let mut h = Fnv1a::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let k = f.read(&mut buf)?;
        if k == 0 {
            return Ok(h.finish());
        }
        h.update(&buf[..k]);
    }
}

/// Parses an edge-list file into a CSR graph (cold path, no cache).
pub fn load_edge_list(path: &Path) -> Result<(Graph, IngestStats), IngestError> {
    let text = fs::read_to_string(path).map_err(|err| IngestError::Io {
        path: path.to_path_buf(),
        err,
    })?;
    let (n, edges, stats) = parse_edge_list(&text, path)?;
    let g = Graph::from_edges(n, &edges).map_err(|err| IngestError::Graph {
        path: path.to_path_buf(),
        err,
    })?;
    Ok((g, stats))
}

// ---------------------------------------------------------------------------
// Binary CSR cache (.csrbin)
// ---------------------------------------------------------------------------

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Where the binary cache for `source` lives (`<path>.csrbin`, or
/// `<path>.giant.csrbin` for the giant-component restriction).
pub fn cache_path(source: &Path, giant: bool) -> PathBuf {
    let mut name = source.file_name().unwrap_or_default().to_os_string();
    name.push(if giant { ".giant.csrbin" } else { ".csrbin" });
    source.with_file_name(name)
}

/// Serialises `g` as a `.csrbin` next to `path`'s final location:
/// 72-byte header (magic, version, flags, source digest, `n`, `m`,
/// `max_degree`, per-section FNV checksums, header checksum), then
/// offsets as `u64` LE and neighbors as `u32` LE. Written to a temp file
/// and renamed so concurrent workers never observe a torn cache.
pub fn write_csrbin(path: &Path, g: &Graph, source_digest: u64, giant: bool) -> io::Result<()> {
    let offsets = g.offsets_slice();
    let flat = g.neighbor_flat();

    // Pass 1: section checksums over the exact bytes written below.
    let mut off_sum = Fnv1a::new();
    for &o in offsets {
        off_sum.update(&(o as u64).to_le_bytes());
    }
    let mut nbr_sum = Fnv1a::new();
    for &w in flat {
        nbr_sum.update(&w.to_le_bytes());
    }

    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&CSRBIN_VERSION.to_le_bytes());
    let flags: u32 = if giant { FLAG_GIANT } else { 0 };
    header[12..16].copy_from_slice(&flags.to_le_bytes());
    header[16..24].copy_from_slice(&source_digest.to_le_bytes());
    header[24..32].copy_from_slice(&(g.n() as u64).to_le_bytes());
    header[32..40].copy_from_slice(&(g.m() as u64).to_le_bytes());
    header[40..48].copy_from_slice(&(g.max_degree() as u64).to_le_bytes());
    header[48..56].copy_from_slice(&off_sum.finish().to_le_bytes());
    header[56..64].copy_from_slice(&nbr_sum.finish().to_le_bytes());
    let head_sum = cobra_util::fnv1a_64(&header[..64]);
    header[64..72].copy_from_slice(&head_sum.to_le_bytes());

    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
    {
        let mut w = BufWriter::new(fs::File::create(&tmp)?);
        w.write_all(&header)?;
        for &o in offsets {
            w.write_all(&(o as u64).to_le_bytes())?;
        }
        for &v in flat {
            w.write_all(&v.to_le_bytes())?;
        }
        w.flush()?;
    }
    fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Mapped backing
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_SHARED: c_int = 0x1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// The bytes behind a [`MappedCsr`]: a read-only `mmap(2)` region on
/// Linux, an owned `Vec` elsewhere (or when mapping fails).
#[derive(Debug)]
enum MapBacking {
    Owned(Vec<u8>),
    #[cfg(target_os = "linux")]
    Mapped {
        ptr: *mut u8,
        len: usize,
    },
}

// The mapped region is PROT_READ-only and owned until Drop, so shared
// references to it are as safe as &[u8].
unsafe impl Send for MapBacking {}
unsafe impl Sync for MapBacking {}

impl MapBacking {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            MapBacking::Owned(v) => v,
            #[cfg(target_os = "linux")]
            MapBacking::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            MapBacking::Owned(_) => false,
            #[cfg(target_os = "linux")]
            MapBacking::Mapped { .. } => true,
        }
    }
}

impl Drop for MapBacking {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let MapBacking::Mapped { ptr, len } = *self {
            // Failure leaks the mapping; nothing useful to do in Drop.
            unsafe { sys::munmap(ptr.cast(), len) };
        }
    }
}

#[cfg(target_os = "linux")]
fn map_file(path: &Path) -> io::Result<MapBacking> {
    use std::os::unix::io::AsRawFd;
    let file = fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len == 0 || len > usize::MAX as u64 {
        return Ok(MapBacking::Owned(fs::read(path)?));
    }
    let len = len as usize;
    // MAP_SHARED read-only: pages come straight from the page cache, so
    // every worker process maps the same physical memory.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_SHARED,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr as usize == usize::MAX {
        // MAP_FAILED: fall back to a plain read.
        return Ok(MapBacking::Owned(fs::read(path)?));
    }
    Ok(MapBacking::Mapped {
        ptr: ptr.cast(),
        len,
    })
}

#[cfg(not(target_os = "linux"))]
fn map_file(path: &Path) -> io::Result<MapBacking> {
    Ok(MapBacking::Owned(fs::read(path)?))
}

// ---------------------------------------------------------------------------
// MappedCsr
// ---------------------------------------------------------------------------

/// A CSR graph served directly from `.csrbin` bytes — mmap-backed on
/// Linux, so opening is O(1) in resident memory regardless of graph
/// size. Implements [`Topology`] with the exact pick encoding of
/// [`Graph`] (flat-array indices), so trials are bit-identical to the
/// materialized CSR under the RNG-stream contract.
#[derive(Debug, Clone)]
pub struct MappedCsr {
    data: Arc<MapBacking>,
    n: usize,
    m: usize,
    max_degree: usize,
}

impl MappedCsr {
    /// Opens a `.csrbin`, validating magic, version, header checksum,
    /// exact file length, the final offset, the body's structure
    /// (offsets nondecreasing from 0, every neighbour id below `n`) and
    /// — when given — the expected source digest and giant flag. Body
    /// checksums are only verified on the owned (non-mmap) path and via
    /// [`MappedCsr::verify_checksums`]: the structure check is what
    /// every [`Topology`] read relies on.
    /// `Err` carries the reason the caller should fall back to a text
    /// re-parse.
    pub fn open(
        path: &Path,
        expect_digest: Option<u64>,
        expect_giant: bool,
    ) -> Result<MappedCsr, String> {
        let data = map_file(path).map_err(|e| format!("cannot open: {e}"))?;
        let b = data.bytes();
        if b.len() < HEADER_LEN {
            return Err(format!("truncated header ({} bytes)", b.len()));
        }
        if b[0..8] != MAGIC {
            return Err("bad magic".into());
        }
        let version = read_u32(b, 8);
        if version != CSRBIN_VERSION {
            return Err(format!("version {version} != {CSRBIN_VERSION}"));
        }
        if read_u64(b, 64) != cobra_util::fnv1a_64(&b[..64]) {
            return Err("header checksum mismatch".into());
        }
        let flags = read_u32(b, 12);
        if (flags & FLAG_GIANT != 0) != expect_giant {
            return Err("giant-component flag mismatch".into());
        }
        let digest = read_u64(b, 16);
        if let Some(want) = expect_digest {
            if digest != want {
                return Err(format!(
                    "stale cache: source digest {digest:016x} != {want:016x}"
                ));
            }
        }
        let n = read_u64(b, 24) as usize;
        let m = read_u64(b, 32) as usize;
        let max_degree = read_u64(b, 40) as usize;
        let want_len = (|| {
            let off_bytes = 8usize.checked_mul(n.checked_add(1)?)?;
            let nbr_bytes = 4usize.checked_mul(m.checked_mul(2)?)?;
            HEADER_LEN.checked_add(off_bytes)?.checked_add(nbr_bytes)
        })()
        .ok_or("size overflow")?;
        if b.len() != want_len {
            return Err(format!("length {} != expected {want_len}", b.len()));
        }
        let g = MappedCsr {
            data: Arc::new(data),
            n,
            m,
            max_degree,
        };
        if g.offset(n) != 2 * m {
            return Err("final offset != 2m".into());
        }
        g.check_body()?;
        if !g.data.is_mapped() && !g.verify_checksums() {
            return Err("section checksum mismatch".into());
        }
        Ok(g)
    }

    /// Whether this instance is backed by a live `mmap` region (as
    /// opposed to the portable read-into-`Vec` fallback).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// The source-file content digest recorded in the header.
    pub fn source_digest(&self) -> u64 {
        read_u64(self.data.bytes(), 16)
    }

    /// Recomputes both section checksums against the header. Touches
    /// every page — used by tests and the owned fallback, not the mmap
    /// fast path.
    pub fn verify_checksums(&self) -> bool {
        let b = self.data.bytes();
        let off_end = HEADER_LEN + 8 * (self.n + 1);
        cobra_util::fnv1a_64(&b[HEADER_LEN..off_end]) == read_u64(b, 48)
            && cobra_util::fnv1a_64(&b[off_end..]) == read_u64(b, 56)
    }

    #[inline]
    fn offset(&self, v: usize) -> usize {
        read_u64(self.data.bytes(), HEADER_LEN + 8 * v) as usize
    }

    #[inline]
    fn neighbors_base(&self) -> usize {
        HEADER_LEN + 8 * (self.n + 1)
    }

    #[inline]
    fn neighbor_at(&self, idx: usize) -> VertexId {
        read_u32(self.data.bytes(), self.neighbors_base() + 4 * idx)
    }

    /// The body checks [`open`](Self::open) makes on every path:
    /// offsets start at 0 and never decrease (the final one is `2m`),
    /// and every neighbour id is below `n`. Together they keep every
    /// `neighbor_range` and `resolve_pick` in range, so a corrupt body
    /// behind an intact header is an `Err` at open, not a panic
    /// mid-trial.
    fn check_body(&self) -> Result<(), String> {
        if self.offset(0) != 0 || (0..self.n).any(|v| self.offset(v) > self.offset(v + 1)) {
            return Err("corrupt offsets".into());
        }
        if (0..2 * self.m).any(|i| self.neighbor_at(i) as usize >= self.n) {
            return Err("neighbour id out of range".into());
        }
        Ok(())
    }

    /// Materialises the mapped arrays into an owned [`Graph`]
    /// (bit-identical to the graph that wrote the cache; the body was
    /// checked at open).
    pub fn to_graph(&self) -> Graph {
        let offsets: Vec<usize> = (0..=self.n).map(|v| self.offset(v)).collect();
        let neighbors: Vec<VertexId> = (0..2 * self.m).map(|i| self.neighbor_at(i)).collect();
        Graph::from_csr_parts(offsets, neighbors, self.m)
    }
}

impl Topology for MappedCsr {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.offset(v as usize + 1) - self.offset(v as usize)
    }

    #[inline]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbor_at(self.offset(v as usize) + i)
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        let base = self.offset(v as usize);
        (base, self.offset(v as usize + 1) - base)
    }

    #[inline]
    fn resolve_pick(&self, pick: usize) -> VertexId {
        self.neighbor_at(pick)
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    #[inline]
    fn prefetch_neighbor_meta(&self, v: VertexId) {
        let b = self.data.bytes();
        prefetch_read(unsafe { b.as_ptr().add(HEADER_LEN + 8 * v as usize) });
    }

    #[inline]
    fn prefetch_pick(&self, pick: usize) {
        if pick < 2 * self.m {
            let b = self.data.bytes();
            prefetch_read(unsafe { b.as_ptr().add(self.neighbors_base() + 4 * pick) });
        }
    }

    /// Resident bytes: the struct itself for an mmap backing (pages are
    /// demand-paged and shared, not owned by this process), the full
    /// buffer for the owned fallback.
    fn memory_bytes(&self) -> usize {
        let resident = match &*self.data {
            MapBacking::Owned(v) => v.len(),
            #[cfg(target_os = "linux")]
            MapBacking::Mapped { .. } => 0,
        };
        std::mem::size_of::<Self>() + resident
    }
}

// ---------------------------------------------------------------------------
// Spec-facing entry points
// ---------------------------------------------------------------------------

/// Warm path: open the `.csrbin` for `source` if present, matching
/// `digest`, and structurally valid. Any failure (missing, stale,
/// corrupt) returns `None` and the caller re-parses the text.
pub fn try_open_cached(source: &Path, digest: u64, giant: bool) -> Option<MappedCsr> {
    let cache = cache_path(source, giant);
    if !cache.exists() {
        return None;
    }
    MappedCsr::open(&cache, Some(digest), giant).ok()
}

/// Cold path: parse the text file, optionally restrict to the giant
/// component, and best-effort write the binary cache for next time.
///
/// The parse + cache write runs under an advisory lock on a `.lock`
/// sibling of the cache file, so two processes cold-loading the same
/// source concurrently cannot race the temp-file rename: the loser
/// blocks until the winner finishes, re-checks the now-warm cache, and
/// serves the winner's `.csrbin` instead of re-parsing. Lock
/// acquisition failure (exotic filesystems) degrades to the unlocked
/// cold path — the atomic rename still keeps the cache file itself
/// consistent, the lock only removes the duplicated work and the rename
/// race window.
pub fn load_and_cache(
    source: &Path,
    digest: u64,
    giant: bool,
) -> Result<(Graph, IngestStats), IngestError> {
    let cache = cache_path(source, giant);
    let lock_path = cache.with_extension("csrbin.lock");
    let _lock = cobra_util::FileLock::acquire(&lock_path).ok();
    if _lock.is_some() {
        // Another loader may have populated the cache while we waited.
        if let Some(warm) = try_open_cached(source, digest, giant) {
            return Ok((warm.to_graph(), IngestStats::default()));
        }
    }
    let (full, stats) = load_edge_list(source)?;
    let g = if giant {
        props::largest_component(&full).0
    } else {
        full
    };
    // A cache-write failure (read-only fixture dir, full disk) only costs
    // the next load a re-parse.
    let _ = write_csrbin(&cache, &g, digest, giant);
    Ok((g, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A fresh per-test scratch directory (tests run in parallel and
    /// `.csrbin` writes must not race across tests).
    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cobra-ingest-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    const SNAP: &str = "\
# SNAP-style comment
% pajek-style comment

7 1
1 7
1 1
5 7   99
100 5
";

    #[test]
    fn parser_policy_compacts_dedups_and_counts() {
        let p = Path::new("mem.snap");
        let (n, edges, stats) = parse_edge_list(SNAP, p).unwrap();
        // Distinct ids {1, 5, 7, 100} -> 0..4 sorted by original id.
        assert_eq!(n, 4);
        assert_eq!(edges, vec![(0, 2), (1, 2), (1, 3)]);
        assert_eq!(
            stats,
            IngestStats {
                lines: 8,
                comments: 3,
                self_loops: 1,
                duplicates: 1, // "7 1" and "1 7" are the same undirected edge
                compacted: true,
            }
        );
    }

    #[test]
    fn parser_rejects_bad_lines_with_line_numbers() {
        let p = Path::new("mem.snap");
        let e = parse_edge_list("0 1\nnope\n", p).unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 2, .. }), "{e}");
        let e = parse_edge_list("0 1\n3 x\n", p).unwrap_err();
        assert!(e.to_string().contains("\"x\""), "{e}");
        let e = parse_edge_list("# only comments\n", p).unwrap_err();
        assert!(matches!(e, IngestError::Empty { .. }), "{e}");
        let e = parse_edge_list("0 -1\n", p).unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 1, .. }), "{e}");
    }

    #[test]
    fn loader_matches_in_memory_dedup_build() {
        let dir = scratch("roundtrip");
        let path = dir.join("g.snap");
        fs::write(&path, SNAP).unwrap();
        let (g, _) = load_edge_list(&path).unwrap();
        // Bit-identical to from_edges_dedup on the compacted edge list
        // (including the duplicate, pre-dedup).
        let expect = Graph::from_edges_dedup(4, &[(2, 0), (0, 2), (1, 2), (3, 1)]).unwrap();
        assert_eq!(g, expect);
    }

    #[test]
    fn csrbin_round_trips_and_maps() {
        let dir = scratch("csrbin");
        let path = dir.join("g.snap");
        fs::write(&path, SNAP).unwrap();
        let (g, _) = load_edge_list(&path).unwrap();
        let digest = digest_file(&path).unwrap();
        let cache = cache_path(&path, false);
        write_csrbin(&cache, &g, digest, false).unwrap();

        let mapped = MappedCsr::open(&cache, Some(digest), false).unwrap();
        assert_eq!(mapped.source_digest(), digest);
        assert!(mapped.verify_checksums());
        #[cfg(target_os = "linux")]
        assert!(mapped.is_mapped());
        assert_eq!(mapped.to_graph(), g);
        // Topology surface matches the materialized graph exactly.
        assert_eq!(Topology::n(&mapped), Topology::n(&g));
        assert_eq!(Topology::m(&mapped), Topology::m(&g));
        assert_eq!(Topology::max_degree(&mapped), Topology::max_degree(&g));
        for v in 0..Topology::n(&g) as VertexId {
            assert_eq!(mapped.neighbor_range(v), g.neighbor_range(v));
            for i in 0..Topology::degree(&g, v) {
                assert_eq!(
                    Topology::neighbor(&mapped, v, i),
                    Topology::neighbor(&g, v, i)
                );
            }
        }
        for pick in 0..g.degree_sum() {
            assert_eq!(mapped.resolve_pick(pick), g.resolve_pick(pick));
        }
        // mmap backing reports O(1) resident bytes.
        #[cfg(target_os = "linux")]
        assert!(mapped.memory_bytes() < 128, "{}", mapped.memory_bytes());
    }

    #[test]
    fn corrupt_or_stale_caches_are_rejected() {
        let dir = scratch("corrupt");
        let path = dir.join("g.snap");
        fs::write(&path, SNAP).unwrap();
        let (g, _) = load_edge_list(&path).unwrap();
        let cache = cache_path(&path, false);
        write_csrbin(&cache, &g, 7, false).unwrap();

        // Stale digest.
        assert!(MappedCsr::open(&cache, Some(8), false).is_err());
        assert!(try_open_cached(&path, 8, false).is_none());
        // Wrong giant flag.
        assert!(MappedCsr::open(&cache, Some(7), true).is_err());
        // Truncation.
        let bytes = fs::read(&cache).unwrap();
        fs::write(&cache, &bytes[..bytes.len() - 1]).unwrap();
        assert!(MappedCsr::open(&cache, Some(7), false).is_err());
        // Header corruption (version field).
        let mut b = bytes.clone();
        b[9] ^= 0xff;
        fs::write(&cache, &b).unwrap();
        assert!(MappedCsr::open(&cache, Some(7), false).is_err());
        // Flipped header byte breaks the header checksum.
        let mut b = bytes.clone();
        b[30] ^= 0x01;
        fs::write(&cache, &b).unwrap();
        assert!(MappedCsr::open(&cache, Some(7), false)
            .unwrap_err()
            .contains("checksum"));
        // Body corruption is caught by verify_checksums.
        let mut b = bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        fs::write(&cache, &b).unwrap();
        if let Ok(m) = MappedCsr::open(&cache, Some(7), false) {
            assert!(!m.verify_checksums());
        }
        // An out-of-range neighbour id (the last id's high byte) and a
        // decreasing offset (vertex 1's) fail the structure check.
        b[last] ^= 0xff;
        fs::write(&cache, &b).unwrap();
        assert!(MappedCsr::open(&cache, Some(7), false)
            .unwrap_err()
            .contains("neighbour id"));
        let mut b = bytes.clone();
        b[HEADER_LEN + 8 + 7] = 0xff;
        fs::write(&cache, &b).unwrap();
        assert!(MappedCsr::open(&cache, Some(7), false)
            .unwrap_err()
            .contains("offsets"));
        // Intact cache still opens.
        fs::write(&cache, &bytes).unwrap();
        assert!(MappedCsr::open(&cache, Some(7), false).is_ok());
    }

    #[test]
    fn load_and_cache_writes_warm_copy_and_giant_restricts() {
        let dir = scratch("warm");
        let path = dir.join("two-comp.snap");
        // Two components: a triangle {0,1,2} and an edge {8,9}.
        fs::write(&path, "0 1\n1 2\n2 0\n8 9\n").unwrap();
        let digest = digest_file(&path).unwrap();

        let (g, _) = load_and_cache(&path, digest, false).unwrap();
        assert_eq!(Topology::n(&g), 5);
        let warm = try_open_cached(&path, digest, false).unwrap();
        assert_eq!(warm.to_graph(), g);

        let (giant, _) = load_and_cache(&path, digest, true).unwrap();
        assert_eq!(Topology::n(&giant), 3);
        assert_eq!(Topology::m(&giant), 3);
        let warm = try_open_cached(&path, digest, true).unwrap();
        assert_eq!(warm.to_graph(), giant);
        // The two cache files are distinct.
        assert!(cache_path(&path, false).exists());
        assert!(cache_path(&path, true).exists());
    }

    #[test]
    fn concurrent_cold_loads_serialize_on_the_cache_lock() {
        let dir = scratch("race");
        let path = dir.join("ring.snap");
        let edges: String = (0..64)
            .map(|i| format!("{} {}\n", i, (i + 1) % 64))
            .collect();
        fs::write(&path, edges).unwrap();
        let digest = digest_file(&path).unwrap();

        // Many simultaneous cold loads: the lock serializes the parse +
        // rename, late arrivals serve the winner's cache, and every
        // loader sees the same graph. flock contends per open
        // descriptor, so in-process threads exercise the same path two
        // processes would.
        let graphs: Vec<Graph> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| load_and_cache(&path, digest, false).unwrap().0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for g in &graphs {
            assert_eq!(g, &graphs[0]);
        }
        // The cache survived the stampede and is structurally valid.
        let warm = try_open_cached(&path, digest, false).unwrap();
        assert!(warm.verify_checksums());
        assert_eq!(warm.to_graph(), graphs[0]);
    }
}
