//! Graph ingestion: edge-list/SNAP text loading and a binary CSR
//! cache.
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
//!   checksums — and later loads read it back with [`read_csrbin`]: one
//!   sequential pass straight into the same [`Graph`], with no text parse
//!   and no id compaction, that checks every byte and rejects a corrupt
//!   cache so the caller re-parses the text.

use crate::csr::{Duplicates, Graph, GraphError, VertexId};
use crate::props;
use cobra_util::hash::Fnv1a;
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// `.csrbin` container version; bumped on any layout change.
const CSRBIN_VERSION: u32 = 1;

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

/// What [`parse_edge_list`] yields: the compacted vertex count, every
/// edge that is not a self-loop in file order (duplicates kept), and
/// the parse accounting.
type ParsedEdges = (usize, Vec<(VertexId, VertexId)>, IngestStats);

/// Parses SNAP-style edge-list text line by line: one edge per line as
/// two whitespace-separated integer ids (extra columns such as weights
/// or timestamps are ignored), `#`/`%` comment lines and blank lines
/// skipped. Returns `(n, edges, stats)` with ids compacted to `0..n` in
/// sorted-by-original-id order and self-loops dropped. Duplicates stay
/// in `edges` for the CSR build to merge, so
/// `stats.duplicates` is left 0 here; [`load_edge_list`] fills it in.
fn parse_edge_list(mut reader: impl BufRead, path: &Path) -> Result<ParsedEdges, IngestError> {
    let mut stats = IngestStats::default();
    let mut raw: Vec<(u64, u64)> = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|err| IngestError::Io {
            path: path.to_path_buf(),
            err,
        })?;
        if read == 0 {
            break;
        }
        stats.lines += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            stats.comments += 1;
            continue;
        }
        let bad_line = |msg: String| IngestError::Parse {
            path: path.to_path_buf(),
            line: stats.lines,
            msg,
        };
        let mut tok = t.split_whitespace();
        let (a, b) = match (tok.next(), tok.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(bad_line(format!("expected two vertex ids, got {t:?}"))),
        };
        let parse = |s: &str| -> Result<u64, IngestError> {
            s.parse::<u64>()
                .map_err(|_| bad_line(format!("{s:?} is not a non-negative integer vertex id")))
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
    ids.shrink_to_fit();
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
        } else {
            edges.push((lookup(u), lookup(v)));
        }
    }
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

/// Parses an edge-list file into a CSR graph (cold path, no cache),
/// streaming the text: the whole file is never held.
pub fn load_edge_list(path: &Path) -> Result<(Graph, IngestStats), IngestError> {
    let file = fs::File::open(path).map_err(|err| IngestError::Io {
        path: path.to_path_buf(),
        err,
    })?;
    let (n, edges, mut stats) = parse_edge_list(BufReader::new(file), path)?;
    let listed = edges.len();
    let g =
        Graph::from_edge_vec(n, edges, Duplicates::Merge).map_err(|err| IngestError::Graph {
            path: path.to_path_buf(),
            err,
        })?;
    stats.duplicates = listed - g.m();
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

/// Loads a `.csrbin` into an owned [`Graph`]: the one reader behind
/// every warm `file:` load. The file streams through a fixed buffer
/// straight into the CSR arrays, so peak memory is one graph, and every
/// load checks all of it: magic, version, header checksum, giant flag,
/// the source digest (when given), exact length, both section checksums,
/// and the body's structure (offsets start at 0, never decrease and end
/// at `2m`; every neighbour id is below `n`). The structure checks keep
/// a crafted file with valid checksums from reaching the kernels out of
/// range. `Err` carries the reason the caller should fall back to a text
/// re-parse.
pub fn read_csrbin(
    path: &Path,
    expect_digest: Option<u64>,
    expect_giant: bool,
) -> Result<Graph, String> {
    let mut file = fs::File::open(path).map_err(|e| format!("cannot open: {e}"))?;
    let len = file
        .metadata()
        .map_err(|e| format!("cannot stat: {e}"))?
        .len();
    let mut b = [0u8; HEADER_LEN];
    file.read_exact(&mut b)
        .map_err(|_| format!("truncated header ({len} bytes)"))?;
    if b[0..8] != MAGIC {
        return Err("bad magic".into());
    }
    let version = read_u32(&b, 8);
    if version != CSRBIN_VERSION {
        return Err(format!("version {version} != {CSRBIN_VERSION}"));
    }
    if read_u64(&b, 64) != cobra_util::fnv1a_64(&b[..64]) {
        return Err("header checksum mismatch".into());
    }
    let flags = read_u32(&b, 12);
    if (flags & FLAG_GIANT != 0) != expect_giant {
        return Err("giant-component flag mismatch".into());
    }
    let digest = read_u64(&b, 16);
    if let Some(want) = expect_digest {
        if digest != want {
            return Err(format!(
                "stale cache: source digest {digest:016x} != {want:016x}"
            ));
        }
    }
    let n = read_u64(&b, 24) as usize;
    let m = read_u64(&b, 32) as usize;
    let want_len = (|| {
        let off_bytes = 8usize.checked_mul(n.checked_add(1)?)?;
        let nbr_bytes = 4usize.checked_mul(m.checked_mul(2)?)?;
        HEADER_LEN.checked_add(off_bytes)?.checked_add(nbr_bytes)
    })()
    .ok_or("size overflow")?;
    // Checked before the arrays are allocated, so a header cannot ask
    // for more memory than the file holds.
    if len != want_len as u64 {
        return Err(format!("length {len} != expected {want_len}"));
    }
    let read_err = |e: io::Error| format!("cannot read: {e}");
    let (offsets, off_sum) =
        read_section(&mut file, n + 1, |w| u64::from_le_bytes(w) as usize).map_err(read_err)?;
    let (neighbors, nbr_sum) =
        read_section(&mut file, 2 * m, u32::from_le_bytes).map_err(read_err)?;
    if off_sum != read_u64(&b, 48) || nbr_sum != read_u64(&b, 56) {
        return Err("section checksum mismatch".into());
    }
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("corrupt offsets".into());
    }
    if offsets[n] != 2 * m {
        return Err("final offset != 2m".into());
    }
    if neighbors.iter().any(|&w| w as usize >= n) {
        return Err("neighbour id out of range".into());
    }
    Ok(Graph::from_csr_parts(offsets, neighbors))
}

/// Reads `count` little-endian `W`-byte words through a fixed buffer,
/// decoding each into the returned vector, and returns them with the
/// FNV-1a checksum of their bytes.
fn read_section<const W: usize, T>(
    r: &mut impl Read,
    count: usize,
    decode: impl Fn([u8; W]) -> T,
) -> io::Result<(Vec<T>, u64)> {
    // A multiple of every word width, so no word straddles two reads.
    let mut buf = [0u8; 1 << 16];
    let mut out = Vec::with_capacity(count);
    let mut sum = Fnv1a::new();
    let mut left = count * W;
    while left > 0 {
        let k = left.min(buf.len());
        r.read_exact(&mut buf[..k])?;
        sum.update(&buf[..k]);
        out.extend(
            buf[..k]
                .chunks_exact(W)
                .map(|w| decode(w.try_into().unwrap())),
        );
        left -= k;
    }
    Ok((out, sum.finish()))
}

// ---------------------------------------------------------------------------
// Spec-facing entry points
// ---------------------------------------------------------------------------

/// Warm path: load the `.csrbin` for `source` through [`read_csrbin`]
/// if present, matching `digest`, and intact. Any failure (missing,
/// stale, corrupt) returns `None` and the caller re-parses the text.
pub fn try_open_cached(source: &Path, digest: u64, giant: bool) -> Option<Graph> {
    read_csrbin(&cache_path(source, giant), Some(digest), giant).ok()
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
            return Ok((warm, IngestStats::default()));
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
        let (n, edges, _) = parse_edge_list(SNAP.as_bytes(), p).unwrap();
        // Distinct ids {1, 5, 7, 100} -> 0..4 sorted by original id; the
        // self-loop is dropped, the duplicate left for the CSR build.
        assert_eq!(n, 4);
        assert_eq!(edges, vec![(2, 0), (0, 2), (1, 2), (3, 1)]);
        let dir = scratch("policy");
        let path = dir.join("g.snap");
        fs::write(&path, SNAP).unwrap();
        let (g, stats) = load_edge_list(&path).unwrap();
        assert_eq!(g.m(), 3);
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
        let e = parse_edge_list("0 1\nnope\n".as_bytes(), p).unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 2, .. }), "{e}");
        let e = parse_edge_list("0 1\n3 x\n".as_bytes(), p).unwrap_err();
        assert!(e.to_string().contains("\"x\""), "{e}");
        let e = parse_edge_list("# only comments\n".as_bytes(), p).unwrap_err();
        assert!(matches!(e, IngestError::Empty { .. }), "{e}");
        let e = parse_edge_list("0 -1\n".as_bytes(), p).unwrap_err();
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

    /// Recomputes the section and header checksums of a hand-edited
    /// cache, so only the structure checks can reject it.
    fn reseal(b: &mut [u8], n: usize) {
        let off_end = HEADER_LEN + 8 * (n + 1);
        let off_sum = cobra_util::fnv1a_64(&b[HEADER_LEN..off_end]);
        let nbr_sum = cobra_util::fnv1a_64(&b[off_end..]);
        b[48..56].copy_from_slice(&off_sum.to_le_bytes());
        b[56..64].copy_from_slice(&nbr_sum.to_le_bytes());
        let head_sum = cobra_util::fnv1a_64(&b[..64]);
        b[64..72].copy_from_slice(&head_sum.to_le_bytes());
    }

    #[test]
    fn csrbin_round_trips() {
        let dir = scratch("csrbin");
        let path = dir.join("g.snap");
        fs::write(&path, SNAP).unwrap();
        let (g, _) = load_edge_list(&path).unwrap();
        let digest = digest_file(&path).unwrap();
        let cache = cache_path(&path, false);
        write_csrbin(&cache, &g, digest, false).unwrap();

        // Bit-identical to the graph that wrote it, with or without the
        // digest check.
        assert_eq!(read_csrbin(&cache, Some(digest), false).unwrap(), g);
        assert_eq!(read_csrbin(&cache, None, false).unwrap(), g);
        assert_eq!(try_open_cached(&path, digest, false).unwrap(), g);

        // A regular graph keeps its arithmetic adjacency spans on a warm load.
        let torus = crate::generators::torus(&[16, 16]);
        let cache = dir.join("torus.csrbin");
        write_csrbin(&cache, &torus, digest, false).unwrap();
        let warm = read_csrbin(&cache, Some(digest), false).unwrap();
        assert!(warm.has_arithmetic_spans());
        assert_eq!(warm, torus);
    }

    #[test]
    fn corrupt_or_stale_caches_are_rejected() {
        let dir = scratch("corrupt");
        let path = dir.join("g.snap");
        fs::write(&path, SNAP).unwrap();
        let (g, _) = load_edge_list(&path).unwrap();
        let cache = cache_path(&path, false);
        write_csrbin(&cache, &g, 7, false).unwrap();
        let read = || read_csrbin(&cache, Some(7), false);

        // Missing cache.
        assert!(try_open_cached(&dir.join("absent.snap"), 7, false).is_none());
        // Stale digest.
        assert!(read_csrbin(&cache, Some(8), false).is_err());
        assert!(try_open_cached(&path, 8, false).is_none());
        // Wrong giant flag.
        assert!(read_csrbin(&cache, Some(7), true).is_err());
        // Truncation.
        let bytes = fs::read(&cache).unwrap();
        fs::write(&cache, &bytes[..bytes.len() - 1]).unwrap();
        assert!(read().unwrap_err().contains("length"));
        // Header corruption (version field).
        let mut b = bytes.clone();
        b[9] ^= 0xff;
        fs::write(&cache, &b).unwrap();
        assert!(read().is_err());
        // Flipped header byte breaks the header checksum.
        let mut b = bytes.clone();
        b[30] ^= 0x01;
        fs::write(&cache, &b).unwrap();
        assert!(read().unwrap_err().contains("checksum"));
        // A body flip that keeps every id in range (the last id's low
        // bit) fails the section checksums at load.
        let mut b = bytes.clone();
        let last = b.len() - 4;
        b[last] ^= 0x01;
        fs::write(&cache, &b).unwrap();
        assert!(read().unwrap_err().contains("section checksum"));
        // With the checksums resealed, an out-of-range neighbour id (the
        // last id's high byte) and a decreasing offset (vertex 1's) still
        // fail the structure checks.
        let mut b = bytes.clone();
        b[bytes.len() - 1] = 0xff;
        reseal(&mut b, g.n());
        fs::write(&cache, &b).unwrap();
        assert!(read().unwrap_err().contains("neighbour id"));
        let mut b = bytes.clone();
        b[HEADER_LEN + 8 + 7] = 0xff;
        reseal(&mut b, g.n());
        fs::write(&cache, &b).unwrap();
        assert!(read().unwrap_err().contains("offsets"));
        // Intact cache still loads.
        fs::write(&cache, &bytes).unwrap();
        assert_eq!(read().unwrap(), g);
    }

    #[test]
    fn load_and_cache_writes_warm_copy_and_giant_restricts() {
        let dir = scratch("warm");
        let path = dir.join("two-comp.snap");
        // Two components: a triangle {0,1,2} and an edge {8,9}.
        fs::write(&path, "0 1\n1 2\n2 0\n8 9\n").unwrap();
        let digest = digest_file(&path).unwrap();

        let (g, _) = load_and_cache(&path, digest, false).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(try_open_cached(&path, digest, false).unwrap(), g);

        let (giant, _) = load_and_cache(&path, digest, true).unwrap();
        assert_eq!(giant.n(), 3);
        assert_eq!(giant.m(), 3);
        assert_eq!(try_open_cached(&path, digest, true).unwrap(), giant);
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
        // The cache survived the stampede intact: it loads, checksums
        // and all, as the same graph.
        assert_eq!(try_open_cached(&path, digest, false).unwrap(), graphs[0]);
    }
}
