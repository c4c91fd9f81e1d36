//! End-to-end ingestion: the committed SNAP fixture through the full
//! `file:` spec pipeline, plus golden cover runs on the adversarial
//! families.
//!
//! The fixture `tests/data/smoke.snap` is a 30-vertex ring with
//! distance-5 chords, written SNAP-style: comment lines, 1-based sparse
//! ids (multiples of 3, so loading must compact), one duplicated edge
//! and one self-loop. Every test copies it into a private scratch
//! directory before loading — the loader writes a `.csrbin` cache next
//! to its input, and parallel tests must not race on one file.

use cobra::{SimSpec, TrialOutcome};
use cobra_graph::{ingest, Backend, Graph, GraphSpec};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/smoke.snap");

/// Copies the committed fixture into a fresh scratch dir and returns
/// the copy's path (each caller gets its own `.csrbin` neighborhood).
fn scratch_fixture(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cobra-ingestion-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let dst = dir.join("smoke.snap");
    std::fs::copy(FIXTURE, &dst).unwrap();
    dst
}

fn file_spec(path: &Path) -> String {
    format!("file:{}", path.display())
}

/// The inode of `path`: a cache rewrite (temp file + rename) changes
/// it, a read leaves it.
fn inode(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().ino()
}

#[test]
fn fixture_loads_with_the_documented_policy() {
    let path = scratch_fixture("policy");
    let (g, stats) = ingest::load_edge_list(&path).unwrap();
    assert_eq!((g.n(), g.m()), (30, 60), "ring + chords on 30 vertices");
    assert_eq!(stats.comments, 3, "two # lines and one % line");
    assert_eq!(stats.self_loops, 1);
    assert_eq!(stats.duplicates, 1);
    assert!(stats.compacted, "sparse 1-based ids must renumber");
    // Every vertex touches 2 ring edges and 2 chords.
    assert!((0..30).all(|v| g.degree(v) == 4));
}

#[test]
fn fixture_cover_runs_bit_identically_cold_and_warm() {
    let path = scratch_fixture("coldwarm");
    let spec = file_spec(&path);

    // Cold: no cache on disk yet — the run parses the text.
    assert!(!ingest::cache_path(&path, false).exists());
    let run = || {
        SimSpec::parse(&spec, "cobra:b2")
            .unwrap()
            .with_trials(6)
            .outcomes()
            .unwrap()
    };
    let cold = run();
    assert!(cold.iter().all(|o| o.rounds.is_some() && o.reached == 30));

    // The cold run left a `.csrbin`; the warm run loads it into the
    // ordinary CSR graph instead of re-parsing the text, so the cache
    // file is not rewritten.
    let cache = ingest::cache_path(&path, false);
    let cache_inode = inode(&cache);
    let digest = ingest::digest_file(&path).unwrap();
    assert!(ingest::try_open_cached(&path, digest, false).is_some());
    let resolved = SimSpec::parse(&spec, "cobra:b2")
        .unwrap()
        .resolve()
        .unwrap();
    assert_eq!(resolved.backend, "csr");
    let (n, m) = (resolved.n, resolved.m);
    assert_eq!(
        resolved.graph_bytes,
        std::mem::size_of::<Graph>() + 8 * (n + 1) + 8 * m,
        "one CSR graph: (n + 1) offsets and 2m neighbour ids"
    );
    let warm = run();
    assert_eq!(cold, warm, "text parse and binary cache diverged");
    assert_eq!(
        inode(&cache),
        cache_inode,
        "a warm run must not rewrite the cache"
    );

    // Forcing CSR materializes but still agrees bit for bit.
    let forced = SimSpec::parse(&spec, "cobra:b2")
        .unwrap()
        .with_trials(6)
        .with_backend(Backend::Csr)
        .outcomes()
        .unwrap();
    assert_eq!(cold, forced);
}

/// Runs the fixture cold, applies `flip` to its `.csrbin`, and checks
/// that the flipped cache is refused, that the next run re-parses the
/// text to the cold outcomes, and that the re-parse rewrote the cache.
fn flipped_cache_is_reparsed_and_healed(tag: &str, flip: fn(&mut [u8])) {
    let path = scratch_fixture(tag);
    let spec = file_spec(&path);
    let run = || {
        SimSpec::parse(&spec, "cobra:b2")
            .unwrap()
            .with_trials(4)
            .outcomes()
            .unwrap()
    };
    let cold = run();
    let (cold_graph, _) = ingest::load_edge_list(&path).unwrap();
    let digest = ingest::digest_file(&path).unwrap();

    let cache = ingest::cache_path(&path, false);
    let mut bytes = std::fs::read(&cache).unwrap();
    flip(&mut bytes);
    std::fs::write(&cache, &bytes).unwrap();
    assert!(
        ingest::try_open_cached(&path, digest, false).is_none(),
        "a flipped cache must not load"
    );
    let reparsed = run();
    assert_eq!(cold, reparsed);
    // And the re-parse healed the cache on disk.
    assert_eq!(
        ingest::try_open_cached(&path, digest, false),
        Some(cold_graph)
    );
}

#[test]
fn corrupted_cache_falls_back_to_the_text_parse() {
    // A header byte (the version field).
    flipped_cache_is_reparsed_and_healed("corrupt", |b| b[9] ^= 0xFF);
}

#[test]
fn in_range_body_flip_falls_back_to_the_text_parse() {
    // Bit 0 of the last neighbour id: every id stays below n, so only
    // the section checksums can tell this cache from another graph's.
    flipped_cache_is_reparsed_and_healed("in-range", |b| {
        let last = b.len() - 4;
        b[last] ^= 1;
    });
}

#[test]
fn file_identity_is_content_addressed_end_to_end() {
    let a = scratch_fixture("identity-a");
    let b = scratch_fixture("identity-b");
    let sa: GraphSpec = file_spec(&a).parse().unwrap();
    let sb: GraphSpec = file_spec(&b).parse().unwrap();
    // Same bytes under two paths: one digest, one key.
    assert_eq!(sa.digest(), sb.digest());
    assert_eq!(sa.key_string(), sb.key_string());
    assert_ne!(sa.to_string(), sb.to_string(), "display keeps the path");
}

/// Golden cover run on `lollipop:64` (cobra:b2, 8 trials, workspace
/// default seed), recorded on this PR's seed lineage. The adversarial
/// families are deterministic single-arity shapes, so any drift here
/// means the generator or the engine changed behavior.
const GOLDEN_LOLLIPOP64: [usize; 8] = [84, 34, 43, 52, 37, 120, 130, 78];
/// The same point on the 2-shard partitioned engine — a different,
/// equally pinned sample path (shard count is part of a result's
/// identity).
const GOLDEN_LOLLIPOP64_SHARDS2: [usize; 8] = [107, 179, 117, 85, 45, 54, 80, 55];

#[test]
fn golden_lollipop_cover_is_thread_and_shard_invariant() {
    let run = |threads: usize, shards: usize| {
        SimSpec::parse("lollipop:64", "cobra:b2")
            .unwrap()
            .with_trials(8)
            .with_threads(threads)
            .with_shards(shards)
            .outcomes()
            .unwrap()
    };
    let samples = |outcomes: &[TrialOutcome]| -> Vec<usize> {
        outcomes.iter().map(|o| o.rounds.unwrap()).collect()
    };
    for threads in [1, 8] {
        let est = run(threads, 1);
        assert_eq!(
            samples(&est),
            GOLDEN_LOLLIPOP64,
            "unsharded lollipop:64 drifted (threads={threads})"
        );
        assert!(est.iter().all(|o| o.reached == 64));
        let sharded = run(threads, 2);
        assert_eq!(
            samples(&sharded),
            GOLDEN_LOLLIPOP64_SHARDS2,
            "sharded lollipop:64 drifted (threads={threads})"
        );
    }
}

#[test]
fn adversarial_families_cover_end_to_end() {
    // One cover estimate per new family, spec-to-summary: the point is
    // that every spelling drives the whole pipeline, not the values.
    for graph in [
        "lollipop:48",
        "barbell:48",
        "twoclique:16:8",
        "rreg:64:4",
        "pa:64:3",
    ] {
        let est = SimSpec::parse(graph, "cobra:b2")
            .unwrap()
            .with_trials(4)
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        assert_eq!(est.censored, 0, "{graph} censored");
        assert!(est.mean_reached > 0.0);
    }
}
