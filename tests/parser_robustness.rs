//! Every parser that reads outside input — sweep specs (CLI and HTTP
//! bodies), graph specs, JSON (store lines), HTTP request heads and
//! `.csrbin` graph caches — returns `Ok` or `Err` on arbitrary input and
//! never panics.
//!
//! Random bytes rarely get past a grammar's first token, so the spec
//! parsers are fed strings drawn from a token alphabet of their own
//! vocabulary; JSON and HTTP get both raw bytes and token strings.

use cobra_campaign::SweepSpec;
use cobra_graph::ingest::{read_csrbin, write_csrbin};
use cobra_graph::spec::FAMILY_USAGES;
use cobra_graph::{generators, Graph, GraphSpec};
use cobra_serve::http::Request;
use cobra_util::Json;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

#[rustfmt::skip]
const SPEC_TOKENS: &[&str] = &[
    "0", "1", "2", "3", "4", "5", "7", "9", "12", "64", "0.5", "1e3", "-", ":", "x", "{", "}",
    "..", ";", "=", "|", ",", ".", "+", " ", "?component=giant", "objective=", "graph=",
    "process=", "trials=", "start=", "seed=", "cap=", "shards=", "backend=", "name=", "cover",
    "hit:", "far", "infection:", "duality:h", "trajectory", "cobra:b", "bips:", "rw", "walks:",
    "rho", "lazy", "exact", "csr", "implicit", "auto",
];

#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", "\\", "\\u", "d800", ":", ",", "0", "1", "-", ".", "e", "+", "true",
    "false", "null", "\"k\"", " ", "\n",
];

#[rustfmt::skip]
const HTTP_TOKENS: &[&str] = &[
    "GET", "POST", " ", "/", "campaigns", "/campaigns", " HTTP/1.1", "HTTP/2", "\r\n", "\n",
    "Content-Length", ":", "content-length: ", "0", "1", "7", "-1", "99999999999999999999", "body",
    "\r",
];

/// Joins the tokens an index vector picks.
fn join(alphabet: &[&str], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| alphabet[i % alphabet.len()])
        .collect()
}

/// The spec alphabet plus every graph family name, bare and as a
/// `family:` prefix.
fn spec_text(picks: &[usize]) -> String {
    let prefixes: Vec<String> = FAMILY_USAGES
        .iter()
        .map(|(name, _)| format!("{name}:"))
        .collect();
    let alphabet: Vec<&str> = SPEC_TOKENS
        .iter()
        .copied()
        .chain(FAMILY_USAGES.iter().map(|(name, _)| *name))
        .chain(prefixes.iter().map(String::as_str))
        .collect();
    join(&alphabet, picks)
}

// Each segment alphabet is mostly whole valid units, plus a few
// fragments that break them; the wide alphabet above covers the soup.
#[rustfmt::skip]
const OBJECTIVE_TOKENS: &[&str] = &[
    "cover", "hit:far", "hit:3", "hit:99", "infection:0.5", "infection:1", "{cover,hit:far}",
    "trajectory", "hit:", ",",
];

#[rustfmt::skip]
const GRAPH_TOKENS: &[&str] = &[
    "cycle:8", "cycle:{8..9}", "hypercube:3", "grid:3x4", "torus:{3,4}x3", "gnp:12:0.5",
    "rreg:8:3", "lollipop:9", "complete:5", "path:{2..4}", "file:.", "|", "{", "x",
];

#[rustfmt::skip]
const PROCESS_TOKENS: &[&str] = &[
    "cobra:b2", "rw", "bips:b{1,2}", "walks:2", "cobra:rho0.5:lazy", "cobra:b{1..3}", "|",
    ":exact",
];

#[rustfmt::skip]
const OPTION_TOKENS: &[&str] = &[
    "; start=1", "; start=40", "; seed=3", "; shards=2", "; backend=csr", "; backend=implicit",
    "; cap=99", "; name=n", "; shards=", "-1", "18446744073709551616",
];

/// A sweep with every segment in place and token soup inside each, so
/// a useful share of the cases gets past parsing into `expand_axes`.
fn sweep_text(
    objective: &[usize],
    graph: &[usize],
    process: &[usize],
    options: &[usize],
) -> String {
    format!(
        "{}; graph={}; process={}; trials=2{}",
        join(OBJECTIVE_TOKENS, objective),
        join(GRAPH_TOKENS, graph),
        join(PROCESS_TOKENS, process),
        join(OPTION_TOKENS, options)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn sweep_specs_parse_and_expand_without_panicking(picks in vec(0usize..1000, 0..32)) {
        let text = spec_text(&picks);
        if let Ok(spec) = text.parse::<SweepSpec>() {
            let _ = spec.expand_axes();
        }
    }

    #[test]
    fn shaped_sweeps_parse_and_expand_without_panicking(
        objective in vec(0usize..1000, 1..3),
        graph in vec(0usize..1000, 1..3),
        process in vec(0usize..1000, 1..3),
        options in vec(0usize..1000, 0..3),
    ) {
        let text = sweep_text(&objective, &graph, &process, &options);
        if let Ok(spec) = text.parse::<SweepSpec>() {
            let _ = spec.expand_axes();
        }
    }

    #[test]
    fn graph_specs_parse_and_validate_without_panicking(
        picks in vec(0usize..1000, 0..12),
        shaped in vec(0usize..1000, 1..3),
    ) {
        for text in [spec_text(&picks), join(GRAPH_TOKENS, &shaped)] {
            if let Ok(spec) = text.parse::<GraphSpec>() {
                let _ = spec.validate();
            }
        }
    }

    #[test]
    fn json_parses_random_bytes_and_tokens_without_panicking(
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(0usize..1000, 0..48),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        let _ = Json::parse(&join(JSON_TOKENS, &picks));
    }

    #[test]
    fn http_heads_parse_random_bytes_and_tokens_without_panicking(
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(0usize..1000, 0..32),
    ) {
        let _ = Request::read_from(&mut bytes.as_slice());
        let _ = Request::read_from(&mut join(HTTP_TOKENS, &picks).as_bytes());
    }
}

/// A per-test `.csrbin` path (tests run in parallel; cases within one
/// test run in turn, so each test rewrites its own file).
fn csrbin_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cobra-robust-{}-{tag}.csrbin", std::process::id()))
}

/// The graph behind [`valid_csrbin`]: irregular, n = 9, m = 18.
fn cached_graph() -> Graph {
    generators::lollipop(6, 3)
}

/// The bytes of a valid cache for an irregular graph, written once.
fn valid_csrbin() -> Vec<u8> {
    static VALID: OnceLock<Vec<u8>> = OnceLock::new();
    VALID
        .get_or_init(|| {
            let path = csrbin_path("valid");
            write_csrbin(&path, &cached_graph(), 7, false).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        })
        .clone()
}

/// Writes `bytes` as a cache file and loads it.
fn read_bytes(tag: &str, bytes: &[u8]) -> Result<Graph, String> {
    let path = csrbin_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let read = read_csrbin(&path, None, false);
    let _ = std::fs::remove_file(&path);
    read
}

/// Every single-byte flip of a valid cache, at every position and with
/// every mask, fails the load. Every header byte is under the header
/// checksum and every body byte under a section checksum, and FNV-1a
/// changes with any one changed byte, so not even a flip that keeps
/// every offset and neighbour id in range may load as another graph.
#[test]
fn csrbin_flipped_byte_is_caught_at_open_or_by_the_checksums() {
    let valid = valid_csrbin();
    assert_eq!(read_bytes("intact", &valid), Ok(cached_graph()));
    for at in 0..valid.len() {
        for mask in 1..=u8::MAX {
            let mut bytes = valid.clone();
            bytes[at] ^= mask;
            assert!(
                read_bytes("flipped", &bytes).is_err(),
                "byte {at} ^ {mask:#x} loaded"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn csrbin_open_rejects_random_bytes(bytes in vec(any::<u8>(), 0..512)) {
        prop_assert!(read_bytes("random", &bytes).is_err());
    }

    #[test]
    fn csrbin_open_rejects_a_truncated_cache(cut in 0usize..100_000) {
        let bytes = valid_csrbin();
        let cut = cut % bytes.len();
        prop_assert!(read_bytes("truncated", &bytes[..cut]).is_err());
    }

    #[test]
    fn csrbin_flipped_body_byte_fails_open_or_stays_in_range(
        at in 0usize..100_000,
        mask in 1u32..256,
    ) {
        // The body is the offsets (8 bytes per vertex, plus one) and the
        // adjacency (4 bytes per directed edge) after the header.
        let g = cached_graph();
        let body = 8 * (g.n() + 1) + 8 * g.m();
        let mut bytes = valid_csrbin();
        let at = bytes.len() - body + at % body;
        bytes[at] ^= mask as u8;
        // The load checks the structure and the section checksums; a
        // flip that got past them could give another graph, never an
        // unsafe one.
        if let Ok(read) = read_bytes("body", &bytes) {
            for v in 0..read.n() as u32 {
                for &w in read.neighbors(v) {
                    prop_assert!((w as usize) < read.n(), "byte {at}: vertex {v} neighbour {w}");
                }
            }
        }
    }
}
