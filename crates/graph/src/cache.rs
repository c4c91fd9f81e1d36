//! Memoized graph construction for workloads that revisit specs.
//!
//! A parameter sweep expands into many points that share a graph —
//! `cobra:b1`, `cobra:b2`, and `cobra:b3` on `hypercube:14` are three
//! points over one (expensive) graph build. [`GraphCache`] memoizes
//! [`GraphSpec::build`] per `(spec, seed)` so each concrete graph is
//! constructed exactly once per campaign, and hands out [`Arc`]s so the
//! worker pool can share it without copies.
//!
//! The cache key is the spec's canonical [`Display`] string plus the
//! build seed. Deterministic families ignore the seed at build time, so
//! they are normalised to seed 0 in the key — asking for `torus:8x8`
//! under two different campaign seeds hits the same entry.
//!
//! # Bounded residency
//!
//! The cache is **byte-capped** (default [`DEFAULT_CAPACITY_BYTES`]):
//! once the resident CSR bytes exceed the cap, least-recently-used
//! entries are evicted until the newest request fits (the newest entry
//! itself is never evicted, so a single oversized graph still builds).
//! Eviction only drops the cache's own [`Arc`] — workers holding a
//! handle keep their graph alive; the memory is reclaimed when the last
//! handle drops. Multi-family sweeps over large CSR graphs therefore
//! hold at most ~cap bytes of *idle* graphs, instead of growing without
//! limit. Implicit topologies ([`crate::topology`]) never enter this
//! cache at all — they are a few bytes of parameters, rebuilt on
//! demand.
//!
//! [`Display`]: std::fmt::Display

use crate::csr::Graph;
use crate::ingest::MappedCsr;
use crate::spec::{GraphSpec, GraphSpecError};
use crate::topology::Topology;
use cobra_util::hash::fnv1a_str;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

impl GraphSpec {
    /// A stable 64-bit digest of the spec (FNV-1a over
    /// [`GraphSpec::key_string`] — the canonical `Display` string for
    /// generated families, the content-digest form for `file:` specs).
    /// Stable across runs and platforms — the campaign layer derives
    /// graph-build seeds from it
    /// (`cobra_campaign::runner::graph_build_seed`), so changing the
    /// key format re-seeds every random family's build.
    pub fn digest(&self) -> u64 {
        fnv1a_str(&self.key_string())
    }
}

/// Default byte cap on idle cached graphs: 1 GiB (roughly one
/// `hypercube:21` CSR, or many mid-size families).
pub const DEFAULT_CAPACITY_BYTES: usize = 1 << 30;

#[derive(Debug)]
struct Entry {
    graph: Arc<Graph>,
    bytes: usize,
    last_used: u64,
}

/// A memoizing, LRU-byte-capped wrapper around [`GraphSpec::build`].
#[derive(Debug)]
pub struct GraphCache {
    built: HashMap<(String, u64), Entry>,
    /// Warm `file:` graphs served via mmap. Accounted by *resident*
    /// bytes ([`Topology::memory_bytes`] — tens of bytes for a mapped
    /// graph, since pages are demand-paged and shared), not by the
    /// materialized CSR size, so they never trigger LRU pressure and are
    /// exempt from eviction.
    mapped: HashMap<String, MappedCsr>,
    capacity_bytes: usize,
    resident_bytes: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
    tick: u64,
}

impl Default for GraphCache {
    fn default() -> GraphCache {
        GraphCache::new()
    }
}

impl GraphCache {
    /// An empty cache with the default byte cap.
    pub fn new() -> GraphCache {
        GraphCache::with_capacity_bytes(DEFAULT_CAPACITY_BYTES)
    }

    /// An empty cache evicting LRU entries once resident CSR bytes
    /// exceed `capacity_bytes`.
    pub fn with_capacity_bytes(capacity_bytes: usize) -> GraphCache {
        GraphCache {
            built: HashMap::new(),
            mapped: HashMap::new(),
            capacity_bytes,
            resident_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            tick: 0,
        }
    }

    /// The graph for `(spec, seed)`, built on first request and shared
    /// afterwards. Deterministic families are normalised to one entry
    /// regardless of seed.
    pub fn get_or_build(
        &mut self,
        spec: &GraphSpec,
        seed: u64,
    ) -> Result<Arc<Graph>, GraphSpecError> {
        let effective_seed = if spec.is_random() { seed } else { 0 };
        let key = (spec.key_string(), effective_seed);
        self.tick += 1;
        if let Some(entry) = self.built.get_mut(&key) {
            entry.last_used = self.tick;
            self.hits += 1;
            return Ok(Arc::clone(&entry.graph));
        }
        let g = Arc::new(spec.build(effective_seed)?);
        self.misses += 1;
        let bytes = g.memory_bytes();
        self.resident_bytes += bytes;
        self.built.insert(
            key.clone(),
            Entry {
                graph: Arc::clone(&g),
                bytes,
                last_used: self.tick,
            },
        );
        self.evict_over_cap(&key);
        Ok(g)
    }

    /// The mmap-backed view of a warm `file:` spec, if its `.csrbin` is
    /// present and valid. `None` for non-file specs and for cold files
    /// (callers then materialise via [`GraphCache::get_or_build`], which
    /// writes the cache for next time). Entries are shared clones over
    /// one mapping and accounted at their resident size.
    pub fn get_or_map(&mut self, spec: &GraphSpec) -> Option<MappedCsr> {
        let GraphSpec::File {
            path,
            digest,
            giant,
        } = spec
        else {
            return None;
        };
        let key = spec.key_string();
        self.tick += 1;
        if let Some(mapped) = self.mapped.get(&key) {
            self.hits += 1;
            return Some(mapped.clone());
        }
        let mapped = crate::ingest::try_open_cached(Path::new(path), *digest, *giant)?;
        self.misses += 1;
        // Resident size, not materialized size: tens of bytes when the
        // kernel demand-pages the arrays, the buffer length only on the
        // portable read-into-Vec fallback. Mapped entries are never
        // evicted (there is nothing to reclaim), so the bytes are added
        // once and stay.
        self.resident_bytes += mapped.memory_bytes();
        self.mapped.insert(key, mapped.clone());
        Some(mapped)
    }

    /// Evicts least-recently-used entries (never `keep`) until the
    /// resident bytes fit the cap.
    fn evict_over_cap(&mut self, keep: &(String, u64)) {
        while self.resident_bytes > self.capacity_bytes && self.built.len() > 1 {
            let victim = self
                .built
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(entry) = self.built.remove(&victim) {
                self.resident_bytes -= entry.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Distinct graphs currently resident (materialized + mapped).
    pub fn len(&self) -> usize {
        self.built.len() + self.mapped.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.built.is_empty() && self.mapped.is_empty()
    }

    /// `(hits, misses)` counters — misses equal the number of actual
    /// builds (evicted-then-rebuilt graphs count again).
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Entries evicted to stay under the byte cap.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Approximate bytes of the currently resident graphs.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_requests_build_once() {
        let mut cache = GraphCache::new();
        let spec: GraphSpec = "hypercube:6".parse().unwrap();
        let a = cache.get_or_build(&spec, 1).unwrap();
        let b = cache.get_or_build(&spec, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same entry must be shared");
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn deterministic_families_ignore_seed_in_the_key() {
        let mut cache = GraphCache::new();
        let spec: GraphSpec = "torus:5x5".parse().unwrap();
        let a = cache.get_or_build(&spec, 1).unwrap();
        let b = cache.get_or_build(&spec, 99).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn random_families_key_on_seed() {
        let mut cache = GraphCache::new();
        let spec: GraphSpec = "gnp:64:0.2".parse().unwrap();
        let a = cache.get_or_build(&spec, 1).unwrap();
        let b = cache.get_or_build(&spec, 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "different seeds, different graphs");
        let a2 = cache.get_or_build(&spec, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_graph_matches_direct_build() {
        let mut cache = GraphCache::new();
        let spec: GraphSpec = "gnp:64:0.1".parse().unwrap();
        let cached = cache.get_or_build(&spec, 7).unwrap();
        let direct = spec.build(7).unwrap();
        let a: Vec<_> = cached.edges().collect();
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
    fn file_specs_cache_by_content_and_map_at_resident_size() {
        let dir = std::env::temp_dir().join(format!("cobra-cache-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let spec: GraphSpec = format!("file:{}", path.display()).parse().unwrap();

        let mut cache = GraphCache::new();
        // Cold: no .csrbin yet — map misses, build materialises + caches.
        assert!(cache.get_or_map(&spec).is_none());
        let g = cache.get_or_build(&spec, 0).unwrap();
        assert_eq!(g.n(), 3);
        let before = cache.resident_bytes();
        // Warm: the mapped entry is accounted at resident size, far
        // below the materialized CSR bytes.
        let mapped = cache.get_or_map(&spec).expect("csrbin written by build");
        let growth = cache.resident_bytes() - before;
        assert_eq!(growth, mapped.memory_bytes());
        #[cfg(target_os = "linux")]
        assert!(
            growth < g.memory_bytes(),
            "{growth} vs {}",
            g.memory_bytes()
        );
        // Repeat hits share the mapping.
        let again = cache.get_or_map(&spec).unwrap();
        assert_eq!(again.memory_bytes(), mapped.memory_bytes());
        assert_eq!(cache.resident_bytes() - before, growth, "no re-accounting");
        // Non-file specs never map.
        let h: GraphSpec = "hypercube:4".parse().unwrap();
        assert!(cache.get_or_map(&h).is_none());
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        // Three graphs of a few KB each under a cap that fits two.
        let specs: Vec<GraphSpec> = ["cycle:400", "cycle:401", "cycle:402"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let one = specs[0].build(0).unwrap().memory_bytes();
        let mut cache = GraphCache::with_capacity_bytes(2 * one + one / 2);
        let a = cache.get_or_build(&specs[0], 0).unwrap();
        cache.get_or_build(&specs[1], 0).unwrap();
        // Touch the first so the second becomes LRU.
        cache.get_or_build(&specs[0], 0).unwrap();
        cache.get_or_build(&specs[2], 0).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() <= 2 * one + one / 2);
        // The touched entry survived; the LRU one rebuilds on demand.
        let (_, misses_before) = cache.stats();
        let a2 = cache.get_or_build(&specs[0], 0).unwrap();
        assert!(Arc::ptr_eq(&a, &a2), "recently-used entry was evicted");
        cache.get_or_build(&specs[1], 0).unwrap();
        assert_eq!(cache.stats().1, misses_before + 1, "LRU entry rebuilt");
    }

    #[test]
    fn oversized_single_graph_still_builds_and_is_kept() {
        let mut cache = GraphCache::with_capacity_bytes(16);
        let spec: GraphSpec = "cycle:100".parse().unwrap();
        let a = cache.get_or_build(&spec, 0).unwrap();
        assert_eq!(cache.len(), 1, "the newest entry is never evicted");
        let b = cache.get_or_build(&spec, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A second graph displaces the idle one immediately.
        let other: GraphSpec = "cycle:101".parse().unwrap();
        cache.get_or_build(&other, 0).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        // Evicted-but-held graphs stay alive through their Arc.
        assert_eq!(a.n(), 100);
    }
}
