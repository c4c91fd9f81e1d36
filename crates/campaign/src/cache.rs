//! One build per distinct graph of a plan.
//!
//! A sweep expands into many points that share a graph — `cobra:b1`,
//! `cobra:b2` and `cobra:b3` on `hypercube:14` are three points over
//! one (expensive) graph build. [`GraphMemo`] builds each graph once
//! through [`GraphSpec::build_topology`] and hands every later request
//! the same topology: one [`Arc`](std::sync::Arc) for every CSR graph,
//! `file:` specs included. It never evicts: the points of a plan hold
//! their graphs until the plan drops, so dropping a memo entry would
//! free nothing.
//!
//! The key is the spec's [`GraphSpec::key_string`] (content-addressed
//! for `file:` specs) plus the build seed. Deterministic families
//! ignore the seed at build time, so they are keyed at seed 0 — asking
//! for `torus:8x8` under two seeds hits the same entry.

use crate::runner::PlanCacheStats;
use cobra_graph::{Backend, BuiltTopology, GraphSpec, GraphSpecError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Memoized [`GraphSpec::build_topology`] on one backend.
#[derive(Debug)]
pub struct GraphMemo {
    backend: Backend,
    built: HashMap<(String, u64), BuiltTopology<'static>>,
    stats: PlanCacheStats,
}

impl GraphMemo {
    /// An empty memo building on `backend`.
    pub fn new(backend: Backend) -> GraphMemo {
        GraphMemo {
            backend,
            built: HashMap::new(),
            stats: PlanCacheStats::default(),
        }
    }

    /// The topology of `spec` built at `seed`: built on first request,
    /// shared afterwards. Implicit topologies are a few bytes of
    /// parameters and are not counted in [`GraphMemo::stats`].
    pub fn get(
        &mut self,
        spec: &GraphSpec,
        seed: u64,
    ) -> Result<BuiltTopology<'static>, GraphSpecError> {
        let key_seed = if spec.is_random() { seed } else { 0 };
        match self.built.entry((spec.key_string(), key_seed)) {
            Entry::Occupied(e) => {
                self.stats.hits += usize::from(!e.get().is_implicit());
                Ok(e.get().clone())
            }
            Entry::Vacant(e) => {
                let built = spec.build_topology(seed, self.backend)?;
                if !built.is_implicit() {
                    self.stats.misses += 1;
                    self.stats.resident_bytes += built.memory_bytes();
                }
                Ok(e.insert(built).clone())
            }
        }
    }

    /// Distinct graphs built, implicit ones included.
    pub fn len(&self) -> usize {
        self.built.len()
    }

    /// True if nothing has been built.
    pub fn is_empty(&self) -> bool {
        self.built.is_empty()
    }

    /// Hits, builds and resident bytes so far.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::Topology;
    use std::sync::Arc;

    fn csr(built: BuiltTopology<'static>) -> Arc<cobra_graph::Graph> {
        match built {
            BuiltTopology::Csr(g) => g,
            other => panic!("expected a CSR graph, got {other:?}"),
        }
    }

    #[test]
    fn repeated_requests_build_once() {
        let mut memo = GraphMemo::new(Backend::Csr);
        let spec: GraphSpec = "hypercube:6".parse().unwrap();
        let a = csr(memo.get(&spec, 1).unwrap());
        let b = csr(memo.get(&spec, 1).unwrap());
        assert!(Arc::ptr_eq(&a, &b), "same entry must be shared");
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
        assert_eq!(memo.stats().resident_bytes, a.memory_bytes());
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn deterministic_families_ignore_seed_in_the_key() {
        let mut memo = GraphMemo::new(Backend::Csr);
        let spec: GraphSpec = "torus:5x5".parse().unwrap();
        let a = csr(memo.get(&spec, 1).unwrap());
        let b = csr(memo.get(&spec, 99).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn random_families_key_on_seed() {
        let mut memo = GraphMemo::new(Backend::Csr);
        let spec: GraphSpec = "gnp:64:0.2".parse().unwrap();
        let a = csr(memo.get(&spec, 1).unwrap());
        let b = csr(memo.get(&spec, 2).unwrap());
        assert!(!Arc::ptr_eq(&a, &b), "different seeds, different graphs");
        let a2 = csr(memo.get(&spec, 1).unwrap());
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn file_specs_cache_by_content_and_account_csr_bytes() {
        let dir = std::env::temp_dir().join(format!("cobra-memo-file-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for d in [&a, &b] {
            std::fs::create_dir_all(d).unwrap();
            std::fs::write(d.join("g.snap"), "0 1\n1 2\n2 0\n").unwrap();
        }
        let spec = |d: &std::path::Path| -> GraphSpec {
            format!("file:{}", d.join("g.snap").display())
                .parse()
                .unwrap()
        };

        // Cold: no .csrbin yet — the build parses the text, materialises
        // the CSR graph and writes the binary cache.
        let mut cold = GraphMemo::new(Backend::Auto);
        let g = csr(cold.get(&spec(&a), 0).unwrap());
        assert_eq!(g.n(), 3);
        assert_eq!(cold.stats().resident_bytes, g.memory_bytes());

        // Warm: a new memo loads the cache into the same CSR graph,
        // accounted at the same bytes as the cold build.
        let mut warm = GraphMemo::new(Backend::Auto);
        let loaded = csr(warm.get(&spec(&a), 0).unwrap());
        assert_eq!(loaded, g);
        let resident = warm.stats().resident_bytes;
        assert_eq!(resident, cold.stats().resident_bytes);
        // Repeats hit the entry without re-accounting.
        let again = csr(warm.get(&spec(&a), 0).unwrap());
        assert!(Arc::ptr_eq(&loaded, &again));
        assert_eq!(warm.stats().hits, 1);
        assert_eq!(warm.stats().resident_bytes, resident, "no re-accounting");

        // Another path with the same bytes is the same graph.
        let twin = cold.get(&spec(&b), 0).unwrap();
        assert!(Arc::ptr_eq(&g, &csr(twin)), "keyed by content, not path");
        assert_eq!(cold.len(), 1);

        // Generated families under auto stay implicit and uncounted.
        let h: GraphSpec = "hypercube:4".parse().unwrap();
        assert!(warm.get(&h, 0).unwrap().is_implicit());
        assert_eq!(warm.stats().resident_bytes, resident);
    }
}
