//! Resolved sweep points and their content-addressed identity.
//!
//! A [`SweepPoint`] is one fully-resolved cell of a sweep grid: a
//! concrete objective × graph spec × process spec, with the trial
//! count, round cap, and RNG seed pinned. Its identity is the
//! `spec_key` string — every parameter that can change
//! the result, spelled out — and the result store addresses records by
//! a stable hash of that key plus the seed and [`CODE_VERSION`].
//!
//! The objective is the first-class [`cobra_mc::Objective`] — any
//! sweepable estimand (`cover`, `hit:V`, `hit:far`, `infection:T`)
//! rides the same machinery, keyed by its canonical spelling
//! (`hit:far` stays `hit:far` in the key: its resolution to a concrete
//! vertex is deterministic per graph).
//!
//! The seed itself derives from the key (via [`cobra_mc::key_seed`]),
//! not from the point's position in the expansion, so results are
//! independent of expansion order, thread count, and whatever other
//! points share the run.

use cobra_graph::{GraphSpec, VertexId};
use cobra_mc::{key_seed, Objective};
use cobra_process::ProcessSpec;
use cobra_util::hash::{fnv1a_str, hex16};

/// Bump to invalidate every stored result (a semantic change to the
/// simulation, the seeding, or the record payload makes old records
/// incomparable; the store keeps them on disk but no key will ever
/// match them again).
///
/// `/2`: the objective became a first-class axis and records stream
/// their summary instead of storing sample vectors.
pub const CODE_VERSION: &str = "cobra-campaign/2";

/// One fully-resolved cell of a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub graph: GraphSpec,
    pub process: ProcessSpec,
    /// The estimand (must be [`Objective::is_sweepable`]).
    pub objective: Objective,
    /// Start vertex (`C_0 = {start}`).
    pub start: VertexId,
    /// Independent trials at this point.
    pub trials: usize,
    /// Resolved per-trial round cap (explicit or from the cap policy).
    pub cap: usize,
    /// Worker shards per trial (`1` = the unsharded engine). Part of
    /// the content key when `> 1`: the shard count fixes the per-shard
    /// RNG streams, so it changes the sampled trajectory — unlike the
    /// graph backend, which never enters the key.
    pub shards: usize,
    /// Key-derived master seed for this point's trials.
    pub seed: u64,
}

impl SweepPoint {
    /// Resolves a point and derives its seed from `(master, key)`.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve(
        graph: GraphSpec,
        process: ProcessSpec,
        objective: Objective,
        start: VertexId,
        trials: usize,
        cap: usize,
        shards: usize,
        master_seed: u64,
    ) -> SweepPoint {
        let mut point = SweepPoint {
            graph,
            process,
            objective,
            start,
            trials,
            cap,
            shards,
            seed: 0,
        };
        point.seed = key_seed(master_seed, &point.spec_key());
        point
    }

    /// The seedless content key: every result-affecting parameter in
    /// canonical spelling, plus the code-version tag.
    ///
    /// `shards=` appears only when `> 1` — the shard count changes the
    /// sampled trajectory, so it is result-affecting, but the
    /// unsharded spelling stays byte-identical to what pre-sharding
    /// stores wrote (their records remain warm).
    ///
    /// The graph coordinate is [`GraphSpec::key_string`], not `Display`:
    /// identical for every generated family, but `file:` specs key by
    /// their content digest, so moving or renaming an edge-list file
    /// never orphans (or wrongly revives) its stored records.
    fn spec_key(&self) -> String {
        let shards = if self.shards > 1 {
            format!("shards={};", self.shards)
        } else {
            String::new()
        };
        format!(
            "{};graph={};process={};start={};trials={};cap={};{}{}",
            self.objective,
            self.graph.key_string(),
            self.process,
            self.start,
            self.trials,
            self.cap,
            shards,
            CODE_VERSION
        )
    }

    /// The full key the store addresses: spec key plus the seed.
    pub fn full_key(&self) -> String {
        format!("{};seed={}", self.spec_key(), self.seed)
    }

    /// Fixed-width hex digest of [`SweepPoint::full_key`] — the
    /// store's lookup key. The full key string is stored alongside it,
    /// so a hash collision cannot silently alias two points.
    pub fn digest_hex(&self) -> String {
        hex16(fnv1a_str(&self.full_key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(graph: &str, process: &str, trials: usize) -> SweepPoint {
        SweepPoint::resolve(
            graph.parse().unwrap(),
            process.parse().unwrap(),
            Objective::Cover,
            0,
            trials,
            10_000,
            1,
            0xC0B7A,
        )
    }

    #[test]
    fn seed_derives_from_content_not_position() {
        let a = point("hypercube:6", "cobra:b2", 8);
        let b = point("hypercube:6", "cobra:b2", 8);
        assert_eq!(a, b);
        assert_eq!(a.digest_hex(), b.digest_hex());
        // Any parameter change moves the seed and the key.
        let c = point("hypercube:7", "cobra:b2", 8);
        let d = point("hypercube:6", "cobra:b3", 8);
        let e = point("hypercube:6", "cobra:b2", 9);
        let mut f = point("hypercube:6", "cobra:b2", 8);
        f = SweepPoint::resolve(
            f.graph,
            f.process,
            "hit:far".parse().unwrap(),
            f.start,
            f.trials,
            f.cap,
            1,
            0xC0B7A,
        );
        for other in [&c, &d, &e, &f] {
            assert_ne!(a.seed, other.seed);
            assert_ne!(a.digest_hex(), other.digest_hex());
        }
    }

    #[test]
    fn shard_count_is_part_of_the_key_but_one_is_silent() {
        let unsharded = point("hypercube:6", "cobra:b2", 8);
        let sharded = SweepPoint::resolve(
            "hypercube:6".parse().unwrap(),
            "cobra:b2".parse().unwrap(),
            Objective::Cover,
            0,
            8,
            10_000,
            4,
            0xC0B7A,
        );
        // shards=1 keys are byte-identical to the pre-sharding spelling
        // (old store records stay warm) …
        assert!(
            !unsharded.spec_key().contains("shards"),
            "{:?}",
            unsharded.spec_key()
        );
        // … while shards>1 is a distinct point: new key, new seed.
        assert!(
            sharded.spec_key().contains("shards=4;"),
            "{:?}",
            sharded.spec_key()
        );
        assert_ne!(unsharded.seed, sharded.seed);
        assert_ne!(unsharded.digest_hex(), sharded.digest_hex());
    }

    #[test]
    fn keys_spell_out_every_parameter() {
        let p = point("hypercube:6", "cobra:b2", 8);
        let key = p.full_key();
        for needle in [
            "cover",
            "graph=hypercube:6",
            "process=cobra:b2",
            "start=0",
            "trials=8",
            "cap=10000",
            CODE_VERSION,
            &format!("seed={}", p.seed),
        ] {
            assert!(key.contains(needle), "{needle:?} missing from {key:?}");
        }
        assert_eq!(p.digest_hex().len(), 16);
    }

    #[test]
    fn file_points_key_by_content_not_path() {
        let dir = std::env::temp_dir().join(format!("cobra-point-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt");
        let b = dir.join("renamed-copy.txt");
        std::fs::write(&a, "0 1\n1 2\n").unwrap();
        std::fs::write(&b, "0 1\n1 2\n").unwrap();
        let pa = point(&format!("file:{}", a.display()), "cobra:b2", 4);
        let pb = point(&format!("file:{}", b.display()), "cobra:b2", 4);
        // Same bytes, different paths: one content key, one seed.
        assert_eq!(pa.spec_key(), pb.spec_key());
        assert_eq!(pa.seed, pb.seed);
        assert!(
            pa.spec_key().contains("graph=file:@"),
            "file keys must be digest-addressed: {:?}",
            pa.spec_key()
        );
        // Different bytes move the key.
        std::fs::write(&b, "0 1\n1 2\n2 3\n").unwrap();
        let pc = point(&format!("file:{}", b.display()), "cobra:b2", 4);
        assert_ne!(pa.spec_key(), pc.spec_key());
    }

    #[test]
    fn objective_spelling_is_canonical_in_the_key() {
        let mut p = point("cycle:12", "rw", 4);
        p = SweepPoint::resolve(
            p.graph,
            p.process,
            "infection:0.50".parse().unwrap(),
            p.start,
            p.trials,
            p.cap,
            1,
            0xC0B7A,
        );
        assert!(
            p.spec_key().starts_with("infection:0.5;"),
            "non-canonical objective spelling in {:?}",
            p.spec_key()
        );
    }
}
