//! Low-level utilities shared across the COBRA reproduction workspace.
//!
//! This crate deliberately has no dependencies: it provides the small,
//! hot data structures the simulation crates lean on.
//!
//! * [`BitSet`] — a fixed-capacity bit set used for vertex membership
//!   (visited sets, infected sets, coalescing marks).
//! * [`UnionFind`] — disjoint sets, the independent reference the
//!   graph crate's component-labelling property test checks against.
//! * [`math`] — tiny numeric helpers (integer logs, harmonic numbers,
//!   approximate float comparison).
//! * [`hash`] — stable FNV-1a content hashing (campaign result keys,
//!   graph-spec digests).
//! * [`json`] — a minimal exact-round-trip JSON writer/parser shared by
//!   the benchmark records and the campaign result store.
//! * [`lockfile`] — advisory cross-process file locks (`flock(2)`),
//!   guarding the graph-cache cold path and campaign store writers.

pub mod bitset;
pub mod hash;
pub mod json;
pub mod lockfile;
pub mod math;
pub mod unionfind;

pub use bitset::BitSet;
pub use hash::{fnv1a_64, fnv1a_str, hex16, Fnv1a};
pub use json::{Json, JsonError};
pub use lockfile::FileLock;
pub use unionfind::UnionFind;
