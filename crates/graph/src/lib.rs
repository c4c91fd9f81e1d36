//! Graph substrate for the COBRA reproduction.
//!
//! The paper studies spreading processes on undirected connected graphs;
//! every experiment needs (a) a compact graph representation with O(1)
//! uniform neighbour sampling, (b) the graph families the paper reasons
//! about, and (c) structural properties (connectivity, bipartiteness,
//! diameter, degrees) that parameterise the bounds.
//!
//! * [`Graph`] — immutable CSR adjacency structure.
//! * [`generators`] — complete graphs, cycles, paths, stars, grids/tori,
//!   hypercubes, trees, random regular graphs, G(n,p), cycle powers,
//!   regular ring of cliques, barbells, lollipops, and friends.
//! * [`props`] — BFS, connectivity, components, bipartiteness, diameter,
//!   degree statistics.
//! * [`ingest`] — edge-list/SNAP file loading (`file:<path>` specs):
//!   id compaction, duplicate/self-loop policy, content digests, and a
//!   versioned binary CSR cache (`.csrbin`) that [`ingest::read_csrbin`]
//!   loads back into the same [`Graph`] without a text parse, checking
//!   every byte.
//! * [`spec`] — [`GraphSpec`]: every family as a parseable/printable
//!   value (`"hypercube:10"`, `"grid:32x32"`, `"gnp:2000:0.01"`, …), the
//!   declarative entry point the `SimSpec` API builds on.
//! * [`topology`] — the [`Topology`] trait every simulation kernel
//!   reads its graph through, with two backend families: the CSR
//!   [`Graph`] and **implicit** O(1)-memory `complete` and `hypercube`
//!   graphs that compute adjacency on the fly. Backends agree bit
//!   for bit: sorted neighbour enumeration, pick-token resolution, and
//!   RNG sampling are identical, so `backend=csr|implicit` is an
//!   execution detail, never part of a result's identity.

pub mod csr;
pub mod generators;
pub mod ingest;
pub mod props;
pub mod shard;
pub mod spec;
pub mod topology;

pub use csr::{Graph, GraphError, VertexId};
pub use ingest::{IngestError, IngestStats};
pub use shard::ShardMap;
pub use spec::{GraphSpec, GraphSpecError, IMPLICIT_FAMILIES};
pub use topology::{
    Backend, BuiltTopology, CompleteTopo, GraphShape, HypercubeTopo, Topology, BACKEND_CHOICES,
};
