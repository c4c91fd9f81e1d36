//! Integration contract of the sharded trial engine.
//!
//! Three properties make `shards=` safe to expose as a first-class
//! knob:
//!
//! 1. **Thread count is an execution detail.** For a fixed shard count
//!    the trajectory is bit-identical whether the shards run
//!    sequentially or on scoped worker threads, and bit-identical
//!    across reruns — per-shard RNG streams are derived from the trial
//!    seed, never from scheduling.
//! 2. **Backends stay interchangeable under sharding.** The sharded
//!    gather resolves picks through the same [`Topology`] contract as
//!    the unsharded engine, so CSR and implicit runs of the same
//!    sharded spec agree bit-for-bit.
//! 3. **`shards=1` *is* the unsharded engine.** The `SimSpec` layer
//!    delegates single-shard runs to the zero-alloc unsharded path, so
//!    every golden fixture row reproduces its recording verbatim under
//!    `with_shards(1)` — sharding's existence cannot perturb history.
//!
//! (Property 3 is what lets campaign stores keep pre-sharding records
//! warm: a `shards=1` point key is byte-identical to the pre-sharding
//! spelling.)

mod common;

use cobra_graph::Backend;
use cobra_mc::{Completion, StopWhen};
use common::{spec, GOLDEN, GOLDEN_TRIALS};

#[test]
fn sharded_runs_are_thread_and_rerun_invariant() {
    for process in ["cobra:b2", "bips:b2"] {
        let mk = || spec(process, "hypercube:8").with_shards(4);
        let seq = mk().with_threads(1).outcomes().unwrap();
        let par = mk().with_threads(8).outcomes().unwrap();
        let again = mk().with_threads(1).outcomes().unwrap();
        assert_eq!(seq, par, "{process}: thread count changed a sharded run");
        assert_eq!(seq, again, "{process}: sharded rerun diverged");
    }
}

#[test]
fn sharded_runs_are_backend_invariant() {
    for shards in [2, 4, 7] {
        let run = |backend: Backend| {
            spec("cobra:b2", "hypercube:8")
                .with_shards(shards)
                .with_backend(backend)
                .outcomes()
                .unwrap()
        };
        assert_eq!(
            run(Backend::Csr),
            run(Backend::Implicit),
            "backends diverged under shards={shards}"
        );
    }
}

#[test]
fn single_shard_runs_reproduce_every_golden_row() {
    // `with_shards(1)` must be indistinguishable from never mentioning
    // shards at all — for every process family, including the ones the
    // sharded kernels don't cover (walk-like, gossip): shards=1 never
    // reaches the sharded engine.
    for &(process, graph, want) in GOLDEN {
        let outcomes = spec(process, graph)
            .with_shards(1)
            .run_observed(StopWhen::Complete, |_| Completion)
            .unwrap();
        assert_eq!(outcomes.len(), GOLDEN_TRIALS);
        for (i, (o, (rounds, reached, tx))) in outcomes.iter().zip(want).enumerate() {
            assert_eq!(
                (o.rounds, o.reached, o.transmissions),
                (Some(rounds), reached, tx),
                "{process} on {graph}, trial {i}: shards=1 drifted from the recording"
            );
        }
    }
}

#[test]
fn shard_count_is_identity_not_execution() {
    // Different shard counts sample different (equally valid)
    // trajectories — the reason `shards=` participates in campaign
    // point keys while `backend=` and thread count do not.
    let run = |shards| {
        spec("cobra:b2", "hypercube:8")
            .with_shards(shards)
            .outcomes()
            .unwrap()
    };
    assert_ne!(
        run(1),
        run(4),
        "independent per-shard streams should not collide"
    );
}
