//! Shared golden fixtures for the behavioral-invariance suites.
//!
//! The constants were recorded by running the **pre-refactor** API
//! (build a fresh `Box<dyn SpreadProcess>` per trial, step with a bare
//! `SmallRng`) at commit `cc5fc81`, for every `ProcessSpec` family.
//! `tests/golden_outcomes.rs` pins the zero-allocation engine path to
//! them; `tests/objective_equivalence.rs` pins the unified
//! `Objective`/`measure()` path to the same recordings and to its own
//! per-trial `outcomes()`. One fixture set, two invariants —
//! extend here, not in the suites.
#![allow(dead_code)]

use cobra::SimSpec;

pub const GOLDEN_SEED: u64 = 0x601D;
pub const GOLDEN_TRIALS: usize = 4;

/// One recorded trial: `(rounds, reached, transmissions)`.
pub type Golden = (usize, usize, u64);

/// `(process spec, graph spec, [(rounds, reached, transmissions); 4])`
/// under `StopWhen::Complete`, seed `0x601D`, default caps.
#[rustfmt::skip]
pub const GOLDEN: &[(&str, &str, [Golden; 4])] = &[
    ("cobra:b2", "petersen", [(4, 10, 26), (7, 10, 60), (5, 10, 32), (6, 10, 24)]),
    ("cobra:b2", "torus:6x6", [(12, 36, 234), (12, 36, 230), (11, 36, 192), (15, 36, 220)]),
    ("cobra:b3:lazy", "petersen", [(4, 10, 39), (7, 10, 84), (6, 10, 75), (4, 10, 63)]),
    ("cobra:rho0.5", "petersen", [(4, 10, 18), (11, 10, 42), (8, 10, 26), (15, 10, 54)]),
    ("bips:b2", "petersen", [(6, 10, 108), (5, 10, 90), (4, 10, 72), (8, 10, 144)]),
    ("bips:b2:exact", "petersen", [(5, 10, 90), (5, 10, 90), (8, 10, 144), (7, 10, 126)]),
    ("bips:rho0.4:lazy", "petersen", [(17, 10, 221), (12, 10, 156), (14, 10, 182), (16, 10, 208)]),
    ("rw", "petersen", [(27, 10, 27), (38, 10, 38), (18, 10, 18), (17, 10, 17)]),
    ("rw:lazy", "petersen", [(49, 10, 49), (45, 10, 45), (28, 10, 28), (48, 10, 48)]),
    ("walks:4", "petersen", [(8, 10, 32), (3, 10, 12), (8, 10, 32), (6, 10, 24)]),
    ("coalescing:4:lazy", "petersen", [(48, 10, 51), (9, 10, 28), (32, 10, 35), (42, 10, 45)]),
    ("gossip:push", "petersen", [(7, 10, 37), (6, 10, 29), (6, 10, 26), (7, 10, 34)]),
    ("gossip:pull", "petersen", [(4, 10, 26), (5, 10, 32), (6, 10, 35), (6, 10, 39)]),
    ("gossip:pushpull", "petersen", [(4, 10, 40), (6, 10, 60), (4, 10, 40), (4, 10, 40)]),
];

/// Hitting-time variant: COBRA b=2 on `cycle:24` reaching vertex 12.
#[rustfmt::skip]
pub const GOLDEN_REACHING: (&str, &str, u32, [Golden; 4]) =
    ("cobra:b2", "cycle:24", 12, [(12, 15, 78), (20, 20, 196), (20, 22, 210), (38, 22, 374)]);

/// A golden-seeded spec for one fixture row.
pub fn spec(process: &str, graph: &str) -> SimSpec<'static> {
    SimSpec::parse(graph, process)
        .unwrap_or_else(|e| panic!("{process} on {graph}: {e}"))
        .with_trials(GOLDEN_TRIALS)
        .with_seed(GOLDEN_SEED)
}
