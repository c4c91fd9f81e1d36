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
//!
//! The two `cobra:b1` rows were added later, recorded at `1787fb8` on the
//! batched COBRA kernel, before single-start `cobra:b1` moved to the
//! random-walk kernel; they pin that move to the same samples.
//!
//! The three `lollipop:12` BIPS rows were added later too, recorded at
//! `c532abc` with the per-candidate floating-point Bernoulli draw, before
//! both BIPS kernels moved to the exact integer threshold table
//! (`InfectionThresholds`). The older BIPS rows run on the 3-regular
//! `petersen`, where every candidate reads the same degree row; the
//! lollipop's degrees 1, 2, 7 and 8 pin every row of the table.
//!
//! The three `doublestar:150x150` COBRA rows were added later as well,
//! recorded at `46f3129` on the three-pass list kernel (draw, resolve,
//! compact), before the fused one-pass kernel. `petersen` and
//! `torus:6x6` fit the coalescing mark in one word, so every round of
//! the older rows takes the dense path. On the double star (n = 302,
//! five mark words) leaves coalesce back into their hub, so the frontier
//! stays a few vertices: `cobra:rho0.5` takes only sparse rounds,
//! `cobra:b2` both kinds and the lazy `cobra:b3:lazy`, whose leaves
//! linger, mostly dense ones. Each hub has 151 neighbours, an adjacency
//! list of ten cache lines. A path or cycle part alone does not give
//! sparse rounds when the start sits in a clique: the clique keeps at
//! least one pick per mark word in every frontier (`cobra:b2` on
//! `lollipop:24:4000` took 44 sparse rounds of 7926).
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
    ("cobra:b2", "doublestar:150x150", [(1509, 302, 8412), (1718, 302, 8276), (1298, 302, 6056), (1050, 302, 6146)]),
    ("cobra:b3:lazy", "doublestar:150x150", [(484, 302, 35295), (650, 302, 44046), (577, 302, 39222), (918, 302, 61158)]),
    ("cobra:rho0.5", "doublestar:150x150", [(1804, 302, 5662), (2410, 302, 5992), (3418, 302, 8490), (1528, 302, 4137)]),
    ("cobra:b1", "petersen", [(27, 10, 27), (38, 10, 38), (18, 10, 18), (17, 10, 17)]),
    ("cobra:b1:lazy", "petersen", [(49, 10, 49), (45, 10, 45), (28, 10, 28), (48, 10, 48)]),
    ("bips:b2", "petersen", [(6, 10, 108), (5, 10, 90), (4, 10, 72), (8, 10, 144)]),
    ("bips:b2:exact", "petersen", [(5, 10, 90), (5, 10, 90), (8, 10, 144), (7, 10, 126)]),
    ("bips:rho0.4:lazy", "petersen", [(17, 10, 221), (12, 10, 156), (14, 10, 182), (16, 10, 208)]),
    ("bips:b2", "lollipop:12", [(16, 12, 352), (8, 12, 176), (9, 12, 198), (12, 12, 264)]),
    ("bips:b3:lazy", "lollipop:12", [(9, 12, 297), (8, 12, 264), (5, 12, 165), (10, 12, 330)]),
    ("bips:rho0.4:lazy", "lollipop:12", [(22, 12, 330), (17, 12, 255), (25, 12, 375), (15, 12, 225)]),
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
