//! `cobra` — the public API of the SPAA 2017 reproduction.
//!
//! This crate turns the substrates (graphs, spectra, processes, the
//! Monte-Carlo engine) into the objects the paper talks about. The
//! single entry point is the declarative [`sim::SimSpec`]: a graph spec
//! × a process spec × an objective, executed by the unified engine.
//!
//! # Quick start
//!
//! ```
//! use cobra::sim::SimSpec;
//!
//! // COBRA b=2 cover time on K_64, 20 seeded trials. Both coordinates
//! // are plain strings, so the same scenario runs from the CLI as
//! // `cobra-exps run --graph complete:64 --process cobra:b2`.
//! let est = SimSpec::parse("complete:64", "cobra:b2")
//!     .unwrap()
//!     .with_trials(20)
//!     .run();
//! let summary = est.summary();
//! // K_64 covers in Θ(log n) rounds; the mean sits well under 50.
//! assert!(summary.mean < 50.0);
//! assert_eq!(est.censored, 0);
//! ```
//!
//! Modules:
//!
//! * [`sim`] — [`sim::SimSpec`] (the builder), [`sim::Objective`] (the
//!   first-class estimand: `cover`, `hit:V`/`hit:far`, `infection:T`,
//!   `duality:h{..}`, `trajectory`), [`sim::Measurement`] /
//!   [`sim::Estimate`] (the streamed and sample-vector results), and
//!   the shared cap policy [`sim::resolve_cap`].
//! * [`cover`] — COBRA cover-time and hitting-time estimation
//!   (Theorems 1.1/1.2 measure `cover(u)`); legacy shims over `SimSpec`.
//! * [`infection`] — BIPS infection-time estimation and infection
//!   trajectories (Theorems 1.4/1.5 measure `infec(v)`).
//! * [`duality`] — two-sided estimation of the duality identity
//!   (Theorem 1.3) with statistical equality tests.
//! * [`bounds`] — every bound named in the paper as an explicit,
//!   constant-free formula: the two new bounds, the prior bounds they
//!   improve, the `max(log₂ n, Diam)` lower bound, and the `1/ρ²`
//!   branching-factor scaling of §6.
//! * [`experiments`] — the experiment registry (`T1`, `F1`–`F16`): each
//!   regenerates one quantitative claim of the paper as a [`report::Table`].
//! * [`report`] — plain/markdown/CSV table rendering for the harness.

pub mod bounds;
pub mod cover;
pub mod duality;
pub mod experiments;
pub mod infection;
pub mod sim;

/// Result tables (re-exported from [`cobra_stats::report`], where they
/// moved so the campaign layer below this crate can produce them too).
pub mod report {
    pub use cobra_stats::report::{fmt_f, Table};
}

pub use cobra_graph::Backend;
pub use cover::{CoverConfig, CoverEstimate};
pub use duality::{duality_check, DualityConfig, DualityReport};
pub use infection::{infection_trajectory, InfectionConfig};
pub use report::Table;
pub use sim::{
    Estimate, GraphSource, HitTarget, Measurement, Objective, ResolvedRun, SimError, SimSpec,
    StoppingEstimate, TrajectoryEstimate,
};
