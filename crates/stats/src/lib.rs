//! Statistics substrate for the Monte-Carlo experiments.
//!
//! Every experiment in the reproduction turns simulation trials into one
//! of three artefacts, and this crate owns all three:
//!
//! * point estimates with uncertainty — [`summary`] (Welford running
//!   moments, quantiles) and [`ci`] (normal-approximation and bootstrap
//!   confidence intervals);
//! * scaling exponents — [`regression`] (ordinary least squares and
//!   log–log power-law fits, the tool that turns "cover time vs n"
//!   series into exponents comparable against the paper's bounds);
//! * distribution equality — [`ks`] (empirical CDFs and the two-sample
//!   Kolmogorov–Smirnov test, the tool behind the duality experiment:
//!   Theorem 1.3 asserts two *distributions* coincide).
//!
//! [`streaming`] provides the one-pass reducers (Welford composition +
//! P² quantile markers) that sweep points fold their trials through in
//! O(1) memory, and [`report`] renders results as plain/markdown/CSV
//! tables — the artefact format shared by the experiment suite and the
//! campaign layer.

pub mod ci;
pub mod ks;
pub mod regression;
pub mod report;
pub mod streaming;
pub mod summary;

pub use ci::{bootstrap_mean_ci, normal_mean_ci, ConfidenceInterval};
pub use ks::{ks_two_sample, KsResult};
pub use regression::{fit_line, fit_power_law, LineFit};
pub use report::{fmt_f, Table};
pub use streaming::{P2Quantile, StreamingSummary};
pub use summary::{RunningStats, Summary};
