//! Confidence intervals for sample means.
//!
//! Cover-time samples are heavily right-skewed on some graphs, so the
//! harness reports both a normal-approximation interval (fine for the
//! trial counts we run) and a bootstrap percentile interval (robust to
//! skew, used in assertions that gate experiments).

use crate::summary::{quantile_sorted, Summary};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    pub lo: f64,
    pub hi: f64,
    /// Nominal coverage, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// True if `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Two-sided standard-normal quantile for the given confidence level,
/// via Acklam's rational approximation of the inverse normal CDF
/// (absolute error < 1.15e-9 — far below Monte-Carlo noise).
fn z_for_level(level: f64) -> f64 {
    assert!((0.0..1.0).contains(&level), "confidence level in (0,1)");
    let p = 0.5 + level / 2.0;
    inverse_normal_cdf(p)
}

/// Inverse standard normal CDF (quantile function) for `p ∈ (0, 1)`.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument in (0,1)");
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let q;
    if p < P_LOW {
        let r = (-2.0 * p.ln()).sqrt();
        q = (((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0);
    } else if p <= 1.0 - P_LOW {
        let r = p - 0.5;
        let s = r * r;
        q = (((((A[0] * s + A[1]) * s + A[2]) * s + A[3]) * s + A[4]) * s + A[5]) * r
            / (((((B[0] * s + B[1]) * s + B[2]) * s + B[3]) * s + B[4]) * s + 1.0);
    } else {
        let r = (-2.0 * (1.0 - p).ln()).sqrt();
        q = -(((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0);
    }
    q
}

/// Normal-approximation CI for the mean of `samples`.
pub fn normal_mean_ci(samples: &[f64], level: f64) -> ConfidenceInterval {
    let s = Summary::from_samples(samples);
    let z = z_for_level(level);
    let half = z * s.std_error();
    ConfidenceInterval {
        lo: s.mean - half,
        hi: s.mean + half,
        level,
    }
}

/// Bootstrap percentile CI for the mean: `resamples` bootstrap means,
/// interval between the `(1−level)/2` and `(1+level)/2` quantiles.
/// Deterministic given `seed`.
pub fn bootstrap_mean_ci(
    samples: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> ConfidenceInterval {
    assert!(!samples.is_empty(), "bootstrap of empty sample");
    assert!(resamples >= 2, "need at least 2 resamples");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB007_5742_u64);
    let n = samples.len();
    let mut means: Vec<f64> = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += samples[rng.random_range(0..n)];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let alpha = (1.0 - level) / 2.0;
    ConfidenceInterval {
        lo: quantile_sorted(&means, alpha),
        hi: quantile_sorted(&means, 1.0 - alpha),
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values_match_tables() {
        assert!((z_for_level(0.95) - 1.959_964).abs() < 1e-4);
        assert!((z_for_level(0.99) - 2.575_829).abs() < 1e-4);
        assert!((z_for_level(0.90) - 1.644_854).abs() < 1e-4);
    }

    #[test]
    fn inverse_normal_cdf_symmetry() {
        for p in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let q = inverse_normal_cdf(p);
            let q2 = inverse_normal_cdf(1.0 - p);
            assert!((q + q2).abs() < 1e-8, "symmetry at {p}");
        }
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
    }

    #[test]
    fn normal_ci_contains_true_mean_for_tight_sample() {
        let samples: Vec<f64> = (0..1000)
            .map(|i| 10.0 + ((i % 7) as f64 - 3.0) * 0.1)
            .collect();
        let ci = normal_mean_ci(&samples, 0.95);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(ci.contains(mean));
        assert!(ci.width() < 0.1);
    }

    #[test]
    fn normal_ci_widens_with_level() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0).collect();
        let c90 = normal_mean_ci(&samples, 0.90);
        let c99 = normal_mean_ci(&samples, 0.99);
        assert!(c99.width() > c90.width());
        assert!(c99.lo <= c90.lo && c90.hi <= c99.hi);
    }

    #[test]
    fn bootstrap_ci_reasonable_and_deterministic() {
        let samples: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let a = bootstrap_mean_ci(&samples, 0.95, 500, 7);
        let b = bootstrap_mean_ci(&samples, 0.95, 500, 7);
        assert_eq!(a, b, "same seed, same interval");
        assert!(a.contains(4.5), "true mean inside: {a:?}");
        let n = normal_mean_ci(&samples, 0.95);
        // Bootstrap and normal intervals agree to ~2x width here.
        assert!(a.width() < 2.0 * n.width() && n.width() < 2.0 * a.width());
    }

    #[test]
    fn bootstrap_of_constant_sample_is_degenerate() {
        let samples = vec![5.0; 50];
        let ci = bootstrap_mean_ci(&samples, 0.95, 100, 1);
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn rejects_bad_level() {
        z_for_level(1.5);
    }
}
