//! Empirical CDFs and the two-sample Kolmogorov–Smirnov test.
//!
//! Theorem 1.3 (duality) asserts that two probabilities — one measured on
//! COBRA sample paths, one on BIPS sample paths — are *equal*. The
//! duality experiment draws hitting-time samples from both processes and
//! uses this test to check the distributions coincide; a small p-value
//! would falsify the implementation (or the theorem).

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone)]
struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF. Panics on empty or non-finite input.
    fn new(samples: &[f64]) -> Ecdf {
        assert!(!samples.is_empty(), "ECDF of empty sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "ECDF needs finite samples"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ecdf { sorted }
    }

    /// `F(x) = P(X ≤ x)` under the empirical measure.
    fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements ≤ x when the
        // predicate is `v <= x` on sorted data.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of samples.
    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The underlying sorted sample.
    fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// Supremum distance between the two ECDFs.
    pub statistic: f64,
    /// Asymptotic p-value for H₀: same distribution.
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Uses the asymptotic Kolmogorov distribution
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}` with the effective sample
/// size `ne = n·m/(n+m)` and the Stephens small-sample correction.
/// Discrete data (our round counts) make the test conservative, which is
/// the safe direction for an equality check.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> KsResult {
    let fa = Ecdf::new(a);
    let fb = Ecdf::new(b);
    // Sup over jump points of either ECDF.
    let mut stat = 0.0f64;
    for &x in fa.sorted_samples().iter().chain(fb.sorted_samples()) {
        stat = stat.max((fa.eval(x) - fb.eval(x)).abs());
        // Also check just below the jump (left limits matter for sup).
        let eps = x.abs().max(1.0) * 1e-12;
        stat = stat.max((fa.eval(x - eps) - fb.eval(x - eps)).abs());
    }
    let ne = (fa.len() as f64 * fb.len() as f64) / (fa.len() + fb.len()) as f64;
    let sqrt_ne = ne.sqrt();
    let lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * stat;
    KsResult {
        statistic: stat,
        p_value: kolmogorov_sf(lambda),
    }
}

/// Kolmogorov survival function `Q(λ)`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0f64;
    let mut sign = 1.0f64;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn ecdf_step_values() {
        let f = Ecdf::new(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(f.eval(0.5), 0.0);
        assert_eq!(f.eval(1.0), 0.25);
        assert_eq!(f.eval(2.0), 0.75);
        assert_eq!(f.eval(2.5), 0.75);
        assert_eq!(f.eval(3.0), 1.0);
        assert_eq!(f.eval(99.0), 1.0);
    }

    #[test]
    fn identical_samples_ks_zero() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let r = ks_two_sample(&xs, &xs);
        assert_eq!(r.statistic, 0.0);
        assert!(r.p_value > 0.999);
    }

    #[test]
    fn disjoint_samples_ks_one() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (100..130).map(|i| i as f64).collect();
        let r = ks_two_sample(&a, &b);
        assert!((r.statistic - 1.0).abs() < 1e-12);
        assert!(r.p_value < 1e-10);
    }

    #[test]
    fn same_distribution_high_p_value() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a: Vec<f64> = (0..400).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..400).map(|_| rng.random::<f64>()).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value > 0.01, "uniform vs uniform rejected: {r:?}");
    }

    #[test]
    fn shifted_distribution_low_p_value() {
        let mut rng = SmallRng::seed_from_u64(6);
        let a: Vec<f64> = (0..400).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..400).map(|_| rng.random::<f64>() + 0.3).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value < 1e-6, "clear shift not detected: {r:?}");
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Known values of the Kolmogorov distribution.
        assert!((kolmogorov_sf(0.5) - 0.9639).abs() < 5e-4);
        assert!((kolmogorov_sf(1.0) - 0.2700).abs() < 5e-4);
        assert!((kolmogorov_sf(1.5) - 0.0222).abs() < 5e-4);
        assert!((kolmogorov_sf(2.0) - 0.000_670).abs() < 5e-5);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert_eq!(kolmogorov_sf(-1.0), 1.0);
    }

    #[test]
    fn discrete_integer_samples_work() {
        // Round counts are small integers; the test must remain usable.
        let a = vec![3.0, 4.0, 4.0, 5.0, 5.0, 5.0, 6.0, 7.0];
        let b = vec![3.0, 4.0, 5.0, 5.0, 5.0, 6.0, 6.0, 7.0];
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value > 0.5, "nearly identical discrete samples: {r:?}");
    }
}
