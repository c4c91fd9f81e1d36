//! Small numeric helpers used throughout the workspace.

/// `ceil(log2(n))` for `n ≥ 1`; 0 for `n ∈ {0, 1}`.
///
/// The paper's lower bound on COBRA cover time is
/// `max(log2 n, Diam(G))`; this is the integer form used in reports.
pub fn log2_ceil(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// `floor(log2(n))` for `n ≥ 1`. Panics on 0.
pub fn log2_floor(n: usize) -> u32 {
    assert!(n > 0, "log2_floor(0) undefined");
    usize::BITS - 1 - n.leading_zeros()
}

/// True if `n` is a power of two (and nonzero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// The n-th harmonic number `H_n = 1 + 1/2 + … + 1/n` (0 for n = 0).
///
/// Shows up in the `Θ(n log n)` cover time of the random walk on `K_n`
/// (coupon collector), used as a baseline oracle in tests.
pub fn harmonic(n: usize) -> f64 {
    // Exact summation below a threshold; asymptotic expansion above it.
    if n == 0 {
        return 0.0;
    }
    if n <= 256 {
        (1..=n).map(|k| 1.0 / k as f64).sum()
    } else {
        const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
        let x = n as f64;
        x.ln() + EULER_MASCHERONI + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x)
    }
}

/// Approximate float equality with both relative and absolute tolerance.
pub fn approx_eq(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}

/// Arithmetic mean of a slice (NaN for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Natural log of `n` as f64, with `ln(1) = 0` and a panic on 0 to catch
/// degenerate bound evaluations early.
pub fn ln_usize(n: usize) -> f64 {
    assert!(n > 0, "ln of zero-size input");
    (n as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log2_ceil_small_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn log2_floor_small_values() {
        assert_eq!(log2_floor(1), 0);
        assert_eq!(log2_floor(2), 1);
        assert_eq!(log2_floor(3), 1);
        assert_eq!(log2_floor(4), 2);
        assert_eq!(log2_floor(1023), 9);
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(65));
    }

    #[test]
    fn harmonic_matches_direct_sum() {
        assert_eq!(harmonic(0), 0.0);
        assert!(approx_eq(harmonic(1), 1.0, 1e-12, 0.0));
        assert!(approx_eq(
            harmonic(4),
            1.0 + 0.5 + 1.0 / 3.0 + 0.25,
            1e-12,
            0.0
        ));
        // Asymptotic branch vs direct sum at the crossover.
        let direct: f64 = (1..=1000).map(|k| 1.0 / k as f64).sum();
        assert!(approx_eq(harmonic(1000), direct, 1e-9, 0.0));
    }

    #[test]
    fn mean_of_empty_is_nan() {
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "ln of zero")]
    fn ln_usize_rejects_zero() {
        ln_usize(0);
    }

    proptest! {
        #[test]
        fn log2_bounds_consistent(n in 1usize..1_000_000) {
            let c = log2_ceil(n);
            let f = log2_floor(n);
            prop_assert!(f <= c);
            prop_assert!(c - f <= 1);
            prop_assert!(2usize.pow(f) <= n);
            prop_assert!(n <= 2usize.pow(c));
            if is_power_of_two(n) { prop_assert_eq!(c, f); }
        }

        #[test]
        fn harmonic_is_monotone(n in 1usize..5000) {
            prop_assert!(harmonic(n + 1) > harmonic(n));
        }
    }
}
