//! Every bound the paper states, as an explicit constant-free formula.
//!
//! These are *shapes*: the paper's constants come from union bounds and
//! are far from tight, so experiments report measured values next to the
//! bound shape evaluated with constant 1 and check ratios/exponents, not
//! absolute values.

use cobra_util::math::ln_usize;

/// Theorem 1.1 (this paper): COBRA b=2 cover time on any connected graph
/// is `O(m + dmax² log n)`.
pub fn thm_1_1(n: usize, m: usize, dmax: usize) -> f64 {
    m as f64 + (dmax * dmax) as f64 * ln_usize(n)
}

/// Theorem 1.2 (this paper): COBRA b=2 cover time on a connected
/// `r`-regular graph with eigenvalue gap `gap = 1 − λ` is
/// `O((r/(1−λ) + r²) log n)`.
pub fn thm_1_2(n: usize, r: usize, gap: f64) -> f64 {
    assert!(gap > 0.0, "Theorem 1.2 needs a positive eigenvalue gap");
    (r as f64 / gap + (r * r) as f64) * ln_usize(n)
}

/// Cooper–Radzik–Rivera PODC 2016: `O((1/(1−λ))³ log n)` for regular
/// graphs — the bound Theorem 1.2 improves when `1 − λ = o(1/√r)`.
pub fn podc16(n: usize, gap: f64) -> f64 {
    assert!(gap > 0.0, "PODC16 bound needs a positive eigenvalue gap");
    ln_usize(n) / (gap * gap * gap)
}

/// SPAA 2016 grid bound: `O(D² n^{1/D})` for the D-dimensional grid.
pub fn spaa16_grid(n: usize, d: u32) -> f64 {
    assert!(d >= 1);
    (d * d) as f64 * (n as f64).powf(1.0 / d as f64)
}

/// Lower bound (§1): COBRA with b=2 needs at least
/// `max(log₂ n, Diam(G))` rounds to inform every vertex.
pub fn lower_bound(n: usize, diam: u32) -> f64 {
    ((n as f64).log2()).max(diam as f64)
}

/// The paper's hypercube ladder (introduction): bound shapes for `Q_d`
/// (`n = 2^d`, `r = log₂ n = d`, lazy gap `1/d`, conductance `Θ(1/d)`).
/// Returns `(spaa16, podc16, this_paper)` evaluated shapes —
/// `O(log⁸ n)`, `O(log⁴ n)`, `O(log³ n)`. The first is
/// Mitzenmacher–Rajaraman–Roche SPAA 2016's `O((r⁴/φ²) log² n)` for
/// `r`-regular graphs with conductance φ.
pub fn hypercube_ladder(d: u32) -> (f64, f64, f64) {
    let dd = d as f64;
    let ln_n = dd * std::f64::consts::LN_2;
    let phi = 1.0 / dd;
    let gap = 1.0 / dd;
    let spaa16 = dd.powi(4) / (phi * phi) * ln_n.powi(2); // = log⁸ shape
    let podc = ln_n / (gap * gap * gap); // = log⁴ shape
    let this_paper = (dd / gap + dd * dd) * ln_n; // = log³ shape
    (spaa16, podc, this_paper)
}

/// Expected cover time of the simple random walk on `K_n` (coupon
/// collector): `(n−1)·H_{n−1}` — the `b = 1` baseline oracle.
pub fn srw_complete_graph_cover(n: usize) -> f64 {
    assert!(n >= 2);
    (n - 1) as f64 * cobra_util::math::harmonic(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm_1_2_beats_podc16_for_small_gap() {
        // The paper: Thm 1.2 improves PODC16 when 1 − λ = o(1/√r).
        let n = 1 << 14;
        let r = 16;
        let gap = 0.001; // ≪ 1/√16 = 0.25
        assert!(thm_1_2(n, r, gap) < podc16(n, gap));
    }

    #[test]
    fn podc16_beats_thm_1_2_for_large_gap_small_r() {
        // With a constant gap and growing r the r² term loses.
        let n = 1 << 14;
        let gap = 0.5;
        let r = 1000;
        assert!(podc16(n, gap) < thm_1_2(n, r, gap));
    }

    #[test]
    fn hypercube_ladder_is_strictly_ordered() {
        for d in 3..=20u32 {
            let (spaa16, podc, this_paper) = hypercube_ladder(d);
            assert!(
                this_paper < podc && podc < spaa16,
                "ladder inverted at d={d}: {this_paper} {podc} {spaa16}"
            );
        }
    }

    #[test]
    fn hypercube_ladder_exponents() {
        // Ratios across d confirm the log-power exponents 8, 4, 3.
        let d1 = 8u32;
        let d2 = 16u32;
        let (s1, p1, t1) = hypercube_ladder(d1);
        let (s2, p2, t2) = hypercube_ladder(d2);
        let exp = |a: f64, b: f64| (b / a).ln() / ((d2 as f64) / (d1 as f64)).ln();
        assert!((exp(s1, s2) - 8.0).abs() < 1e-9);
        assert!((exp(p1, p2) - 4.0).abs() < 1e-9);
        // this-paper shape: d²·ln n = d³·ln2 exactly (the r/gap and r²
        // terms coincide on the hypercube), so exponent 3.
        assert!((exp(t1, t2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_switches_regimes() {
        // Complete graph: log2 n dominates (diam = 1).
        assert_eq!(lower_bound(1024, 1), 10.0);
        // Path: diameter dominates.
        assert_eq!(lower_bound(1024, 1023), 1023.0);
    }

    #[test]
    fn srw_complete_cover_matches_coupon_collector() {
        // n = 4: 3 · H_3 = 3 · 11/6 = 5.5.
        assert!((srw_complete_graph_cover(4) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn grid_bounds_shapes() {
        let n = 1 << 12;
        // 2D: n^{1/2}; SPAA16 adds D² = 4.
        assert!((spaa16_grid(n, 2) - 4.0 * 64.0).abs() < 1e-9);
    }
}
