//! The experiment registry: every quantitative claim of the paper as a
//! reproducible table.
//!
//! The paper publishes no numbered figures or tables (it is a theory
//! paper), so each experiment regenerates one of its quantitative
//! claims; the mapping to paper locations lives in DESIGN.md §4 and the
//! recorded outcomes in EXPERIMENTS.md.
//!
//! | id  | claim |
//! |-----|-------|
//! | T1  | hypercube bound ladder `O(log⁸ n) → O(log⁴ n) → O(log³ n)` |
//! | F1  | complete graph cover `O(log n)` |
//! | F2  | expander cover `O(log n)` (Thm 1.2 with constant gap) |
//! | F3  | D-dimensional torus cover `≈ n^{1/D}` |
//! | F4  | Thm 1.1 `O(m + dmax² log n)` on irregular families |
//! | F5  | Thm 1.2 gap dependence `O((r/(1−λ) + r²) log n)` |
//! | F6  | duality identity (Thm 1.3) |
//! | F7  | §6 branching factor `b = 1+ρ`: `1/ρ²` bound scaling |
//! | F8  | §3 serialisation: `E(Y_l | history) ≥ 1/2` and eq. (14) |
//! | F9  | Lemma 3.1 degree growth `t(k) = 4k + C'·dmax² log n` |
//! | F10 | Lemma 4.1/4.2 one-round expectation |
//! | F11 | Corollary 5.2 candidate-set lower bound |
//! | F12 | baseline separation (SRW / k-walks / PUSH vs COBRA) |
//! | F13 | §5 phase structure of BIPS |
//! | F14 | Thm 1.3 *exactly*, by subset-space dynamic programming |
//! | F15 | ablation: BIPS round engines (law + cost) |
//! | F16 | ablation: lazy vs plain COBRA on bipartite graphs |
//!
//! Every experiment has two presets: `quick` (seconds; used by tests and
//! Criterion benches) and `full` (the EXPERIMENTS.md fidelity).

pub mod f1;
pub mod f10;
pub mod f11;
pub mod f12;
pub mod f13;
pub mod f14;
pub mod f15;
pub mod f16;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod f8;
pub mod f9;
pub mod t1;

use crate::report::Table;
use crate::sim::SimSpec;
use cobra_stats::Summary;

/// All experiment ids, in presentation order.
pub const ALL_IDS: [&str; 17] = [
    "t1", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "f13", "f14",
    "f15", "f16",
];

/// The stopping-time summary of a static experiment spec. Panics on an
/// invalid spec or when every trial was censored (the experiment must
/// then raise its cap).
fn stopping_summary(spec: SimSpec<'_>) -> Summary {
    spec.measure()
        .unwrap_or_else(|e| panic!("{e}"))
        .into_stopping()
        .expect("stopping objective")
        .summary()
}

/// Runs an experiment by id (case-insensitive). `quick` selects the
/// fast preset. Returns `None` for unknown ids.
pub fn run(id: &str, quick: bool) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "t1" => Some(t1::run(quick)),
        "f1" => Some(f1::run(quick)),
        "f2" => Some(f2::run(quick)),
        "f3" => Some(f3::run(quick)),
        "f4" => Some(f4::run(quick)),
        "f5" => Some(f5::run(quick)),
        "f6" => Some(f6::run(quick)),
        "f7" => Some(f7::run(quick)),
        "f8" => Some(f8::run(quick)),
        "f9" => Some(f9::run(quick)),
        "f10" => Some(f10::run(quick)),
        "f11" => Some(f11::run(quick)),
        "f12" => Some(f12::run(quick)),
        "f13" => Some(f13::run(quick)),
        "f14" => Some(f14::run(quick)),
        "f15" => Some(f15::run(quick)),
        "f16" => Some(f16::run(quick)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("nope", true).is_none());
    }

    #[test]
    fn ids_are_unique_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for id in ALL_IDS {
            assert!(seen.insert(id));
            assert_eq!(id, id.to_ascii_lowercase());
        }
    }
}
