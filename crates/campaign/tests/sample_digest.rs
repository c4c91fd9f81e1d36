//! The sample pin next to `CODE_VERSION`: a fixed set of points runs
//! through `run_point`, and one digest of every record's sample fields
//! must equal the constant below.
//!
//! A kernel change that keeps the law but moves a sample (another draw
//! order, another RNG word) leaves every statistical test green while
//! stored records silently stop matching what the code computes. This
//! test fails on exactly that. The points cover the kernels the
//! experiments lean on: the BIPS Bernoulli round (plain, lazy, `ρ`
//! branching) and its exact-sampling reference on irregular and regular
//! CSR graphs, the single-particle walk behind `cobra:b1` and `rw`
//! under `cover` and `hit:far`, and the COBRA list kernel.

use cobra_campaign::{default_cap, plan_sweep, run_point, Store, SweepSpec, CODE_VERSION};
use cobra_process::StepCtx;
use cobra_util::hash::Fnv1a;

/// The digest of [`SWEEPS`]' records under `CODE_VERSION`.
const SAMPLE_DIGEST: u64 = 0x6083_a82c_87c7_1e47;

const SWEEPS: [&str; 3] = [
    "cover; graph=grid:16x32|torus:24x32|pa:512:3; \
     process=bips:b2|bips:b2:lazy|bips:rho0.4:lazy|bips:b2:exact; trials=24",
    "objective={cover,hit:far}; graph=lollipop:40|pa:384:3; \
     process=cobra:b1|cobra:b1:lazy|rw; trials=24",
    "cover; graph=rreg:512:4; process=cobra:b2; trials=24",
];

#[test]
fn records_match_the_pinned_digest() {
    let mut digest = Fnv1a::new();
    let mut points = 0;
    for text in SWEEPS {
        let spec: SweepSpec = text.parse().expect("sweep parses");
        let plan = plan_sweep(&spec, &Store::in_memory(), &default_cap).expect("sweep plans");
        for planned in &plan.points {
            let r = run_point(&planned.point, &planned.topology, &mut StepCtx::new());
            // Every field record equality compares; timing is excluded.
            let line = format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:x}|{:x}|{:x}|{:x}|{:x}|{:x}|{:x}|{}|{}\n",
                r.key,
                r.spec,
                r.graph,
                r.process,
                r.objective,
                r.n,
                r.m,
                r.trials,
                r.cap,
                r.completed,
                r.censored,
                r.mean.to_bits(),
                r.std_dev.to_bits(),
                r.min.to_bits(),
                r.max.to_bits(),
                r.q25.to_bits(),
                r.median.to_bits(),
                r.q75.to_bits(),
                r.total_transmissions,
                r.total_reached,
            );
            digest.update(line.as_bytes());
            points += 1;
        }
    }
    assert_eq!(points, 12 + 12 + 1, "the sweeps expand to 25 points");
    let got = digest.finish();
    assert_eq!(
        got, SAMPLE_DIGEST,
        "the records of the pinned points moved (digest {got:#018x}). If the change \
         is meant to move samples, bump CODE_VERSION ({CODE_VERSION}) so stored records \
         go cold, then re-record SAMPLE_DIGEST with the new value"
    );
}
