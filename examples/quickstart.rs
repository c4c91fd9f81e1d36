//! Quickstart: build a graph, run COBRA, compare against the paper's
//! bounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cobra::bounds;
use cobra::SimSpec;
use cobra_graph::{props, GraphSpec};
use cobra_spectral::lanczos_edge_spectrum;

fn main() {
    // A 3-regular expander on 512 vertices, named as data: the same
    // spec string works here, in a config file, and on the CLI
    // (`cobra-exps run --graph regular:512:3 --process cobra:b2`).
    let spec: GraphSpec = "regular:512:3".parse().expect("valid graph spec");
    let g = spec.build(7).expect("generator");
    println!(
        "graph: n = {}, m = {}, regular r = {:?}, diameter = {:?}",
        g.n(),
        g.m(),
        g.regularity(),
        props::diameter(&g)
    );

    // Its eigenvalue gap — the quantity Theorem 1.2 is parameterised by.
    let spec = lanczos_edge_spectrum(&g, 0);
    println!(
        "spectrum edge: λ₂ = {:.4}, λ_min = {:.4}, λ = {:.4}, gap 1−λ = {:.4}",
        spec.lambda2,
        spec.lambda_min,
        spec.lambda_abs(),
        spec.gap()
    );

    // Measure the COBRA b=2 cover time from vertex 0 — one declarative
    // SimSpec, executed by the unified engine.
    let s = SimSpec::new(&g, "cobra:b2".parse().unwrap())
        .with_trials(50)
        .measure()
        .expect("valid spec")
        .into_stopping()
        .expect("cover is a stopping objective");
    println!(
        "COBRA b=2 cover time over {} trials: mean {:.1}, median ≈ {:.0}, range [{}, {}]",
        s.trials, s.mean, s.median, s.min, s.max
    );

    // The paper's bounds for this graph.
    let r = g.regularity().expect("regular");
    println!(
        "Theorem 1.1 shape  m + dmax²·ln n          = {:.0}",
        bounds::thm_1_1(g.n(), g.m(), g.max_degree())
    );
    println!(
        "Theorem 1.2 shape  (r/(1−λ) + r²)·ln n     = {:.0}",
        bounds::thm_1_2(g.n(), r, spec.gap())
    );
    println!(
        "PODC'16 shape      (1/(1−λ))³·ln n          = {:.0}",
        bounds::podc16(g.n(), spec.gap())
    );
    println!(
        "lower bound        max(log₂ n, Diam)         = {:.0}",
        bounds::lower_bound(g.n(), props::diameter(&g).unwrap())
    );
    println!();
    println!(
        "shape check: measured {:.1} rounds sits between the lower bound and the Theorem 1.2 \
         shape — the paper's story for expanders.",
        s.mean
    );
}
