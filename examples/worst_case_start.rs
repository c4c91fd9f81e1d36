//! Ablation: does the start vertex matter? (`COVER(G) = max_u COVER(u)`)
//!
//! The paper's cover time takes the worst-case start. On vertex-
//! transitive graphs every start is equal; on asymmetric graphs like the
//! lollipop the spread is real. This example scans all starts of a
//! lollipop and a barbell and prints the best/worst spread.
//!
//! ```sh
//! cargo run --release --example worst_case_start
//! ```

use cobra::SimSpec;
use cobra_graph::{generators, Graph, VertexId};
use cobra_process::ProcessSpec;

/// Mean COBRA b=2 cover time from `start`.
fn mean_cover(g: &Graph, start: VertexId, trials: usize, seed: u64) -> f64 {
    SimSpec::new(g, ProcessSpec::COBRA_B2)
        .with_start(start)
        .with_trials(trials)
        .with_seed(seed)
        .measure()
        .expect("valid spec")
        .into_stopping()
        .expect("cover is a stopping objective")
        .summary()
        .mean
}

/// Scans all start vertices with a few trials each and returns
/// `(worst_vertex, its mean cover)` — the `max_u COVER(u)` of the
/// paper's cover-time definition, at estimation fidelity `probe_trials`.
fn worst_start_vertex(g: &Graph, probe_trials: usize) -> (VertexId, f64) {
    let mut worst = (0, f64::NEG_INFINITY);
    for v in 0..g.n() as VertexId {
        let mean = mean_cover(
            g,
            v,
            probe_trials,
            0xC0B7A ^ (v as u64).wrapping_mul(0x9E37),
        );
        if mean > worst.1 {
            worst = (v, mean);
        }
    }
    worst
}

fn scan(label: &str, g: &Graph) {
    let trials = 20;
    let mut best = (0u32, f64::INFINITY);
    let mut worst = (0u32, f64::NEG_INFINITY);
    for v in 0..g.n() as u32 {
        let mean = mean_cover(g, v, trials, v as u64);
        if mean < best.1 {
            best = (v, mean);
        }
        if mean > worst.1 {
            worst = (v, mean);
        }
    }
    println!(
        "{label:<18} best start v={:<4} ({:>6.1} rounds)   worst start v={:<4} ({:>6.1} rounds)   spread {:.2}x",
        best.0,
        best.1,
        worst.0,
        worst.1,
        worst.1 / best.1
    );
}

fn main() {
    println!("COBRA b=2, 20 trials per start vertex\n");
    scan("lollipop(16,32)", &generators::lollipop(16, 32));
    scan("barbell(12,24)", &generators::barbell(12, 24));
    scan("path(48)", &generators::path(48));
    scan("K_48", &generators::complete(48));
    println!();

    // A cheaper scan: 8 trials per start, seeds decorrelated per vertex.
    let g = generators::lollipop(16, 32);
    let (v, mean) = worst_start_vertex(&g, 8);
    println!("worst_start_vertex(lollipop) = vertex {v} with mean cover {mean:.1}");
    println!();
    println!("reading: on K_n the spread is ~1x (transitivity); on the lollipop the");
    println!("worst starts sit inside the clique — the walk must still find the stick");
    println!("tip, whereas tip starts sweep the stick on their way into the clique.");
}
