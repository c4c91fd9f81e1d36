//! Rumour spreading with a transmission budget.
//!
//! The COBRA design goal (§1): propagate information fast *while
//! limiting the number of transmissions per vertex per round* and
//! without vertices remembering the rumour forever. This example races
//! COBRA against the classic alternatives on a social-network-like
//! graph (the giant component of a supercritical `G(n, p)`), reporting
//! both rounds and total transmissions.
//!
//! ```sh
//! cargo run --release --example rumor_mill
//! ```

use cobra_graph::{generators, props};
use cobra_process::{
    Branching, Cobra, Gossip, GossipMode, Laziness, MultiWalk, ProcessState, ProcessView,
    RandomWalk, StepCtx, StopWhen,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let n = 2000;
    let raw = generators::gnp(n, 3.0 / n as f64, &mut rng);
    let (g, _) = props::largest_component(&raw);
    println!(
        "social graph: giant component of G({n}, 3/n) — n = {}, m = {}, dmax = {}",
        g.n(),
        g.m(),
        g.max_degree()
    );
    println!();
    println!("process                 rounds   transmissions   tx/vertex");
    println!("------------------------------------------------------------");

    let cap = 50_000_000;
    let trials = 10u64;
    let race = |label: &str, f: &dyn Fn(&mut StepCtx) -> (usize, u64)| {
        let mut rounds = 0.0;
        let mut tx = 0.0;
        // One context for all racers: the scratch buffers warm up once
        // and every subsequent trial steps allocation-free.
        let mut ctx = StepCtx::new();
        for t in 0..trials {
            ctx.reseed(0xBEEF + t);
            let (r, x) = f(&mut ctx);
            rounds += r as f64;
            tx += x as f64;
        }
        rounds /= trials as f64;
        tx /= trials as f64;
        println!(
            "{label:<22} {rounds:>8.0}   {tx:>13.0}   {:>9.1}",
            tx / g.n() as f64
        );
    };

    race("single random walk", &|ctx| {
        let mut p = RandomWalk::new(&g, 0, Laziness::None);
        let r = p.run_until(StopWhen::Complete, ctx, cap).expect("cover");
        (r, p.transmissions())
    });
    race("8 independent walks", &|ctx| {
        let mut p = MultiWalk::new_at(&g, 0, 8, Laziness::None);
        let r = p.run_until(StopWhen::Complete, ctx, cap).expect("cover");
        (r, p.transmissions())
    });
    race("PUSH gossip", &|ctx| {
        let mut p = Gossip::new(&g, 0, GossipMode::Push);
        let r = p
            .run_until(StopWhen::Complete, ctx, cap)
            .expect("broadcast");
        (r, p.transmissions())
    });
    race("COBRA b=2", &|ctx| {
        let mut p = Cobra::new(&g, &[0], Branching::Fixed(2), Laziness::None);
        let r = p.run_until(StopWhen::Complete, ctx, cap).expect("cover");
        (r, p.transmissions())
    });
    race("COBRA b=1+0.5", &|ctx| {
        let mut p = Cobra::new(&g, &[0], Branching::Expected(0.5), Laziness::None);
        let r = p.run_until(StopWhen::Complete, ctx, cap).expect("cover");
        (r, p.transmissions())
    });

    println!();
    println!("reading: COBRA matches gossip-like round counts with bounded per-round");
    println!("per-vertex transmissions, while walks pay orders of magnitude more rounds.");
    println!("PUSH keeps every informed vertex transmitting forever — its transmission");
    println!("bill keeps growing on every round even after the rumour has nearly covered.");
}
