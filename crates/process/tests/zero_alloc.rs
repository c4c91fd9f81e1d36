//! Regression: steady-state stepping performs **zero heap allocation**.
//!
//! The historical `Cobra::step` allocated a fresh `next` vector every
//! round (and every trial rebuilt two `BitSet`s); the `StepCtx` scratch
//! buffers exist precisely to eliminate that. This test installs a
//! counting global allocator, warms a state + context with one full
//! trial (buffers grow to their high-water mark), then replays the
//! identical trial and asserts the allocation counter does not move —
//! for both arms of the COBRA pass (`Fixed(b)` without laziness, and
//! the general arm that samples copies and lazy self-picks), for the
//! BIPS double-buffered round, and for both kernels of the sharded
//! engine, whose outbox exchange reuses one sender-major table.
//!
//! The file contains a single #[test] so no concurrent test can touch
//! the global counter.

use cobra_graph::{generators, HypercubeTopo};
use cobra_process::{
    Bips, BipsMode, Branching, Cobra, Laziness, ProcessState, ShardKernel, ShardedState, StepCtx,
    StopWhen,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every allocation and reallocation
/// made by *opted-in* threads. The libtest harness runs its own
/// bookkeeping threads whose incidental allocations would otherwise
/// race into the measurement window (observed as rare 1–2 count
/// flakes); the thread-local gate scopes the counter to the test
/// thread, whose steady-state stepping is what the regression pins.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized: reading it never allocates.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

fn counting(on: bool) -> bool {
    TRACKED.try_with(|t| t.replace(on)).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warmed_state_and_ctx_step_without_allocating() {
    counting(true);
    let g = generators::hypercube(10);
    let mut ctx = StepCtx::new();

    // --- COBRA (the pass's `Fixed(b)`, non-lazy arm) ---
    let mut cobra = Cobra::new(&g, &[0], Branching::B2, Laziness::None);
    ctx.reseed(7);
    let warm = cobra
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("warm-up trial covers");

    // Replay the identical trial: same seed → same frontier sizes, and
    // every buffer is already at capacity.
    cobra.reset(&g, &[0]);
    ctx.reseed(7);
    let before = allocs();
    let replay = cobra
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("replay covers");
    let delta = allocs() - before;
    assert_eq!(replay, warm, "replay diverged from warm-up");
    assert_eq!(
        delta, 0,
        "steady-state COBRA trial performed {delta} heap allocations"
    );

    // A different seed stays allocation-free too once the high-water
    // mark is in (frontier capacity is reserved to n up front).
    cobra.reset(&g, &[0]);
    ctx.reseed(8);
    let before = allocs();
    cobra
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("fresh-seed trial covers");
    assert_eq!(allocs() - before, 0, "fresh-seed COBRA trial allocated");

    // --- COBRA on the implicit backend ---
    // The same kernel monomorphized over an implicit topology: pick
    // resolution is pure arithmetic, and the steady state must stay
    // allocation-free too (the O(1)-memory scaling path depends on it).
    let q = HypercubeTopo::new(10);
    let mut cobra_q = Cobra::new(&q, &[0], Branching::B2, Laziness::None);
    ctx.reseed(7);
    let warm_q = cobra_q
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("implicit warm-up trial covers");
    assert_eq!(
        warm_q, warm,
        "implicit backend diverged from the CSR trajectory"
    );
    cobra_q.reset(&q, &[0]);
    ctx.reseed(7);
    let before = allocs();
    let replay_q = cobra_q
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("implicit replay covers");
    let delta = allocs() - before;
    assert_eq!(replay_q, warm_q, "implicit replay diverged from warm-up");
    assert_eq!(
        delta, 0,
        "steady-state implicit COBRA trial performed {delta} heap allocations"
    );

    // --- COBRA's general arm: lazy `Fixed(3)` and `Expected(0.5)` ---
    // Sampled copy counts and self-picks go through the same slots and
    // fold; a lazy b = 3 round lands up to 3|C_t| picks, more than n.
    for (branching, laziness) in [
        (Branching::Fixed(3), Laziness::Half),
        (Branching::Expected(0.5), Laziness::None),
    ] {
        let mut general = Cobra::new(&g, &[0], branching, laziness);
        ctx.reseed(11);
        let warm = general
            .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
            .expect("general-arm warm-up covers");
        general.reset(&g, &[0]);
        ctx.reseed(11);
        let before = allocs();
        let replay = general
            .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
            .expect("general-arm replay covers");
        let delta = allocs() - before;
        assert_eq!(replay, warm, "{branching:?} {laziness:?}: replay diverged");
        assert_eq!(
            delta, 0,
            "steady-state {branching:?} {laziness:?} COBRA trial performed {delta} heap allocations"
        );
    }

    // --- BIPS (double-buffered infected sets) ---
    // The bit sets swap back and forth and the threshold rows are
    // resolved at construction. Warm one trial, replay it.
    let mut bips = Bips::new(&g, 0, Branching::B2, Laziness::None, BipsMode::Bernoulli);
    ctx.reseed(9);
    let warm = bips
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("warm-up infection completes");
    bips.reset(&g, &[0]);
    ctx.reseed(9);
    let before = allocs();
    let replay = bips
        .run_until(StopWhen::Complete, &mut ctx, 1_000_000)
        .expect("replay completes");
    let delta = allocs() - before;
    assert_eq!(replay, warm);
    assert_eq!(
        delta, 0,
        "steady-state BIPS trial performed {delta} heap allocations"
    );

    // --- Sharded COBRA and BIPS (sequential slots) ---
    // The outboxes grow to their high-water mark in the warm-up trial;
    // replaying it must not allocate, not even one exchange per round.
    for kernel in [
        ShardKernel::Cobra {
            branching: Branching::B2,
            laziness: Laziness::None,
        },
        ShardKernel::Bips {
            branching: Branching::B2,
            laziness: Laziness::None,
        },
    ] {
        let mut sharded = ShardedState::new(&q, kernel, 4);
        let trial = |sharded: &mut ShardedState<'_, HypercubeTopo>| {
            sharded.reset(0, |i| 13 + i as u64);
            while !sharded.is_complete() && sharded.rounds() < 1_000_000 {
                sharded.step(1);
            }
            (sharded.rounds(), sharded.transmissions())
        };
        let warm = trial(&mut sharded);
        assert!(sharded.is_complete(), "{kernel:?}: warm-up never completed");
        let before = allocs();
        let replay = trial(&mut sharded);
        let delta = allocs() - before;
        assert_eq!(replay, warm, "{kernel:?}: replay diverged");
        assert_eq!(
            delta, 0,
            "steady-state sharded {kernel:?} trial performed {delta} heap allocations"
        );
    }
    // --- The walk's lockstep batch: a second batch allocates nothing ---
    let mut walk = cobra_process::RandomWalk::new(&g, 0, Laziness::None);
    let mut batch = |seed0: u64| {
        let mut seeds = seed0..seed0 + 13;
        let mut sum = 0usize;
        walk.run_batch(
            &g,
            &[0],
            &mut seeds,
            StopWhen::Complete,
            1_000_000,
            &mut ctx,
            &mut |o| sum += o.executed,
        );
        sum
    };
    assert!(batch(1) > 0);
    let before = allocs();
    assert!(batch(50) > 0);
    assert_eq!(allocs() - before, 0, "second walk batch allocated");
}
