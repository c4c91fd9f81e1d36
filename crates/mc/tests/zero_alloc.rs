//! Regression: the engine's untraced trial loop allocates nothing.
//!
//! An untraced `run_trial` runs only the caller's observer (here
//! [`Completion`], whose per-round hook is empty), with no telemetry
//! observer around it — the telemetry layer must be invisible when off,
//! in time *and* in allocation. This installs a counting global
//! allocator (the same pattern as `cobra-process`'s `zero_alloc` suite),
//! warms a state + context with one full trial through the engine, then
//! replays the identical trial and asserts the counter does not move:
//! for a concrete `Cobra`, and for `ProcessSpec::build` boxes of the walk
//! kernel, the COBRA list kernel and the BIPS Bernoulli round, whose
//! `Completion` trials run as one `run_until` call through the box.
//!
//! The file contains a single #[test] so no concurrent test can touch
//! the global counter.

use cobra_graph::{generators, Graph};
use cobra_mc::{run_trial, Completion, StopWhen};
use cobra_process::{Branching, Cobra, Laziness, ProcessSpec, ProcessState, StepCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every allocation and reallocation
/// made by *opted-in* threads — the thread-local gate keeps the libtest
/// harness's own bookkeeping threads out of the measurement window.
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
fn noprobe_engine_trials_are_allocation_free() {
    counting(true);
    let g = generators::hypercube(10);
    let mut ctx = StepCtx::new();
    let mut cobra = Cobra::new(&g, &[0], Branching::B2, Laziness::None);

    // Warm-up trial: scratch buffers grow to their high-water mark.
    ctx.reseed(7);
    let warm = run_trial(
        &mut cobra,
        &mut ctx,
        StopWhen::Complete,
        1_000_000,
        Completion,
    );
    assert!(warm.rounds.is_some(), "warm-up trial covers");

    // Replay the identical trial through the engine loop: the stop
    // checks and the observer hooks must add zero allocations on top of
    // the (already allocation-free) kernel.
    cobra.reset(&g, &[0]);
    ctx.reseed(7);
    let before = allocs();
    let replay = run_trial(
        &mut cobra,
        &mut ctx,
        StopWhen::Complete,
        1_000_000,
        Completion,
    );
    let delta = allocs() - before;
    assert_eq!(replay, warm, "replay diverged from warm-up");
    assert_eq!(
        delta, 0,
        "steady-state untraced engine trial performed {delta} heap allocations"
    );

    // A fresh seed stays allocation-free too (capacity is seeded by the
    // warm-up, not by the particular trajectory).
    cobra.reset(&g, &[0]);
    ctx.reseed(8);
    let before = allocs();
    let fresh = run_trial(
        &mut cobra,
        &mut ctx,
        StopWhen::Complete,
        1_000_000,
        Completion,
    );
    assert!(fresh.rounds.is_some(), "fresh-seed trial covers");
    assert_eq!(allocs() - before, 0, "fresh-seed engine trial allocated");

    // Boxed processes, as `Engine::run_spec` and campaign points build
    // them: under `Completion` the whole trial is one `run_until` call
    // through the box. A regular and an irregular graph, so BIPS runs
    // on a shared threshold row and on per-vertex rows.
    let grid = generators::grid(&[16, 16]);
    for graph in [&g, &grid] {
        for spec in ["cobra:b1", "cobra:b2", "bips:b2", "bips:b2:lazy"] {
            for stop in [StopWhen::Complete, StopWhen::Reached(graph.n() as u32 - 1)] {
                boxed_replay_is_allocation_free(graph, spec, stop);
            }
        }
    }
}

/// Warms a `ProcessSpec::build` box with one trial, then replays it and
/// asserts the replay allocates nothing.
fn boxed_replay_is_allocation_free(g: &Graph, spec: &str, stop: StopWhen) {
    let spec: ProcessSpec = spec.parse().unwrap();
    let mut process = spec.build(g, &[0]);
    let mut ctx = StepCtx::new();
    ctx.reseed(11);
    let warm = run_trial(&mut process, &mut ctx, stop, 1_000_000, Completion);
    assert!(
        warm.rounds.is_some(),
        "{spec} {stop:?}: warm-up trial stops"
    );
    process.reset(g, &[0]);
    ctx.reseed(11);
    let before = allocs();
    let replay = run_trial(&mut process, &mut ctx, stop, 1_000_000, Completion);
    let delta = allocs() - before;
    assert_eq!(replay, warm, "{spec} {stop:?}: replay diverged");
    assert_eq!(
        delta,
        0,
        "{spec} {stop:?} on n = {}: boxed trial performed {delta} heap allocations",
        g.n()
    );
}
