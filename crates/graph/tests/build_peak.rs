//! Regression: a CSR build holds no more memory than its method needs.
//!
//! A peak-tracking global allocator records the highest live byte count
//! while `GraphSpec::build` runs (the same gated-allocator pattern as
//! `cobra-mc`'s `zero_alloc` suite):
//!
//! * `hypercube` and `complete` copy the rows of their implicit
//!   topologies, so their peak is the finished graph.
//! * Every other family builds from an edge list in place, so its peak
//!   is that list (8 bytes per edge) plus the finished graph, plus at
//!   most one `O(n)` array of counters.
//!
//! Both bounds leave 4 KiB for small allocations. The file contains a
//! single #[test] so no concurrent test can touch the counters.

use cobra_graph::{GraphSpec, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper tracking the live and the peak bytes of
/// *opted-in* threads, so the libtest harness's own threads stay out of
/// the measurement window.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized: reading it never allocates.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

fn tracked() -> bool {
    TRACKED.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracked() {
            grew(layout.size());
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if tracked() {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracked() {
            shrank(layout.size());
        }
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracked() {
            // Counted as the new block arriving before the old one
            // leaves, the most a moving realloc can hold.
            grew(new_size);
            shrank(layout.size());
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

const SLACK: usize = 4 << 10;

/// Builds `text` and returns the graph's `n`, `m` and `memory_bytes`,
/// then the most bytes the build held at once above what was live
/// before it.
fn build_peak(text: &str) -> (usize, usize, usize, usize) {
    let spec: GraphSpec = text.parse().expect(text);
    TRACKED.with(|t| t.set(true));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let g = spec.build(0).expect(text);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let shape = (g.n(), g.m(), g.memory_bytes(), peak);
    drop(g);
    TRACKED.with(|t| t.set(false));
    shape
}

#[test]
fn csr_builds_peak_at_their_method_s_bound() {
    for text in ["hypercube:14", "complete:512"] {
        let (_, _, graph, peak) = build_peak(text);
        assert!(
            peak <= graph + SLACK,
            "{text}: peak {peak} bytes over the {graph}-byte graph + {SLACK}"
        );
    }
    for text in ["torus:128x128", "pa:4096:3"] {
        let (n, m, graph, peak) = build_peak(text);
        let edge_list = 8 * m;
        let counters = 8 * (n + 1);
        let bound = edge_list + graph + counters + SLACK;
        assert!(
            peak <= bound,
            "{text}: peak {peak} bytes over the {edge_list}-byte edge list + the \
             {graph}-byte graph + {counters} bytes of counters + {SLACK}"
        );
    }
}
