//! Parallel trial execution folded in trial-index order: the loop
//! under [`Engine::run_spec`].

use crate::engine::Engine;
use crate::seed::trial_seed;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// How many trials per worker [`run_trials_with`] may run ahead of its
/// fold: a batch holds at most `threads × FOLD_WINDOW + 1` outputs at
/// once, whatever its size.
const FOLD_WINDOW: usize = 16;

/// A worker-thread knob resolved to a count: `0` means one per
/// available core.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
}

/// The workers a batch of `engine` runs on: its thread knob resolved,
/// and never more than its trials (one for an empty batch).
pub(crate) fn worker_threads(engine: &Engine) -> usize {
    resolve_threads(engine.threads).min(engine.trials.max(1))
}

/// Runs `engine.trials` independent trials of `f(state, seed, index)`
/// on up to `engine.threads` workers and hands each output to `fold` on
/// the calling thread, in trial-index order, so the fold (float sums
/// included) is bit-identical for any thread count. The engine's cap is
/// `f`'s business.
///
/// `init` builds one state per worker thread, threaded through every
/// trial it runs (the engine keeps a process state and a `StepCtx` there).
/// It is not part of the determinism contract: `f` must derive every
/// output from `(seed, index)` alone. Workers claim trials as they free
/// up, at most `threads × FOLD_WINDOW` past the next one to fold. A panic
/// in a trial or in `init` is re-raised on the caller once every worker
/// has stopped; a panic in `fold` stops the workers too.
pub(crate) fn run_trials_with<S, T, I, F>(engine: &Engine, init: I, f: F, mut fold: impl FnMut(T))
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64, usize) -> T + Sync,
{
    let trials = engine.trials;
    let trial = |state: &mut S, i: usize| f(state, trial_seed(engine.master_seed, i as u64), i);
    let threads = worker_threads(engine);
    if threads <= 1 {
        let mut state = init();
        for i in 0..trials {
            fold(trial(&mut state, i));
        }
        return;
    }
    let span = threads * FOLD_WINDOW;
    let window = Mutex::new(Window {
        claimed: 0,
        pending: VecDeque::with_capacity(span),
        stopped: false,
    });
    let moved = Condvar::new();
    // Trials and folds never run under the lock, so it is never poisoned.
    let unpoisoned = "no thread panics holding the window lock";
    let wait_until = |wake: &dyn Fn(&Window<T>) -> bool| {
        let w = window.lock().expect(unpoisoned);
        moved
            .wait_while(w, |w| !w.stopped && !wake(w))
            .expect(unpoisoned)
    };
    std::thread::scope(|scope| {
        let worker = || {
            let _stop = StopOnPanic(&window, &moved);
            let mut state = init();
            loop {
                let mut w = wait_until(&|w| w.claimed == trials || w.pending.len() < span);
                let i = w.claimed;
                if w.stopped || i == trials {
                    return;
                }
                w.claimed += 1;
                w.pending.push_back(None);
                drop(w);
                let output = trial(&mut state, i);
                let mut w = window.lock().expect(unpoisoned);
                let slot = w.pending.len() - (w.claimed - i);
                w.pending[slot] = Some(output);
                drop(w);
                if slot == 0 {
                    moved.notify_all(); // the fold waits for the front slot
                }
            }
        };
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        let _stop = StopOnPanic(&window, &moved);
        for _ in 0..trials {
            let mut w = wait_until(&|w| matches!(w.pending.front(), Some(Some(_))));
            let was_full = w.pending.len() == span;
            let Some(Some(output)) = w.pending.pop_front() else {
                break; // a worker panicked: re-raised below
            };
            drop(w);
            if was_full {
                moved.notify_all(); // workers wait for a free slot
            }
            fold(output);
        }
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// The trials a parallel batch has handed out but not yet folded, in
/// trial order: `pending` ends at trial `claimed - 1`, and a slot turns
/// `Some` when its trial finishes.
struct Window<T> {
    claimed: usize,
    pending: VecDeque<Option<T>>,
    stopped: bool,
}

/// Stops the batch if its thread unwinds, so a panicking trial or fold
/// never leaves the other side waiting.
struct StopOnPanic<'a, T>(&'a Mutex<Window<T>>, &'a Condvar);

impl<T> Drop for StopOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut window = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            window.stopped = true;
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// The outputs of `f(seed, index)` in the order the fold saw them.
    fn collect<T: Send>(engine: Engine, f: impl Fn(u64, usize) -> T + Sync) -> Vec<T> {
        let mut out = Vec::new();
        run_trials_with(&engine, || (), |(), seed, i| f(seed, i), |t| out.push(t));
        out
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = collect(Engine::new(0, 1, 0), |s, _| s);
        assert!(out.is_empty());
        let out: Vec<u64> = collect(Engine::new(0, 1, 0).with_threads(4), |s, _| s);
        assert!(out.is_empty());
    }

    #[test]
    fn output_is_index_ordered() {
        let out: Vec<usize> = collect(Engine::new(500, 9, 0), |_, i| i);
        let want: Vec<usize> = (0..500).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn uneven_trials_fold_in_index_order() {
        // Every third trial sleeps, so workers finish out of order.
        for threads in [1, 2, 8] {
            let out: Vec<usize> = collect(Engine::new(90, 4, 0).with_threads(threads), |_, i| {
                if i % 3 == 0 {
                    std::thread::sleep(Duration::from_micros(300 * (i % 7) as u64));
                }
                i
            });
            assert_eq!(out, (0..90).collect::<Vec<usize>>(), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let work = |seed: u64, i: usize| {
            // A seed-dependent value with some CPU time to encourage
            // interleaving.
            let mut acc = seed;
            for _ in 0..50 {
                acc = acc.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            }
            acc
        };
        let seq: Vec<u64> = collect(Engine::new(300, 77, 0).with_threads(1), work);
        let par: Vec<u64> = collect(Engine::new(300, 77, 0).with_threads(8), work);
        let auto: Vec<u64> = collect(Engine::new(300, 77, 0), work);
        assert_eq!(seq, par);
        assert_eq!(seq, auto);
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let out: Vec<()> = collect(Engine::new(123, 5, 0).with_threads(4), |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 123);
        assert_eq!(ran.load(Ordering::Relaxed), 123);
    }

    #[test]
    fn seeds_are_the_documented_derivation() {
        let out: Vec<u64> = collect(Engine::new(10, 2024, 0).with_threads(3), |s, _| s);
        let want: Vec<u64> = (0..10).map(|i| crate::seed::trial_seed(2024, i)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn worker_state_is_initialised_per_worker_and_reused() {
        // Sequential: exactly one init, state threaded through trials.
        let inits = AtomicU64::new(0);
        let mut out = Vec::new();
        run_trials_with(
            &Engine::new(10, 3, 0).with_threads(1),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |state, _seed, _i| {
                *state += 1;
                *state
            },
            |t| out.push(t),
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());

        // Parallel: at most one init per worker, every trial served.
        let inits = AtomicU64::new(0);
        let mut out = Vec::new();
        run_trials_with(
            &Engine::new(64, 3, 0).with_threads(4),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_state, _seed, i| i,
            |t| out.push(t),
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
    }

    #[test]
    fn thread_count_larger_than_trials_is_fine() {
        let out: Vec<usize> = collect(Engine::new(3, 0, 0).with_threads(64), |_, i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    /// Counts live instances, recording the high-water mark in `peak`.
    struct Live<'a> {
        live: &'a AtomicUsize,
    }

    impl<'a> Live<'a> {
        fn new(live: &'a AtomicUsize, peak: &AtomicUsize) -> Live<'a> {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Live { live }
        }
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn buffered_outputs_stay_within_the_window() {
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let threads = 4;
        let bound = threads * FOLD_WINDOW + 1;
        let mut folded = 0usize;
        run_trials_with(
            &Engine::new(10_000, 8, 0).with_threads(threads),
            || (),
            |(), _, i| (i, Live::new(&live, &peak)),
            |(i, guard)| {
                assert_eq!(i, folded);
                folded += 1;
                if i % 1000 == 0 {
                    // Hold this output until the workers have filled the
                    // window behind it.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while live.load(Ordering::SeqCst) < bound && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
                drop(guard);
            },
        );
        assert_eq!(folded, 10_000);
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert_eq!(peak.load(Ordering::SeqCst), bound, "outputs alive at once");
    }

    #[test]
    fn a_panicking_trial_re_raises_on_the_caller() {
        for threads in [1, 2, 8] {
            let mut folded = Vec::new();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_trials_with(
                    &Engine::new(100_000, 1, 0).with_threads(threads),
                    || (),
                    |(), _, i| {
                        if i == 37 {
                            panic!("trial 37 failed");
                        }
                        i
                    },
                    |i| folded.push(i),
                )
            }));
            let panic = result.expect_err("the trial panic must reach the caller");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"trial 37 failed"));
            // Trials still running elsewhere when 37 fails may go unfolded.
            let prefix = (0..folded.len()).collect::<Vec<usize>>();
            assert_eq!(folded, prefix, "threads = {threads}");
            assert!(folded.len() <= 37, "folded past the failed trial");
            if threads == 1 {
                assert_eq!(folded.len(), 37);
            }
        }
    }

    #[test]
    fn a_panicking_fold_stops_the_workers() {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_trials_with(
                &Engine::new(usize::MAX, 1, 0).with_threads(2),
                || (),
                |(), _, i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
                |i| assert!(i < 10, "fold failed"),
            )
        }));
        assert!(result.is_err());
        assert!(ran.load(Ordering::Relaxed) <= 11 + 2 * FOLD_WINDOW);
    }
}
