//! Parallel trial execution with deterministic, index-ordered output.

use crate::seed::trial_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration for a batch of Monte-Carlo trials.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed; trial `i` receives `trial_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Worker threads; 0 means "one per available core".
    pub threads: usize,
}

impl RunConfig {
    /// `trials` trials under `master_seed` with automatic thread count.
    pub fn new(trials: usize, master_seed: u64) -> RunConfig {
        RunConfig {
            trials,
            master_seed,
            threads: 0,
        }
    }

    /// Overrides the thread count (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> RunConfig {
        self.threads = threads;
        self
    }

    fn effective_threads(&self) -> usize {
        resolve_threads(self.threads).min(self.trials.max(1))
    }
}

/// A worker-thread knob resolved to a count: `0` means one per
/// available core.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
}

/// Runs `config.trials` independent trials of `f(seed, index)` and
/// returns the outputs ordered by trial index.
///
/// The trial function sees only its derived seed and index, so the
/// result vector is identical whatever the thread count — parallelism is
/// an implementation detail, never an experimental variable.
pub fn run_trials<T, F>(config: RunConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, usize) -> T + Sync,
{
    run_trials_with(config, || (), |(), seed, index| f(seed, index))
}

/// [`run_trials`] with per-worker state: `init` runs once on each worker
/// thread and the resulting value is threaded through every trial that
/// worker executes.
///
/// This is the hook the Monte-Carlo engine uses to allocate one process
/// state and one `StepCtx` per worker and recycle them across trials —
/// the worker state is deliberately *not* part of the determinism
/// contract, so `f` must derive every observable output from `(seed,
/// index)` alone (reusing buffers is fine; leaking results between
/// trials is not). Outputs are ordered by trial index, identical for any
/// thread count.
pub fn run_trials_with<S, T, I, F>(config: RunConfig, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64, usize) -> T + Sync,
{
    if config.trials == 0 {
        return Vec::new();
    }
    let threads = config.effective_threads();
    if threads <= 1 {
        let mut state = init();
        return (0..config.trials)
            .map(|i| f(&mut state, trial_seed(config.master_seed, i as u64), i))
            .collect();
    }

    let counter = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(config.trials));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Each worker drains the shared counter and buffers its
                // outputs locally; one lock per worker at the end. The
                // worker state lives for the whole drain.
                let mut state = init();
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= config.trials {
                        break;
                    }
                    local.push((
                        i,
                        f(&mut state, trial_seed(config.master_seed, i as u64), i),
                    ));
                }
                results
                    .lock()
                    .expect("worker panicked while holding results lock")
                    .extend(local);
            });
        }
    });
    let mut collected = results.into_inner().expect("all workers joined");
    collected.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), config.trials);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// Runs `jobs` indexed jobs across the worker pool with reusable
/// per-worker state — the *job-level* analogue of [`run_trials_with`].
///
/// Where trials derive a seed from their index, jobs own their seeding
/// (a campaign point's seed comes from its content key via
/// [`crate::seed::key_seed`]), so `f` receives only the worker state
/// and the job index. Each worker thread builds its state once (`init`)
/// and reuses it across every job it executes — this is how the
/// campaign scheduler gives each worker one long-lived
/// `cobra_process::StepCtx` whose scratch buffers amortize across whole
/// sweep points, not just trials. Output is ordered by job index,
/// identical for any thread count.
///
/// Since the service-mode work, this rides [`crate::queue::JobQueue`] —
/// the same scheduler the `cobra-serve` daemon multiplexes campaigns
/// on — as a single-lane batch: all jobs submitted up front, the queue
/// closed, and [`crate::queue::drain_with`] worker threads draining it.
/// Results are unchanged by construction: `f` sees only `(state,
/// index)`, so scheduling (direct or queued) is never observable.
pub fn run_jobs<S, T, I, F>(threads: usize, jobs: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads).min(jobs);

    let queue: crate::queue::JobQueue<usize> = crate::queue::JobQueue::new();
    let lane = queue.lane();
    for i in 0..jobs {
        queue
            .submit(lane, 1, i)
            .expect("queue closed before batch submission finished");
    }
    queue.close();

    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(jobs));
    crate::queue::drain_with(&queue, threads, init, |state, index, _token| {
        let out = f(state, index);
        results
            .lock()
            .expect("worker panicked while holding results lock")
            .push((index, out));
    });
    let mut collected = results.into_inner().expect("all workers joined");
    collected.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), jobs);
    collected.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(RunConfig::new(0, 1), |s, _| s);
        assert!(out.is_empty());
    }

    #[test]
    fn output_is_index_ordered() {
        let out: Vec<usize> = run_trials(RunConfig::new(500, 9), |_, i| i);
        let want: Vec<usize> = (0..500).collect();
        assert_eq!(out, want);
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
        let seq: Vec<u64> = run_trials(RunConfig::new(300, 77).with_threads(1), work);
        let par: Vec<u64> = run_trials(RunConfig::new(300, 77).with_threads(8), work);
        let auto: Vec<u64> = run_trials(RunConfig::new(300, 77), work);
        assert_eq!(seq, par);
        assert_eq!(seq, auto);
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let out: Vec<()> = run_trials(RunConfig::new(123, 5).with_threads(4), |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 123);
        assert_eq!(ran.load(Ordering::Relaxed), 123);
    }

    #[test]
    fn seeds_are_the_documented_derivation() {
        let out: Vec<u64> = run_trials(RunConfig::new(10, 2024).with_threads(3), |s, _| s);
        let want: Vec<u64> = (0..10).map(|i| crate::seed::trial_seed(2024, i)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn worker_state_is_initialised_per_worker_and_reused() {
        // Sequential: exactly one init, state threaded through trials.
        let inits = AtomicU64::new(0);
        let out: Vec<u64> = run_trials_with(
            RunConfig::new(10, 3).with_threads(1),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |state, _seed, _i| {
                *state += 1;
                *state
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());

        // Parallel: at most one init per worker, every trial served.
        let inits = AtomicU64::new(0);
        let out: Vec<usize> = run_trials_with(
            RunConfig::new(64, 3).with_threads(4),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_state, _seed, i| i,
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
    }

    #[test]
    fn run_jobs_is_index_ordered_and_complete() {
        let ran = AtomicU64::new(0);
        let out: Vec<usize> = run_jobs(
            4,
            37,
            || (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(out, (0..37).collect::<Vec<usize>>());
        assert_eq!(ran.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn run_jobs_reuses_worker_state() {
        // Sequential: one worker state threaded through all jobs.
        let out: Vec<u64> = run_jobs(
            1,
            5,
            || 0u64,
            |state, _| {
                *state += 1;
                *state
            },
        );
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn thread_count_larger_than_trials_is_fine() {
        let out: Vec<usize> = run_trials(RunConfig::new(3, 0).with_threads(64), |_, i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
