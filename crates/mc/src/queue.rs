//! Cancellable fair-share job queue — the scheduling core of the
//! campaign `Scheduler` that runs every sweep and `cobra-serve` point.
//!
//! # Model
//!
//! A [`JobQueue`] multiplexes *lanes* (one per campaign / client) onto a
//! pool of worker threads. Submission order within a lane is FIFO;
//! service across lanes is **deficit round-robin** (DRR): each lane
//! carries a deficit counter topped up by a fixed quantum every time the
//! scheduler visits it, and a lane's head job is dispatched only once its
//! deficit covers the job's declared cost. Declaring trial counts as
//! costs makes "fair" mean *fair by compute*, not by job count — a
//! campaign of 1024-trial points cannot starve one of 8-trial points.
//! A lane whose FIFO empties is retired and its deficit forfeited
//! (classic DRR), so an idle campaign cannot bank credit.
//!
//! The schedule is a pure function of (submission order, costs, quantum,
//! dispatch order), so fair-share interleaving is deterministic under a
//! single worker — which is how the tests pin it. Results never depend
//! on the schedule at all: every job derives its outputs from its own
//! seed/key, so queue-path results are bit-identical to direct runs.
//!
//! # Ownership and cancellation rules
//!
//! * [`JobQueue`] is a cheap [`Clone`] handle (`Arc` inside); any clone
//!   may submit, claim, or shut down. Workers block in [`JobQueue::next`]
//!   until a job is dispatchable or the queue is closed and drained.
//! * [`JobQueue::submit`] returns a [`CancelToken`]. The token is a
//!   *request*, not a preemption: a queued job that is cancelled before
//!   dispatch is discarded without running; a job already claimed keeps
//!   its worker until the job function observes `token.is_cancelled()`
//!   at its next trial boundary and returns early. The queue never
//!   interrupts a running trial.
//! * [`Claimed`] is the dispatch guard: it owns the job payload (taken
//!   with [`Claimed::take`]) and decrements the in-flight count when
//!   dropped, so a panicking worker still releases its slot.
//! * [`JobQueue::close`] seals the queue (further submits fail) but lets
//!   queued work drain; [`JobQueue::shutdown`] additionally cancels every
//!   queued *and* in-flight token — the graceful-drain half of SIGINT
//!   handling. [`JobQueue::wait_idle`] blocks until nothing is queued or
//!   running, which is the store-flush barrier.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default DRR quantum: cost units credited to a lane per scheduler
/// visit. With costs measured in trials, 32 matches the default
/// campaign trial count, so "one visit ≈ one typical point".
pub const DEFAULT_QUANTUM: u64 = 32;

/// Cooperative cancellation flag shared between submitter and worker.
///
/// Cloning shares the flag. Workers poll [`CancelToken::is_cancelled`]
/// at trial boundaries; the queue polls it before dispatch and drops
/// cancelled jobs without running them.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token (for direct calls outside a queue).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Handle naming one lane (submission stream) of a [`JobQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId(u64);

/// Error returned by [`JobQueue::submit`] after [`JobQueue::close`] or
/// [`JobQueue::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue is closed to new submissions")
    }
}

impl std::error::Error for QueueClosed {}

/// Point-in-time queue counters (see [`JobQueue::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs queued and not yet dispatched.
    pub depth: usize,
    /// Jobs claimed by workers and not yet finished.
    pub in_flight: usize,
    /// Lanes currently holding queued jobs.
    pub lanes: usize,
    /// Total jobs ever accepted by `submit`.
    pub submitted: u64,
    /// Total jobs finished by workers (including ones that observed
    /// cancellation mid-run and returned early).
    pub completed: u64,
    /// Total jobs discarded while queued because their token was
    /// cancelled before dispatch.
    pub cancelled: u64,
}

struct Pending<J> {
    job: J,
    cost: u64,
    token: CancelToken,
}

struct Lane<J> {
    key: u64,
    deficit: u64,
    fifo: VecDeque<Pending<J>>,
}

struct State<J> {
    lanes: Vec<Lane<J>>,
    /// Index into `lanes` of the next lane the scheduler visits.
    cursor: usize,
    quantum: u64,
    depth: usize,
    in_flight: usize,
    closed: bool,
    next_lane: u64,
    next_claim: u64,
    inflight_tokens: HashMap<u64, CancelToken>,
    submitted: u64,
    completed: u64,
    cancelled: u64,
}

impl<J> State<J> {
    /// DRR dispatch: drop cancelled heads, retire empty lanes, credit
    /// quantum per visit, and serve the first affordable head.
    ///
    /// A full pass that dispatches nothing is followed by one bulk
    /// credit: every lane gets the quanta the closest lane still needs,
    /// which is exactly what that many further passes would have added.
    /// The schedule is unchanged, but a huge cost no longer spins here,
    /// under the queue lock, for `cost / quantum` visits.
    fn pop_next(&mut self) -> Option<Pending<J>> {
        // Visits since the last dispatch, bulk credit or pass start.
        let mut misses = 0;
        loop {
            if self.lanes.is_empty() {
                return None;
            }
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
            }
            if misses >= self.lanes.len() {
                let quantum = self.quantum;
                let quanta = self
                    .lanes
                    .iter()
                    .map(|l| {
                        let cost = l.fifo.front().map_or(0, |head| head.cost);
                        cost.saturating_sub(l.deficit).div_ceil(quantum)
                    })
                    .min()
                    .unwrap_or(0);
                let credit = quanta.saturating_mul(quantum);
                for lane in &mut self.lanes {
                    lane.deficit = lane.deficit.saturating_add(credit);
                }
                misses = 0;
            }
            let lane = &mut self.lanes[self.cursor];
            while let Some(head) = lane.fifo.front() {
                if head.token.is_cancelled() {
                    lane.fifo.pop_front();
                    self.depth -= 1;
                    self.cancelled += 1;
                } else {
                    break;
                }
            }
            if lane.fifo.is_empty() {
                // Retiring an empty lane forfeits its deficit (classic
                // DRR: no banking credit while idle).
                self.lanes.remove(self.cursor);
                continue;
            }
            let cost = lane.fifo.front().expect("non-empty fifo").cost;
            if lane.deficit >= cost {
                lane.deficit -= cost;
                let pending = lane.fifo.pop_front().expect("non-empty fifo");
                self.depth -= 1;
                if lane.fifo.is_empty() {
                    self.lanes.remove(self.cursor);
                }
                return Some(pending);
            }
            lane.deficit = lane.deficit.saturating_add(self.quantum);
            self.cursor += 1;
            misses += 1;
        }
    }

    fn stats(&self) -> QueueStats {
        QueueStats {
            depth: self.depth,
            in_flight: self.in_flight,
            lanes: self.lanes.len(),
            submitted: self.submitted,
            completed: self.completed,
            cancelled: self.cancelled,
        }
    }
}

struct Inner<J> {
    state: Mutex<State<J>>,
    /// Signalled on submit / close / shutdown: a waiting worker may have
    /// something to do (or a reason to exit).
    work: Condvar,
    /// Signalled whenever depth and in-flight both reach zero.
    idle: Condvar,
}

/// Multi-lane fair-share queue; see the [module docs](self) for the
/// scheduling model and ownership rules.
pub struct JobQueue<J> {
    inner: Arc<Inner<J>>,
}

impl<J> Clone for JobQueue<J> {
    fn clone(&self) -> JobQueue<J> {
        JobQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<J> Default for JobQueue<J> {
    fn default() -> JobQueue<J> {
        JobQueue::new()
    }
}

impl<J> JobQueue<J> {
    /// A queue with the [`DEFAULT_QUANTUM`].
    pub fn new() -> JobQueue<J> {
        JobQueue::with_quantum(DEFAULT_QUANTUM)
    }

    /// A queue crediting `quantum` cost units per lane visit (min 1).
    pub fn with_quantum(quantum: u64) -> JobQueue<J> {
        JobQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    lanes: Vec::new(),
                    cursor: 0,
                    quantum: quantum.max(1),
                    depth: 0,
                    in_flight: 0,
                    closed: false,
                    next_lane: 0,
                    next_claim: 0,
                    inflight_tokens: HashMap::new(),
                    submitted: 0,
                    completed: 0,
                    cancelled: 0,
                }),
                work: Condvar::new(),
                idle: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.inner.state.lock().expect("queue lock poisoned")
    }

    /// Registers a new lane (one per campaign / client stream).
    pub fn lane(&self) -> LaneId {
        let mut st = self.lock();
        let id = st.next_lane;
        st.next_lane += 1;
        LaneId(id)
    }

    /// Enqueues `job` on `lane` with the given cost (in the same units
    /// as the quantum; clamped to ≥ 1) and returns its cancellation
    /// token. Fails with [`QueueClosed`] after `close` / `shutdown`.
    pub fn submit(&self, lane: LaneId, cost: u64, job: J) -> Result<CancelToken, QueueClosed> {
        let token = CancelToken::new();
        {
            let mut st = self.lock();
            if st.closed {
                return Err(QueueClosed);
            }
            let pending = Pending {
                job,
                cost: cost.max(1),
                token: token.clone(),
            };
            if let Some(l) = st.lanes.iter_mut().find(|l| l.key == lane.0) {
                l.fifo.push_back(pending);
            } else {
                st.lanes.push(Lane {
                    key: lane.0,
                    deficit: 0,
                    fifo: VecDeque::from([pending]),
                });
            }
            st.depth += 1;
            st.submitted += 1;
        }
        self.inner.work.notify_one();
        Ok(token)
    }

    /// Blocks until a job is dispatchable and claims it, or returns
    /// `None` once the queue is closed and fully drained. Cancelled
    /// queued jobs are discarded here, never dispatched.
    pub fn next(&self) -> Option<Claimed<J>> {
        let mut st = self.lock();
        loop {
            if let Some(pending) = st.pop_next() {
                st.in_flight += 1;
                let claim_id = st.next_claim;
                st.next_claim += 1;
                st.inflight_tokens.insert(claim_id, pending.token.clone());
                return Some(Claimed {
                    job: Some(pending.job),
                    token: pending.token,
                    claim_id,
                    inner: Arc::clone(&self.inner),
                });
            }
            if st.closed {
                return None;
            }
            st = self.inner.work.wait(st).expect("queue lock poisoned");
        }
    }

    /// Seals the queue: no further submissions, queued work still
    /// drains, workers exit from [`JobQueue::next`] once it is empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.inner.work.notify_all();
    }

    /// Graceful shutdown: closes the queue, cancels every queued job
    /// (discarded without running), and cancels every in-flight token so
    /// running jobs stop at their next trial boundary. Does not block;
    /// follow with [`JobQueue::wait_idle`] to drain.
    pub fn shutdown(&self) {
        {
            let mut st = self.lock();
            st.closed = true;
            for lane in &mut st.lanes {
                for pending in lane.fifo.drain(..) {
                    pending.token.cancel();
                }
            }
            let dropped = st.depth as u64;
            st.cancelled += dropped;
            st.depth = 0;
            st.lanes.clear();
            st.cursor = 0;
            for token in st.inflight_tokens.values() {
                token.cancel();
            }
            if st.in_flight == 0 {
                self.inner.idle.notify_all();
            }
        }
        self.inner.work.notify_all();
    }

    /// Blocks until nothing is queued and nothing is in flight.
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while st.depth > 0 || st.in_flight > 0 {
            st = self.inner.idle.wait(st).expect("queue lock poisoned");
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> QueueStats {
        self.lock().stats()
    }

    /// True after [`JobQueue::close`] or [`JobQueue::shutdown`].
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Dispatch guard for one claimed job: take the payload with
/// [`Claimed::take`]; dropping the guard releases the in-flight slot
/// (even on panic) and wakes [`JobQueue::wait_idle`] waiters.
pub struct Claimed<J> {
    job: Option<J>,
    token: CancelToken,
    claim_id: u64,
    inner: Arc<Inner<J>>,
}

impl<J> Claimed<J> {
    /// Moves the job payload out (panics if called twice).
    pub fn take(&mut self) -> J {
        self.job.take().expect("job already taken")
    }

    /// This job's cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

impl<J> Drop for Claimed<J> {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().expect("queue lock poisoned");
        st.in_flight -= 1;
        st.completed += 1;
        st.inflight_tokens.remove(&self.claim_id);
        if st.depth == 0 && st.in_flight == 0 {
            self.inner.idle.notify_all();
        }
    }
}

/// Runs `threads` scoped workers (min 1) that drain `queue` until it is
/// closed and empty. Each worker builds its state once via `init` and
/// calls `f(state, job, token)` per claimed job — the queue-riding
/// analogue of [`crate::runner::run_trials_with`]'s worker loop.
pub fn drain_with<S, J, I, F>(queue: &JobQueue<J>, threads: usize, init: I, f: F)
where
    J: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, J, &CancelToken) + Sync,
{
    let worker = || {
        let mut state = init();
        while let Some(mut claim) = queue.next() {
            let job = claim.take();
            f(&mut state, job, claim.token());
            drop(claim);
        }
    };
    if threads <= 1 {
        worker();
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(worker);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the queue with one worker and returns dispatch order.
    fn drain_order(queue: &JobQueue<&'static str>) -> Vec<&'static str> {
        queue.close();
        let mut order = Vec::new();
        while let Some(mut claim) = queue.next() {
            order.push(claim.take());
        }
        order
    }

    #[test]
    fn fair_share_order_is_deterministic() {
        // Two lanes, unit costs, quantum 2: the scheduler alternates
        // two-job bursts. The exact interleaving is pinned — this is
        // the determinism contract for fair-share ordering.
        let queue: JobQueue<&'static str> = JobQueue::with_quantum(2);
        let a = queue.lane();
        let b = queue.lane();
        for job in ["a1", "a2", "a3", "a4"] {
            queue.submit(a, 1, job).unwrap();
        }
        for job in ["b1", "b2", "b3", "b4"] {
            queue.submit(b, 1, job).unwrap();
        }
        assert_eq!(
            drain_order(&queue),
            vec!["a1", "a2", "b1", "b2", "a3", "a4", "b3", "b4"]
        );
    }

    #[test]
    fn fair_share_weights_by_cost_not_job_count() {
        // Lane H submits cost-4 jobs, lane L cost-1 jobs, quantum 4:
        // per full rotation H affords one job and L four — equal
        // compute, not equal job counts.
        let queue: JobQueue<&'static str> = JobQueue::with_quantum(4);
        let h = queue.lane();
        let l = queue.lane();
        for job in ["h1", "h2"] {
            queue.submit(h, 4, job).unwrap();
        }
        for job in ["l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"] {
            queue.submit(l, 1, job).unwrap();
        }
        assert_eq!(
            drain_order(&queue),
            vec!["h1", "l1", "l2", "l3", "l4", "h2", "l5", "l6", "l7", "l8"]
        );
    }

    #[test]
    fn bulk_credit_keeps_the_per_visit_schedule() {
        // Reference DRR: one quantum per visit, no bulk credit.
        fn per_visit(lanes: &[Vec<u64>], quantum: u64) -> Vec<(usize, usize)> {
            // (lane, deficit, head job) for every lane with jobs left.
            let mut live: Vec<(usize, u64, usize)> = (0..lanes.len()).map(|l| (l, 0, 0)).collect();
            let (mut cursor, mut order) = (0, Vec::new());
            while !live.is_empty() {
                cursor %= live.len();
                let (lane, deficit, job) = &mut live[cursor];
                let cost = lanes[*lane][*job];
                if *deficit >= cost {
                    *deficit -= cost;
                    order.push((*lane, *job));
                    *job += 1;
                    if *job == lanes[*lane].len() {
                        live.remove(cursor);
                    }
                } else {
                    *deficit += quantum;
                    cursor += 1;
                }
            }
            order
        }
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut cost = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % 400
        };
        for quantum in [1, 7, 32] {
            let lanes: Vec<Vec<u64>> = (0..4)
                .map(|l| (0..6 + l).map(|_| cost()).collect())
                .collect();
            let queue: JobQueue<(usize, usize)> = JobQueue::with_quantum(quantum);
            for (l, costs) in lanes.iter().enumerate() {
                let lane = queue.lane();
                for (job, &c) in costs.iter().enumerate() {
                    queue.submit(lane, c, (l, job)).unwrap();
                }
            }
            queue.close();
            let mut got = Vec::new();
            while let Some(mut claim) = queue.next() {
                got.push(claim.take());
            }
            assert_eq!(got, per_visit(&lanes, quantum), "quantum {quantum}");
        }
    }

    #[test]
    fn a_huge_cost_is_claimed_at_once() {
        let queue: JobQueue<u32> = JobQueue::new();
        let lane = queue.lane();
        queue.submit(lane, u64::MAX, 7).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = queue.clone();
        // A helper thread, so a spinning queue fails the test by timeout
        // instead of hanging the suite.
        let handle = std::thread::spawn(move || {
            let job = worker.next().map(|mut claim| claim.take());
            let _ = tx.send(job);
        });
        let claimed = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(claimed, Ok(Some(7)), "the queue spun on a u64::MAX cost");
        handle.join().expect("the claiming thread returns");
    }

    #[test]
    fn lane_fifo_order_is_preserved() {
        let queue: JobQueue<u32> = JobQueue::new();
        let lane = queue.lane();
        for i in 0..16 {
            queue.submit(lane, 3, i).unwrap();
        }
        queue.close();
        let mut got = Vec::new();
        while let Some(mut c) = queue.next() {
            got.push(c.take());
        }
        assert_eq!(got, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn cancelled_queued_job_is_never_dispatched() {
        let queue: JobQueue<u32> = JobQueue::new();
        let lane = queue.lane();
        queue.submit(lane, 1, 1).unwrap();
        let token = queue.submit(lane, 1, 2).unwrap();
        queue.submit(lane, 1, 3).unwrap();
        token.cancel();
        queue.close();
        let mut got = Vec::new();
        while let Some(mut c) = queue.next() {
            got.push(c.take());
        }
        assert_eq!(got, vec![1, 3]);
        let stats = queue.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn shutdown_cancels_pending_and_inflight() {
        let queue: JobQueue<u32> = JobQueue::new();
        let lane = queue.lane();
        queue.submit(lane, 1, 1).unwrap();
        queue.submit(lane, 1, 2).unwrap();
        let claim = queue.next().unwrap();
        assert!(!claim.token().is_cancelled());
        queue.shutdown();
        // The in-flight token flips; the queued job is discarded.
        assert!(claim.token().is_cancelled());
        drop(claim);
        assert!(queue.next().is_none());
        assert!(queue.submit(lane, 1, 3).is_err());
        let stats = queue.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.in_flight, 0);
        queue.wait_idle(); // trivially satisfied, must not hang
    }

    #[test]
    fn close_drains_then_workers_exit() {
        let queue: JobQueue<usize> = JobQueue::new();
        let lane = queue.lane();
        for i in 0..100 {
            queue.submit(lane, 1, i).unwrap();
        }
        queue.close();
        let seen = Mutex::new(Vec::new());
        drain_with(
            &queue,
            4,
            || (),
            |(), job, _token| {
                seen.lock().unwrap().push(job);
            },
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<usize>>());
        assert_eq!(queue.stats().completed, 100);
    }

    #[test]
    fn wait_idle_blocks_until_drained() {
        let queue: JobQueue<u32> = JobQueue::new();
        let lane = queue.lane();
        for i in 0..8 {
            queue.submit(lane, 1, i).unwrap();
        }
        queue.close();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                drain_with(
                    &queue,
                    2,
                    || (),
                    |(), _job, _token| {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    },
                );
            });
            queue.wait_idle();
            let stats = queue.stats();
            assert_eq!(stats.depth, 0);
            assert_eq!(stats.in_flight, 0);
        });
    }

    #[test]
    fn submit_after_close_fails() {
        let queue: JobQueue<u32> = JobQueue::new();
        let lane = queue.lane();
        queue.close();
        assert_eq!(queue.submit(lane, 1, 7).unwrap_err(), QueueClosed);
    }
}
