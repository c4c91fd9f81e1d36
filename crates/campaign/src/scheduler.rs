//! The one point scheduler behind `cobra-exps sweep`, every `run_sweep*`
//! entry point and the `cobra-serve` daemon.
//!
//! A [`Scheduler`] keeps one job table under one mutex: the
//! deficit-round-robin (DRR) lanes of queued jobs, every queued or
//! running job by content key with its waiters, and one scheduler-wide
//! cancel flag. Each [`Scheduler::submit`] plans a sweep against its
//! store and routes every point through one rule: the store holds its
//! key → `cached`; its key is queued or running (an expansion twin, or
//! another submission's job) → it attaches to that job; otherwise → a
//! new job on the submission's own lane.
//!
//! Fair share: a job costs its trial count, and every visit credits a
//! lane `DEFAULT_QUANTUM` (32) cost units. A lane's head job dispatches
//! once its deficit covers the cost, so lanes share workers by compute,
//! not job count; a lane whose FIFO empties retires with its deficit
//! (classic DRR: no banked credit). The order is a pure function of
//! submission order and costs. Results never depend on it: every point
//! seeds from its own key.
//!
//! [`Scheduler::work`] is the one worker loop, for sweeps and the
//! daemon alike. It claims a job (sending `started` to the waiters
//! present at the claim), runs it with no lock held on the worker's
//! long-lived `StepCtx`, and persists the record once to each distinct
//! store among the waiters. The first waiter sees `computed`, every
//! other one `deduped` with the same record; a run the cancel flag
//! stopped sends `cancelled`. A run that panics is contained here:
//! every waiter gets `failed` with the panic message, no store is
//! touched, and the worker replaces its context and keeps draining.
//!
//! Planning, scheduling and a finished job's persist-and-detach all
//! happen under the mutex, so no job completes between a plan that saw
//! its key missing and the schedule that attaches to it. Lock order is
//! scheduler → store → subscriber; subscribers must not call back in.

use crate::point::SweepPoint;
use crate::runner::{run_point_cancellable, Plan, PlannedPoint, PointEvent, PointStatus};
use crate::store::{PointRecord, SharedStore, Store};
use crate::CampaignError;
use cobra_mc::CancelToken;
use cobra_process::StepCtx;
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// DRR quantum: cost units (trials) credited to a lane per visit. 32
/// matches the default campaign trial count, so one visit is about one
/// typical point.
const DEFAULT_QUANTUM: u64 = 32;

/// Where a submission's point events go: a borrowed callback for a
/// sweep, a campaign's event log for the daemon.
pub trait Subscriber {
    fn notify(&self, event: &PointEvent);
}

impl<F: Fn(&PointEvent) + ?Sized> Subscriber for &F {
    fn notify(&self, event: &PointEvent) {
        self(event)
    }
}

impl<T: Subscriber + ?Sized> Subscriber for Arc<T> {
    fn notify(&self, event: &PointEvent) {
        (**self).notify(event)
    }
}

/// One submission's claim on a job: who to tell, the point's expansion
/// index there, and the store its record belongs in.
struct Waiter<S> {
    subscriber: S,
    index: usize,
    store: SharedStore,
}

/// One queued or running point with its waiters, in attach order (the
/// first scheduled it).
struct InFlight<S> {
    planned: Arc<PlannedPoint>,
    waiters: Vec<Waiter<S>>,
}

impl<S: Subscriber> InFlight<S> {
    /// Sends each waiter its event; `status` maps attach order to status.
    fn notify(
        &self,
        status: impl Fn(usize) -> PointStatus,
        record: Option<&PointRecord>,
        error: Option<&str>,
    ) {
        for (i, w) in self.waiters.iter().enumerate() {
            let mut event =
                PointEvent::from_planned(w.index, &self.planned, status(i), record.cloned());
            event.error = error.map(str::to_owned);
            w.subscriber.notify(&event);
        }
    }
}

/// One submission's queued jobs: `(cost, content key)` in FIFO order.
struct Lane {
    deficit: u64,
    fifo: VecDeque<(u64, String)>,
}

/// The DRR lanes holding queued jobs, in visit order.
#[derive(Default)]
struct Lanes {
    lanes: Vec<Lane>,
    /// Index into `lanes` of the next lane the scheduler visits.
    cursor: usize,
}

impl Lanes {
    /// Adds a submission's jobs as a new lane behind every live one.
    fn push(&mut self, fifo: VecDeque<(u64, String)>) {
        if !fifo.is_empty() {
            self.lanes.push(Lane { deficit: 0, fifo });
        }
    }

    /// Jobs queued across all lanes.
    fn depth(&self) -> usize {
        self.lanes.iter().map(|l| l.fifo.len()).sum()
    }

    /// DRR dispatch: credit a quantum per visit and serve the first
    /// affordable head, retiring a lane once its FIFO empties.
    ///
    /// A full pass that dispatches nothing is followed by one bulk
    /// credit: every lane gets the quanta the closest lane still needs,
    /// which is exactly what that many further passes would have added.
    /// The schedule is unchanged, but a huge cost no longer spins here,
    /// under the scheduler lock, for `cost / quantum` visits.
    fn pop_next(&mut self) -> Option<String> {
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
                let quanta = self
                    .lanes
                    .iter()
                    .map(|l| {
                        let cost = l.fifo.front().map_or(0, |head| head.0);
                        cost.saturating_sub(l.deficit).div_ceil(DEFAULT_QUANTUM)
                    })
                    .min()
                    .unwrap_or(0);
                let credit = quanta.saturating_mul(DEFAULT_QUANTUM);
                for lane in &mut self.lanes {
                    lane.deficit = lane.deficit.saturating_add(credit);
                }
                misses = 0;
            }
            let lane = &mut self.lanes[self.cursor];
            let cost = lane.fifo.front().expect("live lanes hold jobs").0;
            if lane.deficit >= cost {
                lane.deficit -= cost;
                let (_, key) = lane.fifo.pop_front().expect("live lanes hold jobs");
                if lane.fifo.is_empty() {
                    self.lanes.remove(self.cursor);
                }
                return Some(key);
            }
            lane.deficit = lane.deficit.saturating_add(DEFAULT_QUANTUM);
            self.cursor += 1;
            misses += 1;
        }
    }

    /// Empties every lane, returning the keys it held.
    fn take_keys(&mut self) -> Vec<String> {
        self.cursor = 0;
        let lanes = std::mem::take(&mut self.lanes);
        lanes
            .into_iter()
            .flat_map(|l| l.fifo)
            .map(|(_, key)| key)
            .collect()
    }
}

/// Everything the scheduler mutex guards.
struct State<S> {
    lanes: Lanes,
    /// Every queued or running job by content key.
    jobs: HashMap<String, InFlight<S>>,
    /// Set by close and shutdown: submissions fail, and workers exit
    /// once the lanes are empty.
    closed: bool,
    /// Raised by shutdown; running jobs poll it at trial boundaries.
    cancel: CancelToken,
}

/// A job a worker claimed: its key, its point and the cancel flag.
struct Claim {
    key: String,
    planned: Arc<PlannedPoint>,
    cancel: CancelToken,
}

/// Why a job did not end cleanly, as [`Scheduler::work`] reports it.
#[derive(Debug)]
pub enum JobError {
    /// Every waiter got the record, but appending it to a store failed.
    Store(io::Error),
    /// The run panicked; every waiter got `failed` with this message.
    Panicked(String),
}

/// What [`Scheduler::submit`] accepted and how its points partitioned.
#[derive(Debug)]
pub struct Submission<S> {
    /// The subscriber built from the plan.
    pub subscriber: S,
    pub plan: Plan,
    /// Points that became new jobs.
    pub scheduled: usize,
    /// Points served from the store.
    pub cached: usize,
    /// Points attached to a job already queued or running.
    pub attached: usize,
}

/// Point-in-time job counts, for the `queue.*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs queued and not yet claimed.
    pub depth: usize,
    /// Jobs claimed by workers and not yet finished.
    pub in_flight: usize,
    /// Lanes holding queued jobs.
    pub lanes: usize,
}

/// The dedup scheduler; see the [module docs](self).
pub struct Scheduler<S> {
    state: Mutex<State<S>>,
    /// Signalled on submit, close and shutdown: a waiting worker may
    /// have a job to claim or a reason to exit.
    work: Condvar,
    /// Signalled whenever the job table empties.
    idle: Condvar,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Scheduler {
            state: Mutex::new(State {
                lanes: Lanes::default(),
                jobs: HashMap::new(),
                closed: false,
                cancel: CancelToken::new(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }
}

impl<S: Subscriber + Clone> Scheduler<S> {
    fn lock(&self) -> MutexGuard<'_, State<S>> {
        self.state.lock().expect("scheduler state")
    }

    /// Builds the plan against `store` with `plan`, builds the
    /// submission's subscriber from it, and routes every point through
    /// the rule on a lane of its own. Fails on a plan error or once the
    /// scheduler is closed.
    pub fn submit(
        &self,
        store: &SharedStore,
        plan: impl FnOnce(&Store) -> Result<Plan, CampaignError>,
        subscriber: impl FnOnce(&Plan) -> S,
    ) -> Result<Submission<S>, CampaignError> {
        let mut st = self.lock();
        if st.closed {
            return Err(CampaignError::Closed);
        }
        let plan = store.read(plan)?;
        let subscriber = subscriber(&plan);
        let (mut lane, mut cached, mut attached) = (VecDeque::new(), 0, 0);
        for (index, planned) in plan.points.iter().enumerate() {
            let key = planned.point.digest_hex();
            if let Some(record) = store.get(&key, &planned.point.full_key()) {
                let (status, record) = (PointStatus::Cached, Some(record));
                subscriber.notify(&PointEvent::from_planned(index, planned, status, record));
                cached += 1;
                continue;
            }
            let waiter = Waiter {
                subscriber: subscriber.clone(),
                index,
                store: store.clone(),
            };
            match st.jobs.entry(key) {
                Entry::Occupied(job) => {
                    job.into_mut().waiters.push(waiter);
                    attached += 1;
                }
                Entry::Vacant(slot) => {
                    lane.push_back((planned.point.trials.max(1) as u64, slot.key().clone()));
                    let planned = Arc::new(planned.clone());
                    slot.insert(InFlight {
                        planned,
                        waiters: vec![waiter],
                    });
                }
            }
        }
        let scheduled = lane.len();
        st.lanes.push(lane);
        drop(st);
        self.work.notify_all();
        Ok(Submission {
            subscriber,
            plan,
            scheduled,
            cached,
            attached,
        })
    }

    /// The one worker loop: claims and executes jobs until the
    /// scheduler is closed and its lanes are empty, calling `done` after
    /// each with its point and how it ended. The worker's one
    /// [`StepCtx`] serves every job; it is replaced after a caught
    /// panic, which can leave its scratch buffers mid-round.
    pub fn work(&self, done: impl Fn(&SweepPoint, Result<(), JobError>)) {
        let mut ctx = StepCtx::new();
        while let Some(claim) = self.claim() {
            let result = self.execute(&claim, &mut ctx);
            if let Err(JobError::Panicked(_)) = result {
                ctx = StepCtx::new();
            }
            done(&claim.planned.point, result);
        }
    }

    /// Blocks until a job dispatches and claims it, sending `started`
    /// to its waiters; `None` once closed with nothing queued.
    fn claim(&self) -> Option<Claim> {
        let mut st = self.lock();
        loop {
            if let Some(key) = st.lanes.pop_next() {
                let job = &st.jobs[&key];
                job.notify(|_| PointStatus::Started, None, None);
                let planned = Arc::clone(&job.planned);
                let cancel = st.cancel.clone();
                return Some(Claim {
                    key,
                    planned,
                    cancel,
                });
            }
            if st.closed {
                return None;
            }
            st = self.work.wait(st).expect("scheduler state");
        }
    }

    /// Runs a claimed job with no lock held, then resolves its waiters
    /// and leaves the table. This is where a point's panic is contained.
    fn execute(&self, claim: &Claim, ctx: &mut StepCtx) -> Result<(), JobError> {
        let Claim {
            key,
            planned,
            cancel,
        } = claim;
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_point_cancellable(&planned.point, &planned.topology, ctx, cancel)
        }));
        let mut st = self.lock();
        let job = st.jobs.remove(key).expect("a claimed job is in flight");
        let result = match run {
            Ok(Some(record)) => {
                let mut result = Ok(());
                let mut stores: Vec<&SharedStore> = Vec::with_capacity(1);
                for w in &job.waiters {
                    if !stores.iter().any(|s| s.same_store(&w.store)) {
                        result = result.and(w.store.record(&record));
                        stores.push(&w.store);
                    }
                }
                let status = |i| match i {
                    0 => PointStatus::Computed,
                    _ => PointStatus::Deduped,
                };
                job.notify(status, Some(&record), None);
                result.map_err(JobError::Store)
            }
            Ok(None) => {
                job.notify(|_| PointStatus::Cancelled, None, None);
                Ok(())
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                job.notify(|_| PointStatus::Failed, None, Some(&message));
                Err(JobError::Panicked(message))
            }
        };
        if st.jobs.is_empty() {
            self.idle.notify_all();
        }
        result
    }

    /// Seals the scheduler: later submissions fail, queued jobs still
    /// run, and workers exit once the lanes are empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }

    /// Closes the scheduler, raises the cancel flag (running jobs stop
    /// at their next trial boundary), sends `cancelled` for every queued
    /// job, and waits for the running ones. Persisted records stay.
    pub fn shutdown(&self) {
        let mut st = self.lock();
        st.closed = true;
        st.cancel.cancel();
        for key in st.lanes.take_keys() {
            let job = st.jobs.remove(&key).expect("a queued job is in the table");
            job.notify(|_| PointStatus::Cancelled, None, None);
        }
        drop(st);
        self.work.notify_all();
        self.idle.notify_all();
        self.wait_idle(None);
    }

    /// Blocks until no job is queued or running, or until `timeout`
    /// passes (`None` waits for good); true once idle.
    pub fn wait_idle(&self, timeout: Option<Duration>) -> bool {
        let busy = |st: &mut State<S>| !st.jobs.is_empty();
        let st = self.lock();
        let st = match timeout {
            Some(t) => {
                self.idle
                    .wait_timeout_while(st, t, busy)
                    .expect("scheduler state")
                    .0
            }
            None => self.idle.wait_while(st, busy).expect("scheduler state"),
        };
        st.jobs.is_empty()
    }

    /// Point-in-time job counts.
    pub fn stats(&self) -> QueueStats {
        let st = self.lock();
        let depth = st.lanes.depth();
        QueueStats {
            depth,
            in_flight: st.jobs.len() - depth,
            lanes: st.lanes.lanes.len(),
        }
    }
}

/// The text of a caught panic (`panic!` payloads are `&str` or `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "the point panicked".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{default_cap, plan_sweep};

    /// Pops every queued key in dispatch order.
    fn drain_order(lanes: &mut Lanes) -> Vec<String> {
        std::iter::from_fn(|| lanes.pop_next()).collect()
    }

    /// One lane of `(cost, key)` jobs.
    fn lane(jobs: &[(u64, &str)]) -> VecDeque<(u64, String)> {
        jobs.iter()
            .map(|&(cost, key)| (cost, key.to_string()))
            .collect()
    }

    #[test]
    fn fair_share_order_is_deterministic() {
        // Two lanes, jobs of half a quantum: the scheduler alternates
        // two-job bursts. The exact interleaving is pinned — this is
        // the determinism contract for fair-share ordering.
        let half = DEFAULT_QUANTUM / 2;
        let mut lanes = Lanes::default();
        lanes.push(lane(&[
            (half, "a1"),
            (half, "a2"),
            (half, "a3"),
            (half, "a4"),
        ]));
        lanes.push(lane(&[
            (half, "b1"),
            (half, "b2"),
            (half, "b3"),
            (half, "b4"),
        ]));
        assert_eq!(
            drain_order(&mut lanes),
            ["a1", "a2", "b1", "b2", "a3", "a4", "b3", "b4"]
        );
    }

    #[test]
    fn fair_share_weights_by_cost_not_job_count() {
        // Lane H's jobs cost a quantum, lane L's a quarter of one: per
        // full rotation H affords one job and L four — equal compute,
        // not equal job counts.
        let (q, quarter) = (DEFAULT_QUANTUM, DEFAULT_QUANTUM / 4);
        let mut lanes = Lanes::default();
        lanes.push(lane(&[(q, "h1"), (q, "h2")]));
        let light: Vec<String> = (1..=8).map(|i| format!("l{i}")).collect();
        lanes.push(light.iter().map(|k| (quarter, k.clone())).collect());
        assert_eq!(
            drain_order(&mut lanes),
            ["h1", "l1", "l2", "l3", "l4", "h2", "l5", "l6", "l7", "l8"]
        );
    }

    #[test]
    fn bulk_credit_keeps_the_per_visit_schedule() {
        // Reference DRR: one quantum per visit, no bulk credit.
        fn per_visit(lanes: &[Vec<u64>]) -> Vec<String> {
            // (lane, deficit, head job) for every lane with jobs left.
            let mut live: Vec<(usize, u64, usize)> = (0..lanes.len()).map(|l| (l, 0, 0)).collect();
            let (mut cursor, mut order) = (0, Vec::new());
            while !live.is_empty() {
                cursor %= live.len();
                let (lane, deficit, job) = &mut live[cursor];
                let cost = lanes[*lane][*job];
                if *deficit >= cost {
                    *deficit -= cost;
                    order.push(format!("{lane}:{job}"));
                    *job += 1;
                    if *job == lanes[*lane].len() {
                        live.remove(cursor);
                    }
                } else {
                    *deficit += DEFAULT_QUANTUM;
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
        for round in 0..3 {
            let costs: Vec<Vec<u64>> = (0..4 + round)
                .map(|l| (0..6 + l).map(|_| cost()).collect())
                .collect();
            let mut lanes = Lanes::default();
            for (l, jobs) in costs.iter().enumerate() {
                let fifo = jobs
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| (c, format!("{l}:{j}")));
                lanes.push(fifo.collect());
            }
            assert_eq!(drain_order(&mut lanes), per_visit(&costs), "round {round}");
        }
    }

    #[test]
    fn a_huge_cost_is_claimed_at_once() {
        let (tx, rx) = std::sync::mpsc::channel();
        // A helper thread, so a spinning dispatch fails the test by
        // timeout instead of hanging the suite.
        let handle = std::thread::spawn(move || {
            let mut lanes = Lanes::default();
            lanes.push(lane(&[(u64::MAX, "huge")]));
            let _ = tx.send(lanes.pop_next());
        });
        let claimed = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            claimed,
            Ok(Some("huge".to_string())),
            "dispatch spun on u64::MAX"
        );
        handle.join().expect("the claiming thread returns");
    }

    #[test]
    fn lane_fifo_order_is_preserved() {
        let keys: Vec<String> = (0..16).map(|i| i.to_string()).collect();
        let mut lanes = Lanes::default();
        lanes.push(keys.iter().map(|k| (3, k.clone())).collect());
        assert_eq!(drain_order(&mut lanes), keys);
    }

    /// Every event a subscriber saw, as (expansion index, status).
    type Seen = Mutex<Vec<(usize, PointStatus)>>;

    /// A borrowed event callback, the sweep's kind of subscriber.
    type Callback<'a> = &'a (dyn Fn(&PointEvent) + Sync);

    fn submit<'a>(
        scheduler: &Scheduler<Callback<'a>>,
        spec: &str,
        subscriber: Callback<'a>,
    ) -> Result<Submission<Callback<'a>>, CampaignError> {
        let spec = spec.parse().unwrap();
        let plan = |store: &Store| plan_sweep(&spec, store, &default_cap);
        scheduler.submit(&SharedStore::in_memory(), plan, |_| subscriber)
    }

    fn statuses(seen: &Seen) -> Vec<PointStatus> {
        seen.lock().unwrap().iter().map(|&(_, s)| s).collect()
    }

    #[test]
    fn shutdown_cancels_pending_and_inflight() {
        let (huge, small) = (Seen::default(), Seen::default());
        let on_huge = |e: &PointEvent| huge.lock().unwrap().push((e.index, e.status));
        let on_small = |e: &PointEvent| small.lock().unwrap().push((e.index, e.status));
        let scheduler = Scheduler::default();
        let forever = "cover; graph=cycle:8; process=cobra:b2; trials=1000000000000000000";
        submit(&scheduler, forever, &on_huge).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| scheduler.work(|_, _| {}));
            // The one worker is busy with the huge point, so the small
            // ones stay queued.
            while statuses(&huge).is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let queued = "cover; graph=cycle:{8..10}; process=cobra:b2; trials=2";
            submit(&scheduler, queued, &on_small).unwrap();
            assert_eq!(scheduler.stats().depth, 3);
            scheduler.shutdown();
        });
        use PointStatus::{Cancelled, Started};
        assert_eq!(statuses(&huge), [Started, Cancelled]);
        assert_eq!(statuses(&small), [Cancelled; 3]);
        let stats = scheduler.stats();
        assert_eq!((stats.depth, stats.in_flight, stats.lanes), (0, 0, 0));
        let again = submit(
            &scheduler,
            "cover; graph=cycle:8; process=cobra:b2; trials=1",
            &on_small,
        );
        assert!(matches!(again, Err(CampaignError::Closed)));
        assert!(scheduler.wait_idle(None), "trivially idle, must not hang");
    }

    #[test]
    fn close_drains_then_workers_exit() {
        let seen = Seen::default();
        let on_event = |e: &PointEvent| seen.lock().unwrap().push((e.index, e.status));
        let scheduler = Scheduler::default();
        let spec = "cover; graph=cycle:{3..42}; process=cobra:b2; trials=1";
        assert_eq!(submit(&scheduler, spec, &on_event).unwrap().scheduled, 40);
        scheduler.close();
        // The scope returns only once all four workers have exited.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| scheduler.work(|_, result| result.unwrap()));
            }
        });
        let mut computed: Vec<usize> = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|&&(_, s)| s == PointStatus::Computed)
            .map(|&(i, _)| i)
            .collect();
        computed.sort_unstable();
        assert_eq!(computed, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn wait_idle_blocks_until_drained() {
        let seen = Seen::default();
        let on_event = |e: &PointEvent| seen.lock().unwrap().push((e.index, e.status));
        let scheduler = Scheduler::default();
        submit(
            &scheduler,
            "cover; graph=cycle:{8..15}; process=cobra:b2; trials=3",
            &on_event,
        )
        .unwrap();
        scheduler.close();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| scheduler.work(|_, _| {}));
            }
            assert!(scheduler.wait_idle(None));
            let stats = scheduler.stats();
            assert_eq!((stats.depth, stats.in_flight), (0, 0));
            // Every job resolved its waiters before it left the table.
            let computed = statuses(&seen)
                .into_iter()
                .filter(|&s| s == PointStatus::Computed);
            assert_eq!(computed.count(), 8);
        });
    }

    #[test]
    fn submit_after_close_fails() {
        let on_event = |_: &PointEvent| {};
        let scheduler = Scheduler::default();
        scheduler.close();
        let spec = "cover; graph=cycle:8; process=cobra:b2; trials=1";
        assert!(matches!(
            submit(&scheduler, spec, &on_event),
            Err(CampaignError::Closed)
        ));
    }
}
