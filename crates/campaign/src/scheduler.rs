//! The one point scheduler behind `cobra-exps sweep`, every `run_sweep*`
//! entry point and the `cobra-serve` daemon.
//!
//! A [`Scheduler`] owns one [`JobQueue`], one in-flight index and one
//! mutex. Each [`Scheduler::submit`] plans a sweep against its store,
//! gets its own deficit-round-robin lane (points cost their trial count,
//! so lanes share workers by compute, not job count), and routes every
//! point through one rule: the store holds its key → `cached`; its key
//! is in flight (an expansion twin, or another submission's job) → it
//! attaches to that job; otherwise → a new job.
//!
//! [`Scheduler::execute`] runs a claimed job with no lock held, then
//! persists the record once to each distinct store among its waiters.
//! The first waiter sees `computed`, every other one `deduped` with the
//! same record; waiters present at the claim also saw `started`. A
//! cancelled run, or [`Scheduler::shutdown`] for a job that never ran,
//! sends `cancelled` to every waiter.
//!
//! Planning, scheduling and a finished job's persist-and-detach all
//! happen under the mutex, so no job completes between a plan that saw
//! its key missing and the schedule that attaches to it. Lock order is
//! scheduler → store → subscriber; subscribers must not call back in.
//!
//! [`JobQueue`]: cobra_mc::queue::JobQueue

use crate::runner::{plan_sweep, run_point_cancellable, CapPolicy, Plan, PlannedPoint};
use crate::runner::{PointEvent, PointStatus};
use crate::store::{PointRecord, SharedStore};
use crate::sweep::SweepSpec;
use crate::CampaignError;
use cobra_mc::queue::JobQueue;
use cobra_mc::CancelToken;
use cobra_process::StepCtx;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

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
    fn notify(&self, record: Option<&PointRecord>, status: impl Fn(usize) -> PointStatus) {
        for (i, w) in self.waiters.iter().enumerate() {
            let event =
                PointEvent::from_planned(w.index, &self.planned, status(i), record.cloned());
            w.subscriber.notify(&event);
        }
    }
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
    /// Points attached to a job already in flight.
    pub attached: usize,
}

/// The dedup scheduler; see the [module docs](self).
pub struct Scheduler<S> {
    queue: JobQueue<String>,
    inflight: Mutex<HashMap<String, InFlight<S>>>,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Scheduler {
            queue: JobQueue::new(),
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

impl<S: Subscriber + Clone> Scheduler<S> {
    /// The job queue (jobs are content keys), for workers to drain.
    pub fn queue(&self) -> &JobQueue<String> {
        &self.queue
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, InFlight<S>>> {
        self.inflight.lock().expect("scheduler state")
    }

    /// Plans `spec` against `store`, builds the submission's subscriber
    /// from the plan, and routes every point through the rule on a lane
    /// of its own. Fails on a plan error or after a shutdown.
    pub fn submit(
        &self,
        spec: &SweepSpec,
        store: &SharedStore,
        cap_policy: CapPolicy<'_>,
        subscriber: impl FnOnce(&Plan) -> S,
    ) -> Result<Submission<S>, CampaignError> {
        let mut inflight = self.lock();
        if self.queue.is_closed() {
            return Err(CampaignError::Closed);
        }
        let plan = store.read(|s| plan_sweep(spec, s, cap_policy))?;
        let subscriber = subscriber(&plan);
        let lane = self.queue.lane();
        let (mut scheduled, mut cached, mut attached) = (0, 0, 0);
        for (index, planned) in plan.points.iter().enumerate() {
            let key = planned.point.digest_hex();
            let waiter = || Waiter {
                subscriber: subscriber.clone(),
                index,
                store: store.clone(),
            };
            if let Some(record) = store.get(&key, &planned.point.full_key()) {
                let (status, record) = (PointStatus::Cached, Some(record));
                let event = PointEvent::from_planned(index, planned, status, record);
                subscriber.notify(&event);
                cached += 1;
            } else if let Some(job) = inflight.get_mut(&key) {
                job.waiters.push(waiter());
                attached += 1;
            } else {
                self.queue
                    .submit(lane, planned.point.trials as u64, key.clone())
                    .expect("the queue closes only under this lock");
                let planned = Arc::new(planned.clone());
                let waiters = vec![waiter()];
                inflight.insert(key, InFlight { planned, waiters });
                scheduled += 1;
            }
        }
        Ok(Submission {
            subscriber,
            plan,
            scheduled,
            cached,
            attached,
        })
    }

    /// Runs the claimed job `key` on a worker's context and resolves its
    /// waiters. They get the record even when persisting it fails; the
    /// first append error is returned.
    pub fn execute(&self, key: &str, token: &CancelToken, ctx: &mut StepCtx) -> io::Result<()> {
        let planned = {
            let inflight = self.lock();
            let job = inflight.get(key).expect("a claimed job is in flight");
            job.notify(None, |_| PointStatus::Started);
            Arc::clone(&job.planned)
        };
        let outcome = run_point_cancellable(&planned.point, &planned.topology, ctx, token);
        let mut result = Ok(());
        let mut inflight = self.lock();
        let job = inflight.remove(key).expect("a claimed job is in flight");
        if let Some(record) = &outcome {
            let mut stores: Vec<&SharedStore> = Vec::with_capacity(1);
            for w in &job.waiters {
                if !stores.iter().any(|s| s.same_store(&w.store)) {
                    result = result.and(w.store.record(record));
                    stores.push(&w.store);
                }
            }
        }
        drop(inflight);
        job.notify(outcome.as_ref(), |i| match (&outcome, i) {
            (None, _) => PointStatus::Cancelled,
            (Some(_), 0) => PointStatus::Computed,
            (Some(_), _) => PointStatus::Deduped,
        });
        result
    }

    /// Cancels queued and running jobs, waits for the workers to drain,
    /// and sends `cancelled` to every waiter still left. Later
    /// submissions fail.
    pub fn shutdown(&self) {
        let guard = self.lock();
        self.queue.shutdown();
        drop(guard);
        self.queue.wait_idle();
        for job in std::mem::take(&mut *self.lock()).into_values() {
            job.notify(None, |_| PointStatus::Cancelled);
        }
    }
}
