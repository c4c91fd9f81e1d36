//! The campaign service: a long-running multiplexer that accepts sweep
//! campaigns from many clients, schedules their points on one shared
//! worker pool with deficit-round-robin fairness, dedups identical work
//! across clients at two levels, and streams per-point lifecycle events
//! to each campaign's subscribers.
//!
//! # Fairness
//!
//! Every campaign gets its own [`JobQueue`] lane; points are submitted
//! at cost = trial count, so the scheduler's deficit round-robin
//! balances *compute*, not job count — a 1000-trial campaign cannot
//! starve a 5-trial one submitted after it.
//!
//! # Two-level dedup
//!
//! 1. **Store level** — a point whose content key is already in the
//!    campaign's content-addressed store is served immediately as a
//!    `cached` event; it never touches the queue.
//! 2. **In-flight level** — a point whose key is currently being
//!    computed (by any campaign) *attaches* to the running job instead
//!    of scheduling a second one. When the job finishes, the first
//!    subscriber sees `computed` and every attached subscriber sees
//!    `deduped`, all carrying the same record. The work happens exactly
//!    once.
//!
//! # Locking protocol
//!
//! One mutex (the private `ServiceState`) owns the campaign table, store table,
//! and in-flight index. Submission plans and schedules *under* that
//! lock, and workers record-and-detach under the same lock, so the
//! "plan saw key K missing, but K completed before we scheduled it"
//! race cannot happen: between a plan and its schedule no job can
//! complete. Lock order is always service state → store (`SharedStore`
//! is internally locked); point computation itself runs with no lock
//! held.

use cobra_campaign::{
    default_cap, plan_sweep, run_point_cancellable, PlannedPoint, PointEvent, PointStatus,
    SharedStore, SweepSpec,
};
use cobra_graph::GraphShape;
use cobra_mc::queue::{JobQueue, LaneId};
use cobra_obs::SharedRegistry;
use cobra_process::{ProcessSpec, StepCtx};
use cobra_util::json::obj;
use cobra_util::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the shared queue (0 = one per core).
    pub threads: usize,
    /// Root directory for per-campaign stores (`<root>/<name>/` — the
    /// same layout as `cobra-exps sweep --store`, so a daemon pointed
    /// at an existing campaigns directory serves those results warm);
    /// `None` keeps every store in-memory (tests, throwaway runs).
    pub store_root: Option<PathBuf>,
    /// Deficit round-robin quantum, in trial units.
    pub quantum: u64,
    /// Per-trial round cap policy for points without an explicit cap.
    pub cap: fn(GraphShape, &ProcessSpec) -> usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            store_root: None,
            quantum: cobra_mc::queue::DEFAULT_QUANTUM,
            cap: default_cap,
        }
    }
}

impl ServeConfig {
    /// Resolved worker-thread count.
    pub fn resolved_threads(&self) -> usize {
        cobra_mc::resolve_threads(self.threads)
    }
}

/// Counters a campaign accumulates as its points resolve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounts {
    pub computed: usize,
    pub cached: usize,
    pub deduped: usize,
    pub cancelled: usize,
}

impl CampaignCounts {
    fn resolved(&self) -> usize {
        self.computed + self.cached + self.deduped + self.cancelled
    }
}

/// The event log of one campaign: NDJSON lines in emission order, the
/// lifecycle counters, and the done flag the streaming endpoint blocks
/// on. One lock covers all three, so a terminal event's line, its count
/// and the `done` line it may complete land atomically and in order.
#[derive(Debug, Default)]
struct EventLog {
    lines: Vec<String>,
    counts: CampaignCounts,
    done: bool,
}

/// One accepted campaign. Shared (`Arc`) between the service state, the
/// in-flight subscriber lists, and any number of streaming readers.
#[derive(Debug)]
pub struct CampaignState {
    pub id: u64,
    pub name: String,
    /// Canonical spec string, as accepted.
    pub spec: String,
    /// Total points in the expansion.
    pub total: usize,
    /// DRR lane this campaign's jobs ride.
    lane: LaneId,
    log: Mutex<EventLog>,
    log_ready: Condvar,
}

impl CampaignState {
    /// Snapshot of the lifecycle counters.
    pub fn counts(&self) -> CampaignCounts {
        self.log.lock().expect("campaign log").counts
    }

    /// True once every point has resolved and the done event is logged.
    pub fn is_done(&self) -> bool {
        self.log.lock().expect("campaign log").done
    }

    /// Blocks until the log holds more than `from` lines (or the
    /// campaign is done), then returns the new lines and the done flag.
    /// A `(empty, true)` return means the stream is over.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, bool) {
        let mut log = self.log.lock().expect("campaign log");
        while log.lines.len() <= from && !log.done {
            log = self.log_ready.wait(log).expect("campaign log");
        }
        (log.lines[from.min(log.lines.len())..].to_vec(), log.done)
    }

    /// Non-blocking snapshot of lines past `from`.
    pub fn events_from(&self, from: usize) -> (Vec<String>, bool) {
        let log = self.log.lock().expect("campaign log");
        (log.lines[from.min(log.lines.len())..].to_vec(), log.done)
    }

    /// Records one terminal point status, emits its event, and closes
    /// the campaign with a `done` event when the last point resolves —
    /// all under the log lock, so `done` always follows every terminal
    /// event, however many workers resolve points concurrently.
    fn resolve_point(&self, event: &PointEvent) {
        let line = self.envelope(event);
        let mut log = self.log.lock().expect("campaign log");
        let counts = &mut log.counts;
        match event.status {
            PointStatus::Computed => counts.computed += 1,
            PointStatus::Cached => counts.cached += 1,
            PointStatus::Deduped => counts.deduped += 1,
            PointStatus::Cancelled => counts.cancelled += 1,
            PointStatus::Started => unreachable!("started is not terminal"),
        }
        let counts = *counts;
        log.lines.push(line);
        if counts.resolved() == self.total {
            log.lines.push(self.done_line(counts));
            log.done = true;
        }
        self.log_ready.notify_all();
    }

    /// Emits a non-terminal (`started`) event and wakes streaming
    /// readers.
    fn note_started(&self, event: &PointEvent) {
        let line = self.envelope(event);
        self.log.lock().expect("campaign log").lines.push(line);
        self.log_ready.notify_all();
    }

    /// A point event wrapped with this campaign's envelope fields.
    fn envelope(&self, event: &PointEvent) -> String {
        let mut json = event.to_json();
        if let Json::Object(fields) = &mut json {
            fields.push(("campaign".to_string(), Json::Int(self.id as i128)));
        }
        json.to_string()
    }

    fn done_line(&self, counts: CampaignCounts) -> String {
        obj([
            ("type", Json::Str("done".into())),
            ("campaign", Json::Int(self.id as i128)),
            ("total", Json::Int(self.total as i128)),
            ("computed", Json::Int(counts.computed as i128)),
            ("cached", Json::Int(counts.cached as i128)),
            ("deduped", Json::Int(counts.deduped as i128)),
            ("cancelled", Json::Int(counts.cancelled as i128)),
        ])
        .to_string()
    }

    /// The status document served by `GET /campaigns/<id>`.
    pub fn status_json(&self) -> Json {
        let counts = self.counts();
        obj([
            ("campaign", Json::Int(self.id as i128)),
            ("name", Json::Str(self.name.clone())),
            ("spec", Json::Str(self.spec.clone())),
            ("total", Json::Int(self.total as i128)),
            ("computed", Json::Int(counts.computed as i128)),
            ("cached", Json::Int(counts.cached as i128)),
            ("deduped", Json::Int(counts.deduped as i128)),
            ("cancelled", Json::Int(counts.cancelled as i128)),
            ("done", Json::Bool(self.is_done())),
        ])
    }
}

/// One point being computed right now, with everyone waiting on it.
struct InFlight {
    /// Subscribers in attach order; the first is the campaign that
    /// scheduled the job (it gets `computed`), the rest attached via
    /// in-flight dedup (they get `deduped`).
    subscribers: Vec<(Arc<CampaignState>, usize)>,
}

/// One job on the shared queue: a fully-planned point bound to its
/// campaign's store.
pub struct PointJob {
    key: String,
    planned: PlannedPoint,
    store: SharedStore,
}

/// Everything the service mutex owns. See the module docs for the
/// locking protocol.
#[derive(Default)]
struct ServiceState {
    next_id: u64,
    campaigns: HashMap<u64, Arc<CampaignState>>,
    /// One shared store handle per campaign name — satisfying the store
    /// writer lock (a second `Store::open` on the same directory fails
    /// fast) by construction.
    stores: HashMap<String, SharedStore>,
    /// Content key → the running job's subscribers.
    inflight: HashMap<String, InFlight>,
}

/// The campaign service: shared queue + state table + metrics. Wrap in
/// an `Arc`, call [`CampaignService::spawn_workers`], and hand clones
/// to the HTTP layer (or drive it in-process, as the tests do).
pub struct CampaignService {
    queue: JobQueue<PointJob>,
    state: Mutex<ServiceState>,
    metrics: SharedRegistry,
    config: ServeConfig,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// What `POST /campaigns` returns: the accepted campaign plus how its
/// points partitioned at submission time.
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    pub campaign: Arc<CampaignState>,
    /// Points scheduled for computation by this submission.
    pub scheduled: usize,
    /// Points served warm from the store.
    pub cached: usize,
    /// Points attached to already-running jobs (in-flight dedup hits).
    pub attached: usize,
}

impl SubmitReceipt {
    /// The receipt document returned to the client.
    pub fn to_json(&self) -> Json {
        obj([
            ("campaign", Json::Int(self.campaign.id as i128)),
            ("name", Json::Str(self.campaign.name.clone())),
            ("total", Json::Int(self.campaign.total as i128)),
            ("scheduled", Json::Int(self.scheduled as i128)),
            ("cached", Json::Int(self.cached as i128)),
            ("attached", Json::Int(self.attached as i128)),
            (
                "events",
                Json::Str(format!("/campaigns/{}/events", self.campaign.id)),
            ),
        ])
    }
}

impl CampaignService {
    /// Builds the service. No workers run yet — call
    /// [`CampaignService::spawn_workers`] (kept separate so tests can
    /// submit duplicate campaigns first and observe deterministic
    /// in-flight dedup).
    pub fn new(config: ServeConfig) -> CampaignService {
        CampaignService {
            queue: JobQueue::with_quantum(config.quantum),
            state: Mutex::new(ServiceState::default()),
            metrics: SharedRegistry::new(),
            config,
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The service metrics handle (shared with the HTTP layer).
    pub fn metrics(&self) -> &SharedRegistry {
        &self.metrics
    }

    /// Spawns `threads` workers (0 = config default) draining the
    /// shared queue. Each worker owns one long-lived [`StepCtx`].
    pub fn spawn_workers(self: &Arc<Self>, threads: usize) {
        let threads = if threads == 0 {
            self.config.resolved_threads()
        } else {
            threads
        };
        let mut workers = self.workers.lock().expect("worker table");
        for _ in 0..threads {
            let service = Arc::clone(self);
            workers.push(std::thread::spawn(move || {
                let mut ctx = StepCtx::new();
                while let Some(mut claim) = service.queue.next() {
                    let token = claim.token().clone();
                    let job = claim.take();
                    service.execute(job, &token, &mut ctx);
                }
            }));
        }
    }

    /// The campaign with the given id, if it exists.
    pub fn campaign(&self, id: u64) -> Option<Arc<CampaignState>> {
        self.state
            .lock()
            .expect("service state")
            .campaigns
            .get(&id)
            .cloned()
    }

    /// Queue statistics (depth, in-flight, lanes, totals).
    pub fn queue_stats(&self) -> cobra_mc::QueueStats {
        self.queue.stats()
    }

    /// Accepts a campaign: parses the spec, plans it against the
    /// campaign's store, serves cached points immediately, attaches to
    /// in-flight twins, and schedules the rest on the campaign's own
    /// DRR lane. Plan + schedule happen atomically under the service
    /// lock (see module docs).
    pub fn submit(&self, spec_text: &str) -> Result<SubmitReceipt, String> {
        let spec: SweepSpec = spec_text.trim().parse().map_err(|e| format!("{e}"))?;
        let name = spec.name();
        let mut state = self.state.lock().expect("service state");
        let store = match state.stores.get(&name) {
            Some(store) => store.clone(),
            None => {
                let store = match &self.config.store_root {
                    Some(root) => SharedStore::open(root.join(&name))
                        .map_err(|e| format!("campaign store: {e}"))?,
                    None => SharedStore::in_memory(),
                };
                state.stores.insert(name.clone(), store.clone());
                store
            }
        };
        let plan = store
            .read(|s| {
                plan_sweep(&spec, s, &|shape, process| {
                    (self.config.cap)(shape, process)
                })
            })
            .map_err(|e| format!("{e}"))?;

        state.next_id += 1;
        let campaign = Arc::new(CampaignState {
            id: state.next_id,
            name,
            spec: spec.to_string(),
            total: plan.len(),
            lane: self.queue.lane(),
            log: Mutex::new(EventLog::default()),
            log_ready: Condvar::new(),
        });
        state.campaigns.insert(campaign.id, Arc::clone(&campaign));

        let cached_set: std::collections::HashSet<usize> = plan.cached.iter().copied().collect();
        let (mut scheduled, mut cached, mut attached) = (0usize, 0usize, 0usize);
        for (index, planned) in plan.points.iter().enumerate() {
            let key = planned.point.digest_hex();
            if cached_set.contains(&index) {
                let record = store
                    .get(&key, &planned.point.full_key())
                    .expect("plan partitioned this point as cached");
                campaign.resolve_point(&PointEvent::from_planned(
                    index,
                    planned,
                    PointStatus::Cached,
                    Some(record),
                ));
                cached += 1;
            } else if let Some(inflight) = state.inflight.get_mut(&key) {
                inflight.subscribers.push((Arc::clone(&campaign), index));
                attached += 1;
            } else {
                self.queue
                    .submit(
                        campaign.lane,
                        planned.point.trials as u64,
                        PointJob {
                            key: key.clone(),
                            planned: planned.clone(),
                            store: store.clone(),
                        },
                    )
                    .map_err(|_| "service is shutting down".to_string())?;
                state.inflight.insert(
                    key,
                    InFlight {
                        subscribers: vec![(Arc::clone(&campaign), index)],
                    },
                );
                scheduled += 1;
            }
        }
        drop(state);

        self.metrics.counter("serve.campaigns.submitted", 1);
        self.metrics.counter("serve.points.cached", cached as u64);
        self.metrics.counter("serve.dedup.hits", attached as u64);
        self.publish_queue_gauges();
        Ok(SubmitReceipt {
            campaign,
            scheduled,
            cached,
            attached,
        })
    }

    /// Runs one claimed job on a worker thread. Computation holds no
    /// lock; the record-and-detach step takes the service lock so no
    /// submission can plan against a store state this job is about to
    /// change.
    fn execute(&self, job: PointJob, token: &cobra_mc::CancelToken, ctx: &mut StepCtx) {
        let started = {
            // Snapshot subscribers at claim time for the started event;
            // later attachers only see their terminal `deduped`.
            let state = self.state.lock().expect("service state");
            state
                .inflight
                .get(&job.key)
                .map(|f| f.subscribers.clone())
                .unwrap_or_default()
        };
        for (campaign, index) in &started {
            campaign.note_started(&PointEvent::from_planned(
                *index,
                &job.planned,
                PointStatus::Started,
                None,
            ));
        }

        let outcome = run_point_cancellable(&job.planned.point, &job.planned.topology, ctx, token);

        let mut state = self.state.lock().expect("service state");
        let Some(inflight) = state.inflight.remove(&job.key) else {
            return; // already swept by shutdown
        };
        match outcome {
            Some(record) => {
                if let Err(e) = job.store.record(&record) {
                    // Record the failure, but still resolve subscribers
                    // with the computed record — it is correct, just not
                    // durable.
                    self.metrics.counter("serve.store.append_errors", 1);
                    cobra_obs::status::err_line(&format!(
                        "store append failed for {}: {e}",
                        job.key
                    ));
                }
                drop(state);
                let mut subscribers = inflight.subscribers.into_iter();
                if let Some((campaign, index)) = subscribers.next() {
                    campaign.resolve_point(&PointEvent::from_planned(
                        index,
                        &job.planned,
                        PointStatus::Computed,
                        Some(record.clone()),
                    ));
                }
                self.metrics.counter("serve.points.computed", 1);
                for (campaign, index) in subscribers {
                    campaign.resolve_point(&PointEvent::from_planned(
                        index,
                        &job.planned,
                        PointStatus::Deduped,
                        Some(record.clone()),
                    ));
                    self.metrics.counter("serve.points.deduped", 1);
                }
            }
            None => {
                drop(state);
                for (campaign, index) in inflight.subscribers {
                    campaign.resolve_point(&PointEvent::from_planned(
                        index,
                        &job.planned,
                        PointStatus::Cancelled,
                        None,
                    ));
                    self.metrics.counter("serve.points.cancelled", 1);
                }
            }
        }
        self.publish_queue_gauges();
    }

    /// Graceful shutdown: cancel queued and in-flight work, wait for
    /// workers to reach a trial boundary and drain, emit `cancelled`
    /// terminal events for everything that never ran, and join the
    /// worker pool. Everything already persisted stays.
    pub fn shutdown(&self) {
        self.queue.shutdown();
        self.queue.wait_idle();
        // Workers have drained: any in-flight entry left belongs to a
        // job that was discarded from the queue without ever running.
        let leftover: Vec<InFlight> = {
            let mut state = self.state.lock().expect("service state");
            let keys: Vec<String> = state.inflight.keys().cloned().collect();
            keys.iter()
                .filter_map(|k| state.inflight.remove(k))
                .collect()
        };
        for inflight in leftover {
            for (campaign, index) in inflight.subscribers {
                // The planned point is gone with the job; synthesize the
                // terminal event from the campaign's own table instead.
                campaign.resolve_point(&PointEvent {
                    index,
                    status: PointStatus::Cancelled,
                    key: String::new(),
                    objective: String::new(),
                    graph: String::new(),
                    process: String::new(),
                    record: None,
                });
                self.metrics.counter("serve.points.cancelled", 1);
            }
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker table"));
        for worker in workers {
            worker.join().expect("worker never panics");
        }
        self.publish_queue_gauges();
    }

    /// Blocks until the queue is empty and no job is running — the
    /// in-process equivalent of waiting for every campaign's `done`.
    pub fn wait_idle(&self) {
        self.queue.wait_idle();
    }

    fn publish_queue_gauges(&self) {
        let stats = self.queue.stats();
        self.metrics.with(|m| {
            m.gauge("queue.depth", stats.depth as f64);
            m.gauge("queue.in_flight", stats.in_flight as f64);
            m.gauge("queue.lanes", stats.lanes as f64);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Arc<CampaignService> {
        Arc::new(CampaignService::new(ServeConfig::default()))
    }

    const SPEC: &str = "cover; graph=cycle:{8..11}; process=cobra:b2; trials=4; name=svc";

    #[test]
    fn submit_schedules_then_serves_from_store() {
        let svc = service();
        let receipt = svc.submit(SPEC).unwrap();
        assert_eq!(receipt.campaign.total, 4);
        assert_eq!(receipt.scheduled, 4);
        svc.spawn_workers(2);
        svc.wait_idle();
        let (lines, done) = receipt.campaign.wait_events(0);
        assert!(done);
        // 4 started + 4 computed + 1 done.
        assert_eq!(lines.len(), 9, "{lines:#?}");
        assert!(lines.last().unwrap().contains("\"type\":\"done\""));
        let counts = receipt.campaign.counts();
        assert_eq!(counts.computed, 4);

        // A second identical campaign is served entirely from the store.
        let second = svc.submit(SPEC).unwrap();
        assert_eq!(second.cached, 4);
        assert_eq!(second.scheduled, 0);
        assert!(second.campaign.is_done());
        svc.shutdown();
    }

    #[test]
    fn in_flight_duplicates_compute_once() {
        let svc = service();
        // Submit twice *before* any worker exists: every point of the
        // second campaign must attach to the first's in-flight jobs.
        let first = svc.submit(SPEC).unwrap();
        let second = svc.submit(SPEC).unwrap();
        assert_eq!(first.scheduled, 4);
        assert_eq!(second.scheduled, 0);
        assert_eq!(second.attached, 4);
        assert_eq!(svc.metrics().counter_value("serve.dedup.hits"), Some(4));

        svc.spawn_workers(2);
        svc.wait_idle();
        assert_eq!(first.campaign.counts().computed, 4);
        let counts = second.campaign.counts();
        assert_eq!((counts.computed, counts.deduped), (0, 4));
        assert_eq!(
            svc.metrics().counter_value("serve.points.computed"),
            Some(4),
            "duplicates computed exactly once"
        );
        // Both campaigns saw the same records.
        let (first_lines, _) = first.campaign.wait_events(0);
        let (second_lines, _) = second.campaign.wait_events(0);
        let mean_of = |lines: &[String], status: &str| -> Vec<String> {
            let mut means: Vec<String> = lines
                .iter()
                .filter(|l| l.contains(&format!("\"status\":\"{status}\"")))
                .map(|l| {
                    let json = Json::parse(l).unwrap();
                    format!(
                        "{}:{}",
                        json.get("key").unwrap().as_str().unwrap(),
                        json.get("mean").unwrap().as_f64().unwrap()
                    )
                })
                .collect();
            means.sort();
            means
        };
        assert_eq!(
            mean_of(&first_lines, "computed"),
            mean_of(&second_lines, "deduped")
        );
        svc.shutdown();
    }

    #[test]
    fn shutdown_before_workers_cancels_everything() {
        let svc = service();
        let receipt = svc.submit(SPEC).unwrap();
        svc.shutdown();
        let (lines, done) = receipt.campaign.wait_events(0);
        assert!(done);
        let counts = receipt.campaign.counts();
        assert_eq!(counts.cancelled, 4);
        assert_eq!(counts.computed, 0);
        assert!(lines.last().unwrap().contains("\"cancelled\":4"));
        // Submitting after shutdown fails cleanly.
        assert!(svc.submit(SPEC).is_err());
    }

    #[test]
    fn done_follows_every_terminal_event_under_concurrent_resolution() {
        let queue: JobQueue<()> = JobQueue::new();
        for _ in 0..1000 {
            let campaign = CampaignState {
                id: 1,
                name: "race".into(),
                spec: String::new(),
                total: 2,
                lane: queue.lane(),
                log: Mutex::new(EventLog::default()),
                log_ready: Condvar::new(),
            };
            // Release both resolutions at once so they contend for the
            // log; the old two-lock version logged `done` early here.
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for index in 0..2 {
                    let (campaign, start) = (&campaign, &start);
                    scope.spawn(move || {
                        start.wait();
                        campaign.resolve_point(&PointEvent {
                            index,
                            status: PointStatus::Computed,
                            key: format!("k{index}"),
                            objective: String::new(),
                            graph: String::new(),
                            process: String::new(),
                            record: None,
                        });
                    });
                }
            });
            let (lines, done) = campaign.events_from(0);
            assert!(done);
            assert_eq!(lines.len(), 3, "{lines:#?}");
            assert!(
                lines[2].contains("\"type\":\"done\""),
                "done must come last: {lines:#?}"
            );
            assert_eq!(campaign.counts().computed, 2);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        let svc = service();
        let err = svc.submit("this is not a sweep").unwrap_err();
        assert!(err.contains("sweep"), "{err}");
    }
}
