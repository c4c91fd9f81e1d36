//! The campaign service: a long-running multiplexer that accepts sweep
//! campaigns from many clients and streams each campaign's per-point
//! lifecycle events to its subscribers.
//!
//! Scheduling is the shared [`Scheduler`] of `cobra-campaign`, the same
//! one `cobra-exps sweep` submits to: each campaign rides its own
//! deficit-round-robin lane at cost = trial count, a point whose key is
//! in the campaign's store is `cached`, one whose key is in flight
//! (from any campaign) attaches to that job and gets `deduped`, and a
//! computed record is persisted to every waiting campaign's store. A
//! point whose run panics sends `failed` to every waiting campaign; the
//! workers keep serving. The service adds the campaign table, one
//! [`SharedStore`] per campaign name, the event logs, the metrics, the
//! worker threads (each running [`Scheduler::work`]) and HTTP.
//! Lock order is service state → scheduler → store → campaign log.

use cobra_campaign::{
    default_cap, plan_sweep, JobError, PointEvent, PointStatus, QueueStats, Scheduler, SharedStore,
    Subscriber, SweepSpec,
};
use cobra_graph::GraphShape;
use cobra_obs::SharedRegistry;
use cobra_process::ProcessSpec;
use cobra_util::json::obj;
use cobra_util::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the shared scheduler (0 = one per core).
    pub threads: usize,
    /// Root directory for per-campaign stores (`<root>/<name>/` — the
    /// same layout as `cobra-exps sweep --store`, so a daemon pointed
    /// at an existing campaigns directory serves those results warm);
    /// `None` keeps every store in-memory (tests, throwaway runs).
    pub store_root: Option<PathBuf>,
    /// Per-trial round cap policy for points without an explicit cap.
    pub cap: fn(GraphShape, &ProcessSpec) -> usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            store_root: None,
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
    pub failed: usize,
}

impl CampaignCounts {
    fn resolved(&self) -> usize {
        self.computed + self.cached + self.deduped + self.cancelled + self.failed
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
/// scheduler's waiter lists, and any number of streaming readers.
#[derive(Debug)]
pub struct CampaignState {
    pub id: u64,
    pub name: String,
    /// Canonical spec string, as accepted.
    pub spec: String,
    /// Total points in the expansion.
    pub total: usize,
    log: Mutex<EventLog>,
    log_ready: Condvar,
    /// The service metrics, where each terminal status is counted.
    metrics: SharedRegistry,
}

impl CampaignState {
    /// Snapshot of the lifecycle counters.
    pub fn counts(&self) -> CampaignCounts {
        self.log.lock().expect("campaign log").counts
    }

    /// True once every point has resolved and the done event is logged.
    fn is_done(&self) -> bool {
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
        let (count, metric) = match event.status {
            PointStatus::Computed => (&mut counts.computed, "serve.points.computed"),
            PointStatus::Cached => (&mut counts.cached, "serve.points.cached"),
            PointStatus::Deduped => (&mut counts.deduped, "serve.points.deduped"),
            PointStatus::Cancelled => (&mut counts.cancelled, "serve.points.cancelled"),
            PointStatus::Failed => (&mut counts.failed, "serve.points.failed"),
            PointStatus::Started => unreachable!("started is not terminal"),
        };
        *count += 1;
        self.metrics.counter(metric, 1);
        let counts = *counts;
        log.lines.push(line);
        if counts.resolved() == self.total {
            log.lines.push(self.done_line(counts));
            log.done = true;
        }
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
            ("failed", Json::Int(counts.failed as i128)),
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
            ("failed", Json::Int(counts.failed as i128)),
            ("done", Json::Bool(self.is_done())),
        ])
    }
}

impl Subscriber for CampaignState {
    fn notify(&self, event: &PointEvent) {
        if event.status != PointStatus::Started {
            return self.resolve_point(event);
        }
        let line = self.envelope(event);
        self.log.lock().expect("campaign log").lines.push(line);
        self.log_ready.notify_all();
    }
}

/// Everything the service mutex owns.
#[derive(Default)]
struct ServiceState {
    next_id: u64,
    campaigns: HashMap<u64, Arc<CampaignState>>,
    /// One shared store handle per campaign name — satisfying the store
    /// writer lock (a second `Store::open` on the same directory fails
    /// fast) by construction.
    stores: HashMap<String, SharedStore>,
}

/// The campaign service: shared scheduler + state table + metrics. Wrap
/// in an `Arc`, call [`CampaignService::spawn_workers`], and hand clones
/// to the HTTP layer (or drive it in-process, as the tests do).
pub struct CampaignService {
    scheduler: Scheduler<Arc<CampaignState>>,
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
            scheduler: Scheduler::default(),
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

    /// Spawns `threads` workers (0 = config default), each running the
    /// scheduler's worker loop until shutdown.
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
                service.scheduler.work(|point, result| {
                    // Subscribers still got the record — it is correct,
                    // just not durable. A panic was counted as `failed`.
                    if let Err(JobError::Store(e)) = result {
                        service.metrics.counter("serve.store.append_errors", 1);
                        let key = point.digest_hex();
                        cobra_obs::status::err_line(&format!("store append failed for {key}: {e}"));
                    }
                    service.publish_queue_gauges();
                })
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

    /// Scheduler job counts (depth, in-flight, lanes).
    pub fn queue_stats(&self) -> QueueStats {
        self.scheduler.stats()
    }

    /// Accepts a campaign: parses the spec and submits it to the
    /// scheduler against the campaign name's store. Cached points
    /// resolve at once; the rest attach to in-flight twins or run on
    /// the campaign's own DRR lane.
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
        let plan = |s: &_| plan_sweep(&spec, s, &self.config.cap);
        let submission = self
            .scheduler
            .submit(&store, plan, |plan| {
                state.next_id += 1;
                let campaign = Arc::new(CampaignState {
                    id: state.next_id,
                    name,
                    spec: spec.to_string(),
                    total: plan.len(),
                    log: Mutex::new(EventLog::default()),
                    log_ready: Condvar::new(),
                    metrics: self.metrics.clone(),
                });
                state.campaigns.insert(campaign.id, Arc::clone(&campaign));
                campaign
            })
            .map_err(|e| format!("{e}"))?;
        drop(state);

        self.metrics.counter("serve.campaigns.submitted", 1);
        self.metrics
            .counter("serve.dedup.hits", submission.attached as u64);
        self.publish_queue_gauges();
        Ok(SubmitReceipt {
            campaign: submission.subscriber,
            scheduled: submission.scheduled,
            cached: submission.cached,
            attached: submission.attached,
        })
    }

    /// Graceful shutdown: cancel queued and in-flight work, wait for
    /// workers to reach a trial boundary, emit `cancelled` for
    /// everything that never finished, and join the worker pool.
    /// Everything already persisted stays. [`Server::run`](crate::Server::run)
    /// calls it on its way out; a second call does nothing.
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker table"));
        for worker in workers {
            worker
                .join()
                .expect("the scheduler contains a point's panic");
        }
        self.publish_queue_gauges();
    }

    /// Blocks until no job is queued or running — the in-process
    /// equivalent of waiting for every campaign's `done`.
    pub fn wait_idle(&self) {
        self.scheduler.wait_idle(None);
    }

    fn publish_queue_gauges(&self) {
        let stats = self.queue_stats();
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
        // Every cancelled event still says which point it was.
        for line in &lines[..4] {
            let event = Json::parse(line).unwrap();
            assert_eq!(event.get("status").unwrap().as_str(), Some("cancelled"));
            for field in ["key", "objective", "graph", "process"] {
                let value = event.get(field).unwrap().as_str().unwrap();
                assert!(!value.is_empty(), "{field} is empty in {line}");
            }
        }
        // Submitting after shutdown fails cleanly.
        assert!(svc.submit(SPEC).is_err());
    }

    #[test]
    fn a_warm_resubmission_serves_expansion_twins_from_the_store() {
        let root = std::env::temp_dir().join(format!("cobra-daemon-twins-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let svc = Arc::new(CampaignService::new(ServeConfig {
            store_root: Some(root.clone()),
            ..ServeConfig::default()
        }));
        svc.spawn_workers(2);
        // cycle:9 appears twice: 4 points, 3 distinct keys.
        let twins = "cover; graph=cycle:{8..9}|cycle:{9..10}; process=cobra:b2; trials=3";
        let cold = svc.submit(twins).unwrap();
        assert_eq!((cold.scheduled, cold.attached), (3, 1));
        svc.wait_idle();
        assert_eq!(cold.campaign.counts().deduped, 1);
        let warm = svc.submit(twins).unwrap();
        assert_eq!((warm.scheduled, warm.cached), (0, 4));
        assert!(warm.campaign.is_done());
        svc.wait_idle();
        assert_eq!(
            svc.metrics().counter_value("serve.points.computed"),
            Some(3)
        );
        svc.shutdown();
        let results = root.join(&cold.campaign.name).join("results.jsonl");
        let lines = std::fs::read_to_string(results).unwrap();
        assert_eq!(lines.lines().count(), 3, "one store line per key");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_point_attached_across_stores_is_persisted_to_both() {
        let svc = service();
        let spec = |name: &str| {
            format!("cover; graph=cycle:{{8,9}}; process=cobra:b2; trials=3; name={name}")
        };
        let alpha = svc.submit(&spec("alpha")).unwrap();
        let beta = svc.submit(&spec("beta")).unwrap();
        assert_eq!((alpha.scheduled, beta.attached), (2, 2));
        svc.spawn_workers(2);
        svc.wait_idle();
        assert_eq!(beta.campaign.counts().deduped, 2);
        // beta's own store now holds both records.
        let again = svc.submit(&spec("beta")).unwrap();
        assert_eq!((again.scheduled, again.cached), (0, 2));
        assert_eq!(
            svc.metrics().counter_value("serve.points.computed"),
            Some(2)
        );
        svc.shutdown();
    }

    #[test]
    fn done_follows_every_terminal_event_under_concurrent_resolution() {
        for _ in 0..1000 {
            let campaign = CampaignState {
                id: 1,
                name: "race".into(),
                spec: String::new(),
                total: 2,
                log: Mutex::new(EventLog::default()),
                log_ready: Condvar::new(),
                metrics: SharedRegistry::new(),
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
                            error: None,
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
    fn a_huge_trial_count_wedges_neither_the_queue_nor_shutdown() {
        // Runs on a helper thread so a wedged queue fails the test by
        // timeout instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let svc = service();
            svc.spawn_workers(2);
            let huge = "cover; graph=cycle:8; process=cobra:b2; trials=1000000000000000000";
            let huge = svc.submit(huge).unwrap();
            let small = svc.submit(SPEC).unwrap();
            let mut from = 0;
            loop {
                let (lines, done) = small.campaign.wait_events(from);
                from += lines.len();
                if done {
                    break;
                }
            }
            let small_counts = small.campaign.counts();
            svc.shutdown();
            let _ = tx.send((small_counts, huge.campaign.counts()));
        });
        let (small, huge) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the small campaign completes and shutdown returns");
        assert_eq!(small.computed, 4);
        assert_eq!((huge.computed, huge.cancelled), (0, 1));
        handle.join().expect("the service thread returns");
    }

    #[test]
    fn a_panicking_point_fails_its_campaign_and_the_daemon_keeps_serving() {
        let (tx, rx) = std::sync::mpsc::channel();
        // A helper thread, so a wedged worker or shutdown fails the test
        // by timeout instead of hanging the suite.
        let handle = std::thread::spawn(move || {
            let svc = service();
            let spec: SweepSpec = "cover; graph=cycle:8; process=cobra:b2; trials=2; name=bad"
                .parse()
                .unwrap();
            let plan = |s: &_| {
                let mut plan = plan_sweep(&spec, s, &default_cap)?;
                // Out of range, so `Cobra::reset` asserts in the run;
                // `submit` would have rejected the spec.
                plan.points[0].point.start = 99;
                Ok(plan)
            };
            let campaign = |plan: &cobra_campaign::Plan| {
                Arc::new(CampaignState {
                    id: 1,
                    name: spec.name(),
                    spec: spec.to_string(),
                    total: plan.len(),
                    log: Mutex::new(EventLog::default()),
                    log_ready: Condvar::new(),
                    metrics: svc.metrics.clone(),
                })
            };
            let store = SharedStore::in_memory();
            let bad = svc.scheduler.submit(&store, plan, campaign).unwrap();
            svc.spawn_workers(2);
            svc.wait_idle();
            let (lines, done) = bad.subscriber.events_from(0);
            let next = svc.submit(SPEC).unwrap();
            svc.wait_idle();
            let next_counts = next.campaign.counts();
            let failed = svc.metrics().counter_value("serve.points.failed");
            svc.shutdown();
            let _ = tx.send((lines, done, bad.subscriber.counts(), next_counts, failed));
        });
        let (lines, done, counts, next, failed) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the campaigns finish and shutdown returns");
        assert!(done);
        assert_eq!(lines.len(), 3, "started, failed, done: {lines:#?}");
        let event = Json::parse(&lines[1]).unwrap();
        assert_eq!(event.get("status").unwrap().as_str(), Some("failed"));
        let error = event.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("start vertex 99 out of range"), "{error}");
        assert!(lines[2].contains("\"type\":\"done\"") && lines[2].contains("\"failed\":1"));
        assert_eq!((counts.failed, counts.computed), (1, 0));
        assert_eq!(failed, Some(1));
        assert_eq!(next.computed, 4, "a follow-up campaign completes");
        handle.join().expect("the service thread returns");
    }

    #[test]
    fn rejects_malformed_specs() {
        let svc = service();
        let err = svc.submit("this is not a sweep").unwrap_err();
        assert!(err.contains("sweep"), "{err}");
    }
}
