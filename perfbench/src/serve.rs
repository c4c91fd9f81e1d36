//! `serve-mixed`: an in-process `CampaignService` behind its HTTP
//! `Server`, driven by closed-loop clients over `127.0.0.1`.
//!
//! Each round, every client POSTs one small campaign and streams its
//! NDJSON events to the `done` marker; the clients start a round
//! together and wait for each other at its end. A campaign's 8 graphs
//! (× 2 processes) are 4 already in the store (filled at set-up), 2
//! that the other client's campaign of the same round also names
//! (dedup), and 2 new ones. The shared graphs come last, so they are
//! still queued when the second submission plans. Events are read
//! incrementally, so each line is timed as it arrives.

use crate::report::{median, mix, quantile, shuffle, Run};
use crate::trace::Spans;
use crate::{check_exact, Args};
use cobra_campaign::{default_cap, plan_sweep, run_sweep, PointRecord, Store, SweepSpec};
use cobra_graph::{GraphSpec, Topology};
use cobra_serve::{CampaignService, ServeConfig, Server};
use cobra_util::Json;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon worker threads; points are small, so the workers are mostly
/// idle and contention from outside the process moves little.
pub const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Graphs per campaign by kind; every graph runs both processes.
const WARM_PER_CAMPAIGN: usize = 4;
const SHARED_PER_ROUND: usize = 2;
const NEW_PER_CAMPAIGN: usize = 2;
const PROCESSES: usize = 2;
/// One fixed campaign seed, so a graph names the same point in every
/// campaign and the store and dedup index can serve it.
const AXES: &str = "process=cobra:b2|bips:b2; trials=8; backend=csr; seed=7; name=mixed";
/// Rounds of the traced pass (fixed, so its counters repeat exactly).
const TRACED_ROUNDS: usize = 200;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Socket timeout: a stalled stream fails the campaign instead of
/// blocking the client.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn spec_text(graphs: &[String]) -> String {
    format!("cover; graph={}; {AXES}", graphs.join("|"))
}

/// The warm pool: 64 grids, computed into the store at set-up.
fn warm_pool() -> Vec<String> {
    (12..20)
        .flat_map(|a| (12..20).map(move |b| format!("grid:{a}x{b}")))
        .collect()
}

/// The warm-fill campaign: every graph of the warm pool.
fn warm_spec() -> SweepSpec {
    spec_text(&warm_pool())
        .parse()
        .expect("static warm campaign")
}

/// Graphs for shared and new points: connected CSR families disjoint
/// from the warm pool, shuffled by the run seed.
fn universe(seed: u64) -> Vec<String> {
    let mut graphs: Vec<String> = (48..1072)
        .flat_map(|n| [format!("pa:{n}:2"), format!("rreg:{n}:4")])
        .chain((4..52).flat_map(|a| (4..52).map(move |b| format!("torus:{a}x{b}"))))
        .collect();
    shuffle(&mut graphs, seed);
    graphs
}

/// The campaign client `c` sends in round `r`.
fn campaign_spec(universe: &[String], warm: &[String], seed: u64, r: usize, c: usize) -> String {
    let per_round = SHARED_PER_ROUND + CLIENTS * NEW_PER_CAMPAIGN;
    let base = r * per_round;
    let mut picks = warm.to_vec();
    shuffle(&mut picks, mix(seed, (r * CLIENTS + c) as u64));
    let mut graphs: Vec<String> = picks[..WARM_PER_CAMPAIGN].to_vec();
    let new = base + SHARED_PER_ROUND + c * NEW_PER_CAMPAIGN;
    graphs.extend_from_slice(&universe[new..new + NEW_PER_CAMPAIGN]);
    graphs.extend_from_slice(&universe[base..base + SHARED_PER_ROUND]);
    spec_text(&graphs)
}

fn max_rounds(universe: &[String]) -> usize {
    universe.len() / (SHARED_PER_ROUND + CLIENTS * NEW_PER_CAMPAIGN)
}

/// One event line, stamped on arrival.
struct Event {
    at: Instant,
    line: String,
}

/// What one client saw of one campaign.
struct Observed {
    spec: String,
    post: (Instant, Instant),
    receipt: Option<Json>,
    events: Vec<Event>,
    error: Option<String>,
}

/// POSTs `spec` and streams the campaign's events to the end.
fn client_campaign(addr: SocketAddr, spec: String) -> Observed {
    let started = Instant::now();
    let response = cobra_serve::post(addr, "/campaigns", spec.as_bytes());
    let mut obs = Observed {
        spec,
        post: (started, Instant::now()),
        receipt: None,
        events: Vec::new(),
        error: None,
    };
    let id = match response {
        Ok(r) if r.status == 200 => match r.json() {
            Ok(receipt) => {
                let id = receipt.get("campaign").and_then(Json::as_u64);
                obs.receipt = Some(receipt);
                id
            }
            Err(e) => {
                obs.error = Some(format!("receipt is not JSON: {e}"));
                return obs;
            }
        },
        Ok(r) => {
            obs.error = Some(format!(
                "POST /campaigns returned {}: {}",
                r.status,
                r.text().trim()
            ));
            return obs;
        }
        Err(e) => {
            obs.error = Some(format!("POST /campaigns: {e}"));
            return obs;
        }
    };
    let Some(id) = id else {
        obs.error = Some("receipt has no campaign id".into());
        return obs;
    };
    if let Err(e) = stream_events(addr, id, &mut obs.events) {
        obs.error = Some(format!("event stream: {e}"));
    }
    obs
}

/// Reads `GET /campaigns/<id>/events` chunk by chunk, stamping each
/// NDJSON line when its chunk arrives (the library client buffers the
/// whole body, which would hide arrival times).
fn stream_events(addr: SocketAddr, id: u64, events: &mut Vec<Event>) -> std::io::Result<()> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET /campaigns/{id}/events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(bad(format!("status line {:?}", line.trim())));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in the response head".into()));
        }
        if line.trim().is_empty() {
            break;
        }
    }
    let mut pending = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the last chunk".into()));
        }
        if line.trim().is_empty() {
            continue; // the CRLF that ends the previous chunk
        }
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| bad(format!("chunk size {:?}", line.trim())))?;
        if size == 0 {
            return Ok(());
        }
        let mut chunk = vec![0; size];
        reader.read_exact(&mut chunk)?;
        let at = Instant::now();
        pending.extend_from_slice(&chunk);
        while let Some(end) = pending.iter().position(|&b| b == b'\n') {
            let text: Vec<u8> = pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&text).trim().to_string();
            if !text.is_empty() {
                events.push(Event { at, line: text });
            }
        }
    }
}

/// A running daemon: service, workers, and the HTTP accept loop.
struct Daemon {
    service: Arc<CampaignService>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds an ephemeral port, spawns the workers, and fills the warm
    /// store in-process.
    fn start(root: &Path) -> Result<Daemon, String> {
        let service = Arc::new(CampaignService::new(ServeConfig {
            threads: WORKERS,
            store_root: Some(root.to_path_buf()),
            ..ServeConfig::default()
        }));
        service.spawn_workers(WORKERS);
        let server = Server::bind(
            "127.0.0.1:0".parse().expect("loopback address"),
            Arc::clone(&service),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let server = std::thread::Builder::new()
            .name("http".into())
            .spawn(move || server.run(&flag))
            .map_err(|e| format!("spawn server: {e}"))?;
        let daemon = Daemon {
            service,
            addr,
            stop,
            server,
        };
        if let Err(e) = daemon.service.submit(&warm_spec().to_string()) {
            daemon.stop();
            return Err(format!("warm fill: {e}"));
        }
        daemon.service.wait_idle();
        Ok(daemon)
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(Err(e)) = self.server.join() {
            eprintln!("perfbench: server loop: {e}");
        }
        self.service.shutdown();
    }
}

/// The closed loop: clients start each round together, run it, and stop
/// once `max_rounds` ran or the deadline passed. Returns every
/// campaign (round-major, then client) and the loop's wall seconds.
fn drive(
    addr: SocketAddr,
    universe: &[String],
    warm: &[String],
    seed: u64,
    max_rounds: usize,
    deadline: Option<Instant>,
) -> (Vec<Observed>, f64) {
    let barrier = Barrier::new(CLIENTS);
    let go = AtomicBool::new(false);
    let started = Instant::now();
    let per_client: Vec<Vec<Observed>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, go) = (&barrier, &go);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for r in 0.. {
                        if barrier.wait().is_leader() {
                            let in_time = deadline.is_none_or(|d| Instant::now() < d);
                            go.store(r < max_rounds && in_time, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        seen.push(client_campaign(
                            addr,
                            campaign_spec(universe, warm, seed, r, c),
                        ));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let rounds = per_client.iter().map(Vec::len).min().unwrap_or(0);
    let mut columns: Vec<_> = per_client.into_iter().map(Vec::into_iter).collect();
    let mut all = Vec::new();
    for _ in 0..rounds {
        for column in &mut columns {
            all.extend(column.next());
        }
    }
    (all, wall)
}

/// A terminal point event's record fields, compared exactly with the
/// record `run_sweep` computes for the same point.
fn record_fields(event: &Json) -> Option<[f64; 7]> {
    let f = |k: &str| event.get(k).and_then(Json::as_f64);
    Some([
        f("trials")?,
        f("completed")?,
        f("censored")?,
        f("mean")?,
        f("median")?,
        f("q25")?,
        f("q75")?,
    ])
}

fn direct_fields(rec: &PointRecord) -> [f64; 7] {
    [
        rec.trials as f64,
        rec.completed as f64,
        rec.censored as f64,
        rec.mean,
        rec.median,
        rec.q25,
        rec.q75,
    ]
}

/// Rounds a point's trials executed (censored trials ran to the cap).
fn record_rounds(rec: &PointRecord) -> u64 {
    (rec.mean * rec.completed as f64).round() as u64 + (rec.censored * rec.cap) as u64
}

/// Per-campaign timings and the totals the gates check.
#[derive(Default)]
struct Analysis {
    campaign_ms: Vec<f64>,
    first_event_ms: Vec<f64>,
    post_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    point_ms: Vec<f64>,
    /// Terminal points by the `done` markers' counts.
    resolved: u64,
    computed: u64,
    cached: u64,
    /// Terminal point events that never reached the client (see
    /// README, "Telemetry defects").
    lost: u64,
    attached: u64,
    events: u64,
    http_errors: u64,
    /// Content keys of the computed point events received.
    computed_keys: HashSet<String>,
    /// Every terminal event's key and record fields.
    terminal: Vec<(String, [f64; 7])>,
}

/// Checks every campaign and folds what the clients saw.
fn analyse(run: &mut Run, campaigns: &[Observed], mut spans: Option<&mut Spans>) -> Analysis {
    let mut a = Analysis::default();
    for obs in campaigns {
        let ok = run.check(obs.error.is_none(), || {
            format!(
                "campaign {:?}: {}",
                obs.spec,
                obs.error.as_deref().unwrap_or("")
            )
        });
        if !ok {
            a.http_errors += 1;
            continue;
        }
        let (post_start, post_end) = obs.post;
        let ms = |t: Instant, from: Instant| t.duration_since(from).as_secs_f64() * 1e3;
        a.post_ms.push(ms(post_end, post_start));
        a.attached += obs
            .receipt
            .as_ref()
            .and_then(|r| r.get("attached"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let root = spans.as_deref_mut().map(|s| {
            let root = s.add(
                "serve.campaign",
                None,
                post_start,
                obs.events.last().map_or(post_end, |e| e.at),
            );
            s.add("serve.post", Some(root), post_start, post_end);
            root
        });
        let (mut first, mut done) = (None, None);
        let (mut parse_errors, mut terminal) = (0, 0);
        for event in &obs.events {
            a.events += 1;
            let Ok(json) = Json::parse(&event.line) else {
                parse_errors += 1;
                continue;
            };
            match json.get("type").and_then(Json::as_str) {
                Some("point") => {
                    first.get_or_insert(event.at);
                    let status = json.get("status").and_then(Json::as_str).unwrap_or("");
                    if status == "started" {
                        a.queue_wait_ms.push(ms(event.at, post_end));
                        if let (Some(s), Some(root)) = (spans.as_deref_mut(), root) {
                            s.add("serve.queue_wait", Some(root), post_end, event.at);
                        }
                        continue;
                    }
                    terminal += 1;
                    let key = json
                        .get("key")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    let fields = record_fields(&json);
                    match (status, fields) {
                        ("computed", Some(fields)) => {
                            // The daemon's own run_point wall time; the
                            // client sees replayed events arrive together.
                            let wall = json.get("wall_seconds").and_then(Json::as_f64);
                            a.point_ms.push(wall.unwrap_or(0.0) * 1e3);
                            let once = a.computed_keys.insert(key.clone());
                            run.check(once, || format!("point {key} computed twice"));
                            a.terminal.push((key, fields));
                        }
                        ("cached" | "deduped", Some(fields)) => a.terminal.push((key, fields)),
                        _ => {
                            run.check(false, || format!("unexpected point event {}", event.line));
                        }
                    }
                }
                Some("done") => done = Some((event.at, json)),
                _ => parse_errors += 1,
            }
        }
        run.check(parse_errors == 0, || {
            format!(
                "{parse_errors} unparsable event lines in campaign {:?}",
                obs.spec
            )
        });
        let Some((done_at, done)) = done else {
            run.check(false, || {
                format!("campaign {:?} has no done event", obs.spec)
            });
            continue;
        };
        let count = |k: &str| done.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        let total = count("total");
        let resolved = count("computed") + count("cached") + count("deduped");
        let expected =
            ((WARM_PER_CAMPAIGN + SHARED_PER_ROUND + NEW_PER_CAMPAIGN) * PROCESSES) as u64;
        run.check(
            total == expected && resolved == total && count("cancelled") == 0,
            || format!("campaign done marker {}", done.to_string_compact()),
        );
        a.resolved += resolved.min(total);
        a.computed += count("computed");
        a.cached += count("cached");
        a.lost += resolved.min(total).saturating_sub(terminal);
        a.campaign_ms.push(ms(done_at, post_start));
        a.first_event_ms
            .push(ms(first.unwrap_or(done_at), post_start));
    }
    a
}

/// The service-level gates: each distinct non-warm point computed
/// exactly once, and every record equal to what a direct `run_sweep` of
/// the same specs computes. Returns the direct records of the non-warm
/// points, which the daemon computed during the loop.
fn check_service(run: &mut Run, a: &Analysis, campaigns: &[Observed]) -> Vec<PointRecord> {
    let mut store = Store::in_memory();
    let mut direct = HashMap::new();
    let mut new = Vec::new();
    let warm = warm_spec().to_string();
    for (i, text) in std::iter::once(&warm)
        .chain(campaigns.iter().map(|o| &o.spec))
        .enumerate()
    {
        let spec: SweepSpec = text.parse().expect("benchmark campaign specs parse");
        match run_sweep(&spec, &mut store, WORKERS, &default_cap) {
            Ok(out) => {
                for rec in out.records {
                    if !direct.contains_key(&rec.key) && i > 0 {
                        new.push(rec.clone());
                    }
                    direct.insert(rec.key.clone(), rec);
                }
            }
            Err(e) => {
                run.check(false, || format!("direct run_sweep: {e}"));
            }
        }
    }
    let censored = new.iter().filter(|r| r.censored > 0).count();
    run.check(a.computed == new.len() as u64 && censored == 0, || {
        format!(
            "daemon computed {} points for {} distinct new points ({censored} censored)",
            a.computed,
            new.len()
        )
    });
    if a.lost > 0 {
        eprintln!(
            "perfbench: {} point events were logged after their campaign's done marker \
             and never streamed (daemon defect, see README)",
            a.lost
        );
    }
    let differing = a
        .terminal
        .iter()
        .filter(|(key, fields)| direct.get(key).map(direct_fields) != Some(*fields))
        .count();
    run.check(differing == 0, || {
        format!(
            "{differing} of {} daemon records differ from a direct run_sweep",
            a.terminal.len()
        )
    });
    new
}

/// Runs the serve workload.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let root = args.scratch().join("serve");
    let mut setup_times = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let started_daemon = Daemon::start(&root.join(format!("setup{i}")));
        setup_times.push(started.elapsed().as_secs_f64());
        match started_daemon {
            Ok(d) => {
                check_warm(&mut run, &root.join(format!("setup{i}")));
                if let Some(previous) = daemon.replace(d) {
                    Daemon::stop(previous);
                }
            }
            Err(e) => {
                run.check(false, || e);
            }
        }
    }
    let Some(daemon) = daemon else { return run };
    let universe = universe(args.seed);
    let warm = warm_pool();
    if args.trace {
        let origin = Instant::now();
        let (campaigns, _) = drive(
            daemon.addr,
            &universe,
            &warm,
            args.seed,
            TRACED_ROUNDS,
            None,
        );
        let store_bytes = std::fs::metadata(
            root.join(format!("setup{}", SETUPS - 1))
                .join(warm_spec().name())
                .join("results.jsonl"),
        )
        .map_or(0, |m| m.len());
        daemon.stop();
        traced(args, &mut run, &campaigns, origin, store_bytes);
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let (campaigns, wall) = drive(
            daemon.addr,
            &universe,
            &warm,
            args.seed,
            max_rounds(&universe),
            Some(deadline),
        );
        daemon.stop();
        let a = analyse(&mut run, &campaigns, None);
        let new = check_service(&mut run, &a, &campaigns);
        let rounds: u64 = new.iter().map(record_rounds).sum();
        run.metric("setup_s", median(&setup_times), "s");
        run.metric("rounds_per_s", rounds as f64 / wall, "rounds/s");
        run.metric("points_per_s", a.resolved as f64 / wall, "points/s");
        for (p, q) in [(50, 0.5), (90, 0.9)] {
            run.metric(
                &format!("campaign_ms_p{p}"),
                quantile(&a.campaign_ms, q),
                "ms",
            );
            run.metric(
                &format!("first_event_ms_p{p}"),
                quantile(&a.first_event_ms, q),
                "ms",
            );
        }
    }
    run
}

/// The warm fill is the set-up canary: the totals of the records it
/// persisted are recorded exactly.
fn check_warm(run: &mut Run, store_root: &Path) {
    let spec = warm_spec();
    let store = Store::load(store_root.join(spec.name()));
    let records: Vec<PointRecord> = match plan_sweep(&spec, &Store::in_memory(), &default_cap) {
        Ok(plan) => plan
            .points
            .iter()
            .filter_map(|p| {
                store
                    .get(&p.point.digest_hex(), &p.point.full_key())
                    .cloned()
            })
            .collect(),
        Err(e) => {
            run.check(false, || format!("warm plan: {e}"));
            return;
        }
    };
    let sum = |f: fn(&PointRecord) -> u64| records.iter().map(f).sum::<u64>();
    check_exact(
        run,
        "canary",
        "serve-mixed",
        &[
            ("points", records.len() as u64),
            ("rounds", sum(record_rounds)),
            ("transmissions", sum(|r| r.total_transmissions)),
            ("censored", sum(|r| r.censored as u64)),
        ],
    );
}

fn traced(args: &Args, run: &mut Run, campaigns: &[Observed], origin: Instant, store_bytes: u64) {
    let mut spans = Spans::new(origin);
    let a = analyse(run, campaigns, Some(&mut spans));
    let rounds = campaigns.len() / CLIENTS;
    run.check(rounds == TRACED_ROUNDS, || {
        format!("traced pass ran {rounds} of {TRACED_ROUNDS} rounds")
    });
    let new = check_service(run, &a, campaigns);

    // The daemon plans every submission under its service lock,
    // building each CSR graph again. The benchmark repeats those calls
    // to attribute the cost: `plan_sweep` against an empty store, and
    // the graph builds it contains.
    let (mut builds, mut resident) = (0u64, 0usize);
    for obs in campaigns {
        let spec: SweepSpec = obs.spec.parse().expect("benchmark campaign specs parse");
        let root = spans.open("campaign.submit_replay", None);
        let mut seen = HashSet::new();
        let mut bytes = 0;
        for (_, gspec, _) in spec.expand_axes().expect("benchmark campaign specs expand") {
            if seen.insert(gspec.key_string()) {
                let seed = cobra_campaign::runner::graph_build_seed(spec.seed, &gspec);
                if let Ok(g) =
                    spans.time("graph.build", Some(root), || GraphSpec::build(&gspec, seed))
                {
                    bytes += g.memory_bytes();
                }
            }
        }
        builds += seen.len() as u64;
        resident = resident.max(bytes);
        let plan = spans.time("campaign.plan", Some(root), || {
            plan_sweep(&spec, &Store::in_memory(), &default_cap)
        });
        run.check(plan.is_ok(), || {
            format!("plan_sweep replay of {:?}", obs.spec)
        });
        spans.close(root);
    }
    let sum = |f: fn(&PointRecord) -> u64| new.iter().map(f).sum::<u64>();
    let (trials, rounds, censored, transmissions) = (
        sum(|r| r.trials as u64),
        sum(record_rounds),
        sum(|r| r.censored as u64),
        sum(|r| r.total_transmissions),
    );

    run.metric("graph.build_s", spans.total("graph.build"), "s");
    run.metric("graph.builds", builds as f64, "count");
    run.metric("graph.resident_bytes", resident as f64, "bytes");
    run.metric("campaign.plan_s", spans.total("campaign.plan"), "s");
    run.metric("campaign.store_bytes", store_bytes as f64, "bytes");
    run.metric("campaign.points_computed", a.computed as f64, "count");
    run.metric("campaign.points_cached", a.cached as f64, "count");
    for (p, q) in [(50, 0.5), (90, 0.9)] {
        run.metric(
            &format!("campaign.point_ms_p{p}"),
            quantile(&a.point_ms, q),
            "ms",
        );
        run.metric(
            &format!("serve.post_ms_p{p}"),
            quantile(&a.post_ms, q),
            "ms",
        );
        run.metric(
            &format!("serve.queue_wait_ms_p{p}"),
            quantile(&a.queue_wait_ms, q),
            "ms",
        );
    }
    run.metric("serve.events", a.events as f64, "count");
    run.metric("serve.dedup_hits", a.attached as f64, "count");
    run.metric(
        "serve.recompute_ratio",
        a.computed as f64 / new.len().max(1) as f64,
        "ratio",
    );
    run.metric("serve.http_errors", a.http_errors as f64, "count");
    run.metric("mc.trials", trials as f64, "count");
    run.metric("mc.rounds", rounds as f64, "count");
    run.metric("mc.censored", censored as f64, "count");
    run.metric("process.transmissions", transmissions as f64, "count");
    if args.at_default_seed() {
        check_exact(
            run,
            "counters",
            "serve-mixed",
            &[
                ("graph.builds", builds),
                ("campaign.points_computed", a.computed),
                ("mc.trials", trials),
                ("mc.rounds", rounds),
                ("mc.censored", censored),
                ("process.transmissions", transmissions),
            ],
        );
    }
    spans.finish(args);
}
