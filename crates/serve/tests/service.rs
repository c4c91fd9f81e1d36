//! End-to-end service tests: a real daemon on a loopback socket, real
//! HTTP clients, and the acceptance gates of service mode — streamed
//! NDJSON that parses, queue-path results bit-identical to direct
//! sweeps, and cross-client duplicates computed exactly once.

use cobra_campaign::{default_cap, run_sweep, Store, SweepSpec};
use cobra_serve::{client, CampaignService, ServeConfig, Server};
use cobra_util::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `body` against a live daemon bound to an ephemeral loopback
/// port, then shuts everything down cleanly.
fn with_daemon(
    config: ServeConfig,
    workers: usize,
    body: impl FnOnce(SocketAddr, &CampaignService),
) {
    let service = Arc::new(CampaignService::new(config));
    service.spawn_workers(workers);
    let server = Server::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&service)).unwrap();
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run(&stop));
        body(addr, &service);
        stop.store(true, Ordering::Release);
        daemon.join().unwrap().unwrap();
    });
    service.shutdown();
}

const SPEC: &str = "cover; graph=cycle:{8..11}; process=cobra:b{2,3}; trials=5; name=svc-e2e";

#[test]
fn daemon_round_trip_is_bit_identical_to_direct_run() {
    let root = scratch("roundtrip");
    let config = ServeConfig {
        store_root: Some(root.clone()),
        ..ServeConfig::default()
    };
    with_daemon(config, 3, |addr, _service| {
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

        let receipt = client::post(addr, "/campaigns", SPEC.as_bytes()).unwrap();
        assert_eq!(receipt.status, 200, "{}", receipt.text());
        let receipt = receipt.json().unwrap();
        let id = receipt.get("campaign").unwrap().as_u64().unwrap();
        assert_eq!(receipt.get("total").unwrap().as_usize(), Some(8));
        assert_eq!(receipt.get("scheduled").unwrap().as_usize(), Some(8));

        // Stream the events; every line must parse, the stream must end
        // with the done marker, and each point must start then compute.
        let mut statuses = Vec::new();
        let mut saw_done = false;
        client::stream_ndjson(addr, &format!("/campaigns/{id}/events"), |line| {
            let event = Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON {line}: {e}"));
            match event.get("type").and_then(|t| t.as_str()) {
                Some("point") => {
                    assert_eq!(event.get("campaign").unwrap().as_u64(), Some(id));
                    statuses.push(
                        event
                            .get("status")
                            .and_then(|s| s.as_str())
                            .unwrap()
                            .to_string(),
                    );
                }
                Some("done") => {
                    assert_eq!(event.get("computed").unwrap().as_usize(), Some(8));
                    saw_done = true;
                }
                other => panic!("unexpected event type {other:?} in {line}"),
            }
        })
        .unwrap();
        assert!(saw_done);
        assert_eq!(statuses.iter().filter(|s| *s == "started").count(), 8);
        assert_eq!(statuses.iter().filter(|s| *s == "computed").count(), 8);

        // The status endpoint agrees.
        let status = client::get(addr, &format!("/campaigns/{id}")).unwrap();
        let status = status.json().unwrap();
        assert_eq!(status.get("done"), Some(&Json::Bool(true)));
        assert_eq!(status.get("computed").unwrap().as_usize(), Some(8));

        // Metrics render and carry the service counters.
        let metrics = client::get(addr, "/metrics").unwrap().text();
        assert!(metrics.contains("serve.points.computed = 8"), "{metrics}");
        assert!(
            metrics.contains("http.campaigns_post.latency_ns"),
            "{metrics}"
        );
    });

    // Bit-identity: the daemon's persisted records equal a direct
    // run_sweep of the same spec (PointRecord's PartialEq is the
    // content comparison; timing is excluded by design).
    let spec: SweepSpec = SPEC.parse().unwrap();
    let mut direct_store = Store::in_memory();
    let direct = run_sweep(&spec, &mut direct_store, 2, &default_cap).unwrap();
    let served = Store::load(root.join(spec.name()));
    assert_eq!(served.len(), 8);
    for record in &direct.records {
        let from_daemon = served
            .get(&record.key, &record.spec)
            .expect("daemon store holds every point");
        assert_eq!(from_daemon, record, "queue path must be bit-identical");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// What one wave of concurrent clients saw on their event streams.
#[derive(Debug, Default)]
struct Wave {
    clients: usize,
    campaigns: usize,
    /// Total points across all submitted campaigns (expansion size).
    points_total: usize,
    computed: usize,
    cached: usize,
    deduped: usize,
    cancelled: usize,
    /// Event lines that failed to parse as JSON.
    event_parse_errors: usize,
}

/// Drives `clients` concurrent clients: each POSTs `spec`, then streams
/// its campaign's events to the `done` marker, tallying terminal
/// statuses from the stream (not the status endpoint — the stream is
/// the product under test).
fn wave(addr: SocketAddr, clients: usize, spec: &str) -> Wave {
    let wave = Mutex::new(Wave {
        clients,
        ..Wave::default()
    });
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let receipt = client::post(addr, "/campaigns", spec.as_bytes()).unwrap();
                assert_eq!(receipt.status, 200, "{}", receipt.text());
                let receipt = receipt.json().unwrap();
                let id = receipt.get("campaign").unwrap().as_u64().unwrap();
                let total = receipt.get("total").unwrap().as_usize().unwrap();
                {
                    let mut wave = wave.lock().unwrap();
                    wave.campaigns += 1;
                    wave.points_total += total;
                }
                client::stream_ndjson(addr, &format!("/campaigns/{id}/events"), |line| {
                    let mut wave = wave.lock().unwrap();
                    let Ok(event) = Json::parse(line) else {
                        wave.event_parse_errors += 1;
                        return;
                    };
                    match event.get("status").and_then(|s| s.as_str()) {
                        Some("computed") => wave.computed += 1,
                        Some("cached") => wave.cached += 1,
                        Some("deduped") => wave.deduped += 1,
                        Some("cancelled") => wave.cancelled += 1,
                        _ => {} // started / done
                    }
                })
                .unwrap();
            });
        }
    });
    wave.into_inner().unwrap()
}

#[test]
fn loadtest_duplicates_compute_exactly_once() {
    let spec = "cover; graph=cycle:{16..19}; process=cobra:b2; trials=6; name=svc-load";
    with_daemon(ServeConfig::default(), 4, |addr, service| {
        let report = wave(addr, 8, spec);
        assert_eq!(report.clients, 8);
        assert_eq!(report.campaigns, 8);
        assert_eq!(report.points_total, 8 * 4);
        assert_eq!(report.event_parse_errors, 0);
        assert_eq!(report.cancelled, 0);
        // 4 distinct points exist; they are computed exactly once each,
        // and all 28 duplicate submissions resolve via dedup — either
        // attached in-flight or served from the store, depending on
        // arrival order.
        assert_eq!(report.computed, 4, "duplicates computed exactly once");
        assert_eq!(report.cached + report.deduped, 28);
        let metrics = service.metrics();
        assert_eq!(metrics.counter_value("serve.points.computed"), Some(4));
        let attached = metrics.counter_value("serve.dedup.hits").unwrap_or(0);
        let cached = metrics.counter_value("serve.points.cached").unwrap_or(0);
        assert_eq!(
            attached + cached,
            28,
            "dedup accounting covers every duplicate submitted"
        );

        // A second identical wave is served entirely without compute.
        let again = wave(addr, 8, spec);
        assert_eq!(again.computed, 0, "second wave recomputes nothing");
        assert_eq!(again.cached + again.deduped, 32);
        assert_eq!(metrics.counter_value("serve.points.computed"), Some(4));
    });
}

#[test]
fn an_idle_connection_does_not_block_shutdown() {
    let service = Arc::new(CampaignService::new(ServeConfig::default()));
    let server = Server::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&service)).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let (done, returned) = std::sync::mpsc::channel();
    let flag = Arc::clone(&stop);
    let daemon = std::thread::spawn(move || {
        let _ = done.send(server.run(&flag).is_ok());
    });
    // Connect and send nothing. Connections are accepted in order, so
    // once a later request is answered the idle one has its handler.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    stop.store(true, Ordering::Release);
    let limit = cobra_serve::CONNECTION_IO_TIMEOUT + std::time::Duration::from_secs(2);
    let ok = returned
        .recv_timeout(limit)
        .expect("Server::run must return while a client sits idle");
    assert!(ok);
    daemon.join().unwrap();
    drop(idle);
    service.shutdown();
}

#[test]
fn an_open_event_stream_does_not_block_shutdown() {
    let service = Arc::new(CampaignService::new(ServeConfig::default()));
    service.spawn_workers(1);
    let server = Server::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&service)).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let (done, returned) = std::sync::mpsc::channel();
    let flag = Arc::clone(&stop);
    let daemon = std::thread::spawn(move || {
        let _ = done.send(server.run(&flag).is_ok());
    });
    // A campaign that never finishes on its own.
    let spec = "cover; graph=cycle:8; process=cobra:b2; trials=18446744073709551615; name=svc-open";
    let receipt = client::post(addr, "/campaigns", spec.as_bytes()).unwrap();
    assert_eq!(receipt.status, 200, "{}", receipt.text());
    let id = receipt
        .json()
        .unwrap()
        .get("campaign")
        .unwrap()
        .as_u64()
        .unwrap();
    // Stream its events by hand: the chunk carrying the `started` line
    // shows the handler is now blocked waiting for more.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET /campaigns/{id}/events HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut seen = String::new();
    while !seen.contains("\"started\"") {
        assert_ne!(
            reader.read_line(&mut seen).unwrap(),
            0,
            "stream closed early: {seen}"
        );
    }
    stop.store(true, Ordering::Release);
    let limit = std::time::Duration::from_secs(30);
    let ok = returned
        .recv_timeout(limit)
        .expect("Server::run must return while a client streams an unfinished campaign");
    assert!(ok);
    daemon.join().unwrap();
    // The stream ended with the campaign's `done` line.
    reader.read_to_string(&mut seen).unwrap();
    let done = seen
        .lines()
        .find(|line| line.contains("\"type\":\"done\""))
        .unwrap_or_else(|| panic!("no done line in {seen}"));
    assert_eq!(
        Json::parse(done)
            .unwrap()
            .get("cancelled")
            .unwrap()
            .as_usize(),
        Some(1)
    );
}

#[test]
fn malformed_spec_and_unknown_campaign_fail_cleanly() {
    with_daemon(ServeConfig::default(), 1, |addr, _service| {
        let bad = client::post(addr, "/campaigns", b"not a sweep at all").unwrap();
        assert_eq!(bad.status, 400);
        assert!(!bad.text().is_empty());
        assert_eq!(client::get(addr, "/campaigns/999").unwrap().status, 404);
        assert_eq!(
            client::get(addr, "/campaigns/999/events").unwrap().status,
            404
        );
        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    });
}

#[test]
fn a_graph_the_generator_would_reject_answers_400_and_the_daemon_keeps_serving() {
    // `cycle:2` once parsed and then panicked in the generator while the
    // service mutex was held, so every later POST went unanswered.
    with_daemon(ServeConfig::default(), 1, |addr, _service| {
        let bad = "cover; graph=cycle:2; process=cobra:b2; trials=2; name=svc-bad";
        let bad = client::post(addr, "/campaigns", bad.as_bytes()).unwrap();
        assert_eq!(bad.status, 400);
        assert!(bad.text().contains("graph spec error"), "{}", bad.text());
        let good = "cover; graph=cycle:3; process=cobra:b2; trials=2; name=svc-good";
        let good = client::post(addr, "/campaigns", good.as_bytes()).unwrap();
        assert_eq!(good.status, 200, "{}", good.text());
    });
}

#[test]
fn back_to_back_campaigns_ride_separate_lanes_and_both_complete() {
    // Two campaigns submitted before any worker runs land on separate
    // DRR lanes (the deterministic alternation itself is pinned by the
    // cobra-campaign scheduler tests); here we verify the service plumbs each
    // campaign onto its own lane and drains both to completion.
    let service = Arc::new(CampaignService::new(ServeConfig::default()));
    let a = service
        .submit("cover; graph=cycle:{20..23}; process=cobra:b2; trials=6; name=fair-a")
        .unwrap();
    let b = service
        .submit("cover; graph=path:{20..23}; process=cobra:b2; trials=6; name=fair-b")
        .unwrap();
    assert_eq!((a.scheduled, b.scheduled), (4, 4));
    let stats = service.queue_stats();
    assert_eq!(stats.lanes, 2, "one DRR lane per campaign");
    assert_eq!(stats.depth, 8);
    service.spawn_workers(1);
    service.wait_idle();
    for receipt in [&a, &b] {
        let (lines, done) = receipt.campaign.wait_events(0);
        assert!(done);
        let computed = lines
            .iter()
            .filter(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("status")
                    .and_then(|s| s.as_str().map(String::from))
                    == Some("computed".to_string())
            })
            .count();
        assert_eq!(computed, 4);
        assert_eq!(receipt.campaign.counts().computed, 4);
    }
    service.shutdown();
}
