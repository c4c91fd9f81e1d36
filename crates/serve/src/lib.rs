//! `cobra-serve` — campaign service mode for the COBRA stack.
//!
//! A long-running daemon that turns the batch sweep machinery into a
//! shared service: many clients POST sweep campaigns, one worker pool
//! computes their points with deficit-round-robin fairness across
//! campaigns, identical work is deduplicated across clients at two
//! levels (content-addressed store + in-flight attachment), and every
//! campaign's per-point lifecycle streams back as NDJSON over chunked
//! HTTP. A point whose run panics is reported `failed` to every
//! campaign waiting on it, and the workers keep serving.
//!
//! # Endpoints
//!
//! | Method | Path                    | Body / response |
//! |--------|-------------------------|-----------------|
//! | POST   | `/campaigns`            | sweep-spec text → receipt JSON (`campaign`, `total`, `scheduled`, `cached`, `attached`, `events`) |
//! | GET    | `/campaigns/<id>`       | status JSON (counters + `done`) |
//! | GET    | `/campaigns/<id>/events`| chunked NDJSON: one `point` event per lifecycle edge (`started`, `cached`, `computed`, `deduped`, `cancelled`, `failed`), one final `done` event |
//! | GET    | `/metrics`              | plain-text metrics dump (counters, gauges, latency histograms) |
//! | GET    | `/healthz`              | `ok` |
//!
//! The protocol layer is a hand-rolled HTTP/1.1 subset over
//! `std::net` ([`http`]) — one request per connection, `Connection:
//! close`, chunked transfer only on the event stream. The service core
//! is transport-independent ([`daemon`], scheduling through
//! `cobra_campaign::Scheduler`, the same one `cobra-exps sweep` uses);
//! the in-process tests drive it without a socket, and the same
//! [`CampaignService`] value backs both the daemon and any embedded use.
//!
//! ```no_run
//! use cobra_serve::{CampaignService, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let service = Arc::new(CampaignService::new(ServeConfig::default()));
//! service.spawn_workers(0); // one per core
//! let server = Server::bind("127.0.0.1:7070".parse().unwrap(), Arc::clone(&service)).unwrap();
//! cobra_serve::signal::install_handlers();
//! // Returns after shutting the service down.
//! server.run(cobra_serve::signal::shutdown_flag()).unwrap();
//! ```

pub mod client;
pub mod daemon;
pub mod http;
pub mod signal;

pub use client::{get, post, stream_ndjson, HttpResponse};
pub use daemon::{CampaignCounts, CampaignService, CampaignState, ServeConfig, SubmitReceipt};

use crate::http::{respond, ChunkedResponse, Request};
use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one connection may block in a read or a write. A client
/// that connects and sends nothing is dropped after this, so it cannot
/// hold [`Server::run`] past shutdown.
pub const CONNECTION_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The TCP front of a [`CampaignService`].
pub struct Server {
    listener: TcpListener,
    service: Arc<CampaignService>,
}

impl Server {
    /// Binds the listener (nonblocking, so the accept loop can poll the
    /// shutdown flag) without starting to serve.
    pub fn bind(addr: SocketAddr, service: Arc<CampaignService>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server { listener, service })
    }

    /// The bound address (port resolved when binding to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Serves until `shutdown` flips: accept, spawn a handler thread
    /// per connection (one request each), poll the flag between
    /// accepts. Once the flag is observed (or accepting fails), the
    /// service is shut down ([`CampaignService::shutdown`]): every live
    /// campaign is cancelled, so an open event stream reaches its `done`
    /// line and ends. Returns once every connection thread has finished
    /// its request; an idle connection times out after
    /// [`CONNECTION_IO_TIMEOUT`].
    pub fn run(&self, shutdown: &AtomicBool) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            let accepted = loop {
                if shutdown.load(Ordering::Acquire) {
                    break Ok(());
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let service = Arc::clone(&self.service);
                        scope.spawn(move || handle_connection(stream, &service));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            // Before the scope joins the handlers: a handler streaming an
            // unfinished campaign only returns once that campaign is done.
            self.service.shutdown();
            accepted
        })
    }
}

/// Handles one connection: read one request, route it, respond, close.
fn handle_connection(stream: TcpStream, service: &CampaignService) {
    // Blocking I/O per connection; the listener's nonblocking flag is
    // inherited on some platforms, so reset it explicitly.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(CONNECTION_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONNECTION_IO_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let request = match Request::read_from(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        // Idle past the timeout: nothing to answer.
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
        Err(e) => {
            let _ = respond(&mut writer, 400, "text/plain", e.to_string().as_bytes());
            return;
        }
    };
    let started = Instant::now();
    let endpoint = route(&request, &mut writer, service);
    service.metrics().observe(
        &format!("http.{endpoint}.latency_ns"),
        started.elapsed().as_nanos() as u64,
    );
}

/// Dispatches one request, returning the endpoint label used for the
/// latency histogram.
fn route(request: &Request, writer: &mut TcpStream, service: &CampaignService) -> &'static str {
    let segments = request.path_segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let _ = respond(writer, 200, "text/plain", b"ok\n");
            "healthz"
        }
        ("GET", ["metrics"]) => {
            let body = service.metrics().render();
            let _ = respond(writer, 200, "text/plain", body.as_bytes());
            "metrics_get"
        }
        ("POST", ["campaigns"]) => {
            let spec_text = String::from_utf8_lossy(&request.body);
            match service.submit(&spec_text) {
                Ok(receipt) => {
                    let body = receipt.to_json().to_string();
                    let _ = respond(writer, 200, "application/json", body.as_bytes());
                }
                Err(message) => {
                    let _ = respond(writer, 400, "text/plain", message.as_bytes());
                }
            }
            "campaigns_post"
        }
        ("GET", ["campaigns", id]) => {
            match id.parse::<u64>().ok().and_then(|id| service.campaign(id)) {
                Some(campaign) => {
                    let body = campaign.status_json().to_string();
                    let _ = respond(writer, 200, "application/json", body.as_bytes());
                }
                None => {
                    let _ = respond(writer, 404, "text/plain", b"no such campaign\n");
                }
            }
            "campaigns_get"
        }
        ("GET", ["campaigns", id, "events"]) => {
            match id.parse::<u64>().ok().and_then(|id| service.campaign(id)) {
                Some(campaign) => {
                    let _ = stream_events(writer, &campaign);
                }
                None => {
                    let _ = respond(writer, 404, "text/plain", b"no such campaign\n");
                }
            }
            "events_get"
        }
        ("GET", _) => {
            let _ = respond(writer, 404, "text/plain", b"not found\n");
            "not_found"
        }
        _ => {
            let _ = respond(writer, 405, "text/plain", b"method not allowed\n");
            "method_not_allowed"
        }
    }
}

/// Streams a campaign's event log as chunked NDJSON from the beginning,
/// blocking on the log until the `done` marker, then terminating the
/// chunked body. A client that connects after completion gets the whole
/// log at once.
fn stream_events(writer: &mut TcpStream, campaign: &CampaignState) -> std::io::Result<()> {
    let mut response = ChunkedResponse::begin(writer, 200, "application/x-ndjson")?;
    let mut cursor = 0usize;
    loop {
        let (lines, done) = campaign.wait_events(cursor);
        cursor += lines.len();
        for line in &lines {
            response.write_chunk(format!("{line}\n").as_bytes())?;
        }
        if done {
            return response.finish();
        }
    }
}
