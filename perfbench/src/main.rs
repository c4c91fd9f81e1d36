//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-hypercube --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the untraced pass through the public entry points
//! and prints the end-to-end metrics; `--trace 1` runs the traced pass
//! over the same inputs and prints the per-layer metrics. The last line
//! of stdout is the result object; the line before it carries the run
//! metadata. See `perfbench/README.md` for the workloads and metrics.

mod kernel;
mod report;
mod serve;
mod sweep;
mod trace;

use cobra_util::Json;
use report::Run;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("points_per_s", "points/s"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
    ("first_event_ms_p50", "ms"),
    ("first_event_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not run reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("graph.build_s", "s"),
    ("graph.builds", "count"),
    ("graph.resident_bytes", "bytes"),
    ("process.draw_s", "s"),
    ("process.gather_s", "s"),
    ("process.coalesce_s", "s"),
    ("process.shard_gather_s", "s"),
    ("process.exchange_s", "s"),
    ("process.commit_s", "s"),
    ("process.outbox_entries", "count"),
    ("process.transmissions", "count"),
    ("process.new_covered", "count"),
    ("process.coalesced", "count"),
    ("process.frontier_density", "ratio"),
    ("process.useful_ratio", "ratio"),
    ("process.ns_per_transmission", "ns"),
    ("mc.trials", "count"),
    ("mc.rounds", "count"),
    ("mc.censored", "count"),
    ("mc.trial_ms_p50", "ms"),
    ("mc.trial_ms_p90", "ms"),
    ("campaign.plan_s", "s"),
    ("campaign.point_ms_p50", "ms"),
    ("campaign.point_ms_p90", "ms"),
    ("campaign.append_us_p50", "us"),
    ("campaign.append_us_p90", "us"),
    ("campaign.store_bytes", "bytes"),
    ("campaign.points_computed", "count"),
    ("campaign.points_cached", "count"),
    ("serve.post_ms_p50", "ms"),
    ("serve.post_ms_p90", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.events", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.recompute_ratio", "ratio"),
    ("serve.http_errors", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// Recorded exact values: canary totals and the deterministic counters
/// of the traced pass at the default seed.
const EXPECTED: &str = include_str!("../expected.json");

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        if !(args.seconds > 0.0 && args.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(args)
    }

    /// Scratch directory of this run, inside the working directory.
    pub fn scratch(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()))
    }

    /// Recorded counters apply only at the default seed.
    pub fn at_default_seed(&self) -> bool {
        expected().get("default_seed").and_then(Json::as_u64) == Some(self.seed)
    }
}

/// Worker threads a workload computes on, printed with every result.
fn threads(workload: &str) -> usize {
    match workload {
        "serve-mixed" => serve::WORKERS,
        "sweep-cold" => sweep::WORKERS,
        "sharded-implicit" => kernel::SHARDED.threads,
        _ => kernel::DENSE.threads,
    }
}

const WORKLOADS: [&str; 4] = [
    "dense-hypercube",
    "sharded-implicit",
    "sweep-cold",
    "serve-mixed",
];

/// The parsed `expected.json`.
pub fn expected() -> Json {
    Json::parse(EXPECTED).expect("expected.json is valid JSON")
}

/// Compares exact counters with the values recorded under
/// `expected.json → section → workload`. A missing entry fails too,
/// printing the observed values so they can be recorded.
pub fn check_exact(run: &mut Run, section: &str, workload: &str, observed: &[(&str, u64)]) {
    let json = expected();
    let recorded = json.get(section).and_then(|s| s.get(workload));
    let observed_json = Json::Object(
        observed
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::Int(v as i128)))
            .collect(),
    );
    eprintln!(
        "perfbench: {section} {workload} {}",
        observed_json.to_string_compact()
    );
    let mismatches: Vec<String> = observed
        .iter()
        .filter_map(|&(k, v)| {
            let want = recorded.and_then(|r| r.get(k)).and_then(Json::as_u64);
            (want != Some(v)).then(|| format!("{k}={v} (recorded {want:?})"))
        })
        .collect();
    run.check(mismatches.is_empty(), || {
        format!(
            "{section} counters differ from expected.json: {}",
            mismatches.join(", ")
        )
    });
}

/// The first panic message of the run, for the one-line failure reason.
static PANIC: Mutex<Option<String>> = Mutex::new(None);

fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let message = match info.payload().downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        let thread = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        let line = format!(
            "panic in thread {thread} at {}: {message}",
            info.location().map_or("?".into(), |l| l.to_string())
        );
        eprintln!("perfbench: {line}");
        PANIC
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert(line);
    }));
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn meta_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Object(vec![(
        "meta".to_string(),
        Json::Object(vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Int(args.seed as i128)),
            ("seconds".into(), Json::Float(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("nproc".into(), Json::Int(nproc as i128)),
            ("threads".into(), Json::Int(threads(&args.workload) as i128)),
            ("commit".into(), Json::Str(commit())),
            (
                "warmup".into(),
                Json::Str(
                    "5 set-ups per run, each ending in a fixed-seed canary pass; \
                     setup_s is their median and timing starts after the last"
                        .into(),
                ),
            ),
        ]),
    )])
    .to_string_compact()
}

fn run_workload(args: &Args) -> Run {
    let mut run = match args.workload.as_str() {
        "dense-hypercube" => kernel::run(&kernel::DENSE, args),
        "sharded-implicit" => kernel::run(&kernel::SHARDED, args),
        "sweep-cold" => sweep::run(args),
        "serve-mixed" => serve::run(args),
        _ => unreachable!("workload validated by Args::parse"),
    };
    let _ = std::fs::remove_dir_all(args.scratch());
    if args.trace {
        for (name, unit) in PER_LAYER {
            if run.value(name).is_none() {
                run.metric(name, 0.0, unit);
            }
        }
    } else {
        run.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
        for (name, _) in END_TO_END {
            let value = run.value(name).unwrap_or(0.0);
            run.check(value > 0.0 && value.is_finite(), || {
                format!("end-to-end metric {name} is {value}, expected a positive number")
            });
        }
    }
    run
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    install_panic_hook();
    // The workload runs on its own thread behind a watchdog: a panic
    // becomes a failed run with a one-line reason, and a hang inside a
    // layer ends the process instead of stalling the pipeline.
    let watchdog = Duration::from_secs_f64((args.seconds * 8.0 + 60.0).min(170.0));
    let (tx, rx) = mpsc::channel();
    let worker_args = args.clone();
    let worker = std::thread::Builder::new()
        .name("workload".into())
        .spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_workload(&worker_args)));
            let _ = tx.send(outcome.map_err(|_| ()));
        })
        .expect("spawn workload thread");
    let started = Instant::now();
    let run = match rx.recv_timeout(watchdog) {
        Ok(Ok(run)) => {
            let _ = worker.join();
            run
        }
        outcome => {
            let panic = PANIC.lock().unwrap_or_else(|e| e.into_inner()).clone();
            let reason = match (outcome, panic) {
                (Ok(Err(())), panic) => panic.unwrap_or_else(|| "workload panicked".into()),
                (_, panic) => format!(
                    "watchdog: no result after {:.0} s (a layer hung){}",
                    started.elapsed().as_secs_f64(),
                    panic.map_or(String::new(), |p| format!(" after {p}"))
                ),
            };
            let mut run = Run::default();
            run.check(false, || reason);
            run
        }
    };
    for reason in run.reasons.iter().take(10) {
        eprintln!("perfbench: FAILED: {reason}");
    }
    if run.reasons.len() > 10 {
        eprintln!(
            "perfbench: ... and {} more failures",
            run.reasons.len() - 10
        );
    }
    println!("{}", meta_line(&args));
    println!("{}", run.result_json().to_string_compact());
    if !run.correct() {
        let _ = std::fs::remove_dir_all(args.scratch());
        std::process::exit(1);
    }
}
