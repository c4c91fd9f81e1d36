//! `sweep-cold`: campaign sweeps through `run_sweep`, each into a fresh
//! on-disk store, so every point is planned, computed, and appended.
//!
//! Untraced pass: one campaign after another (each the fixed grid under
//! its own seed) until the time is up. Traced pass: a fixed set of
//! campaigns run sequentially through the same layers a sweep rides —
//! graph builds, `plan_sweep`, `run_point`, `Store::append` — each call
//! timed in a span, repeated until the time is up.

use crate::report::{median, mix, quantile, shuffle, Run, Speed};
use crate::trace::Spans;
use crate::{check_exact, Args};
use cobra_campaign::runner::graph_build_seed;
use cobra_campaign::{
    default_cap, plan_sweep, run_point, run_sweep, run_sweep_with_progress, PointRecord, Store,
    SweepSpec,
};
use cobra_graph::{GraphSpec, Topology};
use cobra_process::StepCtx;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The graphs a campaign draws from: CSR-built connected families sized
/// so no point exceeds about 2% of a run. Frontiers stay sparse on these
/// sizes. Structured graphs come first, so most campaigns start with a
/// cheap deterministic point and `first_event_ms` mostly times the plan.
const GRAPHS: [&str; 20] = [
    "grid:16x32",
    "grid:24x32",
    "grid:32x32",
    "torus:16x32",
    "torus:24x32",
    "torus:32x32",
    "rreg:384:4",
    "rreg:512:4",
    "rreg:640:4",
    "rreg:768:4",
    "rreg:1024:4",
    "pa:384:3",
    "pa:512:3",
    "pa:640:3",
    "pa:768:3",
    "pa:1024:3",
    "lollipop:32",
    "lollipop:40",
    "lollipop:48",
    "lollipop:56",
];
/// Every graph of a campaign runs 2 objectives × 3 processes.
const AXES: &str =
    "objective={cover,hit:far}; process=bips:b2|cobra:b{2,1}; trials=12; backend=csr";

/// Worker threads of `run_sweep`.
pub const WORKERS: usize = 1;
/// Seed of the set-up canary campaign.
const CANARY_SEED: u64 = 0xC0B7A;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Campaigns of the traced pass's fixed set.
const TRACED_CAMPAIGNS: u64 = 3;

/// Campaign `k` of a run: a seeded subset of 5 to 20 of the graphs, the
/// size cycling with `k`. Campaigns of mixed size, as users run them,
/// also keep the latency tail from reading only the slowest stretch of
/// a run.
fn campaign(seed: u64, k: u64) -> SweepSpec {
    let mut picks: Vec<usize> = (0..GRAPHS.len()).collect();
    shuffle(&mut picks, mix(seed, k));
    picks.truncate(5 + (k % 16) as usize);
    picks.sort_unstable();
    sweep_spec(&picks, mix(seed, k))
}

fn sweep_spec(graphs: &[usize], seed: u64) -> SweepSpec {
    let graphs: Vec<&str> = graphs.iter().map(|&i| GRAPHS[i]).collect();
    format!(
        "{AXES}; graph={}; seed={seed}; name=cold-{seed:016x}",
        graphs.join("|")
    )
    .parse()
    .expect("static sweep grid")
}

/// The set-up canary: every graph, under a fixed seed.
fn canary() -> SweepSpec {
    sweep_spec(&(0..GRAPHS.len()).collect::<Vec<_>>(), CANARY_SEED)
}

/// Rounds executed by a point's trials (censored trials ran to the cap).
fn rounds(rec: &PointRecord) -> u64 {
    (rec.mean * rec.completed as f64).round() as u64 + (rec.censored * rec.cap) as u64
}

/// Every trial of every point must meet its objective, and the store
/// must reload to exactly the records the run returned.
fn check_records(run: &mut Run, what: &str, records: &[PointRecord], dir: &Path) {
    let incomplete = records.iter().filter(|r| r.completed != r.trials).count();
    run.check(incomplete == 0, || {
        format!("{what}: {incomplete} points have censored trials")
    });
    let reloaded = Store::load(dir);
    let mismatched = records
        .iter()
        .filter(|r| reloaded.get(&r.key, &r.spec) != Some(*r))
        .count();
    run.check(mismatched == 0 && reloaded.len() == records.len(), || {
        format!(
            "{what}: store reloads {} records, {mismatched} of {} differ",
            reloaded.len(),
            records.len()
        )
    });
}

/// One untraced campaign: `run_sweep` into a fresh store under `root`.
/// Returns (wall seconds, seconds to the first persisted point,
/// records).
fn run_campaign(
    run: &mut Run,
    spec: &SweepSpec,
    root: &Path,
) -> Option<(f64, f64, Vec<PointRecord>)> {
    let dir = root.join(spec.name());
    let started = Instant::now();
    let first = OnceLock::new();
    let outcome = Store::open(&dir)
        .map_err(|e| format!("store: {e}"))
        .and_then(|mut store| {
            run_sweep_with_progress(spec, &mut store, WORKERS, &default_cap, &|_| {
                first.get_or_init(Instant::now);
            })
            .map_err(|e| e.to_string())
        });
    let wall = started.elapsed().as_secs_f64();
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            run.check(false, || format!("run_sweep: {e}"));
            return None;
        }
    };
    let fresh = out.cached == 0 && out.computed == out.records.len();
    run.check(fresh, || {
        format!(
            "run_sweep on a fresh store: {} cached, {} computed",
            out.cached, out.computed
        )
    });
    check_records(run, "run_sweep", &out.records, &dir);
    let first = first
        .get()
        .map_or(wall, |t| t.duration_since(started).as_secs_f64());
    Some((wall, first, out.records))
}

/// Runs the sweep workload.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let root = args.scratch().join("sweep");
    let mut speed = Speed::new();
    let mut setup_times = Vec::new();
    for i in 0..SETUPS {
        let factor = speed.factor();
        let started = Instant::now();
        let canary = run_campaign(&mut run, &canary(), &root.join(format!("setup{i}")));
        setup_times.push(started.elapsed().as_secs_f64() * factor);
        if let Some((_, _, records)) = canary {
            let sum = |f: fn(&PointRecord) -> u64| records.iter().map(f).sum::<u64>();
            check_exact(
                &mut run,
                "canary",
                "sweep-cold",
                &[
                    ("points", records.len() as u64),
                    ("rounds", sum(rounds)),
                    ("transmissions", sum(|r| r.total_transmissions)),
                    ("reached", sum(|r| r.total_reached)),
                    ("censored", sum(|r| r.censored as u64)),
                ],
            );
        }
    }
    if args.trace {
        traced(args, &root, &mut run);
    } else {
        untraced(args, &root, &mut speed, &mut run);
        run.metric("setup_s", median(&setup_times), "s");
    }
    run
}

/// Times are at the reference loop's nominal speed (see [`Speed`]).
fn untraced(args: &Args, root: &Path, speed: &mut Speed, run: &mut Run) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut walls, mut firsts, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let (mut points, mut total_rounds) = (0usize, 0u64);
    let mut k = 0u64;
    while k == 0 || Instant::now() < deadline {
        let spec = campaign(args.seed, k);
        k += 1;
        let factor = speed.factor();
        if let Some((wall, first, records)) = run_campaign(run, &spec, root) {
            walls.push(wall * factor);
            firsts.push(first * factor);
            raw.push(wall);
            points += records.len();
            total_rounds += records.iter().map(rounds).sum::<u64>();
        }
    }
    eprintln!(
        "perfbench: reference loop {:.3} ms (nominal 5); raw campaign wall p50 {:.1} ms",
        speed.median_ms(),
        median(&raw) * 1e3
    );
    // Campaigns differ in size, so throughput is over the whole run.
    let total: f64 = walls.iter().sum();
    run.metric("rounds_per_s", total_rounds as f64 / total, "rounds/s");
    run.metric("points_per_s", points as f64 / total, "points/s");
    for (p, q) in [(50, 0.5), (90, 0.9)] {
        run.metric(
            &format!("campaign_ms_p{p}"),
            quantile(&walls, q) * 1e3,
            "ms",
        );
        run.metric(
            &format!("first_event_ms_p{p}"),
            quantile(&firsts, q) * 1e3,
            "ms",
        );
    }
}

/// Exact counters of one pass over the traced campaign set.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    builds: u64,
    computed: u64,
    cached: u64,
    trials: u64,
    rounds: u64,
    censored: u64,
    transmissions: u64,
}

/// Per-pass totals of the traced campaign set.
#[derive(Debug, Default)]
struct Pass {
    counters: Counters,
    build_s: f64,
    plan_s: f64,
    resident_bytes: usize,
    store_bytes: u64,
}

/// One traced campaign: graph builds, store open, plan, then each
/// missing point run and appended in turn.
fn traced_campaign(
    run: &mut Run,
    spans: &mut Spans,
    spec: &SweepSpec,
    dir: &Path,
    reference: &[PointRecord],
    pass: &mut Pass,
) {
    let root = spans.open("campaign.run", None);
    let mut seen = HashSet::new();
    let mut bytes = 0;
    let build_started = Instant::now();
    for (_, gspec, _) in spec.expand_axes().expect("static sweep grid") {
        if !seen.insert(gspec.key_string()) {
            continue;
        }
        let g = spans.time("graph.build", Some(root), || {
            GraphSpec::build(&gspec, graph_build_seed(spec.seed, &gspec))
        });
        match g {
            Ok(g) => bytes += g.memory_bytes(),
            Err(e) => {
                run.check(false, || format!("graph build {gspec}: {e}"));
            }
        }
    }
    pass.build_s += build_started.elapsed().as_secs_f64();
    pass.resident_bytes = pass.resident_bytes.max(bytes);
    pass.counters.builds += seen.len() as u64;

    let store = match spans.time("campaign.store_open", Some(root), || Store::open(dir)) {
        Ok(store) => store,
        Err(e) => {
            run.check(false, || format!("store open: {e}"));
            return;
        }
    };
    let plan_started = Instant::now();
    let plan = spans.time("campaign.plan", Some(root), || {
        plan_sweep(spec, &store, &default_cap)
    });
    pass.plan_s += plan_started.elapsed().as_secs_f64();
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            run.check(false, || format!("plan_sweep: {e}"));
            return;
        }
    };
    run.check(plan.distinct_graphs == seen.len(), || {
        format!(
            "plan built {} graphs, the grid names {}",
            plan.distinct_graphs,
            seen.len()
        )
    });
    let mut ctx = StepCtx::new();
    let mut computed = HashMap::new();
    for &index in &plan.missing {
        let planned = &plan.points[index];
        let rec = spans.time("campaign.point", Some(root), || {
            run_point(&planned.point, &planned.topology, &mut ctx)
        });
        if let Err(e) = spans.time("campaign.append", Some(root), || store.append(&rec)) {
            run.check(false, || format!("store append: {e}"));
        }
        let c = &mut pass.counters;
        c.trials += rec.trials as u64;
        c.rounds += rounds(&rec);
        c.censored += rec.censored as u64;
        c.transmissions += rec.total_transmissions;
        computed.insert(rec.key.clone(), rec);
    }
    spans.close(root);
    pass.counters.computed += plan.missing.len() as u64;
    pass.counters.cached += (plan.cached.len() + plan.duplicates.len()) as u64;
    drop(store);
    pass.store_bytes += std::fs::metadata(dir.join("results.jsonl")).map_or(0, |m| m.len());

    let records: Vec<PointRecord> = plan
        .points
        .iter()
        .filter_map(|p| computed.get(&p.point.digest_hex()).cloned())
        .collect();
    run.check(records == reference, || {
        format!(
            "campaign seed {}: sequential traced records differ from run_sweep",
            spec.seed
        )
    });
    check_records(run, "traced campaign", &records, dir);
}

fn traced(args: &Args, root: &Path, run: &mut Run) {
    let specs: Vec<SweepSpec> = (0..TRACED_CAMPAIGNS)
        .map(|k| campaign(args.seed, k))
        .collect();
    // What `run_sweep` returns for the same campaigns: the reference
    // the sequential traced records must equal.
    let reference: Vec<Vec<PointRecord>> = specs
        .iter()
        .map(|spec| {
            run_sweep(spec, &mut Store::in_memory(), WORKERS, &default_cap)
                .map(|out| out.records)
                .unwrap_or_default()
        })
        .collect();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let mut spans = Spans::new(origin);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        let mut pass = Pass::default();
        for (k, (spec, reference)) in specs.iter().zip(&reference).enumerate() {
            let dir = root
                .join(format!("traced{}-{k}", passes.len()))
                .join(spec.name());
            traced_campaign(run, &mut spans, spec, &dir, reference, &mut pass);
        }
        if let Some(first) = passes.first() {
            run.check(first.counters == pass.counters, || {
                format!(
                    "repeat of the traced campaigns changed counters: {:?} vs {:?}",
                    first.counters, pass.counters
                )
            });
        }
        passes.push(pass);
    }
    let first = &passes[0];
    let c = &first.counters;
    let per_pass = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let ms = |name: &str, scale: f64| -> Vec<f64> {
        spans.durations(name).iter().map(|s| s * scale).collect()
    };
    run.metric("graph.build_s", per_pass(|p| p.build_s), "s");
    run.metric("graph.builds", c.builds as f64, "count");
    run.metric("graph.resident_bytes", first.resident_bytes as f64, "bytes");
    run.metric("campaign.plan_s", per_pass(|p| p.plan_s), "s");
    let point_ms = ms("campaign.point", 1e3);
    let append_us = ms("campaign.append", 1e6);
    for (p, q) in [(50, 0.5), (90, 0.9)] {
        run.metric(
            &format!("campaign.point_ms_p{p}"),
            quantile(&point_ms, q),
            "ms",
        );
        run.metric(
            &format!("campaign.append_us_p{p}"),
            quantile(&append_us, q),
            "us",
        );
    }
    run.metric("campaign.store_bytes", first.store_bytes as f64, "bytes");
    run.metric("campaign.points_computed", c.computed as f64, "count");
    run.metric("campaign.points_cached", c.cached as f64, "count");
    run.metric("mc.trials", c.trials as f64, "count");
    run.metric("mc.rounds", c.rounds as f64, "count");
    run.metric("mc.censored", c.censored as f64, "count");
    // Per-trial times come from the records' own trial quartiles.
    let trial_ms: Vec<f64> = reference
        .iter()
        .flatten()
        .map(|r| r.trial_median * 1e3)
        .collect();
    run.metric("mc.trial_ms_p50", quantile(&trial_ms, 0.5), "ms");
    run.metric("mc.trial_ms_p90", quantile(&trial_ms, 0.9), "ms");
    run.metric("process.transmissions", c.transmissions as f64, "count");
    if args.at_default_seed() {
        check_exact(
            run,
            "counters",
            "sweep-cold",
            &[
                ("graph.builds", c.builds),
                ("campaign.points_computed", c.computed),
                ("campaign.points_cached", c.cached),
                ("mc.trials", c.trials),
                ("mc.rounds", c.rounds),
                ("mc.censored", c.censored),
                ("process.transmissions", c.transmissions),
            ],
        );
    }
    spans.finish(args);
}
