//! `dense-hypercube` and `sharded-implicit`: many-trial estimates
//! through `SimSpec::measure`, the entry point a library user calls.
//!
//! Untraced pass: repeated `measure()` calls, each one point estimate
//! over fresh seeded trials, until the time is up. Traced pass: one
//! fixed batch, measured untraced (the reference) and then through
//! `SimSpec::measure_traced` with phase timing, repeated until the time
//! is up; the per-layer numbers come from the sink's exact per-trial
//! sums and round records.

use crate::report::{median, mix, quantile, Run, Speed};
use crate::trace::{SpanId, Spans};
use crate::{check_exact, Args};
use cobra::sim::{Measurement, SimError, SimSpec, StoppingEstimate};
use cobra_graph::{Backend, Graph, GraphSpec, Topology};
use cobra_obs::{Phase, RoundRecord, RoundSink, TrialTotals};
use cobra_process::ProcessSpec;
use std::time::{Duration, Instant};

/// One kernel workload.
pub struct Kernel {
    name: &'static str,
    graph: &'static str,
    process: &'static str,
    backend: Backend,
    shards: usize,
    /// Worker threads of every call.
    pub threads: usize,
    /// Trials per `measure()` call of the untraced pass.
    trials: usize,
    /// Trials of the traced pass's fixed batch.
    traced_trials: usize,
    /// Trials of the fixed-seed canary that ends each set-up.
    canary_trials: usize,
}

/// The dense-frontier kernel: the frontier averages about a fifth of
/// the vertices, so draw/gather/coalesce do almost all the work.
pub const DENSE: Kernel = Kernel {
    name: "dense-hypercube",
    graph: "hypercube:16",
    process: "cobra:b2",
    backend: Backend::Csr,
    shards: 1,
    threads: 1,
    trials: 24,
    traced_trials: 12,
    canary_trials: 4,
};

/// The sharded bitset kernel on implicit neighbour arithmetic: no graph
/// memory, and a scoped-thread fan-out per round.
pub const SHARDED: Kernel = Kernel {
    name: "sharded-implicit",
    graph: "hypercube:18",
    process: "cobra:b2",
    backend: Backend::Implicit,
    shards: 2,
    threads: 1,
    trials: 4,
    traced_trials: 3,
    canary_trials: 2,
};

/// Master seed of the set-up canary (the library default).
const CANARY_SEED: u64 = 0xC0B7A;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The graph a run steps on: CSR is built once by the benchmark and
/// borrowed by every call; an implicit topology is a few bytes that
/// `measure()` materialises itself.
struct Prepared {
    csr: Option<Graph>,
    n: usize,
    bytes: usize,
    built: (Instant, Instant),
}

/// Exact work totals of one batch, derived from its estimate.
fn estimate_totals(est: &StoppingEstimate) -> [(&'static str, u64); 4] {
    let rounds =
        (est.mean * est.completed() as f64).round() as u64 + (est.censored * est.cap) as u64;
    [
        ("rounds", rounds),
        (
            "transmissions",
            (est.mean_transmissions * est.trials as f64).round() as u64,
        ),
        (
            "reached",
            (est.mean_reached * est.trials as f64).round() as u64,
        ),
        ("censored", est.censored as u64),
    ]
}

impl Kernel {
    fn prepare(&self) -> Prepared {
        let started = Instant::now();
        let gspec: GraphSpec = self.graph.parse().expect("static graph spec");
        match self.backend {
            Backend::Csr => {
                let g = gspec.build(0).expect("hypercube builds");
                Prepared {
                    n: g.n(),
                    bytes: g.memory_bytes(),
                    csr: Some(g),
                    built: (started, Instant::now()),
                }
            }
            _ => {
                let topo = SimSpec::new(gspec, self.process_spec())
                    .with_backend(self.backend)
                    .topology()
                    .expect("implicit hypercube builds");
                Prepared {
                    n: topo.n(),
                    bytes: topo.memory_bytes(),
                    csr: None,
                    built: (started, Instant::now()),
                }
            }
        }
    }

    fn process_spec(&self) -> ProcessSpec {
        self.process.parse().expect("static process spec")
    }

    fn sim<'g>(&self, g: &'g Prepared, trials: usize, seed: u64, threads: usize) -> SimSpec<'g> {
        let base = match &g.csr {
            Some(csr) => SimSpec::new(csr, self.process_spec()),
            None => SimSpec::new(
                self.graph.parse::<GraphSpec>().expect("static graph spec"),
                self.process_spec(),
            )
            .with_backend(self.backend),
        };
        base.with_shards(self.shards)
            .with_trials(trials)
            .with_seed(seed)
            .with_threads(threads)
    }

    /// Counts one `measure()` call; it must return a stopping estimate
    /// with every trial covering the whole graph.
    fn checked(
        &self,
        run: &mut Run,
        what: &str,
        m: Result<Measurement, SimError>,
        n: usize,
    ) -> Option<StoppingEstimate> {
        let est = match m {
            Ok(Measurement::Stopping(est)) => est,
            Ok(other) => {
                run.check(false, || {
                    format!("{what}: not a stopping estimate: {other:?}")
                });
                return None;
            }
            Err(e) => {
                run.check(false, || format!("{what}: {e}"));
                return None;
            }
        };
        let ok = est.censored == 0 && est.mean_reached == n as f64;
        run.check(ok, || {
            format!(
                "{what}: {} censored, mean reached {} of {n}",
                est.censored, est.mean_reached
            )
        })
        .then_some(est)
    }

    /// Five set-ups, each building the graph and running the canary;
    /// returns the last graph and the set-up seconds at nominal speed.
    fn setup(&self, run: &mut Run, speed: &mut Speed) -> (Prepared, Vec<f64>) {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            let factor = speed.factor();
            let started = Instant::now();
            let g = self.prepare();
            let canary = self
                .sim(&g, self.canary_trials, CANARY_SEED, self.threads)
                .measure();
            times.push(started.elapsed().as_secs_f64() * factor);
            if let Some(est) = self.checked(run, "canary", canary, g.n) {
                check_exact(run, "canary", self.name, &estimate_totals(&est));
            }
            last = Some(g);
        }
        (last.expect("at least one set-up"), times)
    }
}

/// Runs a kernel workload.
pub fn run(k: &Kernel, args: &Args) -> Run {
    let mut run = Run::default();
    let origin = Instant::now();
    let mut speed = Speed::new();
    let (g, setup_times) = k.setup(&mut run, &mut speed);
    if args.trace {
        traced(k, args, &g, origin, &mut run);
    } else {
        untraced(k, args, &g, &mut speed, &mut run);
        run.metric("setup_s", median(&setup_times), "s");
    }
    run
}

/// Times are at the reference loop's nominal speed (see [`Speed`]).
fn untraced(k: &Kernel, args: &Args, g: &Prepared, speed: &mut Speed, run: &mut Run) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut walls, mut rates, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep = 0u64;
    while rep == 0 || Instant::now() < deadline {
        let sim = k.sim(g, k.trials, mix(args.seed, rep), k.threads);
        let factor = speed.factor();
        let started = Instant::now();
        let m = sim.measure();
        let wall = started.elapsed().as_secs_f64();
        rep += 1;
        if let Some(est) = k.checked(run, "measure", m, g.n) {
            rates.push(estimate_totals(&est)[0].1 as f64 / (wall * factor));
            walls.push(wall * factor);
            raw.push(wall);
        }
    }
    eprintln!(
        "perfbench: reference loop {:.3} ms (nominal 5); raw call wall p50 {:.1} ms",
        speed.median_ms(),
        median(&raw) * 1e3
    );
    // Medians over calls, so a burst of contention from outside the
    // process moves few of them.
    run.metric("rounds_per_s", median(&rates), "rounds/s");
    run.metric("points_per_s", 1.0 / median(&walls), "points/s");
    // `measure()` is a one-point campaign whose only event is its
    // return, so its first result arrives when the call completes.
    for (p, q) in [(50, 0.5), (90, 0.9)] {
        let ms = quantile(&walls, q) * 1e3;
        run.metric(&format!("campaign_ms_p{p}"), ms, "ms");
        run.metric(&format!("first_event_ms_p{p}"), ms, "ms");
    }
}

/// Exact counters of one traced batch.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    trials: u64,
    rounds: u64,
    censored: u64,
    reached: u64,
    transmissions: u64,
    new_covered: u64,
    coalesced: u64,
    outbox_entries: u64,
    frontier_sum: u64,
}

/// Folds the traced pass's round records, trial totals, and per-trial
/// phase sums; each trial becomes an `mc.trial` span.
struct KernelSink<'a> {
    spans: &'a mut Spans,
    parent: SpanId,
    last_end: Instant,
    counters: Counters,
    phase_ns: [u64; 6],
}

impl RoundSink for KernelSink<'_> {
    fn on_round(&mut self, _trial: usize, r: &RoundRecord<'_>) {
        let c = &mut self.counters;
        c.transmissions += r.transmissions;
        c.new_covered += r.new_covered as u64;
        c.coalesced += r.coalesced;
        c.frontier_sum += r.frontier as u64;
        c.outbox_entries += r.shard_traffic.iter().sum::<u64>();
    }

    fn on_trial_end(&mut self, _trial: usize, t: &TrialTotals) {
        let c = &mut self.counters;
        c.trials += 1;
        c.rounds += t.executed as u64;
        c.censored += u64::from(t.rounds.is_none());
        c.reached += t.reached as u64;
        let now = Instant::now();
        self.spans
            .add("mc.trial", Some(self.parent), self.last_end, now);
        self.last_end = now;
    }

    fn on_trial_phases(&mut self, _trial: usize, phase_nanos: &[(Phase, u64)]) {
        for &(phase, ns) in phase_nanos {
            self.phase_ns[phase as usize] += ns;
        }
    }
}

fn traced(k: &Kernel, args: &Args, g: &Prepared, origin: Instant, run: &mut Run) {
    let mut spans = Spans::new(origin);
    spans.add("graph.build", None, g.built.0, g.built.1);
    let seed = mix(args.seed, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut ref_walls, mut traced_walls, mut phase_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Counters, Measurement)> = None;
    while first.is_none() || Instant::now() < deadline {
        let sim = k.sim(g, k.traced_trials, seed, k.threads);
        let root = spans.open("mc.measure", None);
        let reference = sim.measure();
        ref_walls.push(spans.close(root));
        let Some(reference) = k.checked(run, "reference measure", reference, g.n) else {
            break;
        };

        let root = spans.open("mc.measure_traced", None);
        let mut sink = KernelSink {
            last_end: Instant::now(),
            spans: &mut spans,
            parent: root,
            counters: Counters::default(),
            phase_ns: [0; 6],
        };
        let outcome = sim.measure_traced(&mut sink, true);
        let (counters, phase_ns) = (sink.counters, sink.phase_ns);
        traced_walls.push(spans.close(root));
        phase_s.push(phase_ns.map(|ns| ns as f64 * 1e-9));
        let traced = match outcome {
            Ok((m, _timers)) => m,
            Err(e) => {
                run.check(false, || format!("measure_traced: {e}"));
                break;
            }
        };
        let reference = Measurement::Stopping(reference);
        run.check(traced == reference, || {
            format!("traced measurement differs from untraced: {traced:?} vs {reference:?}")
        });
        match &first {
            None => first = Some((counters, reference)),
            Some((c0, m0)) => {
                run.check(*c0 == counters && *m0 == reference, || {
                    format!(
                        "repeat of the traced batch changed its counters: {c0:?} vs {counters:?}"
                    )
                });
            }
        }
    }
    let Some((c, _)) = first else { return };

    let phase = |p: Phase| median(&phase_s.iter().map(|s| s[p as usize]).collect::<Vec<_>>());
    let kernel_s = |s: &[f64; 6]| s.iter().sum::<f64>();
    let ns_per_tx = median(&phase_s.iter().map(kernel_s).collect::<Vec<_>>()) * 1e9
        / c.transmissions.max(1) as f64;
    run.metric("graph.build_s", spans.total("graph.build"), "s");
    run.metric("graph.builds", 1.0, "count");
    run.metric("graph.resident_bytes", g.bytes as f64, "bytes");
    for (name, p) in [
        ("process.draw_s", Phase::Draw),
        ("process.gather_s", Phase::Gather),
        ("process.coalesce_s", Phase::Coalesce),
        ("process.shard_gather_s", Phase::ShardGather),
        ("process.exchange_s", Phase::Exchange),
        ("process.commit_s", Phase::Commit),
    ] {
        run.metric(name, phase(p), "s");
    }
    run.metric("process.transmissions", c.transmissions as f64, "count");
    run.metric("process.new_covered", c.new_covered as f64, "count");
    run.metric("process.outbox_entries", c.outbox_entries as f64, "count");
    // Sharded round records read frontier = 0 and coalesced =
    // transmissions (a telemetry defect, see README), so neither is
    // reported for the sharded kernel.
    if k.shards == 1 {
        run.metric("process.coalesced", c.coalesced as f64, "count");
        let density = c.frontier_sum as f64 / (c.rounds.max(1) as f64 * g.n as f64);
        run.metric("process.frontier_density", density, "ratio");
    }
    let useful = c.new_covered as f64 / c.transmissions.max(1) as f64;
    run.metric("process.useful_ratio", useful, "ratio");
    run.metric("process.ns_per_transmission", ns_per_tx, "ns");
    run.metric("mc.trials", c.trials as f64, "count");
    run.metric("mc.rounds", c.rounds as f64, "count");
    run.metric("mc.censored", c.censored as f64, "count");
    let trial_ms: Vec<f64> = spans
        .durations("mc.trial")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    run.metric("mc.trial_ms_p50", quantile(&trial_ms, 0.5), "ms");
    run.metric("mc.trial_ms_p90", quantile(&trial_ms, 0.9), "ms");
    run.metric(
        "obs.trace_overhead",
        median(&traced_walls) / median(&ref_walls),
        "ratio",
    );
    if args.at_default_seed() {
        let mut exact = vec![
            ("mc.trials", c.trials),
            ("mc.rounds", c.rounds),
            ("mc.censored", c.censored),
            ("process.transmissions", c.transmissions),
            ("process.new_covered", c.new_covered),
            ("process.outbox_entries", c.outbox_entries),
            ("graph.builds", 1),
        ];
        if k.shards == 1 {
            exact.push(("process.coalesced", c.coalesced));
        }
        check_exact(run, "counters", k.name, &exact);
    }
    spans.finish(args);
}
