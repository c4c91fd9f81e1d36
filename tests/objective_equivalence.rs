//! The unified `Objective`/`measure()` path pinned bit-identical to its
//! per-trial samples and to the pre-refactor recordings, over the golden
//! spec families of `tests/common/mod.rs`.
//!
//! Three layers must agree exactly:
//!
//! 1. `SimSpec::measure()` (streamed reduction) versus
//!    `SimSpec::outcomes()` (per-trial samples) folded by hand through
//!    a `StreamingSummary` — for every golden family and every stopping
//!    objective;
//! 2. the streamed statistics versus the **pre-refactor recordings**
//!    themselves (the golden triples fold to known exact values);
//! 3. the campaign scheduler's `run_point` versus `measure()` under
//!    the point's derived seed — the sweep layer and the API layer are
//!    the same estimator.

mod common;

use cobra::sim::{Measurement, Objective};
use cobra::{SimSpec, StoppingEstimate};
use cobra_campaign::{default_cap, plan_sweep, run_point, Store, SweepSpec};
use cobra_process::StepCtx;
use cobra_stats::streaming::StreamingSummary;
use common::{spec, GOLDEN, GOLDEN_REACHING};

fn stopping(spec: &SimSpec<'_>) -> StoppingEstimate {
    spec.measure()
        .unwrap_or_else(|e| panic!("{e}"))
        .into_stopping()
        .expect("stopping objective")
}

/// `outcomes()` folded by hand: completed stopping times through a
/// `StreamingSummary` in trial order, transmissions and reached sizes
/// averaged over every trial, under the spec's resolved cap.
fn folded_outcomes(spec: &SimSpec<'_>) -> StoppingEstimate {
    let outcomes = spec.outcomes().unwrap_or_else(|e| panic!("{e}"));
    let mut summary = StreamingSummary::new();
    for r in outcomes.iter().filter_map(|o| o.rounds) {
        summary.push(r as f64);
    }
    let trials = outcomes.len() as f64;
    let tx: u64 = outcomes.iter().map(|o| o.transmissions).sum();
    let reached: usize = outcomes.iter().map(|o| o.reached).sum();
    StoppingEstimate::from_fold(
        &summary,
        outcomes.len(),
        outcomes.len() - summary.count(),
        spec.resolve().unwrap().cap,
        tx as f64 / trials,
        reached as f64 / trials,
    )
}

#[test]
fn cover_measure_equals_the_folded_outcomes_for_every_golden_family() {
    for &(process, graph, _) in GOLDEN {
        let s = spec(process, graph);
        assert_eq!(
            stopping(&s),
            folded_outcomes(&s),
            "{process} on {graph}: paths diverged"
        );
    }
}

#[test]
fn cover_measure_reproduces_the_pre_refactor_recordings() {
    // The golden triples fold to exact expected statistics: the
    // streamed estimate must equal the recording folded through the
    // same reducer, bit for bit.
    for &(process, graph, want) in GOLDEN {
        let streamed = stopping(&spec(process, graph));
        let mut fold = StreamingSummary::new();
        let (mut tx, mut reached) = (0u64, 0u64);
        for (rounds, r, t) in want {
            fold.push(rounds as f64);
            tx += t;
            reached += r as u64;
        }
        let expect = fold.to_summary();
        assert_eq!(streamed.censored, 0, "{process} on {graph}");
        assert_eq!(streamed.trials, want.len(), "{process} on {graph}");
        assert_eq!(streamed.mean, expect.mean, "{process} on {graph}");
        assert_eq!(streamed.std_dev, expect.std_dev, "{process} on {graph}");
        assert_eq!(streamed.min, expect.min, "{process} on {graph}");
        assert_eq!(streamed.max, expect.max, "{process} on {graph}");
        assert_eq!(streamed.median, expect.median, "{process} on {graph}");
        assert_eq!(
            streamed.mean_transmissions,
            tx as f64 / want.len() as f64,
            "{process} on {graph}"
        );
        assert_eq!(
            streamed.mean_reached,
            reached as f64 / want.len() as f64,
            "{process} on {graph}"
        );
    }
}

#[test]
fn hit_measure_reproduces_the_pre_refactor_recording() {
    let (process, graph, target, want) = GOLDEN_REACHING;
    let s = spec(process, graph).with_objective(Objective::hit(target));
    let streamed = stopping(&s);
    assert_eq!(streamed, folded_outcomes(&s));
    let mut fold = StreamingSummary::new();
    for (rounds, _, _) in want {
        fold.push(rounds as f64);
    }
    assert_eq!(streamed.mean, fold.to_summary().mean);
    assert_eq!(streamed.min, fold.to_summary().min);
}

#[test]
fn infection_one_equals_cover_for_every_golden_family() {
    for &(process, graph, _) in GOLDEN {
        let cover = stopping(&spec(process, graph));
        let full = stopping(&spec(process, graph).with_objective("infection:1".parse().unwrap()));
        assert_eq!(cover, full, "{process} on {graph}: infection:1 != cover");
    }
}

#[test]
fn partial_infection_equals_the_sample_path() {
    for threshold in ["infection:0.25", "infection:0.5", "infection:0.9"] {
        let s = spec("bips:b2", "torus:6x6").with_objective(threshold.parse().unwrap());
        assert_eq!(
            stopping(&s),
            folded_outcomes(&s),
            "{threshold}: paths diverged"
        );
    }
}

#[test]
fn duality_measure_equals_the_legacy_duality_check() {
    use cobra::duality::{duality_check, DualityConfig};
    use cobra_graph::{generators, props};
    let horizons = vec![0, 1, 2, 4];
    let s = SimSpec::parse("petersen", "cobra:b2")
        .unwrap()
        .with_trials(500)
        .with_seed(0x601D)
        .with_objective(Objective::Duality {
            horizons: horizons.clone(),
        });
    let Measurement::Duality(via_objective) = s.measure().unwrap() else {
        panic!("duality objective must yield a duality measurement");
    };
    let g = generators::petersen();
    let (source, _) = props::farthest_vertex(&g, &[0]).unwrap();
    let direct = duality_check(
        &g,
        source,
        &[0],
        &DualityConfig {
            branching: cobra_process::Branching::B2,
            trials: 500,
            horizons,
            master_seed: 0x601D,
            threads: 0,
        },
    );
    assert_eq!(
        via_objective, direct,
        "objective path diverged from duality_check"
    );
}

#[test]
fn campaign_records_are_the_measure_path_under_the_point_seed() {
    // One estimator, two schedulers: a sweep point's stored record must
    // equal SimSpec::measure on the equivalent spec (seed = the point's
    // key-derived seed, cap = the resolved cap), for every objective on
    // the axis.
    let sweep: SweepSpec =
        "{cover,hit:far,infection:0.5}; graph=cycle:{12,16}|petersen; process=cobra:b2|rw; \
         trials=6"
            .parse()
            .unwrap();
    let plan = plan_sweep(&sweep, &Store::in_memory(), &default_cap).unwrap();
    assert_eq!(plan.points.len(), 3 * 3 * 2);
    for planned in &plan.points {
        let p = &planned.point;
        let mut ctx = StepCtx::new();
        let record = run_point(p, &planned.topology, &mut ctx);
        let via_measure = SimSpec::new(p.graph.clone(), p.process.clone())
            .with_start(p.start)
            .with_trials(p.trials)
            .with_seed(p.seed)
            .with_cap(p.cap)
            .with_objective(p.objective.clone())
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        assert_eq!(
            record.to_estimate(),
            via_measure,
            "{} × {} × {}: sweep and measure() diverged",
            p.objective,
            p.graph,
            p.process
        );
    }
}
