//! Integration coverage for the declarative `SimSpec` API: spec
//! round-trips (including rejection of malformed specs), engine
//! determinism across thread counts, and custom observers running
//! through the engine.

use cobra_repro::prelude::*;

#[test]
fn graph_specs_round_trip_through_strings() {
    for s in [
        "complete:64",
        "cycle:31",
        "grid:8x12",
        "torus:5x5x5",
        "hypercube:7",
        "petersen",
        "tree:3:40",
        "barbell:6:9",
        "gnp:200:0.05",
        "regular:64:4",
        "ws:128:4:0.25",
        "ba:128:2",
    ] {
        let spec: GraphSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(spec.to_string(), s, "canonical display for {s}");
        assert_eq!(spec.to_string().parse::<GraphSpec>().unwrap(), spec);
        let g = spec.build(42).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert!(g.n() > 0);
    }
}

#[test]
fn process_specs_round_trip_through_strings() {
    for s in [
        "cobra:b2",
        "cobra:b1",
        "cobra:rho0.5:lazy",
        "bips:b2:exact",
        "bips:rho0.75",
        "rw:lazy",
        "walks:6",
        "coalescing:4:lazy",
        "gossip:pushpull",
    ] {
        let spec: ProcessSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(spec.to_string(), s, "canonical display for {s}");
        assert_eq!(spec.to_string().parse::<ProcessSpec>().unwrap(), spec);
    }
}

#[test]
fn objectives_round_trip_through_strings() {
    for s in [
        "cover",
        "hit:31",
        "hit:far",
        "infection:0.5",
        "infection:1",
        "duality:h{8,16,32}",
        "trajectory",
    ] {
        let objective: Objective = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(objective.to_string(), s, "canonical display for {s}");
        assert_eq!(
            objective.to_string().parse::<Objective>().unwrap(),
            objective
        );
    }
    for s in ["fly", "hit:", "infection:2", "duality:h{9,3}"] {
        assert!(s.parse::<Objective>().is_err(), "{s:?} must be rejected");
    }
}

#[test]
fn malformed_specs_are_rejected_not_panicked() {
    for g in [
        "",
        "grid",
        "grid:0x4",
        "complete:-3",
        "moebius:7",
        "gnp:10:2",
    ] {
        assert!(g.parse::<GraphSpec>().is_err(), "{g:?} must be rejected");
    }
    for p in [
        "",
        "cobra",
        "cobra:b0",
        "bips:rho2",
        "walks:none",
        "gossip:yell",
    ] {
        assert!(p.parse::<ProcessSpec>().is_err(), "{p:?} must be rejected");
    }
    // Errors must also surface through SimSpec::parse, not panic.
    assert!(SimSpec::parse("grid:0x4", "cobra:b2").is_err());
    assert!(SimSpec::parse("grid:4x4", "cobra:b0").is_err());
}

#[test]
fn engine_is_deterministic_across_thread_counts() {
    // Identical outcomes for threads=1 vs threads=8 on the same spec —
    // parallelism is an implementation detail, never a variable.
    for (graph, process) in [
        ("hypercube:6", "cobra:b2:lazy"),
        ("complete:48", "bips:b2"),
        ("torus:6x6", "walks:4"),
        ("cycle:40", "gossip:pushpull"),
    ] {
        let spec = SimSpec::parse(graph, process)
            .unwrap()
            .with_trials(16)
            .with_seed(0xD3);
        let seq = spec.clone().with_threads(1).outcomes().unwrap();
        let par = spec.clone().with_threads(8).outcomes().unwrap();
        assert_eq!(
            seq, par,
            "thread count changed results for {process} on {graph}"
        );
    }
}

#[test]
fn measure_is_thread_invariant_for_every_objective_kind() {
    // Every reduction (stopping summary, per-horizon duality counts,
    // per-round trajectory sums) folds its trials in trial order, so
    // the measurement must be `==`, float sums included.
    for (graph, process, objective) in [
        ("hypercube:6", "cobra:b2", "cover"),
        ("cycle:32", "cobra:b2", "hit:far"),
        ("complete:48", "bips:b2", "infection:0.5"),
        ("cycle:16", "cobra:b2", "duality:h{0,1,2,4}"),
        ("torus:6x6", "bips:b2", "trajectory"),
    ] {
        let spec = SimSpec::parse(graph, process)
            .unwrap()
            .with_objective(objective.parse().unwrap())
            .with_trials(61)
            .with_seed(0x7D);
        let measure = |threads| spec.clone().with_threads(threads).measure().unwrap();
        let seq = measure(1);
        for threads in [2, 8] {
            assert_eq!(
                measure(threads),
                seq,
                "{objective} on {graph} changed at threads = {threads}"
            );
        }
    }
}

#[test]
fn every_process_family_runs_on_a_spec_built_graph() {
    for process in [
        "cobra:b2",
        "bips:b2",
        "rw",
        "walks:8",
        "coalescing:8",
        "gossip:push",
    ] {
        let est = SimSpec::parse("complete:32", process)
            .unwrap()
            .with_trials(6)
            .measure()
            .unwrap()
            .into_stopping()
            .unwrap();
        assert_eq!(est.censored, 0, "{process} censored on K_32");
        assert_eq!(est.mean_reached, 32.0, "{process} did not reach everyone");
    }
}

#[test]
fn hitting_time_objective_is_distance_bounded() {
    let outcomes = SimSpec::parse("path:32", "cobra:b2")
        .unwrap()
        .reaching(31)
        .with_trials(8)
        .outcomes()
        .unwrap();
    assert!(
        outcomes.iter().all(|o| o.rounds >= Some(31)),
        "path distance is a hard lower bound: {outcomes:?}"
    );
}

#[test]
fn custom_observer_runs_through_the_engine() {
    // A one-off observer: how many rounds had an active frontier larger
    // than half the graph? Exercises the pluggable-hook path end to end.
    struct BigFrontier {
        n: usize,
        hits: usize,
    }
    impl Observer for BigFrontier {
        type Output = usize;
        fn on_round(&mut self, view: &dyn RoundView) {
            if view.reached_count() * 2 > self.n {
                self.hits += 1;
            }
        }
        fn finish(self, _outcome: cobra_mc::TrialOutcome, _view: &dyn RoundView) -> usize {
            self.hits
        }
    }
    let spec = SimSpec::parse("complete:64", "cobra:b2")
        .unwrap()
        .with_trials(8);
    let hits = spec
        .run_observed(StopWhen::Complete, |_| BigFrontier { n: 64, hits: 0 })
        .unwrap();
    assert_eq!(hits.len(), 8);
    assert!(
        hits.iter().all(|&h| h >= 1),
        "coverage must pass n/2 at least once"
    );
}

#[test]
fn run_and_sweep_reject_bad_points_with_one_text() {
    use cobra_campaign::{default_cap, plan_sweep};
    let dir = std::env::temp_dir().join(format!("cobra-one-rule-set-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let split = dir.join("two-triangles.txt");
    std::fs::write(&split, "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n").unwrap();
    let split = format!("file:{}", split.display());
    // (graph, objective, start, a substring the shared text must carry)
    let cases = [
        ("cycle:12", "cover", 50, "out of range for cycle:12"),
        ("gnp:100:0.001", "hit:1", 0, "is isolated in gnp:100:0.001"),
        ("cycle:12", "hit:99", 0, "(graph cycle:12)"),
        (split.as_str(), "cover", 0, "2 connected components"),
    ];
    for (graph, objective, start, want) in cases {
        let run = SimSpec::parse(graph, "cobra:b2")
            .unwrap()
            .with_objective(objective.parse().unwrap())
            .with_start(start)
            .with_trials(2)
            .resolve()
            .expect_err(graph)
            .to_string();
        let sweep: SweepSpec =
            format!("{objective}; graph={graph}; process=cobra:b2; trials=2; start={start}")
                .parse()
                .unwrap();
        let sweep = plan_sweep(&sweep, &Store::in_memory(), &default_cap)
            .expect_err(graph)
            .to_string();
        let run = run.strip_prefix("invalid sim spec: ").expect(&run);
        let sweep = sweep.strip_prefix("invalid sweep: ").expect(&sweep);
        assert_eq!(run, sweep, "{objective} on {graph}");
        assert!(run.contains(want), "{objective} on {graph}: {run}");
    }
}
