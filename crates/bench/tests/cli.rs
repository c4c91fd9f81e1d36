//! CLI parity suite for the `cobra-exps` binary: exit codes and exact
//! stderr on every failure path, byte-identical help texts, and pinned
//! stdout for `run` (plain, CSV, markdown, dry run, single-particle
//! COBRA) and dry-run sweeps.
//! Fixtures live in `tests/data/`.

use std::process::{Command, Output};

fn cobra_exps(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cobra-exps"))
        .args(args)
        .output()
        .expect("cobra-exps runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// A failure: exit status 1, nothing on stdout, exactly `stderr`.
fn assert_fails(args: &[&str], stderr: &str) {
    let out = cobra_exps(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    assert_eq!(text(&out.stdout), "", "{args:?}");
    assert_eq!(text(&out.stderr), format!("{stderr}\n"), "{args:?}");
}

/// A success with exactly `stdout` on stdout.
fn assert_prints(args: &[&str], stdout: &str) {
    let out = cobra_exps(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        text(&out.stderr)
    );
    assert_eq!(text(&out.stdout), stdout, "{args:?}");
}

#[test]
fn spec_errors_exit_one_with_one_line() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["run", "--graph", "gnp:100:0.001", "--process", "cobra:b2", "--trials", "2"],
            "invalid sim spec: objective \"cover\" cannot terminate: the graph gnp:100:0.001 \
             has 95 connected components (largest spans 2.0% of 100 vertices); raise the edge \
             density or change the seed to sample a connected graph",
        ),
        (
            &["sweep", "cover;graph=gnp:100:0.001;process=cobra:b2;trials=2", "--no-store"],
            "invalid sweep: objective \"cover\" cannot terminate: the graph gnp:100:0.001 \
             has 98 connected components (largest spans 2.0% of 100 vertices); raise the edge \
             density or change the seed to sample a connected graph",
        ),
        (
            &["run", "--graph", "cycle:2", "--process", "cobra:b2", "--trials", "2"],
            "graph spec error: cycle vertex count must be at least 3, got 2 (in graph spec \"cycle:2\")",
        ),
        (
            &["run", "--graph", "hypercube:0", "--process", "cobra:b2", "--trials", "2"],
            "graph spec error: hypercube dimension must be in 1..=30, got 0 (in graph spec \"hypercube:0\")",
        ),
        (
            &["run", "--graph", "cycle:8", "--process", "cobra:b2", "--trials", "0"],
            "invalid sim spec: trials must be >= 1",
        ),
        (
            &["sweep", "cover;graph=cycle:2;process=cobra:b2;trials=2", "--no-store"],
            "graph spec error: cycle vertex count must be at least 3, got 2 (in graph spec \"cycle:2\")",
        ),
        (
            &["sweep", "cover;graph=hypercube:0;process=cobra:b2;trials=2", "--no-store"],
            "graph spec error: hypercube dimension must be in 1..=30, got 0 (in graph spec \"hypercube:0\")",
        ),
        (
            &["sweep", "cover;graph=cycle:8;process=cobra:b2;trials=2", "--shards", "0", "--no-store"],
            "--shards must be >= 1 (1 = the unsharded engine)",
        ),
        (&["--quick", "f1", "nope"], "unknown experiment id: nope (try --list)"),
    ];
    for (args, stderr) in cases {
        assert_fails(args, stderr);
    }
}

#[test]
fn usage_errors_name_the_command_help() {
    let cases: [(&[&str], &str); 11] = [
        (
            &["run", "--graph", "cycle:8", "--process", "cobra:b2", "--trials", "abc"],
            "--trials: invalid digit found in string (see cobra-exps run --help)",
        ),
        (
            &["run", "--graph", "cycle:8"],
            "run needs both --graph and --process (see cobra-exps run --help)",
        ),
        (
            &["run", "--graph", "cycle:8", "--process", "cobra:b2", "--trials"],
            "--trials needs a value (see cobra-exps run --help)",
        ),
        (
            &["run", "--graph", "cycle:8", "--process", "cobra:b2", "extra"],
            "unknown argument: extra (see cobra-exps run --help)",
        ),
        (
            &["sweep"],
            "sweep needs a spec (inline, @file, or a path to a spec file) (see cobra-exps sweep --help)",
        ),
        (
            &["sweep", "a", "b"],
            "unexpected extra argument: b (see cobra-exps sweep --help)",
        ),
        (
            &["sweep", "--threads"],
            "--threads needs a value (see cobra-exps sweep --help)",
        ),
        (
            &["serve", "--addr", "nope"],
            "--addr: invalid socket address syntax (see cobra-exps serve --help)",
        ),
        (
            &["serve", "--threads", "x"],
            "--threads: invalid digit found in string (see cobra-exps serve --help)",
        ),
        (
            &["serve", "extra"],
            "unknown argument: extra (see cobra-exps serve --help)",
        ),
        (&["--bogus"], "unknown flag: --bogus (see cobra-exps --help)"),
    ];
    for (args, stderr) in cases {
        assert_fails(args, stderr);
    }
}

#[test]
fn a_bad_backend_is_a_usage_error() {
    // The message may carry the `--backend: ` prefix every other value
    // flag prints; it is otherwise exact.
    for (command, args) in [
        (
            "run",
            &["run", "--graph", "cycle:8", "--process", "cobra:b2"][..],
        ),
        (
            "sweep",
            &["sweep", "cover;graph=cycle:8;process=cobra:b2;trials=2"][..],
        ),
    ] {
        let out = cobra_exps(&[args, &["--backend", "bogus"]].concat());
        assert_eq!(out.status.code(), Some(1));
        let stderr = text(&out.stderr);
        let want = format!(
            "unknown backend \"bogus\" (valid backends: auto, csr, implicit) \
             (see cobra-exps {command} --help)\n"
        );
        assert_eq!(stderr.strip_prefix("--backend: ").unwrap_or(&stderr), want);
    }
}

/// A CSR the allocator refuses is the spec's one-line error, not an
/// abort: run under a 2 GiB address-space limit (set by `sh`, which
/// execs the binary only once the limit holds), `GraphSpec::build`
/// reserves the build's bytes before a generator allocates.
#[cfg(unix)]
#[test]
fn a_csr_the_allocator_refuses_exits_one_with_one_line() {
    for (graph, bytes) in [
        ("star:2000000000", 47999999992u64),
        ("hypercube:27", 15569256456),
    ] {
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 2097152 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_cobra-exps"))
            .args([
                "run",
                "--graph",
                graph,
                "--backend",
                "csr",
                "--process",
                "cobra:b2",
                "--dry-run",
            ])
            .output()
            .expect("sh runs");
        assert_eq!(out.status.code(), Some(1), "{graph}: {}", text(&out.stderr));
        assert_eq!(
            text(&out.stderr),
            format!(
                "graph spec error: \"{graph}\" needs {bytes} bytes to build as CSR, \
                 more than the allocator grants\n"
            )
        );
    }
}

#[test]
fn help_texts_are_pinned() {
    for (args, want) in [
        (&["--help"][..], include_str!("data/help.txt")),
        (&["run", "--help"][..], include_str!("data/run-help.txt")),
        (
            &["sweep", "--help"][..],
            include_str!("data/sweep-help.txt"),
        ),
        (
            &["serve", "--help"][..],
            include_str!("data/serve-help.txt"),
        ),
    ] {
        let out = cobra_exps(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(text(&out.stdout), "", "{args:?}");
        assert_eq!(text(&out.stderr), want, "{args:?}");
    }
    // No arguments at all: the help text, and a failure.
    let out = cobra_exps(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(text(&out.stderr), include_str!("data/help.txt"));
}

#[test]
fn run_tables_are_pinned() {
    let run = [
        "run",
        "--process",
        "cobra:b2",
        "--graph",
        "hypercube:6",
        "--trials",
        "4",
    ];
    assert_prints(&run, include_str!("data/run-plain.txt"));
    assert_prints(
        &[&run[..], &["--csv"]].concat(),
        include_str!("data/run-csv.txt"),
    );
    assert_prints(
        &[&run[..], &["--markdown"]].concat(),
        include_str!("data/run-markdown.txt"),
    );
    assert_prints(
        &[
            "run",
            "--process",
            "cobra:b2",
            "--graph",
            "cycle:32",
            "--objective",
            "infection:0.5",
            "--dry-run",
        ],
        include_str!("data/run-dry.txt"),
    );
}

#[test]
fn trajectory_dry_run_reports_the_stop_and_budget_it_runs() {
    // Every process stops at cover and pads, BIPS included.
    for process in ["cobra:b2", "bips:b2"] {
        let out = cobra_exps(&[
            "run",
            "--process",
            process,
            "--graph",
            "hypercube:6",
            "--objective",
            "trajectory",
            "--dry-run",
        ]);
        assert_eq!(out.status.code(), Some(0), "{process}");
        let stdout = text(&out.stdout);
        assert!(stdout.contains("  stop when: Complete\n"), "{stdout}");
        assert!(
            stdout.contains("  cap:       256 rounds/trial (trajectory default, 4n)\n"),
            "{stdout}"
        );
    }
}

#[test]
fn single_particle_cobra_tables_are_pinned() {
    // Recorded on the batched COBRA kernel; single-start `cobra:b1` now
    // runs on the random-walk kernel and must print the same tables.
    for (process, table) in [
        ("cobra:b1", include_str!("data/run-b1.txt")),
        ("cobra:b1:lazy", include_str!("data/run-b1-lazy.txt")),
    ] {
        assert_prints(
            &[
                "run",
                "--process",
                process,
                "--graph",
                "hypercube:6",
                "--trials",
                "4",
            ],
            table,
        );
    }
}

#[test]
fn sweep_dry_run_is_pinned() {
    assert_prints(
        &[
            "sweep",
            "objective={cover,hit:far}; graph=cycle:{8..9}|cycle:{9..10}; process=cobra:b2; trials=3",
            "--no-store",
            "--dry-run",
        ],
        include_str!("data/sweep-dry.txt"),
    );
    // 8 points on 2 distinct CSR graphs: 2 builds, and the other 6
    // points reuse a graph already built.
    assert_prints(
        &[
            "sweep",
            "objective={cover,hit:far}; graph=rreg:{64,128}:4; process=cobra:b{1,2}; trials=2; \
             backend=csr",
            "--no-store",
            "--dry-run",
        ],
        include_str!("data/sweep-dry-csr.txt"),
    );
}
