//! `cobra-exps` — the experiment harness binary.
//!
//! Regenerates the paper's quantitative claims as tables, and runs
//! ad-hoc scenarios through the declarative `SimSpec` API:
//!
//! ```sh
//! cobra-exps all                # every experiment, full fidelity
//! cobra-exps --quick all        # fast presets (what CI runs)
//! cobra-exps f6 t1              # a subset
//! cobra-exps --csv f4           # CSV to stdout
//! cobra-exps --markdown all     # markdown: the reproduction record (not committed yet)
//! cobra-exps --plot f1          # append an ASCII figure to the table
//! cobra-exps --list             # available ids
//!
//! # any process × graph × objective, no Rust required:
//! cobra-exps run --process cobra:b2 --graph hypercube:10 --trials 30
//! cobra-exps run --process bips:rho0.5 --graph gnp:2000:0.01 --objective hit:far
//! cobra-exps run --process cobra:b2 --graph cycle:64 --objective infection:0.5 --dry-run
//!
//! # billion-vertex scale: partitioned vertex state over the implicit backend:
//! cobra-exps run --process cobra:b2 --graph hypercube:30 --shards 8 --trials 1
//!
//! # whole parameter grids (objective axes included), cached and resumable:
//! cobra-exps sweep 'cover; graph=hypercube:{10..16}; process=cobra:b{1,2,3}; trials=64'
//! cobra-exps sweep 'objective={cover,hit:far,infection:1.0}; graph=hypercube:{8..12}; process=cobra:b{1,2}; trials=32'
//! cobra-exps sweep @grid.sweep --dry-run
//! ```

use cobra::experiments;
use cobra::{SimSpec, Table};
use cobra_campaign::{
    artifact, plan_sweep, run_sweep_watched, PointEvent, PointStatus, Store, SweepSpec,
    WatchOutcome,
};
use cobra_obs::status::{err_line, err_transient, out_line};
use cobra_obs::{MetricsRegistry, RegistrySink, RoundSink, TraceWriter};
use std::collections::HashSet;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

use cobra_viz::{Plot, Scale, Series};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Plain,
    Csv,
    Markdown,
}

fn print_table(table: &Table, format: Format) {
    match format {
        Format::Plain => println!("{}", table.render()),
        Format::Csv => print!("{}", table.to_csv()),
        Format::Markdown => println!("{}", table.to_markdown()),
    }
}

/// Why a command failed: the one stderr line `main` prints before it
/// exits 1. Every displayable error converts with `?`.
struct Failure(String);

impl<E: Display> From<E> for Failure {
    fn from(e: E) -> Failure {
        Failure(e.to_string())
    }
}

/// How a command ends: an exit status, or a one-line failure.
type Outcome = Result<ExitCode, Failure>;

/// The one flag reader behind every argument loop. A missing or
/// malformed value becomes a usage error that points at the command's
/// help (`command` is `"run "`, `"sweep "`, `"serve "` or empty for the
/// experiment harness).
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    command: &'static str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], command: &'static str) -> Flags<'a> {
        Flags {
            args: args.iter(),
            command,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, Failure> {
        let value = self.args.next().cloned();
        value.ok_or_else(|| self.usage(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Failure>
    where
        T::Err: Display,
    {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|e| self.usage(format!("{flag}: {e}")))
    }

    /// A usage error: one line that points at the command's help.
    fn usage(&self, message: impl Display) -> Failure {
        Failure(format!("{message} (see cobra-exps {}--help)", self.command))
    }
}

/// Prints a help text (to stderr) and succeeds.
fn help(print: fn()) -> Outcome {
    print();
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_subcommand(&args[1..]),
        Some("sweep") => sweep_subcommand(&args[1..]),
        Some("serve") => serve_subcommand(&args[1..]),
        _ => harness(&args),
    };
    outcome.unwrap_or_else(|Failure(line)| {
        err_line(&line);
        ExitCode::FAILURE
    })
}

/// The experiment harness: regenerates the paper's tables by id.
fn harness(args: &[String]) -> Outcome {
    let mut quick = false;
    let mut plot = false;
    let mut format = Format::Plain;
    let mut ids: Vec<String> = Vec::new();
    let mut flags = Flags::new(args, "");
    while let Some(arg) = flags.next() {
        match arg {
            "--quick" | "-q" => quick = true,
            "--full" => quick = false,
            "--plot" | "-p" => plot = true,
            "--csv" => format = Format::Csv,
            "--markdown" | "--md" => format = Format::Markdown,
            "--list" | "-l" => {
                for id in experiments::ALL_IDS {
                    println!("{id}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => return help(print_help),
            "all" => ids.extend(experiments::ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                return Err(flags.usage(format!("unknown flag: {other}")));
            }
            other => ids.push(other.to_ascii_lowercase()),
        }
    }
    if ids.is_empty() {
        print_help();
        return Ok(ExitCode::FAILURE);
    }
    // Order-preserving dedup: `cobra-exps f1 f2 f1` runs f1 once, first.
    let mut seen: HashSet<String> = HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    // Every id is checked before any experiment runs.
    if let Some(id) = ids
        .iter()
        .find(|id| !experiments::ALL_IDS.contains(&id.as_str()))
    {
        return Err(format!("unknown experiment id: {id} (try --list)").into());
    }
    for id in &ids {
        let table = experiments::run(id, quick).expect("ids were checked");
        print_table(&table, format);
        if plot {
            if let Some(fig) = figure_for(id, &table) {
                println!("{fig}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Describes how to lift a table's columns into a figure: optional
/// grouping column, x and y columns, scales.
struct FigureSpec {
    group_col: Option<usize>,
    x_col: usize,
    y_col: usize,
    x_scale: Scale,
    y_scale: Scale,
    x_label: &'static str,
    y_label: &'static str,
}

fn figure_spec(id: &str) -> Option<FigureSpec> {
    let spec = match id {
        "t1" => FigureSpec {
            group_col: None,
            x_col: 1,
            y_col: 2,
            x_scale: Scale::Log,
            y_scale: Scale::Linear,
            x_label: "n",
            y_label: "mean cover",
        },
        "f1" => FigureSpec {
            group_col: None,
            x_col: 0,
            y_col: 1,
            x_scale: Scale::Log,
            y_scale: Scale::Linear,
            x_label: "n",
            y_label: "mean cover",
        },
        "f2" => FigureSpec {
            group_col: Some(0),
            x_col: 1,
            y_col: 4,
            x_scale: Scale::Log,
            y_scale: Scale::Linear,
            x_label: "n",
            y_label: "mean cover",
        },
        "f3" => FigureSpec {
            group_col: Some(0),
            x_col: 2,
            y_col: 3,
            x_scale: Scale::Log,
            y_scale: Scale::Log,
            x_label: "n",
            y_label: "mean cover",
        },
        "f5" => FigureSpec {
            group_col: None,
            x_col: 6,
            y_col: 3,
            x_scale: Scale::Log,
            y_scale: Scale::Log,
            x_label: "1/(1-λ)",
            y_label: "mean cover",
        },
        "f7" => FigureSpec {
            group_col: Some(0),
            x_col: 1,
            y_col: 3,
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            x_label: "rho",
            y_label: "slowdown",
        },
        _ => return None,
    };
    Some(spec)
}

/// Renders the figure attached to a series experiment, if it has one.
fn figure_for(id: &str, table: &Table) -> Option<String> {
    let spec = figure_spec(id)?;
    let parse = |cell: &str| cell.parse::<f64>().ok();
    let mut groups: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for row in &table.rows {
        let (x, y) = (parse(&row[spec.x_col])?, parse(&row[spec.y_col])?);
        let key = spec
            .group_col
            .map(|c| row[c].clone())
            .unwrap_or_else(|| "measured".to_string());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, pts)) => pts.push((x, y)),
            None => groups.push((key, vec![(x, y)])),
        }
    }
    const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let mut plot = Plot::new(format!("{} — {}", table.id, table.title))
        .labels(spec.x_label, spec.y_label)
        .scales(spec.x_scale, spec.y_scale)
        .size(68, 18);
    for (i, (label, pts)) in groups.into_iter().enumerate() {
        plot = plot.series(Series::new(label, MARKERS[i % MARKERS.len()], pts));
    }
    Some(plot.render())
}

/// `cobra-exps run` — one ad-hoc scenario through the `SimSpec` API,
/// measured via its first-class objective.
fn run_subcommand(args: &[String]) -> Outcome {
    let mut graph: Option<String> = None;
    let mut process: Option<String> = None;
    let mut objective_arg: Option<String> = None;
    let mut trials: usize = 30;
    let mut seed: u64 = 0xC0B7A;
    let mut threads: usize = 0;
    let mut cap: Option<usize> = None;
    let mut start: u32 = 0;
    let mut backend = cobra::Backend::Auto;
    let mut shards: usize = 1;
    let mut dry_run = false;
    let mut verbose = false;
    let mut format = Format::Plain;
    let mut trace: Option<PathBuf> = None;
    let mut trace_every: usize = 1;
    let mut metrics = false;

    let mut flags = Flags::new(args, "run ");
    while let Some(arg) = flags.next() {
        match arg {
            "--graph" | "-g" => graph = Some(flags.value("--graph")?),
            "--process" | "-p" => process = Some(flags.value("--process")?),
            "--objective" | "-O" => objective_arg = Some(flags.value("--objective")?),
            "--trials" | "-t" => trials = flags.parse("--trials")?,
            "--seed" => seed = flags.parse("--seed")?,
            "--threads" => threads = flags.parse("--threads")?,
            "--cap" => cap = Some(flags.parse("--cap")?),
            "--start" => start = flags.parse("--start")?,
            "--backend" | "-B" => backend = flags.parse("--backend")?,
            "--shards" | "-S" => shards = flags.parse("--shards")?,
            "--dry-run" | "-n" => dry_run = true,
            "--verbose" | "-v" => verbose = true,
            "--trace" => trace = Some(flags.parse("--trace")?),
            "--trace-every" => trace_every = flags.parse("--trace-every")?,
            "--metrics" | "-M" => metrics = true,
            "--csv" => format = Format::Csv,
            "--markdown" | "--md" => format = Format::Markdown,
            "--help" | "-h" => return help(print_run_help),
            other => return Err(flags.usage(format!("unknown argument: {other}"))),
        }
    }
    let (Some(graph), Some(process)) = (graph, process) else {
        return Err(flags.usage("run needs both --graph and --process"));
    };

    let objective: cobra::Objective = objective_arg
        .as_deref()
        .map_or(Ok(cobra::Objective::Cover), str::parse)?;
    let mut spec = SimSpec::parse(&graph, &process)?
        .with_start(start)
        .with_trials(trials)
        .with_seed(seed)
        .with_threads(threads)
        .with_backend(backend)
        .with_shards(shards)
        .with_objective(objective);
    spec.cap = cap;

    if dry_run || verbose {
        // Resolve everything a trial would see — and reject
        // non-terminating combos (hit: outside the graph, unreachable
        // hit:far) before any round runs, naming the offending token.
        print_resolved_run(&spec, &graph, &process)?;
        if dry_run {
            return Ok(ExitCode::SUCCESS);
        }
    }

    let measurement = if trace.is_some() || metrics {
        run_traced(&spec, trace.as_deref(), trace_every, metrics)?
    } else {
        spec.measure()?
    };

    let table = match measurement {
        cobra::Measurement::Stopping(est) => stopping_table(&spec, &graph, &process, &est),
        cobra::Measurement::Duality(report) => report.to_table("RUN", &graph),
        cobra::Measurement::Trajectory(traj) => {
            // Machine-readable formats get the full curve; the plain
            // table samples it for terminal width.
            trajectory_table(&graph, &process, &traj, format != Format::Plain)
        }
    };
    print_table(&table, format);
    Ok(ExitCode::SUCCESS)
}

/// The observed measurement path behind `run --trace` / `run
/// --metrics`: trials run sequentially through the traced engine —
/// bit-identical to the untraced run — streaming per-round records to
/// the trace file (subsampled by `every`) and, under `--metrics`,
/// folding them into a registry dumped to stderr afterwards.
fn run_traced(
    spec: &SimSpec<'_>,
    trace: Option<&Path>,
    every: usize,
    metrics: bool,
) -> Result<cobra::Measurement, Failure> {
    let mut writer = match trace {
        Some(path) => Some(
            TraceWriter::create(path, every)
                .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut null = cobra_obs::NullSink;
    let inner: &mut dyn RoundSink = match writer.as_mut() {
        Some(w) => w,
        None => &mut null,
    };
    let measurement = if metrics {
        let mut sink = RegistrySink::new(inner);
        let (measurement, _) = spec.measure_traced(&mut sink, true)?;
        let registry: MetricsRegistry = sink.into_registry();
        err_line(&registry.render());
        measurement
    } else {
        let (measurement, _) = spec.measure_traced(inner, true)?;
        measurement
    };
    if let Some(writer) = writer {
        writer
            .finish()
            .map_err(|e| format!("trace write failed: {e}"))?;
    }
    Ok(measurement)
}

/// Prints the fully-resolved scenario (objective, stop condition, cap)
/// without running a round; errors on specs that cannot terminate.
fn print_resolved_run(spec: &SimSpec<'_>, graph: &str, process: &str) -> Result<(), Failure> {
    // Full spec validation (start set in range, objective can
    // terminate) — exactly what every run path checks, so a clean dry
    // run means the real run starts. Implicit backends resolve without
    // materialising a single edge, so hypercube:24 dry-runs instantly.
    let resolved = spec.resolve()?;
    out_line(&format!(
        "run: {process} on {graph} (n = {}, m = {})",
        resolved.n, resolved.m
    ));
    out_line(&format!(
        "  backend:   {} (graph resident ~{} bytes)",
        resolved.backend, resolved.graph_bytes
    ));
    out_line(&format!(
        "  shards:    {}{} ({})",
        resolved.shards,
        if resolved.shards == 1 {
            " (unsharded engine)"
        } else {
            ""
        },
        match resolved.shard_state_bytes {
            Some(bytes) => format!("per-shard state ~{bytes} bytes: visited + frontier + scratch"),
            None => "process does not shard".into(),
        }
    ));
    out_line(&format!("  objective: {}", spec.objective));
    out_line(&format!("  stop when: {:?}", resolved.stop));
    out_line(&format!(
        "  cap:       {} rounds/trial ({})",
        resolved.cap,
        if resolved.explicit_cap {
            "explicit"
        } else if matches!(spec.objective, cobra::Objective::Trajectory) {
            "trajectory default, 4n"
        } else {
            "derived from the paper's bounds"
        }
    ));
    out_line(&format!(
        "  trials:    {} (seed {:#x}, threads {})",
        spec.trials,
        spec.master_seed,
        if spec.threads == 0 {
            "auto".to_string()
        } else {
            spec.threads.to_string()
        }
    ));
    Ok(())
}

/// Renders a streamed stopping-time measurement as the run table.
fn stopping_table(
    spec: &SimSpec<'_>,
    graph: &str,
    process: &str,
    est: &cobra::StoppingEstimate,
) -> Table {
    let mut table = Table::new(
        "RUN",
        format!("{process} on {graph} — objective {}", spec.objective),
        &["metric", "value"],
    );
    let fmt_val = |x: f64| format!("{x:.3}");
    let mut push = |metric: &str, value: String| table.push_row(vec![metric.to_string(), value]);
    push("objective", spec.objective.to_string());
    push("trials", est.trials.to_string());
    push("completed", est.completed().to_string());
    push(
        "censored at cap",
        format!("{} (cap = {})", est.censored, est.cap),
    );
    if est.completed() > 0 {
        push("mean rounds", fmt_val(est.mean));
        push("std dev", fmt_val(est.std_dev));
        push(
            "min / median / max",
            format!("{:.0} / {:.2} / {:.0}", est.min, est.median, est.max),
        );
    }
    push("mean transmissions", fmt_val(est.mean_transmissions));
    push("mean reached", fmt_val(est.mean_reached));
    table
}

/// Renders a trajectory measurement. `full` emits every round
/// (CSV/markdown consumers); otherwise up to 16 evenly spaced rows
/// sketch the curve for the terminal.
fn trajectory_table(
    graph: &str,
    process: &str,
    traj: &cobra::TrajectoryEstimate,
    full: bool,
) -> Table {
    let mut table = Table::new(
        "RUN",
        format!("{process} on {graph} — mean reached-set trajectory"),
        &["round", "mean reached"],
    );
    let rounds = traj.mean_sizes.len();
    let step = if full { 1 } else { rounds.div_ceil(16).max(1) };
    for (t, &size) in traj.mean_sizes.iter().enumerate() {
        if t % step == 0 || t + 1 == rounds {
            table.push_row(vec![t.to_string(), format!("{size:.2}")]);
        }
    }
    table.note(format!("{} trials averaged", traj.trials));
    table
}

/// `cobra-exps sweep` — run a whole parameter grid through the
/// campaign layer: declarative expansion, content-addressed caching,
/// resumable scheduling, table/plot artifacts.
fn sweep_subcommand(args: &[String]) -> Outcome {
    let mut spec_arg: Option<String> = None;
    let mut objective_axis: Option<String> = None;
    let mut backend_override: Option<cobra::Backend> = None;
    let mut shards_override: Option<usize> = None;
    let mut dry_run = false;
    let mut threads: usize = 0;
    let mut store_root = PathBuf::from("campaigns");
    let mut no_store = false;
    let mut plot = false;
    let mut format = Format::Plain;
    let mut progress = false;
    let mut metrics = false;
    let mut watch = false;

    let mut flags = Flags::new(args, "sweep ");
    while let Some(arg) = flags.next() {
        match arg {
            "--objective" | "-O" => objective_axis = Some(flags.value("--objective")?),
            "--backend" | "-B" => backend_override = Some(flags.parse("--backend")?),
            "--shards" | "-S" => shards_override = Some(flags.parse("--shards")?),
            "--dry-run" | "-n" => dry_run = true,
            "--threads" => threads = flags.parse("--threads")?,
            "--store" => store_root = flags.parse("--store")?,
            "--no-store" => no_store = true,
            "--plot" | "-p" => plot = true,
            "--progress" => progress = true,
            "--watch" | "-w" => watch = true,
            "--metrics" | "-M" => metrics = true,
            "--csv" => format = Format::Csv,
            "--markdown" | "--md" => format = Format::Markdown,
            "--help" | "-h" => return help(print_sweep_help),
            other if other.starts_with('-') => {
                return Err(flags.usage(format!("unknown argument: {other}")));
            }
            other if spec_arg.is_none() => spec_arg = Some(other.to_string()),
            other => return Err(flags.usage(format!("unexpected extra argument: {other}"))),
        }
    }
    let Some(spec_arg) = spec_arg else {
        return Err(flags.usage("sweep needs a spec (inline, @file, or a path to a spec file)"));
    };
    let mut spec: SweepSpec = load_sweep_text(&spec_arg)?.parse()?;
    if let Some(axis) = objective_axis {
        // --objective overrides the spec's objective axis; re-validate
        // the expansion under the new axis.
        spec.objectives = axis.split('|').map(|s| s.trim().to_string()).collect();
        spec.expand_axes()?;
    }
    if let Some(backend) = backend_override {
        // --backend overrides the spec's backend= segment; results are
        // identical either way, only memory/speed change.
        spec.backend = backend;
    }
    if let Some(shards) = shards_override {
        if shards == 0 {
            return Err("--shards must be >= 1 (1 = the unsharded engine)".into());
        }
        // --shards overrides the spec's shards= segment. Unlike
        // --backend this changes every point's content key (and the
        // derived store name): sharded points are different points.
        spec.shards = shards;
    }
    let name = spec.name();
    let store_dir = store_root.join(&name);

    if dry_run {
        // Read-only: a dry run inspects the store without creating it.
        let store = if no_store {
            Store::in_memory()
        } else {
            Store::load(&store_dir)
        };
        let plan = plan_sweep(&spec, &store, &paper_cap)?;
        let dup_note = if plan.duplicates.is_empty() {
            String::new()
        } else {
            format!(
                " ({} duplicate expansions fold away)",
                plan.duplicates.len()
            )
        };
        out_line(&format!(
            "sweep {name}: {} points ({} distinct graphs) — {} cached, {} to compute{dup_note}",
            plan.len(),
            plan.distinct_graphs,
            plan.cached.len(),
            plan.missing.len()
        ));
        let cs = plan.cache_stats;
        out_line(&format!(
            "  graph cache: {} built, {} hits, ~{} bytes resident",
            cs.misses, cs.hits, cs.resident_bytes
        ));
        let cached: HashSet<usize> = plan.cached.iter().copied().collect();
        let dups: HashSet<usize> = plan.duplicates.iter().copied().collect();
        const SHOW: usize = 64;
        for (i, planned) in plan.points.iter().take(SHOW).enumerate() {
            let p = &planned.point;
            let marker = if dups.contains(&i) {
                "dup "
            } else if cached.contains(&i) {
                "hit "
            } else {
                "miss"
            };
            println!(
                "  [{marker}] {} × {} × {} trials={} cap={} key={}",
                p.objective,
                p.graph,
                p.process,
                p.trials,
                p.cap,
                p.digest_hex()
            );
        }
        if plan.len() > SHOW {
            println!("  ... {} more", plan.len() - SHOW);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut store = if no_store {
        Store::in_memory()
    } else {
        Store::open(&store_dir)
            .map_err(|e| format!("cannot open store {}: {e}", store_dir.display()))?
    };
    let started = std::time::Instant::now();
    // Every event is printed under --watch; --progress draws its live
    // line from them. Cached events all fire before the first point
    // starts; an expansion twin's `deduped` follows its job's
    // `computed`, so the next redraw counts it with the cached points.
    let total = spec.expand_axes().map_or(0, |grid| grid.len());
    let (cached_seen, computed_seen) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let on_event = |event: &PointEvent| {
        if watch {
            out_line(&event.to_json().to_string());
        }
        if !progress {
            return;
        }
        let computed = match event.status {
            PointStatus::Cached | PointStatus::Deduped => {
                cached_seen.fetch_add(1, Ordering::Relaxed);
                return;
            }
            PointStatus::Computed => computed_seen.fetch_add(1, Ordering::Relaxed) + 1,
            _ => return,
        };
        let cached = cached_seen.load(Ordering::Relaxed);
        let done = cached + computed;
        let pct = 100 * done / total.max(1);
        let rate = computed as f64 / started.elapsed().as_secs_f64().max(1e-9);
        let eta = total.saturating_sub(done) as f64 / rate.max(1e-9);
        err_transient(&format!(
            "progress: {done}/{total} points ({pct}%) — {cached} cached, {rate:.1} points/s, ETA {eta:.0}s"
        ));
    };
    // Graceful interruption (SIGINT/SIGTERM): in-flight trials drain at
    // the next trial boundary, every finished record is already
    // flushed, and the campaign resumes where it stopped on the next run.
    cobra_serve::signal::install_handlers();
    let cancel = cobra_serve::signal::shutdown_flag();
    let WatchOutcome {
        records,
        cached: cached_n,
        computed: computed_n,
        cancelled,
        interrupted,
        cache_stats,
    } = run_sweep_watched(&spec, &mut store, threads, &paper_cap, &on_event, cancel)?;
    let records: Vec<_> = records.into_iter().flatten().collect();
    if progress {
        // Unconditional final line: an all-cached sweep never draws the
        // transient line, and the transient line (if any) needs
        // terminating. Trailing spaces blank out any longer remainder.
        let done = cached_n + computed_n;
        err_line(&format!(
            "\rprogress: {done}/{total} points ({}%) — {cached_n} cached, {computed_n} computed        ",
            100 * done / total.max(1)
        ));
    }
    if metrics {
        let cs = cache_stats;
        let mut reg = MetricsRegistry::new();
        reg.counter("campaign.points.total", total as u64);
        reg.counter("campaign.points.cached", cached_n as u64);
        reg.counter("campaign.points.computed", computed_n as u64);
        reg.counter("campaign.points.cancelled", cancelled as u64);
        reg.counter("graph_cache.hits", cs.hits as u64);
        reg.counter("graph_cache.misses", cs.misses as u64);
        reg.gauge("graph_cache.resident_bytes", cs.resident_bytes as f64);
        reg.gauge("sweep.wall_seconds", started.elapsed().as_secs_f64());
        err_line(&reg.render());
    }
    if interrupted {
        out_line(&format!(
            "sweep {name}: interrupted — {cached_n} cached, {computed_n} computed, \
             {cancelled} cancelled; store flushed, re-run to resume"
        ));
    } else {
        out_line(&format!(
            "sweep {name}: {} points — {cached_n} cached, {computed_n} computed",
            records.len(),
        ));
    }
    // One table per objective (a single-objective sweep prints one).
    for (_objective, table) in artifact::tables(&name, &records) {
        print_table(&table, format);
    }
    if plot {
        if let Some(fig) = artifact::scaling_plot(&name, &records) {
            println!("{fig}");
        }
    }
    if !no_store && !interrupted {
        let written = artifact::write_artifacts(&store_dir, &name, &records)
            .map_err(|e| format!("cannot write artifacts: {e}"))?;
        for path in written {
            out_line(&format!("wrote {}", path.display()));
        }
    }
    if interrupted {
        // The conventional SIGINT exit status; the drain was graceful
        // but the sweep is incomplete.
        return Ok(ExitCode::from(130));
    }
    Ok(ExitCode::SUCCESS)
}

/// Resolves the sweep-spec argument: inline text, `@file`, or a path to
/// an existing file. Files may spread segments over several lines and
/// use `#` comment lines.
fn load_sweep_text(arg: &str) -> Result<String, String> {
    let path = arg.strip_prefix('@').map(PathBuf::from).or_else(|| {
        let p = PathBuf::from(arg);
        p.is_file().then_some(p)
    });
    let Some(path) = path else {
        return Ok(arg.to_string());
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read sweep file {}: {e}", path.display()))?;
    let joined = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join(" ");
    if joined.is_empty() {
        return Err(format!("sweep file {} holds no spec", path.display()));
    }
    Ok(joined)
}

fn print_sweep_help() {
    eprintln!(
        "cobra-exps sweep — run a parameter grid with caching and resumability\n\
         \n\
         usage: cobra-exps sweep '<spec>' [options]\n\
         \u{20}      cobra-exps sweep @grid.sweep [options]\n\
         \n\
         spec grammar: <objectives>; graph=<patterns>; process=<patterns>; trials=N\n\
         \u{20}             [; start=V] [; seed=S] [; cap=C] [; name=N] [; shards=S]\n\
         \u{20} e.g.  'cover; graph=hypercube:{{10..16}}; process=cobra:b{{1,2,3}}; trials=64'\n\
         \u{20}       'objective={{cover,hit:far,infection:1.0}}; graph=hypercube:{{8..12}};\n\
         \u{20}        process=cobra:b{{1,2}}; trials=32'\n\
         \u{20} objectives: cover | hit:V | hit:far | infection:T (the sweepable estimands)\n\
         \u{20} patterns brace-expand ({{a..b}} ranges, {{x,y,z}} lists) and |-alternate\n\
         \n\
         options: --objective AXIS (override the spec's objective axis)\n\
         \u{20}        --backend auto|csr|implicit (override the spec's backend= segment;\n\
         \u{20}        auto: implicit for complete and hypercube; never changes results —\n\
         \u{20}        backends are bit-identical)\n\
         \u{20}        --shards N (override the spec's shards= segment; unlike --backend\n\
         \u{20}        this is part of every point's content key — sharded points are\n\
         \u{20}        different points)\n\
         \u{20}        --dry-run (show resolved objectives/caps + cache hits, run nothing)\n\
         \u{20}        --threads N (auto)  --store DIR (campaigns)  --no-store\n\
         \u{20}        --progress (live stderr line: done/total, cached, points/s, ETA;\n\
         \u{20}        always ends with a final done/total line)\n\
         \u{20}        --watch (stream one NDJSON lifecycle event per point to stdout:\n\
         \u{20}        cached/started/computed/deduped/cancelled/failed — same schema as\n\
         \u{20}        the cobra-serve event stream; combines with --progress)\n\
         \u{20}        --metrics (dump campaign + graph-cache counters to stderr)\n\
         \u{20}        --csv | --markdown  --plot\n\
         \n\
         Results persist one streamed-summary JSON line per point under\n\
         <store>/<name>/results.jsonl, keyed by a content hash of the resolved point\n\
         (objective included); re-runs and killed runs only compute missing points.\n\
         Multi-objective grids render one table/CSV per objective.\n\
         SIGINT/SIGTERM drain in-flight trials gracefully: finished points are\n\
         already flushed and the next run resumes where this one stopped.\n\
         A point whose run panics is reported failed; the other points still run,\n\
         then the sweep exits 1 naming it."
    );
}

/// The cap policy of the SimSpec layer, shared by `sweep` and `serve`:
/// the paper's bounds decide each point's round budget unless the spec
/// pins `cap=`. A plain `fn` so [`cobra_serve::ServeConfig`] can hold
/// it.
fn paper_cap(shape: cobra_graph::GraphShape, process: &cobra_process::ProcessSpec) -> usize {
    cobra::sim::resolve_cap_shape(shape, process, None)
}

/// `cobra-exps serve` — run the campaign service daemon: accept sweep
/// campaigns over HTTP, schedule their points fairly across one shared
/// worker pool, dedup identical work across clients, and stream
/// per-point NDJSON events. SIGINT/SIGTERM drain in-flight trials and
/// exit with a final summary.
fn serve_subcommand(args: &[String]) -> Outcome {
    let mut addr: std::net::SocketAddr = "127.0.0.1:7171".parse().expect("static default addr");
    let mut threads: usize = 0;
    let mut store_root: Option<PathBuf> = Some(PathBuf::from("campaigns"));
    let mut flags = Flags::new(args, "serve ");
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" | "-a" => addr = flags.parse("--addr")?,
            "--threads" => threads = flags.parse("--threads")?,
            "--store" => store_root = Some(flags.parse("--store")?),
            "--no-store" => store_root = None,
            "--help" | "-h" => return help(print_serve_help),
            other => return Err(flags.usage(format!("unknown argument: {other}"))),
        }
    }
    let config = cobra_serve::ServeConfig {
        threads,
        store_root: store_root.clone(),
        cap: paper_cap,
    };
    let workers = config.resolved_threads();
    let service = std::sync::Arc::new(cobra_serve::CampaignService::new(config));
    service.spawn_workers(0);
    let server = cobra_serve::Server::bind(addr, std::sync::Arc::clone(&service))
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    cobra_serve::signal::install_handlers();
    out_line(&format!(
        "cobra-serve listening on http://{} — {workers} workers, store {}",
        server.local_addr(),
        match &store_root {
            Some(root) => root.display().to_string(),
            None => "(in-memory)".to_string(),
        }
    ));
    // `run` drains in-flight trials and cancels the rest before it returns.
    if let Err(e) = server.run(cobra_serve::signal::shutdown_flag()) {
        return Err(format!("accept loop failed: {e}").into());
    }
    out_line("shutdown requested — draining in-flight trials");
    let m = service.metrics();
    let count = |name: &str| m.counter_value(name).unwrap_or(0);
    out_line(&format!(
        "served {} campaigns — {} computed, {} cached, {} deduped in flight, {} cancelled",
        count("serve.campaigns.submitted"),
        count("serve.points.computed"),
        count("serve.points.cached"),
        count("serve.points.deduped"),
        count("serve.points.cancelled"),
    ));
    Ok(ExitCode::SUCCESS)
}

fn print_serve_help() {
    eprintln!(
        "cobra-exps serve — the campaign service daemon\n\
         \n\
         usage: cobra-exps serve [options]\n\
         \n\
         options: --addr HOST:PORT (127.0.0.1:7171)  --threads N (one per core)\n\
         \u{20}        --store DIR (campaigns; same layout as sweep --store, so\n\
         \u{20}        existing sweep results are served warm)  --no-store (in-memory)\n\
         \n\
         endpoints: POST /campaigns (sweep-spec text -> receipt JSON)\n\
         \u{20}          GET /campaigns/<id> (status)  GET /campaigns/<id>/events (NDJSON)\n\
         \u{20}          GET /metrics  GET /healthz\n\
         \n\
         Campaigns from all clients share one worker pool (fair-share per campaign),\n\
         one content-addressed store per campaign name, and an in-flight index that\n\
         computes identical points exactly once. SIGINT/SIGTERM drain and summarize."
    );
}

fn print_run_help() {
    eprintln!(
        "cobra-exps run — run one scenario through the SimSpec engine\n\
         \n\
         usage: cobra-exps run --graph <spec> --process <spec> [options]\n\
         \n\
         graph specs:   hypercube:10, grid:32x32, complete:64, gnp:2000:0.01,\n\
         \u{20}              torus:8x8, regular:512:3, lollipop:64, barbell:64,\n\
         \u{20}              rreg:1024:8, pa:5000:3, file:<path>[?component=giant], ...\n\
         process specs: cobra:b2, cobra:rho0.5:lazy, bips:b2:exact, rw,\n\
         \u{20}              walks:8, coalescing:4, gossip:pushpull\n\
         objectives:    cover (default), hit:V, hit:far, infection:T,\n\
         \u{20}              duality:h{{T1,T2,...}}, trajectory\n\
         \n\
         options: --objective O (cover)  --trials N (30)  --seed S\n\
         \u{20}        --threads T (auto)  --cap C (derived)\n\
         \u{20}        --start V (0)  --backend auto|csr|implicit (auto: implicit for\n\
         \u{20}        complete and hypercube — hypercube:24 runs in O(1) graph memory)\n\
         \u{20}        --shards N (1 = unsharded; partitions vertex state across N\n\
         \u{20}        worker shards — part of the result's identity, unlike --backend)\n\
         \u{20}        --dry-run (print the resolved backend, objective, stop\n\
         \u{20}        condition, and cap; run nothing)  --verbose (print, then run)\n\
         \u{20}        --trace FILE (stream one JSONL record per round: frontier,\n\
         \u{20}        new_covered, transmissions, coalesced, shard traffic — probes\n\
         \u{20}        observe only, results stay bit-identical; trials run sequentially)\n\
         \u{20}        --trace-every N (subsample the trace to every Nth round)\n\
         \u{20}        --metrics (dump counters/histograms + phase timers to stderr)\n\
         \u{20}        --csv | --markdown"
    );
}

fn print_help() {
    eprintln!(
        "cobra-exps — regenerate the SPAA 2017 COBRA paper's experiment tables\n\
         \n\
         usage: cobra-exps [--quick|--full] [--csv|--markdown] [--plot] <id>... | all | --list\n\
         \u{20}      cobra-exps run --graph <spec> --process <spec> [options]\n\
         \u{20}      cobra-exps sweep '<sweep spec>' [options]   (see sweep --help)\n\
         \u{20}      cobra-exps serve [options]                  (see serve --help)\n\
         \n\
         ids: {}",
        experiments::ALL_IDS.join(", ")
    );
}
