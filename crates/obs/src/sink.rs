//! Delivery side of telemetry: the per-round and per-trial records and
//! the object-safe sinks that receive them.
//!
//! The engine's telemetry observer builds a [`RoundRecord`] after each
//! round and a [`TrialTotals`] at each trial's end and hands them to a
//! `&mut dyn RoundSink`, so one traced code path serves files, memory
//! buffers, and metric registries alike.

use crate::metrics::MetricsRegistry;
use crate::timer::Phase;
use cobra_util::json::{obj, Json};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One executed round, observed immediately after `step()` returned.
///
/// All quantities are *post-round*; the per-round deltas are taken
/// against the totals the observer kept after the previous round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord<'a> {
    /// 1-based index of the round that just executed.
    pub round: usize,
    /// Frontier size after the round (the active set for COBRA, the
    /// walker or live-particle count for the walk families; falls back
    /// to the reached count for processes without a distinct frontier).
    pub frontier: usize,
    /// Vertices covered for the first time during this round.
    pub new_covered: usize,
    /// Total vertices reached after the round.
    pub reached: usize,
    /// Transmissions performed during this round.
    pub transmissions: u64,
    /// Cumulative transmissions after the round.
    pub total_transmissions: u64,
    /// Picks that coalesced this round: transmissions that landed on a
    /// destination another pick already claimed
    /// (`transmissions − |frontier after|`, saturating).
    pub coalesced: u64,
    /// Inbound cross-shard exchange traffic per shard (vertex ids
    /// received at the barrier). Empty for unsharded execution.
    pub shard_traffic: &'a [u64],
}

/// Final totals of one trial — the engine's per-trial outcome
/// (`cobra_mc::TrialOutcome` is this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialTotals {
    /// Rounds until the stop condition held, or `None` if the cap
    /// censored the trial (always `None` for a fixed-horizon run: there
    /// is nothing to complete).
    pub rounds: Option<usize>,
    /// Rounds actually executed (equals the cap when censored).
    pub executed: usize,
    /// Vertices reached when the trial ended.
    pub reached: usize,
    /// Total transmissions performed.
    pub transmissions: u64,
}

/// Object-safe receiver of per-round records and per-trial totals.
///
/// `trial` is the 0-based trial index; rounds within a trial arrive in
/// order (round 1, 2, …) followed by exactly one `on_trial_end`.
pub trait RoundSink {
    /// One executed round of `trial`.
    fn on_round(&mut self, trial: usize, record: &RoundRecord<'_>);

    /// Final totals of `trial`.
    fn on_trial_end(&mut self, trial: usize, totals: &TrialTotals);

    /// Per-trial phase-time split (total nanoseconds per phase over the
    /// trial). Only called when phase timing is enabled; defaults to a
    /// no-op.
    fn on_trial_phases(&mut self, _trial: usize, _phase_nanos: &[(Phase, u64)]) {}
}

/// Sink that drops everything (placeholder when only totals matter).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RoundSink for NullSink {
    fn on_round(&mut self, _trial: usize, _record: &RoundRecord<'_>) {}
    fn on_trial_end(&mut self, _trial: usize, _totals: &TrialTotals) {}
}

/// Owned copy of one [`RoundRecord`], stamped with its trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRound {
    /// 0-based trial index.
    pub trial: usize,
    /// 1-based round index.
    pub round: usize,
    /// Frontier size after the round.
    pub frontier: usize,
    /// Vertices first covered this round.
    pub new_covered: usize,
    /// Total vertices reached after the round.
    pub reached: usize,
    /// Transmissions this round.
    pub transmissions: u64,
    /// Cumulative transmissions.
    pub total_transmissions: u64,
    /// Coalesced picks this round.
    pub coalesced: u64,
    /// Per-shard inbound traffic (empty when unsharded).
    pub shard_traffic: Vec<u64>,
}

/// In-memory sink buffering every record — the test workhorse.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Every observed round, in arrival order.
    pub rounds: Vec<RecordedRound>,
    /// `(trial, totals)` per finished trial.
    pub totals: Vec<(usize, TrialTotals)>,
    /// `(trial, [(phase, nanos)])` per finished trial, when timed.
    pub phases: Vec<(usize, Vec<(Phase, u64)>)>,
}

impl RoundSink for MemorySink {
    fn on_round(&mut self, trial: usize, r: &RoundRecord<'_>) {
        self.rounds.push(RecordedRound {
            trial,
            round: r.round,
            frontier: r.frontier,
            new_covered: r.new_covered,
            reached: r.reached,
            transmissions: r.transmissions,
            total_transmissions: r.total_transmissions,
            coalesced: r.coalesced,
            shard_traffic: r.shard_traffic.to_vec(),
        });
    }

    fn on_trial_end(&mut self, trial: usize, totals: &TrialTotals) {
        self.totals.push((trial, *totals));
    }

    fn on_trial_phases(&mut self, trial: usize, phase_nanos: &[(Phase, u64)]) {
        self.phases.push((trial, phase_nanos.to_vec()));
    }
}

/// Structured JSONL trace writer over any [`Write`] target.
///
/// Three record types, one JSON object per line, serialized with
/// `cobra_util::json` (exact integer round-trip):
///
/// | `type`   | fields                                                         |
/// |----------|----------------------------------------------------------------|
/// | `round`  | `trial round frontier new_covered reached transmissions total_transmissions coalesced [shard_traffic]` |
/// | `trial`  | `trial rounds(executed-or-null) executed reached transmissions` |
/// | `phases` | `trial` + `<phase>_ns` per timed phase                          |
///
/// `every = N` keeps only rounds `1, N+1, 2N+1, …` of each trial so
/// large-graph traces stay bounded; `trial`/`phases` lines are always
/// written. I/O errors are stashed and surfaced by
/// [`finish`](TraceWriter::finish), keeping the sink trait infallible.
pub struct TraceWriter<W: Write> {
    out: W,
    every: usize,
    error: Option<io::Error>,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncate) a trace file at `path`.
    pub fn create(path: &Path, every: usize) -> io::Result<Self> {
        Ok(TraceWriter::new(BufWriter::new(File::create(path)?), every))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap an output stream; `every` is clamped to at least 1.
    pub fn new(out: W, every: usize) -> Self {
        TraceWriter {
            out,
            every: every.max(1),
            error: None,
        }
    }

    fn emit(&mut self, line: &Json) {
        if self.error.is_some() {
            return;
        }
        let mut text = line.to_string_compact();
        text.push('\n');
        if let Err(e) = self.out.write_all(text.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Flush and return the first I/O error encountered, if any.
    pub fn finish(mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl<W: Write> RoundSink for TraceWriter<W> {
    fn on_round(&mut self, trial: usize, r: &RoundRecord<'_>) {
        if !r.round.saturating_sub(1).is_multiple_of(self.every) {
            return;
        }
        let mut fields = vec![
            ("type", Json::Str("round".into())),
            ("trial", Json::Int(trial as i128)),
            ("round", Json::Int(r.round as i128)),
            ("frontier", Json::Int(r.frontier as i128)),
            ("new_covered", Json::Int(r.new_covered as i128)),
            ("reached", Json::Int(r.reached as i128)),
            ("transmissions", Json::Int(r.transmissions as i128)),
            (
                "total_transmissions",
                Json::Int(r.total_transmissions as i128),
            ),
            ("coalesced", Json::Int(r.coalesced as i128)),
        ];
        if !r.shard_traffic.is_empty() {
            fields.push((
                "shard_traffic",
                Json::Array(
                    r.shard_traffic
                        .iter()
                        .map(|&t| Json::Int(t as i128))
                        .collect(),
                ),
            ));
        }
        self.emit(&obj(fields));
    }

    fn on_trial_end(&mut self, trial: usize, t: &TrialTotals) {
        self.emit(&obj([
            ("type", Json::Str("trial".into())),
            ("trial", Json::Int(trial as i128)),
            (
                "rounds",
                t.rounds.map_or(Json::Null, |r| Json::Int(r as i128)),
            ),
            ("executed", Json::Int(t.executed as i128)),
            ("reached", Json::Int(t.reached as i128)),
            ("transmissions", Json::Int(t.transmissions as i128)),
        ]));
    }

    fn on_trial_phases(&mut self, trial: usize, phase_nanos: &[(Phase, u64)]) {
        let mut fields = vec![
            ("type", Json::Str("phases".into())),
            ("trial", Json::Int(trial as i128)),
        ];
        for &(phase, nanos) in phase_nanos {
            fields.push((phase.ns_key(), Json::Int(nanos as i128)));
        }
        self.emit(&obj(fields));
    }
}

/// Sink that folds records into a [`MetricsRegistry`] while forwarding
/// them to an inner sink.
///
/// Counters: `rounds`, `transmissions`, `coalesced`, `new_covered`,
/// `trials`, `trials.censored`. Histograms: `round.frontier`,
/// `trial.rounds`, and (when timed) `phase.<name>_ns`.
pub struct RegistrySink<'a> {
    inner: &'a mut dyn RoundSink,
    registry: MetricsRegistry,
}

impl<'a> RegistrySink<'a> {
    /// Wrap `inner`, accumulating into a fresh registry.
    pub fn new(inner: &'a mut dyn RoundSink) -> Self {
        RegistrySink {
            inner,
            registry: MetricsRegistry::new(),
        }
    }

    /// The accumulated registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl RoundSink for RegistrySink<'_> {
    fn on_round(&mut self, trial: usize, r: &RoundRecord<'_>) {
        self.registry.counter("rounds", 1);
        self.registry.counter("transmissions", r.transmissions);
        self.registry.counter("coalesced", r.coalesced);
        self.registry.counter("new_covered", r.new_covered as u64);
        self.registry
            .histogram("round.frontier")
            .record(r.frontier as u64);
        self.inner.on_round(trial, r);
    }

    fn on_trial_end(&mut self, trial: usize, t: &TrialTotals) {
        self.registry.counter("trials", 1);
        if t.rounds.is_none() {
            self.registry.counter("trials.censored", 1);
        }
        self.registry
            .histogram("trial.rounds")
            .record(t.executed as u64);
        self.inner.on_trial_end(trial, t);
    }

    fn on_trial_phases(&mut self, trial: usize, phase_nanos: &[(Phase, u64)]) {
        for &(phase, nanos) in phase_nanos {
            self.registry.histogram(phase.ns_key()).record(nanos);
        }
        self.inner.on_trial_phases(trial, phase_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize) -> RoundRecord<'static> {
        RoundRecord {
            round,
            frontier: round * 2,
            new_covered: round,
            reached: round * 3,
            transmissions: 4,
            total_transmissions: 4 * round as u64,
            coalesced: 1,
            shard_traffic: &[],
        }
    }

    #[test]
    fn trace_writer_round_trips_and_subsamples() {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf, 2);
            for r in 1..=5 {
                w.on_round(0, &record(r));
            }
            w.on_trial_end(
                0,
                &TrialTotals {
                    rounds: Some(5),
                    executed: 5,
                    reached: 15,
                    transmissions: 20,
                },
            );
            w.on_trial_phases(0, &[(Phase::Draw, 123), (Phase::Coalesce, 7)]);
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        // every=2 keeps rounds 1, 3, 5; trial + phases lines always land.
        assert_eq!(lines.len(), 5);
        let kept: Vec<u64> = lines
            .iter()
            .filter(|j| j.get("type").and_then(Json::as_str) == Some("round"))
            .map(|j| j.get("round").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(kept, vec![1, 3, 5]);
        let trial = &lines[3];
        assert_eq!(trial.get("type").and_then(Json::as_str), Some("trial"));
        assert_eq!(trial.get("rounds").and_then(Json::as_u64), Some(5));
        let phases = &lines[4];
        assert_eq!(phases.get("draw_ns").and_then(Json::as_u64), Some(123));
        assert_eq!(phases.get("coalesce_ns").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn memory_sink_stamps_trials_and_buffers() {
        let mut sink = MemorySink::default();
        sink.on_round(3, &record(1));
        sink.on_trial_end(
            3,
            &TrialTotals {
                rounds: None,
                executed: 9,
                reached: 3,
                transmissions: 36,
            },
        );
        assert_eq!(sink.rounds.len(), 1);
        assert_eq!(sink.rounds[0].trial, 3);
        assert_eq!(
            sink.totals,
            vec![(
                3,
                TrialTotals {
                    rounds: None,
                    executed: 9,
                    reached: 3,
                    transmissions: 36,
                }
            )]
        );
    }

    #[test]
    fn registry_sink_accumulates_and_forwards() {
        let mut inner = MemorySink::default();
        let registry = {
            let mut sink = RegistrySink::new(&mut inner);
            for r in 1..=3 {
                sink.on_round(0, &record(r));
            }
            sink.on_trial_end(
                0,
                &TrialTotals {
                    rounds: Some(3),
                    executed: 3,
                    reached: 9,
                    transmissions: 12,
                },
            );
            sink.into_registry()
        };
        assert_eq!(inner.rounds.len(), 3);
        assert_eq!(inner.totals.len(), 1);
        let text = registry.render();
        assert!(text.contains("rounds = 3"), "missing counter in:\n{text}");
        assert!(text.contains("transmissions = 12"), "{text}");
    }
}
