//! In-memory spans for the traced pass.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions: a name (`<layer>.<operation>`), start, end, and the
//! span that caused it. Spans stay in memory while the pass runs and are
//! written as JSON lines when it ends. A span's self time is its
//! duration minus the part of it that its children cover.

use crate::Args;
use cobra_util::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Handle of an open or closed span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: f64,
    end: f64,
}

/// A span recorder; times are seconds since its origin.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.record(name, parent, start, start)
    }

    /// Closes `id` now, returning its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Records a finished span from two instants.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let (start, end) = (at(start), at(end));
        self.record(name, parent, start, end)
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: f64,
        end: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Total seconds of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self seconds of every span: its duration minus the union of its
    /// children's intervals.
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect()
    }

    /// `(name, count, total seconds, self seconds)` per span name,
    /// largest self time first.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.end - s.start;
                    row.3 += self_s;
                }
                None => rows.push((s.name, 1, s.end - s.start, self_s)),
            }
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Writes the pass's spans under `.bench_out/spans/` and prints the
    /// per-name self-time table to stderr.
    pub fn finish(&self, args: &Args) {
        let path = PathBuf::from(".bench_out")
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match self.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans -> {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for (name, count, total, self_s) in self.summary() {
            eprintln!("  {name:<24} n={count:<6} total={total:>9.4}s self={self_s:>9.4}s");
        }
    }

    /// Writes one JSON line per span: `id name parent start_s end_s
    /// self_s`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let line = Json::Object(vec![
                ("id".to_string(), Json::Int(id as i128)),
                ("name".to_string(), Json::Str(s.name.to_string())),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                ),
                ("start_s".to_string(), Json::Float(s.start)),
                ("end_s".to_string(), Json::Float(s.end)),
                ("self_s".to_string(), Json::Float(self_s)),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut spans = Spans::new(origin);
        let root = spans.add("a.root", None, at(0), at(100));
        // Two overlapping children cover 10..50 (40 ms) of the root.
        spans.add("b.child", Some(root), at(10), at(40));
        spans.add("b.child", Some(root), at(30), at(50));
        let summary = spans.summary();
        let root_row = summary.iter().find(|r| r.0 == "a.root").unwrap();
        assert!((root_row.3 - 0.060).abs() < 1e-9, "{root_row:?}");
        let child_row = summary.iter().find(|r| r.0 == "b.child").unwrap();
        assert_eq!(child_row.1, 2);
        assert!((child_row.2 - 0.050).abs() < 1e-9);
    }
}
