//! In-memory metrics registry: named counters, gauges, and histograms.
//!
//! A [`MetricsRegistry`] is a plain `BTreeMap`-backed accumulator the
//! CLI fills during a run and dumps once at the end (`--metrics`). It
//! is deliberately not global and not thread-shared — callers own one
//! and merge into it, which keeps the measurement path free of atomics.
//!
//! Long-running multi-threaded owners (the `cobra-serve` daemon, whose
//! HTTP handlers and workers record concurrently and whose
//! `GET /metrics` endpoint reads while they do) wrap one in a
//! [`SharedRegistry`] — a mutex around the same registry, paying for
//! synchronization only where a service actually needs it.

use crate::timer::Log2Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Named counters, gauges, and log2-bucket histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero).
    pub fn counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Log2Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Current value of counter `name`, if set.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of gauge `name`, if set.
    fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable multi-line dump, sorted by metric name.
    ///
    /// Counters render as `name = value`, gauges as `name = value`,
    /// histograms as count/min/p50/p99/max/mean (bucketed
    /// approximations, exact to a power of two).
    pub fn render(&self) -> String {
        let mut out = String::from("metrics:\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  counter {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  gauge   {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  hist    {name}: count={} min={} p50~{} p99~{} max={} mean={}",
                h.count(),
                h.min(),
                h.approx_quantile(0.5),
                h.approx_quantile(0.99),
                h.max(),
                h.mean(),
            );
        }
        out
    }
}

/// A cloneable, thread-safe handle over one [`MetricsRegistry`] — what
/// the `cobra-serve` daemon hands to its HTTP handlers and queue
/// workers so counters (`serve.dedup.hits`), gauges (`queue.depth`),
/// and per-endpoint latency histograms land in one place that
/// `GET /metrics` can render at any moment.
///
/// Single-run CLI paths should keep using a plain [`MetricsRegistry`];
/// this wrapper exists only where concurrent recording is real.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl SharedRegistry {
    /// A fresh shared registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero).
    pub fn counter(&self, name: &str, delta: u64) {
        self.with(|m| m.counter(name, delta));
    }

    /// Set gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.with(|m| m.gauge(name, value));
    }

    /// Record one observation into histogram `name` (created empty).
    pub fn observe(&self, name: &str, value: u64) {
        self.with(|m| m.histogram(name).record(value));
    }

    /// Current value of counter `name`, if set.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.with(|m| m.counter_value(name))
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.with(|m| m.gauge_value(name))
    }

    /// Human-readable dump (same format as [`MetricsRegistry::render`]).
    pub fn render(&self) -> String {
        self.with(|m| m.render())
    }

    /// Runs `f` with the registry locked — for batch recording or
    /// snapshot reads beyond the single-metric helpers.
    pub fn with<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        f(&mut self.inner.lock().expect("metrics registry poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_render_sorted() {
        let mut m = MetricsRegistry::new();
        m.counter("b.count", 2);
        m.counter("b.count", 3);
        m.gauge("a.bytes", 12.5);
        m.histogram("lat").record(100);
        assert_eq!(m.counter_value("b.count"), Some(5));
        assert_eq!(m.gauge_value("a.bytes"), Some(12.5));
        assert!(!m.is_empty());
        let text = m.render();
        assert!(text.contains("counter b.count = 5"), "{text}");
        assert!(text.contains("gauge   a.bytes = 12.5"), "{text}");
        assert!(text.contains("hist    lat: count=1"), "{text}");
    }

    #[test]
    fn shared_registry_accumulates_across_threads() {
        let shared = SharedRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = shared.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        handle.counter("serve.points.computed", 1);
                        handle.observe("http.latency_ns", 1000 + i);
                    }
                    handle.gauge("queue.depth", 3.0);
                });
            }
        });
        assert_eq!(shared.counter_value("serve.points.computed"), Some(400));
        assert_eq!(shared.gauge_value("queue.depth"), Some(3.0));
        let text = shared.render();
        assert!(
            text.contains("hist    http.latency_ns: count=400"),
            "{text}"
        );
    }
}
