//! Phase timers (a lap count and a nanosecond sum per phase) and the
//! hand-rolled log2-bucket histogram the metrics registry keeps.
//!
//! The build environment is offline, so there is no external histogram
//! crate; [`Log2Histogram`] is 65 fixed buckets (`[u64; 65]`) plus
//! count/sum/min/max.

use std::time::Instant;

/// Number of distinct [`Phase`] values (length of [`Phase::ALL`]).
pub const PHASES: usize = 6;

/// A timed slice of one simulation round.
///
/// Unsharded rounds (the COBRA and random-walk kernels) lap all three
/// of [`Draw`](Phase::Draw), [`Gather`](Phase::Gather) and
/// [`Coalesce`](Phase::Coalesce) every round. `Draw` times the single
/// pass that samples, resolves and lands every pick; `Gather` follows
/// it at once, so it holds only clock overhead (kept so every traced
/// round reports the same three phases); `Coalesce` times the
/// fold of the round's marks into the visited set and the frontier
/// swap. Sharded rounds split into [`ShardGather`](Phase::ShardGather)
/// (shard-local draw+route), [`Exchange`](Phase::Exchange) (the outbox
/// barrier), and [`Commit`](Phase::Commit) (inbox drain + commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Unsharded: the pass that samples, resolves and lands every pick.
    Draw,
    /// Unsharded: clock overhead only (resolving is part of the pass).
    Gather,
    /// Unsharded: fold the round's marks and commit the next frontier.
    Coalesce,
    /// Sharded: shard-local draw + route into outboxes.
    ShardGather,
    /// Sharded: the cross-shard outbox/inbox barrier.
    Exchange,
    /// Sharded: drain inboxes and commit per-shard state.
    Commit,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Draw,
        Phase::Gather,
        Phase::Coalesce,
        Phase::ShardGather,
        Phase::Exchange,
        Phase::Commit,
    ];

    /// Stable key of the phase's nanosecond field in traces and metric
    /// names (`draw_ns`, …).
    pub fn ns_key(self) -> &'static str {
        match self {
            Phase::Draw => "draw_ns",
            Phase::Gather => "gather_ns",
            Phase::Coalesce => "coalesce_ns",
            Phase::ShardGather => "shard_gather_ns",
            Phase::Exchange => "exchange_ns",
            Phase::Commit => "commit_ns",
        }
    }
}

/// Fixed-size log2-bucket histogram for `u64` samples.
///
/// Bucket 0 counts zero samples; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)`. Recording is a branch-free `leading_zeros` plus
/// one increment — cheap enough for per-phase, per-round use.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `value`: 0 for zero, else `64 − leading_zeros`.
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Lower bound of the bucket holding the `q`-quantile sample,
    /// clamped to the recorded `[min, max]` (`q` clamped to `[0, 1]`; 0
    /// when empty). A bucketed approximation: exact to within one power
    /// of two, and never outside the observed range.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                return lower.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Lap count and nanosecond sum per [`Phase`].
///
/// `Clone` + `Debug` because it travels inside `StepCtx` (which derives
/// both); a boxed `Option` there keeps the uninstrumented context small.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    laps: [u64; PHASES],
    nanos: [u64; PHASES],
}

impl PhaseTimers {
    /// Empty timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one lap of `phase`, in nanoseconds.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let i = phase as usize;
        self.laps[i] += 1;
        self.nanos[i] = self.nanos[i].saturating_add(nanos);
    }

    /// Laps recorded for one phase.
    pub fn laps(&self, phase: Phase) -> u64 {
        self.laps[phase as usize]
    }

    /// Total recorded nanoseconds per phase, indexed like [`Phase::ALL`].
    pub fn sums(&self) -> [u64; PHASES] {
        self.nanos
    }

    /// True if no phase has any laps.
    pub fn is_empty(&self) -> bool {
        self.laps.iter().all(|&n| n == 0)
    }

    /// Fold another set of timers into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        for i in 0..PHASES {
            self.laps[i] += other.laps[i];
            self.nanos[i] = self.nanos[i].saturating_add(other.nanos[i]);
        }
    }
}

/// Stopwatch that laps consecutive phases into a [`PhaseTimers`].
///
/// `start` stamps the clock; each `lap(phase)` charges the time since
/// the previous lap (or start) to `phase`. Kernels hold one clock per
/// round, only when timing is enabled, so the untimed path never calls
/// [`Instant::now`].
pub struct PhaseClock<'a> {
    timers: &'a mut PhaseTimers,
    last: Instant,
}

impl<'a> PhaseClock<'a> {
    /// Start the clock now.
    pub fn start(timers: &'a mut PhaseTimers) -> Self {
        PhaseClock {
            timers,
            last: Instant::now(),
        }
    }

    /// Charge the time since the previous lap to `phase`.
    pub fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let nanos = now.duration_since(self.last).as_nanos() as u64;
        self.timers.record(phase, nanos);
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // The k-th sample's bucket, read back as a quantile of rank k:
        // 0 | 1 | [2,4) ×2 | [4,8) ×2 | [8,16) | [512,1024) | [1024,2048) | top
        let buckets: Vec<u64> = (1..=10u32)
            .map(|k| h.approx_quantile(f64::from(2 * k - 1) / 20.0))
            .collect();
        assert_eq!(buckets, vec![0, 1, 2, 2, 4, 4, 8, 512, 1024, 1u64 << 63]);
    }

    #[test]
    fn quantiles_and_merge() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in 1..=64u64 {
            a.record(v);
        }
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 65);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.approx_quantile(1.0), 512);
        assert!(a.approx_quantile(0.5) <= 64);
        let empty = Log2Histogram::new();
        assert_eq!(empty.approx_quantile(0.5), 0);
        assert_eq!(empty.mean(), 0);
    }

    #[test]
    fn quantiles_never_fall_below_the_minimum() {
        // Every sample sits in the [4194304, 8388608) bucket, whose lower
        // bound is below the smallest sample.
        let mut h = Log2Histogram::new();
        for v in [6_362_926u64, 6_500_000, 7_000_000] {
            h.record(v);
        }
        assert_eq!(h.approx_quantile(0.5), 6_362_926);
        assert_eq!(h.approx_quantile(0.0), h.min());
        assert!(h.approx_quantile(0.99) <= h.max());
    }

    #[test]
    fn phase_timers_record_and_sum() {
        let mut t = PhaseTimers::new();
        assert!(t.is_empty());
        t.record(Phase::Draw, 100);
        t.record(Phase::Draw, 50);
        t.record(Phase::Commit, 7);
        assert_eq!(t.laps(Phase::Draw), 2);
        let sums = t.sums();
        assert_eq!(sums[0], 150);
        assert_eq!(sums[5], 7);
        let mut u = PhaseTimers::new();
        u.merge(&t);
        assert_eq!(u.sums(), t.sums());
    }

    #[test]
    fn phase_clock_laps_into_named_phases() {
        let mut t = PhaseTimers::new();
        let mut clock = PhaseClock::start(&mut t);
        clock.lap(Phase::ShardGather);
        clock.lap(Phase::Exchange);
        clock.lap(Phase::Commit);
        for p in [Phase::ShardGather, Phase::Exchange, Phase::Commit] {
            assert_eq!(t.laps(p), 1, "phase {} missing", p.ns_key());
        }
        assert_eq!(t.laps(Phase::Draw), 0);
    }
}
