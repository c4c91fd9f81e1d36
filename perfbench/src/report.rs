//! What one run reports: operation and gate tallies, named metrics with
//! units, and the result line the benchmark prints last.

use cobra_util::Json;

/// Tallies and metrics of one run.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: entry-point calls, campaigns, and gates.
    pub attempted: u64,
    /// Operations that failed (errors, failed gates, bad responses).
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub reasons: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    /// Counts one operation or gate; a failure records `reason`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(reason());
        }
        ok
    }

    /// Records a metric (later values of the same name replace earlier
    /// ones).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The metric recorded under `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.clone(),
                    Json::Object(vec![
                        ("value".to_string(), Json::Float(value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Int(self.attempted.max(1) as i128),
            ),
            (
                "failed".to_string(),
                Json::Int(if self.attempted == 0 { 1 } else { self.failed } as i128),
            ),
            ("metrics".to_string(), Json::Object(metrics)),
        ])
    }
}

/// Quantile `q` of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when the
/// platform has no `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tracks how fast the host runs right now, with a fixed reference loop
/// of the benchmark's own: dependent random read-modify-writes over a
/// 4 MiB table plus a multiply chain, about 5 ms.
///
/// On a host shared with other tenants, the speed of the same code
/// drifts by up to 30% over tens of seconds. Timing the reference loop
/// just before each measured interval and scaling the interval by
/// `NOMINAL_S / reference` cancels that drift: the result reads as
/// time at the reference loop's nominal speed. No repository code runs
/// in the loop, so a change to the repository moves the scaled times
/// exactly as it moves the raw ones.
pub struct Speed {
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl Speed {
    /// Reference-loop seconds the scaled times are expressed at.
    const NOMINAL_S: f64 = 0.005;

    pub fn new() -> Speed {
        Speed {
            table: (0..1u32 << 20).collect(),
            samples: Vec::new(),
        }
    }

    /// Times the reference loop and returns the factor that scales a
    /// raw interval measured right after it to nominal speed.
    pub fn factor(&mut self) -> f64 {
        let started = std::time::Instant::now();
        let n = self.table.len();
        let (mut x, mut acc) = (0x9E37_79B9u32, 0u64);
        for _ in 0..1 << 18 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let i = (x as usize ^ self.table[x as usize % n] as usize) % n;
            self.table[i] = self.table[i].wrapping_add(x);
            for _ in 0..8 {
                acc = acc
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(u64::from(x | 1));
            }
        }
        std::hint::black_box(acc);
        let seconds = started.elapsed().as_secs_f64();
        self.samples.push(seconds);
        Self::NOMINAL_S / seconds
    }

    /// Median reference-loop milliseconds so far, for the log.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples) * 1e3
    }
}

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// depend on `--seed` alone and never on a library RNG.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failed_gates_fail_the_run() {
        let mut run = Run::default();
        assert!(run.check(true, String::new));
        assert!(run.correct());
        assert!(!run.check(false, || "boom".into()));
        assert!(!run.correct());
        assert_eq!(run.reasons, vec!["boom".to_string()]);
    }
}
