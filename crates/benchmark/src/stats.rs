//! Reductions the runner applies to repeated windows and latency samples.

use rbs_core::histogram::LogHistogram;

use crate::metrics::Better;

/// Median and quartiles of repeated measurements of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Samples reduced.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Reduces `samples`; quartiles use the exclusive method (the one
    /// Python's `statistics.quantiles(v, n=4)` defaults to), so the
    /// spread printed here is the spread a reviewer recomputes.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample set: a window that
    /// produced no number is a harness bug, not a value.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "no samples to reduce");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = v.len();
        if n == 1 {
            return Spread {
                n,
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Spread {
            n,
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// The quartile on the side `better` points to: the value the
    /// quietest quarter of the windows reached or beat. What else runs on
    /// the host can only slow a window down, never speed it up, so this
    /// quartile sits closer to the program's own cost than the median
    /// does and moves less when a neighbour wakes up (measured: see
    /// *Run-to-run spread* in the README). A change has to move three
    /// quarters of the windows to move it.
    pub fn quiet_quartile(&self, better: Better) -> f64 {
        match better {
            Better::Higher => self.q3,
            Better::Lower => self.q1,
        }
    }
}

/// `num ÷ den` of two counters; 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Percentiles a latency report may quote, ascending, each with the
/// samples per 10 000 that lie beyond it (integers: the rule below must
/// not depend on how `1.0 - 0.9` rounds).
const TAIL_PERCENTILES: [(f64, u64); 5] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at
/// least ten of `n` samples beyond it — quoting a higher one would
/// report a handful of outliers as a distribution.
pub fn supported_percentile(n: u64) -> f64 {
    TAIL_PERCENTILES
        .iter()
        .filter(|(_, beyond)| n.saturating_mul(*beyond) >= 10 * 10_000)
        .map(|(p, _)| *p)
        .fold(TAIL_PERCENTILES[0].0, f64::max)
}

/// The tail percentile a window of `n` samples reports under the name
/// `p99`: 99 when the sample supports it, else the highest it does.
pub fn tail_percentile(n: u64) -> f64 {
    supported_percentile(n).min(99.0)
}

/// Linear-interpolated percentile (`pct` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    rbs_core::stats::percentile_of_sorted(&v, pct)
}

/// The `pct` percentile of a log histogram, interpolated linearly inside
/// the bucket that holds it. The histogram's own quantile returns bucket
/// upper bounds (3 % steps at the engines' precision), which would turn
/// a drifting latency into a staircase.
pub fn hist_percentile(hist: &LogHistogram, pct: f64) -> Option<f64> {
    let total = hist.count();
    if total == 0 {
        return None;
    }
    let target = pct / 100.0 * total as f64;
    let mut seen = 0.0;
    for (lo, hi, count) in hist.nonempty_buckets() {
        let c = count as f64;
        if seen + c >= target {
            let inside = ((target - seen) / c).clamp(0.0, 1.0);
            let lo = (lo as f64).max(hist.min()? as f64);
            let hi = (hi as f64 + 1.0).min(hist.max()? as f64);
            return Some(lo + (hi - lo).max(0.0) * inside);
        }
        seen += c;
    }
    hist.max().map(|m| m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Spread::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let one = Spread::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn quiet_quartile_is_the_one_on_the_better_side() {
        // Eleven quiet windows and one a neighbour slowed down.
        let mut latency = vec![5.0; 11];
        latency.push(9.0);
        let s = Spread::of(&latency);
        assert_eq!(s.quiet_quartile(Better::Lower), 5.0);
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.quiet_quartile(Better::Lower), 1.5);
        assert_eq!(s.quiet_quartile(Better::Higher), 4.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(5), 50.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(99), 50.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1_000), 99.0);
        assert_eq!(supported_percentile(4_000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(100_000), 99.99);
        // The metric named p99 never quotes beyond 99.
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(500), 90.0);
    }

    #[test]
    fn histogram_percentile_interpolates_inside_a_bucket() {
        let mut h = LogHistogram::new(32);
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        let p50 = hist_percentile(&h, 50.0).unwrap();
        assert!((p50 - 1_500.0).abs() < 8.0, "p50 = {p50}");
        let p99 = hist_percentile(&h, 99.0).unwrap();
        assert!((p99 - 1_990.0).abs() < 8.0, "p99 = {p99}");
        assert!(hist_percentile(&LogHistogram::new(32), 50.0).is_none());
    }
}
