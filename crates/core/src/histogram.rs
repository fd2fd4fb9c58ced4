//! Log-scaled histograms for cycle and latency distributions.
//!
//! Cycle counts span several orders of magnitude (a cache hit to a domain
//! recovery), so linear buckets are useless. [`LogHistogram`] buckets by
//! power of two with a configurable number of linear sub-buckets per
//! octave, HDR-histogram style: constant relative error, O(1) insert,
//! fixed memory.

/// A base-2 logarithmic histogram of `u64` values.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Linear sub-buckets per power-of-two octave (precision knob).
    sub_buckets: u32,
    /// counts[octave * sub_buckets + sub] = number of samples.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
    /// Sum of squared samples, kept so per-worker histograms can be
    /// merged and still yield an exact aggregate standard deviation.
    sum_sq: u128,
}

const OCTAVES: u32 = 64;

impl LogHistogram {
    /// Creates an empty histogram with `sub_buckets` linear sub-buckets per
    /// octave.
    ///
    /// # Panics
    ///
    /// Panics if `sub_buckets` is 0 or not a power of two (the bucket
    /// index computation relies on it).
    pub fn new(sub_buckets: u32) -> Self {
        assert!(
            sub_buckets.is_power_of_two(),
            "sub_buckets must be a power of two, got {sub_buckets}"
        );
        Self {
            sub_buckets,
            counts: vec![0; (OCTAVES * sub_buckets) as usize],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
            sum_sq: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
        self.sum_sq += (value as u128) * (value as u128);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`), or `None` if the histogram is empty.
    ///
    /// The answer has the relative error of the bucket width
    /// (≤ 1/`sub_buckets` of the value).
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.total == 0 {
            return None;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different `sub_buckets` settings.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.sub_buckets, other.sub_buckets,
            "cannot merge histograms with different precision"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Sample standard deviation (Bessel-corrected), or `None` with
    /// fewer than two samples.
    ///
    /// Derived from the running `sum` / `sum_sq` moments, so it stays
    /// exact across [`LogHistogram::merge`] — unlike the percentiles,
    /// which carry bucket-width error.
    pub fn stddev(&self) -> Option<f64> {
        if self.total < 2 {
            return None;
        }
        let n = self.total as f64;
        let mean = self.sum as f64 / n;
        // E[x^2] - mean^2, scaled by n/(n-1); clamp tiny negative noise.
        let var = ((self.sum_sq as f64 / n) - mean * mean).max(0.0) * n / (n - 1.0);
        Some(var.sqrt())
    }

    /// Reduces the histogram to a [`crate::stats::Summary`], or `None`
    /// if empty.
    ///
    /// `count`, `mean`, `min`, `max` and `stddev` are exact (running
    /// moments); the percentiles come from [`Self::value_at_quantile`]
    /// and carry its bucket-width relative error. This is the reduction
    /// step for sharded runtimes: each worker records into its own
    /// histogram, the supervisor merges them, and one call yields the
    /// fleet-wide latency summary.
    pub fn summary(&self) -> Option<crate::stats::Summary> {
        if self.total == 0 {
            return None;
        }
        let q = |q: f64| self.value_at_quantile(q).expect("non-empty") as f64;
        Some(crate::stats::Summary {
            count: self.total as usize,
            mean: self.mean().expect("non-empty"),
            stddev: self.stddev().unwrap_or(0.0),
            min: self.min as f64,
            p25: q(0.25),
            p50: q(0.50),
            p75: q(0.75),
            p99: q(0.99),
            max: self.max as f64,
        })
    }

    /// Iterates over non-empty buckets as `(lower_bound, upper_bound, count)`.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(idx, &c)| {
                (
                    self.bucket_lower_bound(idx),
                    self.bucket_upper_bound(idx),
                    c,
                )
            })
    }

    fn bucket_index(&self, value: u64) -> usize {
        let sb = self.sub_buckets;
        // Values below `sub_buckets` index linearly into octave zero region.
        if value < sb as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // position of the top set bit
        let shift = msb - sb.trailing_zeros(); // keep log2(sb) bits below the msb
        let octave = shift + 1;
        let sub = (value >> shift) as u32 - sb; // 0..sb within the octave
        (octave * sb + sub) as usize
    }

    fn bucket_lower_bound(&self, idx: usize) -> u64 {
        let sb = self.sub_buckets as u64;
        let octave = idx as u64 / sb;
        let sub = idx as u64 % sb;
        if octave == 0 {
            sub
        } else {
            (sb + sub) << (octave - 1)
        }
    }

    fn bucket_upper_bound(&self, idx: usize) -> u64 {
        let sb = self.sub_buckets as u64;
        let octave = idx as u64 / sb;
        if octave == 0 {
            self.bucket_lower_bound(idx)
        } else {
            // Compute `lower + width - 1` without overflowing at the top
            // bucket, where `lower + width` is exactly 2^64.
            self.bucket_lower_bound(idx) + ((1u64 << (octave - 1)) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new(16);
        assert_eq!(h.count(), 0);
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.mean().is_none());
        assert!(h.value_at_quantile(0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_precision() {
        LogHistogram::new(3);
    }

    #[test]
    fn exact_below_sub_buckets() {
        let mut h = LogHistogram::new(16);
        for v in 0..16u64 {
            h.record(v);
        }
        // Each small value lands in its own exact bucket.
        let buckets: Vec<_> = h.nonempty_buckets().collect();
        assert_eq!(buckets.len(), 16);
        for (i, (lo, hi, c)) in buckets.iter().enumerate() {
            assert_eq!(*lo, i as u64);
            assert_eq!(*hi, i as u64);
            assert_eq!(*c, 1);
        }
    }

    #[test]
    fn bucket_bounds_contain_value() {
        let h = LogHistogram::new(8);
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            100,
            1023,
            1024,
            1025,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = h.bucket_index(v);
            let lo = h.bucket_lower_bound(idx);
            let hi = h.bucket_upper_bound(idx);
            assert!(lo <= v && v <= hi, "value {v} not in [{lo},{hi}]");
        }
    }

    #[test]
    fn relative_error_bound() {
        let h = LogHistogram::new(32);
        for v in (1u64..100_000).step_by(37) {
            let idx = h.bucket_index(v);
            let lo = h.bucket_lower_bound(idx);
            let hi = h.bucket_upper_bound(idx);
            let width = hi - lo;
            assert!(
                width as f64 <= v as f64 / 16.0 + 1.0,
                "bucket too wide at {v}: {width}"
            );
        }
    }

    #[test]
    fn quantiles_ordered() {
        let mut h = LogHistogram::new(16);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p10 = h.value_at_quantile(0.10).unwrap();
        let p50 = h.value_at_quantile(0.50).unwrap();
        let p99 = h.value_at_quantile(0.99).unwrap();
        assert!(p10 <= p50 && p50 <= p99);
        // Within bucket error of the true values.
        assert!((90..=115).contains(&p10), "{p10}");
        assert!((480..=540).contains(&p50), "{p50}");
        assert!((950..=1000).contains(&p99), "{p99}");
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new(16);
        let mut b = LogHistogram::new(16);
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.mean(), Some(505.0));
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mismatched_precision() {
        let mut a = LogHistogram::new(16);
        let b = LogHistogram::new(8);
        a.merge(&b);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new(4);
        h.record(1);
        h.record(2);
        h.record(3);
        assert_eq!(h.mean(), Some(2.0));
    }

    #[test]
    fn stddev_matches_summary_of() {
        let samples = [1u64, 2, 3, 4, 5];
        let mut h = LogHistogram::new(16);
        for &s in &samples {
            h.record(s);
        }
        let direct = crate::stats::Summary::of(&samples.map(|s| s as f64)).unwrap();
        assert!((h.stddev().unwrap() - direct.stddev).abs() < 1e-9);

        let mut single = LogHistogram::new(16);
        single.record(7);
        assert!(single.stddev().is_none());
    }

    #[test]
    fn merged_shards_summarize_like_one_histogram() {
        // Simulate 4 workers each recording a disjoint slice of the same
        // sample stream, then merge — the moments must match a single
        // histogram that saw everything.
        let mut whole = LogHistogram::new(32);
        let mut shards: Vec<LogHistogram> = (0..4).map(|_| LogHistogram::new(32)).collect();
        for v in 1..=4000u64 {
            whole.record(v);
            shards[(v % 4) as usize].record(v);
        }
        let mut merged = LogHistogram::new(32);
        for s in &shards {
            merged.merge(s);
        }

        let a = whole.summary().unwrap();
        let b = merged.summary().unwrap();
        assert_eq!(a.count, b.count);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert!((a.stddev - b.stddev).abs() < 1e-9);
        // Percentiles are bucketed identically, so they agree exactly.
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(LogHistogram::new(8).summary().is_none());
    }
}
