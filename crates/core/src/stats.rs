//! Summary statistics for cycle samples.
//!
//! Experiment harnesses collect raw per-iteration cycle counts and reduce
//! them here. The paper reports averages ("the recovery took 4389 cycles on
//! average"); we additionally keep percentiles because cycle distributions
//! on a multi-tasking host are long-tailed and the median is usually the
//! honest point estimate.

/// Summary of a set of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected); 0 for a single sample.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `samples`.
    ///
    /// Returns `None` when `samples` is empty or contains a non-finite
    /// value — a non-finite cycle count always indicates a harness bug and
    /// must not be silently averaged away.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|s| !s.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            count,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            p25: percentile_of_sorted(&sorted, 25.0),
            p50: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max: sorted[count - 1],
        })
    }

    /// Computes a summary after dropping the top `trim_fraction` of samples.
    ///
    /// Useful for cycle measurements where the far tail is scheduler noise
    /// (timer interrupts, preemption) unrelated to the measured code.
    /// `trim_fraction` must lie in `[0, 0.5)`.
    pub fn of_trimmed(samples: &[f64], trim_fraction: f64) -> Option<Summary> {
        assert!(
            (0.0..0.5).contains(&trim_fraction),
            "trim fraction {trim_fraction} outside [0, 0.5)"
        );
        if samples.is_empty() || samples.iter().any(|s| !s.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let keep = ((sorted.len() as f64) * (1.0 - trim_fraction)).ceil() as usize;
        let keep = keep.max(1);
        Summary::of(&sorted[..keep])
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn non_finite_is_none() {
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p50, 7.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        // Sample stddev of 1..5 is sqrt(2.5).
        assert!((s.stddev - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_of_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 10.0);
    }

    #[test]
    fn trim_drops_tail() {
        let mut v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        v.push(1_000_000.0);
        let untrimmed = Summary::of(&v).unwrap();
        let trimmed = Summary::of_trimmed(&v, 0.02).unwrap();
        assert!(trimmed.max < untrimmed.max);
        assert!(trimmed.mean < untrimmed.mean);
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trim_rejects_half() {
        Summary::of_trimmed(&[1.0], 0.5).unwrap();
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
    }
}
