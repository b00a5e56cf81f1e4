//! Order statistics for the benchmark report.
//!
//! Timings are reported as a median and as the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so the tail
//! figure is always backed by enough observations to repeat.

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (all values are finite timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The tail figure of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the reported percentile.
    pub value: f64,
    /// The percentile reported, in `(0, 100]`.
    pub percentile: f64,
    /// Samples strictly beyond `value` in rank order.
    pub beyond: usize,
}

/// Highest percentile ever reported as the tail: beyond p99 a closed
/// loop on two cores reports the scheduler, not the program.
pub const TAIL_MAX_PERCENTILE: f64 = 99.0;

/// The highest percentile, up to [`TAIL_MAX_PERCENTILE`], with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it: the sample at 0-based rank
/// `n - 11` of `n`, or the p99 rank if that is lower. With fewer than 11
/// samples no percentile qualifies and the maximum is reported with
/// `beyond == 0`, so the report shows the figure is unsupported.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    if n <= TAIL_MIN_BEYOND {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            beyond: 0,
        };
    }
    let p99_rank = (TAIL_MAX_PERCENTILE / 100.0 * n as f64).ceil() as usize - 1;
    let rank = (n - 1 - TAIL_MIN_BEYOND).min(p99_rank);
    Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: n - 1 - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn every_fifth_sample_slow_lands_the_tail_in_the_slow_cluster() {
        // ingest_restart's measured phase: every fifth of its 350 durable
        // appends waits for a restart first.
        let v: Vec<f64> = (0..350)
            .map(|i| {
                if i % 5 == 0 {
                    100.0 + f64::from(i)
                } else {
                    10.0
                }
            })
            .collect();
        let t = tail(&v);
        assert!(
            t.value >= 100.0,
            "tail {t:?} is not a restart-bearing append"
        );
        assert_eq!(t.beyond, 10);
        assert_eq!(median(&v), 10.0);
    }

    #[test]
    fn many_samples_stop_at_p99() {
        let v: Vec<f64> = (1..=9000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile, t.beyond), (8910.0, 99.0, 90));
    }

    #[test]
    fn fewer_than_eleven_samples_report_the_maximum_unsupported() {
        let t = tail(&[3.0, 9.0, 1.0]);
        assert_eq!((t.value, t.percentile, t.beyond), (9.0, 100.0, 0));
    }
}
