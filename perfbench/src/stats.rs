//! Order statistics used by every report: medians, quartiles, and the tail
//! rule (a timing is reported as its p50 plus the highest percentile that
//! still has at least ten samples beyond it).

/// Percentile levels the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linearly interpolated quantile `q ∈ [0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance check
/// of run-to-run spread uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let n = s.len();
    let m = n + 1;
    // Python's integer-position form: j = i·m // 4 clamped to [1, n-1],
    // then a weighted mix of neighbours whose weight may leave [0, 4] —
    // the method extrapolates past the data for tiny samples.
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (the spread the benchmark's
/// bounds are checked against).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// A timing distribution reduced by the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The value at [`tail_percentile`] of `n`; the maximum when no ladder
    /// level qualifies.
    pub tail: f64,
}

/// The ladder percentile the tail rule picks for `n` samples, or `None`
/// when even p90 would have fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
}

/// Summarizes a non-empty sample by the tail rule.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let tail = match tail_percentile(s.len()) {
        Some(p) => quantile_sorted(&s, p / 100.0),
        None => *s.last().expect("non-empty sample"),
    };
    Summary {
        n: s.len(),
        p50: quantile_sorted(&s, 0.5),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [100usize, 150, 200, 999, 1_000, 5_000, 10_000, 123_456] {
            let p = tail_percentile(n).expect("ladder level");
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(beyond >= 9.999, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn summary_falls_back_to_max_on_small_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail, 3.0);
    }

    #[test]
    fn summary_tail_on_uniform_ramp() {
        let v: Vec<f64> = (0..1_000).map(f64::from).collect();
        let s = summarize(&v);
        assert!((s.tail - 989.01).abs() < 1e-9, "{}", s.tail);
        assert!((s.p50 - 499.5).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates past the data for tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        let flat = [4.0; 7];
        assert_eq!(iqr_share(&flat), 0.0);
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
