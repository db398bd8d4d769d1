//! Order statistics for timing samples: the median and the tail rule.
//!
//! The tail of a sample set is the highest percentile that still has at
//! least [`TAIL_BEYOND`] samples beyond it. With `n` samples sorted
//! ascending and nearest-rank percentiles, the value at percentile `p` is
//! the sample of rank `ceil(p·n)`; at least ten samples lie strictly above
//! it exactly when `p ≤ (n − 10)/n`. So the tail is the sample with ten
//! samples above it, reported at percentile `100·(n − 10)/n`. Fewer than
//! `TAIL_BEYOND + 1` samples have no tail.

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A timing summary: median, tail and the sample count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// The tail value and its percentile, if there are enough samples.
    pub tail: Option<Tail>,
}

/// The tail of a sample set: see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `[0, 100)`.
    pub percentile: f64,
    /// Sample value at that percentile.
    pub value: f64,
}

/// Median of `samples`; `None` when empty. Sorts in place.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// The tail of `samples` (see the [module docs](self)); `None` with fewer
/// than `TAIL_BEYOND + 1` samples. Sorts in place.
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: samples[n - TAIL_BEYOND - 1],
    })
}

/// Median and tail of `samples`; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    let median = median(&mut sorted)?;
    Some(Summary {
        n: sorted.len(),
        median,
        tail: tail(&mut sorted),
    })
}

/// `num / den`, or 0 when the base is empty — for ratios whose base can
/// legitimately be zero on an idle layer (no exchanges, no periods).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&mut ten), None);
        assert_eq!(tail(&mut []), None);
        let s = summarize(&ten).expect("non-empty");
        assert_eq!((s.n, s.median, s.tail), (10, 5.5, None));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // Eleven samples: the minimum, with all ten others above it.
        let mut eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&mut eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        // A hundred samples: p90, the 90th value, ten above it.
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&mut hundred).expect("tail");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);

        // A thousand samples: p99.
        let mut thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&mut thousand).expect("tail");
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
    }

    #[test]
    fn ratio_of_an_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
