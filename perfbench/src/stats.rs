//! Latency percentiles, medians and completion-gap (outage) arithmetic.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer would make the value one or two outliers.
const MIN_BEYOND: usize = 10;

/// A sorted set of latency samples.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of the samples and sorts them.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`-quantile (`0 < p < 1`), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie above its rank.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 1.0, "percentile {p} out of range");
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).max(1);
        if n < rank + MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }
}

/// Median of unsorted values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the values between the first and the third quartile: the
/// lowest and the highest quarter are dropped.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// For each fault injected at `injections[k]` (seconds, ascending), the
/// longest stretch without a completion between the injection and the next
/// injection (or `end`).  The injection itself opens the first stretch, so
/// time to the first completion after a fault counts.  `completions` are
/// completion times in seconds, ascending.
pub fn longest_gaps(completions: &[f64], injections: &[f64], end: f64) -> Vec<f64> {
    injections
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let stop = injections.get(k + 1).copied().unwrap_or(end);
            let mut prev = start;
            let mut longest = 0.0f64;
            for &t in completions.iter().filter(|&&t| t > start && t <= stop) {
                longest = longest.max(t - prev);
                prev = t;
            }
            longest.max(stop - prev)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.len(), 1000);
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        let short = Samples::new((1..=999).map(f64::from).collect());
        assert_eq!(short.percentile(0.99), None);
        assert_eq!(short.percentile(0.95), Some(950.0));
        assert_eq!(Samples::new(vec![1.0; 19]).percentile(0.5), None);
        assert_eq!(Samples::new(Vec::new()).percentile(0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        let values = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&values), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn outage_is_the_longest_gap_after_each_fault() {
        let completions = [0.1, 0.2, 1.0, 1.1, 1.2, 3.0, 3.1, 5.0];
        let gaps = longest_gaps(&completions, &[0.5, 2.5], 4.0);
        // Fault at 0.5: next completion at 1.0, then 1.1, 1.2, quiet to 2.5.
        assert!((gaps[0] - 1.3).abs() < 1e-9, "{gaps:?}");
        // Fault at 2.5: 0.5 to the first completion, then 0.9 to the end.
        assert!((gaps[1] - 0.9).abs() < 1e-9, "{gaps:?}");
        // No completion at all after the fault: the whole window is a gap.
        assert_eq!(longest_gaps(&[0.1], &[1.0], 2.0), vec![1.0]);
        assert!(longest_gaps(&completions, &[], 4.0).is_empty());
    }
}
