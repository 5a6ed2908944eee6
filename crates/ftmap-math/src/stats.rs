//! Small statistics helpers used by the benchmark harness and the profiling reports.
//!
//! The paper's evaluation reports per-step runtimes, percentage breakdowns (Fig. 2/3)
//! and speedup ratios (Tables 1/2). [`RunningStats`] accumulates timing samples online;
//! [`percent_breakdown`] and [`speedup`] convert them into the numbers the report
//! binary prints next to the paper's values.

use crate::Real;

/// Online mean / variance / min / max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: Real,
    m2: Real,
    min: Real,
    max: Real,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: Real::INFINITY, max: Real::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: Real) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as Real;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds many samples.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = Real>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> Real {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> Real {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as Real
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Real {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` if empty).
    pub fn min(&self) -> Real {
        self.min
    }

    /// Largest sample (`-inf` if empty).
    pub fn max(&self) -> Real {
        self.max
    }

    /// Total of all samples.
    pub fn sum(&self) -> Real {
        self.mean() * self.count as Real
    }
}

/// Converts a list of `(label, value)` pairs into `(label, percent-of-total)` pairs.
///
/// Used to regenerate the Fig. 2 / Fig. 3 pie-chart style breakdowns. Values must be
/// non-negative; an all-zero input yields all-zero percentages.
pub fn percent_breakdown<L: Clone>(parts: &[(L, Real)]) -> Vec<(L, Real)> {
    let total: Real = parts.iter().map(|(_, v)| *v).sum();
    parts
        .iter()
        .map(|(l, v)| {
            let pct = if total > 0.0 { 100.0 * v / total } else { 0.0 };
            (l.clone(), pct)
        })
        .collect()
}

/// Speedup of `accelerated` relative to `baseline` (baseline / accelerated).
/// Returns `+inf` when the accelerated time is zero and `0` when the baseline is zero.
pub fn speedup(baseline: Real, accelerated: Real) -> Real {
    if accelerated <= 0.0 {
        if baseline <= 0.0 {
            0.0
        } else {
            Real::INFINITY
        }
    } else {
        baseline / accelerated
    }
}

/// Geometric mean of a slice of positive values; 0 for an empty slice.
pub fn geometric_mean(values: &[Real]) -> Real {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: Real = values.iter().map(|v| v.max(Real::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as Real).exp()
}

/// Median of a slice (averaging the two central elements for even lengths); 0 if empty.
pub fn median(values: &[Real]) -> Real {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!(approx_eq(s.mean(), 5.0, 1e-12));
        assert!(approx_eq(s.variance(), 32.0 / 7.0, 1e-12));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!(approx_eq(s.sum(), 40.0, 1e-12));
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(3.0);
        assert_eq!(s1.mean(), 3.0);
        assert_eq!(s1.variance(), 0.0);
        assert_eq!(s1.std_dev(), 0.0);
    }

    #[test]
    fn percent_breakdown_sums_to_100() {
        let parts = vec![("fft", 93.0), ("rot", 2.3), ("accum", 2.4), ("filter", 2.3)];
        let pct = percent_breakdown(&parts);
        let total: Real = pct.iter().map(|(_, p)| *p).sum();
        assert!(approx_eq(total, 100.0, 1e-9));
        assert!(pct[0].1 > 90.0);
    }

    #[test]
    fn percent_breakdown_all_zero() {
        let parts = vec![("a", 0.0), ("b", 0.0)];
        let pct = percent_breakdown(&parts);
        assert!(pct.iter().all(|(_, p)| *p == 0.0));
    }

    #[test]
    fn speedup_ratios() {
        assert!(approx_eq(speedup(4060.0, 125.5), 32.35, 0.01));
        assert_eq!(speedup(1.0, 0.0), Real::INFINITY);
        assert_eq!(speedup(0.0, 0.0), 0.0);
    }

    #[test]
    fn geometric_mean_and_median() {
        assert!(approx_eq(geometric_mean(&[1.0, 4.0, 16.0]), 4.0, 1e-9));
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!(approx_eq(median(&[3.0, 1.0, 2.0]), 2.0, 1e-12));
        assert!(approx_eq(median(&[4.0, 1.0, 2.0, 3.0]), 2.5, 1e-12));
        assert_eq!(median(&[]), 0.0);
    }
}
