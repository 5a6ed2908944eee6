//! Small statistics helpers used by the benchmark harness and the profiling reports.
//!
//! The paper's evaluation reports speedup ratios (Tables 1/2): [`speedup`] computes
//! them, and [`median`] summarises repeated timing samples.

use crate::Real;

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
    fn speedup_ratios() {
        assert!(approx_eq(speedup(4060.0, 125.5), 32.35, 0.01));
        assert_eq!(speedup(1.0, 0.0), Real::INFINITY);
        assert_eq!(speedup(0.0, 0.0), 0.0);
    }

    #[test]
    fn geometric_mean_and_median() {
        assert!(approx_eq(median(&[3.0, 1.0, 2.0]), 2.0, 1e-12));
        assert!(approx_eq(median(&[4.0, 1.0, 2.0, 3.0]), 2.5, 1e-12));
        assert_eq!(median(&[]), 0.0);
    }
}
