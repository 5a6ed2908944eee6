//! Small statistics helpers used by the benchmark harness and the profiling reports:
//! [`median`] summarises repeated timing samples.

use crate::Real;

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
    fn geometric_mean_and_median() {
        assert!(approx_eq(median(&[3.0, 1.0, 2.0]), 2.0, 1e-12));
        assert!(approx_eq(median(&[4.0, 1.0, 2.0, 3.0]), 2.5, 1e-12));
        assert_eq!(median(&[]), 0.0);
    }
}
