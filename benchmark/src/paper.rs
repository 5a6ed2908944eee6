//! The cost model's error against the paper's Table 1, stated beside every
//! modeled speed-up because the model is otherwise unvalidated.
//!
//! Table 1 gives per-rotation docking speed-ups of the C1060 over one Xeon
//! core. The reproduction's counterpart is the ratio of *modeled* step
//! seconds between the `FftSerial` engine (original PIPER) and the
//! `Gpu { batch: 8 }` engine on the same receptor, probe and rotation set.

use piper_dock::docking::StepTimes;

/// The paper's Table 1 speed-ups, in row order.
pub const TABLE1_PAPER: [(&str, f64); 4] =
    [("correlation", 267.0), ("accumulation", 180.0), ("scoring_filtering", 6.67), ("total", 32.6)];

/// A modeled step below this many seconds on *both* sides carries no
/// information about the ratio (the model prices it at nothing), so its row
/// is skipped and counted instead of contributing `log2(0/0)`.
pub const SKIP_BELOW_S: f64 = 1e-9;

/// The reproduced Table 1 and its distance from the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Modeled speed-up per row, in [`TABLE1_PAPER`] order (0 for a skipped row).
    pub speedup: [f64; 4],
    /// Mean over the kept rows of `|log2(speedup / paper)|`.
    pub err_log2_mean: f64,
    /// Largest `|log2(speedup / paper)|` over the kept rows.
    pub err_log2_max: f64,
    /// Rows skipped because both sides were below [`SKIP_BELOW_S`].
    pub rows_skipped: usize,
}

/// Compares the modeled step times of a serial and an accelerated docking run
/// of the same problem against Table 1.
pub fn table1(serial: &StepTimes, gpu: &StepTimes) -> Table1 {
    let rows = [
        (serial.correlation_s, gpu.correlation_s),
        (serial.accumulation_s, gpu.accumulation_s),
        (serial.scoring_filtering_s, gpu.scoring_filtering_s),
        (serial.total(), gpu.total()),
    ];
    let mut speedup = [0.0; 4];
    let mut errors = Vec::new();
    for (i, (s, g)) in rows.into_iter().enumerate() {
        if s < SKIP_BELOW_S && g < SKIP_BELOW_S {
            continue;
        }
        // One side priced at nothing: clamp so the row reads as a very large
        // (but finite) error instead of an infinity that hides the others.
        speedup[i] = s.max(SKIP_BELOW_S) / g.max(SKIP_BELOW_S);
        errors.push((speedup[i] / TABLE1_PAPER[i].1).log2().abs());
    }
    let kept = errors.len();
    Table1 {
        speedup,
        err_log2_mean: if kept == 0 { 0.0 } else { errors.iter().sum::<f64>() / kept as f64 },
        err_log2_max: errors.iter().copied().fold(0.0, f64::max),
        rows_skipped: rows.len() - kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(corr: f64, acc: f64, score: f64) -> StepTimes {
        StepTimes {
            rotation_grid_s: 0.0,
            correlation_s: corr,
            accumulation_s: acc,
            scoring_filtering_s: score,
        }
    }

    #[test]
    fn exact_reproduction_has_zero_error() {
        // total = (267 + 180 + 6.67) / 3 would not be 32.6, so only check rows.
        let t = table1(&steps(267.0, 180.0, 6.67), &steps(1.0, 1.0, 1.0));
        assert!((t.speedup[0] - 267.0).abs() < 1e-9);
        assert!((t.speedup[1] - 180.0).abs() < 1e-9);
        assert!((t.speedup[2] - 6.67).abs() < 1e-9);
        assert_eq!(t.rows_skipped, 0);
        let total_err = ((453.67 / 3.0) / 32.6_f64).log2().abs();
        assert!((t.err_log2_max - total_err).abs() < 1e-9);
        assert!((t.err_log2_mean - total_err / 4.0).abs() < 1e-9);
    }

    #[test]
    fn rows_priced_at_nothing_on_both_sides_are_skipped_and_counted() {
        // Accumulation fused away on both engines: 0 s vs 0 s.
        let t = table1(&steps(534.0, 0.0, 6.67), &steps(1.0, 1e-12, 1.0));
        assert_eq!(t.rows_skipped, 1);
        assert_eq!(t.speedup[1], 0.0);
        // Correlation is off by exactly one doubling; scoring is exact.
        let total_err = ((540.67 / 2.0) / 32.6_f64).log2().abs();
        assert!((t.err_log2_mean - (1.0 + 0.0 + total_err) / 3.0).abs() < 1e-9);
        assert!((t.err_log2_max - total_err.max(1.0)).abs() < 1e-9);
    }

    #[test]
    fn a_row_priced_at_nothing_on_one_side_stays_finite() {
        let t = table1(&steps(1.0, 1e-3, 1.0), &steps(1.0, 0.0, 1.0));
        assert_eq!(t.rows_skipped, 0);
        assert!(t.err_log2_max.is_finite() && t.err_log2_max > 10.0);
    }

    #[test]
    fn everything_skipped_reads_zero() {
        let t = table1(&steps(0.0, 0.0, 0.0), &steps(0.0, 0.0, 0.0));
        assert_eq!(t.rows_skipped, 4);
        assert_eq!((t.err_log2_mean, t.err_log2_max), (0.0, 0.0));
    }
}
