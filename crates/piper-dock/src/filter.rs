//! Scoring and filtering (paper §III.B).
//!
//! After the correlations, three small steps produce the retained poses:
//!
//! 1. **accumulation** — the 4–18 desolvation component results are summed into a single
//!    desolvation grid (the "Accumulation of pairwise potential terms" row of Table 1);
//! 2. **scoring** — the weighted sum of Equation (2) combines shape, electrostatic and
//!    desolvation results into one score per translation;
//! 3. **filtering** — the best (most negative) scores are selected, excluding the
//!    neighbourhood of each selected score so a single deep pocket does not claim every
//!    retained pose (Fig. 5).

use crate::grids::{term_weight, EnergyWeights, WEIGHTED_TERMS};
use crate::pose::Pose;
use ftmap_math::{Complex, Grid3, Real};
use std::ops::{AddAssign, Mul};

/// Sums the desolvation component results into a single grid.
///
/// `term_results` must be ordered as [`crate::grids::term_kinds`]: the desolvation
/// components start at index 4.
pub fn accumulate_desolvation(term_results: &[Grid3<Real>], n_desolv: usize) -> Grid3<Real> {
    assert_eq!(term_results.len(), 4 + n_desolv, "term result count must be 4 + n_desolv");
    let (nx, ny, nz) = term_results[0].dims();
    let mut total = Grid3::new(nx, ny, nz);
    for grid in &term_results[4..] {
        for (dst, src) in total.as_mut_slice().iter_mut().zip(grid.as_slice()) {
            *dst += src;
        }
    }
    total
}

/// Computes the weighted pose-score grid of Equation (2) from the per-component
/// correlation results and the accumulated desolvation grid.
pub fn score_grid(
    term_results: &[Grid3<Real>],
    desolv_total: &Grid3<Real>,
    weights: &EnergyWeights,
    n_desolv: usize,
) -> Grid3<Real> {
    assert_eq!(term_results.len(), WEIGHTED_TERMS.len() + n_desolv, "unexpected term count");
    let (nx, ny, nz) = term_results[0].dims();
    let mut scores = Grid3::new(nx, ny, nz);
    // Shape and electrostatic components are weighted individually; the desolvation
    // components enter through the pre-accumulated total with the desolvation weight.
    for (kind, grid) in WEIGHTED_TERMS.iter().zip(term_results) {
        let w = term_weight(*kind, weights, n_desolv);
        for (dst, src) in scores.as_mut_slice().iter_mut().zip(grid.as_slice()) {
            *dst += w * src;
        }
    }
    for (dst, src) in scores.as_mut_slice().iter_mut().zip(desolv_total.as_slice()) {
        *dst += weights.desolv * *src;
    }
    scores
}

/// Voxels per chunk of [`score_into`]: its desolvation totals live on the stack.
const SCORE_CHUNK: usize = 256;

/// [`accumulate_desolvation`] then [`score_grid`] in one pass over the voxels, into
/// a kept grid (or the same span of every result, such as one x-plane) of the
/// results' size, with the same bits.
///
/// Per voxel it sums the desolvation terms from `+0.0`, then adds the weighted
/// terms from `+0.0` and `w_desolv · desolv` last — the two-step order. It works
/// through the voxels a chunk at a time, so every term value is read once and the
/// desolvation totals never leave the stack. `scores` is overwritten in full,
/// whatever it held.
///
/// The voxels may also be the bins of the terms' correlation spectra: Equation (2)
/// is linear, so the same sum over spectra is the spectrum of the score grid
/// ([`crate::batched_fft::ReceptorTransforms::score_products`]).
pub(crate) fn score_into<T: Voxel, G: ResultGrid<T>>(
    term_results: &[G],
    weights: &EnergyWeights,
    n_desolv: usize,
    scores: &mut [T],
) {
    assert_eq!(term_results.len(), WEIGHTED_TERMS.len() + n_desolv, "unexpected term count");
    let (weighted, desolvation) = term_results.split_at(WEIGHTED_TERMS.len());
    assert!(
        term_results.iter().all(|grid| grid.values().len() == scores.len()),
        "output grid size"
    );
    let term_weights = WEIGHTED_TERMS.map(|kind| term_weight(kind, weights, n_desolv));
    let mut totals = [T::default(); SCORE_CHUNK];
    for (chunk, out) in scores.chunks_mut(SCORE_CHUNK).enumerate() {
        let span = chunk * SCORE_CHUNK..chunk * SCORE_CHUNK + out.len();
        let totals = &mut totals[..out.len()];
        totals.fill(T::default());
        for grid in desolvation {
            for (dst, src) in totals.iter_mut().zip(&grid.values()[span.clone()]) {
                *dst += *src;
            }
        }
        out.fill(T::default());
        for (grid, w) in weighted.iter().zip(term_weights) {
            for (dst, src) in out.iter_mut().zip(&grid.values()[span.clone()]) {
                *dst += *src * w;
            }
        }
        for (dst, total) in out.iter_mut().zip(totals.iter()) {
            *dst += *total * weights.desolv;
        }
    }
}

/// A value [`score_into`] sums: a real voxel, or a complex spectrum bin. Its
/// default is `+0.0`, and scaling by a weight is IEEE multiplication, so the
/// two orders of a product give the same bits.
pub(crate) trait Voxel: Copy + Default + AddAssign + Mul<Real, Output = Self> {}

impl Voxel for Real {}

impl Voxel for Complex {}

/// A correlation result as [`score_into`] reads it: one value per voxel (or
/// spectrum bin), in grid order.
pub(crate) trait ResultGrid<T> {
    /// The values, in grid order.
    fn values(&self) -> &[T];
}

impl ResultGrid<Real> for Grid3<Real> {
    fn values(&self) -> &[Real] {
        self.as_slice()
    }
}

/// One span of a kept result grid, as a direct-correlation block writes it.
impl<T> ResultGrid<T> for &mut [T] {
    fn values(&self) -> &[T] {
        self
    }
}

/// A kept spectrum, as the FFT engines' score routine sums it.
impl<T> ResultGrid<T> for Vec<T> {
    fn values(&self) -> &[T] {
        self
    }
}

/// Selects the `k` best (most negative) scores from the score grid, excluding all voxels
/// within `exclusion_radius` (in voxels, Chebyshev distance) of an already-selected
/// score. Returns poses tagged with `rotation_index`.
///
/// Each round is one scan that keeps the first non-excluded voxel and replaces it
/// only by a strictly smaller one (so ties keep the earliest voxel, and a leading
/// NaN is never replaced). A voxel is tested against the selected poses only when
/// it would replace the best, so no exclusion mask is kept.
pub fn filter_top_k(
    scores: &Grid3<Real>,
    k: usize,
    exclusion_radius: usize,
    rotation_index: usize,
) -> Vec<Pose> {
    let (nx, ny, nz) = scores.dims();
    // The neighbourhood wraps cyclically, matching the correlation convention.
    let near = |a: usize, b: usize, n: usize| {
        let d = a.abs_diff(b);
        d.min(n - d) <= exclusion_radius
    };
    let mut selected: Vec<Pose> = Vec::with_capacity(k);

    for _ in 0..k {
        let excluded = |idx: usize| {
            let (x, y, z) = scores.coords(idx);
            selected.iter().any(|pose| {
                let (sx, sy, sz) = pose.translation;
                near(x, sx, nx) && near(y, sy, ny) && near(z, sz, nz)
            })
        };
        let values = scores.as_slice();
        let Some(first) = (0..values.len()).find(|&idx| !excluded(idx)) else {
            break;
        };
        let (mut best_idx, mut score) = (first, values[first]);
        for (idx, &v) in values.iter().enumerate().skip(first + 1) {
            if v < score && !excluded(idx) {
                (best_idx, score) = (idx, v);
            }
        }
        selected.push(Pose { rotation_index, translation: scores.coords(best_idx), score });
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with(values: &[((usize, usize, usize), Real)], n: usize) -> Grid3<Real> {
        let mut g = Grid3::cubic(n);
        for ((x, y, z), v) in values {
            *g.at_mut(*x, *y, *z) = *v;
        }
        g
    }

    #[test]
    fn accumulate_sums_only_desolvation_terms() {
        let n = 4;
        let n_desolv = 3;
        let mut terms: Vec<Grid3<Real>> = (0..4 + n_desolv).map(|_| Grid3::cubic(n)).collect();
        // Non-desolvation terms should be ignored.
        *terms[0].at_mut(0, 0, 0) = 100.0;
        *terms[4].at_mut(1, 1, 1) = 1.0;
        *terms[5].at_mut(1, 1, 1) = 2.0;
        *terms[6].at_mut(2, 2, 2) = 5.0;
        let total = accumulate_desolvation(&terms, n_desolv);
        assert_eq!(*total.at(1, 1, 1), 3.0);
        assert_eq!(*total.at(2, 2, 2), 5.0);
        assert_eq!(*total.at(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn accumulate_rejects_wrong_count() {
        let terms: Vec<Grid3<Real>> = (0..5).map(|_| Grid3::cubic(2)).collect();
        let _ = accumulate_desolvation(&terms, 4);
    }

    #[test]
    fn score_grid_applies_weights() {
        let n = 2;
        let n_desolv = 1;
        let mut terms: Vec<Grid3<Real>> = (0..5).map(|_| Grid3::cubic(n)).collect();
        *terms[0].at_mut(0, 0, 0) = 2.0; // shape core
        *terms[1].at_mut(0, 0, 0) = 3.0; // shape attraction
        *terms[2].at_mut(0, 0, 0) = 1.0; // coulomb
        *terms[3].at_mut(0, 0, 0) = 1.0; // screened
        *terms[4].at_mut(0, 0, 0) = 4.0; // desolvation
        let desolv = accumulate_desolvation(&terms, n_desolv);
        let weights = EnergyWeights { shape_core: 1.0, shape_attr: -1.0, elec: 0.5, desolv: 0.25 };
        let scores = score_grid(&terms, &desolv, &weights, n_desolv);
        // 1*2 + (-1)*3 + 0.5*1 + 0.5*1 + 0.25*4 = 1.0
        assert!((*scores.at(0, 0, 0) - 1.0).abs() < 1e-12);
        assert_eq!(*scores.at(1, 1, 1), 0.0);
    }

    #[test]
    fn into_forms_overwrite_kept_grids_bit_for_bit() {
        // The fused pass equals accumulation then scoring bit for bit, over kept
        // grids of `-0.0`, NaN, huge or random leftovers. Every term is `-0.0`,
        // `+0.0`, a value or (in the second case) NaN, so a sum that started from
        // a kept `-0.0` (or any leftover) instead of a fresh `+0.0`, or added in
        // another order, shows in the bits. 700 voxels span three chunks, the last
        // one short.
        let (nx, ny, nz, n_desolv) = (7, 10, 10, 3);
        let n3 = nx * ny * nz;
        let bits = |v: &[Real]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for with_nan in [false, true] {
            let terms: Vec<Grid3<Real>> = (0..4 + n_desolv)
                .map(|t| {
                    let value = |i: usize| match (i * 7 + t * 3) % 6 {
                        0 => 0.5,
                        1 => 0.0,
                        2 => -0.0,
                        3 if with_nan && i.is_multiple_of(11) => Real::NAN,
                        3 => (i as Real).sin(),
                        4 => -1.25,
                        _ => -0.0,
                    };
                    Grid3::from_vec(nx, ny, nz, (0..n3).map(value).collect())
                })
                .collect();
            let weights =
                EnergyWeights { shape_core: 0.25, shape_attr: -1.0, elec: 0.75, desolv: -0.5 };
            let desolv = accumulate_desolvation(&terms, n_desolv);
            let want = score_grid(&terms, &desolv, &weights, n_desolv);
            let mut reals: Vec<Vec<Real>> = terms.iter().map(|g| g.as_slice().to_vec()).collect();
            let spans: Vec<&mut [Real]> = reals.iter_mut().map(Vec::as_mut_slice).collect();
            for garbage in [-0.0, Real::NAN, -1e300, 0.125] {
                let mut kept = vec![garbage; n3];
                score_into(&terms, &weights, n_desolv, &mut kept);
                assert_eq!(bits(&kept), bits(want.as_slice()), "grids over {garbage}");
                kept.fill(garbage);
                score_into(&spans, &weights, n_desolv, &mut kept);
                assert_eq!(bits(&kept), bits(want.as_slice()), "spans over {garbage}");
            }
            assert!(desolv.as_slice().iter().any(|v| v.to_bits() == 0), "a +0.0 sum is covered");
            assert!(want.as_slice().iter().any(|v| v.to_bits() == 0), "a +0.0 score is covered");
            assert_eq!(want.as_slice().iter().any(|v| v.is_nan()), with_nan);
        }
    }

    #[test]
    #[should_panic(expected = "output grid size")]
    fn into_forms_reject_a_kept_grid_of_another_size() {
        let terms: Vec<Grid3<Real>> = (0..5).map(|_| Grid3::cubic(2)).collect();
        score_into(&terms, &EnergyWeights::default(), 1, Grid3::cubic(3).as_mut_slice());
    }

    #[test]
    fn filter_selects_most_negative_scores() {
        let scores = grid_with(&[((1, 1, 1), -10.0), ((6, 6, 6), -8.0), ((3, 3, 3), -9.0)], 8);
        let poses = filter_top_k(&scores, 2, 1, 7);
        assert_eq!(poses.len(), 2);
        assert_eq!(poses[0].translation, (1, 1, 1));
        assert_eq!(poses[0].score, -10.0);
        assert_eq!(poses[0].rotation_index, 7);
        // (3,3,3) is outside the exclusion radius of (1,1,1), and better than (6,6,6).
        assert_eq!(poses[1].translation, (3, 3, 3));
    }

    #[test]
    fn filter_excludes_neighbourhood_of_selected_scores() {
        // Second-best score is adjacent to the best; it must be skipped in favour of a
        // farther, worse score — the whole point of the exclusion (Fig. 5).
        let scores = grid_with(&[((4, 4, 4), -10.0), ((4, 4, 5), -9.9), ((0, 0, 0), -1.0)], 8);
        let poses = filter_top_k(&scores, 2, 2, 0);
        assert_eq!(poses.len(), 2);
        assert_eq!(poses[0].translation, (4, 4, 4));
        assert_eq!(poses[1].translation, (0, 0, 0));
    }

    #[test]
    fn filter_exclusion_wraps_cyclically() {
        let scores = grid_with(&[((0, 0, 0), -10.0), ((7, 7, 7), -9.0), ((4, 4, 4), -5.0)], 8);
        // (7,7,7) is a cyclic neighbour of (0,0,0) at Chebyshev distance 1.
        let poses = filter_top_k(&scores, 2, 1, 0);
        assert_eq!(poses[1].translation, (4, 4, 4));
    }

    #[test]
    fn filter_stops_when_grid_exhausted() {
        let scores = grid_with(&[((0, 0, 0), -1.0)], 2);
        // Exclusion radius 2 covers the whole 2³ grid after the first pick.
        let poses = filter_top_k(&scores, 4, 2, 0);
        assert_eq!(poses.len(), 1);
    }

    #[test]
    fn filter_zero_k_returns_empty() {
        let scores = grid_with(&[((0, 0, 0), -1.0)], 4);
        assert!(filter_top_k(&scores, 0, 1, 0).is_empty());
    }

    /// The exclusion-mask form of [`filter_top_k`], kept as its oracle: each
    /// round scans the non-excluded voxels for the first smallest one, then
    /// marks its cyclic `(2r+1)³` neighbourhood in an `N³` mask.
    fn mask_filter_top_k(
        scores: &Grid3<Real>,
        k: usize,
        exclusion_radius: usize,
        rotation_index: usize,
    ) -> Vec<Pose> {
        let (nx, ny, nz) = scores.dims();
        let mut excluded = vec![false; scores.len()];
        let mut selected = Vec::with_capacity(k);
        for _ in 0..k {
            let mut best: Option<(usize, Real)> = None;
            for (idx, &v) in scores.as_slice().iter().enumerate() {
                if excluded[idx] {
                    continue;
                }
                match best {
                    None => best = Some((idx, v)),
                    Some((_, bv)) if v < bv => best = Some((idx, v)),
                    _ => {}
                }
            }
            let Some((best_idx, best_score)) = best else {
                break;
            };
            let (bx, by, bz) = scores.coords(best_idx);
            selected.push(Pose { rotation_index, translation: (bx, by, bz), score: best_score });
            let r = exclusion_radius as isize;
            for dx in -r..=r {
                for dy in -r..=r {
                    for dz in -r..=r {
                        let x = (bx as isize + dx).rem_euclid(nx as isize) as usize;
                        let y = (by as isize + dy).rem_euclid(ny as isize) as usize;
                        let z = (bz as isize + dz).rem_euclid(nz as isize) as usize;
                        excluded[scores.index(x, y, z)] = true;
                    }
                }
            }
        }
        selected
    }

    mod mask_free_filter {
        use super::*;
        use proptest::prelude::*;

        /// Voxel values drawn by code: signed zeros, ties and a NaN.
        const VALUES: [Real; 8] = [-0.0, 0.0, -1.0, -1.0, -2.0, 1.0, 0.5, Real::NAN];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// On grids of 1–5 voxels per axis, where the exclusion cube wraps
            /// onto itself, with ties, `±0.0` and NaN values (optionally a
            /// leading NaN), for every `k` from 0 to `n³ + 1` and every radius
            /// from 0 to the largest axis, the mask-free filter selects the
            /// mask filter's poses, bit for bit.
            #[test]
            fn filter_top_k_matches_the_mask_filter(
                dims in prop::array::uniform3(1usize..6),
                codes in prop::collection::vec(0usize..8, 125),
                leading_nan in 0usize..2,
                k in 0usize..127,
                radius in 0usize..6,
            ) {
                let [nx, ny, nz] = dims;
                let n3 = nx * ny * nz;
                let mut values: Vec<Real> = codes[..n3].iter().map(|&c| VALUES[c]).collect();
                if leading_nan == 1 {
                    values[0] = Real::NAN;
                }
                let scores = Grid3::from_vec(nx, ny, nz, values);
                let k = k % (n3 + 2);
                let radius = radius % (nx.max(ny).max(nz) + 1);
                let bits = |poses: Vec<Pose>| -> Vec<_> {
                    poses.into_iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())).collect()
                };
                prop_assert_eq!(
                    bits(filter_top_k(&scores, k, radius, 3)),
                    bits(mask_filter_top_k(&scores, k, radius, 3))
                );
            }
        }
    }
}
