//! FFT-based correlation: the original PIPER scoring engine.
//!
//! For each rotation, PIPER forward-transforms every ligand grid, multiplies it
//! voxel-wise with the conjugate transform of the matching receptor grid (precomputed
//! once), and inverse-transforms the product to obtain that component's correlation
//! over all `N³` translations — `O(N³ log N)` per component instead of `O(N⁶)`.
//! Fig. 2(b) shows this step dominating the per-rotation cost at ~93 %.
//!
//! The grids are real, so every transform runs on half spectra (a real-input
//! forward, the conjugate product over the `nz/2 + 1` stored z-bins, a
//! real-output inverse). The pose score of Equation (2) is a fixed weighted sum of
//! the term correlations and the inverse transform is linear, so the docking
//! engines sum the weighted term products in the half spectrum and run **one**
//! inverse per rotation, into the score grid
//! ([`FftCorrelationEngine::rotation_score_grid`], the routine
//! `ReceptorTransforms::score_rotation`). The batched engine runs the same
//! routine one step per launch, so the two engines' poses are equal bit for bit
//! by construction. [`FftCorrelationEngine::correlate_rotation`] keeps the
//! per-term correlation grids as a capability of its own, built from the same
//! steps; no docking engine calls it.
//!
//! **Modeled side.** The host uses linearity; the model prices the paper's
//! algorithm: per rotation and term a complex forward transform, an `N³`
//! modulation and a complex inverse
//! ([`FftCorrelationEngine::flops_per_rotation`]), then accumulation and
//! scoring over `N³` grids.

use crate::batched_fft::{ReceptorTransforms, RotationBuffers};
use crate::grids::{EnergyWeights, LigandGrids, ReceptorGrids};
use ftmap_math::{Grid3, Real};

/// The FFT correlation engine. Owns the receptor transforms (computed once) and the
/// FFT plan that produced them, reused across rotations and components.
pub struct FftCorrelationEngine {
    /// The same receptor-side state the batched engine caches, computed by the same
    /// call — so the two engines' spectra are equal by construction.
    transforms: ReceptorTransforms,
}

impl FftCorrelationEngine {
    /// Precomputes the receptor transforms.
    ///
    /// # Panics
    /// Panics if the receptor grid dimension is not a power of two.
    pub fn new(receptor: &ReceptorGrids) -> Self {
        FftCorrelationEngine { transforms: ReceptorTransforms::compute(receptor) }
    }

    /// Grid dimension `N`.
    pub fn dim(&self) -> usize {
        self.transforms.dim()
    }

    /// Number of energy components.
    pub fn n_terms(&self) -> usize {
        self.transforms.n_terms()
    }

    /// Correlates one rotation's ligand grids against the receptor, returning one
    /// `N³` result grid per component.
    ///
    /// The ligand grid is zero-padded into the receptor dimensions with its footprint
    /// anchored at the grid origin (by
    /// [`ftmap_math::fft::Fft3Plan::forward_real_padded_into`], which skips the
    /// all-zero lines), so `result[d]` is the score of translating the probe by `d`
    /// voxels (cyclic). One spectrum buffer serves every component.
    ///
    /// # Panics
    /// Panics if the ligand has a different number of components than the receptor.
    pub fn correlate_rotation(&self, ligand: &LigandGrids) -> Vec<Grid3<Real>> {
        assert_eq!(ligand.n_terms(), self.n_terms(), "ligand term count must match receptor");
        let n = self.dim();
        let mut spectrum = Vec::new();
        ligand
            .terms
            .iter()
            .enumerate()
            .map(|(term, grid)| {
                let mut correlation = Vec::new();
                self.transforms.correlate_term(term, grid, &mut spectrum, &mut correlation);
                Grid3::from_vec(n, n, n, correlation)
            })
            .collect()
    }

    /// One rotation's Equation (2) score grid, through the score routine both
    /// FFT docking engines run: one inverse transform of the weighted sum of the
    /// term products, not one per term. `FftSerial` retains
    /// [`crate::filter::filter_top_k`] of this grid.
    ///
    /// # Panics
    /// Panics if the ligand has a different number of components than the
    /// receptor, or `n_desolv` does not match the component count.
    pub fn rotation_score_grid(
        &self,
        ligand: &LigandGrids,
        weights: &EnergyWeights,
        n_desolv: usize,
    ) -> Grid3<Real> {
        let mut buffers = RotationBuffers::default();
        self.transforms.score_rotation(ligand, weights, n_desolv, &mut buffers);
        let n = self.dim();
        Grid3::from_vec(n, n, n, buffers.scores)
    }

    /// The receptor transforms and the score routine they run.
    pub(crate) fn transforms(&self) -> &ReceptorTransforms {
        &self.transforms
    }

    /// Estimated floating-point work of correlating one rotation (used for modeled
    /// serial times): `n_terms × (2 forward/inverse transforms + N³ modulation)`.
    /// It prices the paper's complex transforms and products over all `N³`
    /// points and one inverse per term, not the host's arithmetic, which runs
    /// over half spectra and inverse-transforms only the summed score.
    ///
    /// This is the **warm-transform** figure: the receptor's forward FFTs are
    /// amortized to zero per rotation, matching a batched-engine construction
    /// that hits the derived residency cache. The one-time receptor transform
    /// cost is `FftCorrelationEngine::receptor_transform_flops`, charged
    /// once per engine construction (the host path recomputes it every time;
    /// the batched path only on a derived-cache miss).
    pub fn flops_per_rotation(&self) -> u64 {
        let n3 = self.dim().pow(3) as u64;
        self.n_terms() as u64 * (2 * self.transforms.flops_per_transform() + 6 * n3)
    }

    /// Floating-point work of the one-time receptor forward transforms this
    /// constructor performed: `n_terms × one forward transform`.
    pub(crate) fn receptor_transform_flops(&self) -> u64 {
        self.n_terms() as u64 * self.transforms.flops_per_transform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::{GridSpec, LigandGrids, ReceptorGrids};
    use ftmap_math::{Rotation, Vec3};
    use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn setup(dim: usize) -> (ReceptorGrids, LigandGrids) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let spec = GridSpec::centered_on(&protein.atoms, dim, 2.0);
        let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);
        let probe = Probe::new(ProbeType::Ethanol, &ff);
        let ligand = LigandGrids::build(&probe.atoms, &Rotation::identity(), 2.0, 4);
        (receptor, ligand)
    }

    #[test]
    fn result_grids_have_receptor_dimensions() {
        let (receptor, ligand) = setup(16);
        let engine = FftCorrelationEngine::new(&receptor);
        assert_eq!(engine.dim(), 16);
        assert_eq!(engine.n_terms(), 8);
        let results = engine.correlate_rotation(&ligand);
        assert_eq!(results.len(), 8);
        for r in &results {
            assert_eq!(r.dims(), (16, 16, 16));
        }
    }

    #[test]
    fn correlation_of_unit_ligand_voxel_reproduces_receptor() {
        // A ligand grid with a single 1.0 at its origin correlates to (a copy of) the
        // receptor grid itself — the delta-function identity of correlation.
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let spec = GridSpec::centered_on(&protein.atoms, 16, 2.0);
        let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);
        let engine = FftCorrelationEngine::new(&receptor);

        // Build a fake single-voxel ligand.
        let probe = Probe::new(ProbeType::Ethane, &ff);
        let mut ligand = LigandGrids::build(&probe.atoms, &Rotation::identity(), 2.0, 4);
        for term in &mut ligand.terms {
            term.clear();
        }
        *ligand.terms[0].at_mut(0, 0, 0) = 1.0;

        let results = engine.correlate_rotation(&ligand);
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..16 {
                    let expect = *receptor.terms[0].at(x, y, z);
                    let got = *results[0].at(x, y, z);
                    assert!((expect - got).abs() < 1e-6, "({x},{y},{z}): {expect} vs {got}");
                }
            }
        }
        // Terms with an all-zero ligand grid give an all-zero result.
        assert!(results[2].as_slice().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "term count")]
    fn mismatched_term_count_panics() {
        let (receptor, _) = setup(16);
        let ff = ForceField::charmm_like();
        let probe = Probe::new(ProbeType::Ethanol, &ff);
        let ligand = LigandGrids::build(&probe.atoms, &Rotation::identity(), 2.0, 2);
        let engine = FftCorrelationEngine::new(&receptor);
        let _ = engine.correlate_rotation(&ligand);
    }

    #[test]
    fn flops_estimate_scales_with_terms_and_size() {
        let (receptor, _) = setup(16);
        let engine16 = FftCorrelationEngine::new(&receptor);
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let spec = GridSpec { dim: 32, spacing: 1.5, origin: Vec3::splat(-24.0) };
        let receptor32 = ReceptorGrids::build(&protein.atoms, spec, 4);
        let engine32 = FftCorrelationEngine::new(&receptor32);
        assert!(engine32.flops_per_rotation() > engine16.flops_per_rotation());
    }
}
