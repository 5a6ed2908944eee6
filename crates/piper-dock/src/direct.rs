//! Direct correlation.
//!
//! For FTMap's tiny probes (≤4³-voxel footprints, a handful of occupied voxels) the
//! `O(N³ · n³)` direct sum beats the `O(N³ log N)` FFT: it parallelizes trivially, all
//! components can be evaluated in one pass over the receptor grid, several rotations
//! can share each receptor fetch, and there is no transform overhead (paper §III, and
//! the earlier FPGA/GPU PIPER studies it cites). This module provides the host engine,
//! which `DirectSerial` and `DirectMulticore` dock through (the multicore kind scores
//! contiguous rotation chunks on host threads, [`crate::docking`]); the device-model
//! version lives in [`crate::gpu`].
//!
//! Both run one slab routine, a sparse `conv3d` with its loops inverted: per
//! ligand entry, `value × receptor row` is added into each output row, as two
//! segments split at the cyclic `z` wrap. Each voxel still sums in entry order from
//! `+0.0`, so the bits are those of the per-voxel sum. The GPU kernel's counters
//! describe the modeled access pattern, not this host loop order.

use crate::grids::{LigandGrids, ReceptorGrids};
use ftmap_math::{Grid3, Real};

/// One occupied voxel of a ligand grid: the component it belongs to, its offset within
/// the probe footprint and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseEntry {
    /// Energy-component index.
    pub term: usize,
    /// Voxel offset within the probe footprint.
    pub offset: (usize, usize, usize),
    /// Grid value at that voxel.
    pub value: Real,
}

/// A ligand rotation reduced to its occupied voxels — the unit of work the direct
/// correlation inner loop iterates over (and what the GPU kernel stages in constant
/// memory).
#[derive(Debug, Clone)]
pub struct SparseLigand {
    /// Probe footprint dimension `n`.
    pub dim: usize,
    /// Number of energy components in the originating grids.
    pub n_terms: usize,
    /// Occupied voxels across all components.
    pub entries: Vec<SparseEntry>,
}

impl SparseLigand {
    /// Extracts the occupied voxels of a ligand grid set.
    pub fn from_grids(ligand: &LigandGrids) -> Self {
        let mut entries = Vec::new();
        for (term, grid) in ligand.terms.iter().enumerate() {
            for (x, y, z, &v) in grid.iter_voxels() {
                if v != 0.0 {
                    entries.push(SparseEntry { term, offset: (x, y, z), value: v });
                }
            }
        }
        SparseLigand { dim: ligand.dim, n_terms: ligand.n_terms(), entries }
    }

    /// Number of occupied voxels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the ligand has no occupied voxels.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of f64 words needed to stage this ligand in constant memory
    /// (4 words per entry: packed offset, term, value, padding).
    pub fn constant_mem_words(&self) -> usize {
        self.entries.len() * 4
    }
}

/// Host-side direct-correlation engine over a fixed receptor.
pub struct DirectCorrelationEngine<'a> {
    receptor: &'a ReceptorGrids,
}

impl<'a> DirectCorrelationEngine<'a> {
    /// Creates an engine over the given receptor grids.
    pub fn new(receptor: &'a ReceptorGrids) -> Self {
        DirectCorrelationEngine { receptor }
    }

    /// Correlates one rotation, returning one result grid per component.
    /// `result_t[d] = Σ_v L_t[v] · R_t[(v + d) mod N]`, matching the FFT engine's
    /// cyclic convention exactly.
    pub fn correlate_rotation(&self, ligand: &SparseLigand) -> Vec<Grid3<Real>> {
        let mut results = Vec::new();
        self.correlate_into(ligand, &mut results);
        results
    }

    /// [`DirectCorrelationEngine::correlate_rotation`] into kept grids: `results`
    /// is resized to one grid per component, and every voxel of a grid of the
    /// receptor's size is overwritten, whatever it held.
    pub(crate) fn correlate_into(&self, ligand: &SparseLigand, results: &mut Vec<Grid3<Real>>) {
        let n = self.receptor.spec.dim;
        results.resize_with(ligand.n_terms, || Grid3::cubic(n));
        let mut grids: Vec<&mut [Real]> = results.iter_mut().map(Grid3::as_mut_slice).collect();
        correlate_slab(self.receptor, ligand, 0, &mut grids);
    }

    /// Estimated floating-point work for correlating one rotation directly:
    /// 2 flops per (translation, occupied ligand voxel) pair.
    pub fn flops_per_rotation(&self, ligand: &SparseLigand) -> u64 {
        2 * self.receptor.spec.len() as u64 * ligand.len() as u64
    }
}

/// Splits buffers into `len`-word chunks: slot `i` holds chunk `i` of every
/// buffer, in buffer order.
pub(crate) fn chunk_slots<'a>(
    buffers: impl IntoIterator<Item = &'a mut [Real]>,
    len: usize,
) -> Vec<Vec<&'a mut [Real]>> {
    let mut slots: Vec<Vec<&mut [Real]>> = Vec::new();
    for buffer in buffers {
        for (i, chunk) in buffer.chunks_mut(len).enumerate() {
            if i == slots.len() {
                slots.push(Vec::new());
            }
            slots[i].push(chunk);
        }
    }
    slots
}

/// The slab routine of every direct engine (see the module docs): `out[t]` holds
/// whole x-planes of term `t`'s result grid from plane `x_start` on. Each plane is
/// zeroed, then every entry adds `value × receptor row` into each row, in entry
/// order, as two segments split at the cyclic `z` wrap.
pub(crate) fn correlate_slab(
    receptor: &ReceptorGrids,
    ligand: &SparseLigand,
    x_start: usize,
    out: &mut [&mut [Real]],
) {
    let n = receptor.spec.dim;
    let n_planes = out.first().map_or(0, |slab| slab.len() / (n * n));
    for p in 0..n_planes {
        let words = p * n * n..(p + 1) * n * n;
        for slab in out.iter_mut() {
            slab[words.clone()].fill(0.0);
        }
        for entry in &ligand.entries {
            let (ox, oy, oz) = entry.offset;
            let x = (ox + x_start + p) % n;
            let oz = oz % n;
            let plane = &mut out[entry.term][words.clone()];
            for (dy, row) in plane.chunks_exact_mut(n).enumerate() {
                let start = (x * n + (oy + dy) % n) * n;
                let r = &receptor.terms[entry.term].as_slice()[start..start + n];
                let (head, tail) = row.split_at_mut(n - oz);
                for (o, &r) in head.iter_mut().zip(&r[oz..]) {
                    *o += entry.value * r;
                }
                for (o, &r) in tail.iter_mut().zip(&r[..oz]) {
                    *o += entry.value * r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched_fft::ReceptorTransforms;
    use crate::grids::{GridSpec, LigandGrids, ReceptorGrids};
    use ftmap_math::Rotation;
    use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn setup(dim: usize) -> (ReceptorGrids, LigandGrids) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let spec = GridSpec::centered_on(&protein.atoms, dim, 2.0);
        let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);
        let probe = Probe::new(ProbeType::Acetone, &ff);
        let ligand = LigandGrids::build(&probe.atoms, &Rotation::identity(), 2.0, 4);
        (receptor, ligand)
    }

    #[test]
    fn sparse_ligand_extraction() {
        let (_, ligand) = setup(16);
        let sparse = SparseLigand::from_grids(&ligand);
        assert!(!sparse.is_empty());
        assert_eq!(sparse.len(), ligand.nonzero_voxels());
        assert_eq!(sparse.n_terms, ligand.n_terms());
        assert!(sparse.constant_mem_words() >= sparse.len());
        for e in &sparse.entries {
            assert!(e.term < ligand.n_terms());
            assert!(e.offset.0 < ligand.dim && e.offset.1 < ligand.dim && e.offset.2 < ligand.dim);
            assert_ne!(e.value, 0.0);
        }
    }

    #[test]
    fn direct_matches_fft_correlation() {
        let (receptor, ligand) = setup(16);
        let sparse = SparseLigand::from_grids(&ligand);
        let direct = DirectCorrelationEngine::new(&receptor);
        let direct_results = direct.correlate_rotation(&sparse);
        let fft = ReceptorTransforms::new(&receptor);
        let fft_results = fft.correlate_rotation(&ligand);
        assert_eq!(direct_results.len(), fft_results.len());
        for (dg, fg) in direct_results.iter().zip(&fft_results) {
            for (a, b) in dg.as_slice().iter().zip(fg.as_slice()) {
                assert!((a - b).abs() < 1e-6, "direct {a} vs fft {b}");
            }
        }
    }

    #[test]
    fn flops_scale_with_footprint() {
        let (receptor, ligand) = setup(16);
        let sparse = SparseLigand::from_grids(&ligand);
        let engine = DirectCorrelationEngine::new(&receptor);
        let expected = 2 * 16u64.pow(3) * sparse.len() as u64;
        assert_eq!(engine.flops_per_rotation(&sparse), expected);
    }
}
