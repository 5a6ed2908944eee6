//! Batched FFT docking with receptor-transform residency and a fused top-K
//! epilogue.
//!
//! The per-rotation FFT path ([`crate::fft_engine::FftCorrelationEngine`])
//! launches one correlation per rotation and materializes full `N³` score
//! grids on the host before filtering. This engine restructures the same
//! mathematics around three bandwidth disciplines:
//!
//! 1. **Receptor-transform residency.** The forward FFTs of the receptor
//!    component grids (and the twiddle-table plan that produced them) are a
//!    pure function of the resident receptor grids, so they are cached as a
//!    *derived* payload next to the raw grids in the device's
//!    [`gpu_sim::ResidencyCache`] (keyed by
//!    [`ResidencyCache::derived_key`](gpu_sim::ResidencyCache::derived_key)
//!    under [`RECEPTOR_TRANSFORM_TAG`]). A warm receptor skips straight to
//!    ligand-side transforms: zero upload bytes *and* zero transform flops.
//! 2. **Batched launches.** Many rotations are packed into single large
//!    modeled launches — one batched forward transform over all ligand grids,
//!    one pointwise conjugate-multiply against the resident receptor
//!    transforms, one batched inverse — instead of per-rotation loops, so
//!    launch count grows with batches, not rotations.
//! 3. **Fused top-K epilogue.** Desolvation accumulation, weighted scoring
//!    and top-K filtering (exact [`crate::filter`] semantics) run inside the
//!    correlation epilogue *before any download*: only the retained poses are
//!    transfer-accounted, and the full `N³` score grids never cross the
//!    modeled PCIe link.
//!
//! Per rotation, the arithmetic is identical to
//! `FftCorrelationEngine::correlate_rotation` followed by the host
//! accumulate/score/filter tail, so retained poses are bit-identical to the
//! per-rotation path.
//!
//! A batch's grid-sized buffers are kept device buffers
//! ([`Device::result_buffer`]), so a warm batch allocates none: the spectra,
//! whose real parts are read in place as the correlation grids once inverted,
//! and the epilogue's desolvation and score grids. All of them go back to the
//! device after the epilogue, the last launch that reads them.

use crate::filter;
use crate::grids::{EnergyWeights, LigandGrids, ReceptorGrids};
use crate::pose::Pose;
use ftmap_math::fft::{Direction, Fft3Plan};
use ftmap_math::{Complex, Grid3, Real};
use gpu_sim::{BlockContext, BlockKernel, Device, KernelLaunch, Residency, Staged, StatsLedger};
use std::sync::Arc;

/// Derivation tag for the receptor's forward transforms + FFT plan in the
/// device residency cache (keyed next to the raw grids via
/// [`gpu_sim::ResidencyCache::derived_key`]).
const RECEPTOR_TRANSFORM_TAG: &str = "fft-transforms";

/// Ledger phase name for the one-time receptor forward transforms.
const PHASE_RECEPTOR_FFT: &str = "receptor_fft";
/// Ledger phase name for the batched ligand forward transforms.
pub(crate) const PHASE_LIGAND_FFT: &str = "ligand_fft";
/// Ledger phase name for the pointwise conjugate-multiply pass.
pub(crate) const PHASE_CONJ_MULTIPLY: &str = "conj_multiply";
/// Ledger phase name for the batched inverse transforms.
pub(crate) const PHASE_INVERSE_FFT: &str = "inverse_fft";
/// Ledger phase name for the fused accumulate + score + top-K epilogue.
pub(crate) const PHASE_FUSED_EPILOGUE: &str = "fused_epilogue";

/// The receptor-side state the batched engine shares across constructions: the
/// forward FFT of each receptor component grid plus the twiddle-table plan
/// that produced them (reused for the ligand-side transforms, so every
/// transform in a docking run replays the same table arithmetic).
pub struct ReceptorTransforms {
    dim: usize,
    n_terms: usize,
    plan: Fft3Plan,
    term_ffts: Vec<Vec<Complex>>,
}

impl ReceptorTransforms {
    /// Forward-transforms every receptor component grid with a fresh plan.
    ///
    /// [`crate::fft_engine::FftCorrelationEngine::new`] calls this too, so
    /// the per-rotation and batched paths start from the same spectra by
    /// construction. The receptor grids are full-size, so
    /// [`Fft3Plan::forward_real_padded`] pads and skips nothing.
    ///
    /// # Panics
    /// Panics if the receptor grid dimension is not a power of two.
    pub(crate) fn compute(receptor: &ReceptorGrids) -> Self {
        let dim = receptor.spec.dim;
        let plan = Fft3Plan::new(dim, dim, dim);
        let term_ffts = receptor.terms.iter().map(|grid| plan.forward_real_padded(grid)).collect();
        ReceptorTransforms { dim, n_terms: receptor.n_terms(), plan, term_ffts }
    }

    /// Grid dimension `N`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of energy components.
    pub fn n_terms(&self) -> usize {
        self.n_terms
    }

    /// The shared FFT plan (immutable: [`Fft3Plan::transform_in_place`] takes
    /// `&self`, so one cached plan serves every consumer without cloning).
    pub fn plan(&self) -> &Fft3Plan {
        &self.plan
    }

    /// The forward transform of receptor component `term`.
    pub fn term_fft(&self, term: usize) -> &[Complex] {
        &self.term_ffts[term]
    }

    /// Device bytes this payload occupies: the complex transform grids plus
    /// the plan's twiddle tables — what the residency cache charges against
    /// the memory budget for the derived entry.
    pub fn resident_bytes(&self) -> usize {
        let grids: usize =
            self.term_ffts.iter().map(|t| t.len() * std::mem::size_of::<Complex>()).sum();
        grids + self.plan.table_bytes()
    }
}

/// How the receptor transforms reached the device for one engine construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransformResidency {
    /// Derived entry was warm: zero transform flops, zero upload bytes.
    Hit,
    /// Derived entry was cold: one modeled forward-transform pass over the
    /// resident receptor grids (no upload — the transforms are computed on
    /// the device from data already there). The transforms are now cached for
    /// the next construction.
    Computed {
        /// Modeled seconds of the one-time transform launch.
        modeled_s: f64,
    },
    /// The transforms could not be cached (cache disabled, raw grids not
    /// resident, or over budget): computed for this construction only.
    Uncached {
        /// Modeled seconds of this construction's transform launch.
        modeled_s: f64,
    },
}

impl TransformResidency {
    /// Modeled seconds of receptor-transform work this construction charged.
    pub fn modeled_s(&self) -> f64 {
        match self {
            TransformResidency::Hit => 0.0,
            TransformResidency::Computed { modeled_s }
            | TransformResidency::Uncached { modeled_s } => *modeled_s,
        }
    }
}

/// Outcome of docking one batch of rotations through the fused path.
pub struct BatchedDockOutcome {
    /// Retained poses per batch slot, in batch order (`poses[slot]` belongs to
    /// the slot's rotation index; already tagged with it).
    pub poses: Vec<Vec<Pose>>,
    /// Per-phase kernel stats of the batch's launches.
    pub ledger: StatsLedger,
    /// Modeled seconds uploading the batch's compact ligand grids.
    pub upload_s: f64,
    /// Modeled seconds downloading the retained poses (the only result bytes
    /// that cross the link).
    pub download_s: f64,
}

/// Batched FFT correlation + fused filtering over a fixed receptor (held as
/// its resolved [`ReceptorTransforms`] — the raw grids are only needed at
/// construction, to compute or look up the transforms).
pub struct BatchedFftEngine<'a> {
    device: &'a Device,
    transforms: Arc<ReceptorTransforms>,
    residency: TransformResidency,
    threads_per_block: usize,
}

impl<'a> BatchedFftEngine<'a> {
    /// Creates the engine, resolving the receptor transforms through the
    /// device's derived-payload residency: a warm receptor reuses the cached
    /// transforms + plan for free; a cold one pays one modeled transform pass
    /// (recorded as the `PHASE_RECEPTOR_FFT` launch) and leaves the result
    /// cached next to the raw grids.
    ///
    /// # Panics
    /// Panics if the receptor grid dimension is not a power of two.
    pub fn new(device: &'a Device, receptor: &'a ReceptorGrids) -> Self {
        let parent_key = receptor.content_key();
        let mut computed: Option<(Arc<ReceptorTransforms>, f64)> = None;
        let outcome = device.residency().get_or_insert_derived_with(
            parent_key,
            RECEPTOR_TRANSFORM_TAG,
            || {
                let (transforms, modeled_s) = Self::transform_receptor(device, receptor);
                let bytes = transforms.resident_bytes();
                computed = Some((Arc::clone(&transforms), modeled_s));
                (transforms as gpu_sim::ResidentPayload, bytes)
            },
        );
        let (transforms, residency) = match outcome {
            Residency::Hit(payload) => match payload.downcast::<ReceptorTransforms>() {
                Ok(cached) => (cached, TransformResidency::Hit),
                // Foreign payload under this derived key (content-hash
                // collision): compute our own, uncached.
                Err(_) => {
                    let (transforms, modeled_s) = Self::transform_receptor(device, receptor);
                    (transforms, TransformResidency::Uncached { modeled_s })
                }
            },
            Residency::Miss { .. } => {
                let (transforms, modeled_s) = computed.expect("fill ran on miss");
                (transforms, TransformResidency::Computed { modeled_s })
            }
            Residency::Uncacheable => {
                let (transforms, modeled_s) = match computed {
                    Some(pair) => pair,
                    None => Self::transform_receptor(device, receptor),
                };
                (transforms, TransformResidency::Uncached { modeled_s })
            }
        };
        BatchedFftEngine { device, transforms, residency, threads_per_block: 64 }
    }

    /// Runs the modeled forward-transform launch over the receptor grids (one
    /// block per component) and returns the transforms with its modeled time.
    fn transform_receptor(
        device: &Device,
        receptor: &ReceptorGrids,
    ) -> (Arc<ReceptorTransforms>, f64) {
        let dim = receptor.spec.dim;
        let flops_per_transform = Fft3Plan::new(dim, dim, dim).flops_per_transform();
        let output: Staged<Option<ReceptorTransforms>> = Staged::new(None);
        ftmap_trace::hook::mark(PHASE_RECEPTOR_FFT);
        let kernel = ReceptorTransformKernel { receptor, flops_per_transform, output: &output };
        let stats = KernelLaunch::on(device).grid(receptor.n_terms()).threads(64).run(&kernel);
        let transforms = output.take().expect("transform kernel produced output");
        (Arc::new(transforms), stats.modeled_time_s)
    }

    /// How the receptor transforms reached the device for this construction.
    pub fn transform_residency(&self) -> TransformResidency {
        self.residency
    }

    /// The resolved receptor transforms (cached or freshly computed).
    pub fn transforms(&self) -> &Arc<ReceptorTransforms> {
        &self.transforms
    }

    /// Docks one batch of rotations: upload compact ligand grids, one batched
    /// forward transform, one conjugate-multiply pass, one batched inverse,
    /// and the fused accumulate + score + top-K epilogue — downloading only
    /// the retained poses.
    ///
    /// `batch[slot]` is correlated as rotation `rotation_indices[slot]`; the
    /// returned `poses[slot]` are tagged accordingly.
    ///
    /// # Panics
    /// Panics if the batch is empty, the index list has a different length,
    /// or a ligand's term count does not match the receptor's.
    pub fn dock_batch(
        &self,
        batch: &[LigandGrids],
        rotation_indices: &[usize],
        weights: &EnergyWeights,
        n_desolv: usize,
        k: usize,
        exclusion_radius: usize,
    ) -> BatchedDockOutcome {
        assert!(!batch.is_empty(), "batched docking needs at least one rotation");
        assert_eq!(batch.len(), rotation_indices.len(), "one rotation index per batch slot");
        for ligand in batch {
            assert_eq!(
                ligand.n_terms(),
                self.transforms.n_terms(),
                "ligand term count must match receptor"
            );
        }
        let n = self.transforms.dim();
        let n_terms = self.transforms.n_terms();
        let n_grids = batch.len() * n_terms;
        let mut ledger = StatsLedger::new();

        // Upload the compact (unpadded) ligand grids — the only per-rotation
        // bytes that go up; zero-padding happens on the device.
        let ligand_bytes: usize = batch
            .iter()
            .map(|l| l.terms.iter().map(Grid3::len).sum::<usize>() * std::mem::size_of::<Real>())
            .sum();
        let upload_s = self.device.upload_bytes(ligand_bytes as u64);

        // Frequency-domain workspace: one complex grid per (slot, term), a
        // kept device buffer that the forward kernel sizes and overwrites in
        // full. After the inverse it holds the slot's correlation grid.
        let freq: Vec<Staged<Vec<Complex>>> =
            (0..n_grids).map(|_| Staged::new(self.device.result_buffer(0))).collect();

        // 1. One batched forward transform over every ligand grid.
        ftmap_trace::hook::mark(PHASE_LIGAND_FFT);
        let forward =
            LigandForwardKernel { batch, plan: &self.transforms, freq: &freq, n, n_terms };
        KernelLaunch::on(self.device).grid(n_grids).threads(self.threads_per_block).run_recorded(
            &mut ledger,
            PHASE_LIGAND_FFT,
            &forward,
        );

        // 2. One pointwise conjugate-multiply pass against the resident
        //    receptor transforms.
        ftmap_trace::hook::mark(PHASE_CONJ_MULTIPLY);
        let multiply = ConjMultiplyKernel { transforms: &self.transforms, freq: &freq, n, n_terms };
        KernelLaunch::on(self.device).grid(n_grids).threads(self.threads_per_block).run_recorded(
            &mut ledger,
            PHASE_CONJ_MULTIPLY,
            &multiply,
        );

        // 3. One batched inverse transform, in place: the real parts of each
        //    spectrum are its correlation grid.
        ftmap_trace::hook::mark(PHASE_INVERSE_FFT);
        let inverse = InverseKernel { plan: &self.transforms, freq: &freq };
        KernelLaunch::on(self.device).grid(n_grids).threads(self.threads_per_block).run_recorded(
            &mut ledger,
            PHASE_INVERSE_FFT,
            &inverse,
        );
        let spectra: Vec<Vec<Complex>> = freq.into_iter().map(Staged::take).collect();

        // 4. Fused epilogue: accumulate + score + filter per rotation, one
        //    block per batch slot, before anything is downloaded.
        ftmap_trace::hook::mark(PHASE_FUSED_EPILOGUE);
        let n3 = n * n * n;
        let kept_grid = || Grid3::from_vec(n, n, n, self.device.result_buffer(n3));
        let scratch: Vec<Staged<EpilogueGrids>> = (0..batch.len())
            .map(|_| Staged::new(EpilogueGrids { desolv: kept_grid(), scores: kept_grid() }))
            .collect();
        let poses: Staged<Vec<Vec<Pose>>> = Staged::new(vec![Vec::new(); batch.len()]);
        let epilogue = FusedEpilogueKernel {
            spectra: &spectra,
            scratch: &scratch,
            rotation_indices,
            weights: *weights,
            n_terms,
            n_desolv,
            k,
            exclusion_radius,
            poses: &poses,
        };
        KernelLaunch::on(self.device)
            .grid(batch.len())
            .threads(256)
            .shared_mem_capped(256 * (k + 1))
            .run_recorded(&mut ledger, PHASE_FUSED_EPILOGUE, &epilogue);
        let poses = poses.take();
        // The epilogue was the last reader of the spectra and scratch grids.
        self.device.recycle_result_buffers(spectra);
        self.device.recycle_result_buffers(
            scratch.into_iter().map(Staged::take).flat_map(EpilogueGrids::into_vecs),
        );

        // Download only the retained poses — never the N³ score grids.
        let mut download_s = 0.0;
        for slot in &poses {
            download_s += self.device.download_slice(slot);
        }

        BatchedDockOutcome { poses, ledger, upload_s, download_s }
    }
}

/// One-time receptor forward transforms: block `b` transforms component `b`.
/// The whole pass (plan construction included) executes in block 0's write
/// window so the produced plan is the one shared by every later transform.
struct ReceptorTransformKernel<'a> {
    receptor: &'a ReceptorGrids,
    flops_per_transform: u64,
    output: &'a Staged<Option<ReceptorTransforms>>,
}

impl BlockKernel for ReceptorTransformKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let n3 = self.receptor.spec.len() as u64;
        if ctx.block_idx == 0 {
            let transforms = ReceptorTransforms::compute(self.receptor);
            *self.output.write() = Some(transforms);
        }
        // Accounting per component: read the real grid, run one forward
        // transform, write the complex result.
        ctx.record_global_reads(n3);
        ctx.record_flops(self.flops_per_transform);
        ctx.record_global_writes(2 * n3);
        ctx.sync_threads();
    }
}

/// Batched ligand forward transform: block `g` forward-transforms ligand grid
/// `g = slot * n_terms + term` zero-padded into the receptor dimensions, into
/// its kept spectrum ([`Fft3Plan::forward_real_padded_into`], the per-rotation
/// path's call).
struct LigandForwardKernel<'a> {
    batch: &'a [LigandGrids],
    plan: &'a ReceptorTransforms,
    freq: &'a [Staged<Vec<Complex>>],
    n: usize,
    n_terms: usize,
}

impl BlockKernel for LigandForwardKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let g = ctx.block_idx;
        if g >= self.freq.len() {
            return;
        }
        let (slot, term) = (g / self.n_terms, g % self.n_terms);
        let n = self.n;
        let ligand = &self.batch[slot].terms[term];
        self.plan.plan().forward_real_padded_into(ligand, &mut self.freq[g].write());

        let n3 = (n * n * n) as u64;
        // Read the compact ligand entries, scatter into the padded complex
        // grid, one forward transform, write the spectrum.
        ctx.record_global_reads(self.batch[slot].terms[term].len() as u64);
        ctx.record_global_writes(2 * n3);
        ctx.record_flops(self.plan.plan().flops_per_transform());
        ctx.sync_threads();
    }
}

/// Pointwise conjugate-multiply: block `g` computes
/// `freq[g] = conj(freq[g]) .* receptor_fft[term]` (the correlation theorem).
struct ConjMultiplyKernel<'a> {
    transforms: &'a ReceptorTransforms,
    freq: &'a [Staged<Vec<Complex>>],
    n: usize,
    n_terms: usize,
}

impl BlockKernel for ConjMultiplyKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let g = ctx.block_idx;
        if g >= self.freq.len() {
            return;
        }
        let term = g % self.n_terms;
        let receptor_fft = self.transforms.term_fft(term);
        {
            let mut data = self.freq[g].write();
            for (l, r) in data.iter_mut().zip(receptor_fft) {
                *l = l.conj() * *r;
            }
        }
        let n3 = (self.n * self.n * self.n) as u64;
        // Per voxel: read both complex values, one complex multiply (6 flops),
        // write the complex product.
        ctx.record_global_reads(4 * n3);
        ctx.record_flops(6 * n3);
        ctx.record_global_writes(2 * n3);
        ctx.sync_threads();
    }
}

/// Batched inverse transform: block `g` inverse-transforms its spectrum in
/// place, whose real parts are then the correlation grid — it stays in device
/// global memory for the epilogue; it is never downloaded.
struct InverseKernel<'a> {
    plan: &'a ReceptorTransforms,
    freq: &'a [Staged<Vec<Complex>>],
}

impl BlockKernel for InverseKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let g = ctx.block_idx;
        if g >= self.freq.len() {
            return;
        }
        let mut data = self.freq[g].write();
        self.plan.plan().transform_in_place(&mut data, Direction::Inverse);

        let n3 = data.len() as u64;
        ctx.record_global_reads(2 * n3);
        ctx.record_flops(self.plan.plan().flops_per_transform());
        ctx.record_global_writes(n3);
        ctx.sync_threads();
    }
}

/// One batch slot's epilogue grids, kept device buffers the epilogue
/// overwrites in full.
struct EpilogueGrids {
    desolv: Grid3<Real>,
    scores: Grid3<Real>,
}

impl EpilogueGrids {
    fn into_vecs(self) -> [Vec<Real>; 2] {
        [self.desolv.into_vec(), self.scores.into_vec()]
    }
}

/// Fused scoring epilogue: block `s` accumulates the desolvation components,
/// applies the Equation (2) weights and runs top-K filtering with region
/// exclusion for batch slot `s` — exact [`crate::filter`] arithmetic, entirely
/// on the device side of the modeled link.
struct FusedEpilogueKernel<'a> {
    /// Inverse-transformed spectra, `spectra[slot * n_terms + term]`; their
    /// real parts are the correlation grids.
    spectra: &'a [Vec<Complex>],
    /// Desolvation and score grids, `scratch[slot]`.
    scratch: &'a [Staged<EpilogueGrids>],
    rotation_indices: &'a [usize],
    weights: EnergyWeights,
    n_terms: usize,
    n_desolv: usize,
    k: usize,
    exclusion_radius: usize,
    poses: &'a Staged<Vec<Vec<Pose>>>,
}

impl BlockKernel for FusedEpilogueKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let slot = ctx.block_idx;
        if slot >= self.rotation_indices.len() {
            return;
        }
        let terms = &self.spectra[slot * self.n_terms..(slot + 1) * self.n_terms];
        let mut grids = self.scratch[slot].write();
        let EpilogueGrids { desolv, scores } = &mut *grids;
        filter::accumulate_desolvation_into(terms, self.n_desolv, desolv.as_mut_slice());
        let desolv = desolv.as_slice();
        filter::score_grid_into(terms, desolv, &self.weights, self.n_desolv, scores.as_mut_slice());
        let selected = filter::filter_top_k(
            scores,
            self.k,
            self.exclusion_radius,
            self.rotation_indices[slot],
        );

        let n3 = scores.len() as u64;
        // Accumulation reads the desolvation components; scoring reads the
        // weighted components + the accumulated total (as in the standalone
        // kernels this fuses), with no intermediate grid round-tripping
        // through global memory.
        ctx.record_global_reads((self.n_desolv as u64 + 5) * n3);
        ctx.record_flops((self.n_desolv as u64 + 6) * n3);
        // Per-thread local best in shared memory, master gathers per round.
        ctx.record_shared_accesses(ctx.threads_per_block as u64 * (self.k as u64 + 1));
        ctx.sync_threads();
        // Each filtering round rescans the candidates and marks the exclusion
        // neighbourhood in a global-memory exclusion array.
        let excl = (2 * self.exclusion_radius as u64 + 1).pow(3);
        ctx.record_global_reads(self.k as u64 * n3 / ctx.threads_per_block.max(1) as u64);
        ctx.record_global_writes(self.k as u64 * excl);
        ctx.record_global_writes(selected.len() as u64);
        self.poses.write()[slot] = selected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft_engine::FftCorrelationEngine;
    use crate::grids::GridSpec;
    use ftmap_math::RotationSet;
    use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn setup(dim: usize) -> (ReceptorGrids, Probe) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let spec = GridSpec::centered_on(&protein.atoms, dim, 2.0);
        let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);
        let probe = Probe::new(ProbeType::Acetone, &ff);
        (receptor, probe)
    }

    fn ligands_for(probe: &Probe, rotations: &RotationSet) -> Vec<LigandGrids> {
        rotations.iter().map(|r| LigandGrids::build(&probe.atoms, r, 2.0, 4)).collect()
    }

    #[test]
    fn dock_batch_is_invariant_to_the_launch_worker_count() {
        // One worker (every launch inline on the caller) and the full device
        // must give the same receptor transforms, poses, transfer bytes and
        // ledger counters across the receptor-transform, ligand-forward,
        // multiply, inverse and fused-epilogue launches; only the modeled
        // seconds differ, because the specs do.
        let (receptor, probe) = setup(16);
        let batch = ligands_for(&probe, &RotationSet::uniform(5));
        let indices: Vec<usize> = (0..batch.len()).collect();
        let run = |device: &Device| {
            let engine = BatchedFftEngine::new(device, &receptor);
            let out = engine.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 3, 2);
            let transforms: Vec<u64> = (0..engine.transforms().n_terms())
                .flat_map(|t| engine.transforms().term_fft(t).iter())
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect();
            let poses: Vec<_> = out
                .poses
                .iter()
                .flatten()
                .map(|p| (p.rotation_index, p.translation, p.score.to_bits()))
                .collect();
            let ledger: Vec<_> = out
                .ledger
                .phases()
                .map(|(phase, stats)| {
                    let launches = out.ledger.launches(phase);
                    (
                        phase.to_string(),
                        launches,
                        stats.blocks,
                        stats.threads_per_block,
                        stats.counters,
                    )
                })
                .collect();
            (transforms, poses, device.transfer_snapshot().bytes, ledger)
        };
        let one_worker =
            Device::new(gpu_sim::DeviceSpec { sm_count: 1, ..gpu_sim::DeviceSpec::tesla_c1060() });
        let (inline_transforms, inline_poses, inline_bytes, inline_ledger) = run(&one_worker);
        let (spread_transforms, spread_poses, spread_bytes, spread_ledger) =
            run(&Device::tesla_c1060());
        assert!(!inline_poses.is_empty() && inline_ledger.len() == 4, "{inline_ledger:?}");
        assert!(inline_transforms == spread_transforms, "receptor transforms differ bitwise");
        assert_eq!(inline_poses, spread_poses);
        assert_eq!(inline_bytes, spread_bytes, "transfer bytes");
        assert_eq!(inline_ledger, spread_ledger, "ledger counters");
    }

    #[test]
    fn dirty_kept_buffers_never_leak_into_results() {
        // A device whose `f64` and `Complex` free lists hold NaN, `-0.0`,
        // `-1e300` and wrong-length buffers must give the same poses, ledger
        // stats and counters as a fresh one — and again once every buffer
        // comes back from a previous batch.
        let (receptor, probe) = setup(16);
        let batch = ligands_for(&probe, &RotationSet::uniform(6));
        let indices: Vec<usize> = (0..batch.len()).collect();
        let run = |device: &Device| {
            let engine = BatchedFftEngine::new(device, &receptor);
            let out = engine.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 5, 2);
            let poses: Vec<_> = out
                .poses
                .iter()
                .flatten()
                .map(|p| (p.rotation_index, p.translation, p.score.to_bits()))
                .collect();
            let ledger: Vec<_> = out
                .ledger
                .phases()
                .map(|(phase, stats)| {
                    let shape = (stats.blocks, stats.threads_per_block);
                    let modeled = stats.modeled_time_s.to_bits();
                    (phase.to_string(), out.ledger.launches(phase), shape, stats.counters, modeled)
                })
                .collect();
            (poses, ledger, out.upload_s.to_bits(), out.download_s.to_bits())
        };

        let dirty = Device::tesla_c1060();
        let n3 = 16 * 16 * 16;
        let reals: Vec<Vec<f64>> = (0..200).map(|_| dirty.result_buffer(1)).collect();
        dirty.recycle_result_buffers(reals.into_iter().enumerate().map(|(i, _)| match i % 4 {
            0 => vec![f64::NAN; n3],
            1 => vec![-0.0; n3 + 37],
            2 => vec![-1.0e300; n3],
            _ => vec![f64::from_bits(0x7ff4_dead_beef_0001); 100],
        }));
        let spectra: Vec<Vec<Complex>> = (0..100).map(|_| dirty.result_buffer(1)).collect();
        dirty.recycle_result_buffers(spectra.into_iter().enumerate().map(|(i, _)| match i % 4 {
            0 => vec![Complex::new(f64::NAN, f64::NAN); n3],
            1 => vec![Complex::new(-0.0, -0.0); n3 - 5],
            2 => vec![Complex::new(-1.0e300, 1.0e300); n3],
            _ => vec![Complex::new(-0.0, f64::NAN); 2 * n3],
        }));

        let fresh = run(&Device::tesla_c1060());
        assert!(!fresh.0.is_empty() && fresh.1.len() == 4, "{:?}", fresh.1);
        assert!(run(&dirty) == fresh, "a dirty free list changed a result");
        // Second pass: every buffer now comes back from the previous batch.
        assert!(run(&dirty) == fresh, "a reused kept buffer changed a result");
    }

    #[test]
    fn batched_poses_are_bit_identical_to_per_rotation_path() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        // Make the raw receptor resident so the derived entry can cache.
        let key = receptor.content_key();
        let bytes = receptor.resident_bytes();
        let shared = Arc::new(receptor);
        device
            .residency()
            .get_or_insert_with(key, || (Arc::clone(&shared) as gpu_sim::ResidentPayload, bytes));

        let rotations = RotationSet::uniform(5);
        let batch = ligands_for(&probe, &rotations);
        let indices: Vec<usize> = (0..batch.len()).collect();
        let weights = EnergyWeights::default();

        let engine = BatchedFftEngine::new(&device, &shared);
        let out = engine.dock_batch(&batch, &indices, &weights, 4, 3, 2);

        let reference = FftCorrelationEngine::new(&shared);
        for (slot, ligand) in batch.iter().enumerate() {
            let results = reference.correlate_rotation(ligand);
            let desolv = filter::accumulate_desolvation(&results, 4);
            let scores = filter::score_grid(&results, &desolv, &weights, 4);
            let expect = filter::filter_top_k(&scores, 3, 2, slot);
            assert_eq!(out.poses[slot], expect, "slot {slot}");
            for pose in &out.poses[slot] {
                // Bit-identical scores, not merely close.
                assert!(expect.iter().any(|e| e.score.to_bits() == pose.score.to_bits()));
            }
        }
        assert!(out.upload_s > 0.0);
        assert!(out.download_s > 0.0);
        assert!(out.ledger.total_modeled_s() > 0.0);
    }

    #[test]
    fn second_engine_hits_the_derived_transform_cache() {
        let (receptor, _) = setup(16);
        let device = Device::tesla_c1060();
        let key = receptor.content_key();
        let bytes = receptor.resident_bytes();
        let shared = Arc::new(receptor);
        device
            .residency()
            .get_or_insert_with(key, || (Arc::clone(&shared) as gpu_sim::ResidentPayload, bytes));

        let first = BatchedFftEngine::new(&device, &shared);
        assert!(matches!(first.transform_residency(), TransformResidency::Computed { .. }));
        assert!(first.transform_residency().modeled_s() > 0.0);

        let second = BatchedFftEngine::new(&device, &shared);
        assert_eq!(second.transform_residency(), TransformResidency::Hit);
        // Borrowed, not recomputed: both engines share the cached payload.
        assert!(Arc::ptr_eq(first.transforms(), second.transforms()));
        let derived = device.residency().derived_stats();
        assert_eq!(derived.insertions, 1);
        assert!(derived.hits >= 1);
    }

    #[test]
    fn non_resident_receptor_computes_transforms_uncached() {
        let (receptor, _) = setup(16);
        let device = Device::tesla_c1060();
        // Raw grids never made resident: the derived entry must be refused.
        let engine = BatchedFftEngine::new(&device, &receptor);
        assert!(matches!(engine.transform_residency(), TransformResidency::Uncached { .. }));
        assert!(engine.transform_residency().modeled_s() > 0.0);
        assert_eq!(device.residency().derived_stats().insertions, 0);
    }

    #[test]
    fn download_carries_only_retained_poses() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let rotations = RotationSet::uniform(4);
        let batch = ligands_for(&probe, &rotations);
        let indices: Vec<usize> = (0..batch.len()).collect();

        let engine = BatchedFftEngine::new(&device, &receptor);
        let before = device.transfer_snapshot();
        let out = engine.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 4, 2);
        let delta = device.transfer_snapshot().delta_since(&before);

        let n_poses: usize = out.poses.iter().map(Vec::len).sum();
        let pose_bytes = n_poses * std::mem::size_of::<Pose>();
        let ligand_bytes: usize = batch
            .iter()
            .map(|l| l.terms.iter().map(Grid3::len).sum::<usize>() * std::mem::size_of::<Real>())
            .sum();
        // The byte counter covers both directions: compact ligand grids up,
        // retained poses down — and nothing else (no N³ score grids).
        assert_eq!(delta.bytes, ligand_bytes + pose_bytes);
        assert!(delta.download_s > 0.0);
        let full_grids = batch.len() * 16 * 16 * 16 * std::mem::size_of::<Real>();
        assert!(pose_bytes * 10 < full_grids, "pose download must be ≥10× below full grids");
    }

    #[test]
    fn launch_count_grows_with_batches_not_rotations() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let rotations = RotationSet::uniform(7);
        let batch = ligands_for(&probe, &rotations);
        let indices: Vec<usize> = (0..batch.len()).collect();
        let engine = BatchedFftEngine::new(&device, &receptor);
        let out = engine.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 2, 2);
        // One forward, one multiply, one inverse, one epilogue — regardless of
        // the number of rotations in the batch.
        assert_eq!(out.ledger.total_launches(), 4);
        assert_eq!(out.ledger.launches(PHASE_LIGAND_FFT), 1);
        assert_eq!(out.ledger.launches(PHASE_FUSED_EPILOGUE), 1);
    }

    mod epilogue_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The fused on-device epilogue selects exactly the poses the
            /// host-side `filter::filter_top_k` selects, for arbitrary score
            /// grids, retention counts and exclusion radii. The arbitrary
            /// grid enters as the sole desolvation component with all other
            /// weights zeroed, so the score grid *is* the arbitrary data.
            #[test]
            fn fused_epilogue_matches_host_filter(
                values in prop::collection::vec(-100.0f64..100.0, 512),
                k in 0usize..6,
                exclusion_radius in 0usize..3,
                rotation_index in 0usize..500,
            ) {
                let n = 8; // 8³ = 512 voxels
                let mut results: Vec<Grid3<Real>> = (0..5).map(|_| Grid3::cubic(n)).collect();
                results[4] = Grid3::from_vec(n, n, n, values.clone());
                let spectra: Vec<Vec<Complex>> = results
                    .iter()
                    .map(|g| g.as_slice().iter().map(|&v| Complex::new(v, f64::NAN)).collect())
                    .collect();
                let weights =
                    EnergyWeights { shape_core: 0.0, shape_attr: 0.0, elec: 0.0, desolv: 1.0 };

                let device = Device::tesla_c1060();
                let poses: Staged<Vec<Vec<Pose>>> = Staged::new(vec![Vec::new(); 1]);
                let garbage = || Grid3::from_vec(n, n, n, vec![f64::NAN; 512]);
                let scratch = [Staged::new(EpilogueGrids { desolv: garbage(), scores: garbage() })];
                let kernel = FusedEpilogueKernel {
                    spectra: &spectra,
                    scratch: &scratch,
                    rotation_indices: &[rotation_index],
                    weights,
                    n_terms: 5,
                    n_desolv: 1,
                    k,
                    exclusion_radius,
                    poses: &poses,
                };
                KernelLaunch::on(&device).grid(1).threads(256).run(&kernel);
                let device_poses = poses.take().remove(0);

                let desolv = filter::accumulate_desolvation(&results, 1);
                let scores = filter::score_grid(&results, &desolv, &weights, 1);
                let host_poses = filter::filter_top_k(&scores, k, exclusion_radius, rotation_index);
                prop_assert_eq!(device_poses, host_poses);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rotation")]
    fn empty_batch_panics() {
        let (receptor, _) = setup(16);
        let device = Device::tesla_c1060();
        let engine = BatchedFftEngine::new(&device, &receptor);
        let _ = engine.dock_batch(&[], &[], &EnergyWeights::default(), 4, 2, 2);
    }
}
