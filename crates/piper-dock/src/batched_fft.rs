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
//! 3. **Fused top-K epilogue.** Top-K filtering (exact [`crate::filter`]
//!    semantics) runs inside the correlation epilogue *before any download*,
//!    which also stands for the modeled accumulation and scoring: only the
//!    retained poses are transfer-accounted, and the full `N³` score grids
//!    never cross the modeled PCIe link.
//!
//! Per rotation, both FFT engines run one score routine,
//! [`ReceptorTransforms::score_rotation`]: a real-input forward transform of each
//! zero-padded ligand term into its half spectrum (`N × N × (N/2 + 1)` bins,
//! [`Fft3Plan::forward_real_padded_into`]), the conjugate product with the
//! receptor term's half spectrum, the Equation (2) sum of the products in the
//! order of [`filter::score_into`] (desolvation products from `+0.0`, then the
//! weighted terms from `+0.0`, then `w_desolv` times the desolvation sum), and
//! **one** real-output inverse of that sum, which is the rotation's score grid.
//! The inverse transform is linear, so the score needs no per-term correlation
//! grid: per rotation, `n_terms − 1` inverses and their `N³` grids are never
//! made. This engine runs the steps as its launches — forward, multiply, then
//! sum and inverse in the inverse launch — and the epilogue filters the score
//! grid, so its retained poses are bit-identical to `FftSerial`'s by
//! construction. Against the per-term path
//! ([`crate::fft_engine::FftCorrelationEngine::correlate_rotation`] followed by
//! the host accumulate/score/filter tail) the scores differ in their last bits,
//! within the naive oracle's tolerance, and on every case the tests check the
//! retained pose places are the same.
//!
//! **Modeled side.** The host uses linearity; the model still prices the
//! paper's algorithm. The launches, their counters, the upload and download
//! bytes, [`TransformResidency`]'s seconds and
//! [`ReceptorTransforms::resident_bytes`] all price *complex* transforms of full
//! `N³` grids, with one inverse per (rotation, term): the inverse launch keeps
//! its `batch × n_terms` blocks, of which the leading ones are counted
//! ([`BlockKernel::counted_blocks`]) and the last `batch` do the host's work,
//! and the epilogue still records accumulation and scoring.
//!
//! A batch's grid-sized buffers are kept device buffers
//! ([`Device::result_buffer`]), so a warm batch allocates none: per slot a half
//! spectrum per term, their summed spectrum and one real score grid. All of them
//! go back to the device after the epilogue, the last launch that reads them.

use crate::filter;
use crate::grids::{EnergyWeights, LigandGrids, ReceptorGrids};
use crate::pose::Pose;
use ftmap_math::fft::Fft3Plan;
use ftmap_math::{Complex, Grid3, Real};
use gpu_sim::{
    BlockContext, BlockKernel, Device, KernelLaunch, MemoryCounters, Residency, Staged, StatsLedger,
};
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
/// half spectrum of each receptor component grid plus the twiddle-table plan
/// that produced them, and the score routine every FFT engine runs
/// (`ReceptorTransforms::score_rotation`, or its steps one launch at a time),
/// so every transform in a docking run replays the same arithmetic.
pub struct ReceptorTransforms {
    dim: usize,
    plan: Fft3Plan,
    term_ffts: Vec<Vec<Complex>>,
}

impl ReceptorTransforms {
    /// Forward-transforms every receptor component grid with a fresh plan.
    ///
    /// [`crate::fft_engine::FftCorrelationEngine::new`] calls this; the batched
    /// engine makes the same [`Fft3Plan::forward_real_padded_into`] call per
    /// term, one block each, so both paths start from the same spectra by
    /// construction. The
    /// receptor grids are full-size, so the forward pads and skips nothing.
    ///
    /// # Panics
    /// Panics if the receptor grid dimension is not a power of two.
    pub(crate) fn compute(receptor: &ReceptorGrids) -> Self {
        let plan = Self::plan_for(receptor);
        let term_ffts = receptor
            .terms
            .iter()
            .map(|grid| {
                let mut spectrum = Vec::new();
                plan.forward_real_padded_into(grid, &mut spectrum);
                spectrum
            })
            .collect();
        Self::from_parts(receptor, plan, term_ffts)
    }

    /// The plan for the receptor's `N³` grids.
    fn plan_for(receptor: &ReceptorGrids) -> Fft3Plan {
        let dim = receptor.spec.dim;
        Fft3Plan::new(dim, dim, dim)
    }

    fn from_parts(receptor: &ReceptorGrids, plan: Fft3Plan, term_ffts: Vec<Vec<Complex>>) -> Self {
        assert_eq!(term_ffts.len(), receptor.n_terms(), "one spectrum per receptor term");
        ReceptorTransforms { dim: receptor.spec.dim, plan, term_ffts }
    }

    /// Grid dimension `N`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of energy components.
    pub fn n_terms(&self) -> usize {
        self.term_ffts.len()
    }

    /// The half spectrum of receptor component `term`, laid out as
    /// [`Fft3Plan::forward_real_padded_into`] writes it.
    pub fn term_fft(&self, term: usize) -> &[Complex] {
        &self.term_ffts[term]
    }

    /// Device bytes this payload occupies, as the residency cache charges it
    /// against the memory budget for the derived entry: `n_terms` complex
    /// `N³` transform grids plus the plan's twiddle tables. Like every modeled
    /// figure, this prices the paper's complex transforms; the host keeps only
    /// the half spectra.
    pub fn resident_bytes(&self) -> usize {
        let grids = self.n_terms() * self.plan.len() * std::mem::size_of::<Complex>();
        grids + self.plan.table_bytes()
    }

    /// Floating-point work of one modeled transform (the paper's complex FFT).
    pub(crate) fn flops_per_transform(&self) -> u64 {
        self.plan.flops_per_transform()
    }

    /// Step 1 of a term's correlation: the half spectrum of the ligand grid,
    /// zero-padded into the plan's dimensions, into a kept buffer — the call
    /// that transformed the receptor grids.
    pub(crate) fn forward_ligand(&self, ligand: &Grid3<Real>, spectrum: &mut Vec<Complex>) {
        self.plan.forward_real_padded_into(ligand, spectrum);
    }

    /// Step 2: `spectrum = conj(spectrum) .* receptor_fft[term]` over the half
    /// spectrum (the correlation theorem).
    pub(crate) fn conj_multiply(&self, term: usize, spectrum: &mut [Complex]) {
        for (l, r) in spectrum.iter_mut().zip(&self.term_ffts[term]) {
            *l = l.conj() * *r;
        }
    }

    /// One term's correlation grid, for
    /// [`crate::fft_engine::FftCorrelationEngine::correlate_rotation`]: steps 1
    /// and 2, then the real inverse of the product into `correlation`, with
    /// `spectrum` as workspace. No docking engine calls it; they score through
    /// [`ReceptorTransforms::score_rotation`].
    pub(crate) fn correlate_term(
        &self,
        term: usize,
        ligand: &Grid3<Real>,
        spectrum: &mut Vec<Complex>,
        correlation: &mut Vec<Real>,
    ) {
        self.forward_ligand(ligand, spectrum);
        self.conj_multiply(term, spectrum);
        self.plan.inverse_real_into(spectrum, correlation);
    }

    /// Steps 3 and 4 of a rotation's score, over the term products that steps 1
    /// and 2 left in `buffers.spectra`: their Equation (2) sum into
    /// `buffers.summed` ([`filter::score_into`] over the spectra: the
    /// desolvation products from `+0.0`, then the weighted products from
    /// `+0.0`, then `w_desolv` times the desolvation sum), then one real inverse
    /// of the sum into `buffers.scores`, the rotation's score grid. The summed
    /// spectrum is the inverse's workspace. Both buffers are overwritten in
    /// full, whatever they held.
    pub(crate) fn score_products(
        &self,
        weights: &EnergyWeights,
        n_desolv: usize,
        buffers: &mut RotationBuffers,
    ) {
        let RotationBuffers { spectra, summed, scores } = buffers;
        summed.resize(spectra.first().map_or(0, Vec::len), Complex::ZERO);
        filter::score_into(spectra, weights, n_desolv, summed);
        self.plan.inverse_real_into(summed, scores);
    }

    /// One rotation's Equation (2) score grid, into `buffers.scores`: per term,
    /// the ligand's half spectrum and its product with the receptor's (steps 1
    /// and 2), then [`ReceptorTransforms::score_products`]. The batched engine
    /// runs the same steps one launch at a time.
    ///
    /// # Panics
    /// Panics if the ligand has a different number of terms than the receptor,
    /// or `n_desolv` does not match the term count.
    pub(crate) fn score_rotation(
        &self,
        ligand: &LigandGrids,
        weights: &EnergyWeights,
        n_desolv: usize,
        buffers: &mut RotationBuffers,
    ) {
        assert_eq!(ligand.n_terms(), self.n_terms(), "ligand term count must match receptor");
        buffers.spectra.resize_with(self.n_terms(), Vec::new);
        for (term, (grid, spectrum)) in ligand.terms.iter().zip(&mut buffers.spectra).enumerate() {
            self.forward_ligand(grid, spectrum);
            self.conj_multiply(term, spectrum);
        }
        self.score_products(weights, n_desolv, buffers);
    }
}

/// One rotation's kept buffers for [`ReceptorTransforms::score_rotation`]: a half
/// spectrum per term, their Equation (2) sum and the real `N³` score grid. Every
/// element is written before it is read, so they may hold anything.
#[derive(Default)]
pub(crate) struct RotationBuffers {
    /// Per term: the ligand's half spectrum, then its product with the
    /// receptor's.
    pub(crate) spectra: Vec<Vec<Complex>>,
    /// The Equation (2) sum of the products, then the inverse's workspace.
    pub(crate) summed: Vec<Complex>,
    /// The score grid, `N³` values in grid order.
    pub(crate) scores: Vec<Real>,
}

impl RotationBuffers {
    /// [`filter::filter_top_k`] over the `n³` score grid.
    pub(crate) fn top_k(
        &mut self,
        n: usize,
        k: usize,
        exclusion_radius: usize,
        rotation_index: usize,
    ) -> Vec<Pose> {
        let scores = Grid3::from_vec(n, n, n, std::mem::take(&mut self.scores));
        let poses = filter::filter_top_k(&scores, k, exclusion_radius, rotation_index);
        self.scores = scores.into_vec();
        poses
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

    /// Runs the modeled forward-transform launch over the receptor grids (block
    /// `b` transforms component `b` through a plan built before the launch) and
    /// returns the transforms with its modeled time.
    fn transform_receptor(
        device: &Device,
        receptor: &ReceptorGrids,
    ) -> (Arc<ReceptorTransforms>, f64) {
        let plan = ReceptorTransforms::plan_for(receptor);
        let spectra: Vec<Staged<Vec<Complex>>> =
            receptor.terms.iter().map(|_| Staged::new(Vec::new())).collect();
        ftmap_trace::hook::mark(PHASE_RECEPTOR_FFT);
        let kernel = ReceptorTransformKernel { receptor, plan: &plan, spectra: &spectra };
        let stats = KernelLaunch::on(device).grid(receptor.n_terms()).threads(64).run(&kernel);
        let term_ffts = spectra.into_iter().map(Staged::take).collect();
        let transforms = ReceptorTransforms::from_parts(receptor, plan, term_ffts);
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
    /// forward transform, one conjugate-multiply pass, one batched inverse
    /// (each slot's summed products into its score grid), and the fused top-K
    /// epilogue — downloading only the retained poses.
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

        // Kept device buffers, per slot: a half spectrum per term, which the
        // forward kernel sizes and overwrites in full, the summed spectrum and
        // the score grid, which the inverse kernel overwrites in full.
        let (n3, bins) = (n * n * n, self.transforms.term_fft(0).len());
        let grids = BatchGrids {
            slots: (0..batch.len())
                .map(|_| {
                    Staged::new(RotationBuffers {
                        spectra: (0..n_terms).map(|_| self.device.result_buffer(0)).collect(),
                        summed: self.device.result_buffer(bins),
                        scores: self.device.result_buffer(n3),
                    })
                })
                .collect(),
            n_terms,
        };

        // 1. One batched forward transform over every ligand grid.
        ftmap_trace::hook::mark(PHASE_LIGAND_FFT);
        let forward = LigandForwardKernel { batch, transforms: &self.transforms, grids: &grids, n };
        KernelLaunch::on(self.device).grid(n_grids).threads(self.threads_per_block).run_recorded(
            &mut ledger,
            PHASE_LIGAND_FFT,
            &forward,
        );

        // 2. One pointwise conjugate-multiply pass against the resident
        //    receptor transforms.
        ftmap_trace::hook::mark(PHASE_CONJ_MULTIPLY);
        let multiply = ConjMultiplyKernel { transforms: &self.transforms, grids: &grids, n };
        KernelLaunch::on(self.device).grid(n_grids).threads(self.threads_per_block).run_recorded(
            &mut ledger,
            PHASE_CONJ_MULTIPLY,
            &multiply,
        );

        // 3. One batched inverse launch: each slot's summed products into its
        //    score grid.
        ftmap_trace::hook::mark(PHASE_INVERSE_FFT);
        let inverse = InverseKernel {
            transforms: &self.transforms,
            grids: &grids,
            weights: *weights,
            n_desolv,
            n,
        };
        KernelLaunch::on(self.device).grid(n_grids).threads(self.threads_per_block).run_recorded(
            &mut ledger,
            PHASE_INVERSE_FFT,
            &inverse,
        );

        // 4. Fused epilogue: top-K per rotation, one block per batch slot,
        //    before anything is downloaded.
        ftmap_trace::hook::mark(PHASE_FUSED_EPILOGUE);
        let poses: Staged<Vec<Vec<Pose>>> = Staged::new(vec![Vec::new(); batch.len()]);
        let epilogue = FusedEpilogueKernel {
            slots: &grids.slots,
            rotation_indices,
            n,
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
        // The epilogue was the last launch to read the batch's buffers.
        for slot in grids.slots {
            let RotationBuffers { spectra, summed, scores } = slot.take();
            self.device.recycle_result_buffers(spectra.into_iter().chain([summed]));
            self.device.recycle_result_buffers([scores]);
        }

        // Download only the retained poses — never the N³ score grids.
        let mut download_s = 0.0;
        for slot in &poses {
            download_s += self.device.download_slice(slot);
        }

        BatchedDockOutcome { poses, ledger, upload_s, download_s }
    }
}

/// One-time receptor forward transforms: block `b` transforms component `b`
/// through the plan built before the launch, which every later transform
/// shares.
struct ReceptorTransformKernel<'a> {
    receptor: &'a ReceptorGrids,
    plan: &'a Fft3Plan,
    spectra: &'a [Staged<Vec<Complex>>],
}

impl BlockKernel for ReceptorTransformKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let Some(grid) = self.receptor.terms.get(ctx.block_idx) else {
            return;
        };
        self.plan.forward_real_padded_into(grid, &mut self.spectra[ctx.block_idx].write());
        // Accounting per component: read the real grid, run one forward
        // transform, write the complex result.
        let n3 = self.receptor.spec.len() as u64;
        ctx.record_global_reads(n3);
        ctx.record_flops(self.plan.flops_per_transform());
        ctx.record_global_writes(2 * n3);
        ctx.sync_threads();
    }
}

/// A batch's kept buffers, shared by its four launches. Block
/// `g = slot * n_terms + term` of the forward and multiply launches works on
/// `slots[slot].spectra[term]`.
struct BatchGrids {
    slots: Vec<Staged<RotationBuffers>>,
    n_terms: usize,
}

impl BatchGrids {
    /// Runs `work` on block `g`'s spectrum, if the batch has a block `g`. The
    /// slot's other terms are other blocks' work, so its lock is held only to
    /// take the spectrum out and to put it back.
    fn with_spectrum(&self, g: usize, work: impl FnOnce(&mut Vec<Complex>)) -> bool {
        let Some(slot) = self.slots.get(g / self.n_terms) else {
            return false;
        };
        let term = g % self.n_terms;
        let mut spectrum = std::mem::take(&mut slot.write().spectra[term]);
        work(&mut spectrum);
        slot.write().spectra[term] = spectrum;
        true
    }
}

/// Batched ligand forward transform: block `g` forward-transforms ligand grid
/// `g = slot * n_terms + term` zero-padded into the receptor dimensions, into
/// its kept half spectrum (step 1 of [`ReceptorTransforms::score_rotation`]).
struct LigandForwardKernel<'a> {
    batch: &'a [LigandGrids],
    transforms: &'a ReceptorTransforms,
    grids: &'a BatchGrids,
    n: usize,
}

impl BlockKernel for LigandForwardKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let g = ctx.block_idx;
        let n_terms = self.grids.n_terms;
        let Some(ligand) = self.batch.get(g / n_terms).map(|l| &l.terms[g % n_terms]) else {
            return;
        };
        self.grids.with_spectrum(g, |spectrum| self.transforms.forward_ligand(ligand, spectrum));

        let n3 = (self.n * self.n * self.n) as u64;
        // Read the compact ligand entries, scatter into the padded complex
        // grid, one forward transform, write the spectrum.
        ctx.record_global_reads(ligand.len() as u64);
        ctx.record_global_writes(2 * n3);
        ctx.record_flops(self.transforms.flops_per_transform());
        ctx.sync_threads();
    }
}

/// Pointwise conjugate-multiply: block `g` computes
/// `spectrum = conj(spectrum) .* receptor_fft[term]` over its half spectrum
/// (step 2 of [`ReceptorTransforms::score_rotation`]).
struct ConjMultiplyKernel<'a> {
    transforms: &'a ReceptorTransforms,
    grids: &'a BatchGrids,
    n: usize,
}

impl BlockKernel for ConjMultiplyKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let term = ctx.block_idx % self.grids.n_terms;
        let multiply = |spectrum: &mut Vec<Complex>| self.transforms.conj_multiply(term, spectrum);
        if !self.grids.with_spectrum(ctx.block_idx, multiply) {
            return;
        }
        let n3 = (self.n * self.n * self.n) as u64;
        // Per voxel of the modeled complex grid: read both complex values, one
        // complex multiply (6 flops), write the complex product.
        ctx.record_global_reads(4 * n3);
        ctx.record_flops(6 * n3);
        ctx.record_global_writes(2 * n3);
        ctx.sync_threads();
    }
}

/// Batched inverse launch, modeled as one inverse per (slot, term). The host
/// needs one per slot: the last `batch` blocks each sum their slot's products
/// and inverse-transform the sum into the slot's score grid
/// ([`ReceptorTransforms::score_products`]), which stays in device global
/// memory for the epilogue. The leading blocks are counted
/// ([`BlockKernel::counted_blocks`]) with the counters of the inverses they
/// stand for.
struct InverseKernel<'a> {
    transforms: &'a ReceptorTransforms,
    grids: &'a BatchGrids,
    weights: EnergyWeights,
    n_desolv: usize,
    n: usize,
}

impl InverseKernel<'_> {
    /// What `blocks` modeled inverses record: each reads the complex spectrum,
    /// runs one transform, writes the real grid and passes one barrier.
    fn counters(&self, blocks: u64) -> MemoryCounters {
        let n3 = (self.n * self.n * self.n) as u64;
        MemoryCounters {
            global_reads: blocks * 2 * n3,
            flops: blocks * self.transforms.flops_per_transform(),
            global_writes: blocks * n3,
            barriers: blocks,
            ..MemoryCounters::new()
        }
    }

    /// The number of counted blocks: all but one per slot.
    fn counted(&self) -> usize {
        self.grids.slots.len() * (self.grids.n_terms - 1)
    }
}

impl BlockKernel for InverseKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let Some(slot) = ctx.block_idx.checked_sub(self.counted()) else {
            return;
        };
        let Some(buffers) = self.grids.slots.get(slot) else {
            return;
        };
        self.transforms.score_products(&self.weights, self.n_desolv, &mut buffers.write());
        let counters = self.counters(1);
        ctx.record_global_reads(counters.global_reads);
        ctx.record_flops(counters.flops);
        ctx.record_global_writes(counters.global_writes);
        ctx.sync_threads();
    }

    fn counted_blocks(&self) -> (usize, MemoryCounters) {
        (self.counted(), self.counters(self.counted() as u64))
    }
}

/// Fused scoring epilogue: block `s` runs top-K filtering with region exclusion
/// over batch slot `s`'s score grid — exact [`filter::filter_top_k`], entirely
/// on the device side of the modeled link. It records the modeled desolvation
/// accumulation and Equation (2) scoring too, which the inverse launch did on
/// the host.
struct FusedEpilogueKernel<'a> {
    /// Each batch slot's buffers; the epilogue reads the score grid.
    slots: &'a [Staged<RotationBuffers>],
    rotation_indices: &'a [usize],
    n: usize,
    n_desolv: usize,
    k: usize,
    exclusion_radius: usize,
    poses: &'a Staged<Vec<Vec<Pose>>>,
}

impl BlockKernel for FusedEpilogueKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let slot = ctx.block_idx;
        let Some(&rotation_index) = self.rotation_indices.get(slot) else {
            return;
        };
        let selected =
            self.slots[slot].write().top_k(self.n, self.k, self.exclusion_radius, rotation_index);

        let n3 = (self.n * self.n * self.n) as u64;
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

/// The per-term path the FFT engines' score routine replaced, as a test
/// reference: [`crate::fft_engine::FftCorrelationEngine::correlate_rotation`],
/// then the host's accumulation, scoring and filtering.
#[cfg(test)]
pub(crate) mod per_term {
    use super::*;
    use crate::fft_engine::FftCorrelationEngine;

    /// How far a score may lie from the per-term path's: twice the sum over
    /// terms of the naive oracle's `8 · log2(N³) · ε · Σ|L| · max|R|`
    /// (`tests/correlation_oracle.rs`), for weights at most 1 in magnitude.
    pub(crate) fn score_tolerance(ligand: &LigandGrids, receptor: &ReceptorGrids) -> Real {
        let per_term = |l: &Grid3<Real>, r: &Grid3<Real>| {
            let l1: Real = l.as_slice().iter().map(|v| v.abs()).sum();
            let r_max = r.as_slice().iter().fold(0.0, |m: Real, v| m.max(v.abs()));
            8.0 * (r.len() as Real).log2() * Real::EPSILON * l1 * r_max
        };
        2.0 * ligand.terms.iter().zip(&receptor.terms).map(|(l, r)| per_term(l, r)).sum::<Real>()
    }

    /// The per-term path's retained poses for one rotation.
    pub(crate) fn poses(
        engine: &FftCorrelationEngine,
        ligand: &LigandGrids,
        weights: &EnergyWeights,
        n_desolv: usize,
        (k, exclusion_radius): (usize, usize),
        rotation_index: usize,
    ) -> Vec<Pose> {
        let results = engine.correlate_rotation(ligand);
        let desolv = filter::accumulate_desolvation(&results, n_desolv);
        let scores = filter::score_grid(&results, &desolv, weights, n_desolv);
        filter::filter_top_k(&scores, k, exclusion_radius, rotation_index)
    }

    /// Asserts that `got` retains `want`'s poses — the same rotations and
    /// translations in the same order — with every score within `tol`.
    pub(crate) fn assert_places_and_scores_near(got: &[Pose], want: &[Pose], tol: Real) {
        let places = |poses: &[Pose]| -> Vec<_> {
            poses.iter().map(|p| (p.rotation_index, p.translation)).collect()
        };
        assert_eq!(places(got), places(want), "pose places");
        for (g, w) in got.iter().zip(want) {
            assert!((g.score - w.score).abs() <= tol, "{g:?} vs {w:?} (±{tol:e})");
        }
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
        // comes back from a previous batch. Every kept buffer (each term
        // spectrum, each slot's summed spectrum and score grid) is drawn from
        // the dirty lists, and the four poison kinds are rotated over the
        // lists' positions, so each buffer starts as each kind in one of the
        // four rounds.
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

        let fresh = run(&Device::tesla_c1060());
        assert!(!fresh.0.is_empty() && fresh.1.len() == 4, "{:?}", fresh.1);
        let n3 = 16 * 16 * 16;
        // The batch keeps 6 × (8 + 1) spectra and 6 score grids.
        let (n_reals, n_spectra) = (4 * 6, 4 * 6 * 9);
        for shift in 0..4 {
            let dirty = Device::tesla_c1060();
            let reals: Vec<Vec<f64>> = (0..n_reals).map(|_| dirty.result_buffer(1)).collect();
            dirty.recycle_result_buffers(reals.into_iter().enumerate().map(|(i, _)| {
                match (i + shift) % 4 {
                    0 => vec![f64::NAN; n3],
                    1 => vec![-0.0; n3 + 37],
                    2 => vec![-1.0e300; n3],
                    _ => vec![f64::from_bits(0x7ff4_dead_beef_0001); 100],
                }
            }));
            let spectra: Vec<Vec<Complex>> =
                (0..n_spectra).map(|_| dirty.result_buffer(1)).collect();
            dirty.recycle_result_buffers(spectra.into_iter().enumerate().map(|(i, _)| {
                match (i + shift) % 4 {
                    0 => vec![Complex::new(f64::NAN, f64::NAN); n3],
                    1 => vec![Complex::new(-0.0, -0.0); n3 - 5],
                    2 => vec![Complex::new(-1.0e300, 1.0e300); n3],
                    _ => vec![Complex::new(-0.0, f64::NAN); 2 * n3],
                }
            }));
            assert!(run(&dirty) == fresh, "a dirty free list changed a result (shift {shift})");
            // Second pass: every buffer now comes back from the previous batch.
            assert!(run(&dirty) == fresh, "a reused kept buffer changed a result");
        }
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

        // The shared score routine, one rotation at a time, on its own buffers:
        // bit-identical poses, scores included.
        let reference = FftCorrelationEngine::new(&shared);
        let mut buffers = RotationBuffers::default();
        for (slot, ligand) in batch.iter().enumerate() {
            engine.transforms().score_rotation(ligand, &weights, 4, &mut buffers);
            let expect = buffers.top_k(16, 3, 2, slot);
            let bits = |poses: &[Pose]| -> Vec<_> {
                poses.iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())).collect()
            };
            assert_eq!(bits(&out.poses[slot]), bits(&expect), "slot {slot}");
            // The per-term path retains the same places, scores within the
            // oracle's tolerance.
            let per_term = per_term::poses(&reference, ligand, &weights, 4, (3, 2), slot);
            let tol = per_term::score_tolerance(ligand, &shared);
            per_term::assert_places_and_scores_near(&out.poses[slot], &per_term, tol);
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
            /// host-side `filter::filter_top_k` selects over the shared score
            /// routine's grid, bit for bit, for arbitrary receptor values,
            /// retention counts and exclusion radii; and the per-term path
            /// retains the same places with scores within the oracle's
            /// tolerance. The arbitrary values replace the receptor's shape
            /// core term, whose weight is the only non-zero one.
            #[test]
            fn fused_epilogue_matches_host_filter(
                values in prop::collection::vec(-100.0f64..100.0, 512),
                k in 0usize..6,
                exclusion_radius in 0usize..3,
                rotation_index in 0usize..500,
            ) {
                let n = 8; // 8³ = 512 voxels
                let (mut receptor, probe) = setup(n);
                receptor.terms[0] = Grid3::from_vec(n, n, n, values);
                let ligand = LigandGrids::build(&probe.atoms, &RotationSet::uniform(1).rotations()[0], 2.0, 4);
                let weights =
                    EnergyWeights { shape_core: 1.0, shape_attr: 0.0, elec: 0.0, desolv: 0.0 };
                let transforms = ReceptorTransforms::compute(&receptor);
                let mut buffers = RotationBuffers::default();
                transforms.score_rotation(&ligand, &weights, 4, &mut buffers);
                let scores = Grid3::from_vec(n, n, n, buffers.scores.clone());

                let device = Device::tesla_c1060();
                let poses: Staged<Vec<Vec<Pose>>> = Staged::new(vec![Vec::new(); 1]);
                let slots = [Staged::new(buffers)];
                let kernel = FusedEpilogueKernel {
                    slots: &slots,
                    rotation_indices: &[rotation_index],
                    n,
                    n_desolv: 4,
                    k,
                    exclusion_radius,
                    poses: &poses,
                };
                KernelLaunch::on(&device).grid(1).threads(256).run(&kernel);
                let device_poses = poses.take().remove(0);

                let host_poses = filter::filter_top_k(&scores, k, exclusion_radius, rotation_index);
                let bits = |poses: &[Pose]| -> Vec<_> {
                    poses.iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())).collect()
                };
                prop_assert_eq!(bits(&device_poses), bits(&host_poses));

                let engine = FftCorrelationEngine::new(&receptor);
                let place = (k, exclusion_radius);
                let want = per_term::poses(&engine, &ligand, &weights, 4, place, rotation_index);
                let tol = per_term::score_tolerance(&ligand, &receptor);
                per_term::assert_places_and_scores_near(&device_poses, &want, tol);
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
