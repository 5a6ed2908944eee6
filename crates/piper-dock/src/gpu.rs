//! The paper's GPU mapping of rigid docking, on the device model (paper §III).
//!
//! Three kernels reproduce the structure of the CUDA implementation:
//!
//! * [`GpuDockingEngine::correlate_batch`] — **batched direct correlation**. The result
//!   grid is divided into x-plane slabs, one per thread block (the paper's second
//!   work-distribution scheme, Fig. 4). The sparse ligand entries of up to
//!   `GpuDockingEngine::max_batch` rotations are staged in constant memory; for each
//!   result voxel the receptor value at a given (term, offset) is fetched from global
//!   memory **once** and reused by every rotation in the batch that touches that offset
//!   — the data-reuse optimization that buys the reported 2.7× over one-rotation-at-a-
//!   time correlation. The counters record that modeled pattern; the host simulation
//!   runs the direct engines' row-wise slab routine per plane, with the same bits.
//! * [`GpuDockingEngine::accumulate_desolvation`] — sums the desolvation component
//!   results on the device (Table 1's "Accum. desolvation terms" row).
//! * `GpuDockingEngine::score_and_filter` — weighted scoring plus top-K filtering with
//!   region exclusion, run on a **single block** ("distribution across multiple
//!   multiprocessors would incur large communication overhead", §III.B), which is why
//!   its speedup is modest.
//!
//! The correlation and accumulation grids are device result buffers
//! ([`Device::result_buffer`]), which [`crate::Docking`] hands back once a batch is
//! scored. Each block zeroes its plane and writes straight into it.
//!
//! Each method returns both the numerically exact results (computed by the block-
//! parallel CPU execution) and the [`KernelStats`] whose modeled time feeds Table 1.

use crate::direct::{chunk_slots, correlate_slab, SparseLigand};
use crate::filter;
use crate::grids::{EnergyWeights, ReceptorGrids};
use crate::pose::Pose;
use ftmap_math::{Grid3, Real};
use gpu_sim::{BlockContext, BlockKernel, Device, KernelLaunch, KernelStats, Staged};
use std::collections::HashSet;

/// GPU-mapped rigid docking over a fixed receptor.
pub struct GpuDockingEngine<'a> {
    device: &'a Device,
    receptor: &'a ReceptorGrids,
    /// Threads per block used for the correlation and accumulation kernels.
    threads_per_block: usize,
}

/// Results of correlating one batch of rotations on the device.
pub struct BatchCorrelationResult {
    /// Per-rotation, per-term result grids (`results[rotation][term]`).
    pub results: Vec<Vec<Grid3<Real>>>,
    /// Kernel statistics (merged over the launch).
    pub stats: KernelStats,
    /// Modeled time spent uploading the batch's ligand entries to constant memory.
    pub upload_time_s: f64,
}

impl<'a> GpuDockingEngine<'a> {
    /// Creates an engine over receptor grids assumed to be on the device
    /// already. The grid-set upload ("done only once", §III.A) is charged by
    /// whoever made the grids resident — [`crate::Docking::from_grids`] via the
    /// device's residency cache — not per engine construction, so repeat
    /// engines against a resident receptor cost zero transfer bytes.
    pub fn new(device: &'a Device, receptor: &'a ReceptorGrids) -> Self {
        GpuDockingEngine { device, receptor, threads_per_block: 64 }
    }

    /// Maximum number of rotations whose ligand grids fit in constant memory together —
    /// the batching factor (8 for 4³ probes on the C1060).
    pub(crate) fn max_batch(&self, ligand: &SparseLigand) -> usize {
        let words = ligand.constant_mem_words().max(1);
        (self.device.spec().constant_mem_words() / words).clamp(1, 8)
    }

    /// Direct correlation of a batch of rotations (already reduced to sparse ligands).
    pub fn correlate_batch(&self, batch: &[SparseLigand]) -> BatchCorrelationResult {
        assert!(!batch.is_empty(), "correlation batch must not be empty");
        let n = self.receptor.spec.dim;
        let n_terms = self.receptor.n_terms();

        // Upload the batch's ligand entries (constant memory).
        let upload_words: usize = batch.iter().map(|l| l.constant_mem_words()).sum();
        let upload_time_s =
            self.device.upload_bytes((upload_words * std::mem::size_of::<Real>()) as u64);

        // The set of distinct (term, offset) pairs across the batch: each is fetched
        // from global memory once per result voxel and reused across rotations.
        let unique_fetches: HashSet<(usize, (usize, usize, usize))> =
            batch.iter().flat_map(|l| l.entries.iter().map(|e| (e.term, e.offset))).collect();
        let unique_fetches_per_voxel = unique_fetches.len() as u64;
        let entries_per_voxel: u64 = batch.iter().map(|l| l.len() as u64).sum();

        // Output: per rotation, per term, from the device's result buffers.
        // Block `x` owns plane `x` of every grid and writes it in place.
        let mut buffers: Vec<Vec<Real>> =
            (0..batch.len() * n_terms).map(|_| self.device.result_buffer(n * n * n)).collect();
        let kernel = CorrelationKernel {
            receptor: self.receptor,
            batch,
            planes: plane_slots(&mut buffers, n),
            unique_fetches_per_voxel,
            entries_per_voxel,
        };
        let stats = KernelLaunch::on(self.device)
            .grid(n) // one block per x-plane (Fig. 4, second scheme)
            .threads(self.threads_per_block)
            .shared_mem_capped(batch.len() * n_terms)
            .run(&kernel);

        let mut grids = buffers.into_iter().map(|buffer| Grid3::from_vec(n, n, n, buffer));
        let results = batch.iter().map(|_| grids.by_ref().take(n_terms).collect()).collect();
        BatchCorrelationResult { results, stats, upload_time_s }
    }

    /// Device-side accumulation of the desolvation component results into one grid
    /// (a device result buffer, like the correlation grids).
    pub fn accumulate_desolvation(
        &self,
        term_results: &[Grid3<Real>],
        n_desolv: usize,
    ) -> (Grid3<Real>, KernelStats) {
        assert_eq!(term_results.len(), 4 + n_desolv, "unexpected term count");
        let n = self.receptor.spec.dim;
        let mut buffer = [self.device.result_buffer(n * n * n)];
        let kernel =
            AccumulationKernel { term_results, n_desolv, planes: plane_slots(&mut buffer, n) };
        let stats =
            KernelLaunch::on(self.device).grid(n).threads(self.threads_per_block).run(&kernel);
        let [buffer] = buffer;
        (Grid3::from_vec(n, n, n, buffer), stats)
    }

    /// Device-side scoring + filtering on a single block.
    ///
    /// Only the retained poses are transferred back to the host (one of the benefits the
    /// paper cites for filtering on the device); the returned stats include the modeled
    /// kernel time, and the pose download is charged to the device transfer accounting.
    // lint-allow(justified-allows): mirrors the host filter pipeline's
    // parameter list (weights, desolvation depth, top-K, exclusion radius)
    // so the two paths stay diffable side by side.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn score_and_filter(
        &self,
        term_results: &[Grid3<Real>],
        desolv_total: &Grid3<Real>,
        weights: &EnergyWeights,
        n_desolv: usize,
        k: usize,
        exclusion_radius: usize,
        rotation_index: usize,
    ) -> (Vec<Pose>, KernelStats) {
        let poses = Staged::new(Vec::new());
        let kernel = ScoreFilterKernel {
            term_results,
            desolv_total,
            weights: *weights,
            n_desolv,
            k,
            exclusion_radius,
            rotation_index,
            poses: &poses,
        };
        // Single thread block, as in the paper.
        let stats =
            KernelLaunch::on(self.device).grid(1).threads(256).shared_mem_capped(256).run(&kernel);
        let poses = poses.take();
        // Download only the retained poses.
        self.device.download_slice(&poses);
        (poses, stats)
    }
}

/// Per-x-plane write slots of `N³` result buffers: slot `x` holds plane `x` of
/// every buffer, in buffer order, for block `x` to write in place.
fn plane_slots(buffers: &mut [Vec<Real>], n: usize) -> Vec<Staged<Vec<&mut [Real]>>> {
    chunk_slots(buffers.iter_mut().map(Vec::as_mut_slice), n * n)
        .into_iter()
        .map(Staged::new)
        .collect()
}

/// Batched direct-correlation kernel: block `b` computes x-plane `b` of every rotation's
/// result grids.
struct CorrelationKernel<'a> {
    receptor: &'a ReceptorGrids,
    batch: &'a [SparseLigand],
    /// Plane slots of the result grids, rotation-major ([`plane_slots`]).
    planes: Vec<Staged<Vec<&'a mut [Real]>>>,
    unique_fetches_per_voxel: u64,
    entries_per_voxel: u64,
}

impl BlockKernel for CorrelationKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let Some(slot) = self.planes.get(ctx.block_idx) else {
            return;
        };
        let n = self.receptor.spec.dim;
        let voxels = (n * n) as u64;
        // Accounting, per result voxel of the plane: one global fetch per distinct
        // (term, offset), reused across the rotations of the batch; every entry costs
        // a constant-memory read and a multiply-accumulate.
        ctx.record_global_reads(voxels * self.unique_fetches_per_voxel);
        ctx.record_constant_reads(voxels * self.entries_per_voxel);
        ctx.record_flops(voxels * 2 * self.entries_per_voxel);

        let mut planes = slot.write();
        ctx.record_global_writes(voxels * planes.len() as u64);
        for (ligand, grids) in self.batch.iter().zip(planes.chunks_mut(self.receptor.n_terms())) {
            correlate_slab(self.receptor, ligand, ctx.block_idx, grids);
        }
        ctx.sync_threads();
    }
}

/// Desolvation accumulation kernel: block `b` sums the desolvation components over
/// x-plane `b`.
struct AccumulationKernel<'a> {
    term_results: &'a [Grid3<Real>],
    n_desolv: usize,
    /// Plane slots of the one output grid ([`plane_slots`]).
    planes: Vec<Staged<Vec<&'a mut [Real]>>>,
}

impl BlockKernel for AccumulationKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let Some(slot) = self.planes.get(ctx.block_idx) else {
            return;
        };
        let mut planes = slot.write();
        let out = &mut *planes[0];
        let voxels = out.len();
        let plane = ctx.block_idx * voxels..(ctx.block_idx + 1) * voxels;
        out.fill(0.0);
        for grid in &self.term_results[4..4 + self.n_desolv] {
            for (o, &v) in out.iter_mut().zip(&grid.as_slice()[plane.clone()]) {
                *o += v;
            }
        }
        ctx.record_global_reads((self.n_desolv * voxels) as u64);
        ctx.record_flops((self.n_desolv * voxels) as u64);
        ctx.record_global_writes(voxels as u64);
    }
}

/// Scoring + filtering kernel, run as a single block: threads partition the score grid,
/// each finds its local best, a master thread gathers and excludes (Fig. 6).
struct ScoreFilterKernel<'a> {
    term_results: &'a [Grid3<Real>],
    desolv_total: &'a Grid3<Real>,
    weights: EnergyWeights,
    n_desolv: usize,
    k: usize,
    exclusion_radius: usize,
    rotation_index: usize,
    poses: &'a Staged<Vec<Pose>>,
}

impl BlockKernel for ScoreFilterKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        if ctx.block_idx != 0 {
            return;
        }
        let scores =
            filter::score_grid(self.term_results, self.desolv_total, &self.weights, self.n_desolv);
        let n3 = scores.len() as u64;
        // Weighted sum: 5 reads + ~6 flops per voxel, distributed over the block's threads.
        ctx.record_global_reads(5 * n3);
        ctx.record_flops(6 * n3);
        // Per-thread local best kept in shared memory; master gathers them per round.
        ctx.record_shared_accesses(ctx.threads_per_block as u64 * (self.k as u64 + 1));
        ctx.sync_threads();

        let selected =
            filter::filter_top_k(&scores, self.k, self.exclusion_radius, self.rotation_index);
        // Each filtering round rescans the candidate array and marks the exclusion
        // neighbourhood in a global-memory exclusion array (it does not fit in shared
        // memory at N = 128, §III.B).
        let excl = (2 * self.exclusion_radius as u64 + 1).pow(3);
        ctx.record_global_reads(self.k as u64 * n3 / ctx.threads_per_block.max(1) as u64);
        ctx.record_global_writes(self.k as u64 * excl);
        ctx.record_global_writes(selected.len() as u64);
        self.poses.write().extend(selected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectCorrelationEngine;
    use crate::grids::{GridSpec, LigandGrids};
    use ftmap_math::{Rotation, RotationSet};
    use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn setup(dim: usize) -> (ReceptorGrids, Probe) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let spec = GridSpec::centered_on(&protein.atoms, dim, 2.0);
        let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);
        let probe = Probe::new(ProbeType::Acetone, &ff);
        (receptor, probe)
    }

    fn sparse_for(probe: &Probe, rot: &Rotation) -> SparseLigand {
        let lig = LigandGrids::build(&probe.atoms, rot, 2.0, 4);
        SparseLigand::from_grids(&lig)
    }

    #[test]
    fn gpu_correlation_matches_host_direct_correlation() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let rotations = RotationSet::uniform(3);
        let batch: Vec<SparseLigand> = rotations.iter().map(|r| sparse_for(&probe, r)).collect();

        let gpu_out = gpu.correlate_batch(&batch);
        assert_eq!(gpu_out.results.len(), 3);
        let host = DirectCorrelationEngine::new(&receptor);
        for (rot_idx, sparse) in batch.iter().enumerate() {
            let host_results = host.correlate_rotation_serial(sparse);
            for (hg, gg) in host_results.iter().zip(&gpu_out.results[rot_idx]) {
                for (a, b) in hg.as_slice().iter().zip(gg.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "host {a:e} vs gpu {b:e}");
                }
            }
        }
        assert!(gpu_out.stats.modeled_time_s > 0.0);
        assert!(gpu_out.upload_time_s > 0.0);
        assert!(gpu_out.stats.counters.constant_reads > 0);
    }

    #[test]
    fn batching_reduces_global_reads_per_rotation() {
        // The whole point of multi-rotation batching: global fetches per rotation drop.
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let rotations = RotationSet::uniform(8);
        let batch: Vec<SparseLigand> = rotations.iter().map(|r| sparse_for(&probe, r)).collect();

        let one_at_a_time: u64 = batch
            .iter()
            .map(|l| gpu.correlate_batch(std::slice::from_ref(l)).stats.counters.global_reads)
            .sum();
        let batched = gpu.correlate_batch(&batch).stats.counters.global_reads;
        assert!(
            batched < one_at_a_time,
            "batched reads {batched} should be below unbatched {one_at_a_time}"
        );
    }

    #[test]
    fn max_batch_is_paper_scale() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let sparse = sparse_for(&probe, &Rotation::identity());
        let batch = gpu.max_batch(&sparse);
        assert!((1..=8).contains(&batch));
        // FTMap probes are small; with 64 KB of constant memory the batch should be
        // the full 8 rotations.
        assert_eq!(batch, 8);
    }

    #[test]
    fn gpu_accumulation_matches_host() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let sparse = sparse_for(&probe, &Rotation::identity());
        let host_results =
            DirectCorrelationEngine::new(&receptor).correlate_rotation_serial(&sparse);

        let (gpu_total, stats) = gpu.accumulate_desolvation(&host_results, 4);
        let host_total = filter::accumulate_desolvation(&host_results, 4);
        for (a, b) in gpu_total.as_slice().iter().zip(host_total.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(stats.modeled_time_s > 0.0);
    }

    #[test]
    fn gpu_score_and_filter_matches_host() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let sparse = sparse_for(&probe, &Rotation::identity());
        let results = DirectCorrelationEngine::new(&receptor).correlate_rotation_serial(&sparse);
        let desolv = filter::accumulate_desolvation(&results, 4);
        let weights = EnergyWeights::default();

        let (gpu_poses, stats) = gpu.score_and_filter(&results, &desolv, &weights, 4, 4, 2, 5);
        let scores = filter::score_grid(&results, &desolv, &weights, 4);
        let host_poses = filter::filter_top_k(&scores, 4, 2, 5);
        assert_eq!(gpu_poses, host_poses);
        assert!(stats.modeled_time_s > 0.0);
        // Single-block launch.
        assert_eq!(stats.blocks, 1);
    }

    #[test]
    fn kernels_are_invariant_to_the_launch_worker_count() {
        // One worker (every launch inline on the caller) and the full device
        // must give the same bits, poses and counters; only the modeled
        // seconds differ, because the specs do.
        let (receptor, probe) = setup(16);
        let one_worker =
            Device::new(gpu_sim::DeviceSpec { sm_count: 1, ..gpu_sim::DeviceSpec::tesla_c1060() });
        let full = Device::tesla_c1060();
        let batch: Vec<SparseLigand> =
            RotationSet::uniform(8).iter().map(|r| sparse_for(&probe, r)).collect();
        let bits = |grid: &Grid3<Real>| -> Vec<u64> {
            grid.as_slice().iter().map(|v| v.to_bits()).collect()
        };

        let run = |device: &Device| {
            let gpu = GpuDockingEngine::new(device, &receptor);
            let correlated = gpu.correlate_batch(&batch);
            let terms = &correlated.results[3];
            let (desolv, accumulate) = gpu.accumulate_desolvation(terms, 4);
            let (poses, filter) =
                gpu.score_and_filter(terms, &desolv, &EnergyWeights::default(), 4, 6, 2, 3);
            let grids: Vec<Vec<u64>> =
                correlated.results.iter().flatten().chain([&desolv]).map(bits).collect();
            let poses: Vec<_> = poses
                .iter()
                .map(|p| (p.rotation_index, p.translation, p.score.to_bits()))
                .collect();
            let counters = [correlated.stats.counters, accumulate.counters, filter.counters];
            (grids, poses, counters)
        };
        let (inline_grids, inline_poses, inline_counters) = run(&one_worker);
        let (spread_grids, spread_poses, spread_counters) = run(&full);
        assert!(inline_grids == spread_grids, "result grids differ bitwise");
        assert_eq!(inline_poses, spread_poses);
        assert_eq!(inline_counters, spread_counters);
    }

    #[test]
    fn dirty_result_buffers_never_leak_into_results() {
        // A device whose free list holds NaN, garbage and wrong-length
        // buffers must give the same bits, poses and counters as a fresh one.
        let (receptor, probe) = setup(16);
        let batch: Vec<SparseLigand> =
            RotationSet::uniform(8).iter().map(|r| sparse_for(&probe, r)).collect();
        let run = |device: &Device| {
            let gpu = GpuDockingEngine::new(device, &receptor);
            let correlated = gpu.correlate_batch(&batch);
            let mut grids: Vec<Vec<u64>> = Vec::new();
            let mut poses = Vec::new();
            let mut counters = vec![correlated.stats.counters];
            for (slot, terms) in correlated.results.iter().enumerate() {
                let (desolv, accumulate) = gpu.accumulate_desolvation(terms, 4);
                let (selected, filter) =
                    gpu.score_and_filter(terms, &desolv, &EnergyWeights::default(), 4, 6, 2, slot);
                grids.extend(
                    terms
                        .iter()
                        .chain([&desolv])
                        .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect()),
                );
                poses.extend(
                    selected.iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())),
                );
                counters.extend([accumulate.counters, filter.counters]);
                device.recycle_result_buffers([desolv.into_vec()]);
            }
            device.recycle_result_buffers(
                correlated.results.into_iter().flatten().map(Grid3::into_vec),
            );
            (grids, poses, counters)
        };

        let dirty = Device::tesla_c1060();
        let out: Vec<Vec<f64>> = (0..80).map(|_| dirty.result_buffer(1)).collect();
        let garbage = out.into_iter().enumerate().map(|(i, _)| match i % 4 {
            0 => vec![f64::NAN; 16 * 16 * 16],
            1 => vec![-1.0e300; 16 * 16 * 16 + 37],
            2 => vec![f64::from_bits(0x7ff4_dead_beef_0001); 100],
            _ => (0..16 * 16 * 16).map(|k| k as f64 - 0.0).collect(),
        });
        dirty.recycle_result_buffers(garbage);

        let fresh = run(&Device::tesla_c1060());
        assert!(run(&dirty) == fresh, "a dirty free list changed a result");
        // Second pass: every buffer now comes back from a previous run.
        assert!(run(&dirty) == fresh, "a reused result buffer changed a result");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_batch_panics() {
        let (receptor, _) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let _ = gpu.correlate_batch(&[]);
    }
}
