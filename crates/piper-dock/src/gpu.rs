//! The paper's GPU mapping of rigid docking, on the device model (paper §III).
//!
//! [`GpuDockingEngine::dock_batch`] docks a batch of rotations with the three kernels
//! of the CUDA implementation, launched in its order:
//!
//! * `CorrelationKernel` — **batched direct correlation**. The result grid is divided
//!   into x-plane slabs, one per thread block (the paper's second work-distribution
//!   scheme, Fig. 4). The sparse ligand entries of up to `GpuDockingEngine::max_batch`
//!   rotations are staged in constant memory; for each result voxel the receptor value
//!   at a given (term, offset) is fetched from global memory **once** and reused by
//!   every rotation in the batch that touches that offset — the data-reuse
//!   optimization that buys the reported 2.7× over one-rotation-at-a-time correlation.
//!   The counters record that modeled pattern.
//! * `AccumulationKernel` — sums the desolvation component results on the device
//!   (Table 1's "Accum. desolvation terms" row), one launch per rotation.
//! * `ScoreFilterKernel` — weighted scoring plus top-K filtering with region
//!   exclusion, run on a **single block** ("distribution across multiple
//!   multiprocessors would incur large communication overhead", §III.B), which is why
//!   its speedup is modest. Only the retained poses are downloaded.
//!
//! The host simulation streams each x-plane once. For each rotation of the batch,
//! block `x` runs the direct engines' slab routine into plane `x` of the kept term
//! grids, then scores that plane into plane `x` of the rotation's score grid with
//! [`filter`]'s fused per-voxel pass (desolvation total, then the weighted sum), so
//! the scores are bit for bit those of the separate steps. The next rotation reuses
//! the term planes, so no `N³` term grid is kept per rotation. The accumulation
//! launch therefore has no host work left: every block is
//! counted ([`gpu_sim::BlockKernel::counted_blocks`]) with the counters it would
//! record. The score launch runs only the filter and still records the scoring's
//! counters. So the modeled times and the trace are those of the three kernels.
//!
//! Every grid is a kept device buffer ([`Device::result_buffer`]): the term grids,
//! shared by the batch's rotations and handed back once the batch is docked, and one
//! score grid per rotation, handed back after its filter launch.

use crate::direct::{chunk_slots, correlate_slab, SparseLigand};
use crate::filter;
use crate::grids::{EnergyWeights, ReceptorGrids};
use crate::pose::Pose;
use ftmap_math::{Grid3, Real};
use gpu_sim::{
    BlockContext, BlockKernel, Device, KernelLaunch, KernelStats, MemoryCounters, Staged,
};
use std::collections::HashSet;

/// GPU-mapped rigid docking over a fixed receptor.
pub struct GpuDockingEngine<'a> {
    device: &'a Device,
    receptor: &'a ReceptorGrids,
    /// Threads per block used for the correlation and accumulation kernels.
    threads_per_block: usize,
}

/// Outcome of docking one batch of rotations on the device.
pub struct GpuDockOutcome {
    /// Retained poses per batch slot, in batch order, tagged with the slot's rotation
    /// index.
    pub poses: Vec<Vec<Pose>>,
    /// The batch's correlation launch.
    pub correlation: KernelStats,
    /// Each slot's accumulation launch, in batch order.
    pub accumulation: Vec<KernelStats>,
    /// Each slot's scoring + filtering launch, in batch order.
    pub scoring: Vec<KernelStats>,
    /// Modeled seconds uploading the batch's ligand entries to constant memory.
    pub upload_s: f64,
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

    /// Docks one batch of rotations (already reduced to sparse ligands): uploads
    /// their entries, runs the correlation launch, then each slot's accumulation
    /// and scoring + filtering launches, downloading only the retained poses.
    ///
    /// `batch[slot]` is correlated as rotation `rotation_indices[slot]`; the
    /// returned `poses[slot]` are tagged accordingly.
    ///
    /// # Panics
    /// Panics if the batch is empty, the index list has a different length, or
    /// the receptor does not have `4 + n_desolv` terms.
    pub fn dock_batch(
        &self,
        batch: &[SparseLigand],
        rotation_indices: &[usize],
        weights: &EnergyWeights,
        n_desolv: usize,
        k: usize,
        exclusion_radius: usize,
    ) -> GpuDockOutcome {
        assert!(!batch.is_empty(), "correlation batch must not be empty");
        assert_eq!(batch.len(), rotation_indices.len(), "one rotation index per batch slot");
        let n = self.receptor.spec.dim;
        let n_terms = self.receptor.n_terms();
        assert_eq!(n_terms, 4 + n_desolv, "term result count must be 4 + n_desolv");

        // Upload the batch's ligand entries (constant memory).
        let upload_words: usize = batch.iter().map(|l| l.constant_mem_words()).sum();
        let upload_s =
            self.device.upload_bytes((upload_words * std::mem::size_of::<Real>()) as u64);

        // The set of distinct (term, offset) pairs across the batch: each is fetched
        // from global memory once per result voxel and reused across rotations.
        let unique_fetches: HashSet<(usize, (usize, usize, usize))> =
            batch.iter().flat_map(|l| l.entries.iter().map(|e| (e.term, e.offset))).collect();

        // Kept grids: the term grids, then one score grid per slot. Block `x` owns
        // plane `x` of every grid and writes it in place.
        let mut grids: Vec<Vec<Real>> =
            (0..n_terms + batch.len()).map(|_| self.device.result_buffer(n * n * n)).collect();
        let correlation = KernelLaunch::on(self.device)
            .grid(n) // one block per x-plane (Fig. 4, second scheme)
            .threads(self.threads_per_block)
            .shared_mem_capped(batch.len() * n_terms)
            .run(&CorrelationKernel {
                receptor: self.receptor,
                batch,
                weights: *weights,
                n_desolv,
                planes: plane_slots(&mut grids, n),
                unique_fetches_per_voxel: unique_fetches.len() as u64,
                entries_per_voxel: batch.iter().map(|l| l.len() as u64).sum(),
            });

        let mut poses = Vec::with_capacity(batch.len());
        let mut accumulation = Vec::with_capacity(batch.len());
        let mut scoring = Vec::with_capacity(batch.len());
        let score_grids = grids.split_off(n_terms);
        for (scores, &rotation_index) in score_grids.into_iter().zip(rotation_indices) {
            accumulation.push(
                KernelLaunch::on(self.device)
                    .grid(n)
                    .threads(self.threads_per_block)
                    .run(&AccumulationKernel { receptor: self.receptor, n_desolv }),
            );

            let scores = Grid3::from_vec(n, n, n, scores);
            let selected = Staged::new(Vec::new());
            // Single thread block, as in the paper.
            scoring.push(
                KernelLaunch::on(self.device).grid(1).threads(256).shared_mem_capped(256).run(
                    &ScoreFilterKernel {
                        scores: &scores,
                        k,
                        exclusion_radius,
                        rotation_index,
                        poses: &selected,
                    },
                ),
            );
            self.device.recycle_result_buffers([scores.into_vec()]);
            let selected = selected.take();
            // Download only the retained poses.
            self.device.download_slice(&selected);
            poses.push(selected);
        }
        self.device.recycle_result_buffers(grids);
        GpuDockOutcome { poses, correlation, accumulation, scoring, upload_s }
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

/// Batched direct-correlation kernel: block `b` correlates x-plane `b` of every
/// rotation and folds it into the rotation's score plane.
struct CorrelationKernel<'a> {
    receptor: &'a ReceptorGrids,
    batch: &'a [SparseLigand],
    weights: EnergyWeights,
    n_desolv: usize,
    /// Plane slots of the term grids and the score grids, in that order
    /// ([`plane_slots`]).
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
        let n_terms = self.receptor.n_terms();
        let voxels = (n * n) as u64;
        // Accounting, per result voxel of the plane: one global fetch per distinct
        // (term, offset), reused across the rotations of the batch; every entry costs
        // a constant-memory read and a multiply-accumulate; every rotation writes
        // every term.
        ctx.record_global_reads(voxels * self.unique_fetches_per_voxel);
        ctx.record_constant_reads(voxels * self.entries_per_voxel);
        ctx.record_flops(voxels * 2 * self.entries_per_voxel);
        ctx.record_global_writes(voxels * (self.batch.len() * n_terms) as u64);

        let mut planes = slot.write();
        let (terms, scores) = planes.split_at_mut(n_terms);
        for (ligand, scores) in self.batch.iter().zip(scores) {
            correlate_slab(self.receptor, ligand, ctx.block_idx, terms);
            filter::score_into(terms, &self.weights, self.n_desolv, scores);
        }
        ctx.sync_threads();
    }
}

/// Desolvation accumulation kernel: block `b` sums the desolvation components over
/// x-plane `b`. The correlation blocks did that sum already, so every block is
/// counted and none runs.
struct AccumulationKernel<'a> {
    receptor: &'a ReceptorGrids,
    n_desolv: usize,
}

impl BlockKernel for AccumulationKernel<'_> {
    fn execute_block(&self, _ctx: &mut BlockContext) {}

    fn host_rows(&self) -> Option<u64> {
        Some(0)
    }

    fn counted_blocks(&self) -> (usize, MemoryCounters) {
        let n = self.receptor.spec.dim;
        // Per block: read each desolvation component over the plane, add, write
        // the total.
        let (blocks, voxels) = (n as u64, (n * n) as u64);
        let counters = MemoryCounters {
            global_reads: blocks * self.n_desolv as u64 * voxels,
            flops: blocks * self.n_desolv as u64 * voxels,
            global_writes: blocks * voxels,
            ..MemoryCounters::new()
        };
        (n, counters)
    }
}

/// Scoring + filtering kernel, run as a single block: threads partition the score grid,
/// each finds its local best, a master thread gathers and excludes (Fig. 6). The
/// host runs only the filter: the correlation blocks computed the scores.
struct ScoreFilterKernel<'a> {
    /// The rotation's score grid.
    scores: &'a Grid3<Real>,
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
        let n3 = self.scores.len() as u64;
        // Weighted sum: 5 reads + ~6 flops per voxel, distributed over the block's threads.
        ctx.record_global_reads(5 * n3);
        ctx.record_flops(6 * n3);
        // Per-thread local best kept in shared memory; master gathers them per round.
        ctx.record_shared_accesses(ctx.threads_per_block as u64 * (self.k as u64 + 1));
        ctx.sync_threads();

        let selected =
            filter::filter_top_k(self.scores, self.k, self.exclusion_radius, self.rotation_index);
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

    fn batch_of(probe: &Probe, rotations: usize) -> Vec<SparseLigand> {
        RotationSet::uniform(rotations).iter().map(|r| sparse_for(probe, r)).collect()
    }

    /// Docks `batch` as rotations `0..` with the default weights, 4 desolvation
    /// terms, `k` poses per rotation and exclusion radius 2.
    fn dock(gpu: &GpuDockingEngine<'_>, batch: &[SparseLigand], k: usize) -> GpuDockOutcome {
        let indices: Vec<usize> = (0..batch.len()).collect();
        gpu.dock_batch(batch, &indices, &EnergyWeights::default(), 4, k, 2)
    }

    /// The host path for one rotation: serial direct correlation, accumulation,
    /// scoring and filtering.
    fn host_poses(
        receptor: &ReceptorGrids,
        sparse: &SparseLigand,
        k: usize,
        rot: usize,
    ) -> Vec<Pose> {
        let results = DirectCorrelationEngine::new(receptor).correlate_rotation(sparse);
        let desolv = filter::accumulate_desolvation(&results, 4);
        let scores = filter::score_grid(&results, &desolv, &EnergyWeights::default(), 4);
        filter::filter_top_k(&scores, k, 2, rot)
    }

    /// Poses as comparable bits.
    fn pose_bits(poses: &[Vec<Pose>]) -> Vec<(usize, (usize, usize, usize), u64)> {
        poses
            .iter()
            .flatten()
            .map(|p| (p.rotation_index, p.translation, p.score.to_bits()))
            .collect()
    }

    /// Every launch's statistics, in launch order.
    fn launches(out: &GpuDockOutcome) -> Vec<KernelStats> {
        let per_slot = out.accumulation.iter().zip(&out.scoring).flat_map(|(a, s)| [*a, *s]);
        std::iter::once(out.correlation).chain(per_slot).collect()
    }

    #[test]
    fn gpu_correlation_matches_host_direct_correlation() {
        // Each slot's poses, scores included, are bit for bit those of the host
        // direct path followed by the host accumulation, scoring and filter.
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let batch = batch_of(&probe, 3);

        let out = dock(&gpu, &batch, 4);
        assert_eq!(out.poses.len(), 3);
        for (rot, sparse) in batch.iter().enumerate() {
            let want = host_poses(&receptor, sparse, 4, rot);
            assert_eq!(pose_bits(&out.poses[rot..=rot]), pose_bits(&[want]), "rotation {rot}");
        }
        assert!(out.correlation.modeled_time_s > 0.0);
        assert!(out.upload_s > 0.0);
        assert!(out.correlation.counters.constant_reads > 0);
    }

    #[test]
    fn batching_reduces_global_reads_per_rotation() {
        // The whole point of multi-rotation batching: global fetches per rotation drop.
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let batch = batch_of(&probe, 8);

        let reads = |out: GpuDockOutcome| out.correlation.counters.global_reads;
        let one_at_a_time: u64 =
            batch.iter().map(|l| reads(dock(&gpu, std::slice::from_ref(l), 4))).sum();
        let batched = reads(dock(&gpu, &batch, 4));
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
        // Each rotation's accumulation launch is fully counted: it spans one block
        // per x-plane and states what summing 4 desolvation components over the
        // grid records, once per block.
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let out = dock(&gpu, &batch_of(&probe, 2), 4);
        let n3 = 16 * 16 * 16;
        for stats in &out.accumulation {
            assert_eq!((stats.blocks, stats.threads_per_block), (16, 64));
            let expect = MemoryCounters {
                global_reads: 4 * n3,
                flops: 4 * n3,
                global_writes: n3,
                ..MemoryCounters::new()
            };
            assert_eq!(stats.counters, expect);
            assert!(stats.modeled_time_s > 0.0);
        }
    }

    #[test]
    fn gpu_score_and_filter_matches_host() {
        let (receptor, probe) = setup(16);
        let device = Device::tesla_c1060();
        let gpu = GpuDockingEngine::new(&device, &receptor);
        let sparse = sparse_for(&probe, &Rotation::identity());

        let out =
            gpu.dock_batch(std::slice::from_ref(&sparse), &[5], &EnergyWeights::default(), 4, 4, 2);
        assert_eq!(out.poses, [host_poses(&receptor, &sparse, 4, 5)]);
        let stats = out.scoring[0];
        assert!(stats.modeled_time_s > 0.0);
        // Single-block launch, whose counters still state the weighted sum.
        assert_eq!(stats.blocks, 1);
        assert!(stats.counters.flops >= 6 * 16 * 16 * 16);
    }

    #[test]
    fn kernels_are_invariant_to_the_launch_worker_count() {
        // One worker (every launch inline on the caller) and the full device
        // must give the same poses and counters; only the modeled seconds
        // differ, because the specs do.
        let (receptor, probe) = setup(16);
        let one_worker =
            Device::new(gpu_sim::DeviceSpec { sm_count: 1, ..gpu_sim::DeviceSpec::tesla_c1060() });
        let full = Device::tesla_c1060();
        let batch = batch_of(&probe, 8);

        let run = |device: &Device| {
            let out = dock(&GpuDockingEngine::new(device, &receptor), &batch, 6);
            let counters: Vec<_> = launches(&out).iter().map(|s| s.counters).collect();
            (pose_bits(&out.poses), counters)
        };
        let (inline_poses, inline_counters) = run(&one_worker);
        let (spread_poses, spread_counters) = run(&full);
        assert_eq!(inline_poses, spread_poses);
        assert_eq!(inline_counters, spread_counters);
    }

    #[test]
    fn dirty_result_buffers_never_leak_into_results() {
        // A device whose free list holds NaN, garbage and wrong-length
        // buffers must give the same poses, statistics and transfers as a
        // fresh one.
        let (receptor, probe) = setup(16);
        let batch = batch_of(&probe, 8);
        let run = |device: &Device| {
            let out = dock(&GpuDockingEngine::new(device, &receptor), &batch, 6);
            let stats: Vec<_> = launches(&out)
                .iter()
                .map(|s| (s.blocks, s.threads_per_block, s.counters, s.modeled_time_s.to_bits()))
                .collect();
            (pose_bits(&out.poses), stats, out.upload_s.to_bits())
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
        let _ = dock(&gpu, &[], 4);
    }
}
