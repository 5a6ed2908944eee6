//! The mapping workload expressed as a phased-pipeline batch.
//!
//! [`PhasedMapBatch`] adapts the pipeline's two-phase probe work —
//! [`FtMapPipeline::dock_probe_shard`] then
//! [`FtMapPipeline::minimize_pose_block`] — to the cross-batch scheduler's
//! [`PhasedExec`] contract ([`gpu_sim::sched::PhasePipeline`]): one dock item
//! per `(job, probe)` entry whose completion *generates* that entry's pose
//! blocks, so an entry's minimizations start the moment its own dock lands —
//! no batch-wide phase barrier — and a later batch's docks fill whatever the
//! current batch leaves idle.
//!
//! The batch is the one place that knows how `(job, probe)` entries are laid
//! out and how their products fold back into per-job results. It owns the
//! result slots: docked probes, per-block partial shards, and (for the fused
//! `pose_block == 0` schedule) whole-probe shards. Folding happens in
//! `(entry, pose)` order in [`PhasedMapBatch::take_results`], so each job's
//! result is **bit-identical** to the fused single-device path no matter
//! which devices ran what, in which order, under which priorities.

use crate::pipeline::{DockedProbe, FtMapPipeline, MappingResult, ProbeShard};
use ftmap_molecule::ProbeLibrary;
use gpu_sim::sched::{pose_blocks, PhasedExec, ShardCtx};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Per-entry result slots for one `(job, probe)` entry.
struct EntrySlots {
    /// The dock product, present once the entry's dock item completed
    /// (pose-block schedules only).
    docked: Mutex<Option<Arc<DockedProbe>>>,
    /// One slot per pose block, sized at dock completion.
    blocks: Mutex<Vec<Option<ProbeShard>>>,
    /// The whole-probe shard of the fused schedule (`pose_block == 0`).
    fused: Mutex<Option<ProbeShard>>,
}

impl EntrySlots {
    fn new() -> Self {
        EntrySlots {
            docked: Mutex::new(None),
            blocks: Mutex::new(Vec::new()),
            fused: Mutex::new(None),
        }
    }

    /// Takes the entry's assembled shard: the fused shard, or the dock seed
    /// with its pose blocks absorbed in pose order.
    fn take_shard(&self, pose_block: usize) -> ProbeShard {
        if pose_block == 0 {
            return self
                .fused
                .lock()
                .expect("fused slot poisoned")
                .take()
                .expect("fused entry never docked or taken twice");
        }
        let docked = self
            .docked
            .lock()
            .expect("docked slot poisoned")
            .take()
            .expect("entry never docked or taken twice");
        let mut shard = docked.to_shard();
        let blocks = std::mem::take(&mut *self.blocks.lock().expect("blocks poisoned"));
        for block in blocks {
            shard.absorb(block.expect("pose block never minimized"));
        }
        shard
    }
}

/// One schedulable mapping batch: every `(job, probe)` pair of a set of
/// co-batched jobs, ready to submit to a [`gpu_sim::sched::PhasePipeline`].
///
/// `pose_block` keeps the meaning it has everywhere else: `0` fuses dock +
/// minimize into one dock-phase item per entry (whole-probe granularity);
/// any positive value docks first and then minimizes blocks of at most that
/// many retained poses, generated per entry as its dock completes.
pub struct PhasedMapBatch {
    /// One pipeline and probe library per job (each job keeps its own config).
    jobs: Vec<(FtMapPipeline, ProbeLibrary)>,
    /// The flattened `(job index, probe index)` entries, in `(job, probe)`
    /// order.
    entries: Vec<(usize, usize)>,
    pose_block: usize,
    slots: Vec<EntrySlots>,
}

impl PhasedMapBatch {
    /// Builds a batch over `jobs`: one dock entry per probe of each job's
    /// library, in `(job, probe)` order.
    pub fn new(jobs: Vec<(FtMapPipeline, ProbeLibrary)>, pose_block: usize) -> Self {
        let entries: Vec<(usize, usize)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(job, (_, library))| (0..library.len()).map(move |probe| (job, probe)))
            .collect();
        let slots = (0..entries.len()).map(|_| EntrySlots::new()).collect();
        PhasedMapBatch { jobs, entries, pose_block, slots }
    }

    /// Number of `(job, probe)` entries (the batch's dock-item count).
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Uniform dock weights for [`gpu_sim::sched::PhasedBatch::dock_weights`].
    pub fn dock_weights(&self) -> Vec<f64> {
        vec![1.0; self.entries.len()]
    }

    /// Takes one [`MappingResult`] per job, in job order: each job's entries
    /// fold — in library order — exactly as a dedicated
    /// [`FtMapPipeline::map`] folds its probes, so its sites are identical to
    /// a single-job run. Call after the batch completed; panics if any slot
    /// is missing (an item never ran) or if called twice.
    pub fn take_results(&self) -> Vec<MappingResult> {
        let mut shards = self.slots.iter().map(|slots| slots.take_shard(self.pose_block));
        self.jobs
            .iter()
            .map(|(pipeline, library)| pipeline.assemble(shards.by_ref().take(library.len())))
            .collect()
    }
}

impl PhasedExec for PhasedMapBatch {
    fn dock(&self, ctx: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
        let (job, probe) = self.entries[entry];
        let (pipeline, library) = &self.jobs[job];
        let probe = &library.probes()[probe];
        if self.pose_block == 0 {
            // Fused schedule: the dock item carries the whole probe.
            let shard = pipeline.map_probe_shard(probe, ctx.device);
            let kernel_s = shard.kernel_modeled_s;
            *self.slots[entry].fused.lock().expect("fused slot poisoned") = Some(shard);
            return (kernel_s, Vec::new());
        }
        let docked = pipeline.dock_probe_shard(probe, ctx.device);
        let kernel_s = docked.kernel_modeled_s();
        let blocks = pose_blocks(pipeline.retained_pose_count(&docked), self.pose_block);
        *self.slots[entry].blocks.lock().expect("blocks poisoned") =
            (0..blocks.len()).map(|_| None).collect();
        *self.slots[entry].docked.lock().expect("docked slot poisoned") = Some(Arc::new(docked));
        (kernel_s, blocks)
    }

    fn minimize(&self, ctx: &ShardCtx<'_>, entry: usize, pose_range: Range<usize>) -> f64 {
        let (pipeline, _) = &self.jobs[self.entries[entry].0];
        let docked = Arc::clone(
            self.slots[entry]
                .docked
                .lock()
                .expect("docked slot poisoned")
                .as_ref()
                .expect("minimize scheduled before dock completed"),
        );
        let shard = pipeline.minimize_pose_block(&docked, pose_range.clone(), ctx.device);
        let kernel_s = shard.kernel_modeled_s;
        // Blocks are fixed-size except the tail, so the slot index is the
        // range start over the block size.
        let slot_idx = pose_range.start / self.pose_block;
        let mut blocks = self.slots[entry].blocks.lock().expect("blocks poisoned");
        debug_assert!(blocks[slot_idx].is_none(), "pose block minimized twice");
        blocks[slot_idx] = Some(shard);
        kernel_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FtMapConfig, PipelineMode};
    use ftmap_molecule::{ForceField, ProbeLibrary, ProbeType, ProteinSpec, SyntheticProtein};
    use gpu_sim::sched::{DevicePool, PhasePipeline, PhasedBatch};

    fn pipeline_and_library() -> (FtMapPipeline, ProbeLibrary) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
        let pipeline =
            FtMapPipeline::new(protein, ff, FtMapConfig::small_test(PipelineMode::Accelerated));
        (pipeline, library)
    }

    #[test]
    fn phased_batch_matches_the_fused_path_bit_for_bit() {
        for pose_block in [0usize, 1, 2] {
            let (reference_pipeline, library) = pipeline_and_library();
            let reference = reference_pipeline.map(&library);

            let (pipeline, _) = pipeline_and_library();
            let pool = Arc::new(DevicePool::tesla(2));
            let sched = PhasePipeline::new(Arc::clone(&pool));
            // Two jobs over the same library: each must reproduce the
            // dedicated run on its own.
            let jobs = vec![(pipeline.clone(), library.clone()), (pipeline, library.clone())];
            let batch = Arc::new(PhasedMapBatch::new(jobs, pose_block));
            assert_eq!(batch.entries(), 2 * library.len());
            let handle = sched.submit(
                PhasedBatch {
                    label: Default::default(),
                    entry_traces: Vec::new(),
                    priority: 0,
                    entries: batch.entries(),
                    dock_weights: batch.dock_weights(),
                    exec: Arc::clone(&batch) as Arc<dyn PhasedExec>,
                },
                None,
            );
            handle.wait().unwrap();
            sched.shutdown();

            let results = batch.take_results();
            assert_eq!(results.len(), 2);
            for result in results {
                assert_eq!(
                    result.conformations_minimized, reference.conformations_minimized,
                    "block {pose_block}"
                );
                assert_eq!(result.pose_centers.len(), reference.pose_centers.len());
                for ((probe_a, a), (probe_b, b)) in
                    result.pose_centers.iter().zip(&reference.pose_centers)
                {
                    assert_eq!(probe_a, probe_b, "block {pose_block}");
                    assert!(
                        a.x == b.x && a.y == b.y && a.z == b.z,
                        "block {pose_block}: pose centre moved"
                    );
                }
                assert_eq!(result.sites.len(), reference.sites.len());
            }
        }
    }
}
