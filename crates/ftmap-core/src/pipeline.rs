//! The end-to-end FTMap pipeline.
//!
//! For each probe in the library: rigid-dock it against the protein, build a complex
//! for each retained pose, minimize the complexes, and feed the minimized pose centres
//! into consensus clustering. [`PipelineMode::Serial`] reproduces the structure of the
//! original single-core FTMap; [`PipelineMode::Accelerated`] uses the paper's GPU
//! mapping (device model) for both phases.
//!
//! The mode names both phases' engines: [`FtMapConfig::paper_scale`] and
//! [`FtMapConfig::small_test`] pick serial FFT docking and host minimization for
//! [`PipelineMode::Serial`], and GPU direct-correlation docking and the GPU energy
//! kernels for the accelerated modes.
//!
//! [`PipelineMode::Sharded`] adds the execution axis the single-device modes
//! lack: the run becomes one batch on the phased scheduler
//! ([`gpu_sim::sched::PhasePipeline`]) over a [`DevicePool`], so probe A's
//! docking and minimization overlap with probe B's on another device, and each
//! device's host↔device transfers overlap with its compute through the stream
//! model. Results are bit-identical to [`PipelineMode::Accelerated`] —
//! sharding changes where and when work runs, never what it computes.

use crate::cluster::{cluster_poses, ClusterInput, ConsensusSite};
use crate::phased::PhasedMapBatch;
use crate::profile::MappingProfile;
use ftmap_energy::minimize::{EvaluationPath, MinimizationConfig, Minimizer, ReceptorHalf};
use ftmap_math::{RotationSet, Vec3};
use ftmap_molecule::{Complex, ForceField, Probe, ProbeLibrary, ProbeType, SyntheticProtein};
use gpu_sim::sched::{DevicePool, PhasePipeline, PhasedBatch, PhasedExec};
use gpu_sim::{wall_timed, Device};
use piper_dock::docking::DEFAULT_GPU_BATCH;
use piper_dock::{Docking, DockingConfig, DockingEngineKind, DockingRun};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Whether the pipeline uses the original serial engines, the accelerated ones,
/// or the accelerated ones sharded over a device pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Serial FFT docking + host minimization (the original FTMap structure).
    Serial,
    /// GPU direct-correlation docking + GPU minimization kernels (the paper's system).
    Accelerated,
    /// The accelerated engines, with the workload sharded over a pool of
    /// devices (modeled-clock load balancing, stream-overlapped transfers,
    /// deterministic output order).
    Sharded {
        /// Number of Tesla-class devices in the default pool.
        devices: usize,
        /// Scheduling granularity of the minimization phase: retained poses
        /// per work item. `0` shards at whole-probe granularity (dock +
        /// minimize fused into one item per probe — the coarse schedule);
        /// any positive value splits each docked probe's retained poses into
        /// blocks of at most `pose_block` poses, each runnable as soon as
        /// its own probe's dock lands, so one probe's 2000 minimizations
        /// spread across the pool.
        pose_block: usize,
    },
}

/// Default pose-block size for pose-granularity sharding: 50 poses per block
/// gives the paper-scale probe (500 rotations × 4 retained poses = 2000
/// conformations) 40 schedulable blocks — fine enough to fill an 8-device
/// pool from a single probe, coarse enough that per-block overhead stays
/// negligible.
pub const DEFAULT_POSE_BLOCK: usize = 50;

impl PipelineMode {
    /// Pose-granularity sharding over `devices` Tesla-class devices with the
    /// default block size ([`DEFAULT_POSE_BLOCK`]).
    pub fn sharded(devices: usize) -> Self {
        PipelineMode::Sharded { devices, pose_block: DEFAULT_POSE_BLOCK }
    }

    /// The pose-block size this mode schedules minimization at (0 = whole-
    /// probe granularity; also 0 for the single-device modes, which have no
    /// scheduler).
    pub fn pose_block(self) -> usize {
        match self {
            PipelineMode::Serial | PipelineMode::Accelerated => 0,
            PipelineMode::Sharded { pose_block, .. } => pose_block,
        }
    }

    /// Number of devices this mode runs on.
    fn device_count(self) -> usize {
        match self {
            PipelineMode::Serial | PipelineMode::Accelerated => 1,
            PipelineMode::Sharded { devices, .. } => devices.max(1),
        }
    }

    /// The docking engine and evaluation path this mode runs: serial FFT
    /// correlation (original PIPER) and host minimization for `Serial`, the
    /// paper's batched direct correlation and GPU energy kernels otherwise.
    fn engines(self) -> (DockingEngineKind, EvaluationPath) {
        match self {
            PipelineMode::Serial => (DockingEngineKind::FftSerial, EvaluationPath::Host),
            PipelineMode::Accelerated | PipelineMode::Sharded { .. } => {
                (DockingEngineKind::Gpu { batch: DEFAULT_GPU_BATCH }, EvaluationPath::Gpu)
            }
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct FtMapConfig {
    /// Docking configuration (grid size, rotations, retained poses, engine), used as
    /// given: [`FtMapConfig::paper_scale`] / [`FtMapConfig::small_test`] pick the mode's
    /// engine, and a caller may swap in another (e.g. `BatchedFft`) without changing the
    /// mode.
    pub docking: DockingConfig,
    /// Minimization configuration (iterations, evaluation path), used as given.
    pub minimization: MinimizationConfig,
    /// Number of top docked poses minimized per probe (FTMap minimizes all retained
    /// poses — 2000 per probe; scaled configurations minimize fewer).
    pub conformations_per_probe: usize,
    /// Clustering radius in Å for consensus-site detection.
    pub cluster_radius: f64,
    /// Pipeline mode.
    pub mode: PipelineMode,
}

impl FtMapConfig {
    /// The paper-scale configuration (500 rotations × 4 poses = 2000 conformations per
    /// probe, 128³ grids are reduced to 64³ to keep host memory modest).
    pub fn paper_scale(mode: PipelineMode) -> Self {
        let (engine, path) = mode.engines();
        FtMapConfig {
            docking: DockingConfig { engine, ..DockingConfig::default() },
            minimization: MinimizationConfig { path, ..MinimizationConfig::default() },
            conformations_per_probe: 2000,
            cluster_radius: 4.0,
            mode,
        }
    }

    /// A scaled-down configuration for tests and examples.
    pub fn small_test(mode: PipelineMode) -> Self {
        let (engine, path) = mode.engines();
        FtMapConfig {
            docking: DockingConfig::small_test(engine),
            minimization: MinimizationConfig {
                max_iterations: 10,
                ..MinimizationConfig::small_test(path)
            },
            conformations_per_probe: 3,
            cluster_radius: 6.0,
            mode,
        }
    }

    /// Applies a [`DegradePolicy`] to this configuration, returning the
    /// degraded copy plus a record of what changed. Degradation only ever
    /// shrinks the per-request work knobs (`docking.n_rotations`,
    /// `conformations_per_probe`); grid geometry, probes and clustering are
    /// untouched, so the degraded request still batches with its siblings
    /// (the receptor fingerprint depends only on grid geometry and atoms).
    pub fn degraded(&self, policy: &DegradePolicy) -> (FtMapConfig, AppliedDegrade) {
        let scale = |from: usize, factor: f64, floor: usize| -> usize {
            let scaled = (from as f64 * factor.clamp(0.0, 1.0)).ceil() as usize;
            scaled.max(floor.min(from)).min(from)
        };
        let from_rot = self.docking.n_rotations;
        let to_rot = scale(from_rot, policy.rotation_factor, policy.min_rotations);
        let from_conf = self.conformations_per_probe;
        let mut to_conf = scale(from_conf, policy.conformation_factor, policy.min_conformations);
        // Fewer rotations also means fewer retained docked poses; never ask
        // minimization for more conformations than docking can retain.
        let retained = to_rot.saturating_mul(self.docking.poses_per_rotation);
        if retained > 0 {
            to_conf = to_conf.min(retained);
        }
        let mut config = self.clone();
        config.docking.n_rotations = to_rot;
        config.conformations_per_probe = to_conf;
        (
            config,
            AppliedDegrade { rotations: (from_rot, to_rot), conformations: (from_conf, to_conf) },
        )
    }
}

/// How far an admission controller may degrade a request whose deadline is
/// otherwise unmeetable: multiplicative reductions of the two per-request
/// work knobs, each with a floor. `Default` halves both with conservative
/// floors; a policy with both factors at `1.0` never degrades anything.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradePolicy {
    /// Multiplier applied to `docking.n_rotations` (clamped to `(0, 1]`).
    pub rotation_factor: f64,
    /// Rotations are never reduced below this floor.
    pub min_rotations: usize,
    /// Multiplier applied to `conformations_per_probe`.
    pub conformation_factor: f64,
    /// Conformations are never reduced below this floor.
    pub min_conformations: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            rotation_factor: 0.5,
            min_rotations: 8,
            conformation_factor: 0.5,
            min_conformations: 1,
        }
    }
}

/// What [`FtMapConfig::degraded`] actually changed, as `(from, to)` pairs —
/// carried on the admission verdict so clients know what accuracy they
/// traded for latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedDegrade {
    /// `docking.n_rotations` before and after.
    pub rotations: (usize, usize),
    /// `conformations_per_probe` before and after.
    pub conformations: (usize, usize),
}

impl AppliedDegrade {
    /// True when the policy could not reduce anything (already at floors).
    pub fn is_noop(&self) -> bool {
        self.rotations.0 == self.rotations.1 && self.conformations.0 == self.conformations.1
    }
}

/// Result of mapping one protein with a probe library.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// Ranked consensus sites (hotspot candidates).
    pub sites: Vec<ConsensusSite>,
    /// Number of conformations minimized in total.
    pub conformations_minimized: usize,
    /// Per-phase profile (summed over probes).
    pub profile: MappingProfile,
    /// Minimized pose centres per probe type (for inspection / examples).
    pub pose_centers: Vec<(ProbeType, Vec3)>,
}

impl MappingResult {
    /// The top-ranked hotspot centre, if any site was found.
    pub fn top_hotspot(&self) -> Option<Vec3> {
        self.sites.first().map(|s| s.cluster.center)
    }
}

/// Everything one probe contributes to a mapping run (the shard unit).
///
/// Public because queued-job consumers (the `ftmap-serve` batch service)
/// schedule probes from *several* jobs as one phased batch and assemble each
/// job's result themselves from its shards. Under pose-block
/// scheduling a `ProbeShard` is also the *partial* product of one block
/// ([`FtMapPipeline::minimize_pose_block`]); partials fold with
/// [`ProbeShard::absorb`].
pub struct ProbeShard {
    /// The probe's phase profile.
    pub profile: MappingProfile,
    /// Minimized pose centres, ready for consensus clustering.
    pub inputs: Vec<ClusterInput>,
    /// Conformations minimized for this probe.
    pub conformations: usize,
    /// Pure modeled kernel seconds (transfers excluded) — what the
    /// scheduler's stream model charges to the compute stage.
    pub kernel_modeled_s: f64,
}

impl ProbeShard {
    /// Folds a later partial (the next pose block, in pose order) into this
    /// shard: profiles accumulate, cluster inputs concatenate.
    pub fn absorb(&mut self, block: ProbeShard) {
        self.profile.merge(&block.profile);
        self.inputs.extend(block.inputs);
        self.conformations += block.conformations;
        self.kernel_modeled_s += block.kernel_modeled_s;
    }
}

/// The dock-once phase product for one probe: the retained poses plus
/// everything a pose block needs to minimize any slice of them on any pooled
/// device — the probe itself, the rotation set the run was scored with, and
/// the docking-phase profile.
///
/// Public for the same reason as [`ProbeShard`]: the batch service docks every
/// job's probes as dock items and interleaves all jobs' pose blocks behind
/// them.
pub struct DockedProbe {
    probe: Probe,
    run: DockingRun,
    rotations: Arc<RotationSet>,
    /// Docking-phase times only (minimization accrues on the blocks).
    profile: MappingProfile,
    /// Pure modeled docking kernel seconds (transfers excluded).
    kernel_modeled_s: f64,
}

impl DockedProbe {
    /// Pure modeled docking kernel seconds — the dock item's compute-stage
    /// figure for the scheduler's stream model.
    pub(crate) fn kernel_modeled_s(&self) -> f64 {
        self.kernel_modeled_s
    }

    /// The dock phase's contribution as a shard seed: docking profile and
    /// kernel seconds, no minimized poses yet. Pose blocks fold in — in pose
    /// order — via [`ProbeShard::absorb`].
    pub fn to_shard(&self) -> ProbeShard {
        ProbeShard {
            profile: self.profile.clone(),
            inputs: Vec::new(),
            conformations: 0,
            kernel_modeled_s: self.kernel_modeled_s,
        }
    }
}

/// The FTMap pipeline over one protein.
///
/// Cloning is cheap where it matters: the pool, the receptor grids and the
/// receptor's half of minimization set-up are shared `Arc`s, so a clone
/// schedules onto the same devices and borrows the same resident grids and
/// protein neighbor list — which is what lets a pipeline be moved into a
/// long-lived phased batch ([`crate::phased::PhasedMapBatch`]) while the
/// caller keeps its own handle.
#[derive(Clone)]
pub struct FtMapPipeline {
    protein: SyntheticProtein,
    ff: ForceField,
    config: FtMapConfig,
    pool: Arc<DevicePool>,
    /// Receptor grids built once per pipeline (host side). Per-probe docking
    /// contexts borrow these, and the device-side copy is managed by each
    /// device's residency cache — so N probes (or N queued jobs) against one
    /// receptor cost one host build and one upload per device.
    receptor: Arc<piper_dock::ReceptorGrids>,
    /// The receptor's half of minimization set-up, built by the first pose
    /// any clone minimizes and shared by every later one — every block, every
    /// device, every probe.
    receptor_half: Arc<OnceLock<ReceptorHalf>>,
}

impl FtMapPipeline {
    /// Creates a pipeline for the given protein, with a Tesla-class pool sized
    /// by the configured mode (1 device for the single-device modes,
    /// `devices` for [`PipelineMode::Sharded`]).
    pub fn new(protein: SyntheticProtein, ff: ForceField, config: FtMapConfig) -> Self {
        let pool = DevicePool::tesla(config.mode.device_count());
        Self::with_pool(protein, ff, config, pool)
    }

    /// Creates a pipeline on an explicit (possibly heterogeneous) device pool:
    /// an owned [`DevicePool`], or an `Arc` handle shared with other consumers
    /// so all of them land on the same devices (and the same residency
    /// caches).
    pub fn with_pool(
        protein: SyntheticProtein,
        ff: ForceField,
        config: FtMapConfig,
        pool: impl Into<Arc<DevicePool>>,
    ) -> Self {
        let receptor = Docking::build_receptor(&protein.atoms, &config.docking);
        Self::with_shared_resources(protein, ff, config, pool.into(), receptor, Arc::default())
    }

    /// Creates a pipeline from prebuilt receptor grids and a receptor half
    /// (built or not) on a shared pool — lets a service memoize the host-side
    /// set-up across jobs for the same receptor content. `receptor_half` must
    /// only be shared between pipelines whose protein atoms, protein topology
    /// and force field are equal.
    pub fn with_shared_resources(
        protein: SyntheticProtein,
        ff: ForceField,
        config: FtMapConfig,
        pool: Arc<DevicePool>,
        receptor: Arc<piper_dock::ReceptorGrids>,
        receptor_half: Arc<OnceLock<ReceptorHalf>>,
    ) -> Self {
        FtMapPipeline { protein, ff, config, pool, receptor, receptor_half }
    }

    /// The configuration.
    pub fn config(&self) -> &FtMapConfig {
        &self.config
    }

    /// The protein being mapped.
    pub fn protein(&self) -> &SyntheticProtein {
        &self.protein
    }

    /// The device pool this pipeline executes on (clone the handle to
    /// co-schedule other work onto it).
    pub fn pool(&self) -> &Arc<DevicePool> {
        &self.pool
    }

    /// The receptor grids every probe of this pipeline docks against.
    pub fn receptor(&self) -> &Arc<piper_dock::ReceptorGrids> {
        &self.receptor
    }

    /// Maps the protein with every probe in `library`.
    ///
    /// The single-device modes run the probe loop on the pool's first device.
    /// [`PipelineMode::Sharded`] runs the library as one batch on a one-run
    /// phased scheduler over the pool: every probe's pose blocks become
    /// runnable the moment *its own* dock lands, so docking and minimization
    /// overlap across probes with no phase barrier
    /// ([`MappingProfile::pipeline_overlap_saved_s`] reports what that was
    /// worth). Results are bit-identical to [`PipelineMode::Accelerated`].
    ///
    /// Resets the pool's transfer accounting at the start of the run, so the
    /// pool must not be executing other work concurrently; grid residency
    /// survives the reset.
    ///
    /// # Panics
    /// A panic in a probe's docking or minimization reaches the caller: in
    /// [`PipelineMode::Sharded`] it fails the scheduler batch on a worker, and
    /// `map` panics with the batch's index and the original message.
    pub fn map(&self, library: &ProbeLibrary) -> MappingResult {
        match self.config.mode {
            PipelineMode::Sharded { .. } => self.map_pipelined_traced(library, ftmap_trace::noop()),
            PipelineMode::Serial | PipelineMode::Accelerated => self.map_single(library),
        }
    }

    /// Maps through a one-run phased scheduler whatever the mode, with a trace
    /// sink: the scheduler records every scheduler, kernel, transfer and cache
    /// event into `sink` on the modeled virtual timeline (see `ftmap_trace`).
    /// With [`ftmap_trace::noop`] this is exactly what [`FtMapPipeline::map`]
    /// does in [`PipelineMode::Sharded`].
    pub fn map_pipelined_traced(
        &self,
        library: &ProbeLibrary,
        sink: Arc<dyn ftmap_trace::TraceSink>,
    ) -> MappingResult {
        self.pool.reset_transfer_stats();
        let sched = PhasePipeline::with_trace(Arc::clone(&self.pool), sink);
        let batch = Arc::new(PhasedMapBatch::new(
            vec![(self.clone(), library.clone())],
            self.config.mode.pose_block(),
        ));
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
        let report = handle.wait();
        sched.shutdown();
        let report = report.unwrap_or_else(|failed| panic!("{failed}"));
        let mut result = batch.take_results().pop().expect("one job in, one result out");
        result.profile.schedule = Some(Box::new(report));
        result
    }

    /// The single-device probe loop (serial and accelerated modes).
    fn map_single(&self, library: &ProbeLibrary) -> MappingResult {
        // Pooled devices outlive runs: reset their transfer accounting so a
        // previous run's transfers cannot leak into this one.
        self.pool.reset_transfer_stats();
        let device = self.pool.device(0);
        self.assemble(library.probes().iter().map(|probe| self.map_probe_shard(probe, device)))
    }

    /// Folds per-probe shards (in library order) into the mapping result —
    /// the one fold behind every mode and every serve job.
    pub(crate) fn assemble(&self, shards: impl Iterator<Item = ProbeShard>) -> MappingResult {
        let mut profile = MappingProfile::default();
        let mut cluster_inputs: Vec<ClusterInput> = Vec::new();
        let mut pose_centers = Vec::new();
        let mut conformations = 0usize;
        for shard in shards {
            profile.merge(&shard.profile);
            conformations += shard.conformations;
            for input in &shard.inputs {
                pose_centers.push((input.probe, input.center));
            }
            cluster_inputs.extend(shard.inputs);
        }
        let sites = cluster_poses(&cluster_inputs, self.config.cluster_radius);
        MappingResult { sites, conformations_minimized: conformations, profile, pose_centers }
    }

    /// Maps a single probe on the given pooled device, returning its shard —
    /// the fused (`pose_block: 0`) work body [`crate::phased::PhasedMapBatch`]
    /// runs as one dock-phase item per `(job, probe)` entry. Expressed as a
    /// dock phase plus one full-range pose block so both granularities share
    /// every line of the actual work.
    pub(crate) fn map_probe_shard(&self, probe: &Probe, device: &Arc<Device>) -> ProbeShard {
        let docked = self.dock_probe_shard(probe, device);
        let n_conf = self.retained_pose_count(&docked);
        let block = self.minimize_pose_block(&docked, 0..n_conf, device);
        let mut shard = docked.to_shard();
        shard.absorb(block);
        shard
    }

    /// The dock-once phase for one probe on the given pooled device: rigid
    /// docking only, returning everything the minimize phase needs to work on
    /// any slice of the retained poses. The receptor grids are the pipeline's
    /// prebuilt set; the device-resident copy comes from the residency cache
    /// (upload charged on first sighting only).
    pub fn dock_probe_shard(&self, probe: &Probe, device: &Arc<Device>) -> DockedProbe {
        let mut profile = MappingProfile::default();
        let docking = Docking::from_grids(
            Arc::clone(&self.receptor),
            self.config.docking.clone(),
            Arc::clone(device),
        );
        let (run, dock_wall_s) = wall_timed(|| docking.run(probe));
        profile.docking_wall_s += dock_wall_s;
        profile.docking_modeled_s += run.modeled.total();
        // Pure kernel time for the stream model: the run reports how much
        // transfer time it folded into its modeled steps, so those seconds are
        // counted by the transfer stages, not the compute stage.
        let kernel_modeled_s = run.modeled.total() - run.modeled_transfer_s;
        let rotations = Arc::clone(docking.rotations_arc());
        DockedProbe { probe: probe.clone(), run, rotations, profile, kernel_modeled_s }
    }

    /// Retained poses this pipeline minimizes for a docked probe — the range
    /// pose blocks partition (`0..retained_pose_count`).
    pub fn retained_pose_count(&self, docked: &DockedProbe) -> usize {
        self.config.conformations_per_probe.min(docked.run.poses.len())
    }

    /// Minimizes one contiguous block of a docked probe's retained poses on
    /// the given pooled device, returning the block's partial shard.
    ///
    /// Every pose is minimized independently (its own complex, its own
    /// descent), so a probe's blocks can run on different devices in any
    /// order and still fold — in pose order, via [`ProbeShard::absorb`] —
    /// into bit-identical cluster inputs to the fused path.
    pub fn minimize_pose_block(
        &self,
        docked: &DockedProbe,
        pose_range: Range<usize>,
        device: &Arc<Device>,
    ) -> ProbeShard {
        let mut profile = MappingProfile::default();
        let minimizer = Minimizer::new(self.ff.clone(), self.config.minimization);
        let mut inputs = Vec::new();
        let mut conformations = 0usize;
        let mut kernel_modeled_s = 0.0;
        let centered: Vec<Vec3> = docked.probe.atoms.iter().map(|a| a.position).collect();
        for pose_index in pose_range {
            let placed = docked.run.place_pose(&docked.rotations, &centered, pose_index);
            let mut posed_probe = docked.probe.clone();
            for (atom, new_pos) in posed_probe.atoms.iter_mut().zip(&placed) {
                atom.position = *new_pos;
            }
            let mut complex = Complex::new(&self.protein, &posed_probe);

            let (result, minimize_wall_s) = wall_timed(|| {
                let half = self.receptor_half.get_or_init(|| ReceptorHalf::new(&complex, &self.ff));
                minimizer.minimize_against(half, &mut complex, device)
            });
            profile.minimization_wall_s += minimize_wall_s;
            let modeled_s = match self.config.mode {
                PipelineMode::Accelerated | PipelineMode::Sharded { .. } => {
                    result.modeled_kernel_total_s()
                }
                // For the serial pipeline the host evaluation *is* the measured work;
                // use the measured evaluation time as the modeled serial time.
                PipelineMode::Serial => result.evaluation_time_s + result.update_time_s,
            };
            profile.minimization_modeled_s += modeled_s;
            // Minimization kernel times carry no transfers, so the stream
            // model's compute stage gets the same figure.
            kernel_modeled_s += modeled_s;
            conformations += 1;

            inputs.push(ClusterInput {
                probe: docked.probe.probe_type,
                center: complex.probe_centroid(),
                energy: result.final_energy,
            });
        }
        ProbeShard { profile, inputs, conformations, kernel_modeled_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{ProbeLibrary, ProteinSpec};

    fn small_pipeline(mode: PipelineMode) -> (FtMapPipeline, ProbeLibrary) {
        small_pipeline_with_engine(mode, FtMapConfig::small_test(mode).docking.engine)
    }

    fn small_pipeline_with_engine(
        mode: PipelineMode,
        engine: DockingEngineKind,
    ) -> (FtMapPipeline, ProbeLibrary) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
        let mut config = FtMapConfig::small_test(mode);
        config.docking.engine = engine;
        let pipeline = FtMapPipeline::new(protein, ff, config);
        (pipeline, library)
    }

    #[test]
    fn degrade_policy_shrinks_work_knobs_with_floors() {
        let config = FtMapConfig::paper_scale(PipelineMode::Accelerated);
        let (degraded, applied) = config.degraded(&DegradePolicy::default());
        assert_eq!(applied.rotations, (500, 250));
        assert_eq!(applied.conformations, (2000, 1000));
        assert_eq!(degraded.docking.n_rotations, 250);
        assert_eq!(degraded.conformations_per_probe, 1000);
        assert!(!applied.is_noop());
        // Grid geometry is untouched — the degraded request still batches
        // with its undegraded siblings.
        assert_eq!(degraded.docking.grid_dim, config.docking.grid_dim);
        assert_eq!(degraded.docking.spacing, config.docking.spacing);
        assert_eq!(degraded.docking.n_desolv, config.docking.n_desolv);

        // Floors hold: an aggressive policy cannot go below them.
        let aggressive = DegradePolicy {
            rotation_factor: 0.001,
            min_rotations: 16,
            conformation_factor: 0.001,
            min_conformations: 2,
        };
        let (floored, applied) = config.degraded(&aggressive);
        assert_eq!(floored.docking.n_rotations, 16);
        assert_eq!(floored.conformations_per_probe, 2);
        assert_eq!(applied.rotations, (500, 16));

        // A no-op policy reports itself as such.
        let noop = DegradePolicy {
            rotation_factor: 1.0,
            min_rotations: 0,
            conformation_factor: 1.0,
            min_conformations: 0,
        };
        let (same, applied) = config.degraded(&noop);
        assert!(applied.is_noop());
        assert_eq!(same.docking.n_rotations, config.docking.n_rotations);

        // Conformations never exceed what the degraded docking can retain.
        let mut tiny = FtMapConfig::small_test(PipelineMode::Accelerated);
        tiny.docking.n_rotations = 4;
        tiny.docking.poses_per_rotation = 1;
        tiny.conformations_per_probe = 4;
        let (degraded, _) = tiny.degraded(&DegradePolicy {
            rotation_factor: 0.5,
            min_rotations: 1,
            conformation_factor: 1.0,
            min_conformations: 1,
        });
        assert!(
            degraded.conformations_per_probe
                <= degraded.docking.n_rotations * degraded.docking.poses_per_rotation
        );
    }

    #[test]
    fn serial_pipeline_produces_consensus_sites() {
        let (pipeline, library) = small_pipeline(PipelineMode::Serial);
        let result = pipeline.map(&library);
        assert!(result.conformations_minimized > 0);
        assert!(!result.sites.is_empty());
        assert!(result.top_hotspot().is_some());
        assert!(result.profile.total_wall_s() > 0.0);
        assert_eq!(
            result.conformations_minimized,
            library.len() * pipeline.config().conformations_per_probe
        );
        assert_eq!(result.pose_centers.len(), result.conformations_minimized);
    }

    #[test]
    fn accelerated_pipeline_produces_consensus_sites() {
        let (pipeline, library) = small_pipeline(PipelineMode::Accelerated);
        let result = pipeline.map(&library);
        assert!(!result.sites.is_empty());
        assert!(result.profile.docking_modeled_s > 0.0);
        assert!(result.profile.minimization_modeled_s > 0.0);
    }

    #[test]
    fn minimization_dominates_serial_wall_time() {
        // Fig. 2(a): minimization ≈93 % of the serial FTMap runtime. With the scaled
        // test configuration the exact split differs, but minimization (many
        // conformations × many iterations) must dominate docking.
        let (pipeline, library) = small_pipeline(PipelineMode::Serial);
        let result = pipeline.map(&library);
        let (dock_pct, min_pct) = result.profile.wall_percentages();
        assert!(min_pct > dock_pct, "docking {dock_pct}% vs minimization {min_pct}%");
    }

    #[test]
    fn accelerated_modeled_time_beats_serial_modeled_time() {
        // The overall §V.C claim in miniature: the accelerated pipeline's modeled time
        // is below the serial pipeline's modeled time on the same workload.
        let (serial, library) = small_pipeline(PipelineMode::Serial);
        let serial_result = serial.map(&library);
        let (accel, _) = small_pipeline(PipelineMode::Accelerated);
        let accel_result = accel.map(&library);
        assert!(
            accel_result.profile.total_modeled_s() < serial_result.profile.total_modeled_s(),
            "accelerated {} vs serial {}",
            accel_result.profile.total_modeled_s(),
            serial_result.profile.total_modeled_s()
        );
    }

    #[test]
    fn backend_seam_selects_both_phase_engines() {
        // The mode is the backend seam: every mode's configurations, at both
        // scales, name matching engines for both phases — serial FFT docking
        // with host minimization, or the GPU engines for both.
        let gpu_docking = DockingEngineKind::Gpu { batch: DEFAULT_GPU_BATCH };
        for (mode, engine, path) in [
            (PipelineMode::Serial, DockingEngineKind::FftSerial, EvaluationPath::Host),
            (PipelineMode::Accelerated, gpu_docking, EvaluationPath::Gpu),
            (PipelineMode::sharded(2), gpu_docking, EvaluationPath::Gpu),
        ] {
            for config in [FtMapConfig::small_test(mode), FtMapConfig::paper_scale(mode)] {
                assert_eq!(config.mode, mode);
                assert_eq!(config.docking.engine, engine, "{mode:?}");
                assert_eq!(config.minimization.path, path, "{mode:?}");
            }
        }
    }

    #[test]
    fn sharded_mode_rides_the_gpu_backend() {
        let mode = PipelineMode::sharded(4);
        assert_eq!(mode.device_count(), 4);
        assert_eq!(mode.pose_block(), DEFAULT_POSE_BLOCK);
        assert_eq!(PipelineMode::Sharded { devices: 0, pose_block: 0 }.device_count(), 1);
        assert_eq!(PipelineMode::Accelerated.device_count(), 1);
        assert_eq!(PipelineMode::Accelerated.pose_block(), 0);
        assert_eq!(PipelineMode::Serial.pose_block(), 0);
        // Sharding runs the accelerated engines.
        let engine = FtMapConfig::small_test(mode).docking.engine;
        assert_eq!(engine, DockingEngineKind::Gpu { batch: DEFAULT_GPU_BATCH });
    }

    #[test]
    fn a_sharded_map_builds_the_receptor_half_once() {
        // Pose blocks of one pose on two devices: every block minimizes on a
        // clone of the pipeline, on a scheduler thread, and all of them share
        // the one half the first pose builds — the original's, which never
        // minimized anything itself. A second library reuses it.
        let mode = PipelineMode::Sharded { devices: 2, pose_block: 1 };
        let (pipeline, library) = small_pipeline(mode);
        let clone = pipeline.clone();
        assert!(Arc::ptr_eq(&pipeline.receptor_half, &clone.receptor_half));
        assert!(pipeline.receptor_half.get().is_none(), "built lazily, by the first pose");
        let first = pipeline.map(&library);
        let half = pipeline.receptor_half.get().expect("the clones built the shared half");
        let ff = ForceField::charmm_like();
        let again = pipeline.map(&ProbeLibrary::subset(&ff, &[ProbeType::Urea]));
        assert!(std::ptr::eq(half, pipeline.receptor_half.get().expect("still built")));
        assert!(first.conformations_minimized > 1 && again.conformations_minimized > 0);
    }

    #[test]
    fn sharded_pipeline_reports_per_device_loads() {
        // Both granularities must account every probe and report a coherent
        // makespan/skew view; the pose-block schedule additionally reports
        // its per-device block counts, and the per-phase stream rows carry
        // the dock-item and pose-block counts.
        for pose_block in [0usize, 1] {
            let (pipeline, library) =
                small_pipeline(PipelineMode::Sharded { devices: 2, pose_block });
            assert_eq!(pipeline.pool().len(), 2);
            let result = pipeline.map(&library);
            assert!(!result.sites.is_empty());
            let schedule = result.profile.schedule.as_ref().expect("sharded runs keep a schedule");
            assert_eq!(schedule.per_device.len(), 2);
            let serviced: usize = schedule.per_device.iter().map(|d| d.dock.ops).sum();
            assert_eq!(serviced, library.len(), "pose_block {pose_block}");
            let blocks: usize = schedule.per_device.iter().map(|d| d.minimize.ops).sum();
            if pose_block == 0 {
                assert_eq!(blocks, 0, "probe granularity schedules no blocks");
            } else {
                // Block size 1 ⇒ one block per minimized conformation.
                assert_eq!(blocks, result.conformations_minimized);
            }
            assert_eq!((schedule.docks, schedule.blocks), (library.len(), blocks));
            assert!(result.profile.pipeline_overlap_saved_s() >= 0.0);
            // Every probe was worked somewhere and the makespan is positive
            // but no larger than the sum of the per-phase modeled totals.
            assert!(result.profile.makespan_modeled_s() > 0.0);
            assert!(
                result.profile.makespan_modeled_s()
                    <= result.profile.total_modeled_s() + result.profile.overlap_saved_s() + 1e-9,
                "pose_block {pose_block}"
            );
            assert!(result.profile.load_skew() >= 1.0 - 1e-12);
            assert_eq!(result.profile.device_utilizations().len(), 2);
        }
    }

    #[test]
    fn pose_block_scheduling_is_bit_identical_to_fused() {
        // The dock-once / minimize-pose-block split must reproduce the fused
        // path exactly: same sites, same pose centres, same energies.
        let (fused, library) = small_pipeline(PipelineMode::Accelerated);
        let reference = fused.map(&library);
        let (split, _) = small_pipeline(PipelineMode::Sharded { devices: 2, pose_block: 2 });
        let result = split.map(&library);
        assert_eq!(reference.conformations_minimized, result.conformations_minimized);
        assert_eq!(reference.pose_centers.len(), result.pose_centers.len());
        for ((pa, ca), (pb, cb)) in reference.pose_centers.iter().zip(&result.pose_centers) {
            assert_eq!(pa, pb);
            assert!(ca.x == cb.x && ca.y == cb.y && ca.z == cb.z);
        }
        assert_eq!(reference.sites.len(), result.sites.len());
        for (a, b) in reference.sites.iter().zip(&result.sites) {
            assert_eq!(a.rank, b.rank);
            assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
        }
    }

    #[test]
    fn batched_fft_pipeline_is_bit_identical_across_batch_and_pool_sizes() {
        // The batched FFT engine must be a pure schedule change: swapping it
        // in for the per-rotation FFT engine — at any batch size, on any pool
        // size — reproduces the same poses, centres and consensus sites bit
        // for bit. (Satellite of the batched-FFT tentpole; the docking-level
        // twin lives in `piper_dock::docking`.)
        let (reference, library) =
            small_pipeline_with_engine(PipelineMode::Accelerated, DockingEngineKind::FftSerial);
        let expected = reference.map(&library);
        for devices in [1usize, 4] {
            for batch in [1usize, 7, 64] {
                let mode = match devices {
                    1 => PipelineMode::Accelerated,
                    n => PipelineMode::sharded(n),
                };
                let (pipeline, _) =
                    small_pipeline_with_engine(mode, DockingEngineKind::BatchedFft { batch });
                assert_eq!(pipeline.pool().len(), devices);
                let result = pipeline.map(&library);
                assert_eq!(
                    expected.conformations_minimized, result.conformations_minimized,
                    "devices {devices} batch {batch}"
                );
                assert_eq!(expected.pose_centers.len(), result.pose_centers.len());
                for ((pa, ca), (pb, cb)) in expected.pose_centers.iter().zip(&result.pose_centers) {
                    assert_eq!(pa, pb, "devices {devices} batch {batch}");
                    assert!(
                        ca.x == cb.x && ca.y == cb.y && ca.z == cb.z,
                        "devices {devices} batch {batch}: centre {ca:?} vs {cb:?}"
                    );
                }
                assert_eq!(expected.sites.len(), result.sites.len());
                for (a, b) in expected.sites.iter().zip(&result.sites) {
                    assert_eq!(a.rank, b.rank);
                    assert!(
                        a.cluster.center.distance(b.cluster.center) == 0.0,
                        "devices {devices} batch {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn dock_once_minimize_blocks_compose_into_the_probe_shard() {
        // The split API: docking once and minimizing in two blocks must fold
        // into exactly what the fused per-probe path produces.
        let (pipeline, library) = small_pipeline(PipelineMode::Accelerated);
        let probe = &library.probes()[0];
        let device = Arc::clone(pipeline.pool().device(0));
        let fused = pipeline.map_probe_shard(probe, &device);
        let docked = pipeline.dock_probe_shard(probe, &device);
        let n_conf = pipeline.retained_pose_count(&docked);
        assert!(n_conf >= 2, "need at least two poses to split");
        assert!(docked.run.poses.len() >= n_conf);
        assert!(docked.kernel_modeled_s() > 0.0);
        let mut shard = pipeline.minimize_pose_block(&docked, 0..1, &device);
        shard.absorb(pipeline.minimize_pose_block(&docked, 1..n_conf, &device));
        assert_eq!(shard.conformations, fused.conformations);
        assert_eq!(shard.inputs.len(), fused.inputs.len());
        for (a, b) in shard.inputs.iter().zip(&fused.inputs) {
            assert_eq!(a.probe, b.probe);
            assert!(a.center.x == b.center.x && a.center.y == b.center.y);
            assert!(a.energy == b.energy);
        }
    }

    #[test]
    fn repeated_runs_do_not_leak_transfer_stats() {
        // Pooled devices are reused across runs; `map` must reset their
        // transfer accounting so each run reports only its own transfers, not
        // an accumulation (regression test for the pool-reset audit). Run 1
        // additionally pays the one-time receptor upload (residency miss);
        // runs 2 and 3 hit the cache, so their transfer totals are identical
        // and smaller by exactly that upload.
        let (pipeline, library) = small_pipeline(PipelineMode::Accelerated);
        let device = Arc::clone(pipeline.pool().device(0));
        pipeline.map(&library);
        let after_first = pipeline.pool().total_transfer_time();
        pipeline.map(&library);
        let after_second = pipeline.pool().total_transfer_time();
        pipeline.map(&library);
        let after_third = pipeline.pool().total_transfer_time();
        assert!(after_first > 0.0);
        let receptor_upload_s = device
            .cost_model()
            .transfer_time(&gpu_sim::Transfer::upload(pipeline.receptor().resident_bytes() as u64));
        assert!(
            (after_first - after_second - receptor_upload_s).abs() < 1e-12,
            "warm run should differ from cold run by one receptor upload: \
             {after_first} then {after_second} (upload {receptor_upload_s})"
        );
        assert!(
            (after_second - after_third).abs() < 1e-12,
            "transfer stats leaked across warm runs: {after_second} then {after_third}"
        );
    }

    #[test]
    fn residency_miss_uploads_once_per_device_and_hits_are_free() {
        // The serve-layer transfer contract: across a whole sharded run, each
        // pooled device records exactly one receptor-grid upload (its first
        // probe misses), and every other probe's construction is a free hit.
        let (pipeline, library) =
            small_pipeline(PipelineMode::Sharded { devices: 2, pose_block: 0 });
        let receptor_bytes = pipeline.receptor().resident_bytes();
        pipeline.map(&library);
        let mut total_misses = 0;
        for device in pipeline.pool().devices() {
            let stats = device.residency().stats();
            if stats.lookups() > 0 {
                // A device that serviced k probes saw k lookups: 1 miss (its
                // first probe) + (k-1) free hits.
                assert_eq!(stats.misses, 1, "exactly one miss per active device");
                assert_eq!(stats.insertions, 1);
                assert_eq!(stats.hits + 1, stats.lookups());
            }
            total_misses += stats.misses;
        }
        assert!(total_misses >= 1);
        // A fresh identical pipeline on a fresh pool pays the upload once per
        // device; re-running on the warm pool pays zero receptor bytes: the
        // second run's bytes are smaller by exactly one grid set per device
        // that serviced work in run 1 but no longer misses.
        let (cold, _) = small_pipeline(PipelineMode::Accelerated);
        cold.map(&library);
        let cold_bytes = cold.pool().device(0).total_transfer_bytes();
        cold.map(&library);
        let warm_bytes = cold.pool().device(0).total_transfer_bytes();
        assert_eq!(cold_bytes - warm_bytes, receptor_bytes);
    }

    #[test]
    fn paper_scale_config_matches_paper_parameters() {
        let cfg = FtMapConfig::paper_scale(PipelineMode::Accelerated);
        assert_eq!(cfg.docking.n_rotations, 500);
        assert_eq!(cfg.docking.poses_per_rotation, 4);
        assert_eq!(cfg.conformations_per_probe, 2000);
        assert!(matches!(cfg.docking.engine, DockingEngineKind::Gpu { batch: 8 }));
    }
}
