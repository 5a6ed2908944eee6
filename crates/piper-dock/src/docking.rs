//! Full rigid-docking runs: the per-probe loop over rotations.
//!
//! FTMap docks each probe with 500 rotations and keeps the 4 best-scoring translations
//! per rotation (paper §II.A), producing ~2000 conformations for the minimization
//! phase. [`Docking::run`] performs that loop with any of the engines the paper
//! compares, and records two timing views:
//!
//! * **wall-clock** per step on this machine (useful for the measured speedup of the
//!   multicore and block-parallel paths), and
//! * **modeled** per step — Xeon-core modeled times for host engines, device-model
//!   times for the GPU engine — which is what the Table 1 / Fig. 2(b) reproduction
//!   compares, since the original hardware is not available.

use crate::batched_fft::{self, BatchedFftEngine, RotationBuffers};
use crate::direct::{DirectCorrelationEngine, SparseLigand};
use crate::fft_engine::FftCorrelationEngine;
use crate::filter;
use crate::gpu::GpuDockingEngine;
use crate::grids::{EnergyWeights, GridSpec, LigandGrids, ReceptorGrids};
use crate::pose::{sort_best_first, Pose};
use ftmap_math::rotations::FTMAP_ROTATION_COUNT;
use ftmap_math::{Real, RotationSet};
use ftmap_molecule::{Atom, Probe};
use gpu_sim::{wall_timed, CostModel, Device, DeviceSpec, MemoryCounters};
use std::sync::Arc;

/// Which engine scores the rotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DockingEngineKind {
    /// Original PIPER: serial FFT correlation on the host.
    FftSerial,
    /// FFT correlation with rotations distributed over host threads.
    FftMulticore(usize),
    /// Direct correlation, serial on the host.
    DirectSerial,
    /// Direct correlation with the receptor passes split over host threads.
    DirectMulticore(usize),
    /// The paper's GPU mapping: batched direct correlation + device-side
    /// accumulation, scoring and filtering.
    Gpu {
        /// Rotations per batch (8 in the paper for 4³ probes). Clamped to what fits in
        /// constant memory.
        batch: usize,
    },
    /// Batched FFT correlation on the device model: receptor transforms + FFT
    /// plan cached as a derived residency payload, many rotations packed into
    /// single forward/multiply/inverse launches, and scoring + top-K filtering
    /// fused into the correlation epilogue so only retained poses are
    /// downloaded. Bit-identical poses to [`DockingEngineKind::FftSerial`].
    BatchedFft {
        /// Rotations per batched launch (the frequency-domain grids are in
        /// global memory, so the batch is bounded by occupancy, not constant
        /// memory — [`DEFAULT_FFT_BATCH`] by default).
        batch: usize,
    },
}

/// The paper-default batching factor for the GPU engine (8 rotations of a 4³
/// probe fit in the C1060's 64 KB of constant memory together).
pub const DEFAULT_GPU_BATCH: usize = 8;

/// Default rotations per launch for [`DockingEngineKind::BatchedFft`]. FFT
/// batching is not constant-memory bound, so whole rotation sweeps are packed
/// into few large launches.
pub const DEFAULT_FFT_BATCH: usize = 64;

/// Configuration of a docking run.
#[derive(Debug, Clone)]
pub struct DockingConfig {
    /// Receptor / result grid dimension `N` (must be a power of two for FFT engines).
    pub grid_dim: usize,
    /// Grid spacing in Å.
    pub spacing: Real,
    /// Number of desolvation components (4–18).
    pub n_desolv: usize,
    /// Number of rotations to score.
    pub n_rotations: usize,
    /// Poses retained per rotation (FTMap keeps 4).
    pub poses_per_rotation: usize,
    /// Exclusion radius (voxels) for filtering.
    pub exclusion_radius: usize,
    /// Energy weights of Equation (2).
    pub weights: EnergyWeights,
    /// Engine selection.
    pub engine: DockingEngineKind,
}

impl Default for DockingConfig {
    fn default() -> Self {
        DockingConfig {
            grid_dim: 64,
            spacing: 1.0,
            n_desolv: 4,
            n_rotations: FTMAP_ROTATION_COUNT,
            poses_per_rotation: 4,
            exclusion_radius: 3,
            weights: EnergyWeights::default(),
            engine: DockingEngineKind::Gpu { batch: 8 },
        }
    }
}

impl DockingConfig {
    /// A scaled-down configuration suitable for unit and integration tests.
    pub fn small_test(engine: DockingEngineKind) -> Self {
        DockingConfig {
            grid_dim: 16,
            spacing: 2.0,
            n_desolv: 4,
            n_rotations: 4,
            poses_per_rotation: 2,
            exclusion_radius: 2,
            weights: EnergyWeights::default(),
            engine,
        }
    }
}

/// Per-step times for one docking run, in seconds. Each field is the total over all
/// rotations; divide by `n_rotations` for the per-rotation numbers of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTimes {
    /// Rotation of the probe and ligand-grid assignment (always on the host).
    pub rotation_grid_s: f64,
    /// Correlations (FFT or direct).
    pub correlation_s: f64,
    /// Accumulation of the desolvation pairwise-potential terms.
    pub accumulation_s: f64,
    /// Scoring and filtering.
    pub scoring_filtering_s: f64,
}

impl StepTimes {
    /// Total over all steps.
    pub fn total(&self) -> f64 {
        self.rotation_grid_s + self.correlation_s + self.accumulation_s + self.scoring_filtering_s
    }

    /// Per-step percentage breakdown `(rotation, correlation, accumulation, scoring)`.
    pub fn percentages(&self) -> [f64; 4] {
        let t = self.total();
        if t <= 0.0 {
            return [0.0; 4];
        }
        [
            100.0 * self.rotation_grid_s / t,
            100.0 * self.correlation_s / t,
            100.0 * self.accumulation_s / t,
            100.0 * self.scoring_filtering_s / t,
        ]
    }
}

/// The outcome of a docking run.
#[derive(Debug, Clone)]
pub struct DockingRun {
    /// Retained poses, best-first.
    pub poses: Vec<Pose>,
    /// Number of rotations scored.
    pub n_rotations: usize,
    /// Measured wall-clock step times on this machine.
    pub wall: StepTimes,
    /// Modeled step times (Xeon core for host engines, C1060 device model for the GPU
    /// engine).
    pub modeled: StepTimes,
    /// Modeled host↔device transfer seconds *folded into* `modeled` (the
    /// per-batch ligand uploads counted inside `modeled.correlation_s`; 0 for
    /// the host engines). Stream-overlap accounting subtracts this to recover
    /// pure kernel time, so the same transfer seconds are never counted twice.
    pub modeled_transfer_s: f64,
    /// Grid spec used (needed to convert poses back to Cartesian space).
    pub grid: GridSpec,
}

impl DockingRun {
    /// Places retained pose `pose_index` in Cartesian space: rotates the
    /// probe's centred atom positions by the pose's rotation (looked up in the
    /// `rotations` set the run was scored with) and translates them to the
    /// pose centre on this run's grid.
    ///
    /// This is the docking-result → minimization-input handoff, factored onto
    /// the run itself so consumers that split one run across many pose blocks
    /// (the pose-granularity scheduler) can place any pose without keeping the
    /// originating [`Docking`] context — and so every consumer converts poses
    /// with the same grid arithmetic.
    ///
    /// # Panics
    /// Panics if `pose_index` is out of range.
    pub fn place_pose(
        &self,
        rotations: &RotationSet,
        centered_positions: &[ftmap_math::Vec3],
        pose_index: usize,
    ) -> Vec<ftmap_math::Vec3> {
        let pose = &self.poses[pose_index];
        let rotation = rotations.get(pose.rotation_index);
        pose.place_probe(
            rotation,
            centered_positions,
            self.grid.origin,
            self.grid.spacing,
            (self.grid.dim, self.grid.dim, self.grid.dim),
        )
    }
}

/// A docking context: receptor grids built once, reusable across probes and engines.
pub struct Docking {
    receptor: Arc<ReceptorGrids>,
    config: DockingConfig,
    /// Shared so pose-block consumers can place a run's poses after the
    /// context is gone ([`DockingRun::place_pose`]) without recomputing the
    /// rotation set.
    rotations: Arc<RotationSet>,
    xeon: CostModel,
    device: Arc<Device>,
}

impl Docking {
    /// Builds the docking context (receptor grids, rotation set) with a private
    /// Tesla-class device model for the GPU engine.
    pub fn new(protein_atoms: &[Atom], config: DockingConfig) -> Self {
        Self::with_device(protein_atoms, config, Arc::new(Device::tesla_c1060()))
    }

    /// Builds the receptor grids a docking context for `config` would build —
    /// shared preparation for callers (the mapping pipeline, the batch
    /// service) that construct many contexts against one receptor and want to
    /// pay the host-side grid build once.
    pub fn build_receptor(protein_atoms: &[Atom], config: &DockingConfig) -> Arc<ReceptorGrids> {
        let spec = GridSpec::centered_on(protein_atoms, config.grid_dim, config.spacing);
        Arc::new(ReceptorGrids::build(protein_atoms, spec, config.n_desolv))
    }

    /// Builds the receptor grids, then the docking context on `device`.
    fn with_device(protein_atoms: &[Atom], config: DockingConfig, device: Arc<Device>) -> Self {
        let receptor = Self::build_receptor(protein_atoms, &config);
        Self::from_grids(receptor, config, device)
    }

    /// Builds the docking context from prebuilt receptor grids.
    ///
    /// For the device engines this is where the receptor meets the device's
    /// residency cache ([`gpu_sim::ResidencyCache`]): a cache hit **borrows the
    /// resident grid set** (the context adopts the cached `Arc`, so N contexts
    /// against one receptor share one host copy too) and charges zero upload
    /// bytes; a miss charges exactly one grid-set upload and leaves the grids
    /// resident for the next context. A grid set the cache cannot hold (too
    /// large, or the cache is disabled) is uploaded per construction. Host
    /// engines skip the device entirely.
    pub fn from_grids(
        receptor: Arc<ReceptorGrids>,
        config: DockingConfig,
        device: Arc<Device>,
    ) -> Self {
        let receptor = if matches!(
            config.engine,
            DockingEngineKind::Gpu { .. } | DockingEngineKind::BatchedFft { .. }
        ) {
            Self::ensure_resident(&device, receptor)
        } else {
            receptor
        };
        let rotations = Arc::new(RotationSet::uniform(config.n_rotations));
        Docking {
            receptor,
            config,
            rotations,
            xeon: CostModel::new(DeviceSpec::xeon_core()),
            device,
        }
    }

    /// Looks the receptor up in the device's residency cache, inserting on
    /// miss, and charges one grid-set upload unless it was resident. Returns
    /// the grids to dock against: the resident copy on hit.
    fn ensure_resident(device: &Device, receptor: Arc<ReceptorGrids>) -> Arc<ReceptorGrids> {
        let key = receptor.content_key();
        let bytes = receptor.resident_bytes();
        if let gpu_sim::Residency::Hit(payload) = device
            .residency()
            .get_or_insert_with(key, || (Arc::clone(&receptor) as gpu_sim::ResidentPayload, bytes))
        {
            // A foreign payload under this key (a content-hash collision with
            // another cached type) is not ours: dock against our own copy and
            // upload it, as for an uncacheable grid set.
            if let Ok(resident) = payload.downcast::<ReceptorGrids>() {
                return resident;
            }
        }
        device.upload_bytes(bytes as u64);
        receptor
    }

    /// The device this context launches GPU-engine kernels on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The receptor grids (the device-resident copy, when this context hit the
    /// residency cache).
    pub fn receptor(&self) -> &ReceptorGrids {
        &self.receptor
    }

    /// The configuration.
    pub fn config(&self) -> &DockingConfig {
        &self.config
    }

    /// The rotation set scored by [`Docking::run`].
    pub fn rotations(&self) -> &RotationSet {
        &self.rotations
    }

    /// The shared handle to the rotation set — for consumers that outlive
    /// this context (pose-block minimization reuses one run's rotations
    /// across blocks serviced by different devices).
    pub fn rotations_arc(&self) -> &Arc<RotationSet> {
        &self.rotations
    }

    /// Runs rigid docking of `probe` with the configured engine.
    pub fn run(&self, probe: &Probe) -> DockingRun {
        match self.config.engine {
            DockingEngineKind::FftSerial => self.run_fft(probe, 1),
            DockingEngineKind::FftMulticore(n) => self.run_fft(probe, n.max(1)),
            DockingEngineKind::DirectSerial => self.run_direct(probe, 1),
            DockingEngineKind::DirectMulticore(n) => self.run_direct(probe, n.max(1)),
            DockingEngineKind::Gpu { batch } => self.run_gpu(probe, batch.max(1)),
            DockingEngineKind::BatchedFft { batch } => self.run_batched_fft(probe, batch.max(1)),
        }
    }

    /// Modeled serial-CPU counters for building one rotation's ligand grids.
    fn rotation_grid_counters(&self, probe: &Probe) -> MemoryCounters {
        let atoms = probe.n_atoms() as u64;
        MemoryCounters {
            flops: 60 * atoms + 200,
            global_reads: 20 * atoms,
            global_writes: 10 * atoms,
            ..Default::default()
        }
    }

    fn host_finish_counters(&self) -> (MemoryCounters, MemoryCounters) {
        let n3 = self.receptor.spec.len() as u64;
        let n_desolv = self.config.n_desolv as u64;
        let accumulation = MemoryCounters {
            flops: n_desolv * n3,
            global_reads: (n_desolv + 1) * n3,
            global_writes: n3,
            ..Default::default()
        };
        let scoring = MemoryCounters {
            flops: 7 * n3,
            global_reads: 6 * n3,
            global_writes: n3 / 16,
            ..Default::default()
        };
        (accumulation, scoring)
    }

    /// Shared host-side tail of a rotation: accumulation, scoring, filtering.
    fn finish_rotation_on_host(
        &self,
        rot_idx: usize,
        results: &[ftmap_math::Grid3<Real>],
        poses: &mut Vec<Pose>,
        wall: &mut StepTimes,
        modeled: &mut StepTimes,
    ) {
        let (acc_counters, score_counters) = self.host_finish_counters();

        let (desolv, accumulate_wall_s) =
            wall_timed(|| filter::accumulate_desolvation(results, self.config.n_desolv));
        wall.accumulation_s += accumulate_wall_s;
        modeled.accumulation_s += self.xeon.serial_time(&acc_counters);

        let (selected, score_wall_s) = wall_timed(|| {
            let scores =
                filter::score_grid(results, &desolv, &self.config.weights, self.config.n_desolv);
            filter::filter_top_k(
                &scores,
                self.config.poses_per_rotation,
                self.config.exclusion_radius,
                rot_idx,
            )
        });
        wall.scoring_filtering_s += score_wall_s;
        modeled.scoring_filtering_s += self.xeon.serial_time(&score_counters);
        poses.extend(selected);
    }

    /// FFT docking on the host. Each rotation builds its ligand grids, runs the
    /// FFT engines' score routine (`ReceptorTransforms::score_rotation`) and
    /// filters the score grid. `FftMulticore(n)` scores contiguous chunks of the
    /// rotations on `min(n, rotations)` scoped threads (the caller runs the
    /// first) and merges their poses in rotation order, so its poses are
    /// `FftSerial`'s bit for bit; its wall step times are summed over the
    /// threads. Its modeled correlation still divides the serial time by `n`,
    /// which ROADMAP items 4 and 9 replace with a modeled multicore schedule.
    fn run_fft(&self, probe: &Probe, n_threads: usize) -> DockingRun {
        let engine = FftCorrelationEngine::new(&self.receptor);
        let rotations = self.rotations.rotations();
        let chunk = rotations.len().div_ceil(n_threads).max(1);
        let score_chunk = |(i, chunk_rotations): (usize, &[ftmap_math::Rotation])| {
            self.score_fft_rotations(&engine, probe, i * chunk, chunk_rotations)
        };
        let chunks: Vec<(Vec<Pose>, StepTimes)> = std::thread::scope(|scope| {
            let mut chunks = rotations.chunks(chunk).enumerate();
            let first = chunks.next();
            let spawned: Vec<_> = chunks.map(|c| scope.spawn(move || score_chunk(c))).collect();
            first
                .map(score_chunk)
                .into_iter()
                .chain(spawned.into_iter().map(|handle| {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }))
                .collect()
        });
        let mut poses = Vec::new();
        let mut wall = StepTimes::default();
        for (chunk_poses, chunk_wall) in chunks {
            poses.extend(chunk_poses);
            wall.rotation_grid_s += chunk_wall.rotation_grid_s;
            wall.correlation_s += chunk_wall.correlation_s;
            wall.scoring_filtering_s += chunk_wall.scoring_filtering_s;
        }
        sort_best_first(&mut poses);

        let fft_counters = MemoryCounters {
            flops: engine.flops_per_rotation(),
            global_reads: 3 * self.receptor.n_terms() as u64 * self.receptor.spec.len() as u64,
            global_writes: self.receptor.n_terms() as u64 * self.receptor.spec.len() as u64,
            ..Default::default()
        };
        // One-time receptor forward transforms: the host path recomputes them
        // every construction (there is no host-side residency), charged once
        // here so the per-rotation figure stays the warm-transform number the
        // batched engine shares.
        let transform_counters = MemoryCounters {
            flops: engine.receptor_transform_flops(),
            global_reads: self.receptor.n_terms() as u64 * self.receptor.spec.len() as u64,
            global_writes: 2 * self.receptor.n_terms() as u64 * self.receptor.spec.len() as u64,
            ..Default::default()
        };
        let rotation_counters = self.rotation_grid_counters(probe);
        let (acc_counters, score_counters) = self.host_finish_counters();
        let mut modeled = StepTimes::default();
        modeled.correlation_s += self.xeon.serial_time(&transform_counters);
        for _ in rotations {
            modeled.rotation_grid_s += self.xeon.serial_time(&rotation_counters);
            modeled.correlation_s += self.xeon.serial_time(&fft_counters) / n_threads as f64;
            modeled.accumulation_s += self.xeon.serial_time(&acc_counters);
            modeled.scoring_filtering_s += self.xeon.serial_time(&score_counters);
        }
        DockingRun {
            poses,
            n_rotations: self.rotations.len(),
            wall,
            modeled,
            modeled_transfer_s: 0.0,
            grid: self.receptor.spec,
        }
    }

    /// Scores `rotations`, the rotation set's entries from index `base` on,
    /// through the FFT engine on one thread, reusing one set of buffers: the
    /// retained poses and the wall step times. Accumulation and scoring are
    /// part of the score routine, so their wall is booked under correlation.
    fn score_fft_rotations(
        &self,
        engine: &FftCorrelationEngine,
        probe: &Probe,
        base: usize,
        rotations: &[ftmap_math::Rotation],
    ) -> (Vec<Pose>, StepTimes) {
        let config = &self.config;
        let mut buffers = RotationBuffers::default();
        let mut poses = Vec::new();
        let mut wall = StepTimes::default();
        for (i, rotation) in rotations.iter().enumerate() {
            let (ligand, grid_wall_s) = wall_timed(|| {
                LigandGrids::build(&probe.atoms, rotation, config.spacing, config.n_desolv)
            });
            wall.rotation_grid_s += grid_wall_s;
            let ((), corr_wall_s) = wall_timed(|| {
                let transforms = engine.transforms();
                transforms.score_rotation(&ligand, &config.weights, config.n_desolv, &mut buffers)
            });
            wall.correlation_s += corr_wall_s;
            let (selected, score_wall_s) = wall_timed(|| {
                let (k, radius) = (config.poses_per_rotation, config.exclusion_radius);
                buffers.top_k(self.receptor.spec.dim, k, radius, base + i)
            });
            wall.scoring_filtering_s += score_wall_s;
            poses.extend(selected);
        }
        (poses, wall)
    }

    fn run_direct(&self, probe: &Probe, n_threads: usize) -> DockingRun {
        let engine = DirectCorrelationEngine::new(&self.receptor);
        let mut poses = Vec::new();
        let mut wall = StepTimes::default();
        let mut modeled = StepTimes::default();
        let rotation_counters = self.rotation_grid_counters(probe);

        for (rot_idx, rotation) in self.rotations.iter().enumerate() {
            let (sparse, grid_wall_s) = wall_timed(|| {
                let ligand = LigandGrids::build(
                    &probe.atoms,
                    rotation,
                    self.config.spacing,
                    self.config.n_desolv,
                );
                SparseLigand::from_grids(&ligand)
            });
            wall.rotation_grid_s += grid_wall_s;
            modeled.rotation_grid_s += self.xeon.serial_time(&rotation_counters);

            let direct_counters = MemoryCounters {
                flops: engine.flops_per_rotation(&sparse),
                global_reads: self.receptor.spec.len() as u64 * sparse.len() as u64,
                global_writes: self.receptor.n_terms() as u64 * self.receptor.spec.len() as u64,
                ..Default::default()
            };

            let (results, corr_wall_s) =
                wall_timed(|| engine.correlate_rotation_multicore(&sparse, n_threads));
            wall.correlation_s += corr_wall_s;
            modeled.correlation_s += self.xeon.serial_time(&direct_counters) / n_threads as f64;

            self.finish_rotation_on_host(rot_idx, &results, &mut poses, &mut wall, &mut modeled);
        }
        sort_best_first(&mut poses);
        DockingRun {
            poses,
            n_rotations: self.rotations.len(),
            wall,
            modeled,
            modeled_transfer_s: 0.0,
            grid: self.receptor.spec,
        }
    }

    fn run_gpu(&self, probe: &Probe, requested_batch: usize) -> DockingRun {
        let gpu = GpuDockingEngine::new(&self.device, &self.receptor);
        let mut poses = Vec::new();
        let mut wall = StepTimes::default();
        let mut modeled = StepTimes::default();
        let mut modeled_transfer_s = 0.0;
        let rotation_counters = self.rotation_grid_counters(probe);

        // Build all sparse ligands up-front per batch (host work, matching the paper:
        // "the ligand grid is rotated on the host and remapped").
        let rotations = self.rotations.rotations();
        let sparse_ligand = |rot_idx: usize| {
            let ligand = LigandGrids::build(
                &probe.atoms,
                &rotations[rot_idx],
                self.config.spacing,
                self.config.n_desolv,
            );
            SparseLigand::from_grids(&ligand)
        };
        // A ligand that did not fit in constant memory beside its batch opens the next.
        let mut carried: Option<SparseLigand> = None;
        let mut rot_idx = 0usize;
        while rot_idx < rotations.len() {
            let ((batch, batch_indices), build_wall_s) = wall_timed(|| {
                let mut batch = Vec::new();
                let mut batch_indices = Vec::new();
                while rot_idx < rotations.len() && batch.len() < requested_batch {
                    let sparse = carried.take().unwrap_or_else(|| sparse_ligand(rot_idx));
                    // Respect the constant-memory capacity limit.
                    if batch.len() >= gpu.max_batch(&sparse) {
                        carried = Some(sparse);
                        break;
                    }
                    batch.push(sparse);
                    batch_indices.push(rot_idx);
                    rot_idx += 1;
                }
                (batch, batch_indices)
            });
            wall.rotation_grid_s += build_wall_s;
            modeled.rotation_grid_s +=
                batch.len() as f64 * self.xeon.serial_time(&rotation_counters);

            // Correlation, accumulation and scoring share one pass over each x-plane,
            // so their wall is booked under correlation; each launch keeps its own
            // modeled step.
            let (out, dock_wall_s) = wall_timed(|| {
                gpu.dock_batch(
                    &batch,
                    &batch_indices,
                    &self.config.weights,
                    self.config.n_desolv,
                    self.config.poses_per_rotation,
                    self.config.exclusion_radius,
                )
            });
            wall.correlation_s += dock_wall_s;
            modeled.correlation_s += out.correlation.modeled_time_s + out.upload_s;
            modeled_transfer_s += out.upload_s;
            for (accumulation, scoring) in out.accumulation.iter().zip(&out.scoring) {
                modeled.accumulation_s += accumulation.modeled_time_s;
                modeled.scoring_filtering_s += scoring.modeled_time_s;
            }
            poses.extend(out.poses.into_iter().flatten());
        }
        sort_best_first(&mut poses);
        DockingRun {
            poses,
            n_rotations: self.rotations.len(),
            wall,
            modeled,
            modeled_transfer_s,
            grid: self.receptor.spec,
        }
    }

    fn run_batched_fft(&self, probe: &Probe, requested_batch: usize) -> DockingRun {
        let engine = BatchedFftEngine::new(&self.device, &self.receptor);
        let mut poses = Vec::new();
        let mut wall = StepTimes::default();
        let mut modeled = StepTimes::default();
        let mut modeled_transfer_s = 0.0;
        let rotation_counters = self.rotation_grid_counters(probe);

        // One-time receptor transform work: zero on a derived-residency hit,
        // one modeled launch on a miss (then cached for the next run).
        modeled.correlation_s += engine.transform_residency().modeled_s();

        for (chunk_idx, chunk) in self.rotations.rotations().chunks(requested_batch).enumerate() {
            let base = chunk_idx * requested_batch;

            let (batch, build_wall_s) = wall_timed(|| -> Vec<LigandGrids> {
                chunk
                    .iter()
                    .map(|rotation| {
                        LigandGrids::build(
                            &probe.atoms,
                            rotation,
                            self.config.spacing,
                            self.config.n_desolv,
                        )
                    })
                    .collect()
            });
            let indices: Vec<usize> = (base..base + batch.len()).collect();
            wall.rotation_grid_s += build_wall_s;
            modeled.rotation_grid_s +=
                batch.len() as f64 * self.xeon.serial_time(&rotation_counters);

            let (out, dock_wall_s) = wall_timed(|| {
                engine.dock_batch(
                    &batch,
                    &indices,
                    &self.config.weights,
                    self.config.n_desolv,
                    self.config.poses_per_rotation,
                    self.config.exclusion_radius,
                )
            });
            wall.correlation_s += dock_wall_s;

            // Correlation: the three batched transform launches + the ligand
            // upload; scoring/filtering: the fused epilogue + the pose-only
            // download. Accumulation is fused into the epilogue (0 by itself).
            let correlation_kernels_s =
                out.ledger.phase(batched_fft::PHASE_LIGAND_FFT).modeled_time_s
                    + out.ledger.phase(batched_fft::PHASE_CONJ_MULTIPLY).modeled_time_s
                    + out.ledger.phase(batched_fft::PHASE_INVERSE_FFT).modeled_time_s;
            modeled.correlation_s += correlation_kernels_s + out.upload_s;
            modeled.scoring_filtering_s +=
                out.ledger.phase(batched_fft::PHASE_FUSED_EPILOGUE).modeled_time_s + out.download_s;
            modeled_transfer_s += out.upload_s + out.download_s;

            for slot_poses in out.poses {
                poses.extend(slot_poses);
            }
        }
        sort_best_first(&mut poses);
        DockingRun {
            poses,
            n_rotations: self.rotations.len(),
            wall,
            modeled,
            modeled_transfer_s,
            grid: self.receptor.spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn protein() -> SyntheticProtein {
        SyntheticProtein::generate(&ProteinSpec::small_test(), &ForceField::charmm_like())
    }

    fn probe() -> Probe {
        Probe::new(ProbeType::Ethanol, &ForceField::charmm_like())
    }

    #[test]
    fn all_engines_retain_requested_pose_count() {
        let protein = protein();
        let probe = probe();
        for engine in [
            DockingEngineKind::FftSerial,
            DockingEngineKind::DirectSerial,
            DockingEngineKind::DirectMulticore(2),
            DockingEngineKind::Gpu { batch: 4 },
            DockingEngineKind::BatchedFft { batch: 2 },
        ] {
            let docking = Docking::new(&protein.atoms, DockingConfig::small_test(engine));
            let run = docking.run(&probe);
            assert_eq!(
                run.poses.len(),
                docking.config().n_rotations * docking.config().poses_per_rotation,
                "{engine:?}"
            );
            assert_eq!(run.n_rotations, 4);
            // Poses are sorted best-first.
            for pair in run.poses.windows(2) {
                assert!(pair[0].score <= pair[1].score, "{engine:?}");
            }
            assert!(run.wall.total() > 0.0);
            assert!(run.modeled.total() > 0.0);
        }
    }

    #[test]
    fn engines_agree_on_best_pose() {
        // The FFT, direct and GPU engines implement the same mathematics; their retained
        // best poses must coincide.
        let protein = protein();
        let probe = probe();
        let fft =
            Docking::new(&protein.atoms, DockingConfig::small_test(DockingEngineKind::FftSerial))
                .run(&probe);
        let direct = Docking::new(
            &protein.atoms,
            DockingConfig::small_test(DockingEngineKind::DirectSerial),
        )
        .run(&probe);
        let gpu = Docking::new(
            &protein.atoms,
            DockingConfig::small_test(DockingEngineKind::Gpu { batch: 8 }),
        )
        .run(&probe);

        let f = fft.poses.first().unwrap();
        let d = direct.poses.first().unwrap();
        let g = gpu.poses.first().unwrap();
        assert_eq!(d.translation, g.translation);
        assert_eq!(d.rotation_index, g.rotation_index);
        assert!((d.score - g.score).abs() < 1e-6);
        assert_eq!(f.translation, d.translation);
        assert!((f.score - d.score).abs() < 1e-4);
    }

    #[test]
    fn batched_fft_is_bit_identical_to_per_rotation_fft() {
        // The FFT engines share one score routine: across batch sizes (smaller
        // than, not dividing, and exceeding the rotation count) the batched
        // engine retains bit-identical poses to the per-rotation FFT path.
        let protein = protein();
        let probe = probe();
        let reference =
            Docking::new(&protein.atoms, DockingConfig::small_test(DockingEngineKind::FftSerial))
                .run(&probe);
        for batch in [1, 7, 64] {
            let run = Docking::new(
                &protein.atoms,
                DockingConfig::small_test(DockingEngineKind::BatchedFft { batch }),
            )
            .run(&probe);
            assert_eq!(run.poses.len(), reference.poses.len(), "batch {batch}");
            for (a, b) in run.poses.iter().zip(&reference.poses) {
                assert_eq!(a.rotation_index, b.rotation_index, "batch {batch}");
                assert_eq!(a.translation, b.translation, "batch {batch}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "batch {batch}");
            }
            assert!(run.modeled_transfer_s > 0.0);
        }

        // Against the per-term path (one inverse per term, then accumulation,
        // scoring and filtering on the host), rotation by rotation: the same
        // pose places, scores within the naive oracle's tolerance.
        let docking =
            Docking::new(&protein.atoms, DockingConfig::small_test(DockingEngineKind::FftSerial));
        let config = docking.config();
        let engine = FftCorrelationEngine::new(docking.receptor());
        for (rot_idx, rotation) in docking.rotations().iter().enumerate() {
            let ligand =
                LigandGrids::build(&probe.atoms, rotation, config.spacing, config.n_desolv);
            let place = (config.poses_per_rotation, config.exclusion_radius);
            let mut want = batched_fft::per_term::poses(
                &engine,
                &ligand,
                &config.weights,
                config.n_desolv,
                place,
                rot_idx,
            );
            let mut got: Vec<Pose> =
                reference.poses.iter().filter(|p| p.rotation_index == rot_idx).copied().collect();
            for poses in [&mut got, &mut want] {
                poses.sort_by_key(|p| p.translation);
            }
            let tol = batched_fft::per_term::score_tolerance(&ligand, docking.receptor());
            batched_fft::per_term::assert_places_and_scores_near(&got, &want, tol);
        }
    }

    #[test]
    fn fft_multicore_poses_equal_fft_serial_bit_for_bit() {
        // Thread counts that divide the rotations, do not, and exceed them:
        // the chunks' poses merge to `FftSerial`'s, bit for bit, and the
        // modeled seconds are unchanged by the real threads.
        let protein = protein();
        let probe = probe();
        let mut config = DockingConfig::small_test(DockingEngineKind::FftSerial);
        config.n_rotations = 5;
        let run = |engine| {
            Docking::new(&protein.atoms, DockingConfig { engine, ..config.clone() }).run(&probe)
        };
        let bits = |run: &DockingRun| -> Vec<_> {
            run.poses.iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())).collect()
        };
        let serial = run(DockingEngineKind::FftSerial);
        assert_eq!(serial.poses.len(), 5 * config.poses_per_rotation);
        for n in [2, 3, 5, 8] {
            let multicore = run(DockingEngineKind::FftMulticore(n));
            assert_eq!(bits(&multicore), bits(&serial), "FftMulticore({n})");
            let steps =
                |t: &StepTimes| [t.rotation_grid_s, t.accumulation_s, t.scoring_filtering_s];
            assert_eq!(steps(&multicore.modeled), steps(&serial.modeled), "FftMulticore({n})");
            assert!(multicore.modeled.correlation_s < serial.modeled.correlation_s);
            assert!(multicore.wall.correlation_s > 0.0);
        }
    }

    #[test]
    fn batched_fft_second_run_reuses_receptor_and_transforms() {
        // On one device, the second context for the same receptor hits both
        // the raw-grid entry (zero upload bytes) and the derived transform
        // entry (zero transform flops) — and docks identically.
        let protein = protein();
        let probe = probe();
        let device = Arc::new(Device::tesla_c1060());
        let config = DockingConfig::small_test(DockingEngineKind::BatchedFft { batch: 8 });

        let first = Docking::with_device(&protein.atoms, config.clone(), Arc::clone(&device));
        assert_eq!(device.residency().stats().misses, 1);
        let run_a = first.run(&probe);
        let derived_after_first = device.residency().derived_stats();
        assert_eq!(derived_after_first.insertions, 1, "first run caches the transforms");

        let before = device.transfer_snapshot();
        let second = Docking::with_device(&protein.atoms, config, Arc::clone(&device));
        assert_eq!(device.residency().stats().hits, 1);
        let run_b = second.run(&probe);
        assert_eq!(run_a.poses, run_b.poses);
        let derived = device.residency().derived_stats();
        assert!(derived.hits > derived_after_first.hits, "second run hits the derived entry");
        assert_eq!(derived.insertions, 1, "no re-insertion on the warm path");
        // The warm run moved only ligand grids up and poses down — its total
        // bytes are far below one receptor grid set.
        let delta = device.transfer_snapshot().delta_since(&before);
        assert!(delta.bytes < first.receptor().resident_bytes());
        // The warm run's modeled correlation is cheaper: no receptor
        // transform launch.
        assert!(run_b.modeled.correlation_s < run_a.modeled.correlation_s);
    }

    #[test]
    fn gpu_modeled_correlation_is_faster_than_serial_fft_model() {
        // The core Table 1 claim, in miniature: modeled GPU correlation time per
        // rotation is far below the modeled serial FFT correlation time.
        let protein = protein();
        let probe = probe();
        let fft =
            Docking::new(&protein.atoms, DockingConfig::small_test(DockingEngineKind::FftSerial))
                .run(&probe);
        let gpu = Docking::new(
            &protein.atoms,
            DockingConfig::small_test(DockingEngineKind::Gpu { batch: 8 }),
        )
        .run(&probe);
        assert!(
            gpu.modeled.correlation_s < fft.modeled.correlation_s,
            "gpu {} vs fft {}",
            gpu.modeled.correlation_s,
            fft.modeled.correlation_s
        );
    }

    #[test]
    fn constant_memory_capped_batches_dock_the_same_poses() {
        // A device with room for about three ligands in constant memory closes
        // batches early, and the ligand that did not fit opens the next batch:
        // every rotation is docked once, to the same poses as on the C1060.
        let protein = protein();
        let probe = probe();
        let mut config = DockingConfig::small_test(DockingEngineKind::Gpu { batch: 8 });
        config.n_rotations = 9;
        let rotations = RotationSet::uniform(config.n_rotations);
        let words = SparseLigand::from_grids(&LigandGrids::build(
            &probe.atoms,
            &rotations.rotations()[0],
            config.spacing,
            config.n_desolv,
        ))
        .constant_mem_words();
        let small =
            DeviceSpec { constant_mem_bytes: 3 * words * 8 + 8, ..DeviceSpec::tesla_c1060() };
        let run_on = |spec: DeviceSpec| {
            Docking::with_device(&protein.atoms, config.clone(), Arc::new(Device::new(spec)))
                .run(&probe)
        };
        let capped = run_on(small);
        let full = run_on(DeviceSpec::tesla_c1060());
        let bits = |run: &DockingRun| -> Vec<_> {
            run.poses.iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())).collect()
        };
        assert_eq!(capped.poses.len(), 9 * config.poses_per_rotation);
        assert_eq!(bits(&capped), bits(&full));
        // More, smaller batches: one ligand upload each.
        assert!(capped.modeled_transfer_s > full.modeled_transfer_s);
    }

    #[test]
    fn step_time_percentages_sum_to_100() {
        let times = StepTimes {
            rotation_grid_s: 80.0,
            correlation_s: 3600.0,
            accumulation_s: 180.0,
            scoring_filtering_s: 200.0,
        };
        let pct = times.percentages();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(pct[1] > 85.0); // correlation dominates, as in Fig. 2(b)
        assert_eq!(StepTimes::default().percentages(), [0.0; 4]);
    }

    #[test]
    fn pooled_device_receives_the_runs_transfers() {
        // `with_device` must route every GPU-engine transfer to the shared
        // handle (the property the multi-device scheduler depends on), and the
        // run must report how much transfer time was folded into its modeled
        // step times.
        let protein = protein();
        let probe = probe();
        let device = Arc::new(Device::tesla_c1060());
        let docking = Docking::with_device(
            &protein.atoms,
            DockingConfig::small_test(DockingEngineKind::Gpu { batch: 4 }),
            Arc::clone(&device),
        );
        assert!(std::ptr::eq(Arc::as_ptr(docking.device()), Arc::as_ptr(&device)));
        let before = device.transfer_snapshot();
        let run = docking.run(&probe);
        let delta = device.transfer_snapshot().delta_since(&before);
        assert!(delta.upload_s > 0.0, "ligand uploads must land on the pooled device");
        assert!(delta.download_s > 0.0, "pose downloads must land on the pooled device");
        assert!(run.modeled_transfer_s > 0.0);
        assert!(run.modeled_transfer_s <= run.modeled.correlation_s + 1e-12);
        // Host engines fold no transfers into their modeled times.
        let fft =
            Docking::new(&protein.atoms, DockingConfig::small_test(DockingEngineKind::FftSerial))
                .run(&probe);
        assert_eq!(fft.modeled_transfer_s, 0.0);
    }

    #[test]
    fn receptor_residency_hit_is_free_and_bit_identical() {
        // First construction on a device misses: exactly one grid-set upload.
        // Every later construction for the same receptor content hits: zero
        // upload bytes, and the context borrows the *identical* resident grids.
        let protein = protein();
        let device = Arc::new(Device::tesla_c1060());
        let config = DockingConfig::small_test(DockingEngineKind::Gpu { batch: 4 });

        let before = device.transfer_snapshot();
        let first = Docking::with_device(&protein.atoms, config.clone(), Arc::clone(&device));
        let miss_delta = device.transfer_snapshot().delta_since(&before);
        let grid_bytes = first.receptor().resident_bytes();
        assert_eq!(device.residency().stats().misses, 1, "first construction should miss");
        assert_eq!(miss_delta.bytes, grid_bytes, "miss must charge one grid set");
        assert!(miss_delta.upload_s > 0.0);

        let before_hit = device.transfer_snapshot();
        let second = Docking::with_device(&protein.atoms, config.clone(), Arc::clone(&device));
        let hit_delta = device.transfer_snapshot().delta_since(&before_hit);
        assert_eq!(device.residency().stats().hits, 1);
        assert_eq!(hit_delta.bytes, 0, "cache hit must record zero upload bytes");
        assert_eq!(hit_delta.upload_s, 0.0);
        // Borrowed, not rebuilt: the second context shares the first's grids.
        assert!(std::ptr::eq(first.receptor(), second.receptor()));
        // ... and they are bit-identical to a fresh host-side build.
        let fresh = Docking::build_receptor(&protein.atoms, &config);
        for (a, b) in fresh.terms.iter().zip(&second.receptor().terms) {
            assert!(a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x == y));
        }
        // Both contexts produce identical docking results.
        let probe = probe();
        let run_a = first.run(&probe);
        let run_b = second.run(&probe);
        assert_eq!(run_a.poses, run_b.poses);
        // Host engines never consult the cache.
        let host =
            Docking::new(&protein.atoms, DockingConfig::small_test(DockingEngineKind::FftSerial));
        assert_eq!(host.device().residency().stats().lookups(), 0);
        assert_eq!(host.device().total_transfer_bytes(), 0);
    }

    #[test]
    fn disabled_residency_reverts_to_upload_per_construction() {
        let protein = protein();
        let device = Arc::new(Device::tesla_c1060());
        device.residency().set_enabled(false);
        let config = DockingConfig::small_test(DockingEngineKind::Gpu { batch: 4 });
        for _ in 0..2 {
            let before = device.transfer_snapshot();
            let docking = Docking::with_device(&protein.atoms, config.clone(), Arc::clone(&device));
            let delta = device.transfer_snapshot().delta_since(&before);
            assert_eq!(device.residency().stats().hits, 0);
            assert_eq!(delta.bytes, docking.receptor().resident_bytes());
        }
    }

    #[test]
    fn place_pose_matches_manual_placement() {
        // The run-side helper must agree exactly with placing through the
        // pose API by hand — block consumers and the fused pipeline path go
        // through the same arithmetic.
        let protein = protein();
        let probe = probe();
        let docking = Docking::new(
            &protein.atoms,
            DockingConfig::small_test(DockingEngineKind::Gpu { batch: 4 }),
        );
        let run = docking.run(&probe);
        let centered: Vec<ftmap_math::Vec3> = probe.atoms.iter().map(|a| a.position).collect();
        for (i, pose) in run.poses.iter().enumerate() {
            let manual = pose.place_probe(
                docking.rotations().get(pose.rotation_index),
                &centered,
                run.grid.origin,
                run.grid.spacing,
                (run.grid.dim, run.grid.dim, run.grid.dim),
            );
            let helper = run.place_pose(docking.rotations_arc(), &centered, i);
            assert_eq!(manual, helper, "pose {i}");
        }
    }

    #[test]
    fn default_config_matches_paper_parameters() {
        let cfg = DockingConfig::default();
        assert_eq!(cfg.n_rotations, 500);
        assert_eq!(cfg.poses_per_rotation, 4);
        assert!(cfg.n_desolv >= 4 && cfg.n_desolv <= 18);
        assert!(matches!(cfg.engine, DockingEngineKind::Gpu { batch: 8 }));
    }
}
