//! Per-layer microbenches: one small, fixed-shape piece of work per public
//! entry point a later optimisation is likely to touch, each reported as the
//! fastest of [`REPS`] repetitions, beside the exact modeled seconds, flops,
//! bytes and counts the same call reports.
//!
//! Inputs are fixed shapes (a 32³ grid, an 800-atom complex, 1 000 queued
//! jobs) whose *content* follows `--seed`, so wall numbers compare across
//! commits and the exact counters repeat for a given seed.

use crate::alloc;
use crate::clock::{fastest_of, fastest_prepared, fastest_with};
use crate::metrics::LayerValues;
use ftmap_core::{cluster_poses, ClusterInput};
use ftmap_energy::gpu::GpuMinimizationEngine;
use ftmap_energy::minimize::{EvaluationPath, MinimizationConfig, Minimizer};
use ftmap_energy::Evaluator;
use ftmap_math::fft::{Direction, Fft3Plan};
use ftmap_math::{Complex as C64, Grid3, Vec3};
use ftmap_molecule::{
    Complex, ForceField, NeighborList, Probe, ProbeType, ProteinSpec, SyntheticProtein,
};
use ftmap_serve::{next_batch_prioritized, Batchable, JobQueue, LatencyClass};
use ftmap_trace::{Category, FlightRecorder, Recorder, Tags, TraceEvent, TraceSink, Track};
use gpu_sim::sched::{DevicePool, PhasePipeline, PhasedBatch, PhasedExec, ShardCtx, ShardQueue};
use gpu_sim::{BlockContext, Device, KernelLaunch, ResidencyCache, ResidentPayload};
use piper_dock::docking::StepTimes;
use piper_dock::{filter, Docking, DockingConfig, DockingEngineKind};
use std::ops::Range;
use std::sync::Arc;

/// Repetitions per microbench; each reports its fastest.
pub const REPS: usize = 30;

const MS: f64 = 1e3;
const US: f64 = 1e6;
const NS: f64 = 1e9;

fn protein(target_atoms: usize, radius: f64, seed: u64, ff: &ForceField) -> SyntheticProtein {
    let spec = ProteinSpec { target_atoms, radius, n_pockets: 2, pocket_radius: 5.0, seed };
    SyntheticProtein::generate(&spec, ff)
}

/// Deterministic pseudo-random reals in `[-1, 1)` (content only; no layer's
/// cost depends on the values).
fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = crate::workload::SplitMix64::new(seed);
    (0..n).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0).collect()
}

/// `ftmap-math`: the 3-D FFT and the plan construction behind `map_fft`.
pub fn math(v: &mut LayerValues, seed: u64) {
    for (dim, name) in
        [(32usize, "ftmap-math.fft3_32.ns_per_point"), (64, "ftmap-math.fft3_64.ns_per_point")]
    {
        let plan = Fft3Plan::new(dim, dim, dim);
        let input: Vec<C64> =
            noise(dim * dim * dim, seed).into_iter().map(C64::from_real).collect();
        let s = fastest_prepared(
            REPS,
            || input.clone(),
            |mut data| {
                plan.transform_in_place(&mut data, Direction::Forward);
                data
            },
        );
        v.set(name, s * NS / (dim * dim * dim) as f64);
    }
    let plan = Fft3Plan::new(32, 32, 32);
    v.set("ftmap-math.fft3_32.flops", plan.flops_per_transform() as f64);
    let (a, b) = (noise(32 * 32 * 32, seed), noise(32 * 32 * 32, seed + 1));
    v.set("ftmap-math.correlate_real_32.ms", fastest_of(REPS, || plan.correlate_real(&a, &b)) * MS);
    v.set("ftmap-math.plan_new_32.us", fastest_of(REPS, || Fft3Plan::new(32, 32, 32)) * US);
}

/// An 800-atom protein with a probe posed in its first pocket — the paper's
/// minimization unit at a quarter of its size.
fn posed_complex(seed: u64, ff: &ForceField) -> (SyntheticProtein, Probe, Complex) {
    let protein = protein(800, 16.0, seed, ff);
    let mut probe = Probe::new(ProbeType::Isopropanol, ff);
    for atom in &mut probe.atoms {
        atom.position += protein.pocket_centers[0];
    }
    let complex = Complex::new(&protein, &probe);
    (protein, probe, complex)
}

/// `ftmap-molecule`: protein generation (set-up) and the per-conformation
/// complex and neighbor-list builds (`map_minimize`).
pub fn molecule(v: &mut LayerValues, seed: u64) {
    let ff = ForceField::charmm_like();
    let spec =
        ProteinSpec { target_atoms: 800, radius: 16.0, n_pockets: 2, pocket_radius: 5.0, seed };
    v.set(
        "ftmap-molecule.protein_generate.ms",
        fastest_of(REPS, || SyntheticProtein::generate(&spec, &ff)) * MS,
    );
    let (protein, probe, complex) = posed_complex(seed, &ff);
    v.set(
        "ftmap-molecule.complex_new.us",
        fastest_of(REPS, || Complex::new(&protein, &probe)) * US,
    );
    let excluded = complex.topology.excluded_pairs();
    let build = || NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
    v.set("ftmap-molecule.neighbor_build.ms", fastest_of(REPS, build) * MS);
    v.set("ftmap-molecule.neighbor_build.pairs", build().n_pairs() as f64);
}

struct NoopExec;

impl PhasedExec for NoopExec {
    fn dock(&self, _ctx: &ShardCtx<'_>, _entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
        (1e-6, Vec::new())
    }

    fn minimize(&self, _ctx: &ShardCtx<'_>, _entry: usize, _pose_range: Range<usize>) -> f64 {
        0.0
    }
}

/// Items per scheduler microbench repetition.
const SCHED_ITEMS: usize = 64;

fn phase_pipeline_item_s(devices: usize) -> f64 {
    let sched = PhasePipeline::new(Arc::new(DevicePool::tesla(devices)));
    let s = fastest_of(REPS, || {
        let batch = PhasedBatch {
            priority: 0,
            entries: SCHED_ITEMS,
            dock_weights: vec![1.0; SCHED_ITEMS],
            exec: Arc::new(NoopExec),
            label: Default::default(),
            entry_traces: Vec::new(),
        };
        sched.submit(batch, None).wait()
    });
    sched.shutdown();
    s / SCHED_ITEMS as f64
}

/// Entries resident during the residency microbenches: a device holds a
/// handful of receptor grid sets, and lookups scan the LRU list.
const CACHE_ENTRIES: u64 = 8;
/// Lookups per hit microbench repetition.
const CACHE_OPS: u64 = 256;
/// Insertions per miss microbench repetition (few, so the list a lookup
/// scans stays near its realistic length).
const CACHE_INSERTS: u64 = 32;

/// `gpu-sim`: launch overhead, residency-cache operations and scheduler
/// claim→complete cost with a no-op executor.
pub fn gpu_sim(v: &mut LayerValues) {
    let device = Device::tesla_c1060();
    let empty = |_: &mut BlockContext| {};
    v.set(
        "gpu-sim.launch_empty.us",
        fastest_of(REPS * 4, || KernelLaunch::on(&device).grid(1).run(&empty)) * US,
    );
    v.set(
        "gpu-sim.launch_empty_64blocks.us",
        fastest_of(REPS * 4, || KernelLaunch::on(&device).grid(64).run(&empty)) * US,
    );

    let payload = || -> ResidentPayload { Arc::new(0u64) };
    // `capacity` 64-byte entries of room, the first `CACHE_ENTRIES` resident.
    let cache_with_room = |capacity: u64| {
        let cache = ResidencyCache::new((capacity * 64) as usize);
        for key in 0..CACHE_ENTRIES {
            cache.get_or_insert_with(key, || (payload(), 64));
        }
        cache
    };
    let per_op = |s: f64| s * NS / CACHE_OPS as f64;
    let warm = cache_with_room(CACHE_ENTRIES);
    let hits = || (0..CACHE_OPS).filter(|i| warm.get(i % CACHE_ENTRIES).is_some()).count();
    v.set("gpu-sim.residency_hit.ns", per_op(fastest_of(REPS, hits)));
    let derived = cache_with_room(2 * CACHE_ENTRIES);
    for parent in 0..CACHE_ENTRIES {
        derived.get_or_insert_derived_with(parent, "bench", || (payload(), 64));
    }
    let derived_hits = || {
        (0..CACHE_OPS).filter(|i| derived.get_derived(i % CACHE_ENTRIES, "bench").is_some()).count()
    };
    v.set("gpu-sim.residency_derived_hit.ns", per_op(fastest_of(REPS, derived_hits)));
    let insert_new = |cache: ResidencyCache| {
        for key in 0..CACHE_INSERTS {
            cache.get_or_insert_with(1_000_000 + key, || (payload(), 64));
        }
        cache
    };
    let per_insert = |s: f64| s * NS / CACHE_INSERTS as f64;
    // Room for every new key: each lookup is a miss plus an insertion.
    let roomy = || cache_with_room(CACHE_ENTRIES + CACHE_INSERTS);
    v.set(
        "gpu-sim.residency_miss_insert.ns",
        per_insert(fastest_prepared(REPS, roomy, insert_new)),
    );
    // A full cache: each lookup is a miss, an LRU eviction and an insertion.
    let full = || cache_with_room(CACHE_ENTRIES);
    v.set("gpu-sim.residency_evict.ns", per_insert(fastest_prepared(REPS, full, insert_new)));

    v.set("gpu-sim.sched.item_1dev.us", phase_pipeline_item_s(1) * US);
    v.set("gpu-sim.sched.item_2dev.us", phase_pipeline_item_s(2) * US);
    let pool = DevicePool::tesla(2);
    let queue = ShardQueue::new(&pool);
    let s = fastest_of(REPS, || queue.execute((0..SCHED_ITEMS).collect(), |_, i: usize| (i, 1e-6)));
    v.set("gpu-sim.sched.shardqueue_item_2dev.us", s * US / SCHED_ITEMS as f64);
}

/// One engine's fastest warm run at the microbench scale.
struct DockBench {
    wall_s_per_rotation: f64,
    modeled_s_per_rotation: f64,
    wall_steps: StepTimes,
}

/// `piper-dock`: receptor grid build, top-K filtering, and every engine's
/// per-rotation wall and modeled cost on one 32³ problem.
pub fn piper_dock(v: &mut LayerValues, seed: u64) {
    let ff = ForceField::charmm_like();
    let protein = protein(300, 12.0, seed, &ff);
    let probe = Probe::new(ProbeType::Acetone, &ff);
    let config = |engine, n_rotations| DockingConfig {
        grid_dim: 32,
        spacing: 1.5,
        n_desolv: 4,
        n_rotations,
        poses_per_rotation: 4,
        exclusion_radius: 3,
        weights: Default::default(),
        engine,
    };
    let gpu = DockingEngineKind::Gpu { batch: 8 };
    let build = || Docking::build_receptor(&protein.atoms, &config(gpu, 8));
    v.set("piper-dock.receptor_build_32.ms", fastest_of(REPS, build) * MS);
    let receptor = build();

    let scores = Grid3::from_vec(32, 32, 32, noise(32 * 32 * 32, seed));
    v.set(
        "piper-dock.filter_top_k_32.us",
        fastest_of(REPS, || filter::filter_top_k(&scores, 4, 3, 0)) * US,
    );

    // A context on a device that already holds the grids (and, for the
    // batched FFT engine, the receptor transforms): the warm steady state.
    let bench = |engine, n_rotations: usize| -> DockBench {
        let device = Arc::new(Device::tesla_c1060());
        let docking =
            Docking::from_grids(Arc::clone(&receptor), config(engine, n_rotations), device);
        docking.run(&probe);
        let (s, run) = fastest_with(REPS, || docking.run(&probe));
        DockBench {
            wall_s_per_rotation: s / n_rotations as f64,
            modeled_s_per_rotation: run.modeled.total() / n_rotations as f64,
            wall_steps: run.wall,
        }
    };
    let batched = DockingEngineKind::BatchedFft { batch: 64 };
    let gpu_run = bench(gpu, 8);
    let direct_run = bench(DockingEngineKind::DirectSerial, 2);
    let batched_run = bench(batched, 1);
    let fft_run = bench(DockingEngineKind::FftSerial, 1);
    v.set("piper-dock.run_gpu_32.wall_ms_per_rotation", gpu_run.wall_s_per_rotation * MS);
    v.set(
        "piper-dock.run_direct_serial_32.wall_ms_per_rotation",
        direct_run.wall_s_per_rotation * MS,
    );
    v.set(
        "piper-dock.run_batched_fft_32.wall_ms_per_rotation",
        batched_run.wall_s_per_rotation * MS,
    );
    v.set("piper-dock.run_fft_serial_32.wall_ms_per_rotation", fft_run.wall_s_per_rotation * MS);
    v.set("piper-dock.run_gpu_32.modeled_ms_per_rotation", gpu_run.modeled_s_per_rotation * MS);
    v.set(
        "piper-dock.run_batched_fft_32.modeled_ms_per_rotation",
        batched_run.modeled_s_per_rotation * MS,
    );
    v.set(
        "piper-dock.run_fft_serial_32.modeled_ms_per_rotation",
        fft_run.modeled_s_per_rotation * MS,
    );

    // What the first batched run on a device pays over a warm one: the FFT
    // plan and the receptor forward transforms (then cached as a derived
    // residency payload).
    let cold_s = fastest_prepared(
        REPS,
        || {
            Docking::from_grids(
                Arc::clone(&receptor),
                config(batched, 1),
                Arc::new(Device::tesla_c1060()),
            )
        },
        |docking| docking.run(&probe),
    );
    v.set(
        "piper-dock.batched_fft.cold_minus_warm.ms",
        (cold_s - batched_run.wall_s_per_rotation).max(0.0) * MS,
    );

    let steps = gpu_run.wall_steps;
    let total = steps.total().max(f64::MIN_POSITIVE);
    v.set("piper-dock.step_frac.rotation_grid", steps.rotation_grid_s / total);
    v.set("piper-dock.step_frac.correlation", steps.correlation_s / total);
    v.set("piper-dock.step_frac.accumulation", steps.accumulation_s / total);
    v.set("piper-dock.step_frac.scoring_filtering", steps.scoring_filtering_s / total);
}

/// `ftmap-energy`: one host evaluation, one GPU-kernel iteration (wall,
/// modeled, flops, bytes) and short minimizations on both paths.
pub fn energy(v: &mut LayerValues, seed: u64) {
    let ff = ForceField::charmm_like();
    let (_, _, complex) = posed_complex(seed, &ff);
    let excluded = complex.topology.excluded_pairs();
    let neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
    let device = Device::tesla_c1060();

    let evaluator = Evaluator::new(ff.clone());
    let (host_s, host) = fastest_with(REPS, || evaluator.evaluate(&complex, &neighbors).breakdown);
    v.set("ftmap-energy.host_evaluate.ms", host_s * MS);

    let new_engine = || GpuMinimizationEngine::new(&device, ff.clone(), &neighbors);
    v.set("ftmap-energy.gpu_engine_new.ms", fastest_of(REPS, new_engine) * MS);
    let engine = new_engine();
    v.set("ftmap-energy.gpu_evaluate.wall_ms", fastest_of(REPS, || engine.evaluate(&complex)) * MS);
    let iteration = engine.evaluate(&complex);
    let (self_s, pair_s, force_s) = (
        iteration.self_energy_stats().modeled_time_s,
        iteration.pairwise_vdw_stats().modeled_time_s,
        iteration.force_update_stats().modeled_time_s,
    );
    v.set("ftmap-energy.gpu_evaluate.modeled_ms.self", self_s * MS);
    v.set("ftmap-energy.gpu_evaluate.modeled_ms.pairwise_vdw", pair_s * MS);
    v.set("ftmap-energy.gpu_evaluate.modeled_ms.force", force_s * MS);
    let counters = iteration.ledger.total_counters();
    v.set("ftmap-energy.gpu_evaluate.flops", counters.flops as f64);
    // Computed, not measured: counted element accesses × 8-byte words.
    v.set("ftmap-energy.gpu_evaluate.global_bytes", (counters.global_accesses() * 8) as f64);

    let minimize = |path| {
        let config =
            MinimizationConfig { max_iterations: 3, ..MinimizationConfig::small_test(path) };
        let minimizer = Minimizer::new(ff.clone(), config);
        // The clone (a few microseconds against tens of milliseconds) rides
        // inside the timed call: every repetition must start from the pose.
        fastest_with(REPS, || minimizer.minimize(&mut complex.clone(), &device))
    };
    let (gpu_s, gpu) = minimize(EvaluationPath::Gpu);
    let (host_min_s, host_min) = minimize(EvaluationPath::Host);
    v.set("ftmap-energy.minimize_gpu.ms_per_iter", gpu_s * MS / gpu.iterations.max(1) as f64);
    v.set(
        "ftmap-energy.minimize_host.ms_per_iter",
        host_min_s * MS / host_min.iterations.max(1) as f64,
    );
    v.set("ftmap-energy.minimize_gpu.iterations", gpu.iterations as f64);
    v.set("ftmap-energy.minimize_gpu.eval_frac", gpu.evaluation_fraction());

    // Table 2, informational: the serial side is this host's *measured* wall
    // time (split between self and pairwise terms by the paper's own
    // 6.15 : 2.75 ratio, as `ftmap-bench`'s report does), the GPU side modeled.
    let serial_self = host.elec_time_s * 6.15 / 8.9;
    let serial_pair = host.elec_time_s * 2.75 / 8.9 + host.vdw_time_s;
    let serial_force = 0.1 * (serial_self + serial_pair);
    v.set("ftmap-energy.table2_speedup.self", serial_self / self_s.max(1e-12));
    v.set("ftmap-energy.table2_speedup.pairwise_vdw", serial_pair / pair_s.max(1e-12));
    v.set("ftmap-energy.table2_speedup.force", serial_force / force_s.max(1e-12));
}

/// `ftmap-core`'s own work: consensus clustering of 1 000 poses drawn around
/// eight centres (the dock/minimize entry points are timed by spans around
/// the real requests instead — they *are* the workload).
pub fn core_cluster(v: &mut LayerValues, seed: u64) {
    let jitter = noise(4 * 1_000, seed);
    let poses: Vec<ClusterInput> = (0..1_000)
        .map(|i| {
            let centre = Vec3::new((i % 8) as f64 * 9.0, ((i / 8) % 2) as f64 * 9.0, 0.0);
            let offset = Vec3::new(jitter[4 * i], jitter[4 * i + 1], jitter[4 * i + 2]) * 2.0;
            ClusterInput {
                probe: ProbeType::ALL[i % ProbeType::ALL.len()],
                center: centre + offset,
                energy: jitter[4 * i + 3] * 10.0,
            }
        })
        .collect();
    v.set("ftmap-core.cluster_poses_1k.ms", fastest_of(REPS, || cluster_poses(&poses, 6.0)) * MS);
}

#[derive(Clone)]
struct Pending {
    fingerprint: u64,
    class: LatencyClass,
    overtaken: usize,
}

impl Batchable for Pending {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn class(&self) -> LatencyClass {
        self.class
    }

    fn note_overtaken(&mut self) {
        self.overtaken += 1;
    }

    fn overtaken(&self) -> usize {
        self.overtaken
    }
}

/// `ftmap-serve`'s pure data structures: batch formation over 1 000 pending
/// jobs and the bounded queue (the calls that need a running service are
/// timed against one in `traced.rs`).
pub fn serve_structures(v: &mut LayerValues, seed: u64) {
    let mut rng = crate::workload::SplitMix64::new(seed);
    let pending: Vec<Pending> = (0..1_000)
        .map(|_| Pending {
            fingerprint: rng.below(8) as u64,
            class: if rng.below(4) == 0 { LatencyClass::Interactive } else { LatencyClass::Bulk },
            overtaken: 0,
        })
        .collect();
    v.set(
        "ftmap-serve.next_batch_1k.us",
        fastest_prepared(REPS, || pending.clone(), |mut p| next_batch_prioritized(&mut p, 16, 4))
            * US,
    );
    let queue: JobQueue<u64> = JobQueue::new(1_024);
    let s = fastest_of(REPS, || {
        for item in 0..1_000u64 {
            // Capacity exceeds the burst and the queue is never closed, so a
            // push can neither block nor fail.
            let _ = queue.push(item);
        }
        queue.drain_now().len()
    });
    v.set("ftmap-serve.queue_push_drain.ns", s * NS / 1_000.0);
}

/// Events per trace-sink microbench repetition.
const SINK_EVENTS: usize = 10_000;

fn sink_event(i: usize) -> TraceEvent {
    TraceEvent::span(Track::Device((i % 2) as u32), "dock", Category::Sched, i as f64 * 1e-3, 1e-3)
        .with_tags(Tags { batch_seq: Some(i as u64 / 8), trace: Some(i as u64), ..Tags::device(0) })
}

/// `ftmap-trace`'s sinks: wall nanoseconds and heap bytes per recorded event.
pub fn trace_sinks(v: &mut LayerValues) {
    let fill = |sink: &dyn TraceSink| {
        for i in 0..SINK_EVENTS {
            sink.record(sink_event(i));
        }
    };
    let mut bytes = 0;
    let s = fastest_prepared(REPS, Recorder::new, |recorder| {
        let before = alloc::snapshot().bytes;
        fill(&recorder);
        bytes = alloc::snapshot().bytes - before;
        recorder
    });
    v.set("ftmap-trace.record.ns_per_event", s * NS / SINK_EVENTS as f64);
    v.set("ftmap-trace.record.bytes_per_event", bytes as f64 / SINK_EVENTS as f64);
    let s = fastest_prepared(REPS, FlightRecorder::new, |recorder| {
        fill(&recorder);
        recorder
    });
    v.set("ftmap-trace.flight_record.ns_per_event", s * NS / SINK_EVENTS as f64);
}
