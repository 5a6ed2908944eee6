//! Golden-bit regression tests for the FFT docking path.
//!
//! Every value below is an FNV-1a hash over the IEEE-754 bits (and indices)
//! of one output, recorded at the commit before `Fft3Plan`'s axis passes were
//! rewritten to walk memory in unit stride and before the footprint-aware
//! forward entry point replaced the docking engines' zero-pad + transform.
//! That rewrite promises identical bits — same butterflies, same order per
//! element — and these hashes are what holds it to that promise. The
//! direct-correlation runs were recorded later, before the public API was
//! pruned to what the workspace references, under the same promise. The Gpu
//! engine's per-launch records were recorded before its correlation blocks
//! took over accumulation and scoring, which promises the same launches.
//!
//! The hashes that carry FFT correlation values (the per-term correlation grids
//! of `ReceptorTransforms::correlate_rotation`, the receptor transforms, the
//! batched poses with their scores and both FFT docking runs) were re-recorded
//! when the FFT path moved to real-input transforms over the half spectrum,
//! whose arithmetic differs from the complex transform's in the last bits; the
//! naive oracle in `correlation_oracle.rs` bounds those values. What that
//! change promised to keep — which poses are retained, every modeled second and
//! the ledger — is pinned by hashes recorded before it. The three hashes that
//! carry pose scores (the batched poses and both FFT docking runs) were
//! re-recorded once more when the FFT engines began to sum the weighted term
//! products in the half spectrum and inverse-transform only the score grid; the
//! pose places, modeled seconds and ledger held. The `FftMulticore(3)` run,
//! whose modeled correlation divides by its thread count, was recorded before
//! the engines were brought under one docking driver.

use ftmap_math::fft::{Direction, Fft3Plan};
use ftmap_math::{Complex, Grid3, Real, RotationSet};
use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};
use ftmap_trace::{Category, ItemScope, Recorder, Tags, TraceSink, Track};
use gpu_sim::{Device, Fnv1a, KernelStats, MemoryCounters, StatsLedger};
use piper_dock::direct::SparseLigand;
use piper_dock::gpu::GpuDockingEngine;
use piper_dock::grids::GridSpec;
use piper_dock::{
    BatchedFftEngine, Docking, DockingConfig, DockingEngineKind, EnergyWeights, LigandGrids, Pose,
    ReceptorGrids, ReceptorTransforms,
};
use std::sync::Arc;

/// A fixed pseudo-random complex signal (SplitMix64) with values in
/// `[-1, 1)`, where every 13th real part is `-0.0` and every 17th imaginary
/// part `+0.0`, so signed zeros go through the butterflies too.
fn signal(n: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as Real / (1u64 << 52) as Real - 1.0
    };
    (0..n)
        .map(|i| {
            let re = if i % 13 == 0 { -0.0 } else { next() };
            let im = if i % 17 == 0 { 0.0 } else { next() };
            Complex::new(re, im)
        })
        .collect()
}

fn write_complex(hash: &mut Fnv1a, values: &[Complex]) {
    hash.write_u64(values.len() as u64);
    for c in values {
        hash.write_f64(c.re);
        hash.write_f64(c.im);
    }
}

fn write_grids(hash: &mut Fnv1a, grids: &[Grid3<Real>]) {
    for grid in grids {
        hash.write_u64(grid.len() as u64);
        for &v in grid.as_slice() {
            hash.write_f64(v);
        }
    }
}

fn write_poses(hash: &mut Fnv1a, poses: &[Pose]) {
    hash.write_u64(poses.len() as u64);
    for p in poses {
        hash.write_u64(p.rotation_index as u64);
        for t in [p.translation.0, p.translation.1, p.translation.2] {
            hash.write_u64(t as u64);
        }
        hash.write_f64(p.score);
    }
}

/// Poses without their score bits: what a last-bit change in the
/// correlation values must not move.
fn write_pose_places(hash: &mut Fnv1a, poses: &[Pose]) {
    hash.write_u64(poses.len() as u64);
    for p in poses {
        hash.write_u64(p.rotation_index as u64);
        for t in [p.translation.0, p.translation.1, p.translation.2] {
            hash.write_u64(t as u64);
        }
    }
}

fn write_counters(hash: &mut Fnv1a, c: &MemoryCounters) {
    for v in
        [c.flops, c.global_reads, c.global_writes, c.shared_accesses, c.constant_reads, c.barriers]
    {
        hash.write_u64(v);
    }
}

fn write_ledger(hash: &mut Fnv1a, ledger: &StatsLedger) {
    for (phase, stats) in ledger.phases() {
        hash.write(phase.as_bytes());
        hash.write_u64(ledger.launches(phase) as u64);
        hash.write_u64(stats.blocks as u64);
        hash.write_u64(stats.threads_per_block as u64);
        write_counters(hash, &stats.counters);
        hash.write_f64(stats.modeled_time_s);
    }
}

/// Asserts every `(what, got, recorded)` hash matches, listing all of them
/// (not just the first mismatch) when one does not.
fn assert_golden(hashes: &[(String, u64, u64)]) {
    let report: Vec<String> = hashes
        .iter()
        .map(|(what, got, want)| {
            let verdict = if got == want { "ok  " } else { "DIFF" };
            format!("{verdict} {what}: {got:#018x} (recorded {want:#018x})")
        })
        .collect();
    assert!(hashes.iter().all(|(_, got, want)| got == want), "{}", report.join("\n"));
}

/// The `small_test` protein's receptor grids at `dim³` and an acetone probe.
fn receptor_and_probe(dim: usize, spacing: Real) -> (ReceptorGrids, Probe) {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let spec = GridSpec::centered_on(&protein.atoms, dim, spacing);
    (ReceptorGrids::build(&protein.atoms, spec, 4), Probe::new(ProbeType::Acetone, &ff))
}

#[test]
fn fft3_plan_transforms_are_unchanged() {
    let cases = [
        ((32, 32, 32), Direction::Forward, 0xa272_8aab_441c_c820),
        ((32, 32, 32), Direction::Inverse, 0x4014_f077_bcda_6f44),
        ((4, 8, 16), Direction::Forward, 0xea7f_045c_c85c_8d3b),
        ((4, 8, 16), Direction::Inverse, 0x0ae0_54da_9e27_62bf),
        ((1, 2, 4), Direction::Forward, 0x1317_5b19_5204_02b7),
        ((1, 2, 4), Direction::Inverse, 0x33e7_a561_74e9_da9a),
    ];
    let hashes: Vec<_> = cases
        .into_iter()
        .map(|((nx, ny, nz), dir, want)| {
            let plan = Fft3Plan::new(nx, ny, nz);
            let mut data = signal(plan.len(), (nx * 10_000 + ny * 100 + nz) as u64);
            plan.transform_in_place(&mut data, dir);
            let mut hash = Fnv1a::new();
            write_complex(&mut hash, &data);
            (format!("{nx}x{ny}x{nz} {dir:?}"), hash.finish(), want)
        })
        .collect();
    assert_golden(&hashes);
}

#[test]
fn fft_correlation_grids_are_unchanged() {
    let cases = [(16, 2.0, 0xd52d_2c6f_2391_4b7b), (32, 1.5, 0x8bb8_6d6b_e713_cb6a)];
    let hashes: Vec<_> = cases
        .into_iter()
        .map(|(dim, spacing, want)| {
            let (receptor, probe) = receptor_and_probe(dim, spacing);
            let engine = ReceptorTransforms::new(&receptor);
            let mut hash = Fnv1a::new();
            for rotation in RotationSet::uniform(3).iter() {
                let ligand = LigandGrids::build(&probe.atoms, rotation, spacing, 4);
                write_grids(&mut hash, &engine.correlate_rotation(&ligand));
            }
            (format!("ReceptorTransforms::correlate_rotation at {dim}³"), hash.finish(), want)
        })
        .collect();
    assert_golden(&hashes);
}

#[test]
fn batched_fft_transforms_poses_and_ledger_are_unchanged() {
    let (receptor, probe) = receptor_and_probe(16, 2.0);
    let device = Device::tesla_c1060();
    let engine = BatchedFftEngine::new(&device, &receptor);
    let rotations = RotationSet::uniform(5);
    let batch: Vec<LigandGrids> =
        rotations.iter().map(|r| LigandGrids::build(&probe.atoms, r, 2.0, 4)).collect();
    let indices: Vec<usize> = (0..batch.len()).collect();
    let out = engine.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 3, 2);

    let mut transforms = Fnv1a::new();
    for term in 0..engine.transforms().n_terms() {
        write_complex(&mut transforms, engine.transforms().term_fft(term));
    }
    transforms.write_f64(engine.transform_residency().modeled_s());

    let mut poses = Fnv1a::new();
    for slot in &out.poses {
        write_poses(&mut poses, slot);
    }
    poses.write_f64(out.upload_s);
    poses.write_f64(out.download_s);

    let mut ledger = Fnv1a::new();
    write_ledger(&mut ledger, &out.ledger);
    assert_golden(&[
        ("receptor transforms".into(), transforms.finish(), 0xa056_a0e9_cf9f_cb97),
        ("dock_batch poses and transfers".into(), poses.finish(), 0x2bfb_c484_d13b_2238),
        ("dock_batch ledger".into(), ledger.finish(), 0x737e_f967_1f3f_4b7b),
    ]);
}

/// Hashes each engine's `small_test` docking run (16³, ethanol): retained
/// poses, modeled step times and the transfer seconds folded into them.
fn docking_run_hashes(cases: &[(DockingEngineKind, u64)]) -> Vec<(String, u64, u64)> {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let probe = Probe::new(ProbeType::Ethanol, &ff);
    cases
        .iter()
        .map(|&(engine, want)| {
            let run = Docking::new(&protein.atoms, DockingConfig::small_test(engine)).run(&probe);
            let mut hash = Fnv1a::new();
            write_poses(&mut hash, &run.poses);
            let m = run.modeled;
            for t in [m.rotation_grid_s, m.correlation_s, m.accumulation_s, m.scoring_filtering_s] {
                hash.write_f64(t);
            }
            hash.write_f64(run.modeled_transfer_s);
            (format!("{engine:?} docking run"), hash.finish(), want)
        })
        .collect()
}

#[test]
fn fft_docking_runs_are_unchanged() {
    assert_golden(&docking_run_hashes(&[
        (DockingEngineKind::FftSerial, 0x170b_b4d3_c5f7_e4b0),
        (DockingEngineKind::FftMulticore(3), 0xc13b_2b58_21a0_05f1),
        (DockingEngineKind::BatchedFft { batch: 3 }, 0x2c51_ad8d_c4bf_71d7),
    ]));
}

/// The FFT path's invariants, recorded before it moved to real-input
/// transforms over the half spectrum: that change moves correlation values in
/// their last bits, but not which poses are retained, nor any modeled second.
/// Hashed per case: the retained poses without their score bits, then the
/// modeled step and transfer seconds (each docking run), or the upload,
/// download and receptor-transform seconds (the 16³ `dock_batch`).
#[test]
fn fft_pose_places_and_modeled_seconds_are_unchanged() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let probe = Probe::new(ProbeType::Ethanol, &ff);
    let mut hashes = Vec::new();
    for (engine, want) in [
        (DockingEngineKind::FftSerial, 0x1caf_a216_c605_b8e9),
        (DockingEngineKind::BatchedFft { batch: 3 }, 0xd41e_03ec_d150_3092),
    ] {
        let run = Docking::new(&protein.atoms, DockingConfig::small_test(engine)).run(&probe);
        let mut hash = Fnv1a::new();
        write_pose_places(&mut hash, &run.poses);
        let m = run.modeled;
        for t in [m.rotation_grid_s, m.correlation_s, m.accumulation_s, m.scoring_filtering_s] {
            hash.write_f64(t);
        }
        hash.write_f64(run.modeled_transfer_s);
        hashes.push((format!("{engine:?} pose places and modeled seconds"), hash.finish(), want));
    }

    let (receptor, probe) = receptor_and_probe(16, 2.0);
    let device = Device::tesla_c1060();
    let engine = BatchedFftEngine::new(&device, &receptor);
    let batch: Vec<LigandGrids> = RotationSet::uniform(5)
        .iter()
        .map(|r| LigandGrids::build(&probe.atoms, r, 2.0, 4))
        .collect();
    let indices: Vec<usize> = (0..batch.len()).collect();
    let out = engine.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 3, 2);
    let mut hash = Fnv1a::new();
    for slot in &out.poses {
        write_pose_places(&mut hash, slot);
    }
    hash.write_f64(out.upload_s);
    hash.write_f64(out.download_s);
    hash.write_f64(engine.transform_residency().modeled_s());
    hashes.push((
        "dock_batch pose places and modeled seconds".into(),
        hash.finish(),
        0x2186_c908_9508_ae5d,
    ));
    assert_golden(&hashes);
}

#[test]
fn direct_docking_runs_are_unchanged() {
    assert_golden(&docking_run_hashes(&[
        (DockingEngineKind::DirectSerial, 0x48fb_8099_743a_dcb8),
        (DockingEngineKind::DirectMulticore(3), 0xb38c_8748_f3bc_99fb),
        (DockingEngineKind::Gpu { batch: 8 }, 0x8db5_eab1_5811_52cb),
    ]));
}

/// Docks 10 acetone rotations at `dim³` on the Gpu engine in batches of 8 (the
/// C1060's constant-memory batch for this probe), 4 poses per rotation, and
/// hashes every launch's record in launch order — the kernel name its trace
/// event carries, blocks, threads, counters and modeled seconds — and,
/// separately, the ligand uploads and retained poses.
fn gpu_launch_hashes(dim: usize, spacing: Real) -> (u64, u64) {
    let (receptor, probe) = receptor_and_probe(dim, spacing);
    let device = Device::tesla_c1060();
    let gpu = GpuDockingEngine::new(&device, &receptor);
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn TraceSink> = recorder.clone();
    let scope = ItemScope::enter(&sink, Track::Device(0), Tags::default());
    let mut launches: Vec<KernelStats> = Vec::new();
    let mut poses = Fnv1a::new();
    let rotations = RotationSet::uniform(10);
    for (chunk_idx, chunk) in rotations.rotations().chunks(8).enumerate() {
        let batch: Vec<SparseLigand> = chunk
            .iter()
            .map(|r| SparseLigand::from_grids(&LigandGrids::build(&probe.atoms, r, spacing, 4)))
            .collect();
        let indices: Vec<usize> = (chunk_idx * 8..chunk_idx * 8 + batch.len()).collect();
        let out = gpu.dock_batch(&batch, &indices, &EnergyWeights::default(), 4, 4, 2);
        launches.push(out.correlation);
        poses.write_f64(out.upload_s);
        for (slot, slot_poses) in out.poses.iter().enumerate() {
            write_poses(&mut poses, slot_poses);
            launches.extend([out.accumulation[slot], out.scoring[slot]]);
        }
    }
    drop(scope);

    let kernels: Vec<_> =
        recorder.drain_raw().into_iter().filter(|e| e.cat == Category::Kernel).collect();
    assert_eq!(kernels.len(), launches.len(), "one kernel event per launch");
    let mut hash = Fnv1a::new();
    for (event, stats) in kernels.iter().zip(&launches) {
        assert_eq!(event.dur_s.to_bits(), stats.modeled_time_s.to_bits(), "{}", event.name);
        hash.write(event.name.as_bytes());
        hash.write_u64(stats.blocks as u64);
        hash.write_u64(stats.threads_per_block as u64);
        write_counters(&mut hash, &stats.counters);
        hash.write_f64(stats.modeled_time_s);
    }
    (hash.finish(), poses.finish())
}

#[test]
fn gpu_launch_records_are_unchanged() {
    let mut hashes = Vec::new();
    for (dim, spacing, launches, poses) in [
        (16, 2.0, 0xb188_99d7_895d_3ce4, 0xc8d9_5124_2f36_ed58),
        (32, 1.5, 0x75c5_21e7_4d17_3e1b, 0x9113_2648_c750_a760),
    ] {
        let (got_launches, got_poses) = gpu_launch_hashes(dim, spacing);
        hashes.push((format!("Gpu launches at {dim}³"), got_launches, launches));
        hashes.push((format!("Gpu uploads and poses at {dim}³"), got_poses, poses));
    }
    assert_golden(&hashes);
}
