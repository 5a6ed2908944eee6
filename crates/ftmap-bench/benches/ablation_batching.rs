//! §III.A ablation: direct-correlation rotation batching (1, 2, 4, 8 rotations per pass).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftmap_bench::DockingWorkload;
use ftmap_math::RotationSet;
use gpu_sim::Device;
use piper_dock::direct::SparseLigand;
use piper_dock::gpu::GpuDockingEngine;
use piper_dock::grids::{EnergyWeights, GridSpec, LigandGrids, ReceptorGrids};
use std::time::Duration;

fn bench_batching(c: &mut Criterion) {
    let w = DockingWorkload::standard();
    let spec = GridSpec::centered_on(&w.protein.atoms, ftmap_bench::BENCH_GRID_DIM, 1.5);
    let receptor = ReceptorGrids::build(&w.protein.atoms, spec, 4);
    let device = Device::tesla_c1060();
    let gpu = GpuDockingEngine::new(&device, &receptor);
    let rotations = RotationSet::uniform(8);
    let ligands: Vec<SparseLigand> = rotations
        .iter()
        .map(|r| SparseLigand::from_grids(&LigandGrids::build(&w.probe.atoms, r, 1.5, 4)))
        .collect();

    let mut group = c.benchmark_group("ablation_rotation_batching");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for batch in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                for chunk in ligands.chunks(batch) {
                    let indices: Vec<usize> = (0..chunk.len()).collect();
                    let weights = EnergyWeights::default();
                    std::hint::black_box(gpu.dock_batch(chunk, &indices, &weights, 4, 4, 3));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batching);
criterion_main!(benches);
