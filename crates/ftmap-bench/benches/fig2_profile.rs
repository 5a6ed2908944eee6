//! Fig. 2: phase and per-step profile of the serial docking path.

use criterion::{criterion_group, criterion_main, Criterion};
use ftmap_bench::DockingWorkload;
use ftmap_math::Rotation;
use piper_dock::direct::SparseLigand;
use piper_dock::grids::{GridSpec, LigandGrids, ReceptorGrids};
use piper_dock::ReceptorTransforms;
use std::time::Duration;

fn bench_fig2(c: &mut Criterion) {
    let w = DockingWorkload::standard();
    let spec = GridSpec::centered_on(&w.protein.atoms, ftmap_bench::BENCH_GRID_DIM, 1.5);
    let receptor = ReceptorGrids::build(&w.protein.atoms, spec, 4);
    let fft = ReceptorTransforms::new(&receptor);
    let ligand = LigandGrids::build(&w.probe.atoms, &Rotation::identity(), 1.5, 4);

    let mut group = c.benchmark_group("fig2_docking_steps");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    group.bench_function("rotation_and_grid_assignment", |b| {
        b.iter(|| {
            std::hint::black_box(LigandGrids::build(&w.probe.atoms, &Rotation::identity(), 1.5, 4))
        })
    });
    group.bench_function("fft_correlation", |b| {
        b.iter(|| std::hint::black_box(fft.correlate_rotation(&ligand)))
    });
    let results = fft.correlate_rotation(&ligand);
    group.bench_function("accumulation_and_scoring", |b| {
        b.iter(|| {
            let desolv = piper_dock::filter::accumulate_desolvation(&results, 4);
            let scores = piper_dock::filter::score_grid(&results, &desolv, &Default::default(), 4);
            std::hint::black_box(piper_dock::filter::filter_top_k(&scores, 4, 3, 0))
        })
    });
    let sparse = SparseLigand::from_grids(&ligand);
    std::hint::black_box(sparse.len());
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
