//! §III ablation: direct vs FFT correlation as the ligand footprint grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftmap_bench::DockingWorkload;
use ftmap_math::Rotation;
use piper_dock::direct::{DirectCorrelationEngine, SparseLigand};
use piper_dock::grids::{GridSpec, LigandGrids, ReceptorGrids};
use piper_dock::ReceptorTransforms;
use std::time::Duration;

fn bench_crossover(c: &mut Criterion) {
    let w = DockingWorkload::standard();
    let spec = GridSpec::centered_on(&w.protein.atoms, ftmap_bench::BENCH_GRID_DIM, 1.5);
    let receptor = ReceptorGrids::build(&w.protein.atoms, spec, 4);
    let direct = DirectCorrelationEngine::new(&receptor);
    let fft = ReceptorTransforms::new(&receptor);

    let mut group = c.benchmark_group("ablation_correlation_crossover");
    group.sample_size(10).measurement_time(Duration::from_secs(4));

    for scale in [1.0f64, 3.0] {
        let mut probe = w.probe.clone();
        for atom in &mut probe.atoms {
            atom.position *= scale;
        }
        let ligand = LigandGrids::build(&probe.atoms, &Rotation::identity(), 1.5, 4);
        let sparse = SparseLigand::from_grids(&ligand);
        group.bench_with_input(
            BenchmarkId::new("direct", format!("footprint_{}", ligand.dim)),
            &sparse,
            |b, sparse| b.iter(|| std::hint::black_box(direct.correlate_rotation(sparse))),
        );
        group.bench_with_input(
            BenchmarkId::new("fft", format!("footprint_{}", ligand.dim)),
            &ligand,
            |b, ligand| b.iter(|| std::hint::black_box(fft.correlate_rotation(ligand))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_crossover);
criterion_main!(benches);
