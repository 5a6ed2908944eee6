//! Fig. 3: energy-evaluation term split of the minimization iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use ftmap_bench::MinimizationWorkload;
use ftmap_energy::terms;
use std::time::Duration;

fn bench_fig3(c: &mut Criterion) {
    let w = MinimizationWorkload::paper_scale();
    let ff = &w.ff;
    let pairs: Vec<(usize, usize)> = w.neighbors.iter_pairs().collect();

    let mut group = c.benchmark_group("fig3_energy_terms");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    group.bench_function("electrostatics_all_pairs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(i, j) in &pairs {
                let ai = &w.complex.atoms[i];
                let aj = &w.complex.atoms[j];
                let r = ai.position.distance(aj.position);
                let [(e_ik, _), (e_ki, _)] = terms::ace_pair_self_energies(ai, aj, r, ff);
                acc += e_ik + e_ki;
                acc += terms::gb_pair_energy(ai, aj, r, ff).0;
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("vdw_all_pairs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(i, j) in &pairs {
                let ai = &w.complex.atoms[i];
                let aj = &w.complex.atoms[j];
                let r = ai.position.distance(aj.position);
                acc += terms::vdw_pair_energy(ai, aj, r, ff).0;
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("bonded_all_terms", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for bond in w.complex.topology.bonds() {
                let r = w.complex.atoms[bond.i].position.distance(w.complex.atoms[bond.j].position);
                acc += terms::bond_energy(r, ff).0;
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
