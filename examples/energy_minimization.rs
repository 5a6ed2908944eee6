//! Energy minimization of a protein–probe complex, on the host path and on the GPU
//! kernel path, showing the per-kernel modeled times that Table 2 compares.
//!
//! Run with: `cargo run --release --example energy_minimization`

use ftmap::prelude::*;

fn main() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
    let probe = Probe::new(ProbeType::Isopropanol, &ff);

    // Pose the probe at the first carved pocket.
    let mut posed = probe.clone();
    for atom in &mut posed.atoms {
        atom.position += protein.pocket_centers[0];
    }

    let device = Device::tesla_c1060();

    for (label, path) in
        [("host (serial FTMap)", EvaluationPath::Host), ("GPU kernels", EvaluationPath::Gpu)]
    {
        let mut complex = Complex::new(&protein, &posed);
        let config =
            MinimizationConfig { max_iterations: 40, path, ..MinimizationConfig::default() };
        let minimizer = Minimizer::new(ff.clone(), config);
        let result = minimizer.minimize(&mut complex, &device);

        println!("== {label} ==");
        println!(
            "  energy: {:.2} -> {:.2} kcal/mol in {} iterations (converged: {})",
            result.initial_energy, result.final_energy, result.iterations, result.converged
        );
        println!(
            "  evaluation fraction of iteration time: {:.1} % (paper Fig. 3(a): ~99 %)",
            100.0 * result.evaluation_fraction()
        );
        if path == EvaluationPath::Host {
            // The GPU path's trial energies re-add the recorded protein
            // terms, so only the host path times the full serial evaluation.
            let (e, v, b) = result.breakdown.time_percentages();
            println!("  energy-evaluation split: electrostatics {e:.1} %, vdW {v:.1} %, bonded {b:.1} % (paper Fig. 3(b): 94.4 / 5.4 / 0.2)");
        } else {
            let (self_t, pair_t, force_t) = result.modeled_kernel_times_s;
            let per_iter = 1e3 / result.iterations as f64;
            println!(
                "  modeled kernel times per iteration (ms): self energies {:.4}, pairwise+vdW {:.4}, force update {:.4}",
                self_t * per_iter,
                pair_t * per_iter,
                force_t * per_iter
            );
        }
        println!();
    }
}
