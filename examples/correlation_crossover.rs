//! Direct vs FFT correlation crossover (paper §III): direct correlation wins when the
//! ligand grid is small, FFT wins when it grows. This example sweeps the ligand
//! footprint and prints, for both approaches, the modeled serial cost on the paper's
//! Xeon core and the measured host wall time of one rotation's per-term correlation
//! grids (best of [`WALL_REPS`] runs of `DirectCorrelationEngine::correlate_rotation`
//! and `ReceptorTransforms::correlate_rotation`, the engines `DirectSerial` and
//! `FftSerial` dock through; `FftSerial` itself inverse-transforms only the summed
//! score).
//!
//! Run with: `cargo run --release --example correlation_crossover`

use ftmap::dock::direct::{DirectCorrelationEngine, SparseLigand};
use ftmap::dock::grids::{GridSpec, LigandGrids, ReceptorGrids};
use ftmap::dock::ReceptorTransforms;
use ftmap::gpu::{wall_timed, CostModel, DeviceSpec, MemoryCounters};
use ftmap::prelude::*;

/// Runs per wall measurement; the fastest one is printed.
const WALL_REPS: usize = 3;

/// The fastest of [`WALL_REPS`] wall times of `f`, in seconds.
fn best_wall_s<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..WALL_REPS).map(|_| wall_timed(|| std::hint::black_box(f())).1).fold(f64::INFINITY, f64::min)
}

fn main() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
    let spec = GridSpec::centered_on(&protein.atoms, 64, 1.0);
    let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);

    let fft = ReceptorTransforms::new(&receptor);
    let direct = DirectCorrelationEngine::new(&receptor);
    let xeon = CostModel::new(DeviceSpec::xeon_core());

    let fft_counters = MemoryCounters { flops: fft.flops_per_rotation(), ..Default::default() };
    let fft_time = xeon.serial_time(&fft_counters);

    println!(
        "Receptor grid 64³, 8 energy terms. FFT correlation cost is independent of probe size."
    );
    println!("Modeled: the paper's Xeon core. Wall: this host, best of {WALL_REPS}.");
    println!(
        "{:<28}{:>14}{:>12}{:>9}{:>14}{:>12}{:>9}",
        "ligand", "direct (ms)", "FFT (ms)", "winner", "direct wall", "FFT wall", "winner"
    );

    // Sweep effective ligand footprints by scaling a benzene probe.
    let probe = Probe::new(ProbeType::Benzene, &ff);
    for scale in [0.5, 1.0, 2.0, 3.0, 4.0, 6.0] {
        let mut scaled = probe.clone();
        for atom in &mut scaled.atoms {
            atom.position *= scale;
        }
        let ligand = LigandGrids::build(&scaled.atoms, &Rotation::identity(), 1.0, 4);
        let sparse = SparseLigand::from_grids(&ligand);
        let direct_counters =
            MemoryCounters { flops: direct.flops_per_rotation(&sparse), ..Default::default() };
        let direct_time = xeon.serial_time(&direct_counters);
        let direct_wall = best_wall_s(|| direct.correlate_rotation(&sparse));
        let fft_wall = best_wall_s(|| fft.correlate_rotation(&ligand));
        let winner = |direct_s: f64, fft_s: f64| if direct_s < fft_s { "direct" } else { "FFT" };
        println!(
            "{:<28}{:>14.2}{:>12.2}{:>9}{:>14.2}{:>12.2}{:>9}",
            format!("{}³ footprint ({} voxels)", ligand.dim, sparse.len()),
            1e3 * direct_time,
            1e3 * fft_time,
            winner(direct_time, fft_time),
            1e3 * direct_wall,
            1e3 * fft_wall,
            winner(direct_wall, fft_wall)
        );
    }
    println!("\nFTMap probes never exceed a 4³ footprint, so the GPU implementation uses direct correlation (paper §III).");
}
