//! `report` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!   cargo run --release -p ftmap-bench --bin report                 # all experiments
//!   cargo run --release -p ftmap-bench --bin report -- table1       # one experiment
//!
//! Experiments: table1, table2, fig2a, fig2b, fig3a, fig3b, overall, batching,
//! crossover, pairslist-schemes, multicore. Any other name prints the valid ones
//! and exits with status 2.

use ftmap_bench::{format_table, ComparisonRow, DockingWorkload, MinimizationWorkload};
use ftmap_core::{FtMapConfig, FtMapPipeline, PipelineMode};
use ftmap_energy::minimize::EvaluationPath;
use ftmap_molecule::{ForceField, ProbeLibrary, ProbeType, ProteinSpec, SyntheticProtein};
use gpu_sim::Device;
use piper_dock::direct::SparseLigand;
use piper_dock::gpu::GpuDockingEngine;
use piper_dock::grids::{EnergyWeights, GridSpec, LigandGrids, ReceptorGrids};
use piper_dock::DockingEngineKind;

/// An experiment: the names that select it and the function that runs it.
type Experiment = (&'static [&'static str], fn());

/// Every experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    (&["fig2a"], fig2a),
    (&["fig2b"], fig2b),
    (&["table1"], table1),
    (&["fig3a", "fig3b"], fig3),
    (&["table2"], table2),
    (&["pairslist-schemes"], pairslist_schemes),
    (&["batching"], batching),
    (&["crossover"], crossover),
    (&["multicore"], multicore),
    (&["overall"], overall),
];

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let selected: Vec<fn()> = EXPERIMENTS
        .iter()
        .filter(|(names, _)| filter == "all" || names.contains(&filter.as_str()))
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().flat_map(|(names, _)| names.to_vec()).collect();
        eprintln!("report: unknown experiment `{filter}`; valid names: all {}", names.join(" "));
        std::process::exit(2);
    }
    for run in selected {
        run();
    }
}

fn fig2a() {
    println!("=== Fig. 2(a): FTMap phase split (serial pipeline) ===");
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol]);
    let mut config = FtMapConfig::small_test(PipelineMode::Serial);
    config.docking.grid_dim = 32;
    config.docking.n_rotations = 8;
    config.conformations_per_probe = 6;
    config.minimization.max_iterations = 30;
    let result = FtMapPipeline::new(protein, ff, config).map(&library);
    let (dock, minim) = result.profile.wall_percentages();
    let rows = vec![
        ComparisonRow::new("Rigid docking", 7.0, dock),
        ComparisonRow::new("Energy minimization", 93.0, minim),
    ];
    println!("{}", format_table("Phase share of total runtime", "%", &rows));
}

fn fig2b() {
    println!("=== Fig. 2(b): per-rotation step split of serial FFT docking ===");
    let w = DockingWorkload::standard();
    let [rot, corr, accum, filt] = w.wall_percentages(DockingEngineKind::FftSerial);
    let rows = vec![
        ComparisonRow::new("FFT correlations", 93.0, corr),
        ComparisonRow::new("Rotation and grid assignment", 2.3, rot),
        ComparisonRow::new("Accumulation", 2.4, accum),
        ComparisonRow::new("Scoring and filtering", 2.3, filt),
    ];
    println!("{}", format_table("Step share of per-rotation time", "%", &rows));
}

fn table1() {
    println!("=== Table 1: per-rotation docking speedups (modeled Xeon core vs modeled C1060) ===");
    let w = DockingWorkload::standard();
    let serial = w.per_rotation_modeled_ms(DockingEngineKind::FftSerial);
    let gpu = w.per_rotation_modeled_ms(DockingEngineKind::Gpu { batch: 8 });
    let speedup = |i: usize| serial[i] / gpu[i].max(1e-12);
    let total_serial: f64 = serial.iter().sum();
    let total_gpu: f64 = gpu.iter().sum();
    let rows = vec![
        ComparisonRow::new("Rotation + grid assignment", 1.0, speedup(0)),
        ComparisonRow::new("Correlations", 267.0, speedup(1)),
        ComparisonRow::new("Accum. desolvation terms", 180.0, speedup(2)),
        ComparisonRow::new("Scoring and filtering", 6.67, speedup(3)),
        ComparisonRow::new("Total per rotation", 32.6, total_serial / total_gpu.max(1e-12)),
    ];
    println!("{}", format_table("Speedup per docking step", "x", &rows));
    println!(
        "(modeled per-rotation times, ms: serial {:?}, gpu {:?})\n",
        serial.map(|v| (v * 100.0).round() / 100.0),
        gpu.map(|v| (v * 1000.0).round() / 1000.0)
    );
}

fn fig3() {
    println!("=== Fig. 3: energy-minimization profile (serial host path) ===");
    let w = MinimizationWorkload::paper_scale();
    let device = Device::tesla_c1060();
    let (eval_frac, elec, vdw, bonded) = w.minimization_profile(EvaluationPath::Host, &device);
    let rows_a =
        vec![ComparisonRow::new("Energy evaluation share of iteration", 98.98, 100.0 * eval_frac)];
    println!("{}", format_table("Fig. 3(a)", "%", &rows_a));
    let rows_b = vec![
        ComparisonRow::new("Electrostatics", 94.4, elec),
        ComparisonRow::new("van der Waals", 5.38, vdw),
        ComparisonRow::new("Bonded", 0.2, bonded),
    ];
    println!("{}", format_table("Fig. 3(b): energy-evaluation split", "%", &rows_b));
}

fn table2() {
    println!("=== Table 2: minimization kernel speedups (measured serial vs modeled C1060) ===");
    let w = MinimizationWorkload::paper_scale();
    let device = Device::tesla_c1060();
    let (elec_ms, vdw_ms, _) = w.serial_iteration_ms();
    let (gpu_self_ms, gpu_pair_ms, gpu_force_ms) = w.gpu_iteration_ms(&device);
    // The paper's serial columns: self 6.15 ms, pairwise 2.75 ms, vdW 0.5 ms, force 0.95 ms.
    // Our serial evaluator times electrostatics (self + pairwise GB) together; split it
    // by the paper's own 6.15 : 2.75 ratio for the per-kernel comparison.
    let serial_self_ms = elec_ms * 6.15 / 8.9;
    let serial_pair_ms = elec_ms * 2.75 / 8.9 + vdw_ms;
    let serial_force_ms = 0.1 * (serial_self_ms + serial_pair_ms); // host update pass, ~10 %
    let rows = vec![
        ComparisonRow::new("Self energies", 26.7, serial_self_ms / gpu_self_ms.max(1e-12)),
        ComparisonRow::new(
            "Pairwise + van der Waals",
            17.0,
            serial_pair_ms / gpu_pair_ms.max(1e-12),
        ),
        ComparisonRow::new("Force updates", 6.7, serial_force_ms / gpu_force_ms.max(1e-12)),
    ];
    println!("{}", format_table("Speedup per minimization kernel", "x", &rows));
    println!(
        "(serial ms: self {serial_self_ms:.3}, pair+vdW {serial_pair_ms:.3}, force {serial_force_ms:.3}; modeled GPU ms: {gpu_self_ms:.4}, {gpu_pair_ms:.4}, {gpu_force_ms:.4})\n"
    );
}

fn pairslist_schemes() {
    println!("=== §IV.B ablation: neighbor-list vs pairs-list vs split assignment tables ===");
    let w = MinimizationWorkload::paper_scale();
    let device = Device::tesla_c1060();
    let (neighbor_ms, pairs_ms, split_ms) = w.scheme_comparison_ms(&device);
    println!("scheme                                   modeled ms per pass");
    println!("neighbor-list (one atom per block)       {neighbor_ms:>10.4}");
    println!("pairs-list + host accumulation           {pairs_ms:>10.4}");
    println!("split lists + assignment tables (final)  {split_ms:>10.4}");
    println!("paper: the pairs-list scheme reaches only ~3x over serial; the final scheme");
    println!("enables the 12.5x minimization speedup. The device model reproduces the ordering");
    println!("final < pairs-list; the neighbor-list scheme's intra-block load imbalance is not");
    println!("captured by merged counters.\n");
}

fn batching() {
    println!("=== §III.A ablation: multi-rotation batching of direct correlation ===");
    let w = DockingWorkload::standard();
    let ff = &w.ff;
    let spec = GridSpec::centered_on(&w.protein.atoms, ftmap_bench::BENCH_GRID_DIM, 1.5);
    let receptor = ReceptorGrids::build(&w.protein.atoms, spec, 4);
    let device = Device::tesla_c1060();
    let gpu = GpuDockingEngine::new(&device, &receptor);
    let rotations = ftmap_math::RotationSet::uniform(8);
    let ligands: Vec<SparseLigand> = rotations
        .iter()
        .map(|r| SparseLigand::from_grids(&LigandGrids::build(&w.probe.atoms, r, 1.5, 4)))
        .collect();
    let _ = ff;

    println!("batch size   modeled ms per rotation   speedup vs batch=1");
    let mut per_rotation_1 = 0.0;
    for batch in [1usize, 2, 4, 8] {
        let mut total = 0.0;
        for chunk in ligands.chunks(batch) {
            let indices: Vec<usize> = (0..chunk.len()).collect();
            let out = gpu.dock_batch(chunk, &indices, &EnergyWeights::default(), 4, 4, 3);
            total += out.correlation.modeled_time_s + out.upload_s;
        }
        let per_rot = 1e3 * total / ligands.len() as f64;
        if batch == 1 {
            per_rotation_1 = per_rot;
        }
        println!("{batch:>10}   {per_rot:>23.4}   {:>18.2}", per_rotation_1 / per_rot);
    }
    println!("paper: 8 rotations per pass gave 2.7x over one rotation at a time.\n");
}

fn crossover() {
    println!("=== §III ablation: direct vs FFT correlation crossover ===");
    println!(
        "{:<12}{:>18}{:>16}{:>14}{:>10}",
        "footprint", "occupied voxels", "direct (ms)", "FFT (ms)", "winner"
    );
    for (dim, occupied, direct_ms, fft_ms) in ftmap_bench::crossover_sweep() {
        let winner = if direct_ms < fft_ms { "direct" } else { "FFT" };
        println!(
            "{:<12}{occupied:>18}{direct_ms:>16.2}{fft_ms:>14.2}{winner:>10}",
            format!("{dim}^3")
        );
    }
    println!("paper: direct correlation wins below a ligand-grid-size threshold; FTMap probes (<=4^3) are below it.\n");
}

fn multicore() {
    println!("=== §V.A: GPU vs multicore docking (modeled) ===");
    let w = DockingWorkload::standard();
    let serial: f64 = w.per_rotation_modeled_ms(DockingEngineKind::FftSerial).iter().sum();
    let multicore_fft: f64 =
        w.per_rotation_modeled_ms(DockingEngineKind::FftMulticore(4)).iter().sum();
    let multicore_direct: f64 =
        w.per_rotation_modeled_ms(DockingEngineKind::DirectMulticore(4)).iter().sum();
    let gpu: f64 = w.per_rotation_modeled_ms(DockingEngineKind::Gpu { batch: 8 }).iter().sum();
    let rows = vec![
        ComparisonRow::new("GPU vs serial FFT PIPER", 32.6, serial / gpu),
        ComparisonRow::new("GPU vs multicore FFT PIPER (4 cores)", 11.0, multicore_fft / gpu),
        ComparisonRow::new("GPU vs multicore direct PIPER (4 cores)", 6.0, multicore_direct / gpu),
    ];
    println!("{}", format_table("Docking speedups", "x", &rows));
}

fn overall() {
    println!("=== §V.B-C: minimization-phase and overall mapping speedups (modeled, scaled workload) ===");
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
    let mut serial_cfg = FtMapConfig::small_test(PipelineMode::Serial);
    serial_cfg.docking.grid_dim = 32;
    serial_cfg.docking.n_rotations = 8;
    serial_cfg.conformations_per_probe = 4;
    serial_cfg.minimization.max_iterations = 20;
    let mut accel_cfg = FtMapConfig::small_test(PipelineMode::Accelerated);
    accel_cfg.docking.grid_dim = 32;
    accel_cfg.docking.n_rotations = 8;
    accel_cfg.conformations_per_probe = 4;
    accel_cfg.minimization.max_iterations = 20;

    let serial = FtMapPipeline::new(protein.clone(), ff.clone(), serial_cfg).map(&library);
    let accel = FtMapPipeline::new(protein, ff, accel_cfg).map(&library);

    let min_speedup =
        serial.profile.minimization_modeled_s / accel.profile.minimization_modeled_s.max(1e-12);
    let overall_speedup =
        serial.profile.total_modeled_s() / accel.profile.total_modeled_s().max(1e-12);
    let rows = vec![
        ComparisonRow::new("Energy minimization phase", 12.5, min_speedup),
        ComparisonRow::new("Overall mapping per probe", 13.0, overall_speedup),
    ];
    println!("{}", format_table("End-to-end speedups", "x", &rows));
    println!(
        "(paper absolute times: docking 30 min -> minimization 400 min -> total 435 min serial, 33 min GPU)\n"
    );
}
