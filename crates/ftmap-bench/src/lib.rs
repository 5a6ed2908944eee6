//! # ftmap-bench
//!
//! The benchmark harness that regenerates every table and figure of the paper's
//! evaluation section. The heavy lifting lives here so that both the `report`
//! binary and the Criterion benches share one set of workload builders.
//!
//! Absolute numbers cannot match the paper (the accelerator is a device *model*, the
//! structures are synthetic), so each experiment reports the paper's value next to the
//! reproduced value and the comparison is about *shape*: which step speeds up the most,
//! which changes nothing, where the crossovers sit.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

use ftmap_energy::gpu::{GpuMinimizationEngine, PairTerm};
use ftmap_energy::minimize::{EvaluationPath, MinimizationConfig, Minimizer};
use ftmap_energy::pairs::PairsList;
use ftmap_energy::Evaluator;
use ftmap_math::Rotation;
use ftmap_molecule::{
    Complex, ForceField, NeighborList, Probe, ProbeType, ProteinSpec, SyntheticProtein,
};
use gpu_sim::Device;
use piper_dock::direct::SparseLigand;
use piper_dock::grids::{GridSpec, LigandGrids, ReceptorGrids};
use piper_dock::{Docking, DockingConfig, DockingEngineKind};

/// Grid dimension used by the benchmark workloads (the paper uses 128³; 32³ keeps the
/// harness fast while preserving every ratio the experiments compare).
pub const BENCH_GRID_DIM: usize = 32;
/// Rotations per docking benchmark run.
pub const BENCH_ROTATIONS: usize = 16;

/// A reproducible docking workload: protein, receptor grids and a probe.
pub struct DockingWorkload {
    /// The synthetic protein.
    pub protein: SyntheticProtein,
    /// The probe being docked.
    pub probe: Probe,
    /// The force field.
    pub ff: ForceField,
}

impl DockingWorkload {
    /// Builds the standard benchmark workload (~800-atom protein, acetone probe).
    pub fn standard() -> Self {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
        let probe = Probe::new(ProbeType::Acetone, &ff);
        DockingWorkload { protein, probe, ff }
    }

    /// A docking configuration over this workload with the given engine.
    pub fn config(&self, engine: DockingEngineKind) -> DockingConfig {
        DockingConfig {
            grid_dim: BENCH_GRID_DIM,
            spacing: 1.5,
            n_desolv: 4,
            n_rotations: BENCH_ROTATIONS,
            poses_per_rotation: 4,
            exclusion_radius: 3,
            weights: Default::default(),
            engine,
        }
    }

    /// Runs docking with the given engine and returns the per-rotation modeled step
    /// times in milliseconds `(rotation+grid, correlation, accumulation,
    /// scoring+filtering)`.
    pub fn per_rotation_modeled_ms(&self, engine: DockingEngineKind) -> [f64; 4] {
        let docking = Docking::new(&self.protein.atoms, self.config(engine));
        let run = docking.run(&self.probe);
        let n = run.n_rotations as f64;
        [
            1e3 * run.modeled.rotation_grid_s / n,
            1e3 * run.modeled.correlation_s / n,
            1e3 * run.modeled.accumulation_s / n,
            1e3 * run.modeled.scoring_filtering_s / n,
        ]
    }

    /// Runs docking and returns the wall-clock per-step percentages (Fig. 2(b)).
    pub fn wall_percentages(&self, engine: DockingEngineKind) -> [f64; 4] {
        let docking = Docking::new(&self.protein.atoms, self.config(engine));
        docking.run(&self.probe).wall.percentages()
    }
}

/// A reproducible minimization workload: a posed protein–probe complex and its
/// neighbor list.
pub struct MinimizationWorkload {
    /// The complex (probe posed at a pocket).
    pub complex: Complex,
    /// Cutoff neighbor list.
    pub neighbors: NeighborList,
    /// The force field.
    pub ff: ForceField,
}

impl MinimizationWorkload {
    /// Builds the standard minimization workload (paper scale: ~2200-atom complex).
    pub fn paper_scale() -> Self {
        Self::with_spec(&ProteinSpec::default())
    }

    /// Builds a smaller workload for quick benches.
    pub fn medium() -> Self {
        Self::with_spec(&ProteinSpec::medium())
    }

    fn with_spec(spec: &ProteinSpec) -> Self {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(spec, &ff);
        let probe = Probe::new(ProbeType::Isopropanol, &ff);
        let mut posed = probe;
        for atom in &mut posed.atoms {
            atom.position += protein.pocket_centers[0];
        }
        let complex = Complex::new(&protein, &posed);
        let excluded = complex.topology.excluded_pairs();
        let neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
        MinimizationWorkload { complex, neighbors, ff }
    }

    /// Serial per-iteration kernel times in milliseconds, measured on this machine:
    /// `(self energies + pairwise electrostatics, vdW, force/position update)` — the
    /// CPU column of Table 2 (approximated by the host evaluator's term timings).
    pub fn serial_iteration_ms(&self) -> (f64, f64, f64) {
        let evaluator = Evaluator::new(self.ff.clone());
        let eval = evaluator.evaluate(&self.complex, &self.neighbors);
        (
            1e3 * eval.breakdown.elec_time_s,
            1e3 * eval.breakdown.vdw_time_s,
            1e3 * eval.breakdown.bonded_time_s,
        )
    }

    /// Modeled GPU kernel times per iteration in milliseconds:
    /// `(self energies, pairwise + vdW, force update)` — the GPU column of Table 2.
    pub fn gpu_iteration_ms(&self, device: &Device) -> (f64, f64, f64) {
        let engine = GpuMinimizationEngine::new(device, self.ff.clone(), &self.neighbors);
        let result = engine.evaluate(&self.complex);
        (
            1e3 * result.self_energy_stats().modeled_time_s,
            1e3 * result.pairwise_vdw_stats().modeled_time_s,
            1e3 * result.force_update_stats().modeled_time_s,
        )
    }

    /// Modeled times of the three §IV mapping schemes for the ACE-self term, in
    /// milliseconds: `(neighbor-list scheme, pairs-list + host accumulation, split
    /// assignment tables)`.
    pub fn scheme_comparison_ms(&self, device: &Device) -> (f64, f64, f64) {
        let engine = GpuMinimizationEngine::new(device, self.ff.clone(), &self.neighbors);
        let pairs = PairsList::from_neighbor_list(&self.neighbors);
        let (_, a) = engine.scheme_neighbor_list(&self.complex, &self.neighbors, PairTerm::AceSelf);
        let (_, b) = engine.scheme_pairs_list_host_accum(&self.complex, &pairs, PairTerm::AceSelf);
        let (_, c) = engine.scheme_split_assignment(&self.complex, PairTerm::AceSelf);
        (1e3 * a.modeled_time_s, 1e3 * b.modeled_time_s, 1e3 * c.modeled_time_s)
    }

    /// Runs a short minimization on the given path and returns
    /// `(evaluation fraction, electrostatics %, vdW %, bonded %)` — Fig. 3(a)/(b).
    pub fn minimization_profile(
        &self,
        path: EvaluationPath,
        device: &Device,
    ) -> (f64, f64, f64, f64) {
        let mut complex = self.complex.clone();
        let config =
            MinimizationConfig { max_iterations: 15, path, ..MinimizationConfig::default() };
        let result = Minimizer::new(self.ff.clone(), config).minimize(&mut complex, device);
        let (e, v, b) = result.breakdown.time_percentages();
        (result.evaluation_fraction(), e, v, b)
    }
}

/// One row of a reproduced table: label, paper value, reproduced value.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Row label (matches the paper's row).
    pub label: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction measures/models.
    pub reproduced: f64,
}

impl ComparisonRow {
    /// Creates a row.
    pub fn new(label: &str, paper: f64, reproduced: f64) -> Self {
        ComparisonRow { label: label.to_string(), paper, reproduced }
    }
}

/// Formats comparison rows as an aligned text table.
pub fn format_table(title: &str, unit: &str, rows: &[ComparisonRow]) -> String {
    let mut out = format!(
        "{title}\n{:<38}{:>14}{:>16}\n",
        "",
        format!("paper ({unit})"),
        format!("reproduced ({unit})")
    );
    for row in rows {
        out.push_str(&format!("{:<38}{:>14.2}{:>16.2}\n", row.label, row.paper, row.reproduced));
    }
    out
}

/// Sweep of ligand footprint sizes for the direct-vs-FFT crossover experiment; returns
/// `(footprint dim, occupied voxels, direct modeled ms, fft modeled ms)` per point.
pub fn crossover_sweep() -> Vec<(usize, usize, f64, f64)> {
    use gpu_sim::{CostModel, DeviceSpec, MemoryCounters};
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
    let spec = GridSpec::centered_on(&protein.atoms, BENCH_GRID_DIM, 1.5);
    let receptor = ReceptorGrids::build(&protein.atoms, spec, 4);
    let fft = piper_dock::ReceptorTransforms::new(&receptor);
    let direct = piper_dock::direct::DirectCorrelationEngine::new(&receptor);
    let xeon = CostModel::new(DeviceSpec::xeon_core());
    let fft_ms = 1e3
        * xeon
            .serial_time(&MemoryCounters { flops: fft.flops_per_rotation(), ..Default::default() });

    let probe = Probe::new(ProbeType::Benzene, &ff);
    let mut out = Vec::new();
    for scale in [0.5, 1.0, 2.0, 3.0, 4.0, 6.0] {
        let mut scaled = probe.clone();
        for atom in &mut scaled.atoms {
            atom.position *= scale;
        }
        let ligand = LigandGrids::build(&scaled.atoms, &Rotation::identity(), 1.5, 4);
        let sparse = SparseLigand::from_grids(&ligand);
        let direct_ms = 1e3
            * xeon.serial_time(&MemoryCounters {
                flops: direct.flops_per_rotation(&sparse),
                ..Default::default()
            });
        out.push((ligand.dim, sparse.len(), direct_ms, fft_ms));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn docking_workload_produces_paper_shaped_step_times() {
        let w = DockingWorkload::standard();
        let serial = w.per_rotation_modeled_ms(DockingEngineKind::FftSerial);
        let gpu = w.per_rotation_modeled_ms(DockingEngineKind::Gpu { batch: 8 });
        // Correlation is the dominant serial step and speeds up the most (Table 1).
        assert!(serial[1] > serial[0] && serial[1] > serial[2] && serial[1] > serial[3]);
        assert!(gpu[1] < serial[1]);
        // Rotation + grid assignment stays on the host: speedup ≈ 1.
        let rot_speedup = serial[0] / gpu[0];
        assert!(rot_speedup > 0.3 && rot_speedup < 3.0, "rotation speedup {rot_speedup}");
    }

    #[test]
    fn minimization_workload_matches_paper_scale() {
        let w = MinimizationWorkload::paper_scale();
        assert!(w.complex.n_atoms() > 1500, "complex has {} atoms", w.complex.n_atoms());
        assert!(w.neighbors.n_pairs() > 5_000, "{} pairs", w.neighbors.n_pairs());
    }

    #[test]
    fn table2_ordering_holds() {
        let w = MinimizationWorkload::medium();
        let device = Device::tesla_c1060();
        let (self_ms, pair_ms, force_ms) = w.gpu_iteration_ms(&device);
        assert!(self_ms > force_ms);
        assert!(pair_ms > force_ms);
        let (elec_ms, vdw_ms, _) = w.serial_iteration_ms();
        assert!(elec_ms > vdw_ms);
    }

    #[test]
    fn crossover_sweep_has_both_winners() {
        let sweep = crossover_sweep();
        assert!(sweep.len() >= 4);
        // The smallest footprint must favour direct correlation; the cost must grow
        // monotonically with footprint occupancy.
        let (_, _, direct_small, fft_small) = sweep[0];
        assert!(direct_small < fft_small);
        let occupancies: Vec<usize> = sweep.iter().map(|(_, occ, _, _)| *occ).collect();
        assert!(occupancies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn format_table_alignment() {
        let rows = vec![ComparisonRow::new("Correlations", 267.0, 150.0)];
        let text = format_table("Table 1", "x", &rows);
        assert!(text.contains("Correlations"));
        assert!(text.contains("267.00"));
        assert!(text.contains("150.00"));
    }
}
