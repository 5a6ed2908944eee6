//! The iterative energy minimizer (paper §II.B).
//!
//! Minimization moves the probe atoms (the mobile part of the complex) down the energy
//! gradient until the energy change per iteration falls below a threshold or the
//! iteration budget is exhausted. The optimization move and the coordinate update stay
//! on the host in the paper ("two computations … are left on the host"); the expensive
//! part — the non-bonded energy and force evaluation — runs either on the host
//! ([`EvaluationPath::Host`]) or through the three GPU kernels
//! ([`EvaluationPath::Gpu`]). Each iteration evaluates forces once, on the chosen
//! path, and judges its trial step by a host energy evaluation, which computes no
//! forces.
//!
//! The protein is rigid; only the probe moves. So the half of the set-up that
//! depends on the protein alone is a [`ReceptorHalf`], built once per receptor
//! and shared by every pose minimized against it: the protein's own neighbor
//! list, and its rigid terms (`RigidTerms`), recorded by the first GPU-path
//! evaluation. Each pose (and each neighbor-list refresh) splices the probe into
//! the protein's list ([`NeighborList::splice`]), which is bit for bit the list
//! [`NeighborList::build`] makes for the whole complex, on both evaluation
//! paths. [`Minimizer::minimize`] is the cold case: it builds a half for its one
//! complex, then runs the same path as [`Minimizer::minimize_against`].
//!
//! On the GPU path the host does work only for the probe. It reads forces only
//! for the probe (`GpuMinimizationEngine::evaluate_mobile`), and it evaluates
//! the starting and trial energies with `Evaluator::energy_cached`: the half's
//! recorded protein terms are re-added and only the probe's terms are computed
//! — bit for bit [`Evaluator::energy`]. The host path keeps calling
//! [`Evaluator::energy`], because its measured wall time is the serial
//! pipeline's modeled minimization time.

use crate::evaluator::{EnergyBreakdown, Evaluator, RigidTerms};
use crate::gpu::GpuMinimizationEngine;
use ftmap_math::{Real, Vec3};
use ftmap_molecule::{Complex, ForceField, NeighborList};
use gpu_sim::{wall_timed, Device};
use std::sync::OnceLock;

/// Which engine evaluates energies and forces each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationPath {
    /// Serial host evaluation over the neighbor list (the original FTMap structure).
    Host,
    /// The three GPU kernels over the split pairs-lists (the paper's contribution).
    Gpu,
}

/// Minimization parameters.
#[derive(Debug, Clone, Copy)]
pub struct MinimizationConfig {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the energy change between iterations (kcal/mol).
    pub energy_tolerance: Real,
    /// Initial steepest-descent step size (Å per unit force).
    pub initial_step: Real,
    /// Rebuild the neighbor list every this many iterations (the paper notes this
    /// happens "only a few times per 1000 minimization iterations").
    pub neighbor_refresh_interval: usize,
    /// Which engine evaluates energies and forces.
    pub path: EvaluationPath,
}

impl Default for MinimizationConfig {
    fn default() -> Self {
        MinimizationConfig {
            max_iterations: 200,
            energy_tolerance: 1e-4,
            initial_step: 1e-3,
            neighbor_refresh_interval: 250,
            path: EvaluationPath::Host,
        }
    }
}

impl MinimizationConfig {
    /// A short configuration for unit tests.
    pub fn small_test(path: EvaluationPath) -> Self {
        MinimizationConfig {
            max_iterations: 25,
            energy_tolerance: 1e-6,
            initial_step: 5e-4,
            neighbor_refresh_interval: 10,
            path,
        }
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct MinimizationResult {
    /// Energy before the first step.
    pub initial_energy: Real,
    /// Energy after the last accepted step.
    pub final_energy: Real,
    /// Number of iterations executed.
    pub iterations: usize,
    /// True when the run stopped because the energy change dropped below tolerance.
    pub converged: bool,
    /// Final per-term breakdown (from the host evaluator, for reporting): the
    /// last accepted evaluation's, re-evaluated only if the neighbor list was
    /// refreshed after it.
    pub breakdown: EnergyBreakdown,
    /// Wall-clock seconds spent in energy/force evaluation.
    pub evaluation_time_s: f64,
    /// Wall-clock seconds spent in the optimization move + coordinate updates (host).
    pub update_time_s: f64,
    /// Modeled device seconds per iteration, split by kernel
    /// `(self-energy, pairwise+vdW, force update)`; zeros for the host path.
    pub modeled_kernel_times_s: (f64, f64, f64),
    /// The minimized probe-atom positions.
    pub final_positions: Vec<Vec3>,
}

impl MinimizationResult {
    /// Total modeled device seconds over the three kernels — pure kernel time,
    /// with host↔device transfers excluded (those are charged to the device's
    /// transfer accounting and picked up by the scheduler's stream model).
    pub fn modeled_kernel_total_s(&self) -> f64 {
        let (a, b, c) = self.modeled_kernel_times_s;
        a + b + c
    }

    /// Fraction of wall time spent in energy evaluation — the Fig. 3(a) quantity
    /// (≈99 % in the paper).
    pub fn evaluation_fraction(&self) -> f64 {
        let total = self.evaluation_time_s + self.update_time_s;
        if total <= 0.0 {
            0.0
        } else {
            self.evaluation_time_s / total
        }
    }
}

/// The receptor's half of minimization set-up: what depends on the rigid
/// protein alone, built once per receptor and shared (`&ReceptorHalf`) by
/// every pose minimized against it.
///
/// It is valid for the complexes whose protein atoms and bonded terms are
/// those it was built from, under the force field it was built with, and in
/// which no bond joins the protein to the probe ([`Complex::new`] makes them
/// so). The probe may be of any type and anywhere.
#[derive(Debug)]
pub struct ReceptorHalf {
    /// The force field it was built with; [`Minimizer::minimize_against`]
    /// checks it against the minimizer's.
    ff: ForceField,
    /// The protein's own neighbor list, built with the protein's exclusions.
    neighbors: NeighborList,
    /// The protein's terms, recorded by the first GPU-path energy evaluation
    /// against this half, whatever its probe (the host path never reads them).
    rigid: OnceLock<RigidTerms>,
}

impl ReceptorHalf {
    /// Builds the half for the protein part of `complex` (atoms before
    /// `complex.probe_offset`) under `ff`.
    pub fn new(complex: &Complex, ff: &ForceField) -> Self {
        let excluded = complex.topology.excluded_pairs_within(0..complex.probe_offset);
        let neighbors = NeighborList::build(complex.protein_atoms(), ff.cutoff, &excluded);
        ReceptorHalf { ff: ff.clone(), neighbors, rigid: OnceLock::new() }
    }

    /// `complex`'s neighbor list: the protein's runs, with the probe spliced
    /// in. Bit for bit [`NeighborList::build`] over the whole complex.
    ///
    /// # Panics
    /// Panics if `complex`'s protein is not this half's size, or a bond joins
    /// its protein to its probe.
    fn neighbors(&self, complex: &Complex) -> NeighborList {
        let first = complex.probe_offset;
        assert_eq!(first, self.neighbors.n_atoms(), "the complex's protein is not this half's");
        assert!(
            complex.topology.bonds().iter().all(|b| (b.i < first) == (b.j < first)),
            "a bond joins the protein to the probe"
        );
        let probe_excluded = complex.topology.excluded_pairs_within(first..complex.n_atoms());
        self.neighbors.splice(&complex.atoms, &probe_excluded)
    }

    /// [`Evaluator::energy`] of `complex` against a list spliced from this
    /// half: the first call records the protein's terms, every later one (any
    /// pose, any probe, any thread) replays them.
    fn energy(
        &self,
        evaluator: &Evaluator,
        complex: &Complex,
        neighbors: &NeighborList,
    ) -> EnergyBreakdown {
        let mut recorded = None;
        let rigid = self.rigid.get_or_init(|| {
            let (breakdown, rigid) = evaluator.energy_recording(complex, neighbors);
            recorded = Some(breakdown);
            rigid
        });
        recorded.unwrap_or_else(|| evaluator.energy_cached(complex, neighbors, rigid))
    }
}

/// The minimizer.
pub struct Minimizer {
    ff: ForceField,
    config: MinimizationConfig,
}

impl Minimizer {
    /// Creates a minimizer.
    pub fn new(ff: ForceField, config: MinimizationConfig) -> Self {
        Minimizer { ff, config }
    }

    /// The configuration.
    pub fn config(&self) -> &MinimizationConfig {
        &self.config
    }

    /// Minimizes the probe atoms of `complex` in place and returns the run summary.
    /// `device` is only used when the configuration selects the GPU path.
    ///
    /// This is the cold case of [`Minimizer::minimize_against`]: it builds the
    /// protein's [`ReceptorHalf`] for this one complex first. A caller that
    /// minimizes many poses against one receptor builds the half once and
    /// calls `minimize_against`; the results are bit for bit the same.
    ///
    /// The minimizer never constructs a device of its own: callers hand it a
    /// handle — the pipeline passes a member of its
    /// [`gpu_sim::sched::DevicePool`], so a sharded run's per-iteration
    /// transfers are charged to the device that actually serviced the shard.
    pub fn minimize(&self, complex: &mut Complex, device: &Device) -> MinimizationResult {
        self.minimize_against(&ReceptorHalf::new(complex, &self.ff), complex, device)
    }

    /// [`Minimizer::minimize`] against a prebuilt [`ReceptorHalf`], which must
    /// be valid for `complex` and this minimizer's force field. Only the probe's
    /// half of the set-up is done here: its pairs, spliced into the protein's
    /// neighbor list (again at each refresh).
    ///
    /// # Panics
    /// Panics if the half was built with another force field, if `complex`'s
    /// protein is not the half's size, or if a bond joins its protein to its
    /// probe.
    pub fn minimize_against(
        &self,
        receptor: &ReceptorHalf,
        complex: &mut Complex,
        device: &Device,
    ) -> MinimizationResult {
        assert_eq!(receptor.ff, self.ff, "the receptor half was built with another force field");
        let evaluator = Evaluator::new(self.ff.clone());
        let mut neighbors = receptor.neighbors(complex);
        let mut gpu_engine = match self.config.path {
            EvaluationPath::Gpu => {
                Some(GpuMinimizationEngine::new(device, self.ff.clone(), &neighbors))
            }
            EvaluationPath::Host => None,
        };

        let path = self.config.path;
        let energy = |complex: &Complex, neighbors: &NeighborList| match path {
            EvaluationPath::Gpu => receptor.energy(&evaluator, complex, neighbors),
            EvaluationPath::Host => evaluator.energy(complex, neighbors),
        };

        let mut eval_time = 0.0;
        let mut update_time = 0.0;
        let mut kernel_times = (0.0, 0.0, 0.0);

        // Evaluate the starting energy (bonded terms always from the host evaluator).
        // Only the energy is read, so no forces are computed for it.
        let (initial, initial_wall_s) = wall_timed(|| energy(complex, &neighbors));
        eval_time += initial_wall_s;
        let initial_energy = initial.total();
        let mut current_energy = initial_energy;
        // The host breakdown of the current positions against the current
        // neighbor list: the initial evaluation, then each accepted trial's.
        // A refresh makes it stale (`None`); otherwise it is the final breakdown.
        let mut accepted = Some(initial);
        let mut step = self.config.initial_step;
        let mut converged = false;
        let mut iterations = 0;

        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;

            // Periodic neighbor-list refresh: the probe is spliced in where it
            // now is. The protein has not moved, so its recorded terms stay valid.
            if iter > 0 && iter % self.config.neighbor_refresh_interval == 0 {
                neighbors = receptor.neighbors(complex);
                accepted = None;
                if let Some(engine) = gpu_engine.as_mut() {
                    engine.refresh_neighbor_list(&neighbors);
                }
            }

            // Energy + force evaluation.
            let (forces, forces_wall_s) = wall_timed(|| -> Vec<Vec3> {
                match (&self.config.path, gpu_engine.as_mut()) {
                    (EvaluationPath::Gpu, Some(engine)) => {
                        // The descent moves only the probe: read only its forces.
                        let result = engine.evaluate_mobile(complex);
                        kernel_times.0 += result.self_energy_stats().modeled_time_s;
                        kernel_times.1 += result.pairwise_vdw_stats().modeled_time_s;
                        kernel_times.2 += result.force_update_stats().modeled_time_s;
                        result.forces
                    }
                    _ => evaluator.evaluate(complex, &neighbors).forces,
                }
            });
            eval_time += forces_wall_s;

            // Optimization move (host): steepest descent on the mobile atoms (the
            // probe, `probe_offset..`) with a backtracking step-size control.
            let offset = complex.probe_offset;
            let (saved_positions, move_wall_s) = wall_timed(|| {
                let saved: Vec<Vec3> = complex.probe_atoms().iter().map(|a| a.position).collect();
                for (atom, force) in complex.atoms[offset..].iter_mut().zip(&forces[offset..]) {
                    atom.position += *force * step;
                }
                saved
            });
            update_time += move_wall_s;

            // The trial step is judged by its energy alone.
            let (trial, trial_wall_s) = wall_timed(|| energy(complex, &neighbors));
            eval_time += trial_wall_s;
            let trial_energy = trial.total();

            let ((), accept_wall_s) = wall_timed(|| {
                if trial_energy <= current_energy {
                    let delta = current_energy - trial_energy;
                    current_energy = trial_energy;
                    accepted = Some(trial);
                    step = (step * 1.2).min(0.05);
                    if delta < self.config.energy_tolerance {
                        converged = true;
                    }
                } else {
                    // Reject the step, shrink and retry next iteration.
                    for (atom, &saved) in complex.atoms[offset..].iter_mut().zip(&saved_positions) {
                        atom.position = saved;
                    }
                    step *= 0.5;
                    if step < 1e-9 {
                        converged = true;
                    }
                }
            });
            update_time += accept_wall_s;

            if converged {
                break;
            }
        }

        let breakdown = accepted.unwrap_or_else(|| energy(complex, &neighbors));
        MinimizationResult {
            initial_energy,
            final_energy: current_energy,
            iterations,
            converged,
            breakdown,
            evaluation_time_s: eval_time,
            update_time_s: update_time,
            modeled_kernel_times_s: kernel_times,
            final_positions: complex.probe_atoms().iter().map(|a| a.position).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn posed_complex() -> Complex {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let probe = Probe::new(ProbeType::Ethanol, &ff);
        let mut posed = probe.clone();
        let target = protein.pocket_centers[0];
        for a in &mut posed.atoms {
            a.position += target;
        }
        Complex::new(&protein, &posed)
    }

    #[test]
    fn host_minimization_does_not_increase_energy() {
        let ff = ForceField::charmm_like();
        let mut complex = posed_complex();
        let minimizer = Minimizer::new(ff, MinimizationConfig::small_test(EvaluationPath::Host));
        let device = Device::tesla_c1060();
        let result = minimizer.minimize(&mut complex, &device);
        assert!(result.final_energy <= result.initial_energy + 1e-9);
        assert!(result.iterations >= 1);
        assert!(result.evaluation_time_s > 0.0);
        assert_eq!(result.modeled_kernel_times_s, (0.0, 0.0, 0.0));
        assert_eq!(result.final_positions.len(), complex.n_probe_atoms());
    }

    #[test]
    fn gpu_minimization_does_not_increase_energy_and_records_kernel_times() {
        let ff = ForceField::charmm_like();
        let mut complex = posed_complex();
        let minimizer = Minimizer::new(ff, MinimizationConfig::small_test(EvaluationPath::Gpu));
        let device = Device::tesla_c1060();
        let result = minimizer.minimize(&mut complex, &device);
        assert!(result.final_energy <= result.initial_energy + 1e-9);
        let (self_t, pair_t, force_t) = result.modeled_kernel_times_s;
        assert!(self_t > 0.0 && pair_t > 0.0 && force_t > 0.0);
        // Table 2 ordering: self-energy kernel dominates, force update is cheapest.
        assert!(self_t > force_t);
        assert!(pair_t > force_t);
    }

    #[test]
    fn evaluation_dominates_iteration_time() {
        // Fig. 3(a): energy evaluation is ~99 % of the minimization time.
        let ff = ForceField::charmm_like();
        let mut complex = posed_complex();
        let minimizer = Minimizer::new(ff, MinimizationConfig::small_test(EvaluationPath::Host));
        let device = Device::tesla_c1060();
        let result = minimizer.minimize(&mut complex, &device);
        assert!(
            result.evaluation_fraction() > 0.8,
            "evaluation fraction {}",
            result.evaluation_fraction()
        );
    }

    #[test]
    fn host_and_gpu_paths_reach_similar_energies() {
        let ff = ForceField::charmm_like();
        let device = Device::tesla_c1060();

        let mut host_complex = posed_complex();
        let host = Minimizer::new(ff.clone(), MinimizationConfig::small_test(EvaluationPath::Host))
            .minimize(&mut host_complex, &device);

        let mut gpu_complex = posed_complex();
        let gpu = Minimizer::new(ff, MinimizationConfig::small_test(EvaluationPath::Gpu))
            .minimize(&mut gpu_complex, &device);

        // Both paths use the same mathematics for the pair terms; the trajectories can
        // differ slightly (the GPU path omits bonded forces in its descent direction),
        // but both must descend and land in the same energy regime.
        let host_drop = host.initial_energy - host.final_energy;
        let gpu_drop = gpu.initial_energy - gpu.final_energy;
        assert!(host_drop >= 0.0);
        assert!(gpu_drop >= 0.0);
        let scale = host.initial_energy.abs().max(1.0);
        assert!(
            (host.final_energy - gpu.final_energy).abs() / scale < 0.2,
            "host {} vs gpu {}",
            host.final_energy,
            gpu.final_energy
        );
    }

    #[test]
    fn a_shared_receptor_half_minimizes_bit_for_bit_like_a_cold_one() {
        // One half, built and recorded against an ethanol pose, then shared
        // by other probes' poses on both paths, across neighbor-list refreshes
        // (every 4 iterations): each run equals the cold `minimize`.
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let device = Device::tesla_c1060();
        let posed = |probe_type, shift: Vec3| {
            let mut probe = Probe::new(probe_type, &ff);
            for a in &mut probe.atoms {
                a.position += protein.pocket_centers[0] + shift;
            }
            Complex::new(&protein, &probe)
        };
        let half = ReceptorHalf::new(&posed(ProbeType::Ethanol, Vec3::ZERO), &ff);
        let bits = |r: &MinimizationResult| {
            let (a, b, c) = r.modeled_kernel_times_s;
            let mut bits = vec![r.final_energy, r.breakdown.total(), a, b, c];
            bits.extend(r.final_positions.iter().flat_map(|p| p.to_array()));
            (r.iterations, bits.into_iter().map(f64::to_bits).collect::<Vec<_>>())
        };
        for path in [EvaluationPath::Gpu, EvaluationPath::Host] {
            let config = MinimizationConfig {
                neighbor_refresh_interval: 4,
                ..MinimizationConfig::small_test(path)
            };
            let minimizer = Minimizer::new(ff.clone(), config);
            for (probe_type, shift) in [
                (ProbeType::Ethanol, Vec3::ZERO),
                (ProbeType::Benzene, Vec3::new(1.0, -0.5, 0.5)),
                (ProbeType::Urea, Vec3::new(-1.5, 0.0, 1.0)),
            ] {
                let cold = minimizer.minimize(&mut posed(probe_type, shift), &device);
                let warm =
                    minimizer.minimize_against(&half, &mut posed(probe_type, shift), &device);
                assert!(cold.iterations > 4, "{path:?}: no refresh");
                assert_eq!(bits(&warm), bits(&cold), "{path:?} {probe_type:?}");
            }
        }
        assert!(half.rigid.get().is_some(), "the GPU path recorded the protein once");
    }

    #[test]
    #[should_panic(expected = "built with another force field")]
    fn a_receptor_half_of_another_force_field_is_refused() {
        // Same protein, same size, other cutoff: splicing against it would
        // silently give the wrong list, so the minimizer refuses it.
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let mut complex = Complex::new(&protein, &Probe::new(ProbeType::Ethanol, &ff));
        let half = ReceptorHalf::new(&complex, &ForceField { cutoff: 7.0, ..ff.clone() });
        let minimizer = Minimizer::new(ff, MinimizationConfig::small_test(EvaluationPath::Gpu));
        minimizer.minimize_against(&half, &mut complex, &Device::tesla_c1060());
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = MinimizationConfig::default();
        assert!(cfg.max_iterations >= 100);
        assert!(cfg.energy_tolerance > 0.0);
        assert!(cfg.neighbor_refresh_interval > 1);
        assert_eq!(cfg.path, EvaluationPath::Host);
    }
}
