//! Whole-evaluator gradient check: on both evaluation paths, every
//! non-bonded force is minus the gradient of the non-bonded energy.
//!
//! The per-term checks in `terms.rs` test each `dE/dr` on its own; this one
//! tests what the minimizer actually consumes — the accumulated per-atom
//! forces of the serial evaluator and of the GPU kernels — against central
//! finite differences of the energy-only evaluation, with the neighbor list
//! held fixed (the minimizer holds it fixed between refreshes too). Angular
//! bonded terms carry no forces by design, so the check is on the
//! non-bonded part.

use ftmap_energy::gpu::GpuMinimizationEngine;
use ftmap_energy::Evaluator;
use ftmap_math::{Real, Vec3};
use ftmap_molecule::{
    Complex, ForceField, NeighborList, Probe, ProbeType, ProteinSpec, SyntheticProtein,
};
use gpu_sim::Device;

/// The `small_test` protein with an acetone probe 1.5 Å off its first
/// pocket centre, and the neighbor list there.
fn system() -> (Complex, NeighborList, ForceField) {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut posed = Probe::new(ProbeType::Acetone, &ff);
    let target = protein.pocket_centers[0] + Vec3::new(1.5, -1.0, 0.5);
    for a in &mut posed.atoms {
        a.position += target;
    }
    let complex = Complex::new(&protein, &posed);
    let excluded = complex.topology.excluded_pairs();
    let neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
    (complex, neighbors, ff)
}

/// The atoms to check: every probe atom, the eight protein atoms nearest the
/// probe (their forces mix many pair terms with the probe's) and four
/// protein atoms spread through the structure.
fn checked_atoms(complex: &Complex) -> Vec<usize> {
    let centroid = complex.probe_centroid();
    let mut protein: Vec<usize> = (0..complex.probe_offset).collect();
    protein.sort_by(|&a, &b| {
        let da = complex.atoms[a].position.distance_sq(centroid);
        let db = complex.atoms[b].position.distance_sq(centroid);
        da.total_cmp(&db)
    });
    let mut atoms: Vec<usize> = (complex.probe_offset..complex.n_atoms()).collect();
    atoms.extend(&protein[..8]);
    atoms.extend((0..4).map(|k| k * complex.probe_offset / 4));
    atoms
}

/// `−∂E_nb/∂x` for every checked atom and axis, by central differences of
/// the energy-only evaluation.
fn numeric_forces(
    evaluator: &Evaluator,
    complex: &Complex,
    neighbors: &NeighborList,
    atoms: &[usize],
) -> Vec<Vec3> {
    const H: Real = 1e-5;
    let nonbonded = |c: &Complex| {
        let b = evaluator.energy(c, neighbors);
        b.electrostatics + b.vdw
    };
    let mut moved = complex.clone();
    atoms
        .iter()
        .map(|&atom| {
            let mut force = Vec3::ZERO;
            for axis in 0..3 {
                let at = complex.atoms[atom].position;
                moved.atoms[atom].position[axis] = at[axis] + H;
                let plus = nonbonded(&moved);
                moved.atoms[atom].position[axis] = at[axis] - H;
                let minus = nonbonded(&moved);
                moved.atoms[atom].position = at;
                force[axis] = -(plus - minus) / (2.0 * H);
            }
            force
        })
        .collect()
}

fn assert_forces_match(what: &str, analytic: &[Vec3], atoms: &[usize], numeric: &[Vec3]) {
    for (&atom, &want) in atoms.iter().zip(numeric) {
        let got = analytic[atom];
        assert!(
            (got - want).norm() <= 1e-4 * (1.0 + want.norm()),
            "{what}: atom {atom} force {got:?}, finite difference {want:?}"
        );
    }
}

#[test]
fn host_and_gpu_forces_are_minus_the_energy_gradient() {
    let (complex, neighbors, ff) = system();
    let evaluator = Evaluator::new(ff.clone());
    let atoms = checked_atoms(&complex);
    let numeric = numeric_forces(&evaluator, &complex, &neighbors, &atoms);
    // The probe sits in contact: the check is not vacuous.
    assert!(numeric.iter().any(|f| f.norm() > 1.0), "{numeric:?}");

    let host = evaluator.evaluate_nonbonded(&complex, &neighbors);
    assert_forces_match("host", &host.forces, &atoms, &numeric);

    let device = Device::tesla_c1060();
    let gpu = GpuMinimizationEngine::new(&device, ff, &neighbors).evaluate(&complex);
    assert_forces_match("gpu", &gpu.forces, &atoms, &numeric);
}
