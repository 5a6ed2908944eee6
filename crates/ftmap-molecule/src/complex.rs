//! Protein–probe complexes.
//!
//! The unit of work for the energy-minimization phase is one *conformation*: the rigid
//! protein plus one docked probe pose. [`Complex`] concatenates the two atom sets,
//! merges their topologies, and knows which atoms are allowed to move during
//! minimization (the probe atoms — rigid docking already fixed the protein, and FTMap
//! minimizes the probe/side-chain degrees of freedom).

use crate::atom::Atom;
use crate::probe::Probe;
use crate::protein::SyntheticProtein;
use crate::topology::Topology;
use ftmap_math::Vec3;

/// A protein–probe complex ready for energy minimization.
#[derive(Debug, Clone)]
pub struct Complex {
    /// All atoms: protein atoms first, then probe atoms.
    pub atoms: Vec<Atom>,
    /// Merged bonded topology.
    pub topology: Topology,
    /// Index of the first probe atom in `atoms`.
    pub probe_offset: usize,
}

impl Complex {
    /// Builds a complex from a protein and a (posed) probe.
    pub fn new(protein: &SyntheticProtein, probe: &Probe) -> Self {
        let probe_offset = protein.atoms.len();
        let mut atoms = Vec::with_capacity(probe_offset + probe.atoms.len());
        atoms.extend_from_slice(&protein.atoms);
        for (k, atom) in probe.atoms.iter().enumerate() {
            let mut a = *atom;
            a.id = probe_offset + k;
            atoms.push(a);
        }

        let mut topology = Topology::new(atoms.len());
        topology.merge_offset(&protein.topology, 0);
        topology.merge_offset(&probe.topology, probe_offset);

        Complex { atoms, topology, probe_offset }
    }

    /// Total number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of probe atoms.
    pub fn n_probe_atoms(&self) -> usize {
        self.atoms.len() - self.probe_offset
    }

    /// The protein atoms.
    pub fn protein_atoms(&self) -> &[Atom] {
        &self.atoms[..self.probe_offset]
    }

    /// The probe atoms.
    pub fn probe_atoms(&self) -> &[Atom] {
        &self.atoms[self.probe_offset..]
    }

    /// True when atom `i` is free to move during minimization (probe atoms only).
    pub fn is_mobile(&self, i: usize) -> bool {
        i >= self.probe_offset
    }

    /// Positions of all atoms (Å), in order.
    pub fn positions(&self) -> Vec<Vec3> {
        self.atoms.iter().map(|a| a.position).collect()
    }

    /// Overwrites atom positions from a flat slice (used by the minimizer when it
    /// accepts a step).
    ///
    /// # Panics
    /// Panics if the slice length differs from the atom count.
    pub fn set_positions(&mut self, positions: &[Vec3]) {
        assert_eq!(positions.len(), self.atoms.len(), "position count mismatch");
        for (a, &p) in self.atoms.iter_mut().zip(positions) {
            a.position = p;
        }
    }

    /// Centroid of the probe atoms (Å) — the "pose location" used by consensus clustering.
    pub fn probe_centroid(&self) -> Vec3 {
        let pos: Vec<Vec3> = self.probe_atoms().iter().map(|a| a.position).collect();
        Vec3::centroid(&pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use crate::probe::ProbeType;
    use crate::protein::ProteinSpec;

    fn small_complex() -> Complex {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let probe = Probe::new(ProbeType::Ethanol, &ff);
        Complex::new(&protein, &probe)
    }

    #[test]
    fn atom_counts_add_up() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let probe = Probe::new(ProbeType::Acetone, &ff);
        let complex = Complex::new(&protein, &probe);
        assert_eq!(complex.n_atoms(), protein.n_atoms() + probe.n_atoms());
        assert_eq!(complex.n_probe_atoms(), probe.n_atoms());
        assert_eq!(complex.probe_atoms().len(), probe.n_atoms());
        assert_eq!(complex.protein_atoms().len(), protein.n_atoms());
    }

    #[test]
    fn atom_ids_are_global_and_sequential() {
        let complex = small_complex();
        for (i, atom) in complex.atoms.iter().enumerate() {
            assert_eq!(atom.id, i);
        }
    }

    #[test]
    fn mobility_flags() {
        let complex = small_complex();
        assert!(!complex.is_mobile(0));
        assert!(complex.is_mobile(complex.probe_offset));
        assert!(complex.is_mobile(complex.n_atoms() - 1));
        // Mobility agrees with the is_probe flag.
        for (i, atom) in complex.atoms.iter().enumerate() {
            assert_eq!(complex.is_mobile(i), atom.is_probe);
        }
    }

    #[test]
    fn topology_merged_with_offsets() {
        let complex = small_complex();
        // Probe bonds must reference only probe atoms.
        let probe_bond_count =
            complex.topology.bonds().iter().filter(|b| b.i >= complex.probe_offset).count();
        assert!(probe_bond_count > 0);
        for b in complex.topology.bonds() {
            // No bond may cross the protein/probe boundary.
            assert_eq!(b.i >= complex.probe_offset, b.j >= complex.probe_offset);
        }
    }

    #[test]
    fn set_positions_round_trip() {
        let mut complex = small_complex();
        let mut positions = complex.positions();
        positions[0] = Vec3::new(100.0, 0.0, 0.0);
        complex.set_positions(&positions);
        assert_eq!(complex.atoms[0].position, Vec3::new(100.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "position count mismatch")]
    fn set_positions_wrong_length_panics() {
        let mut complex = small_complex();
        complex.set_positions(&[Vec3::ZERO]);
    }
}
