//! The FTMap probe library.
//!
//! FTMap docks a panel of 16 small organic probe molecules and looks for the surface
//! region that binds most of them ("consensus site"). The probes are tiny — the paper
//! relies on this: probe grids are never larger than 4³ voxels, which is what makes
//! direct correlation and constant-memory rotation batching win on the GPU.
//!
//! This module provides idealized geometries (correct heavy-atom counts and roughly
//! correct bond lengths) for the standard FTMap probe set.

use crate::atom::{Atom, AtomKind};
use crate::forcefield::ForceField;
use crate::topology::Topology;
use ftmap_math::{Real, Vec3};

/// The 16 probe types used by FTMap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeType {
    /// Ethanol.
    Ethanol,
    /// Isopropanol.
    Isopropanol,
    /// Isobutanol.
    Isobutanol,
    /// Acetone.
    Acetone,
    /// Acetaldehyde.
    Acetaldehyde,
    /// Dimethyl ether.
    DimethylEther,
    /// Cyclohexane.
    Cyclohexane,
    /// Ethane.
    Ethane,
    /// Acetonitrile.
    Acetonitrile,
    /// Urea.
    Urea,
    /// Methylamine.
    Methylamine,
    /// Phenol.
    Phenol,
    /// Benzaldehyde.
    Benzaldehyde,
    /// Benzene.
    Benzene,
    /// Acetamide.
    Acetamide,
    /// N,N-dimethylformamide.
    Dimethylformamide,
}

impl ProbeType {
    /// All 16 probe types, in the order FTMap lists them.
    pub const ALL: [ProbeType; 16] = [
        ProbeType::Ethanol,
        ProbeType::Isopropanol,
        ProbeType::Isobutanol,
        ProbeType::Acetone,
        ProbeType::Acetaldehyde,
        ProbeType::DimethylEther,
        ProbeType::Cyclohexane,
        ProbeType::Ethane,
        ProbeType::Acetonitrile,
        ProbeType::Urea,
        ProbeType::Methylamine,
        ProbeType::Phenol,
        ProbeType::Benzaldehyde,
        ProbeType::Benzene,
        ProbeType::Acetamide,
        ProbeType::Dimethylformamide,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProbeType::Ethanol => "ethanol",
            ProbeType::Isopropanol => "isopropanol",
            ProbeType::Isobutanol => "isobutanol",
            ProbeType::Acetone => "acetone",
            ProbeType::Acetaldehyde => "acetaldehyde",
            ProbeType::DimethylEther => "dimethyl ether",
            ProbeType::Cyclohexane => "cyclohexane",
            ProbeType::Ethane => "ethane",
            ProbeType::Acetonitrile => "acetonitrile",
            ProbeType::Urea => "urea",
            ProbeType::Methylamine => "methylamine",
            ProbeType::Phenol => "phenol",
            ProbeType::Benzaldehyde => "benzaldehyde",
            ProbeType::Benzene => "benzene",
            ProbeType::Acetamide => "acetamide",
            ProbeType::Dimethylformamide => "dimethylformamide",
        }
    }

    /// Heavy-atom skeleton of the probe as `(kind, position)` pairs (Å).
    ///
    /// Geometries are idealized: ~1.5 Å C–C bonds, ~1.4 Å C–O/C–N bonds, planar rings.
    /// Hydrogens are omitted (united-atom style), which keeps every probe within the
    /// ≤4³-voxel footprint the paper's constant-memory optimization depends on.
    fn heavy_atoms(self) -> Vec<(AtomKind, Vec3)> {
        use AtomKind::*;
        let v = Vec3::new;
        match self {
            ProbeType::Ethanol => vec![
                (ProbeMethylC, v(0.0, 0.0, 0.0)),
                (ProbeMethylC, v(1.5, 0.0, 0.0)),
                (ProbeHydroxylO, v(2.2, 1.2, 0.0)),
            ],
            ProbeType::Isopropanol => vec![
                (ProbeMethylC, v(-1.5, 0.0, 0.0)),
                (ProbeMethylC, v(0.0, 0.0, 0.0)),
                (ProbeMethylC, v(0.7, 1.3, 0.0)),
                (ProbeHydroxylO, v(0.7, -1.2, 0.0)),
            ],
            ProbeType::Isobutanol => vec![
                (ProbeMethylC, v(-1.5, 0.0, 0.0)),
                (ProbeMethylC, v(0.0, 0.0, 0.0)),
                (ProbeMethylC, v(0.7, 1.3, 0.0)),
                (ProbeMethylC, v(0.7, -1.3, 0.0)),
                (ProbeHydroxylO, v(2.1, 1.3, 0.0)),
            ],
            ProbeType::Acetone => vec![
                (ProbeMethylC, v(-1.5, 0.0, 0.0)),
                (ProbeCarbonyl, v(0.0, 0.0, 0.0)),
                (ProbeMethylC, v(1.5, 0.0, 0.0)),
                (ProbeHydroxylO, v(0.0, 1.25, 0.0)),
            ],
            ProbeType::Acetaldehyde => vec![
                (ProbeMethylC, v(-1.5, 0.0, 0.0)),
                (ProbeCarbonyl, v(0.0, 0.0, 0.0)),
                (ProbeHydroxylO, v(0.6, 1.1, 0.0)),
            ],
            ProbeType::DimethylEther => vec![
                (ProbeMethylC, v(-1.4, 0.0, 0.0)),
                (ProbeHydroxylO, v(0.0, 0.4, 0.0)),
                (ProbeMethylC, v(1.4, 0.0, 0.0)),
            ],
            ProbeType::Cyclohexane => hexagon(AliphaticC, 1.53),
            ProbeType::Ethane => {
                vec![(ProbeMethylC, v(0.0, 0.0, 0.0)), (ProbeMethylC, v(1.53, 0.0, 0.0))]
            }
            ProbeType::Acetonitrile => vec![
                (ProbeMethylC, v(-1.46, 0.0, 0.0)),
                (ProbeCarbonyl, v(0.0, 0.0, 0.0)),
                (ProbeN, v(1.16, 0.0, 0.0)),
            ],
            ProbeType::Urea => vec![
                (ProbeN, v(-1.2, 0.7, 0.0)),
                (ProbeCarbonyl, v(0.0, 0.0, 0.0)),
                (ProbeN, v(1.2, 0.7, 0.0)),
                (ProbeHydroxylO, v(0.0, -1.25, 0.0)),
            ],
            ProbeType::Methylamine => {
                vec![(ProbeMethylC, v(0.0, 0.0, 0.0)), (ProbeN, v(1.47, 0.0, 0.0))]
            }
            ProbeType::Phenol => {
                let mut atoms = hexagon(AromaticC, 1.39);
                atoms.push((ProbeHydroxylO, Vec3::new(2.75, 0.0, 0.0)));
                atoms
            }
            ProbeType::Benzaldehyde => {
                let mut atoms = hexagon(AromaticC, 1.39);
                atoms.push((ProbeCarbonyl, Vec3::new(2.85, 0.0, 0.0)));
                atoms.push((ProbeHydroxylO, Vec3::new(3.5, 1.1, 0.0)));
                atoms
            }
            ProbeType::Benzene => hexagon(AromaticC, 1.39),
            ProbeType::Acetamide => vec![
                (ProbeMethylC, v(-1.5, 0.0, 0.0)),
                (ProbeCarbonyl, v(0.0, 0.0, 0.0)),
                (ProbeHydroxylO, v(0.6, 1.1, 0.0)),
                (ProbeN, v(0.7, -1.2, 0.0)),
            ],
            ProbeType::Dimethylformamide => vec![
                (ProbeCarbonyl, v(0.0, 0.0, 0.0)),
                (ProbeHydroxylO, v(0.6, 1.1, 0.0)),
                (ProbeN, v(0.7, -1.2, 0.0)),
                (ProbeMethylC, v(2.15, -1.2, 0.0)),
                (ProbeMethylC, v(0.0, -2.45, 0.0)),
            ],
        }
    }
}

/// Builds a planar hexagon of the given atom kind with the given bond length.
fn hexagon(kind: AtomKind, bond: Real) -> Vec<(AtomKind, Vec3)> {
    let radius = bond; // for a regular hexagon the circumradius equals the side length
    (0..6)
        .map(|i| {
            let angle = std::f64::consts::PI / 3.0 * i as Real;
            (kind, Vec3::new(radius * angle.cos(), radius * angle.sin(), 0.0))
        })
        .collect()
}

/// A probe molecule: atoms (centered on the centroid), bonded topology, and its type.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Which of the 16 FTMap probes this is.
    pub probe_type: ProbeType,
    /// Atoms, centered so the centroid is at the origin.
    pub atoms: Vec<Atom>,
    /// Bonded topology (chain/ring over the heavy atoms).
    pub topology: Topology,
}

impl Probe {
    /// Builds the probe with parameters resolved from `ff`.
    pub fn new(probe_type: ProbeType, ff: &ForceField) -> Self {
        let heavy = probe_type.heavy_atoms();
        let positions: Vec<Vec3> = heavy.iter().map(|(_, p)| *p).collect();
        let centroid = Vec3::centroid(&positions);
        let atoms: Vec<Atom> = heavy
            .iter()
            .enumerate()
            .map(|(i, (kind, pos))| ff.make_atom(i, *kind, *pos - centroid, true))
            .collect();

        // Topology: connect consecutive atoms; close the ring for cyclic probes.
        let mut topology = Topology::new(atoms.len());
        for i in 0..atoms.len().saturating_sub(1) {
            // Only bond atoms that are within plausible covalent distance; branched
            // probes list substituents adjacent to their attachment point.
            let d = atoms[i].position.distance(atoms[i + 1].position);
            if d < 2.2 {
                topology.add_bond(i, i + 1);
            } else {
                // Attach to the nearest previous atom instead.
                let (nearest, _) = atoms[..=i]
                    .iter()
                    .enumerate()
                    .map(|(j, a)| (j, a.position.distance(atoms[i + 1].position)))
                    .fold((0, Real::INFINITY), |best, cur| if cur.1 < best.1 { cur } else { best });
                topology.add_bond(nearest, i + 1);
            }
        }
        if matches!(
            probe_type,
            ProbeType::Cyclohexane
                | ProbeType::Benzene
                | ProbeType::Phenol
                | ProbeType::Benzaldehyde
        ) {
            topology.add_bond(0, 5);
        }
        topology.autogenerate_bonded_terms();

        Probe { probe_type, atoms, topology }
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }
}

/// The full library of 16 probes.
#[derive(Debug, Clone)]
pub struct ProbeLibrary {
    probes: Vec<Probe>,
}

impl ProbeLibrary {
    /// Builds the standard 16-probe library.
    pub fn standard(ff: &ForceField) -> Self {
        ProbeLibrary { probes: ProbeType::ALL.iter().map(|&t| Probe::new(t, ff)).collect() }
    }

    /// Builds a library containing only the requested probe types (used by scaled-down
    /// benchmark configurations).
    pub fn subset(ff: &ForceField, types: &[ProbeType]) -> Self {
        ProbeLibrary { probes: types.iter().map(|&t| Probe::new(t, ff)).collect() }
    }

    /// The probes.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// True when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Looks up a probe by type.
    pub fn get(&self, t: ProbeType) -> Option<&Probe> {
        self.probes.iter().find(|p| p.probe_type == t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_16_probes() {
        let ff = ForceField::charmm_like();
        let lib = ProbeLibrary::standard(&ff);
        assert_eq!(lib.len(), 16);
        assert!(!lib.is_empty());
        for t in ProbeType::ALL {
            assert!(lib.get(t).is_some(), "{t:?} missing from library");
        }
    }

    #[test]
    fn probes_are_small() {
        // The paper's optimization relies on probes never exceeding a 4^3 voxel grid
        // at 1 Å + padding; all probes must fit within a ~4 Å radius.
        let ff = ForceField::charmm_like();
        for probe in ProbeLibrary::standard(&ff).probes() {
            assert!(probe.n_atoms() >= 2, "{:?}", probe.probe_type);
            assert!(probe.n_atoms() <= 8, "{:?}", probe.probe_type);
            let radius = probe.atoms.iter().map(|a| a.position.norm()).fold(0.0, Real::max);
            assert!(radius < 4.0, "{:?} radius {radius}", probe.probe_type);
        }
    }

    #[test]
    fn probes_are_centered() {
        let ff = ForceField::charmm_like();
        for probe in ProbeLibrary::standard(&ff).probes() {
            let positions: Vec<_> = probe.atoms.iter().map(|a| a.position).collect();
            let c = Vec3::centroid(&positions);
            assert!(c.norm() < 1e-9, "{:?} centroid {:?}", probe.probe_type, c);
        }
    }

    #[test]
    fn probe_atoms_marked_as_probe() {
        let ff = ForceField::charmm_like();
        let probe = Probe::new(ProbeType::Acetone, &ff);
        assert!(probe.atoms.iter().all(|a| a.is_probe));
    }

    #[test]
    fn probe_topology_is_connected() {
        let ff = ForceField::charmm_like();
        for probe in ProbeLibrary::standard(&ff).probes() {
            let n = probe.n_atoms();
            let adj = probe.topology.adjacency();
            // BFS from atom 0 must reach all atoms.
            let mut seen = vec![false; n];
            let mut queue = vec![0usize];
            seen[0] = true;
            while let Some(a) = queue.pop() {
                for &b in &adj[a] {
                    if !seen[b] {
                        seen[b] = true;
                        queue.push(b);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{:?} topology disconnected", probe.probe_type);
        }
    }

    #[test]
    fn subset_library() {
        let ff = ForceField::charmm_like();
        let lib = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Benzene]);
        assert_eq!(lib.len(), 2);
        assert!(lib.get(ProbeType::Ethanol).is_some());
        assert!(lib.get(ProbeType::Urea).is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ProbeType::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
