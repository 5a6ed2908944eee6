//! Synthetic protein generation.
//!
//! The paper evaluates on production FTMap inputs (real PDB structures); those are not
//! available here, so this module generates deterministic synthetic proteins with the
//! structural statistics the kernels care about:
//!
//! * the right *size* — the complex minimized in §V.B has ~2200 atoms and ~10 000
//!   atom-atom pairs per energy term;
//! * a globular shape with one or more concave surface **pockets**, so rigid docking has
//!   a well-defined best region and consensus clustering is meaningful;
//! * realistic packing density (atoms ~1.5–4 Å apart), so neighbor lists have the
//!   wide per-atom size variation ("a few to a few hundred") that motivates the paper's
//!   pairs-list restructuring.
//!
//! The generator lays residue-like four-atom backbone units along a self-avoiding curve
//! wound over a sphere, attaches side-chain atoms pointing outward/inward, and then
//! carves pockets by removing atoms inside chosen spherical caps.

use crate::atom::{Atom, AtomKind};
use crate::forcefield::ForceField;
use crate::topology::Topology;
use ftmap_math::{Real, Vec3};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Parameters controlling synthetic protein generation.
#[derive(Debug, Clone)]
pub struct ProteinSpec {
    /// Target number of atoms (the generator gets within a few percent of this).
    pub target_atoms: usize,
    /// Radius of the globule in Å.
    pub radius: Real,
    /// Number of surface pockets to carve.
    pub n_pockets: usize,
    /// Pocket radius in Å.
    pub pocket_radius: Real,
    /// RNG seed so every structure is reproducible.
    pub seed: u64,
}

impl Default for ProteinSpec {
    fn default() -> Self {
        // ~2200 atoms, matching the complex size in the paper's §V.B.
        ProteinSpec { target_atoms: 2200, radius: 22.0, n_pockets: 3, pocket_radius: 6.0, seed: 42 }
    }
}

impl ProteinSpec {
    /// A small structure for fast unit tests (a few hundred atoms).
    pub fn small_test() -> Self {
        ProteinSpec { target_atoms: 300, radius: 12.0, n_pockets: 1, pocket_radius: 4.0, seed: 7 }
    }

    /// A medium structure for integration tests and examples.
    pub fn medium() -> Self {
        ProteinSpec { target_atoms: 800, radius: 16.0, n_pockets: 2, pocket_radius: 5.0, seed: 11 }
    }
}

/// A generated protein: atoms, bonded topology, and the pocket centers that were carved
/// (kept so tests and examples can check that docking finds them).
#[derive(Debug, Clone)]
pub struct SyntheticProtein {
    /// Protein atoms.
    pub atoms: Vec<Atom>,
    /// Bonded topology over the atoms.
    pub topology: Topology,
    /// Centers of the carved surface pockets (Å).
    pub pocket_centers: Vec<Vec3>,
    /// The spec the structure was generated from.
    pub spec: ProteinSpec,
}

impl SyntheticProtein {
    /// Generates a protein according to `spec` with parameters from `ff`.
    pub fn generate(spec: &ProteinSpec, ff: &ForceField) -> Self {
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        // 1. Choose pocket directions on the sphere (well separated).
        let pocket_centers: Vec<Vec3> = (0..spec.n_pockets)
            .map(|i| {
                let golden = std::f64::consts::PI * (3.0 - (5.0_f64).sqrt());
                let frac = (i as Real + 0.5) / spec.n_pockets.max(1) as Real;
                let z = 1.0 - 2.0 * frac;
                let r = (1.0 - z * z).max(0.0).sqrt();
                let theta = golden * i as Real;
                Vec3::new(r * theta.cos(), r * theta.sin(), z) * spec.radius
            })
            .collect();

        // 2. Fill the globule with residue-like units along a spherical spiral.
        //    Each unit contributes a 4-atom backbone plus 1–4 side-chain atoms.
        let atoms_per_residue = 7.0; // average including side chains
        let n_residues = ((spec.target_atoms as Real) / atoms_per_residue).ceil() as usize;
        let mut atoms: Vec<Atom> = Vec::with_capacity(spec.target_atoms + 64);
        let mut topology_bonds: Vec<(usize, usize)> = Vec::new();
        let mut prev_c: Option<usize> = None;

        for res in 0..n_residues {
            // Position residues on nested spherical shells so density stays roughly
            // constant; a golden-spiral gives even coverage per shell.
            let t = (res as Real + 0.5) / n_residues as Real;
            let shell_r = spec.radius * t.cbrt();
            let golden = std::f64::consts::PI * (3.0 - (5.0_f64).sqrt());
            let z = 1.0 - 2.0 * ((res as Real * 0.618_033_988_75).fract());
            let ring = (1.0 - z * z).max(0.0).sqrt();
            let theta = golden * res as Real;
            let center = Vec3::new(ring * theta.cos(), ring * theta.sin(), z) * shell_r;

            // Jitter to avoid lattice artifacts in the grids.
            let jitter = Vec3::new(
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            );
            let center = center + jitter;

            // Backbone: N, CA, C, O in a small tetrahedral arrangement.
            let n_id = atoms.len();
            atoms.push(ff.make_atom(
                n_id,
                AtomKind::BackboneN,
                center + Vec3::new(-0.7, 0.5, 0.0),
                false,
            ));
            let ca_id = atoms.len();
            atoms.push(ff.make_atom(ca_id, AtomKind::BackboneCA, center, false));
            let c_id = atoms.len();
            atoms.push(ff.make_atom(
                c_id,
                AtomKind::BackboneC,
                center + Vec3::new(0.8, -0.6, 0.4),
                false,
            ));
            let o_id = atoms.len();
            atoms.push(ff.make_atom(
                o_id,
                AtomKind::BackboneO,
                center + Vec3::new(1.0, -0.5, 1.5),
                false,
            ));
            topology_bonds.push((n_id, ca_id));
            topology_bonds.push((ca_id, c_id));
            topology_bonds.push((c_id, o_id));
            if let Some(prev) = prev_c {
                topology_bonds.push((prev, n_id));
            }
            prev_c = Some(c_id);

            // Side chain: 1-4 atoms of randomly chosen character pointing outward.
            let n_side = rng.gen_range(1..=4usize);
            let outward = center.normalized();
            let mut attach = ca_id;
            for s in 0..n_side {
                let kind = match rng.gen_range(0..6) {
                    0 => AtomKind::PolarO,
                    1 => AtomKind::PolarN,
                    2 => AtomKind::AromaticC,
                    3 if rng.gen_bool(0.15) => AtomKind::Sulfur,
                    _ => AtomKind::AliphaticC,
                };
                let offset = outward * (1.4 * (s + 1) as Real)
                    + Vec3::new(
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                    );
                let id = atoms.len();
                atoms.push(ff.make_atom(id, kind, atoms[ca_id].position + offset, false));
                topology_bonds.push((attach, id));
                attach = id;
            }

            if atoms.len() >= spec.target_atoms + 8 {
                break;
            }
        }

        // 3. Carve pockets: delete atoms inside spherical caps centered on the pocket
        //    centers (which sit on the surface), leaving concave sites.
        let keep: Vec<bool> = atoms
            .iter()
            .map(|a| !pocket_centers.iter().any(|pc| a.position.distance(*pc) < spec.pocket_radius))
            .collect();

        // Remap indices after deletion.
        let mut remap = vec![usize::MAX; atoms.len()];
        let mut kept_atoms = Vec::with_capacity(atoms.len());
        for (old_idx, (atom, &k)) in atoms.iter().zip(&keep).enumerate() {
            if k {
                remap[old_idx] = kept_atoms.len();
                let mut a = *atom;
                a.id = kept_atoms.len();
                kept_atoms.push(a);
            }
        }
        let mut topology = Topology::new(kept_atoms.len());
        for (i, j) in topology_bonds {
            if keep[i] && keep[j] {
                topology.add_bond(remap[i], remap[j]);
            }
        }
        topology.autogenerate_bonded_terms();

        SyntheticProtein { atoms: kept_atoms, topology, pocket_centers, spec: spec.clone() }
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Centroid of the structure (Å).
    pub fn centroid(&self) -> Vec3 {
        let pos: Vec<Vec3> = self.atoms.iter().map(|a| a.position).collect();
        Vec3::centroid(&pos)
    }

    /// Axis-aligned bounding box `(min, max)` of the structure (Å).
    pub fn bounding_box(&self) -> (Vec3, Vec3) {
        let pos: Vec<Vec3> = self.atoms.iter().map(|a| a.position).collect();
        Vec3::bounding_box(&pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_generates_paper_sized_protein() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::default(), &ff);
        // ~2200 atoms ± 20% after pocket carving.
        assert!(
            protein.n_atoms() > 1700 && protein.n_atoms() < 2700,
            "got {} atoms",
            protein.n_atoms()
        );
        assert_eq!(protein.pocket_centers.len(), 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let ff = ForceField::charmm_like();
        let a = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let b = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        assert_eq!(a.n_atoms(), b.n_atoms());
        for (x, y) in a.atoms.iter().zip(&b.atoms) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn different_seeds_give_different_structures() {
        let ff = ForceField::charmm_like();
        let mut spec_a = ProteinSpec::small_test();
        let mut spec_b = ProteinSpec::small_test();
        spec_a.seed = 1;
        spec_b.seed = 2;
        let a = SyntheticProtein::generate(&spec_a, &ff);
        let b = SyntheticProtein::generate(&spec_b, &ff);
        let differs =
            a.atoms.iter().zip(&b.atoms).any(|(x, y)| x.position.distance(y.position) > 1e-6);
        assert!(differs);
    }

    #[test]
    fn atoms_are_inside_the_globule() {
        let ff = ForceField::charmm_like();
        let spec = ProteinSpec::small_test();
        let protein = SyntheticProtein::generate(&spec, &ff);
        for atom in &protein.atoms {
            assert!(
                atom.position.norm() < spec.radius + 8.0,
                "atom at {:?} outside radius",
                atom.position
            );
        }
    }

    #[test]
    fn pockets_are_empty() {
        let ff = ForceField::charmm_like();
        let spec = ProteinSpec::medium();
        let protein = SyntheticProtein::generate(&spec, &ff);
        for pc in &protein.pocket_centers {
            for atom in &protein.atoms {
                assert!(
                    atom.position.distance(*pc) >= spec.pocket_radius - 1e-9,
                    "atom inside carved pocket"
                );
            }
        }
    }

    #[test]
    fn protein_atoms_not_marked_probe() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        assert!(protein.atoms.iter().all(|a| !a.is_probe));
    }

    #[test]
    fn atom_ids_are_sequential() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        for (i, atom) in protein.atoms.iter().enumerate() {
            assert_eq!(atom.id, i);
        }
    }

    #[test]
    fn topology_indices_in_range() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let n = protein.n_atoms();
        for b in protein.topology.bonds() {
            assert!(b.i < n && b.j < n);
        }
        assert!(!protein.topology.bonds().is_empty());
        assert!(!protein.topology.angles().is_empty());
    }

    #[test]
    fn bounding_box_contains_centroid() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let (lo, hi) = protein.bounding_box();
        let c = protein.centroid();
        assert!(c.x >= lo.x && c.x <= hi.x);
        assert!(c.y >= lo.y && c.y <= hi.y);
        assert!(c.z >= lo.z && c.z <= hi.z);
    }
}
