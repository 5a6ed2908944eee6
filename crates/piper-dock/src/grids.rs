//! Energy-function grid construction.
//!
//! PIPER maps the receptor (protein) and the ligand (probe) onto matching sets of 3-D
//! grids, one pair per energy-function component, and scores a pose as the weighted sum
//! of the per-component correlations (Equations 1–2):
//!
//! * **shape complementarity** — two components: a repulsive *core* term that penalizes
//!   the probe overlapping protein interior, and an attractive *surface* term that
//!   rewards contact with the surface layer;
//! * **electrostatics** — two components: the receptor Coulomb potential correlated
//!   with the ligand charges, and a Born-screened variant;
//! * **desolvation** — a sum of 4 to 18 pairwise-potential components built from
//!   atom-type indicator functions.
//!
//! Up to 22 correlations per rotation follow. The receptor grids are built **once**;
//! the ligand grids are rebuilt for every rotation (the probe is rotated and re-mapped
//! on the host, §III.A), which is why they must stay small enough for constant memory.

use ftmap_math::{Grid3, Real, Rotation, Vec3};
use ftmap_molecule::Atom;

/// Maximum number of desolvation components supported (paper's "up to 22 FFTs").
const MAX_DESOLV_TERMS: usize = 18;

/// Per-energy-function weights of Equation (2): `E = E_shape + w2·E_elec + w3·E_desol`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyWeights {
    /// Weight of the repulsive shape (core-overlap) component.
    pub shape_core: Real,
    /// Weight of the attractive shape (surface-contact) component.
    pub shape_attr: Real,
    /// Weight `w2` of the electrostatic components.
    pub elec: Real,
    /// Weight `w3` of the desolvation components.
    pub desolv: Real,
}

impl Default for EnergyWeights {
    fn default() -> Self {
        // Repulsion positive (penalty), attraction negative (reward); electrostatics and
        // desolvation contribute with moderate weights, as in PIPER's published setup.
        EnergyWeights { shape_core: 1.0, shape_attr: -1.0, elec: 0.6, desolv: 0.3 }
    }
}

/// Geometry of the docking grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Grid dimension `N` (the result grid is `N³`). Must be a power of two so the FFT
    /// engine can transform it directly.
    pub dim: usize,
    /// Voxel spacing in Å.
    pub spacing: Real,
    /// Cartesian position of voxel (0,0,0).
    pub origin: Vec3,
}

impl GridSpec {
    /// A grid spec centred on the given atoms with the requested dimension and spacing.
    pub fn centered_on(atoms: &[Atom], dim: usize, spacing: Real) -> Self {
        let positions: Vec<Vec3> = atoms.iter().map(|a| a.position).collect();
        let centroid = Vec3::centroid(&positions);
        let half = (dim as Real) * spacing * 0.5;
        GridSpec { dim, spacing, origin: centroid - Vec3::splat(half) }
    }

    /// Number of voxels in the full grid.
    pub fn len(&self) -> usize {
        self.dim * self.dim * self.dim
    }

    /// True when the grid has no voxels (never by construction).
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// Voxel index (clamped into the grid) of a Cartesian position.
    fn voxel_of(&self, p: Vec3) -> (usize, usize, usize) {
        let rel = (p - self.origin) / self.spacing;
        let clamp = |v: Real| (v.round().max(0.0) as usize).min(self.dim - 1);
        (clamp(rel.x), clamp(rel.y), clamp(rel.z))
    }
}

/// Labels for the energy-function components, in grid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermKind {
    /// Repulsive shape core.
    ShapeCore,
    /// Attractive shape surface.
    ShapeAttraction,
    /// Coulomb electrostatics.
    ElecCoulomb,
    /// Born-screened electrostatics.
    ElecScreened,
    /// Desolvation pairwise-potential component `k`.
    Desolvation(usize),
}

/// Builds the ordered list of term kinds for a run with `n_desolv` desolvation terms.
pub fn term_kinds(n_desolv: usize) -> Vec<TermKind> {
    let mut kinds = vec![
        TermKind::ShapeCore,
        TermKind::ShapeAttraction,
        TermKind::ElecCoulomb,
        TermKind::ElecScreened,
    ];
    for k in 0..n_desolv {
        kinds.push(TermKind::Desolvation(k));
    }
    kinds
}

/// The per-term weight applied when combining correlation results into the pose score.
pub(crate) fn term_weight(kind: TermKind, weights: &EnergyWeights, n_desolv: usize) -> Real {
    match kind {
        TermKind::ShapeCore => weights.shape_core,
        TermKind::ShapeAttraction => weights.shape_attr,
        TermKind::ElecCoulomb | TermKind::ElecScreened => weights.elec,
        TermKind::Desolvation(_) => weights.desolv / n_desolv.max(1) as Real,
    }
}

/// The receptor-side grids `R_p` of Equation (1): one `N³` grid per energy component.
///
/// Treated as **immutable once built** — the residency content key is computed
/// lazily on first use and memoized, so mutating the grids after keying them
/// would let a stale key alias changed content.
#[derive(Debug, Clone)]
pub struct ReceptorGrids {
    /// Grid geometry.
    pub spec: GridSpec,
    /// One grid per term, ordered as [`term_kinds`].
    pub terms: Vec<Grid3<Real>>,
    /// Number of desolvation components.
    pub n_desolv: usize,
    /// Memoized content key — hashing ~megabytes of grid values per
    /// [`ReceptorGrids::content_key`] call would erase the cache-hit savings.
    key: std::sync::OnceLock<u64>,
}

impl ReceptorGrids {
    /// Builds the receptor grids from the protein atoms.
    ///
    /// * Core voxels (inside any atom's van der Waals radius) get a large positive value
    ///   in the core grid.
    /// * Surface voxels (within a 2 Å shell outside the core) get 1.0 in the attraction
    ///   grid.
    /// * The Coulomb grid spreads `q_i / (1 + r²)` around each atom out to 6 Å; the
    ///   screened grid applies an additional exponential damping.
    /// * Desolvation component `k` is an indicator-like smeared density of the atoms
    ///   whose kind index ≡ k (mod n_desolv), weighted by their ACE volumes.
    pub fn build(atoms: &[Atom], spec: GridSpec, n_desolv: usize) -> Self {
        assert!((1..=MAX_DESOLV_TERMS).contains(&n_desolv), "n_desolv out of range");
        let kinds = term_kinds(n_desolv);
        let mut terms: Vec<Grid3<Real>> = kinds
            .iter()
            .map(|_| {
                let mut g = Grid3::cubic(spec.dim);
                g.spacing = spec.spacing;
                g.origin = spec.origin;
                g
            })
            .collect();

        let reach = 6.0; // Å influence radius for smeared terms
        let reach_vox = (reach / spec.spacing).ceil() as isize;

        for atom in atoms {
            let (cx, cy, cz) = spec.voxel_of(atom.position);
            let core_r = atom.vdw_radius();
            let surf_r = core_r + 2.0;
            let desolv_slot = 4 + (atom.kind as usize) % n_desolv;

            for dx in -reach_vox..=reach_vox {
                for dy in -reach_vox..=reach_vox {
                    for dz in -reach_vox..=reach_vox {
                        let x = cx as isize + dx;
                        let y = cy as isize + dy;
                        let z = cz as isize + dz;
                        if x < 0 || y < 0 || z < 0 {
                            continue;
                        }
                        let (x, y, z) = (x as usize, y as usize, z as usize);
                        if x >= spec.dim || y >= spec.dim || z >= spec.dim {
                            continue;
                        }
                        let voxel_pos =
                            spec.origin + Vec3::new(x as Real, y as Real, z as Real) * spec.spacing;
                        let r = voxel_pos.distance(atom.position);
                        if r > reach {
                            continue;
                        }

                        // Shape terms.
                        if r <= core_r {
                            *terms[0].at_mut(x, y, z) = 10.0;
                        } else if r <= surf_r {
                            let v = terms[1].at_mut(x, y, z);
                            *v = (*v + 1.0).min(1.0);
                        }

                        // Electrostatics (smeared Coulomb + screened variant).
                        let coulomb = atom.charge / (1.0 + r * r);
                        *terms[2].at_mut(x, y, z) += coulomb;
                        *terms[3].at_mut(x, y, z) += coulomb * (-r / 3.0).exp();

                        // Desolvation component for this atom's type class.
                        if r <= core_r + 1.0 {
                            *terms[desolv_slot].at_mut(x, y, z) +=
                                atom.ace_volume / 25.0 * (1.0 - r / (core_r + 1.0));
                        }
                    }
                }
            }
        }

        ReceptorGrids { spec, terms, n_desolv, key: std::sync::OnceLock::new() }
    }

    /// Number of energy components (grids).
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Bytes these grids occupy when resident in device memory — the figure
    /// charged for the one-time upload and budgeted by the residency cache.
    pub fn resident_bytes(&self) -> usize {
        self.n_terms() * self.spec.len() * std::mem::size_of::<Real>()
    }

    /// A content hash of the grids (FNV-1a over the geometry and every term
    /// value), used as the receptor's residency-cache key: equal-valued grids
    /// share one resident copy per device, and any change to the receptor
    /// yields a new key, so a stale resident copy can never be borrowed.
    ///
    /// Computed once and memoized (the grids are immutable after
    /// [`ReceptorGrids::build`]); repeat calls — one per `Docking`
    /// construction — are free.
    pub fn content_key(&self) -> u64 {
        *self.key.get_or_init(|| {
            let mut hash = gpu_sim::residency::Fnv1a::new();
            hash.write_u64(self.spec.dim as u64);
            hash.write_f64(self.spec.spacing);
            hash.write_f64(self.spec.origin.x);
            hash.write_f64(self.spec.origin.y);
            hash.write_f64(self.spec.origin.z);
            hash.write_u64(self.n_desolv as u64);
            for term in &self.terms {
                for value in term.as_slice() {
                    hash.write_f64(*value);
                }
            }
            hash.finish()
        })
    }
}

/// The ligand-side grids `L_p` of Equation (1): one small `n³` grid per component,
/// rebuilt for each rotation of the probe.
#[derive(Debug, Clone)]
pub struct LigandGrids {
    /// Footprint dimension `n` (n³ voxels); FTMap probes fit in 4³.
    pub dim: usize,
    /// Voxel spacing in Å (same as the receptor spacing).
    pub spacing: Real,
    /// One grid per term, ordered as [`term_kinds`]; same term count as the receptor.
    pub terms: Vec<Grid3<Real>>,
}

impl LigandGrids {
    /// Builds ligand grids for the probe atoms (centred on their centroid) under the
    /// given rotation. The footprint is the smallest cube that contains the rotated
    /// probe plus half a voxel of margin.
    pub fn build(
        probe_atoms: &[Atom],
        rotation: &Rotation,
        spacing: Real,
        n_desolv: usize,
    ) -> Self {
        assert!(!probe_atoms.is_empty(), "ligand grids need at least one atom");
        let rotated: Vec<Vec3> = probe_atoms.iter().map(|a| rotation.apply(a.position)).collect();
        let radius = rotated.iter().map(|p| p.norm()).fold(0.0, Real::max);
        let dim = (((2.0 * radius) / spacing).ceil() as usize + 1).max(2);

        let kinds = term_kinds(n_desolv);
        let mut terms: Vec<Grid3<Real>> = kinds.iter().map(|_| Grid3::cubic(dim)).collect();
        let half = (dim as Real - 1.0) * 0.5;

        for (atom, pos) in probe_atoms.iter().zip(&rotated) {
            let vx = ((pos.x / spacing) + half).round();
            let vy = ((pos.y / spacing) + half).round();
            let vz = ((pos.z / spacing) + half).round();
            let clamp = |v: Real| (v.max(0.0) as usize).min(dim - 1);
            let (x, y, z) = (clamp(vx), clamp(vy), clamp(vz));

            // Occupancy drives both shape terms (overlap with receptor core is penalized,
            // contact with the surface shell is rewarded).
            *terms[0].at_mut(x, y, z) += 1.0;
            *terms[1].at_mut(x, y, z) += 1.0;
            // Ligand charge drives both electrostatic terms.
            *terms[2].at_mut(x, y, z) += atom.charge;
            *terms[3].at_mut(x, y, z) += atom.charge;
            // Desolvation occupancy for the matching type class.
            let slot = 4 + (atom.kind as usize) % n_desolv;
            *terms[slot].at_mut(x, y, z) += atom.ace_volume / 25.0;
        }

        LigandGrids { dim, spacing, terms }
    }

    /// Number of energy components.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
impl LigandGrids {
    /// Total non-zero voxels over all terms — the work per translation in
    /// direct correlation.
    pub(crate) fn nonzero_voxels(&self) -> usize {
        self.terms.iter().map(|g| g.as_slice().iter().filter(|v| **v != 0.0).count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn small_protein() -> SyntheticProtein {
        SyntheticProtein::generate(&ProteinSpec::small_test(), &ForceField::charmm_like())
    }

    #[test]
    fn term_kinds_counts() {
        assert_eq!(term_kinds(4).len(), 8);
        assert_eq!(term_kinds(18).len(), 22); // the paper's "up to 22 FFTs"
        assert_eq!(term_kinds(1).len(), 5);
    }

    #[test]
    fn term_weights_follow_equation_2() {
        let w = EnergyWeights::default();
        assert_eq!(term_weight(TermKind::ShapeCore, &w, 4), w.shape_core);
        assert_eq!(term_weight(TermKind::ShapeAttraction, &w, 4), w.shape_attr);
        assert_eq!(term_weight(TermKind::ElecCoulomb, &w, 4), w.elec);
        assert_eq!(term_weight(TermKind::Desolvation(2), &w, 4), w.desolv / 4.0);
    }

    #[test]
    fn grid_spec_centering() {
        let protein = small_protein();
        let spec = GridSpec::centered_on(&protein.atoms, 32, 1.0);
        assert_eq!(spec.dim, 32);
        assert_eq!(spec.len(), 32 * 32 * 32);
        assert!(!spec.is_empty());
        // The protein centroid should map near the middle of the grid.
        let (x, y, z) = spec.voxel_of(protein.centroid());
        assert!((x as i64 - 16).abs() <= 1);
        assert!((y as i64 - 16).abs() <= 1);
        assert!((z as i64 - 16).abs() <= 1);
    }

    #[test]
    fn receptor_grids_have_core_and_surface() {
        let protein = small_protein();
        let spec = GridSpec::centered_on(&protein.atoms, 32, 1.5);
        let grids = ReceptorGrids::build(&protein.atoms, spec, 4);
        assert_eq!(grids.n_terms(), 8);
        // Core grid has repulsive voxels, attraction grid has surface voxels.
        assert!(grids.terms[0].max_value() > 0.0);
        assert!(grids.terms[1].max_value() > 0.0);
        assert!(grids.terms[1].max_value() <= 1.0);
        // Electrostatic grid has both signs (positive and negative partial charges).
        assert!(grids.terms[2].min_value() < 0.0);
        assert!(grids.terms[2].max_value() > 0.0);
        // At least one desolvation component is populated.
        let desolv_nonzero: usize = (4..8).map(|k| grids.terms[k].count_above(0.0)).sum();
        assert!(desolv_nonzero > 0);
    }

    #[test]
    fn content_key_tracks_grid_values() {
        let protein = small_protein();
        let spec = GridSpec::centered_on(&protein.atoms, 16, 2.0);
        let a = ReceptorGrids::build(&protein.atoms, spec, 4);
        let b = ReceptorGrids::build(&protein.atoms, spec, 4);
        // Same content ⇒ same key (the property that lets two jobs share a
        // resident copy).
        assert_eq!(a.content_key(), b.content_key());
        assert_eq!(a.resident_bytes(), 8 * 16 * 16 * 16 * std::mem::size_of::<Real>());
        // Any value change ⇒ new key (stale residency can never alias).
        let mut c = ReceptorGrids::build(&protein.atoms, spec, 4);
        *c.terms[3].at_mut(1, 2, 3) += 1.0;
        assert_ne!(a.content_key(), c.content_key());
        // Different geometry ⇒ new key even with equal values.
        let other_spec = GridSpec::centered_on(&protein.atoms, 16, 2.5);
        let d = ReceptorGrids::build(&protein.atoms, other_spec, 4);
        assert_ne!(a.content_key(), d.content_key());
    }

    #[test]
    #[should_panic(expected = "n_desolv out of range")]
    fn too_many_desolv_terms_panics() {
        let protein = small_protein();
        let spec = GridSpec::centered_on(&protein.atoms, 16, 2.0);
        let _ = ReceptorGrids::build(&protein.atoms, spec, 30);
    }

    #[test]
    fn ligand_grids_are_small_for_all_probes() {
        let ff = ForceField::charmm_like();
        for probe_type in ProbeType::ALL {
            let probe = Probe::new(probe_type, &ff);
            let grids = LigandGrids::build(&probe.atoms, &Rotation::identity(), 2.0, 4);
            assert!(grids.dim <= 5, "{probe_type:?} footprint {}", grids.dim);
            assert!(grids.nonzero_voxels() > 0);
            assert_eq!(grids.n_terms(), 8);
        }
    }

    #[test]
    fn ligand_grid_occupancy_counts_atoms() {
        let ff = ForceField::charmm_like();
        let probe = Probe::new(ProbeType::Ethane, &ff);
        let grids = LigandGrids::build(&probe.atoms, &Rotation::identity(), 1.0, 4);
        let total_occupancy: Real = grids.terms[0].sum();
        assert!((total_occupancy - probe.n_atoms() as Real).abs() < 1e-9);
    }

    #[test]
    fn rotation_changes_ligand_grid() {
        let ff = ForceField::charmm_like();
        let probe = Probe::new(ProbeType::Phenol, &ff);
        let id = LigandGrids::build(&probe.atoms, &Rotation::identity(), 1.0, 4);
        let rot = Rotation::from_axis_angle(ftmap_math::Vec3::Y, 1.3);
        let rotated = LigandGrids::build(&probe.atoms, &rot, 1.0, 4);
        // Same total occupancy, different arrangement (almost surely).
        assert!((id.terms[0].sum() - rotated.terms[0].sum()).abs() < 1e-9);
        let differs = id.dim != rotated.dim
            || id.terms[0]
                .as_slice()
                .iter()
                .zip(rotated.terms[0].as_slice())
                .any(|(a, b)| (a - b).abs() > 1e-12);
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn empty_ligand_panics() {
        let _ = LigandGrids::build(&[], &Rotation::identity(), 1.0, 4);
    }
}
