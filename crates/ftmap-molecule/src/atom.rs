//! Atoms, elements and atom kinds.
//!
//! An [`Atom`] carries the per-atom quantities the paper's energy functions consume:
//! position, partial charge `q_i`, Lennard-Jones parameters `eps_i` / `rm_i`
//! (Equations 8–10), the ACE solute volume `V~_i` and the Born radius `alpha_i`
//! (Equations 5–7). The numbers live in [`crate::forcefield`]; the atom stores the
//! resolved values so the hot evaluation loops never perform table lookups.

use ftmap_math::{Real, Vec3};

/// Chemical element of an atom (the subset occurring in proteins and FTMap probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    /// Hydrogen.
    H,
    /// Carbon.
    C,
    /// Nitrogen.
    N,
    /// Oxygen.
    O,
    /// Sulfur.
    S,
}

impl Element {
    /// All supported elements.
    pub const ALL: [Element; 5] = [Element::H, Element::C, Element::N, Element::O, Element::S];

    /// Approximate van der Waals radius in Å (used by grid voxelization).
    pub fn vdw_radius(self) -> Real {
        match self {
            Element::H => 1.20,
            Element::C => 1.70,
            Element::N => 1.55,
            Element::O => 1.52,
            Element::S => 1.80,
        }
    }

    /// Atomic mass in Daltons.
    pub fn mass(self) -> Real {
        match self {
            Element::H => 1.008,
            Element::C => 12.011,
            Element::N => 14.007,
            Element::O => 15.999,
            Element::S => 32.06,
        }
    }
}

/// CHARMM-like atom kind: an element in a specific chemical environment.
///
/// The kind determines the non-bonded parameter set assigned by the force field; the
/// small set here covers backbone and generic side-chain environments plus the probe
/// functional groups, which is sufficient to obtain realistic energy-term balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomKind {
    /// Backbone amide nitrogen.
    BackboneN,
    /// Backbone alpha carbon.
    BackboneCA,
    /// Backbone carbonyl carbon.
    BackboneC,
    /// Backbone carbonyl oxygen.
    BackboneO,
    /// Aliphatic side-chain carbon.
    AliphaticC,
    /// Aromatic carbon.
    AromaticC,
    /// Polar side-chain oxygen (hydroxyl / carboxyl).
    PolarO,
    /// Polar side-chain nitrogen (amine / amide / guanidinium).
    PolarN,
    /// Side-chain sulfur.
    Sulfur,
    /// Non-polar hydrogen.
    ApolarH,
    /// Polar hydrogen (bonded to N or O).
    PolarH,
    /// Carbonyl / ketone carbon in a probe molecule.
    ProbeCarbonyl,
    /// Hydroxyl oxygen in a probe molecule.
    ProbeHydroxylO,
    /// Probe methyl carbon.
    ProbeMethylC,
    /// Probe amide/amine nitrogen.
    ProbeN,
}

impl AtomKind {
    /// All atom kinds (used to iterate parameter tables and by property tests).
    pub const ALL: [AtomKind; 15] = [
        AtomKind::BackboneN,
        AtomKind::BackboneCA,
        AtomKind::BackboneC,
        AtomKind::BackboneO,
        AtomKind::AliphaticC,
        AtomKind::AromaticC,
        AtomKind::PolarO,
        AtomKind::PolarN,
        AtomKind::Sulfur,
        AtomKind::ApolarH,
        AtomKind::PolarH,
        AtomKind::ProbeCarbonyl,
        AtomKind::ProbeHydroxylO,
        AtomKind::ProbeMethylC,
        AtomKind::ProbeN,
    ];

    /// The element underlying this kind.
    pub fn element(self) -> Element {
        match self {
            AtomKind::BackboneN | AtomKind::PolarN | AtomKind::ProbeN => Element::N,
            AtomKind::BackboneCA
            | AtomKind::BackboneC
            | AtomKind::AliphaticC
            | AtomKind::AromaticC
            | AtomKind::ProbeCarbonyl
            | AtomKind::ProbeMethylC => Element::C,
            AtomKind::BackboneO | AtomKind::PolarO | AtomKind::ProbeHydroxylO => Element::O,
            AtomKind::Sulfur => Element::S,
            AtomKind::ApolarH | AtomKind::PolarH => Element::H,
        }
    }
}

/// A single atom with resolved force-field parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Index of the atom within its owning molecule (stable identifier).
    pub id: usize,
    /// Atom kind (chemical environment).
    pub kind: AtomKind,
    /// Position in Å.
    pub position: Vec3,
    /// Partial charge `q_i` in elementary charge units.
    pub charge: Real,
    /// Lennard-Jones well depth `eps_i` (kcal/mol), Equation (9).
    pub lj_eps: Real,
    /// Lennard-Jones minimum-energy distance parameter `rm_i` (Å), Equation (10).
    pub lj_rmin: Real,
    /// ACE solute volume `V~_i` (Å³), Equation (6).
    pub ace_volume: Real,
    /// Born radius `alpha_i` (Å), Equation (7). Updated from self energies during
    /// minimization; initialized to the force-field intrinsic value.
    pub born_radius: Real,
    /// True when the atom belongs to the (flexible) probe rather than the rigid protein.
    pub is_probe: bool,
}

impl Atom {
    /// The element of this atom.
    pub fn element(&self) -> Element {
        self.kind.element()
    }

    /// The van der Waals radius (Å) used by grid voxelization.
    pub fn vdw_radius(&self) -> Real {
        self.element().vdw_radius()
    }

    /// The atomic mass in Daltons.
    pub fn mass(&self) -> Real {
        self.element().mass()
    }

    /// Distance to another atom in Å.
    pub fn distance(&self, other: &Atom) -> Real {
        self.position.distance(other.position)
    }

    /// Squared distance to another atom in Å².
    pub fn distance_sq(&self, other: &Atom) -> Real {
        self.position.distance_sq(other.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_properties_positive() {
        for e in Element::ALL {
            assert!(e.vdw_radius() > 0.0);
            assert!(e.mass() > 0.0);
        }
        assert!(Element::S.mass() > Element::C.mass());
        assert!(Element::H.vdw_radius() < Element::C.vdw_radius());
    }

    #[test]
    fn atom_kind_elements_consistent() {
        for kind in AtomKind::ALL {
            let e = kind.element();
            assert_eq!(matches!(kind, AtomKind::ApolarH | AtomKind::PolarH), e == Element::H);
        }
        assert_eq!(AtomKind::BackboneCA.element(), Element::C);
        assert_eq!(AtomKind::PolarO.element(), Element::O);
        assert_eq!(AtomKind::Sulfur.element(), Element::S);
    }

    #[test]
    fn atom_distance() {
        let make = |pos| Atom {
            id: 0,
            kind: AtomKind::AliphaticC,
            position: pos,
            charge: 0.0,
            lj_eps: 0.1,
            lj_rmin: 2.0,
            ace_volume: 20.0,
            born_radius: 2.0,
            is_probe: false,
        };
        let a = make(Vec3::new(0.0, 0.0, 0.0));
        let b = make(Vec3::new(3.0, 4.0, 0.0));
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.element(), Element::C);
        assert!(a.mass() > 0.0);
        assert!(a.vdw_radius() > 0.0);
    }
}
