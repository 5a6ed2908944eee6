//! CHARMM-like force-field parameter tables.
//!
//! FTMap's energy minimization evaluates a CHARMM potential with ACE continuum
//! electrostatics (paper Equations 3–10). The production code reads CHARMM parameter
//! files; this module provides a compact built-in parameter set covering the
//! [`AtomKind`]s used by the synthetic structures and the probe library. The values
//! are physically reasonable (charges sum to roughly neutral groups, LJ radii match
//! published CHARMM ranges) so that the relative cost and magnitude of the energy
//! terms — which is what the paper's evaluation measures — are realistic.

use crate::atom::{Atom, AtomKind};
use ftmap_math::{Real, Vec3};

/// Non-bonded parameters for one atom kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonbondedParams {
    /// Partial charge (elementary charges).
    pub charge: Real,
    /// Lennard-Jones well depth `eps` (kcal/mol).
    pub lj_eps: Real,
    /// Lennard-Jones minimum-energy distance `rm` (Å).
    pub lj_rmin: Real,
    /// ACE solute volume `V~` (Å³).
    pub ace_volume: Real,
    /// Intrinsic Born radius (Å).
    pub born_radius: Real,
}

/// Bonded parameters: harmonic bond.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BondParams {
    /// Force constant (kcal/mol/Å²).
    pub k: Real,
    /// Equilibrium length (Å).
    pub r0: Real,
}

/// Bonded parameters: harmonic angle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleParams {
    /// Force constant (kcal/mol/rad²).
    pub k: Real,
    /// Equilibrium angle (radians).
    pub theta0: Real,
}

/// Bonded parameters: cosine torsion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TorsionParams {
    /// Barrier height (kcal/mol).
    pub k: Real,
    /// Multiplicity.
    pub n: u32,
    /// Phase (radians).
    pub delta: Real,
}

/// Bonded parameters: harmonic improper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImproperParams {
    /// Force constant (kcal/mol/rad²).
    pub k: Real,
    /// Equilibrium improper angle (radians).
    pub psi0: Real,
}

/// The complete force field: per-kind non-bonded parameters, generic bonded parameters
/// and the global constants of the ACE electrostatics and smoothed-LJ models.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceField {
    /// Solvent dielectric constant `eps_s` (water ≈ 78.5), Equation (5).
    pub solvent_dielectric: Real,
    /// Solute (interior) dielectric constant, Equation (7) prefactors.
    pub solute_dielectric: Real,
    /// `tau = 1/eps_solute - 1/eps_solvent`, the GB/ACE screening factor.
    pub tau: Real,
    /// Non-bonded cutoff distance `r_c` in Å (Equation 8).
    pub cutoff: Real,
    /// ACE Gaussian width scaling `sigma_ik` base parameter.
    pub ace_sigma: Real,
    /// ACE `mu_ik` atom-atom parameter baseline.
    pub ace_mu: Real,
    /// Default bond parameters (single generic class; adequate for synthetic topologies).
    pub bond: BondParams,
    /// Default angle parameters.
    pub angle: AngleParams,
    /// Default torsion parameters.
    pub torsion: TorsionParams,
    /// Default improper parameters.
    pub improper: ImproperParams,
}

impl ForceField {
    /// The built-in CHARMM-like parameter set used across the workspace.
    pub fn charmm_like() -> Self {
        let solute = 1.0;
        let solvent = 78.5;
        ForceField {
            solvent_dielectric: solvent,
            solute_dielectric: solute,
            tau: 1.0 / solute - 1.0 / solvent,
            cutoff: 9.0,
            ace_sigma: 1.2,
            ace_mu: 0.9,
            bond: BondParams { k: 300.0, r0: 1.45 },
            angle: AngleParams { k: 50.0, theta0: 109.5_f64.to_radians() },
            torsion: TorsionParams { k: 1.4, n: 3, delta: 0.0 },
            improper: ImproperParams { k: 40.0, psi0: 0.0 },
        }
    }

    /// Non-bonded parameters for an atom kind.
    pub fn nonbonded(&self, kind: AtomKind) -> NonbondedParams {
        // Values chosen to sit inside published CHARMM ranges for the corresponding
        // environments; the probe kinds carry slightly larger charges so probe-protein
        // electrostatics dominate the non-bonded budget as in Fig. 3(b).
        match kind {
            AtomKind::BackboneN => NonbondedParams {
                charge: -0.47,
                lj_eps: 0.20,
                lj_rmin: 1.85,
                ace_volume: 13.0,
                born_radius: 1.75,
            },
            AtomKind::BackboneCA => NonbondedParams {
                charge: 0.07,
                lj_eps: 0.11,
                lj_rmin: 2.27,
                ace_volume: 22.0,
                born_radius: 2.10,
            },
            AtomKind::BackboneC => NonbondedParams {
                charge: 0.51,
                lj_eps: 0.11,
                lj_rmin: 2.00,
                ace_volume: 15.0,
                born_radius: 1.95,
            },
            AtomKind::BackboneO => NonbondedParams {
                charge: -0.51,
                lj_eps: 0.12,
                lj_rmin: 1.70,
                ace_volume: 16.0,
                born_radius: 1.60,
            },
            AtomKind::AliphaticC => NonbondedParams {
                charge: -0.09,
                lj_eps: 0.08,
                lj_rmin: 2.17,
                ace_volume: 24.0,
                born_radius: 2.15,
            },
            AtomKind::AromaticC => NonbondedParams {
                charge: -0.11,
                lj_eps: 0.07,
                lj_rmin: 1.99,
                ace_volume: 20.0,
                born_radius: 2.00,
            },
            AtomKind::PolarO => NonbondedParams {
                charge: -0.66,
                lj_eps: 0.15,
                lj_rmin: 1.77,
                ace_volume: 17.0,
                born_radius: 1.55,
            },
            AtomKind::PolarN => NonbondedParams {
                charge: -0.62,
                lj_eps: 0.20,
                lj_rmin: 1.85,
                ace_volume: 14.0,
                born_radius: 1.70,
            },
            AtomKind::Sulfur => NonbondedParams {
                charge: -0.23,
                lj_eps: 0.45,
                lj_rmin: 2.00,
                ace_volume: 30.0,
                born_radius: 1.90,
            },
            AtomKind::ApolarH => NonbondedParams {
                charge: 0.09,
                lj_eps: 0.03,
                lj_rmin: 1.32,
                ace_volume: 6.0,
                born_radius: 1.20,
            },
            AtomKind::PolarH => NonbondedParams {
                charge: 0.31,
                lj_eps: 0.05,
                lj_rmin: 0.90,
                ace_volume: 4.0,
                born_radius: 1.00,
            },
            AtomKind::ProbeCarbonyl => NonbondedParams {
                charge: 0.55,
                lj_eps: 0.11,
                lj_rmin: 2.00,
                ace_volume: 16.0,
                born_radius: 1.95,
            },
            AtomKind::ProbeHydroxylO => NonbondedParams {
                charge: -0.65,
                lj_eps: 0.15,
                lj_rmin: 1.77,
                ace_volume: 18.0,
                born_radius: 1.55,
            },
            AtomKind::ProbeMethylC => NonbondedParams {
                charge: -0.18,
                lj_eps: 0.08,
                lj_rmin: 2.06,
                ace_volume: 25.0,
                born_radius: 2.10,
            },
            AtomKind::ProbeN => NonbondedParams {
                charge: -0.60,
                lj_eps: 0.20,
                lj_rmin: 1.85,
                ace_volume: 14.0,
                born_radius: 1.70,
            },
        }
    }

    /// Builds an [`Atom`] of the given kind at `position`, resolving all parameters.
    pub fn make_atom(&self, id: usize, kind: AtomKind, position: Vec3, is_probe: bool) -> Atom {
        let p = self.nonbonded(kind);
        Atom {
            id,
            kind,
            position,
            charge: p.charge,
            lj_eps: p.lj_eps,
            lj_rmin: p.lj_rmin,
            ace_volume: p.ace_volume,
            born_radius: p.born_radius,
            is_probe,
        }
    }

    /// Combined Lennard-Jones well depth, Equation (9): `eps_ik = sqrt(eps_i * eps_k)`.
    #[inline]
    pub fn combine_eps(eps_i: Real, eps_k: Real) -> Real {
        (eps_i * eps_k).sqrt()
    }

    /// Combined Lennard-Jones distance, Equation (10): `rm_ik = (rm_i + rm_k) / 2`.
    #[inline]
    pub fn combine_rmin(rm_i: Real, rm_k: Real) -> Real {
        0.5 * (rm_i + rm_k)
    }
}

impl Default for ForceField {
    fn default() -> Self {
        ForceField::charmm_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_math::approx_eq;

    #[test]
    fn tau_consistent_with_dielectrics() {
        let ff = ForceField::charmm_like();
        assert!(approx_eq(ff.tau, 1.0 / ff.solute_dielectric - 1.0 / ff.solvent_dielectric, 1e-12));
        assert!(ff.tau > 0.0 && ff.tau < 1.0);
    }

    #[test]
    fn all_kinds_have_physical_parameters() {
        let ff = ForceField::charmm_like();
        for kind in AtomKind::ALL {
            let p = ff.nonbonded(kind);
            assert!(p.lj_eps > 0.0, "{kind:?}");
            assert!(p.lj_rmin > 0.0, "{kind:?}");
            assert!(p.ace_volume > 0.0, "{kind:?}");
            assert!(p.born_radius > 0.0, "{kind:?}");
            assert!(p.charge.abs() < 1.0, "{kind:?} charge should be a partial charge");
        }
    }

    #[test]
    fn hydrogens_are_small() {
        let ff = ForceField::charmm_like();
        let h = ff.nonbonded(AtomKind::ApolarH);
        let c = ff.nonbonded(AtomKind::AliphaticC);
        assert!(h.lj_rmin < c.lj_rmin);
        assert!(h.ace_volume < c.ace_volume);
    }

    #[test]
    fn make_atom_resolves_parameters() {
        let ff = ForceField::charmm_like();
        let a = ff.make_atom(7, AtomKind::PolarO, Vec3::new(1.0, 2.0, 3.0), true);
        assert_eq!(a.id, 7);
        assert!(a.is_probe);
        assert_eq!(a.charge, ff.nonbonded(AtomKind::PolarO).charge);
        assert_eq!(a.position, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn lorentz_berthelot_combination_rules() {
        assert!(approx_eq(ForceField::combine_eps(0.04, 0.09), 0.06, 1e-12));
        assert!(approx_eq(ForceField::combine_rmin(2.0, 3.0), 2.5, 1e-12));
        // Combining identical parameters returns them unchanged.
        assert!(approx_eq(ForceField::combine_eps(0.2, 0.2), 0.2, 1e-12));
        assert!(approx_eq(ForceField::combine_rmin(1.8, 1.8), 1.8, 1e-12));
    }

    #[test]
    fn bonded_parameters_reasonable() {
        let ff = ForceField::charmm_like();
        assert!(ff.bond.k > 0.0 && ff.bond.r0 > 1.0 && ff.bond.r0 < 2.0);
        assert!(ff.angle.k > 0.0 && ff.angle.theta0 > 1.5 && ff.angle.theta0 < 2.2);
        assert!(ff.torsion.n >= 1);
        assert!(ff.improper.k > 0.0);
        assert!(ff.cutoff > 5.0);
    }
}
