//! Per-pair and per-atom energy terms with analytic radial gradients.
//!
//! These are the inner-loop functions of the minimization phase: each is evaluated for
//! ~10 000 atom-atom pairs per iteration (paper §V.B). The forms follow the paper's
//! Equations (5)–(10):
//!
//! * **ACE self energy** — a Born term plus a sum of pairwise corrections with a
//!   Gaussian short-range part and a `r⁴/(r⁴+µ⁴)²` volume part (Equations 5–6),
//!   evaluated for both atoms of a pair at once.
//! * **Generalized-Born pairwise interaction** — screened Coulomb (Equation 7) using
//!   the Still et al. GB denominator.
//! * **van der Waals** — a truncated-and-shifted Lennard-Jones 6-12 potential with the
//!   Lorentz–Berthelot combination rules of Equations (9)–(10). (The paper's Equation 8
//!   is a smoothed variant of the same 6-12 form; the truncated-shifted form used here
//!   has the same cost profile and the same cutoff behaviour, which is what the
//!   evaluation measures.)
//! * **bonded terms** — harmonic bonds/angles/impropers and a cosine torsion.
//!
//! Every non-bonded function takes the pair distance from one `PairGeometry` and
//! returns `(energy, dE/dr)`, so the distance is computed once per pair and the force
//! reuses it. The functions are `#[inline]`: a caller that reads only the energies
//! leaves the derivative arithmetic dead, and the compiler drops it. Born radii are
//! treated as fixed during a minimization run (their update is much less frequent than
//! the per-iteration energy evaluation).

use ftmap_math::{Real, Vec3};
use ftmap_molecule::{Atom, ForceField};

/// Coulomb constant in kcal·Å/(mol·e²), the `332` of Equation (7).
const COULOMB_CONSTANT: Real = 332.0;

/// ACE self-energy of atom `i` due to its own Born term (first part of Equation 5):
/// `q_i² / (2 ε_s R_i)`.
#[inline]
pub(crate) fn born_self_energy(atom: &Atom, ff: &ForceField) -> Real {
    atom.charge * atom.charge * COULOMB_CONSTANT
        / (2.0 * ff.solvent_dielectric * atom.born_radius.max(0.1))
}

/// The geometry of one atom pair `(i, j)`, computed once and shared by every
/// term of the pair and by its force: the separation `p_i − p_j` and its length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairGeometry {
    /// `p_i − p_j`.
    delta: Vec3,
    /// `|p_i − p_j|` (Å), bit for bit `p_i.distance(p_j)`.
    pub r: Real,
}

impl PairGeometry {
    /// The geometry of the pair at positions `pi` and `pj`.
    #[inline]
    pub fn new(pi: Vec3, pj: Vec3) -> Self {
        let delta = pi - pj;
        PairGeometry { delta, r: delta.norm() }
    }

    /// Force on atom `i` from a radial pair term with derivative `de_dr`:
    /// `−dE/dr · r̂_ij`, where `r̂_ij` points from j to i. The force on j is
    /// the negative.
    #[inline]
    pub fn force(&self, de_dr: Real) -> Vec3 {
        self.delta * (-de_dr / self.r.max(1e-6))
    }
}

/// Both ACE pairwise self-energy corrections of Equation (6) for the pair
/// (i, k) — `E_ik^self` (atom i's, from k's volume) then `E_ki^self` — each as
/// `(energy, dE/dr)`.
///
/// σ and µ are symmetric in the pair, so the Gaussian and the volume
/// denominators are evaluated once for both sides; only the charge and
/// volume prefactors differ. Each side is bit for bit what a one-sided
/// evaluation of that ordered pair gives.
#[inline]
pub fn ace_pair_self_energies(
    atom_i: &Atom,
    atom_k: &Atom,
    r: Real,
    ff: &ForceField,
) -> [(Real, Real); 2] {
    let sigma = ff.ace_sigma * 0.5 * (atom_i.born_radius + atom_k.born_radius);
    let mu = ff.ace_mu * 0.5 * (atom_i.born_radius + atom_k.born_radius);

    // Gaussian short-range part: ω_i · exp(−r²/σ²).
    let g = (-r * r / (sigma * sigma)).exp();
    let d_g = -2.0 * r / (sigma * sigma);

    // Volume part: (τ q_i² V~_k / 8π) · r⁴ / (r⁴ + µ⁴)².
    let r4 = r.powi(4);
    let s = r4 + mu.powi(4);
    let denom = s.powi(2);
    let d_numerator = 4.0 * r.powi(3) * s - 8.0 * r.powi(7);
    let d_denom = s.powi(3);

    let side = |charge: Real, other_volume: Real| {
        let q2 = charge * charge;
        let omega = ff.tau * q2 * COULOMB_CONSTANT / (2.0 * sigma.max(0.1));
        let pref = ff.tau * q2 * COULOMB_CONSTANT * other_volume / (8.0 * std::f64::consts::PI);
        let gaussian = omega * g;
        (gaussian + pref * r4 / denom, gaussian * d_g + pref * d_numerator / d_denom)
    };
    [side(atom_i.charge, atom_k.ace_volume), side(atom_k.charge, atom_i.ace_volume)]
}

/// Generalized-Born screened Coulomb interaction of Equation (7) for the pair (i, j):
/// `332 q_i q_j / r − τ·332 q_i q_j / f_GB`, with
/// `f_GB = sqrt(r² + α_i α_j exp(−r² / 4 α_i α_j))`. Returns `(energy, dE/dr)`.
#[inline]
pub fn gb_pair_energy(atom_i: &Atom, atom_j: &Atom, r: Real, ff: &ForceField) -> (Real, Real) {
    let qq = COULOMB_CONSTANT * atom_i.charge * atom_j.charge;
    let r_safe = r.max(0.05);

    // Coulomb part in the solute dielectric.
    let coulomb = qq / (ff.solute_dielectric * r_safe);
    let d_coulomb = -qq / (ff.solute_dielectric * r_safe * r_safe);

    // GB screening part.
    let aij = atom_i.born_radius * atom_j.born_radius;
    let expo = (-r_safe * r_safe / (4.0 * aij)).exp();
    let f2 = r_safe * r_safe + aij * expo;
    let f = f2.sqrt();
    let gb = -ff.tau * qq / f;
    // d f²/dr = 2r − (r/2)·exp(−r²/4αα) ; dE/dr = τ qq f⁻³ · (df²/dr)/2... sign handled below.
    let df2_dr = 2.0 * r_safe - (r_safe / 2.0) * expo;
    let d_gb = ff.tau * qq / (f2 * f) * 0.5 * df2_dr;

    (coulomb + gb, d_coulomb + d_gb)
}

/// Truncated-and-shifted Lennard-Jones 6-12 van der Waals energy for the pair (i, k)
/// (Equations 8–10). Zero at and beyond the cutoff. Returns `(energy, dE/dr)`.
#[inline]
pub fn vdw_pair_energy(atom_i: &Atom, atom_k: &Atom, r: Real, ff: &ForceField) -> (Real, Real) {
    let rc = ff.cutoff;
    if r >= rc {
        return (0.0, 0.0);
    }
    let eps = ForceField::combine_eps(atom_i.lj_eps, atom_k.lj_eps);
    let rm = ForceField::combine_rmin(atom_i.lj_rmin, atom_k.lj_rmin);
    let r_safe = r.max(0.5);

    let s6 = (rm / r_safe).powi(6);
    let s12 = s6 * s6;
    let sc6 = (rm / rc).powi(6);
    let sc12 = sc6 * sc6;

    let energy = eps * (s12 - 2.0 * s6) - eps * (sc12 - 2.0 * sc6);
    let d_energy = eps * (-12.0 * s12 + 12.0 * s6) / r_safe;
    (energy, d_energy)
}

/// Harmonic bond energy `k (r − r₀)²` and its derivative.
#[inline]
pub fn bond_energy(r: Real, ff: &ForceField) -> (Real, Real) {
    let dr = r - ff.bond.r0;
    (ff.bond.k * dr * dr, 2.0 * ff.bond.k * dr)
}

/// Harmonic angle energy `k (θ − θ₀)²` for the angle i–j–k, returned with the angle
/// itself (gradient propagation uses finite differences at the minimizer level for
/// angular terms; their cost share is ~0.2 %, Fig. 3(b)).
pub(crate) fn angle_energy(pi: Vec3, pj: Vec3, pk: Vec3, ff: &ForceField) -> (Real, Real) {
    let v1 = (pi - pj).normalized();
    let v2 = (pk - pj).normalized();
    let cos_t = v1.dot(v2).clamp(-1.0, 1.0);
    let theta = cos_t.acos();
    let dt = theta - ff.angle.theta0;
    (ff.angle.k * dt * dt, theta)
}

/// Cosine torsion energy `k (1 + cos(nφ − δ))` for the dihedral i–j–k–l, returned with
/// the dihedral angle.
pub(crate) fn torsion_energy(
    pi: Vec3,
    pj: Vec3,
    pk: Vec3,
    pl: Vec3,
    ff: &ForceField,
) -> (Real, Real) {
    let b1 = pj - pi;
    let b2 = pk - pj;
    let b3 = pl - pk;
    let n1 = b1.cross(b2);
    let n2 = b2.cross(b3);
    let m = n1.cross(b2.normalized());
    let x = n1.dot(n2);
    let y = m.dot(n2);
    let phi = y.atan2(x);
    let energy = ff.torsion.k * (1.0 + (ff.torsion.n as Real * phi - ff.torsion.delta).cos());
    (energy, phi)
}

/// Harmonic improper energy `k ψ²` where ψ is the angle between the plane (j, k, l) and
/// the bond j–i, returned with ψ.
pub(crate) fn improper_energy(
    pi: Vec3,
    pj: Vec3,
    pk: Vec3,
    pl: Vec3,
    ff: &ForceField,
) -> (Real, Real) {
    let normal = (pk - pj).cross(pl - pj).normalized();
    let dir = (pi - pj).normalized();
    let sin_psi = normal.dot(dir).clamp(-1.0, 1.0);
    let psi = sin_psi.asin() - ff.improper.psi0;
    (ff.improper.k * psi * psi, psi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::AtomKind;
    use proptest::prelude::*;

    fn pair() -> (Atom, Atom, ForceField) {
        let ff = ForceField::charmm_like();
        let a = ff.make_atom(0, AtomKind::PolarO, Vec3::ZERO, false);
        let b = ff.make_atom(1, AtomKind::PolarH, Vec3::new(2.0, 0.0, 0.0), true);
        (a, b, ff)
    }

    /// The one-sided ACE correction `E_ik^self` for the ordered pair (i, k),
    /// written out on its own: the reference each side of
    /// [`ace_pair_self_energies`] must match bit for bit.
    fn ace_pair_self_energy_reference(
        atom_i: &Atom,
        atom_k: &Atom,
        r: Real,
        ff: &ForceField,
    ) -> (Real, Real) {
        let qi2 = atom_i.charge * atom_i.charge;
        let sigma = ff.ace_sigma * 0.5 * (atom_i.born_radius + atom_k.born_radius);
        let mu = ff.ace_mu * 0.5 * (atom_i.born_radius + atom_k.born_radius);
        let omega = ff.tau * qi2 * COULOMB_CONSTANT / (2.0 * sigma.max(0.1));
        let g = (-r * r / (sigma * sigma)).exp();
        let gaussian = omega * g;
        let d_gaussian = omega * g * (-2.0 * r / (sigma * sigma));
        let vk = atom_k.ace_volume;
        let pref = ff.tau * qi2 * COULOMB_CONSTANT * vk / (8.0 * std::f64::consts::PI);
        let r4 = r.powi(4);
        let mu4 = mu.powi(4);
        let denom = (r4 + mu4).powi(2);
        let volume = pref * r4 / denom;
        let d_volume = pref * (4.0 * r.powi(3) * (r4 + mu4) - 8.0 * r.powi(7)) / (r4 + mu4).powi(3);
        (gaussian + volume, d_gaussian + d_volume)
    }

    proptest! {
        #[test]
        fn two_sided_ace_matches_two_one_sided_evaluations_bitwise(
            ki in 0usize..AtomKind::ALL.len(),
            kk in 0usize..AtomKind::ALL.len(),
            r in 0.01f64..12.0,
        ) {
            let ff = ForceField::charmm_like();
            let a = ff.make_atom(0, AtomKind::ALL[ki], Vec3::ZERO, false);
            let b = ff.make_atom(1, AtomKind::ALL[kk], Vec3::X * r, true);
            let [(e_ik, d_ik), (e_ki, d_ki)] = ace_pair_self_energies(&a, &b, r, &ff);
            let bits = |(e, d): (Real, Real)| (e.to_bits(), d.to_bits());
            prop_assert_eq!(bits((e_ik, d_ik)), bits(ace_pair_self_energy_reference(&a, &b, r, &ff)));
            prop_assert_eq!(bits((e_ki, d_ki)), bits(ace_pair_self_energy_reference(&b, &a, r, &ff)));
        }

        #[test]
        fn pair_geometry_matches_distance_and_the_radial_force_bitwise(
            x in -20.0f64..20.0,
            y in -20.0f64..20.0,
            z in -20.0f64..20.0,
            de_dr in -50.0f64..50.0,
        ) {
            let (pi, pj) = (Vec3::new(x, y, z), Vec3::new(0.5, -1.25, 3.0));
            let geom = PairGeometry::new(pi, pj);
            prop_assert_eq!(geom.r.to_bits(), pi.distance(pj).to_bits());
            // Reference: the radial force from its own norm of `pi - pj`.
            let delta = pi - pj;
            let f = delta * (-de_dr / delta.norm().max(1e-6));
            prop_assert_eq!(geom.force(de_dr).to_array().map(f64::to_bits), f.to_array().map(f64::to_bits));
        }
    }

    /// Checks dE/dr against a central finite difference.
    fn check_gradient(f: impl Fn(Real) -> (Real, Real), r: Real, tol: Real) {
        let h = 1e-6;
        let (_, analytic) = f(r);
        let (e_plus, _) = f(r + h);
        let (e_minus, _) = f(r - h);
        let numeric = (e_plus - e_minus) / (2.0 * h);
        assert!(
            (analytic - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric} at r={r}"
        );
    }

    #[test]
    fn born_self_energy_positive_and_scales_with_charge() {
        let (a, _, ff) = pair();
        let e = born_self_energy(&a, &ff);
        assert!(e > 0.0);
        let mut a2 = a;
        a2.charge *= 2.0;
        assert!((born_self_energy(&a2, &ff) / e - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ace_pair_self_energy_decays_with_distance() {
        let (a, b, ff) = pair();
        let near = ace_pair_self_energies(&a, &b, 2.0, &ff);
        let far = ace_pair_self_energies(&a, &b, 8.0, &ff);
        for side in 0..2 {
            assert!(near[side].0.abs() > far[side].0.abs());
        }
    }

    #[test]
    fn ace_gradient_matches_finite_difference() {
        let (a, b, ff) = pair();
        for r in [1.5, 2.5, 4.0, 6.0] {
            for side in 0..2 {
                check_gradient(|r| ace_pair_self_energies(&a, &b, r, &ff)[side], r, 1e-4);
            }
        }
    }

    #[test]
    fn gb_pair_energy_sign_follows_charges() {
        let (a, b, ff) = pair();
        // O (negative) with H (positive): attraction (negative energy).
        let (e, _) = gb_pair_energy(&a, &b, 2.5, &ff);
        assert!(e < 0.0);
        // Like charges repel.
        let mut b2 = b;
        b2.charge = -0.3;
        let (e2, _) = gb_pair_energy(&a, &b2, 2.5, &ff);
        assert!(e2 > 0.0);
    }

    #[test]
    fn gb_gradient_matches_finite_difference() {
        let (a, b, ff) = pair();
        for r in [1.5, 3.0, 5.0, 8.0] {
            check_gradient(|r| gb_pair_energy(&a, &b, r, &ff), r, 1e-4);
        }
    }

    #[test]
    fn gb_screening_reduces_coulomb_magnitude() {
        let (a, b, ff) = pair();
        let r = 3.0;
        let (full, _) = gb_pair_energy(&a, &b, r, &ff);
        let bare = COULOMB_CONSTANT * a.charge * b.charge / r;
        assert!(full.abs() < bare.abs(), "screened {full} vs bare {bare}");
    }

    #[test]
    fn vdw_minimum_is_near_rm_and_zero_past_cutoff() {
        let (a, b, ff) = pair();
        let rm = ForceField::combine_rmin(a.lj_rmin, b.lj_rmin);
        let (e_at_rm, d_at_rm) = vdw_pair_energy(&a, &b, rm, &ff);
        assert!(e_at_rm < 0.0, "well depth should be negative at rm");
        assert!(d_at_rm.abs() < 1e-6, "gradient ~0 at the minimum, got {d_at_rm}");
        let (e_past, d_past) = vdw_pair_energy(&a, &b, ff.cutoff + 1.0, &ff);
        assert_eq!(e_past, 0.0);
        assert_eq!(d_past, 0.0);
        // Strongly repulsive at short range.
        let (e_close, _) = vdw_pair_energy(&a, &b, 0.8, &ff);
        assert!(e_close > 0.0);
    }

    #[test]
    fn vdw_gradient_matches_finite_difference() {
        let (a, b, ff) = pair();
        for r in [1.5, 2.0, 3.0, 5.0] {
            check_gradient(|r| vdw_pair_energy(&a, &b, r, &ff), r, 1e-3);
        }
    }

    #[test]
    fn bond_energy_zero_at_equilibrium() {
        let ff = ForceField::charmm_like();
        let (e, d) = bond_energy(ff.bond.r0, &ff);
        assert_eq!(e, 0.0);
        assert_eq!(d, 0.0);
        let (e_stretch, d_stretch) = bond_energy(ff.bond.r0 + 0.2, &ff);
        assert!(e_stretch > 0.0);
        assert!(d_stretch > 0.0);
    }

    #[test]
    fn angle_energy_zero_at_equilibrium() {
        let ff = ForceField::charmm_like();
        let theta0 = ff.angle.theta0;
        // Build three points with the equilibrium angle at pj.
        let pj = Vec3::ZERO;
        let pi = Vec3::X;
        let pk = Vec3::new(theta0.cos(), theta0.sin(), 0.0);
        let (e, theta) = angle_energy(pi, pj, pk, &ff);
        assert!((theta - theta0).abs() < 1e-9);
        assert!(e.abs() < 1e-12);
        // A right angle differs from equilibrium and costs energy.
        let (e90, _) = angle_energy(Vec3::X, Vec3::ZERO, Vec3::Y, &ff);
        assert!(e90 > 0.0);
    }

    #[test]
    fn torsion_energy_periodicity() {
        let ff = ForceField::charmm_like();
        // Planar cis arrangement: phi = 0.
        let (e0, phi0) = torsion_energy(
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::ZERO,
            Vec3::new(1.0, -0.5, 0.0),
            &ff,
        );
        assert!(phi0.abs() < 1e-6 || (phi0.abs() - std::f64::consts::PI).abs() < 1e-6);
        assert!(e0 >= 0.0 && e0 <= 2.0 * ff.torsion.k + 1e-9);
    }

    #[test]
    fn improper_energy_zero_for_planar() {
        let ff = ForceField::charmm_like();
        let (e, psi) = improper_energy(Vec3::new(1.0, 1.0, 0.0), Vec3::ZERO, Vec3::X, Vec3::Y, &ff);
        assert!(psi.abs() < 1e-9);
        assert!(e.abs() < 1e-12);
        let (e_out, _) =
            improper_energy(Vec3::new(1.0, 1.0, 0.8), Vec3::ZERO, Vec3::X, Vec3::Y, &ff);
        assert!(e_out > 0.0);
    }

    #[test]
    fn radial_force_direction() {
        // Repulsive pair (positive dE/dr means energy increases with distance, i.e.
        // attraction; negative dE/dr is repulsion pushing atoms apart).
        let geom = PairGeometry::new(Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO);
        let f_repulsive = geom.force(-1.0);
        assert!(f_repulsive.x > 0.0, "repulsion pushes i away from j");
        let f_attractive = geom.force(1.0);
        assert!(f_attractive.x < 0.0, "attraction pulls i toward j");
    }
}
