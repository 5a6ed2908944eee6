//! Per-pair and per-atom energy terms with analytic radial gradients.
//!
//! These are the inner-loop functions of the minimization phase: each is evaluated for
//! ~10 000 atom-atom pairs per iteration (paper §V.B). The forms follow the paper's
//! Equations (5)–(10):
//!
//! * **ACE self energy** — a Born term plus a sum of pairwise corrections with a
//!   Gaussian short-range part and a `r⁴/(r⁴+µ⁴)²` volume part (Equations 5–6).
//! * **Generalized-Born pairwise interaction** — screened Coulomb (Equation 7) using
//!   the Still et al. GB denominator.
//! * **van der Waals** — a truncated-and-shifted Lennard-Jones 6-12 potential with the
//!   Lorentz–Berthelot combination rules of Equations (9)–(10). (The paper's Equation 8
//!   is a smoothed variant of the same 6-12 form; the truncated-shifted form used here
//!   has the same cost profile and the same cutoff behaviour, which is what the
//!   evaluation measures.)
//! * **bonded terms** — harmonic bonds/angles/impropers and a cosine torsion.
//!
//! Every non-bonded function returns `(energy, dE/dr)` so force evaluation reuses the
//! pair geometry; Born radii are treated as fixed during a minimization run (their
//! update is much less frequent than the per-iteration energy evaluation).

use ftmap_math::{Real, Vec3};
use ftmap_molecule::{Atom, ForceField};

/// Coulomb constant in kcal·Å/(mol·e²), the `332` of Equation (7).
pub const COULOMB_CONSTANT: Real = 332.0;

/// ACE self-energy of atom `i` due to its own Born term (first part of Equation 5):
/// `q_i² / (2 ε_s R_i)`.
#[inline]
pub fn born_self_energy(atom: &Atom, ff: &ForceField) -> Real {
    atom.charge * atom.charge * COULOMB_CONSTANT
        / (2.0 * ff.solvent_dielectric * atom.born_radius.max(0.1))
}

/// ACE pairwise self-energy correction `E_ik^self` of Equation (6) for the ordered pair
/// (i, k), together with its derivative with respect to `r`.
#[inline]
pub fn ace_pair_self_energy(
    atom_i: &Atom,
    atom_k: &Atom,
    r: Real,
    ff: &ForceField,
) -> (Real, Real) {
    let qi2 = atom_i.charge * atom_i.charge;
    let sigma = ff.ace_sigma * 0.5 * (atom_i.born_radius + atom_k.born_radius);
    let mu = ff.ace_mu * 0.5 * (atom_i.born_radius + atom_k.born_radius);
    let omega = ff.tau * qi2 * COULOMB_CONSTANT / (2.0 * sigma.max(0.1));

    // Gaussian short-range part.
    let g = (-r * r / (sigma * sigma)).exp();
    let gaussian = omega * g;
    let d_gaussian = omega * g * (-2.0 * r / (sigma * sigma));

    // Volume part: (τ q_i² V~_k / 8π) · r⁴ / (r⁴ + µ⁴)².
    let vk = atom_k.ace_volume;
    let pref = ff.tau * qi2 * COULOMB_CONSTANT * vk / (8.0 * std::f64::consts::PI);
    let r4 = r.powi(4);
    let mu4 = mu.powi(4);
    let denom = (r4 + mu4).powi(2);
    let volume = pref * r4 / denom;
    let d_volume = pref * (4.0 * r.powi(3) * (r4 + mu4) - 8.0 * r.powi(7)) / (r4 + mu4).powi(3);
    let _ = denom;

    (gaussian + volume, d_gaussian + d_volume)
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
pub fn angle_energy(pi: Vec3, pj: Vec3, pk: Vec3, ff: &ForceField) -> (Real, Real) {
    let v1 = (pi - pj).normalized();
    let v2 = (pk - pj).normalized();
    let cos_t = v1.dot(v2).clamp(-1.0, 1.0);
    let theta = cos_t.acos();
    let dt = theta - ff.angle.theta0;
    (ff.angle.k * dt * dt, theta)
}

/// Cosine torsion energy `k (1 + cos(nφ − δ))` for the dihedral i–j–k–l, returned with
/// the dihedral angle.
pub fn torsion_energy(pi: Vec3, pj: Vec3, pk: Vec3, pl: Vec3, ff: &ForceField) -> (Real, Real) {
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
pub fn improper_energy(pi: Vec3, pj: Vec3, pk: Vec3, pl: Vec3, ff: &ForceField) -> (Real, Real) {
    let normal = (pk - pj).cross(pl - pj).normalized();
    let dir = (pi - pj).normalized();
    let sin_psi = normal.dot(dir).clamp(-1.0, 1.0);
    let psi = sin_psi.asin() - ff.improper.psi0;
    (ff.improper.k * psi * psi, psi)
}

/// Pairwise force contribution on atom `i` from a radial pair term: `-dE/dr · r̂_ij`
/// where `r̂_ij` points from j to i. The force on j is the negative.
#[inline]
pub fn radial_force(pi: Vec3, pj: Vec3, de_dr: Real) -> Vec3 {
    let delta = pi - pj;
    let r = delta.norm().max(1e-6);
    delta * (-de_dr / r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::AtomKind;

    fn pair() -> (Atom, Atom, ForceField) {
        let ff = ForceField::charmm_like();
        let a = ff.make_atom(0, AtomKind::PolarO, Vec3::ZERO, false);
        let b = ff.make_atom(1, AtomKind::PolarH, Vec3::new(2.0, 0.0, 0.0), true);
        (a, b, ff)
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
        let (e_near, _) = ace_pair_self_energy(&a, &b, 2.0, &ff);
        let (e_far, _) = ace_pair_self_energy(&a, &b, 8.0, &ff);
        assert!(e_near.abs() > e_far.abs());
    }

    #[test]
    fn ace_gradient_matches_finite_difference() {
        let (a, b, ff) = pair();
        for r in [1.5, 2.5, 4.0, 6.0] {
            check_gradient(|r| ace_pair_self_energy(&a, &b, r, &ff), r, 1e-4);
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
        let pi = Vec3::new(2.0, 0.0, 0.0);
        let pj = Vec3::ZERO;
        let f_repulsive = radial_force(pi, pj, -1.0);
        assert!(f_repulsive.x > 0.0, "repulsion pushes i away from j");
        let f_attractive = radial_force(pi, pj, 1.0);
        assert!(f_attractive.x < 0.0, "attraction pulls i toward j");
    }
}
