//! Serial reference evaluator over neighbor lists.
//!
//! This is the structure of the original FTMap minimization code (paper Fig. 7): cycle
//! through the atom pairs of the neighbor list, compute the partial energies of both
//! atoms of each pair, and accumulate them into the per-atom energy array. It is the
//! correctness oracle for every GPU scheme in [`crate::gpu`], and its per-term timing
//! split regenerates Fig. 3(b). [`Evaluator::energy`] runs the same loops for callers
//! that read only the energy.
//!
//! The protein is rigid during minimization; only the probe moves. A term whose
//! atoms are all immobile — a protein–protein pair, a protein-only bonded term — and
//! the protein's Born sum, which does not depend on position, keep their values as
//! long as the protein does. `Evaluator::energy_recording` records those values in
//! a `RigidTerms` once; `Evaluator::energy_cached` re-adds them in loop order and
//! computes only the terms that touch the probe: bit for bit [`Evaluator::energy`],
//! for the cost of the probe's terms plus one add per recorded term. The pair
//! loops walk the list atom by atom. An immobile atom's run holds its immobile
//! partners first (ascending partners, the probe's atoms last), so its rigid
//! pairs are one prefix of the run, found by a binary search and replayed as
//! one slice of recorded values with no per-pair test; only the run's mobile
//! suffix is computed. Each stream stays one left fold in list order, and a
//! replay asserts that it consumed its stream exactly.

use crate::terms::{self, PairGeometry};
use ftmap_math::{Real, Vec3};
use ftmap_molecule::{Complex, ForceField, NeighborList};
use gpu_sim::wall_timed;
use std::ops::Range;

/// Energy of one conformation, split by term (the decomposition of Equation 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// ACE electrostatics: Born self energies + pairwise self corrections + GB pairs.
    pub electrostatics: Real,
    /// van der Waals energy.
    pub vdw: Real,
    /// Bonded energy (bond + angle + torsion + improper).
    pub bonded: Real,
    /// Wall-clock seconds spent evaluating the electrostatic terms.
    pub elec_time_s: f64,
    /// Wall-clock seconds spent evaluating the van der Waals term.
    pub vdw_time_s: f64,
    /// Wall-clock seconds spent evaluating the bonded terms.
    pub bonded_time_s: f64,
}

impl EnergyBreakdown {
    /// Total potential energy.
    pub fn total(&self) -> Real {
        self.electrostatics + self.vdw + self.bonded
    }

    /// Total evaluation time.
    fn total_time_s(&self) -> f64 {
        self.elec_time_s + self.vdw_time_s + self.bonded_time_s
    }

    /// Percentage split `(electrostatics, vdw, bonded)` of the evaluation time —
    /// the quantities of Fig. 3(b).
    pub fn time_percentages(&self) -> (f64, f64, f64) {
        let t = self.total_time_s();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (100.0 * self.elec_time_s / t, 100.0 * self.vdw_time_s / t, 100.0 * self.bonded_time_s / t)
    }
}

/// The values of the terms whose atoms are all immobile (`!complex.is_mobile`),
/// in loop order: recorded by [`Evaluator::energy_recording`], replayed by
/// [`Evaluator::energy_cached`].
///
/// A record is valid for one set of immobile atoms, not for one neighbor list.
/// It holds for any complex whose immobile atoms (positions, parameters, bonded
/// terms) and force field are the recording's, evaluated against any list whose
/// pairs among the immobile atoms are the recording list's, in the same order.
/// The mobile atoms may be of any kind and anywhere. Every list
/// [`NeighborList::splice`] makes from one list of the immobile atoms
/// qualifies, and so does [`NeighborList::build`] over the whole complex. So
/// one record serves every probe type and survives every neighbor-list refresh.
#[derive(Debug)]
pub(crate) struct RigidTerms {
    /// One stream per term loop: the Born sum of the immobile atoms (which does
    /// not depend on position; a replay adds the mobile atoms' terms to it in
    /// order, so the fold is the one over every atom) followed by
    /// `e_ik + e_ki + e_gb` of each rigid pair; the van der Waals term of each
    /// rigid pair; each rigid bond, angle, torsion and improper term.
    streams: [Vec<Real>; 3],
}

impl RigidTerms {
    /// The three streams, replaying.
    fn replay(&self) -> [TermCache<'_>; 3] {
        self.streams.each_ref().map(|values| TermCache::Replay(values))
    }
}

/// Why a replay ran out of recorded values.
const RECORD_TOO_SHORT: &str = "the rigid-term record holds fewer terms than the list";

/// One term loop's side of a [`RigidTerms`] cache.
enum TermCache<'a> {
    /// No cache: every term is computed.
    Off,
    /// Each rigid term's computed value is appended.
    Record(&'a mut Vec<Real>),
    /// The recorded values not yet replayed: a rigid term's value is the
    /// first of them.
    Replay(&'a [Real]),
}

impl TermCache<'_> {
    /// No cache for any of the three term loops.
    const OFF: [TermCache<'static>; 3] = [TermCache::Off, TermCache::Off, TermCache::Off];

    /// The recorded value of the next term, if it is rigid and recorded.
    ///
    /// # Panics
    /// Panics if a replay has no value left.
    #[inline]
    fn replay(&mut self, rigid: bool) -> Option<Real> {
        match self {
            TermCache::Replay(values) if rigid => {
                let (&value, rest) = values.split_first().expect(RECORD_TOO_SHORT);
                *values = rest;
                Some(value)
            }
            _ => None,
        }
    }

    /// Records a computed term's value, if it is rigid and being recorded.
    #[inline]
    fn record(&mut self, rigid: bool, value: Real) {
        if let (TermCache::Record(values), true) = (self, rigid) {
            values.push(value);
        }
    }

    /// `sum` plus the values of the rigid terms `terms`, in order: the next
    /// `terms.len()` recorded values when replaying — one add each, the
    /// terms unread — and otherwise `value(term)` of each, recorded when
    /// recording.
    ///
    /// # Panics
    /// Panics if a replay has fewer values left than `terms`.
    #[inline]
    fn add_rigid<T: Copy>(
        &mut self,
        sum: Real,
        terms: &[T],
        mut value: impl FnMut(T) -> Real,
    ) -> Real {
        match self {
            TermCache::Off => terms.iter().fold(sum, |sum, &term| sum + value(term)),
            TermCache::Record(values) => terms.iter().fold(sum, |sum, &term| {
                let e = value(term);
                values.push(e);
                sum + e
            }),
            TermCache::Replay(values) => {
                let (replayed, rest) =
                    values.split_at_checked(terms.len()).expect(RECORD_TOO_SHORT);
                *values = rest;
                replayed.iter().fold(sum, |sum, &e| sum + e)
            }
        }
    }

    /// Ends the loop: a replay must have consumed its stream exactly.
    ///
    /// # Panics
    /// Panics if a replay left recorded values over.
    fn finish(self) {
        if let TermCache::Replay(values) = self {
            assert!(
                values.is_empty(),
                "the rigid-term record holds more terms than the list: {} left over",
                values.len()
            );
        }
    }
}

/// The serial neighbor-list evaluator.
pub struct Evaluator {
    ff: ForceField,
}

/// The result of one full evaluation: per-atom energies, forces, and the breakdown.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-atom non-bonded energy (self + half of each pair term assigned to each atom).
    pub atom_energies: Vec<Real>,
    /// Per-atom forces (negative energy gradient), kcal/mol/Å.
    pub forces: Vec<Vec3>,
    /// Term-by-term totals and timings.
    pub breakdown: EnergyBreakdown,
}

impl Evaluator {
    /// Creates an evaluator with the given force field.
    pub fn new(ff: ForceField) -> Self {
        Evaluator { ff }
    }

    /// Evaluates the full potential of `complex` using the pairs of `neighbors`.
    pub fn evaluate(&self, complex: &Complex, neighbors: &NeighborList) -> Evaluation {
        self.evaluate_inner::<true, false>(complex, neighbors, true, TermCache::OFF)
    }

    /// Evaluates only the energy: the breakdown [`Evaluator::evaluate`] returns,
    /// bit for bit and with the same per-term timings, without the per-atom
    /// energies and forces — and so without any derivative arithmetic. The
    /// minimizer's trial steps read nothing else.
    pub fn energy(&self, complex: &Complex, neighbors: &NeighborList) -> EnergyBreakdown {
        self.evaluate_inner::<false, false>(complex, neighbors, true, TermCache::OFF).breakdown
    }

    /// [`Evaluator::energy`], recording the terms whose atoms are all immobile
    /// as it goes. Costs what `energy` costs.
    pub(crate) fn energy_recording(
        &self,
        complex: &Complex,
        neighbors: &NeighborList,
    ) -> (EnergyBreakdown, RigidTerms) {
        let mut streams = [1 + neighbors.n_pairs(), neighbors.n_pairs(), 0].map(Vec::with_capacity);
        let caches = streams.each_mut().map(TermCache::Record);
        let breakdown =
            self.evaluate_inner::<false, true>(complex, neighbors, true, caches).breakdown;
        (breakdown, RigidTerms { streams })
    }

    /// [`Evaluator::energy`] for a caller that moves only the mobile atoms:
    /// the same breakdown bit for bit, as long as `rigid` is valid for
    /// `complex` and `neighbors` (see [`RigidTerms`]). It re-adds the recorded
    /// values in loop order and computes only the terms that touch a mobile
    /// atom; its timings are of that work.
    pub(crate) fn energy_cached(
        &self,
        complex: &Complex,
        neighbors: &NeighborList,
        rigid: &RigidTerms,
    ) -> EnergyBreakdown {
        self.evaluate_inner::<false, true>(complex, neighbors, true, rigid.replay()).breakdown
    }

    /// The evaluation body. `FORCES` selects the full output (per-atom
    /// energies and forces); without it both vectors stay empty, and the
    /// derivatives the terms return are dead code. `CACHED` (energy-only, with
    /// recording or replaying `caches`) takes the rigid terms' values from the
    /// cache, or records them there; without it (`caches` off) the cache code
    /// is dead too. Either way each term total sums the same values in the
    /// same order, so the breakdowns agree bitwise.
    fn evaluate_inner<const FORCES: bool, const CACHED: bool>(
        &self,
        complex: &Complex,
        neighbors: &NeighborList,
        include_bonded: bool,
        caches: [TermCache<'_>; 3],
    ) -> Evaluation {
        debug_assert!(!(FORCES && CACHED), "cached terms carry no forces");
        debug_assert_eq!(CACHED, !matches!(caches[0], TermCache::Off));
        let n = if FORCES { complex.n_atoms() } else { 0 };
        let mut atom_energies = vec![0.0; n];
        let mut forces = vec![Vec3::ZERO; n];
        let mut breakdown = EnergyBreakdown::default();

        let [mut elec_cache, mut vdw_cache, mut bonded_cache] = caches;
        // Atom `i` is mobile iff `i >= first_mobile`.
        let first_mobile = complex.probe_offset;
        let all_rigid = |atoms: &[usize]| CACHED && atoms.iter().all(|&a| a < first_mobile);
        // Atom `i`'s run, as its rigid pairs' partners and its mobile ones:
        // partners ascend and the mobile atoms come last, so an immobile
        // atom's rigid partners are a prefix, and a mobile atom has none.
        let runs = || {
            (0..neighbors.n_atoms()).map(move |i| {
                let run = neighbors.neighbors(i);
                let rigid =
                    if i < first_mobile { run.partition_point(|&j| j < first_mobile) } else { 0 };
                (i, run.split_at(rigid))
            })
        };

        // --- Electrostatics: Born self term per atom, ACE pair corrections and GB pairs.
        let (elec, elec_wall_s) = wall_timed(|| {
            // The Born sum does not depend on position: the immobile atoms'
            // prefix is the stream's first value, and the mobile atoms' terms
            // continue the same left fold.
            let mut elec = match elec_cache.replay(CACHED) {
                Some(prefix) => prefix,
                None => {
                    let prefix = self.add_born(0.0, complex, 0..first_mobile, &mut atom_energies);
                    elec_cache.record(CACHED, prefix);
                    prefix
                }
            };
            elec =
                self.add_born(elec, complex, first_mobile..complex.n_atoms(), &mut atom_energies);
            let mut pair = |i: usize, j: usize| {
                let ai = &complex.atoms[i];
                let aj = &complex.atoms[j];
                let geom = PairGeometry::new(ai.position, aj.position);

                // ACE pairwise self-energy corrections, both directions (E_ik and E_ki).
                let [(e_ik, d_ik), (e_ki, d_ki)] =
                    terms::ace_pair_self_energies(ai, aj, geom.r, &self.ff);
                // GB pairwise interaction, shared half-and-half between the two atoms.
                let (e_gb, d_gb) = terms::gb_pair_energy(ai, aj, geom.r, &self.ff);
                if FORCES {
                    atom_energies[i] += e_ik + 0.5 * e_gb;
                    atom_energies[j] += e_ki + 0.5 * e_gb;
                    let f = geom.force(d_ik + d_ki + d_gb);
                    forces[i] += f;
                    forces[j] -= f;
                }
                e_ik + e_ki + e_gb
            };
            for (i, (rigid, mobile)) in runs() {
                elec = elec_cache.add_rigid(elec, rigid, |j| pair(i, j));
                for &j in mobile {
                    elec += pair(i, j);
                }
            }
            elec
        });
        elec_cache.finish();
        breakdown.electrostatics = elec;
        breakdown.elec_time_s = elec_wall_s;

        // --- van der Waals over the same pairs.
        let (vdw, vdw_wall_s) = wall_timed(|| {
            let mut pair = |i: usize, j: usize| {
                let ai = &complex.atoms[i];
                let aj = &complex.atoms[j];
                let geom = PairGeometry::new(ai.position, aj.position);
                let (e, de_dr) = terms::vdw_pair_energy(ai, aj, geom.r, &self.ff);
                if FORCES {
                    atom_energies[i] += 0.5 * e;
                    atom_energies[j] += 0.5 * e;
                    let f = geom.force(de_dr);
                    forces[i] += f;
                    forces[j] -= f;
                }
                e
            };
            let mut vdw = 0.0;
            for (i, (rigid, mobile)) in runs() {
                vdw = vdw_cache.add_rigid(vdw, rigid, |j| pair(i, j));
                for &j in mobile {
                    vdw += pair(i, j);
                }
            }
            vdw
        });
        vdw_cache.finish();
        breakdown.vdw = vdw;
        breakdown.vdw_time_s = vdw_wall_s;

        // --- Bonded terms (left on the host in the paper as well).
        if !include_bonded {
            return Evaluation { atom_energies, forces, breakdown };
        }
        let (bonded, bonded_wall_s) = wall_timed(|| {
            let mut bonded = 0.0;
            for bond in complex.topology.bonds() {
                let rigid = all_rigid(&[bond.i, bond.j]);
                if let Some(e) = bonded_cache.replay(rigid) {
                    bonded += e;
                    continue;
                }
                let geom = PairGeometry::new(
                    complex.atoms[bond.i].position,
                    complex.atoms[bond.j].position,
                );
                let (e, de_dr) = terms::bond_energy(geom.r, &self.ff);
                bonded_cache.record(rigid, e);
                bonded += e;
                if FORCES {
                    let f = geom.force(de_dr);
                    forces[bond.i] += f;
                    forces[bond.j] -= f;
                }
            }
            for angle in complex.topology.angles() {
                let rigid = all_rigid(&[angle.i, angle.j, angle.k]);
                if let Some(e) = bonded_cache.replay(rigid) {
                    bonded += e;
                    continue;
                }
                let (e, _) = terms::angle_energy(
                    complex.atoms[angle.i].position,
                    complex.atoms[angle.j].position,
                    complex.atoms[angle.k].position,
                    &self.ff,
                );
                bonded_cache.record(rigid, e);
                bonded += e;
            }
            for torsion in complex.topology.torsions() {
                let rigid = all_rigid(&[torsion.i, torsion.j, torsion.k, torsion.l]);
                if let Some(e) = bonded_cache.replay(rigid) {
                    bonded += e;
                    continue;
                }
                let (e, _) = terms::torsion_energy(
                    complex.atoms[torsion.i].position,
                    complex.atoms[torsion.j].position,
                    complex.atoms[torsion.k].position,
                    complex.atoms[torsion.l].position,
                    &self.ff,
                );
                bonded_cache.record(rigid, e);
                bonded += e;
            }
            for improper in complex.topology.impropers() {
                let rigid = all_rigid(&[improper.i, improper.j, improper.k, improper.l]);
                if let Some(e) = bonded_cache.replay(rigid) {
                    bonded += e;
                    continue;
                }
                let (e, _) = terms::improper_energy(
                    complex.atoms[improper.i].position,
                    complex.atoms[improper.j].position,
                    complex.atoms[improper.k].position,
                    complex.atoms[improper.l].position,
                    &self.ff,
                );
                bonded_cache.record(rigid, e);
                bonded += e;
            }
            bonded
        });
        bonded_cache.finish();
        breakdown.bonded = bonded;
        breakdown.bonded_time_s = bonded_wall_s;

        Evaluation { atom_energies, forces, breakdown }
    }

    /// `sum` plus the Born self energies of `atoms` in order, each also added
    /// to its atom's entry of `energies` when there is one.
    fn add_born(
        &self,
        mut sum: Real,
        complex: &Complex,
        atoms: Range<usize>,
        energies: &mut [Real],
    ) -> Real {
        for i in atoms {
            let e = terms::born_self_energy(&complex.atoms[i], &self.ff);
            if let Some(energy) = energies.get_mut(i) {
                *energy += e;
            }
            sum += e;
        }
        sum
    }

    /// Evaluates only the non-bonded energy terms (energies *and* forces exclude the
    /// bonded contributions); used by tests comparing against the GPU kernels, which
    /// handle exactly this part.
    pub fn evaluate_nonbonded(&self, complex: &Complex, neighbors: &NeighborList) -> Evaluation {
        self.evaluate_inner::<true, false>(complex, neighbors, false, TermCache::OFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{Probe, ProbeType, ProteinSpec, SyntheticProtein};
    use proptest::prelude::*;

    fn small_system() -> (Complex, NeighborList, Evaluator) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let probe = Probe::new(ProbeType::Ethanol, &ff);
        // Place the probe at the first pocket so it is in contact with the protein.
        let mut posed = probe.clone();
        let target = protein.pocket_centers[0];
        for a in &mut posed.atoms {
            a.position += target;
        }
        let complex = Complex::new(&protein, &posed);
        let excluded = complex.topology.excluded_pairs();
        let neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
        (complex, neighbors, Evaluator::new(ff))
    }

    #[test]
    fn evaluation_produces_finite_energies_and_forces() {
        let (complex, neighbors, evaluator) = small_system();
        let eval = evaluator.evaluate(&complex, &neighbors);
        assert_eq!(eval.atom_energies.len(), complex.n_atoms());
        assert_eq!(eval.forces.len(), complex.n_atoms());
        assert!(eval.breakdown.total().is_finite());
        assert!(eval.atom_energies.iter().all(|e| e.is_finite()));
        assert!(eval.forces.iter().all(|f| f.is_finite()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn energy_only_evaluation_matches_the_full_breakdown_bitwise(
            x in -4.0f64..4.0,
            y in -4.0f64..4.0,
            z in -4.0f64..4.0,
        ) {
            // The probe anywhere around the pocket, with the list rebuilt there.
            let (mut complex, _, evaluator) = small_system();
            let mut positions = complex.positions();
            for pos in positions.iter_mut().skip(complex.probe_offset) {
                *pos += Vec3::new(x, y, z);
            }
            complex.set_positions(&positions);
            let excluded = complex.topology.excluded_pairs();
            let neighbors = NeighborList::build(&complex.atoms, evaluator.ff.cutoff, &excluded);

            let full = evaluator.evaluate(&complex, &neighbors).breakdown;
            let energy = evaluator.energy(&complex, &neighbors);
            let bits =
                |b: &EnergyBreakdown| [b.electrostatics, b.vdw, b.bonded].map(f64::to_bits);
            prop_assert_eq!(bits(&energy), bits(&full));
            prop_assert!(energy.elec_time_s > 0.0 && energy.vdw_time_s > 0.0);
        }
    }

    /// Moves the probe atoms of `complex` by `offset`.
    fn shift_probe(complex: &mut Complex, offset: Vec3) {
        let first = complex.probe_offset;
        for atom in &mut complex.atoms[first..] {
            atom.position += offset;
        }
    }

    /// The bits of a breakdown's three term totals.
    fn bits(b: &EnergyBreakdown) -> [u64; 3] {
        [b.electrostatics, b.vdw, b.bonded].map(f64::to_bits)
    }

    /// Asserts the cached energy equals the plain one bitwise, term by term.
    fn assert_cached_matches(
        evaluator: &Evaluator,
        complex: &Complex,
        neighbors: &NeighborList,
        rigid: &RigidTerms,
    ) -> TestCaseResult {
        let plain = evaluator.energy(complex, neighbors);
        let cached = evaluator.energy_cached(complex, neighbors, rigid);
        prop_assert_eq!(bits(&cached), bits(&plain));
        Ok(())
    }

    /// Records `complex`'s rigid terms against `neighbors`, asserting that the
    /// recording evaluation is [`Evaluator::energy`] bit for bit.
    fn record(evaluator: &Evaluator, complex: &Complex, neighbors: &NeighborList) -> RigidTerms {
        let (breakdown, rigid) = evaluator.energy_recording(complex, neighbors);
        assert_eq!(bits(&breakdown), bits(&evaluator.energy(complex, neighbors)));
        rigid
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn cached_energy_matches_the_plain_energy_bitwise(
            start in prop::array::uniform3(-4.0f64..4.0),
            moves in prop::collection::vec(prop::array::uniform3(-0.6f64..0.6), 1..5),
        ) {
            // The probe anywhere around the pocket, the list built there: one
            // record, replayed as the probe moves and, the protein unmoved,
            // after the list is rebuilt where the probe now is.
            let (mut complex, _, evaluator) = small_system();
            shift_probe(&mut complex, Vec3::from_array(start));
            let excluded = complex.topology.excluded_pairs();
            let cutoff = evaluator.ff.cutoff;
            let mut neighbors = NeighborList::build(&complex.atoms, cutoff, &excluded);
            let rigid = record(&evaluator, &complex, &neighbors);
            for (k, step) in moves.iter().enumerate() {
                shift_probe(&mut complex, Vec3::from_array(*step));
                if k == moves.len() / 2 {
                    neighbors = NeighborList::build(&complex.atoms, cutoff, &excluded);
                }
                assert_cached_matches(&evaluator, &complex, &neighbors, &rigid)?;
            }
            // The record holds exactly the rigid pairs' two terms.
            let rigid_pairs =
                neighbors.iter_pairs().filter(|&(_, j)| !complex.is_mobile(j)).count();
            prop_assert_eq!((rigid.streams[0].len(), rigid.streams[1].len()), (1 + rigid_pairs, rigid_pairs));
        }
    }

    #[test]
    fn one_record_serves_every_probe_type() {
        // One record of the protein's terms, made with ethanol in the pocket,
        // then replayed for every probe type at two poses, after the probe
        // moves and after a refresh: every list is spliced from the protein's.
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let evaluator = Evaluator::new(ff.clone());
        let protein_excluded = protein.topology.excluded_pairs();
        let protein_list = NeighborList::build(&protein.atoms, ff.cutoff, &protein_excluded);
        let splice = |complex: &Complex| {
            let probe = complex.probe_offset..complex.n_atoms();
            protein_list.splice(&complex.atoms, &complex.topology.excluded_pairs_within(probe))
        };
        let posed = |probe_type, at: Vec3| {
            let mut probe = Probe::new(probe_type, &ff);
            for a in &mut probe.atoms {
                a.position += at;
            }
            Complex::new(&protein, &probe)
        };

        let pocket = protein.pocket_centers[0];
        let first = posed(ProbeType::Ethanol, pocket);
        let rigid = record(&evaluator, &first, &splice(&first));
        for probe_type in ProbeType::ALL {
            for at in [pocket, pocket + Vec3::new(1.5, -2.0, 0.5)] {
                let mut complex = posed(probe_type, at);
                let neighbors = splice(&complex);
                assert_cached_matches(&evaluator, &complex, &neighbors, &rigid).unwrap();
                shift_probe(&mut complex, Vec3::new(0.4, 0.3, -0.6));
                assert_cached_matches(&evaluator, &complex, &neighbors, &rigid).unwrap();
                assert_cached_matches(&evaluator, &complex, &splice(&complex), &rigid).unwrap();
            }
        }
    }

    #[test]
    fn cached_energy_matches_for_a_probe_with_no_protein_pairs() {
        // 100 Å from the protein the probe pairs only with itself; the record
        // then covers every protein pair and every protein bonded term.
        let (mut complex, _, evaluator) = small_system();
        shift_probe(&mut complex, Vec3::new(100.0, 0.0, 0.0));
        let excluded = complex.topology.excluded_pairs();
        let neighbors = NeighborList::build(&complex.atoms, evaluator.ff.cutoff, &excluded);
        let offset = complex.probe_offset;
        assert!(neighbors.iter_pairs().all(|(i, j)| (i < offset) == (j < offset)));

        let rigid = record(&evaluator, &complex, &neighbors);
        for step in [Vec3::ZERO, Vec3::new(0.3, -0.2, 0.1), Vec3::new(-0.5, 0.0, 0.4)] {
            shift_probe(&mut complex, step);
            assert_cached_matches(&evaluator, &complex, &neighbors, &rigid).unwrap();
        }
        let protein_pairs = neighbors.iter_pairs().filter(|&(_, j)| j < offset).count();
        assert_eq!(rigid.streams[0].len(), 1 + protein_pairs);
        let protein_bonds = complex.topology.bonds().iter().filter(|b| b.j < offset).count();
        assert!(rigid.streams[2].len() >= protein_bonds && protein_bonds > 0);
    }

    /// The small system with its full list, and the same list with one
    /// protein–protein pair dropped (excluded).
    fn list_and_list_less_one_protein_pair() -> (Complex, NeighborList, NeighborList, Evaluator) {
        let (complex, neighbors, evaluator) = small_system();
        let offset = complex.probe_offset;
        let dropped = neighbors.iter_pairs().filter(|&(_, j)| j < offset).nth(100).unwrap();
        let mut excluded = complex.topology.excluded_pairs();
        excluded.insert(dropped);
        let fewer = NeighborList::build(&complex.atoms, evaluator.ff.cutoff, &excluded);
        assert_eq!(fewer.n_pairs() + 1, neighbors.n_pairs());
        (complex, neighbors, fewer, evaluator)
    }

    #[test]
    #[should_panic(expected = "the rigid-term record holds fewer terms than the list")]
    fn replaying_a_record_of_fewer_protein_pairs_panics() {
        let (complex, neighbors, fewer, evaluator) = list_and_list_less_one_protein_pair();
        let rigid = record(&evaluator, &complex, &fewer);
        let _ = evaluator.energy_cached(&complex, &neighbors, &rigid);
    }

    #[test]
    #[should_panic(expected = "the rigid-term record holds more terms than the list: 1 left over")]
    fn replaying_a_record_of_more_protein_pairs_panics() {
        let (complex, neighbors, fewer, evaluator) = list_and_list_less_one_protein_pair();
        let rigid = record(&evaluator, &complex, &neighbors);
        let _ = evaluator.energy_cached(&complex, &fewer, &rigid);
    }

    #[test]
    fn electrostatics_dominates_evaluation_time() {
        // Fig. 3(b): electrostatics ~94 %, vdW ~5 %, bonded ~0.2 % of the
        // evaluation. The ordering is asserted on work the code counts, not
        // on the breakdown's wall-clock seconds, which move with the host's
        // load.
        let (mut complex, neighbors, evaluator) = small_system();
        let breakdown = evaluator.evaluate(&complex, &neighbors).breakdown;
        assert!(breakdown.electrostatics != 0.0 && breakdown.vdw != 0.0);
        assert!(breakdown.bonded != 0.0);

        // Elec > vdW > 0 on the GPU kernels' flop counters: the self-energy
        // kernel is electrostatics alone (Born and ACE), the pairwise one
        // holds all of van der Waals beside the GB pairs.
        let device = gpu_sim::Device::tesla_c1060();
        let ff = ForceField::charmm_like();
        let gpu = crate::gpu::GpuMinimizationEngine::new(&device, ff, &neighbors);
        let result = gpu.evaluate(&complex);
        let elec_flops = result.self_energy_stats().counters.flops;
        let pair_flops = result.pairwise_vdw_stats().counters.flops;
        assert!(elec_flops > pair_flops, "elec {elec_flops} vs GB + vdW {pair_flops} flops");
        assert!(pair_flops > 0);

        // Elec > bonded on the term evaluations the host loops run: with
        // every atom immobile, the record holds one value per evaluation
        // (the Born sum, then each pair's ACE and GB terms; each bonded
        // term).
        complex.probe_offset = complex.n_atoms();
        let (_, rigid) = evaluator.energy_recording(&complex, &neighbors);
        let [elec, vdw, bonded] = rigid.streams.each_ref().map(Vec::len);
        assert_eq!((elec, vdw), (1 + neighbors.n_pairs(), neighbors.n_pairs()));
        assert!(elec > bonded, "{elec} electrostatic vs {bonded} bonded evaluations");
        assert!(bonded > 0);
    }

    #[test]
    fn per_atom_energies_sum_to_nonbonded_total() {
        let (complex, neighbors, evaluator) = small_system();
        let eval = evaluator.evaluate(&complex, &neighbors);
        let sum: Real = eval.atom_energies.iter().sum();
        let nonbonded = eval.breakdown.electrostatics + eval.breakdown.vdw;
        assert!(
            (sum - nonbonded).abs() < 1e-6 * (1.0 + nonbonded.abs()),
            "per-atom sum {sum} vs breakdown {nonbonded}"
        );
    }

    #[test]
    fn forces_sum_to_zero_for_pair_terms() {
        // Newton's third law: radial pair forces cancel in the total. (Angular bonded
        // terms contribute no forces in this implementation.)
        let (complex, neighbors, evaluator) = small_system();
        let eval = evaluator.evaluate(&complex, &neighbors);
        let net: Vec3 = eval.forces.iter().copied().sum();
        let scale: Real = eval.forces.iter().map(|f| f.norm()).sum::<Real>().max(1.0);
        assert!(net.norm() / scale < 1e-9, "net force {net:?}");
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let b = EnergyBreakdown {
            electrostatics: -10.0,
            vdw: -1.0,
            bonded: 0.5,
            elec_time_s: 94.4,
            vdw_time_s: 5.4,
            bonded_time_s: 0.2,
        };
        let (e, v, d) = b.time_percentages();
        assert!((e + v + d - 100.0).abs() < 1e-9);
        assert!(e > 90.0);
        assert!((b.total() - (-10.5)).abs() < 1e-12);
        assert_eq!(EnergyBreakdown::default().time_percentages(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn nonbonded_evaluation_excludes_bonded_terms() {
        let (complex, neighbors, evaluator) = small_system();
        let nb = evaluator.evaluate_nonbonded(&complex, &neighbors);
        assert_eq!(nb.breakdown.bonded, 0.0);
        let full = evaluator.evaluate(&complex, &neighbors);
        assert!((nb.breakdown.electrostatics - full.breakdown.electrostatics).abs() < 1e-9);
    }

    #[test]
    fn moving_probe_away_reduces_interaction() {
        let (mut complex, _, evaluator) = small_system();
        let ff = evaluator.ff.clone();
        let excluded = complex.topology.excluded_pairs();
        let near_neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
        let near = evaluator.evaluate(&complex, &near_neighbors);

        // Translate the probe 100 Å away: non-bonded cross terms vanish.
        let offset = Vec3::new(100.0, 0.0, 0.0);
        let mut positions = complex.positions();
        for pos in positions.iter_mut().skip(complex.probe_offset) {
            *pos += offset;
        }
        complex.set_positions(&positions);
        let far_neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
        let far = evaluator.evaluate(&complex, &far_neighbors);

        // The far configuration has fewer interacting pairs.
        assert!(far_neighbors.n_pairs() < near_neighbors.n_pairs());
        assert!(near.breakdown.total().is_finite() && far.breakdown.total().is_finite());
    }
}
