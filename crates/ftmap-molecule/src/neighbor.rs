//! Neighbor-list construction.
//!
//! Serial FTMap stores, for every "first" atom, the list of "second" atoms within the
//! non-bonded cutoff that contribute to its energy (paper Fig. 7). The list is built
//! once and only rarely updated during minimization ("seldom updated", §II.B) — unlike
//! MD, where cell lists are rebuilt constantly. This module builds that structure;
//! `ftmap-energy` then restructures it into the pairs-lists of §IV.B.
//!
//! Construction bins atoms into cubic cells of side `cutoff`, so building is `O(N)`
//! rather than `O(N²)`, which matters when the protein has a few thousand atoms.
//! The cells are runs of atom indices sorted by cell key, so memory stays `O(N)`
//! however far apart the atoms are.
//!
//! During minimization only the probe moves, and its atoms come last. So a
//! rigid receptor's list is built once, and each pose's list is
//! [`NeighborList::splice`]d from it: the same list `build` makes for the whole
//! complex, for the cost of the probe's pairs.

use crate::atom::Atom;
use ftmap_math::Real;
use std::collections::HashSet;

/// A neighbor list: for every atom `i`, the indices of atoms `j > i` within the cutoff
/// that are not excluded by the bonded topology.
///
/// Storing only `j > i` halves the memory and matches how FTMap's pair loops count each
/// interaction once (the energy of *both* atoms is updated when the pair is processed).
#[derive(Debug, Clone, Default)]
pub struct NeighborList {
    /// Atom `i`'s neighbours are `partners[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Neighbour indices `j > i`, atom by atom, ascending within each atom.
    partners: Vec<usize>,
    /// Cutoff the list was built with (Å).
    cutoff: Real,
}

/// The atoms of one occupied cell: `order[atoms]` are their indices.
struct Cell {
    key: [i64; 3],
    atoms: std::ops::Range<usize>,
}

impl NeighborList {
    /// Builds a neighbor list over `atoms` with the given cutoff, skipping pairs in
    /// `excluded` (ordered `(min, max)` index pairs, typically 1-2 and 1-3 bonded pairs;
    /// reversed or out-of-range entries never match a pair and are ignored).
    pub fn build(atoms: &[Atom], cutoff: Real, excluded: &HashSet<(usize, usize)>) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let n = atoms.len();

        // Cells of side `cutoff`: atom indices sorted by (cell key, index), so each
        // occupied cell is a contiguous run of `order`, and the cells are sorted by
        // key — the three cells of a (x, y) column are adjacent.
        let keys: Vec<[i64; 3]> = atoms.iter().map(|a| cell_key(a, cutoff)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (keys[i], i));
        let mut cells: Vec<Cell> = Vec::new();
        for (slot, &i) in order.iter().enumerate() {
            match cells.last_mut() {
                Some(cell) if cell.key == keys[i] => cell.atoms.end = slot + 1,
                _ => cells.push(Cell { key: keys[i], atoms: slot..slot + 1 }),
            }
        }

        let exclusions = sorted_exclusions(excluded, n);

        let cutoff_sq = cutoff * cutoff;
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        let mut partners = Vec::new();
        for (i, atom) in atoms.iter().enumerate() {
            let excluded_here = excluded_run(&exclusions, i);

            let first = partners.len();
            let [cx, cy, cz] = keys[i];
            for x in cx.saturating_sub(1)..=cx.saturating_add(1) {
                for y in cy.saturating_sub(1)..=cy.saturating_add(1) {
                    let (lo, hi) = ([x, y, cz.saturating_sub(1)], [x, y, cz.saturating_add(1)]);
                    let column = cells.partition_point(|c| c.key < lo);
                    for cell in cells[column..].iter().take_while(|c| c.key <= hi) {
                        for &j in &order[cell.atoms.clone()] {
                            if j > i
                                && atom.position.distance_sq(atoms[j].position) <= cutoff_sq
                                && !is_excluded(excluded_here, j)
                            {
                                partners.push(j);
                            }
                        }
                    }
                }
            }
            partners[first..].sort_unstable();
            starts.push(partners.len());
        }

        NeighborList { starts, partners, cutoff }
    }

    /// The list [`NeighborList::build`] returns for `atoms`, spliced from
    /// `self`, which must be what `build` returned for the *head*
    /// `atoms[..self.n_atoms()]` with the same cutoff and `excluded`'s pairs
    /// among the head. Each head atom keeps its run and gains its partners in
    /// the tail, then the tail atoms' runs follow. Only the pairs that touch
    /// the tail are tested, by `build`'s own rule (adjacent cells, the same
    /// distance test), so `excluded` needs only the pairs that touch the tail:
    /// a rigid receptor's list is built once and each pose of a small mobile
    /// probe splices in for the cost of the probe's pairs.
    pub fn splice(&self, atoms: &[Atom], excluded: &HashSet<(usize, usize)>) -> Self {
        let (head, n) = (self.n_atoms(), atoms.len());
        assert!(head <= n, "the head list covers more atoms than the system has");
        let cutoff_sq = self.cutoff * self.cutoff;
        let tail_keys: Vec<[i64; 3]> =
            atoms[head..].iter().map(|a| cell_key(a, self.cutoff)).collect();
        let exclusions = sorted_exclusions(excluded, n);

        // The new pairs `(i, j)`, `j` in the tail, in list order.
        let mut added = Vec::new();
        for (i, atom) in atoms.iter().enumerate() {
            let excluded_here = excluded_run(&exclusions, i);
            let key = cell_key(atom, self.cutoff);
            for j in (i + 1).max(head)..n {
                if key.iter().zip(&tail_keys[j - head]).all(|(a, b)| a.abs_diff(*b) <= 1)
                    && atom.position.distance_sq(atoms[j].position) <= cutoff_sq
                    && !is_excluded(excluded_here, j)
                {
                    added.push((i, j));
                }
            }
        }

        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        let mut partners = Vec::with_capacity(self.n_pairs() + added.len());
        let mut added = added.into_iter().peekable();
        for i in 0..n {
            if i < head {
                partners.extend_from_slice(self.neighbors(i));
            }
            while let Some((_, j)) = added.next_if(|&(a, _)| a == i) {
                partners.push(j);
            }
            starts.push(partners.len());
        }
        NeighborList { starts, partners, cutoff: self.cutoff }
    }

    /// Builds a neighbor list with no exclusions.
    pub fn build_unexcluded(atoms: &[Atom], cutoff: Real) -> Self {
        NeighborList::build(atoms, cutoff, &HashSet::new())
    }

    /// Number of "first" atoms (== number of atoms in the system).
    pub fn n_atoms(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The neighbours (`j > i`) of atom `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.partners[self.starts[i]..self.starts[i + 1]]
    }

    /// Total number of pairs in the list.
    pub fn n_pairs(&self) -> usize {
        self.partners.len()
    }

    /// Iterates over all `(i, j)` pairs.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_atoms()).flat_map(move |i| self.neighbors(i).iter().map(move |&j| (i, j)))
    }
}

/// The cell of side `cutoff` holding `atom`. Two atoms' cells are adjacent
/// when every coordinate of their keys differs by at most one.
fn cell_key(atom: &Atom, cutoff: Real) -> [i64; 3] {
    let p = atom.position;
    [p.x, p.y, p.z].map(|c| (c / cutoff).floor() as i64)
}

/// `excluded`'s pairs `(i, j)` with `i < j < n`, sorted: each atom's excluded
/// partners are one run of it ([`excluded_run`]).
fn sorted_exclusions(excluded: &HashSet<(usize, usize)>, n: usize) -> Vec<(usize, usize)> {
    let mut exclusions: Vec<(usize, usize)> =
        excluded.iter().copied().filter(|&(i, j)| i < j && j < n).collect();
    exclusions.sort_unstable();
    exclusions
}

/// Atom `i`'s run of a [`sorted_exclusions`] list.
fn excluded_run(exclusions: &[(usize, usize)], i: usize) -> &[(usize, usize)] {
    &exclusions
        [exclusions.partition_point(|&(a, _)| a < i)..exclusions.partition_point(|&(a, _)| a <= i)]
}

/// True when `j` is an excluded partner in an [`excluded_run`].
fn is_excluded(run: &[(usize, usize)], j: usize) -> bool {
    run.binary_search_by_key(&j, |&(_, b)| b).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use crate::protein::{ProteinSpec, SyntheticProtein};
    use crate::AtomKind;
    use ftmap_math::Vec3;

    /// Brute-force `O(N²)` neighbor-list construction: the oracle `build` is
    /// checked against.
    fn build_reference(
        atoms: &[Atom],
        cutoff: Real,
        excluded: &HashSet<(usize, usize)>,
    ) -> Vec<Vec<usize>> {
        let n = atoms.len();
        let cutoff_sq = cutoff * cutoff;
        let mut lists = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if excluded.contains(&(i, j)) {
                    continue;
                }
                if atoms[i].position.distance_sq(atoms[j].position) <= cutoff_sq {
                    lists[i].push(j);
                }
            }
        }
        lists
    }

    fn atom_at(id: usize, p: Vec3) -> Atom {
        ForceField::charmm_like().make_atom(id, AtomKind::AliphaticC, p, false)
    }

    #[test]
    fn simple_pairs_within_cutoff() {
        let atoms = vec![
            atom_at(0, Vec3::new(0.0, 0.0, 0.0)),
            atom_at(1, Vec3::new(1.0, 0.0, 0.0)),
            atom_at(2, Vec3::new(10.0, 0.0, 0.0)),
        ];
        let nl = NeighborList::build_unexcluded(&atoms, 2.0);
        assert_eq!(nl.neighbors(0), &[1]);
        assert!(nl.neighbors(1).is_empty());
        assert!(nl.neighbors(2).is_empty());
        assert_eq!(nl.n_pairs(), 1);
    }

    #[test]
    fn exclusions_are_respected() {
        let atoms = vec![
            atom_at(0, Vec3::new(0.0, 0.0, 0.0)),
            atom_at(1, Vec3::new(1.0, 0.0, 0.0)),
            atom_at(2, Vec3::new(2.0, 0.0, 0.0)),
        ];
        let mut excluded = HashSet::new();
        excluded.insert((0usize, 1usize));
        let nl = NeighborList::build(&atoms, 3.0, &excluded);
        assert_eq!(nl.neighbors(0), &[2]);
        assert_eq!(nl.neighbors(1), &[2]);
    }

    #[test]
    fn matches_brute_force_on_synthetic_protein() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let excluded = protein.topology.excluded_pairs();
        let fast = NeighborList::build(&protein.atoms, 6.0, &excluded);
        let slow = build_reference(&protein.atoms, 6.0, &excluded);
        for (i, reference) in slow.iter().enumerate() {
            assert_eq!(fast.neighbors(i), reference.as_slice(), "atom {i}");
        }
    }

    /// Asserts `build` ≡ the brute-force oracle, atom by atom.
    fn assert_matches_reference(atoms: &[Atom], cutoff: Real, excluded: &HashSet<(usize, usize)>) {
        let fast = NeighborList::build(atoms, cutoff, excluded);
        let slow = build_reference(atoms, cutoff, excluded);
        assert_eq!(fast.n_atoms(), slow.len());
        for (i, reference) in slow.iter().enumerate() {
            assert_eq!(fast.neighbors(i), reference.as_slice(), "atom {i}");
        }
        assert_eq!(fast.n_pairs(), slow.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn matches_brute_force_on_a_posed_probe_complex() {
        // The `map_minimize` shape: an 800-atom-target protein (~730 atoms once
        // its pockets are carved) plus a probe posed in its first pocket, the
        // force-field cutoff, topology exclusions.
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::medium(), &ff);
        let mut probe = crate::Probe::new(crate::ProbeType::Acetone, &ff);
        for a in &mut probe.atoms {
            a.position += protein.pocket_centers[0];
        }
        let complex = crate::Complex::new(&protein, &probe);
        assert!(complex.n_atoms() > 700, "{} atoms", complex.n_atoms());
        assert_matches_reference(&complex.atoms, ff.cutoff, &complex.topology.excluded_pairs());
    }

    #[test]
    fn reversed_and_out_of_range_exclusions_are_ignored() {
        let atoms: Vec<Atom> = (0..5).map(|i| atom_at(i, Vec3::new(i as Real, 0.0, 0.0))).collect();
        let excluded: HashSet<(usize, usize)> =
            [(0, 1), (2, 1), (4, 3), (0, 99), (99, 0), (3, 3)].into_iter().collect();
        let nl = NeighborList::build(&atoms, 2.5, &excluded);
        assert_eq!(nl.neighbors(0), &[2]);
        assert_eq!(nl.neighbors(1), &[2, 3], "(2, 1) is reversed, so (1, 2) stays");
        assert_eq!(nl.neighbors(3), &[4], "(4, 3) is reversed, so (3, 4) stays");
        assert_matches_reference(&atoms, 2.5, &excluded);
    }

    #[test]
    fn single_atoms_and_far_outliers_match_brute_force() {
        let one = [atom_at(0, Vec3::new(-3.5, 0.0, 7.25))];
        assert_matches_reference(&one, 4.0, &HashSet::new());
        assert_eq!(NeighborList::build_unexcluded(&one, 4.0).n_pairs(), 0);

        // One atom 10⁴ Å from a small cluster: keyed cells, not a dense grid
        // spanning the extent.
        let mut atoms: Vec<Atom> =
            (0..6).map(|i| atom_at(i, Vec3::new(i as Real * 0.9, -1.0, 0.5))).collect();
        atoms.push(atom_at(6, Vec3::new(1.0e4, -1.0e4, 1.0e4)));
        assert_matches_reference(&atoms, 3.0, &HashSet::new());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random clouds with negative coordinates, optionally snapped to the
        /// cell lattice (atoms exactly on cell boundaries and pairs exactly at
        /// the cutoff), optionally with a far outlier, under arbitrary
        /// exclusion sets (reversed and out-of-range pairs included).
        #[test]
        fn build_matches_brute_force_on_random_clouds(
            points in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::array::uniform3(-20.0f64..20.0),
                1..90,
            ),
            shape in (2.0f64..7.0, 0u64..4),
            excluded in proptest::prelude::prop::collection::vec((0usize..100, 0usize..100), 0..60),
        ) {
            let (cutoff, variant) = shape;
            let snap = variant % 2 == 1;
            let cutoff = if snap { cutoff.round() } else { cutoff };
            let mut atoms: Vec<Atom> = points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let p = if snap { p.map(Real::round) } else { *p };
                    atom_at(i, Vec3::from_array(p))
                })
                .collect();
            if variant >= 2 {
                atoms.push(atom_at(atoms.len(), Vec3::new(-1.0e4, 2.0, 1.0e4)));
            }
            let excluded: HashSet<(usize, usize)> = excluded.into_iter().collect();
            let fast = NeighborList::build(&atoms, cutoff, &excluded);
            let slow = build_reference(&atoms, cutoff, &excluded);
            for (i, reference) in slow.iter().enumerate() {
                proptest::prop_assert_eq!(fast.neighbors(i), reference.as_slice());
            }
        }
    }

    /// Asserts that `head` (the protein's list) spliced with the probe of
    /// `complex` is `build`'s list for the whole complex and the brute-force
    /// oracle's, atom by atom.
    fn assert_splice_matches(
        head: &NeighborList,
        complex: &crate::Complex,
        cutoff: Real,
    ) -> proptest::test_runner::TestCaseResult {
        let probe = complex.probe_offset..complex.n_atoms();
        let spliced = head.splice(&complex.atoms, &complex.topology.excluded_pairs_within(probe));
        let excluded = complex.topology.excluded_pairs();
        let built = NeighborList::build(&complex.atoms, cutoff, &excluded);
        let slow = build_reference(&complex.atoms, cutoff, &excluded);
        proptest::prop_assert_eq!(spliced.n_atoms(), slow.len());
        for (i, reference) in slow.iter().enumerate() {
            proptest::prop_assert_eq!(spliced.neighbors(i), built.neighbors(i));
            proptest::prop_assert_eq!(spliced.neighbors(i), reference.as_slice());
        }
        proptest::prop_assert_eq!(spliced.cutoff, cutoff);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// A receptor's own list, spliced with every probe type at a random
        /// rigid pose — overlapping the receptor, touching it or far away —
        /// under a random cutoff, optionally on a half-Å lattice with a
        /// whole-Å cutoff (atoms on cell boundaries, pairs exactly at the
        /// cutoff); then again after the probe moves (a refresh).
        #[test]
        fn splice_matches_build_and_brute_force(
            receptor in (0u64..1000, 0usize..10_000),
            euler in proptest::prelude::prop::array::uniform3(0.0f64..6.3),
            placement in (proptest::prelude::prop::array::uniform3(-1.0f64..1.0), 0usize..6),
            cutoff in 2.0f64..10.0,
            step in proptest::prelude::prop::array::uniform3(-3.0f64..3.0),
        ) {
            let (seed, anchor) = receptor;
            let (direction, variant) = placement;
            let snap = variant >= 3;
            let on_lattice = |p: Vec3| if snap { Vec3::from_array(p.to_array().map(|c| (2.0 * c).round() / 2.0)) } else { p };
            let cutoff = if snap { cutoff.round() } else { cutoff };
            let ff = ForceField::charmm_like();
            let spec = ProteinSpec {
                target_atoms: 150,
                radius: 9.0,
                n_pockets: 1,
                pocket_radius: 3.0,
                seed,
            };
            let mut protein = SyntheticProtein::generate(&spec, &ff);
            for atom in &mut protein.atoms {
                atom.position = on_lattice(atom.position);
            }
            let head = NeighborList::build(&protein.atoms, cutoff, &protein.topology.excluded_pairs());

            // Overlapping (on a receptor atom), touching (3.5 Å off one) or
            // 200 Å away.
            let reach = [0.0, 3.5, 200.0][variant % 3];
            let at = protein.atoms[anchor % protein.atoms.len()].position
                + Vec3::from_array(direction).normalized() * reach;
            let rotation = ftmap_math::Rotation::from_euler_zyz(euler[0], euler[1], euler[2]);
            for probe_type in crate::ProbeType::ALL {
                let mut probe = crate::Probe::new(probe_type, &ff);
                for atom in &mut probe.atoms {
                    atom.position = on_lattice(rotation.apply(atom.position) + at);
                }
                let mut complex = crate::Complex::new(&protein, &probe);
                assert_splice_matches(&head, &complex, cutoff)?;
                let step = on_lattice(Vec3::from_array(step));
                for atom in &mut complex.atoms[complex.probe_offset..] {
                    atom.position += step;
                }
                assert_splice_matches(&head, &complex, cutoff)?;
            }
        }
    }

    #[test]
    fn splice_of_an_empty_tail_is_the_list_itself() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let excluded = protein.topology.excluded_pairs();
        let head = NeighborList::build(&protein.atoms, 6.0, &excluded);
        let spliced = head.splice(&protein.atoms, &HashSet::new());
        assert_eq!((spliced.starts, spliced.partners), (head.starts, head.partners));
    }

    #[test]
    fn pair_count_scales_with_cutoff() {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let small = NeighborList::build_unexcluded(&protein.atoms, 4.0);
        let large = NeighborList::build_unexcluded(&protein.atoms, 8.0);
        assert!(large.n_pairs() > small.n_pairs());
    }

    #[test]
    fn iter_pairs_matches_lists() {
        let atoms = vec![
            atom_at(0, Vec3::new(0.0, 0.0, 0.0)),
            atom_at(1, Vec3::new(1.0, 0.0, 0.0)),
            atom_at(2, Vec3::new(1.5, 0.5, 0.0)),
        ];
        let nl = NeighborList::build_unexcluded(&atoms, 2.0);
        let pairs: Vec<_> = nl.iter_pairs().collect();
        assert_eq!(pairs.len(), nl.n_pairs());
        for (i, j) in pairs {
            assert!(j > i);
        }
    }

    #[test]
    fn stats_on_empty_and_nonempty() {
        let nl = NeighborList::build_unexcluded(&[], 5.0);
        assert_eq!((nl.n_atoms(), nl.n_pairs()), (0, 0));

        // The per-atom counts range "from a few to a few hundred" (§IV.A): the
        // motivation for pairs-lists over per-atom work distribution.
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let nl = NeighborList::build_unexcluded(&protein.atoms, 7.0);
        let counts: Vec<usize> = (0..nl.n_atoms()).map(|i| nl.neighbors(i).len()).collect();
        let (min, max) = (counts.iter().min().copied(), counts.iter().max().copied());
        let (min, max) = (min.unwrap_or(0), max.unwrap_or(0));
        assert!(nl.n_pairs() > 0);
        assert!(max > 3 * min.max(1));
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn zero_cutoff_panics() {
        let _ = NeighborList::build_unexcluded(&[], 0.0);
    }
}
