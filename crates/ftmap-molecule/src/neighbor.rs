//! Neighbor-list construction.
//!
//! Serial FTMap stores, for every "first" atom, the list of "second" atoms within the
//! non-bonded cutoff that contribute to its energy (paper Fig. 7). The list is built
//! once and only rarely updated during minimization ("seldom updated", §II.B) — unlike
//! MD, where cell lists are rebuilt constantly. This module builds that structure;
//! `ftmap-energy` then restructures it into the pairs-lists of §IV.B.
//!
//! Construction uses a uniform spatial hash so building is `O(N)` rather than `O(N²)`,
//! which matters when the protein has a few thousand atoms.

use crate::atom::Atom;
use ftmap_math::Real;
use std::collections::{HashMap, HashSet};

/// A neighbor list: for every atom `i`, the indices of atoms `j > i` within the cutoff
/// that are not excluded by the bonded topology.
///
/// Storing only `j > i` halves the memory and matches how FTMap's pair loops count each
/// interaction once (the energy of *both* atoms is updated when the pair is processed).
#[derive(Debug, Clone, Default)]
pub struct NeighborList {
    /// `lists[i]` = indices of neighbour atoms `j > i`.
    lists: Vec<Vec<usize>>,
    /// Cutoff the list was built with (Å).
    cutoff: Real,
}

impl NeighborList {
    /// Builds a neighbor list over `atoms` with the given cutoff, skipping pairs in
    /// `excluded` (ordered `(min, max)` index pairs, typically 1-2 and 1-3 bonded pairs).
    pub fn build(atoms: &[Atom], cutoff: Real, excluded: &HashSet<(usize, usize)>) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let n = atoms.len();
        let mut lists = vec![Vec::new(); n];
        if n == 0 {
            return NeighborList { lists, cutoff };
        }

        // Spatial hash with cell size = cutoff.
        let cell = cutoff;
        let key = |a: &Atom| {
            (
                (a.position.x / cell).floor() as i64,
                (a.position.y / cell).floor() as i64,
                (a.position.z / cell).floor() as i64,
            )
        };
        let mut cells: HashMap<(i64, i64, i64), Vec<usize>> = HashMap::new();
        for (i, a) in atoms.iter().enumerate() {
            cells.entry(key(a)).or_default().push(i);
        }

        let cutoff_sq = cutoff * cutoff;
        for (i, a) in atoms.iter().enumerate() {
            let (cx, cy, cz) = key(a);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        let Some(bucket) = cells.get(&(cx + dx, cy + dy, cz + dz)) else {
                            continue;
                        };
                        for &j in bucket {
                            if j <= i {
                                continue;
                            }
                            if excluded.contains(&(i, j)) {
                                continue;
                            }
                            if a.position.distance_sq(atoms[j].position) <= cutoff_sq {
                                lists[i].push(j);
                            }
                        }
                    }
                }
            }
            lists[i].sort_unstable();
        }

        NeighborList { lists, cutoff }
    }

    /// Builds a neighbor list with no exclusions.
    pub fn build_unexcluded(atoms: &[Atom], cutoff: Real) -> Self {
        NeighborList::build(atoms, cutoff, &HashSet::new())
    }

    /// The cutoff used to build this list (Å).
    pub fn cutoff(&self) -> Real {
        self.cutoff
    }

    /// Number of "first" atoms (== number of atoms in the system).
    pub fn n_atoms(&self) -> usize {
        self.lists.len()
    }

    /// The neighbours (`j > i`) of atom `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.lists[i]
    }

    /// Total number of pairs in the list.
    pub fn n_pairs(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }

    /// Iterates over all `(i, j)` pairs.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.lists.iter().enumerate().flat_map(|(i, l)| l.iter().map(move |&j| (i, j)))
    }

    /// The distribution of per-atom neighbour counts `(min, mean, max)` — the paper
    /// notes these range "from a few to a few hundred", which is why naive per-atom
    /// work distribution on the GPU is so uneven (§IV.A).
    pub fn neighbor_count_stats(&self) -> (usize, Real, usize) {
        if self.lists.is_empty() {
            return (0, 0.0, 0);
        }
        let min = self.lists.iter().map(Vec::len).min().unwrap_or(0);
        let max = self.lists.iter().map(Vec::len).max().unwrap_or(0);
        let mean = self.n_pairs() as Real / self.lists.len() as Real;
        (min, mean, max)
    }
}

/// Brute-force `O(N²)` neighbor-list construction, used by tests as an oracle.
pub fn build_reference(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use crate::protein::{ProteinSpec, SyntheticProtein};
    use crate::AtomKind;
    use ftmap_math::Vec3;

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
        assert_eq!(nl.cutoff(), 2.0);
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
        assert_eq!(nl.neighbor_count_stats(), (0, 0.0, 0));
        assert_eq!(nl.n_atoms(), 0);

        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let nl = NeighborList::build_unexcluded(&protein.atoms, 7.0);
        let (min, mean, max) = nl.neighbor_count_stats();
        assert!(max >= min);
        assert!(mean > 0.0);
        // The per-atom counts should vary widely (motivation for pairs-lists).
        assert!(max > 3 * min.max(1));
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn zero_cutoff_panics() {
        let _ = NeighborList::build_unexcluded(&[], 0.0);
    }
}
