//! Bonded topology: bonds, angles, torsions, impropers, and exclusion rules.
//!
//! The bonded terms are a tiny fraction of FTMap's runtime (Fig. 3(b): ~0.2 %) and are
//! left on the host in the paper; they are still required for a faithful energy model
//! and, importantly, the bonded graph defines the 1-2 / 1-3 exclusions used when the
//! non-bonded neighbor lists are built.

use std::collections::HashSet;
use std::ops::Range;

/// A covalent bond between two atoms (indices into the owning molecule's atom list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bond {
    /// First atom index.
    pub i: usize,
    /// Second atom index.
    pub j: usize,
}

/// A bond angle i–j–k centered on `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Angle {
    /// First atom index.
    pub i: usize,
    /// Central atom index.
    pub j: usize,
    /// Third atom index.
    pub k: usize,
}

/// A proper torsion i–j–k–l about the j–k bond.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torsion {
    /// First atom index.
    pub i: usize,
    /// Second atom index.
    pub j: usize,
    /// Third atom index.
    pub k: usize,
    /// Fourth atom index.
    pub l: usize,
}

/// An improper torsion keeping atom `i` in the plane of `j`, `k`, `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Improper {
    /// Central atom index.
    pub i: usize,
    /// First plane atom.
    pub j: usize,
    /// Second plane atom.
    pub k: usize,
    /// Third plane atom.
    pub l: usize,
}

/// The bonded topology of a molecule or complex.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    n_atoms: usize,
    bonds: Vec<Bond>,
    angles: Vec<Angle>,
    torsions: Vec<Torsion>,
    impropers: Vec<Improper>,
}

impl Topology {
    /// Creates an empty topology over `n_atoms` atoms.
    pub fn new(n_atoms: usize) -> Self {
        Topology { n_atoms, ..Default::default() }
    }

    /// Number of atoms the topology covers.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Adds a bond between atoms `i` and `j`.
    ///
    /// # Panics
    /// Panics if either index is out of range or `i == j`.
    pub fn add_bond(&mut self, i: usize, j: usize) {
        assert!(i < self.n_atoms && j < self.n_atoms, "bond index out of range");
        assert_ne!(i, j, "an atom cannot bond to itself");
        self.bonds.push(Bond { i: i.min(j), j: i.max(j) });
    }

    /// Registered bonds.
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// Registered angles.
    pub fn angles(&self) -> &[Angle] {
        &self.angles
    }

    /// Registered torsions.
    pub fn torsions(&self) -> &[Torsion] {
        &self.torsions
    }

    /// Registered impropers.
    pub fn impropers(&self) -> &[Improper] {
        &self.impropers
    }

    /// Derives angle and torsion terms from the bond graph (every connected i–j–k path
    /// becomes an angle, every i–j–k–l path a torsion), the way CHARMM topology builders
    /// autogenerate bonded terms.
    pub fn autogenerate_bonded_terms(&mut self) {
        let adjacency = self.adjacency();
        self.angles.clear();
        self.torsions.clear();

        // Angles: for every central atom j, every unordered pair of its neighbours.
        for (j, neigh) in adjacency.iter().enumerate() {
            for a in 0..neigh.len() {
                for b in (a + 1)..neigh.len() {
                    self.angles.push(Angle { i: neigh[a], j, k: neigh[b] });
                }
            }
        }

        // Torsions: for every bond j-k, every neighbour i of j (≠ k) and l of k (≠ j).
        for bond in &self.bonds {
            let (j, k) = (bond.i, bond.j);
            for &i in &adjacency[j] {
                if i == k {
                    continue;
                }
                for &l in &adjacency[k] {
                    if l == j || l == i {
                        continue;
                    }
                    self.torsions.push(Torsion { i, j, k, l });
                }
            }
        }
    }

    /// The adjacency list of the bond graph.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n_atoms];
        for b in &self.bonds {
            adj[b.i].push(b.j);
            adj[b.j].push(b.i);
        }
        adj
    }

    /// The set of excluded non-bonded pairs: directly bonded atoms (1-2) and atoms
    /// separated by two bonds (1-3). Returned as ordered `(min, max)` pairs.
    pub fn excluded_pairs(&self) -> HashSet<(usize, usize)> {
        self.excluded_pairs_within(0..self.n_atoms)
    }

    /// [`Topology::excluded_pairs`] of the atoms in `atoms`, from the bonds with
    /// both ends among them. When no bond joins an atom of `atoms` to one outside
    /// (a complex's protein and probe), these are exactly the whole set's pairs
    /// inside `atoms`, for the cost of `atoms`' bonds alone.
    pub fn excluded_pairs_within(&self, atoms: Range<usize>) -> HashSet<(usize, usize)> {
        let mut adjacency = vec![Vec::new(); atoms.len()];
        let mut excluded = HashSet::new();
        for b in self.bonds.iter().filter(|b| atoms.contains(&b.i) && atoms.contains(&b.j)) {
            excluded.insert((b.i.min(b.j), b.i.max(b.j)));
            adjacency[b.i - atoms.start].push(b.j);
            adjacency[b.j - atoms.start].push(b.i);
        }
        for neigh in &adjacency {
            for (a, &x) in neigh.iter().enumerate() {
                for &y in &neigh[a + 1..] {
                    if x != y {
                        excluded.insert((x.min(y), x.max(y)));
                    }
                }
            }
        }
        excluded
    }

    /// Merges another topology whose atom indices are offset by `offset`
    /// (used to combine a protein topology with a probe topology into a complex).
    pub fn merge_offset(&mut self, other: &Topology, offset: usize) {
        assert!(offset + other.n_atoms <= self.n_atoms, "merged topology exceeds atom count");
        for b in &other.bonds {
            self.bonds.push(Bond { i: b.i + offset, j: b.j + offset });
        }
        for a in &other.angles {
            self.angles.push(Angle { i: a.i + offset, j: a.j + offset, k: a.k + offset });
        }
        for t in &other.torsions {
            self.torsions.push(Torsion {
                i: t.i + offset,
                j: t.j + offset,
                k: t.k + offset,
                l: t.l + offset,
            });
        }
        for im in &other.impropers {
            self.impropers.push(Improper {
                i: im.i + offset,
                j: im.j + offset,
                k: im.k + offset,
                l: im.l + offset,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a linear chain 0-1-2-3-4.
    fn chain(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_bond(i, i + 1);
        }
        t
    }

    #[test]
    fn bonds_are_normalized() {
        let mut t = Topology::new(3);
        t.add_bond(2, 0);
        assert_eq!(t.bonds()[0], Bond { i: 0, j: 2 });
    }

    #[test]
    #[should_panic(expected = "cannot bond to itself")]
    fn self_bond_panics() {
        let mut t = Topology::new(2);
        t.add_bond(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bond_panics() {
        let mut t = Topology::new(2);
        t.add_bond(0, 5);
    }

    #[test]
    fn autogenerate_counts_for_linear_chain() {
        let mut t = chain(5);
        t.autogenerate_bonded_terms();
        // Chain of 5 atoms: 4 bonds, 3 angles, 2 torsions.
        assert_eq!(t.bonds().len(), 4);
        assert_eq!(t.angles().len(), 3);
        assert_eq!(t.torsions().len(), 2);
    }

    #[test]
    fn autogenerate_branched() {
        // Star: atom 0 bonded to 1, 2, 3 → 3 angles centered on 0, no torsions.
        let mut t = Topology::new(4);
        t.add_bond(0, 1);
        t.add_bond(0, 2);
        t.add_bond(0, 3);
        t.autogenerate_bonded_terms();
        assert_eq!(t.angles().len(), 3);
        assert_eq!(t.torsions().len(), 0);
    }

    #[test]
    fn excluded_pairs_for_chain() {
        let t = chain(4);
        let ex = t.excluded_pairs();
        // 1-2 exclusions: (0,1),(1,2),(2,3); 1-3: (0,2),(1,3)
        assert!(ex.contains(&(0, 1)));
        assert!(ex.contains(&(1, 2)));
        assert!(ex.contains(&(2, 3)));
        assert!(ex.contains(&(0, 2)));
        assert!(ex.contains(&(1, 3)));
        assert!(!ex.contains(&(0, 3)));
        assert_eq!(ex.len(), 5);
    }

    #[test]
    fn excluded_pairs_within_split_a_complex_at_its_seam() {
        // A 3-chain and a 2-chain merged side by side: no bond crosses index
        // 3, so the two parts' exclusions are the whole set's, split.
        let mut combined = Topology::new(5);
        combined.merge_offset(&chain(3), 0);
        combined.merge_offset(&chain(2), 3);
        let (head, tail) =
            (combined.excluded_pairs_within(0..3), combined.excluded_pairs_within(3..5));
        assert_eq!(head, [(0, 1), (1, 2), (0, 2)].into_iter().collect());
        assert_eq!(tail, [(3, 4)].into_iter().collect());
        assert_eq!(&head | &tail, combined.excluded_pairs());

        // A bond leaving the range is not read: 1-2 and 1-3 through it are not
        // the range's.
        let whole = chain(4);
        assert_eq!(whole.excluded_pairs_within(2..4), [(2, 3)].into_iter().collect());
    }

    #[test]
    fn merge_offsets_indices() {
        let mut protein = chain(3);
        let probe = chain(2);
        let mut combined = Topology::new(5);
        combined.merge_offset(&protein, 0);
        combined.merge_offset(&probe, 3);
        assert_eq!(combined.bonds().len(), 3);
        assert!(combined.bonds().contains(&Bond { i: 3, j: 4 }));
        protein.autogenerate_bonded_terms();
        assert_eq!(protein.angles().len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds atom count")]
    fn merge_overflow_panics() {
        let probe = chain(3);
        let mut combined = Topology::new(4);
        combined.merge_offset(&probe, 2);
    }
}
