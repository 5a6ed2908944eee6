//! The restructured pair data layouts of paper §IV.B.
//!
//! The original neighbor-list layout (Fig. 7) is hostile to GPU execution: per-atom
//! neighbour counts vary from a few to a few hundred (uneven work), the "second" atoms
//! occur in random order (scattered writes), and the per-atom energy array has to live
//! in global memory (write conflicts). The paper fixes this in two steps:
//!
//! 1. [`PairsList`] — flatten the neighbor list into an array of independent atom
//!    pairs, each with slots for the two partial energies (Fig. 9). Pairs distribute
//!    evenly over threads, but accumulation into per-atom totals is still serial.
//! 2. [`SplitPairsLists`] — split into a **forward** list (ordered by the original first
//!    atom) and a **reverse** list (ordered by the original second atom), where each
//!    list only updates the energy of *its* first atom (Fig. 10), and build a static
//!    [`AssignmentTable`] that packs each first-atom group onto one thread block so the
//!    partial energies can be accumulated in shared memory by per-group master threads
//!    (Fig. 11).

use ftmap_molecule::NeighborList;
use std::ops::Range;

/// One atom pair to be processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomPair {
    /// Index of the first atom.
    pub first: usize,
    /// Index of the second atom.
    pub second: usize,
}

/// The flat pairs-list of Fig. 9: every neighbor-list pair as an independent work item.
#[derive(Debug, Clone, Default)]
pub struct PairsList {
    /// The pairs, in neighbor-list order.
    pub pairs: Vec<AtomPair>,
    /// Number of atoms in the system (for sizing energy arrays).
    pub n_atoms: usize,
}

impl PairsList {
    /// Flattens a neighbor list into a pairs-list.
    pub fn from_neighbor_list(neighbors: &NeighborList) -> Self {
        let pairs = neighbors.iter_pairs().map(|(i, j)| AtomPair { first: i, second: j }).collect();
        PairsList { pairs, n_atoms: neighbors.n_atoms() }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The forward/reverse split pairs-lists of Fig. 10.
#[derive(Debug, Clone, Default)]
pub struct SplitPairsLists {
    /// Forward list: pairs ordered and grouped by the original first atom; processing it
    /// updates only the first atom of each pair.
    pub forward: Vec<AtomPair>,
    /// Reverse list: pairs grouped by the original *second* atom (stored as `first` of
    /// the pair here, so the kernels treat both lists identically).
    pub reverse: Vec<AtomPair>,
    /// Number of atoms in the system.
    pub n_atoms: usize,
}

impl SplitPairsLists {
    /// Builds the split lists from a neighbor list.
    pub fn from_neighbor_list(neighbors: &NeighborList) -> Self {
        let n_atoms = neighbors.n_atoms();
        let forward: Vec<AtomPair> =
            neighbors.iter_pairs().map(|(i, j)| AtomPair { first: i, second: j }).collect();
        // Reverse list: grouped by the original second atom, which becomes the atom
        // whose energy this list updates — a stable counting sort of the forward
        // list by `second`, so each group keeps its partners in forward order.
        let mut starts = vec![0usize; n_atoms + 1];
        for pair in &forward {
            starts[pair.second + 1] += 1;
        }
        for j in 0..n_atoms {
            starts[j + 1] += starts[j];
        }
        let mut reverse = vec![AtomPair { first: 0, second: 0 }; forward.len()];
        for pair in &forward {
            let slot = &mut starts[pair.second];
            reverse[*slot] = AtomPair { first: pair.second, second: pair.first };
            *slot += 1;
        }
        SplitPairsLists { forward, reverse, n_atoms }
    }
}

/// One row of the work-assignment table of Fig. 11: the pair a GPU thread processes,
/// whether that thread is the master of its pair-group, and the group size the master
/// must accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentRow {
    /// Index into the originating pairs-list (`usize::MAX` for padding rows).
    pub pair_index: usize,
    /// First atom of the pair (the atom whose energy is updated).
    pub atom_first: usize,
    /// Second atom of the pair.
    pub atom_second: usize,
    /// True when this thread accumulates its group's partial energies.
    pub master: bool,
    /// Number of pairs in this thread's group (meaningful on master rows).
    pub group_size: usize,
}

impl AssignmentRow {
    /// A padding row for unused thread slots.
    pub fn padding() -> Self {
        AssignmentRow {
            pair_index: usize::MAX,
            atom_first: usize::MAX,
            atom_second: usize::MAX,
            master: false,
            group_size: 0,
        }
    }

    /// True when this row carries no work.
    pub fn is_padding(&self) -> bool {
        self.pair_index == usize::MAX
    }
}

/// The static work-assignment table: one row per thread slot, organized in blocks of
/// `threads_per_block` rows. Groups (pairs sharing a first atom) never straddle a block
/// boundary, so each group's partial energies land in one block's shared memory.
#[derive(Debug, Clone)]
pub struct AssignmentTable {
    /// Rows, `threads_per_block` per block.
    pub rows: Vec<AssignmentRow>,
    /// Threads per block the table was built for.
    pub threads_per_block: usize,
    /// Number of atoms in the system.
    pub n_atoms: usize,
}

impl AssignmentTable {
    /// Builds the table from a (forward or reverse) pairs-list.
    ///
    /// Pairs are grouped by their first atom; each group is placed in the current block
    /// if it fits in the remaining thread slots, otherwise the block is padded and the
    /// group starts the next block. Groups larger than a block are split (their masters
    /// then accumulate only their block-local portion — correctness is preserved because
    /// accumulation adds into the global per-atom energy).
    ///
    /// # Panics
    /// Panics if `threads_per_block` is zero.
    pub fn build(pairs: &[AtomPair], n_atoms: usize, threads_per_block: usize) -> Self {
        assert!(threads_per_block > 0, "threads_per_block must be positive");
        let tpb = threads_per_block;
        // A chunk goes at the next free row unless it would cross into the next
        // block; then the rest of the current block is padding.
        let place = |cursor: usize, len: usize| {
            if cursor % tpb + len > tpb {
                cursor.next_multiple_of(tpb)
            } else {
                cursor
            }
        };
        // First walk sizes the table, the second fills it in place.
        let end = group_chunks(pairs, tpb)
            .fold(0, |cursor, chunk| place(cursor, chunk.len()) + chunk.len());
        let mut rows = vec![AssignmentRow::padding(); end.next_multiple_of(tpb)];
        let mut cursor = 0;
        for chunk in group_chunks(pairs, tpb) {
            cursor = place(cursor, chunk.len());
            let group_size = chunk.len();
            for (offset, pair_index) in chunk.enumerate() {
                let pair = pairs[pair_index];
                rows[cursor + offset] = AssignmentRow {
                    pair_index,
                    atom_first: pair.first,
                    atom_second: pair.second,
                    master: offset == 0,
                    group_size: if offset == 0 { group_size } else { 0 },
                };
            }
            cursor += group_size;
        }
        AssignmentTable { rows, threads_per_block, n_atoms }
    }

    /// Number of thread blocks the table spans.
    pub fn n_blocks(&self) -> usize {
        self.rows.len() / self.threads_per_block
    }

    /// The rows of block `b`.
    pub fn block_rows(&self, b: usize) -> &[AssignmentRow] {
        let start = b * self.threads_per_block;
        &self.rows[start..start + self.threads_per_block]
    }

    /// Number of non-padding rows (total pairs covered).
    pub fn work_rows(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_padding()).count()
    }

    /// Size of the table in f64-equivalent words when transferred to the device
    /// (5 fields per row). Transferred once per neighbor-list rebuild, not per iteration.
    pub fn transfer_words(&self) -> usize {
        self.rows.len() * 5
    }
}

/// The pair-index ranges of an [`AssignmentTable`]'s group chunks, in order:
/// maximal runs of pairs sharing a first atom, cut into pieces of at most
/// `max` pairs.
fn group_chunks(pairs: &[AtomPair], max: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let first = pairs.get(start)?.first;
        let limit = (start + max).min(pairs.len());
        let end = (start + 1..limit).find(|&k| pairs[k].first != first).unwrap_or(limit);
        let chunk = start..end;
        start = end;
        Some(chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{
        Complex, ForceField, NeighborList, Probe, ProbeType, ProteinSpec, SyntheticProtein,
    };

    fn neighbor_list() -> NeighborList {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let probe = Probe::new(ProbeType::Acetone, &ff);
        let complex = Complex::new(&protein, &probe);
        let excluded = complex.topology.excluded_pairs();
        NeighborList::build(&complex.atoms, ff.cutoff, &excluded)
    }

    #[test]
    fn pairs_list_preserves_every_pair() {
        let nl = neighbor_list();
        let pl = PairsList::from_neighbor_list(&nl);
        assert_eq!(pl.len(), nl.n_pairs());
        assert!(!pl.is_empty());
        assert_eq!(pl.n_atoms, nl.n_atoms());
        for (pair, (i, j)) in pl.pairs.iter().zip(nl.iter_pairs()) {
            assert_eq!((pair.first, pair.second), (i, j));
        }
    }

    #[test]
    fn split_lists_cover_both_directions() {
        let nl = neighbor_list();
        let split = SplitPairsLists::from_neighbor_list(&nl);
        assert_eq!(split.forward.len(), nl.n_pairs());
        assert_eq!(split.reverse.len(), nl.n_pairs());

        // Forward list is grouped (non-decreasing) by first atom; reverse list too.
        assert!(split.forward.windows(2).all(|w| w[0].first <= w[1].first));
        assert!(split.reverse.windows(2).all(|w| w[0].first <= w[1].first));

        // Every forward pair (i, j) appears in the reverse list as (j, i).
        use std::collections::HashSet;
        let reverse_set: HashSet<(usize, usize)> =
            split.reverse.iter().map(|p| (p.first, p.second)).collect();
        for p in &split.forward {
            assert!(reverse_set.contains(&(p.second, p.first)));
        }
    }

    #[test]
    fn assignment_table_covers_all_pairs_exactly_once() {
        let nl = neighbor_list();
        let split = SplitPairsLists::from_neighbor_list(&nl);
        let table = AssignmentTable::build(&split.forward, split.n_atoms, 64);
        assert_eq!(table.work_rows(), split.forward.len());
        // Every pair index appears exactly once.
        let mut seen = vec![false; split.forward.len()];
        for row in table.rows.iter().filter(|r| !r.is_padding()) {
            assert!(!seen[row.pair_index], "pair {} assigned twice", row.pair_index);
            seen[row.pair_index] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(table.rows.len() % 64, 0);
        assert_eq!(table.n_blocks() * 64, table.rows.len());
    }

    #[test]
    fn groups_do_not_straddle_blocks() {
        let nl = neighbor_list();
        let split = SplitPairsLists::from_neighbor_list(&nl);
        let tpb = 32;
        let table = AssignmentTable::build(&split.forward, split.n_atoms, tpb);
        for b in 0..table.n_blocks() {
            let rows = table.block_rows(b);
            // Within a block, each first atom present must have its master row in the
            // same block (i.e. group chunks start with a master).
            let mut current_atom = usize::MAX;
            for row in rows.iter().filter(|r| !r.is_padding()) {
                if row.atom_first != current_atom {
                    assert!(row.master, "group chunk must start with a master row");
                    current_atom = row.atom_first;
                }
            }
        }
    }

    #[test]
    fn master_group_sizes_sum_to_pair_count() {
        let nl = neighbor_list();
        let split = SplitPairsLists::from_neighbor_list(&nl);
        let table = AssignmentTable::build(&split.reverse, split.n_atoms, 64);
        let total: usize = table.rows.iter().filter(|r| r.master).map(|r| r.group_size).sum();
        assert_eq!(total, split.reverse.len());
    }

    #[test]
    fn oversized_groups_are_split_across_blocks() {
        // One atom with 100 neighbours and 32-thread blocks → group split into 4 chunks.
        let pairs: Vec<AtomPair> = (0..100).map(|j| AtomPair { first: 0, second: j + 1 }).collect();
        let table = AssignmentTable::build(&pairs, 101, 32);
        assert_eq!(table.work_rows(), 100);
        let masters: Vec<_> = table.rows.iter().filter(|r| r.master).collect();
        assert_eq!(masters.len(), 4);
        let sizes: usize = masters.iter().map(|r| r.group_size).sum();
        assert_eq!(sizes, 100);
    }

    #[test]
    fn padding_rows_are_marked() {
        let pairs = vec![AtomPair { first: 0, second: 1 }, AtomPair { first: 0, second: 2 }];
        let table = AssignmentTable::build(&pairs, 3, 8);
        assert_eq!(table.rows.len(), 8);
        assert_eq!(table.work_rows(), 2);
        assert!(table.rows[7].is_padding());
        assert!(!AssignmentRow {
            pair_index: 0,
            atom_first: 0,
            atom_second: 1,
            master: true,
            group_size: 1
        }
        .is_padding());
        assert!(table.transfer_words() >= 40);
    }

    #[test]
    #[should_panic(expected = "threads_per_block must be positive")]
    fn zero_threads_per_block_panics() {
        let _ = AssignmentTable::build(&[], 0, 0);
    }

    #[test]
    fn empty_pairs_list_gives_empty_table() {
        let table = AssignmentTable::build(&[], 10, 64);
        assert_eq!(table.rows.len(), 0);
        assert_eq!(table.n_blocks(), 0);
        assert_eq!(table.work_rows(), 0);
    }
}
