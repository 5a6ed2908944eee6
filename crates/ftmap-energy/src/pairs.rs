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
        let forward: Vec<AtomPair> =
            neighbors.iter_pairs().map(|(i, j)| AtomPair { first: i, second: j }).collect();
        let groups = ReverseGroups::new(neighbors);
        let reverse = (0..neighbors.n_atoms())
            .flat_map(|j| groups.partners(j).iter().map(move |&i| AtomPair { first: j, second: i }))
            .collect();
        SplitPairsLists { forward, reverse, n_atoms: neighbors.n_atoms() }
    }
}

/// The reverse list's groups without its pairs: atom `j`'s partners are the
/// atoms `i < j` whose neighbor lists hold `j`, in forward-list order — a
/// stable counting sort of the forward list by its second atom.
struct ReverseGroups {
    /// Atom `j`'s partners are `partners[starts[j]..starts[j + 1]]`.
    starts: Vec<usize>,
    partners: Vec<usize>,
}

impl ReverseGroups {
    fn new(neighbors: &NeighborList) -> Self {
        let n_atoms = neighbors.n_atoms();
        let mut starts = vec![0usize; n_atoms + 1];
        for (_, j) in neighbors.iter_pairs() {
            starts[j + 1] += 1;
        }
        for j in 0..n_atoms {
            starts[j + 1] += starts[j];
        }
        let mut next = starts[..n_atoms].to_vec();
        let mut partners = vec![0; neighbors.n_pairs()];
        for (i, j) in neighbors.iter_pairs() {
            partners[next[j]] = i;
            next[j] += 1;
        }
        ReverseGroups { starts, partners }
    }

    fn partners(&self, j: usize) -> &[usize] {
        &self.partners[self.starts[j]..self.starts[j + 1]]
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
    fn padding() -> Self {
        AssignmentRow {
            pair_index: usize::MAX,
            atom_first: usize::MAX,
            atom_second: usize::MAX,
            master: false,
            group_size: 0,
        }
    }
}

/// The static work-assignment table: one row per thread slot, organized in blocks of
/// `threads_per_block` rows. Groups (pairs sharing a first atom) never straddle a block
/// boundary, so each group's partial energies land in one block's shared memory.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentTable {
    /// Rows, `threads_per_block` per block.
    pub rows: Vec<AssignmentRow>,
    /// Threads per block the table was built for.
    pub threads_per_block: usize,
    /// Number of atoms in the system.
    pub n_atoms: usize,
    /// Running totals, counted while the rows are placed: entry `b` holds
    /// those of blocks `..=b`.
    sums: Vec<BlockTotals>,
}

/// What a run of blocks of an [`AssignmentTable`] holds, for kernels that
/// record the blocks' work without walking their rows. A block's work rows
/// come first and its padding last. Its groups cover exactly its work rows,
/// so the group sizes of its masters sum to `work_rows`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BlockTotals {
    /// Non-padding rows.
    pub(crate) work_rows: usize,
    /// Master rows: one per group chunk.
    pub(crate) master_rows: usize,
    /// The first atom of the last work row (0 for no block).
    pub(crate) last_first_atom: usize,
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
        let groups = || {
            pairs
                .chunk_by(|a, b| a.first == b.first)
                .map(|run| (run[0].first, run.iter().map(|pair| pair.second)))
        };
        AssignmentTable::from_groups(groups, n_atoms, threads_per_block)
    }

    /// The tables [`AssignmentTable::build`] makes from the forward and the
    /// reverse list of [`SplitPairsLists::from_neighbor_list`], without making
    /// the lists: the forward groups are the neighbor list's own runs, and the
    /// reverse grouping keeps only partner indices.
    ///
    /// # Panics
    /// Panics if `threads_per_block` is zero.
    pub(crate) fn forward_and_reverse(
        neighbors: &NeighborList,
        threads_per_block: usize,
    ) -> [Self; 2] {
        let n_atoms = neighbors.n_atoms();
        let reverse = ReverseGroups::new(neighbors);
        [
            AssignmentTable::from_groups(
                || (0..n_atoms).map(|i| (i, neighbors.neighbors(i).iter().copied())),
                n_atoms,
                threads_per_block,
            ),
            AssignmentTable::from_groups(
                || (0..n_atoms).map(|j| (j, reverse.partners(j).iter().copied())),
                n_atoms,
                threads_per_block,
            ),
        ]
    }

    /// The one table build. `groups()` yields a pairs-list's runs of pairs
    /// sharing a first atom, in list order, as `(first atom, second atoms)`;
    /// the pair indices count the pairs in that order. It is walked twice:
    /// once to size the table, once to fill it in place.
    fn from_groups<G, S>(groups: impl Fn() -> G, n_atoms: usize, threads_per_block: usize) -> Self
    where
        G: Iterator<Item = (usize, S)>,
        S: ExactSizeIterator<Item = usize>,
    {
        assert!(threads_per_block > 0, "threads_per_block must be positive");
        let tpb = threads_per_block;
        // A run is cut into chunks of at most a block's threads.
        let chunks =
            move |len: usize| (0..len).step_by(tpb).map(move |start| (len - start).min(tpb));
        // A chunk goes at the next free row unless it would cross into the next
        // block; then the rest of the current block is padding.
        let place = |cursor: usize, len: usize| {
            if cursor % tpb + len > tpb {
                cursor.next_multiple_of(tpb)
            } else {
                cursor
            }
        };
        let end = groups()
            .flat_map(|(_, seconds)| chunks(seconds.len()))
            .fold(0, |cursor, len| place(cursor, len) + len);
        let mut rows = vec![AssignmentRow::padding(); end.next_multiple_of(tpb)];
        // Each block's own totals, summed once every row is placed.
        let mut sums = vec![BlockTotals::default(); rows.len() / tpb];
        let (mut cursor, mut pair_index) = (0, 0);
        for (first, mut seconds) in groups() {
            for group_size in chunks(seconds.len()) {
                cursor = place(cursor, group_size);
                let block = &mut sums[cursor / tpb];
                block.work_rows += group_size;
                block.master_rows += 1;
                block.last_first_atom = first;
                for (offset, second) in seconds.by_ref().take(group_size).enumerate() {
                    rows[cursor + offset] = AssignmentRow {
                        pair_index,
                        atom_first: first,
                        atom_second: second,
                        master: offset == 0,
                        group_size: if offset == 0 { group_size } else { 0 },
                    };
                    pair_index += 1;
                }
                cursor += group_size;
            }
        }
        for b in 1..sums.len() {
            sums[b].work_rows += sums[b - 1].work_rows;
            sums[b].master_rows += sums[b - 1].master_rows;
        }
        AssignmentTable { rows, threads_per_block, n_atoms, sums }
    }

    /// Number of thread blocks the table spans.
    pub fn n_blocks(&self) -> usize {
        self.sums.len()
    }

    /// The rows of block `b`.
    pub(crate) fn block_rows(&self, b: usize) -> &[AssignmentRow] {
        let start = b * self.threads_per_block;
        &self.rows[start..start + self.threads_per_block]
    }

    /// The totals of block `b`.
    pub(crate) fn block_totals(&self, b: usize) -> BlockTotals {
        let (before, through) = (self.totals_before(b), self.sums[b]);
        BlockTotals {
            work_rows: through.work_rows - before.work_rows,
            master_rows: through.master_rows - before.master_rows,
            last_first_atom: through.last_first_atom,
        }
    }

    /// The totals of blocks `..b`, for `b` up to `n_blocks()`.
    pub(crate) fn totals_before(&self, b: usize) -> BlockTotals {
        b.checked_sub(1).map_or_else(BlockTotals::default, |last| self.sums[last])
    }

    /// The first block holding a row whose first atom is `atom` or later
    /// (`n_blocks()` if none does). Every block before it holds only earlier
    /// first atoms, provided the rows ascend by first atom — as the split
    /// lists' tables do, both lists being grouped in atom order.
    pub(crate) fn first_block_from(&self, atom: usize) -> usize {
        self.sums.partition_point(|through| through.last_first_atom < atom)
    }

    /// Number of non-padding rows (total pairs covered).
    pub(crate) fn work_rows(&self) -> usize {
        self.work_rows_from(0)
    }

    /// Number of non-padding rows in blocks `block..`.
    pub(crate) fn work_rows_from(&self, block: usize) -> usize {
        self.totals_before(self.n_blocks()).work_rows - self.totals_before(block).work_rows
    }

    /// Size of the table in f64-equivalent words when transferred to the device
    /// (5 fields per row). Transferred once per neighbor-list rebuild, not per iteration.
    pub(crate) fn transfer_words(&self) -> usize {
        self.rows.len() * 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_molecule::{
        Complex, ForceField, NeighborList, Probe, ProbeType, ProteinSpec, SyntheticProtein,
    };

    /// True when `row` carries no work.
    fn is_padding(row: &AssignmentRow) -> bool {
        row.pair_index == usize::MAX
    }

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
        for row in table.rows.iter().filter(|r| !is_padding(r)) {
            assert!(!seen[row.pair_index], "pair {} assigned twice", row.pair_index);
            seen[row.pair_index] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(table.rows.len() % 64, 0);
        assert_eq!(table.n_blocks() * 64, table.rows.len());
    }

    #[test]
    fn tables_from_the_neighbor_list_equal_the_tables_of_the_split_lists() {
        let nl = neighbor_list();
        let split = SplitPairsLists::from_neighbor_list(&nl);
        for tpb in [16, 32, 64] {
            let [forward, reverse] = AssignmentTable::forward_and_reverse(&nl, tpb);
            assert_eq!(forward, AssignmentTable::build(&split.forward, split.n_atoms, tpb));
            assert_eq!(reverse, AssignmentTable::build(&split.reverse, split.n_atoms, tpb));
        }
    }

    #[test]
    fn block_totals_equal_a_row_walk() {
        use crate::gpu::{pass_counters, PairTerm};
        let nl = neighbor_list();
        for tpb in [16, 32, 64] {
            for table in AssignmentTable::forward_and_reverse(&nl, tpb) {
                // The running totals of blocks `..b` as a walk over their rows
                // sees them, and the counters a table pass states for them.
                let mut before = BlockTotals::default();
                let mut counted = [PairTerm::AceSelf, PairTerm::PairwiseAndVdw]
                    .map(|term| (term, gpu_sim::MemoryCounters::new()));
                for b in 0..=table.n_blocks() {
                    assert_eq!(table.totals_before(b), before, "tpb {tpb}: blocks ..{b}");
                    let rows_after: usize =
                        table.rows[b * tpb..].iter().filter(|r| !is_padding(r)).count();
                    assert_eq!(table.work_rows_from(b), rows_after, "tpb {tpb}: blocks {b}..");
                    for (term, counters) in &counted {
                        assert_eq!(pass_counters(*term, before, b), *counters, "tpb {tpb}: ..{b}");
                    }
                    if b == table.n_blocks() {
                        break;
                    }

                    let rows = table.block_rows(b);
                    let work = rows.iter().filter(|r| !is_padding(r)).count();
                    let masters: Vec<_> = rows.iter().filter(|r| r.master).collect();
                    let group_rows: usize = masters.iter().map(|r| r.group_size).sum();
                    let totals = table.block_totals(b);
                    let last_first_atom = rows[work - 1].atom_first;
                    let walk = BlockTotals {
                        work_rows: work,
                        master_rows: masters.len(),
                        last_first_atom,
                    };
                    assert_eq!(totals, walk, "tpb {tpb} block {b}");
                    assert_eq!(group_rows, work, "tpb {tpb} block {b}: groups cover the work rows");
                    assert!(rows[..work].iter().all(|r| !is_padding(r)), "padding trails");
                    before = BlockTotals {
                        work_rows: before.work_rows + work,
                        master_rows: before.master_rows + masters.len(),
                        last_first_atom,
                    };
                    for (term, counters) in &mut counted {
                        counters.merge(&pass_counters(*term, walk, 1));
                    }
                }
                assert_eq!(table.work_rows(), table.work_rows_from(0));
            }
        }
    }

    #[test]
    fn first_block_from_finds_the_first_block_with_a_later_first_atom() {
        let nl = neighbor_list();
        for tpb in [16, 32, 64] {
            for table in AssignmentTable::forward_and_reverse(&nl, tpb) {
                for atom in [0, 1, nl.n_atoms() / 2, nl.n_atoms() - 3, nl.n_atoms(), usize::MAX] {
                    let walk = (0..table.n_blocks())
                        .find(|&b| {
                            table
                                .block_rows(b)
                                .iter()
                                .any(|r| !is_padding(r) && r.atom_first >= atom)
                        })
                        .unwrap_or(table.n_blocks());
                    assert_eq!(table.first_block_from(atom), walk, "tpb {tpb}, atom {atom}");
                }
            }
        }
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
            for row in rows.iter().filter(|r| !is_padding(r)) {
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
        assert_eq!(table.rows[2..], [AssignmentRow::padding(); 6]);
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
