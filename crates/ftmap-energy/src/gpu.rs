//! GPU mapping of the energy-minimization kernels (paper §IV), on the device model.
//!
//! The per-iteration work is split into the paper's three kernels:
//!
//! * **self-energy kernel** — Born self energies plus the ACE pairwise self-energy
//!   corrections and their gradients;
//! * **pairwise + van der Waals kernel** — generalized-Born pair interactions and the
//!   smoothed Lennard-Jones term, with gradients;
//! * **force-update kernel** — combines the accumulated gradients into per-atom forces.
//!
//! Each pair kernel runs twice — once over the **forward** assignment table and once
//! over the **reverse** table — so that only the first atom of each pair is updated per
//! pass and accumulation can happen in shared memory (the paper's final scheme). The
//! module also implements the two earlier schemes (§IV.A neighbor-list mapping and the
//! single pairs-list with host accumulation) so the ablation benches can compare them.
//!
//! Kernel counters come from the assignment table, not from the arithmetic: every
//! launch records the work of every pair, and a table-pass block records its
//! counters from the totals the table stored for it when it was built. So the host
//! simulation may skip output slots its caller never reads
//! (`GpuMinimizationEngine::evaluate_mobile`) without moving a modeled second. The
//! tables ascend by first atom and the probe's atoms come last, so the rows a
//! mobile-only caller reads are a suffix of each table: the blocks before it record
//! their counters and stop, and the block order's turns start where the suffix does.

use crate::pairs::{AssignmentTable, BlockTotals, PairsList};
use crate::terms::{self, PairGeometry};
use ftmap_math::{Real, Vec3};
use ftmap_molecule::{Atom, Complex, ForceField, NeighborList};
use gpu_sim::{
    BlockContext, BlockKernel, BlockOrder, Device, KernelLaunch, KernelStats, Staged, StatsLedger,
};

/// Ledger phase names for the kernels of one GPU minimization iteration.
mod phases {
    /// Kernel (a): Born self energies + ACE pairwise self-energy corrections.
    pub(super) const SELF_ENERGY: &str = "self_energy";
    /// Kernel (b): generalized-Born pair interactions + van der Waals.
    pub(super) const PAIRWISE_VDW: &str = "pairwise_vdw";
    /// Kernel (c): per-atom force update.
    pub(super) const FORCE_UPDATE: &str = "force_update";
}

/// Threads per block of the minimization kernels (one assignment-table row per
/// thread), so a table-pass block's shared-memory staging is a fixed-size array.
const THREADS_PER_BLOCK: usize = 64;

/// Which non-bonded contribution a kernel pass evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairTerm {
    /// ACE pairwise self-energy corrections (part of the self-energy kernel).
    AceSelf,
    /// Generalized-Born pair interactions + van der Waals (the fused second kernel).
    PairwiseAndVdw,
}

/// Flops charged per pair for each term (exp/sqrt-heavy ACE term is the most expensive,
/// matching the Table 2 ordering where the self-energy kernel dominates).
fn flops_per_pair(term: PairTerm) -> u64 {
    match term {
        PairTerm::AceSelf => 60,
        PairTerm::PairwiseAndVdw => 45,
    }
}

/// Evaluates one ordered pair at distance `r` for the given term: returns the energy
/// credited to the *first* atom and the **full** radial derivative dE/dr of the pair's
/// contribution to the total energy (the force on the first atom depends on every term
/// the pair contributes, even when only part of the energy is credited to it in this
/// pass).
#[inline]
fn pair_energy(term: PairTerm, ai: &Atom, aj: &Atom, r: Real, ff: &ForceField) -> (Real, Real) {
    match term {
        PairTerm::AceSelf => {
            let [(e_ij, d_ij), (_, d_ji)] = terms::ace_pair_self_energies(ai, aj, r, ff);
            (e_ij, d_ij + d_ji)
        }
        PairTerm::PairwiseAndVdw => {
            let (e_gb, d_gb) = terms::gb_pair_energy(ai, aj, r, ff);
            let (e_vdw, d_vdw) = terms::vdw_pair_energy(ai, aj, r, ff);
            // Half of each symmetric pair term is credited to the first atom; the other
            // half is credited when the reverse list processes the mirrored pair. The
            // force uses the full derivative.
            (0.5 * (e_gb + e_vdw), d_gb + d_vdw)
        }
    }
}

/// The energies [`pair_energy`] credits to each atom of the pair `(i, j)`,
/// `(first = i, first = j)`, from one shared distance: what the two earlier
/// schemes compute per pair, two evaluations each.
fn pair_energies_both_ways(
    term: PairTerm,
    complex: &Complex,
    ff: &ForceField,
    i: usize,
    j: usize,
) -> (Real, Real) {
    let (ai, aj) = (&complex.atoms[i], &complex.atoms[j]);
    let r = PairGeometry::new(ai.position, aj.position).r;
    (pair_energy(term, ai, aj, r, ff).0, pair_energy(term, aj, ai, r, ff).0)
}

/// Per-iteration outputs of the GPU evaluation path. Per-kernel statistics live
/// in the [`StatsLedger`] under the `phases` names; the accessors below are
/// the conventional views.
#[derive(Debug, Clone)]
pub struct GpuIterationResult {
    /// Per-atom non-bonded energies (self + pair contributions).
    pub atom_energies: Vec<Real>,
    /// Per-atom forces from the non-bonded terms.
    pub forces: Vec<Vec3>,
    /// The per-phase ledger the iteration's launches were recorded into.
    pub ledger: StatsLedger,
}

impl GpuIterationResult {
    /// Stats of the self-energy kernel (forward + reverse passes merged).
    pub fn self_energy_stats(&self) -> KernelStats {
        self.ledger.phase(phases::SELF_ENERGY)
    }

    /// Stats of the pairwise + van der Waals kernel (forward + reverse passes merged).
    pub fn pairwise_vdw_stats(&self) -> KernelStats {
        self.ledger.phase(phases::PAIRWISE_VDW)
    }

    /// Stats of the force-update kernel.
    pub fn force_update_stats(&self) -> KernelStats {
        self.ledger.phase(phases::FORCE_UPDATE)
    }
}

/// The GPU minimization engine: owns the assignment tables for one complex and runs the
/// three kernels per iteration.
pub struct GpuMinimizationEngine<'a> {
    device: &'a Device,
    ff: ForceField,
    forward_table: AssignmentTable,
    reverse_table: AssignmentTable,
}

impl<'a> GpuMinimizationEngine<'a> {
    /// Builds the engine: splits the neighbor list, builds the forward/reverse
    /// assignment tables and charges their one-time transfer to the device ("there is
    /// no further data transfer per iteration, unless the neighbor list is updated",
    /// §IV.B).
    pub fn new(device: &'a Device, ff: ForceField, neighbors: &NeighborList) -> Self {
        let [forward_table, reverse_table] = upload_tables(device, neighbors);
        GpuMinimizationEngine { device, ff, forward_table, reverse_table }
    }

    /// Number of pairs covered per pass (forward list length).
    pub fn n_pairs(&self) -> usize {
        self.forward_table.work_rows()
    }

    /// Rebuilds the assignment tables after a neighbor-list update (happens only a few
    /// times per 1000 iterations) and charges the re-transfer.
    pub(crate) fn refresh_neighbor_list(&mut self, neighbors: &NeighborList) {
        [self.forward_table, self.reverse_table] = upload_tables(self.device, neighbors);
    }

    /// The launch of one pass of a pair kernel over `table` (one block per
    /// table block, one thread per row, shared memory for the row results).
    fn table_pass_launch(&self, table: &AssignmentTable) -> KernelLaunch<'a> {
        KernelLaunch::on(self.device)
            .grid(table.n_blocks())
            .threads(THREADS_PER_BLOCK)
            .shared_mem_words(THREADS_PER_BLOCK * 2)
    }

    /// Runs one full GPU iteration: self-energy kernel, pairwise+vdW kernel (each as a
    /// forward and a reverse table pass) and the force-update kernel. Per-kernel stats
    /// are merged by a [`StatsLedger`] under the `phases` names.
    pub fn evaluate(&self, complex: &Complex) -> GpuIterationResult {
        self.evaluate_from(complex, 0)
    }

    /// Runs the iteration of [`GpuMinimizationEngine::evaluate`] for a caller that
    /// reads only the mobile atoms (`complex.is_mobile`, the probe): their energies
    /// and forces are bit for bit those of `evaluate`, and every other slot stays
    /// zero. The launches, their counters and the modeled times are the full
    /// iteration's — the modeled device still evaluates every pair; the host
    /// simulation skips the pairs whose results land only in slots nobody reads,
    /// and the table-pass blocks before the first block holding a mobile atom's
    /// row only record their counters.
    pub(crate) fn evaluate_mobile(&self, complex: &Complex) -> GpuIterationResult {
        self.evaluate_from(complex, complex.probe_offset)
    }

    /// The iteration body: computes the output slots of atoms `first_output..`
    /// and records every launch in full. The iteration's launches depend on
    /// each other only through the device's launch order, so they run as one
    /// launch sequence: one set of host workers per evaluation, not one per
    /// launch.
    fn evaluate_from(&self, complex: &Complex, first_output: usize) -> GpuIterationResult {
        let n = complex.n_atoms();
        let energies: Staged<Vec<Real>> = Staged::zeroed(n);
        let forces: Staged<Vec<Vec3>> = Staged::zeroed(n);
        let outputs = Outputs { energies: &energies, forces: &forces, first: first_output };

        // Kernel (a): atom self energies. The Born term is per-atom; the ACE pairwise
        // corrections come from the two table passes. Kernel (b): pairwise GB + van
        // der Waals, two more passes. Kernel (c): force update — per-atom pass
        // combining the accumulated gradients.
        let born = BornSelfKernel { complex, ff: &self.ff, outputs };
        let passes = [
            (phases::SELF_ENERGY, PairTerm::AceSelf, &self.forward_table),
            (phases::SELF_ENERGY, PairTerm::AceSelf, &self.reverse_table),
            (phases::PAIRWISE_VDW, PairTerm::PairwiseAndVdw, &self.forward_table),
            (phases::PAIRWISE_VDW, PairTerm::PairwiseAndVdw, &self.reverse_table),
        ];
        let pass_kernels = passes
            .map(|(_, term, table)| TablePassKernel::new(complex, &self.ff, term, table, outputs));
        let force = ForceUpdateKernel { n_atoms: n };

        let per_atom = KernelLaunch::on(self.device).threads(THREADS_PER_BLOCK).for_items(n);
        let mut launches = [per_atom.queue(&born); 6];
        let mut launch_phases = [phases::SELF_ENERGY; 6];
        let mut len = 1;
        for ((phase, _, table), kernel) in passes.iter().zip(&pass_kernels) {
            // Empty tables launch nothing.
            if table.n_blocks() > 0 {
                (launches[len], launch_phases[len]) =
                    (self.table_pass_launch(table).queue(kernel), phase);
                len += 1;
            }
        }
        (launches[len], launch_phases[len]) = (per_atom.queue(&force), phases::FORCE_UPDATE);
        len += 1;

        let mut stats = [KernelStats::zero(); 6];
        self.device.launch_sequence(&launches[..len], &mut stats[..len]);
        let mut ledger = StatsLedger::new();
        for (phase, stats) in launch_phases.iter().zip(&stats[..len]) {
            ledger.record(phase, stats);
        }
        GpuIterationResult { atom_energies: energies.take(), forces: forces.take(), ledger }
    }

    // ------------------------------------------------------------------
    // The two earlier schemes, kept for the §IV ablation.
    // ------------------------------------------------------------------

    /// Scheme of §IV.A: one "first" atom per thread block over the raw neighbor list.
    /// Produces the same ACE-self energies as the table passes, with the extra global
    /// traffic of copying the per-block second-atom arrays to global memory for merging.
    pub fn scheme_neighbor_list(
        &self,
        complex: &Complex,
        neighbors: &NeighborList,
        term: PairTerm,
    ) -> (Vec<Real>, KernelStats) {
        let n = complex.n_atoms();
        let energies: Staged<Vec<Real>> = Staged::zeroed(n);
        let order = BlockOrder::new();
        let kernel = NeighborSchemeKernel {
            complex,
            ff: &self.ff,
            term,
            neighbors,
            energies: &energies,
            order: &order,
        };
        // One block per first atom — heavily uneven work, under-filled blocks.
        let stats = KernelLaunch::on(self.device)
            .grid(n.max(1))
            .threads(32)
            .shared_mem_words(512)
            .run(&kernel);
        (energies.take(), stats)
    }

    /// Scheme of §IV.B (first variant): a single flat pairs-list processed on the
    /// device, partial energies written to global memory, accumulation on the **host**
    /// after transferring the two energy arrays back every iteration.
    pub fn scheme_pairs_list_host_accum(
        &self,
        complex: &Complex,
        pairs: &PairsList,
        term: PairTerm,
    ) -> (Vec<Real>, KernelStats) {
        let n = complex.n_atoms();
        let partials: Staged<Vec<(Real, Real)>> = Staged::new(vec![(0.0, 0.0); pairs.len()]);
        let kernel = PairsListKernel { complex, ff: &self.ff, term, pairs, partials: &partials };
        let mut stats = KernelLaunch::on(self.device)
            .threads(THREADS_PER_BLOCK)
            .for_items(pairs.len())
            .run(&kernel);
        let partials = partials.take();

        // Per-iteration transfer of the two partial-energy arrays back to the host.
        let transfer_s = self.device.download_slice(&partials);
        // Serial host accumulation, modeled on the Xeon core.
        let host_counters = gpu_sim::MemoryCounters {
            flops: 2 * pairs.len() as u64,
            global_reads: 2 * pairs.len() as u64,
            global_writes: 2 * pairs.len() as u64,
            ..Default::default()
        };
        let host_model = gpu_sim::CostModel::new(gpu_sim::DeviceSpec::xeon_core());
        stats.modeled_time_s += transfer_s + host_model.serial_time(&host_counters);

        let mut energies = vec![0.0; n];
        for (pair, (e_first, e_second)) in pairs.pairs.iter().zip(&partials) {
            energies[pair.first] += *e_first;
            energies[pair.second] += *e_second;
        }
        (energies, stats)
    }

    /// Scheme of §IV.B (final variant): the split-list assignment-table passes used by
    /// [`GpuMinimizationEngine::evaluate`], exposed separately for the ablation bench.
    pub fn scheme_split_assignment(
        &self,
        complex: &Complex,
        term: PairTerm,
    ) -> (Vec<Real>, KernelStats) {
        let n = complex.n_atoms();
        let energies: Staged<Vec<Real>> = Staged::zeroed(n);
        let forces: Staged<Vec<Vec3>> = Staged::zeroed(n);
        let outputs = Outputs { energies: &energies, forces: &forces, first: 0 };
        let mut ledger = StatsLedger::new();
        for table in [&self.forward_table, &self.reverse_table] {
            // Empty tables launch nothing.
            if table.n_blocks() > 0 {
                let kernel = TablePassKernel::new(complex, &self.ff, term, table, outputs);
                self.table_pass_launch(table).run_recorded(&mut ledger, "split", &kernel);
            }
        }
        (energies.take(), ledger.total())
    }
}

/// Builds the forward and reverse assignment tables of `neighbors` and charges
/// their transfer to `device` ("there is no further data transfer per iteration,
/// unless the neighbor list is updated", §IV.B).
fn upload_tables(device: &Device, neighbors: &NeighborList) -> [AssignmentTable; 2] {
    let tables = AssignmentTable::forward_and_reverse(neighbors, THREADS_PER_BLOCK);
    let words: usize = tables.iter().map(AssignmentTable::transfer_words).sum();
    device.upload_bytes((words * std::mem::size_of::<Real>()) as u64);
    tables
}

/// The per-atom output arrays of one iteration, and the first atom whose
/// slots the caller reads: kernels skip the arithmetic of slots below it.
#[derive(Clone, Copy)]
struct Outputs<'a> {
    energies: &'a Staged<Vec<Real>>,
    forces: &'a Staged<Vec<Vec3>>,
    first: usize,
}

/// Kernel: per-atom Born self energies.
struct BornSelfKernel<'a> {
    complex: &'a Complex,
    ff: &'a ForceField,
    outputs: Outputs<'a>,
}

impl BlockKernel for BornSelfKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let range = ctx.block_range(self.complex.n_atoms());
        if range.is_empty() {
            return;
        }
        ctx.record_global_reads(2 * range.len() as u64);
        ctx.record_flops(5 * range.len() as u64);
        ctx.record_global_writes(range.len() as u64);
        // Each atom is one thread's own slot: no staging, no ordering needed.
        let mut out = self.outputs.energies.write();
        for i in range.start.max(self.outputs.first)..range.end {
            out[i] += terms::born_self_energy(&self.complex.atoms[i], self.ff);
        }
    }
}

/// Kernel: one assignment-table block pass (the paper's final scheme).
struct TablePassKernel<'a> {
    complex: &'a Complex,
    ff: &'a ForceField,
    term: PairTerm,
    table: &'a AssignmentTable,
    outputs: Outputs<'a>,
    /// The first block holding a row whose slot is read: the blocks before it
    /// record their counters and neither compute nor commit.
    first_block: usize,
    /// An atom with more rows than a block has threads is summed by several
    /// blocks; committing in block order keeps that sum reproducible. Its
    /// turns start at `first_block`.
    order: BlockOrder,
}

impl<'a> TablePassKernel<'a> {
    /// One pass of `term` over `table`, simulating the rows of the atoms
    /// `outputs` reads.
    fn new(
        complex: &'a Complex,
        ff: &'a ForceField,
        term: PairTerm,
        table: &'a AssignmentTable,
        outputs: Outputs<'a>,
    ) -> Self {
        let first_block = table.first_block_from(outputs.first);
        let order = BlockOrder::starting_at(first_block);
        TablePassKernel { complex, ff, term, table, outputs, first_block, order }
    }
}

impl BlockKernel for TablePassKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        // The device's work, the same for every block whether or not it is
        // simulated: every work row reads its table row and two atoms' data
        // from global, computes, and stores to shared; each master then reads
        // its group from shared (the groups cover the work rows) and writes
        // the energy and force sums to global.
        let BlockTotals { work_rows, master_rows, .. } = self.table.block_totals(ctx.block_idx);
        let (work, masters) = (work_rows as u64, master_rows as u64);
        ctx.record_global_reads(work * 13);
        ctx.record_flops(work * flops_per_pair(self.term));
        ctx.record_shared_accesses(work * 2);
        ctx.sync_threads();
        ctx.record_shared_accesses(work);
        ctx.record_global_writes(masters * 2);
        if ctx.block_idx < self.first_block {
            return;
        }

        // Phase 1: every thread computes its pair's energy into shared memory;
        // only rows whose slot is read are simulated.
        let rows = &self.table.block_rows(ctx.block_idx)[..work_rows];
        let mut shared_energy = [0.0; THREADS_PER_BLOCK];
        let mut shared_force = [Vec3::ZERO; THREADS_PER_BLOCK];
        for (slot, row) in rows.iter().enumerate() {
            if row.atom_first < self.outputs.first {
                continue;
            }
            let ai = &self.complex.atoms[row.atom_first];
            let aj = &self.complex.atoms[row.atom_second];
            let geom = PairGeometry::new(ai.position, aj.position);
            let (e, de_dr) = pair_energy(self.term, ai, aj, geom.r, self.ff);
            shared_energy[slot] = e;
            shared_force[slot] = geom.force(de_dr);
        }

        // Phase 2: master threads accumulate their group from shared memory and add the
        // totals to the global per-atom arrays, in block order.
        self.order.in_turn(ctx.block_idx, || {
            let mut energies = self.outputs.energies.write();
            let mut forces = self.outputs.forces.write();
            for (slot, row) in rows.iter().enumerate() {
                if !row.master || row.atom_first < self.outputs.first {
                    continue;
                }
                let group = row.group_size;
                let e_sum: Real = shared_energy[slot..slot + group].iter().sum();
                let f_sum: Vec3 = shared_force[slot..slot + group].iter().copied().sum();
                energies[row.atom_first] += e_sum;
                forces[row.atom_first] += f_sum;
            }
        });
    }
}

/// Kernel: per-atom force update (kernel (c) of §IV).
struct ForceUpdateKernel {
    n_atoms: usize,
}

impl BlockKernel for ForceUpdateKernel {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let range = ctx.block_range(self.n_atoms);
        // Combine gradient accumulators into the force array: read the three gradient
        // components and the mass/constraint flags, write the force.
        ctx.record_global_reads(4 * range.len() as u64);
        ctx.record_flops(6 * range.len() as u64);
        ctx.record_global_writes(3 * range.len() as u64);
    }
}

/// Kernel implementing the §IV.A neighbor-list scheme (one first atom per block).
struct NeighborSchemeKernel<'a> {
    complex: &'a Complex,
    ff: &'a ForceField,
    term: PairTerm,
    neighbors: &'a NeighborList,
    energies: &'a Staged<Vec<Real>>,
    order: &'a BlockOrder,
}

impl BlockKernel for NeighborSchemeKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let i = ctx.block_idx;
        let partners = if i < self.complex.n_atoms() { self.neighbors.neighbors(i) } else { &[] };
        if partners.is_empty() {
            // Nothing to commit, but the turn still has to pass.
            return self.order.in_turn(i, || ());
        }
        let mut first_energy = 0.0;
        let mut second_energies = Vec::with_capacity(partners.len());
        for &j in partners {
            let (e_ij, e_ji) = pair_energies_both_ways(self.term, self.complex, self.ff, i, j);
            first_energy += e_ij;
            second_energies.push((j, e_ji));
        }
        let n_pairs = partners.len() as u64;
        // Two energy evaluations per pair, both staged in shared memory first.
        ctx.record_global_reads(n_pairs * 13);
        ctx.record_flops(2 * n_pairs * flops_per_pair(self.term));
        ctx.record_shared_accesses(2 * n_pairs);
        ctx.sync_threads();
        // The second-atom partial array must be copied to global memory and merged —
        // the transfer the paper identifies as this scheme's main cost.
        ctx.record_global_writes(n_pairs + 1);
        ctx.record_global_reads(n_pairs);

        // Every block adds into its partners' slots: merge in block order.
        self.order.in_turn(i, || {
            let mut energies = self.energies.write();
            energies[i] += first_energy;
            for (j, e) in second_energies {
                energies[j] += e;
            }
        });
    }
}

/// Kernel implementing the single pairs-list scheme (partial energies to global memory).
struct PairsListKernel<'a> {
    complex: &'a Complex,
    ff: &'a ForceField,
    term: PairTerm,
    pairs: &'a PairsList,
    partials: &'a Staged<Vec<(Real, Real)>>,
}

impl BlockKernel for PairsListKernel<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let range = ctx.block_range(self.pairs.len());
        if range.is_empty() {
            return;
        }
        let mut local = Vec::with_capacity(range.len());
        for idx in range.clone() {
            let pair = self.pairs.pairs[idx];
            local.push(pair_energies_both_ways(
                self.term,
                self.complex,
                self.ff,
                pair.first,
                pair.second,
            ));
        }
        let n = range.len() as u64;
        ctx.record_global_reads(n * 13);
        ctx.record_flops(2 * n * flops_per_pair(self.term));
        // Partial energies are written straight to global memory (no shared staging).
        ctx.record_global_writes(2 * n);
        let mut out = self.partials.write();
        for (offset, v) in local.into_iter().enumerate() {
            out[range.start + offset] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use ftmap_molecule::{Probe, ProbeType, ProteinSpec, SyntheticProtein};

    fn system() -> (Complex, NeighborList, ForceField) {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let probe = Probe::new(ProbeType::Ethanol, &ff);
        let mut posed = probe.clone();
        let target = protein.pocket_centers[0];
        for a in &mut posed.atoms {
            a.position += target;
        }
        let complex = Complex::new(&protein, &posed);
        let excluded = complex.topology.excluded_pairs();
        let neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
        (complex, neighbors, ff)
    }

    #[test]
    fn gpu_iteration_matches_host_nonbonded_energy() {
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff.clone(), &neighbors);
        let result = gpu.evaluate(&complex);

        let host = Evaluator::new(ff).evaluate_nonbonded(&complex, &neighbors);
        let host_total = host.breakdown.electrostatics + host.breakdown.vdw;
        let gpu_total: Real = result.atom_energies.iter().sum();
        assert!(
            (host_total - gpu_total).abs() < 1e-6 * (1.0 + host_total.abs()),
            "host {host_total} vs gpu {gpu_total}"
        );
        // Per-atom energies agree too.
        for (h, g) in host.atom_energies.iter().zip(&result.atom_energies) {
            assert!((h - g).abs() < 1e-6 * (1.0 + h.abs()), "{h} vs {g}");
        }
        assert!(result.ledger.total_modeled_s() > 0.0);
        assert_eq!(result.forces.len(), complex.n_atoms());
    }

    #[test]
    fn gpu_forces_match_host_pair_forces() {
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff.clone(), &neighbors);
        let result = gpu.evaluate(&complex);
        let host = Evaluator::new(ff).evaluate_nonbonded(&complex, &neighbors);
        for (h, g) in host.forces.iter().zip(&result.forces) {
            assert!((*h - *g).norm() < 1e-6 * (1.0 + h.norm()), "host {h:?} vs gpu {g:?}");
        }
    }

    #[test]
    fn repeated_evaluations_are_bitwise_identical() {
        // Determinism: an atom with more neighbours than a block has threads
        // spreads its rows over several blocks, blocks run concurrently on the
        // launch workers, and float addition is not associative — so the
        // per-atom sums must be committed in an order fixed by the table, not
        // by block arrival. Needs a host with at least two cores to bite.
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff, &neighbors);
        let first = gpu.evaluate(&complex);
        for run in 1..200 {
            let again = gpu.evaluate(&complex);
            assert!(
                again.atom_energies == first.atom_energies,
                "run {run}: atom energies moved between identical evaluations"
            );
            assert!(again.forces == first.forces, "run {run}: forces moved");
        }
    }

    #[test]
    fn evaluation_is_invariant_to_the_launch_worker_count() {
        // One worker (every launch sequence inline on the caller) and the full
        // device must give the same bits and the same counters, for the full
        // evaluation and for the mobile-only one the minimizer runs; only the
        // modeled seconds differ, because the specs do.
        let (complex, neighbors, ff) = system();
        let one_worker =
            Device::new(gpu_sim::DeviceSpec { sm_count: 1, ..gpu_sim::DeviceSpec::tesla_c1060() });
        let full = Device::tesla_c1060();
        let inline_engine = GpuMinimizationEngine::new(&one_worker, ff.clone(), &neighbors);
        let spread_engine = GpuMinimizationEngine::new(&full, ff, &neighbors);

        let energy_bits = |r: &GpuIterationResult| -> Vec<u64> {
            r.atom_energies.iter().map(|e| e.to_bits()).collect()
        };
        let force_bits = |r: &GpuIterationResult| -> Vec<[u64; 3]> {
            r.forces.iter().map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()]).collect()
        };
        for evaluate in [GpuMinimizationEngine::evaluate, GpuMinimizationEngine::evaluate_mobile] {
            let inline = evaluate(&inline_engine, &complex);
            let spread = evaluate(&spread_engine, &complex);
            assert_eq!(energy_bits(&inline), energy_bits(&spread));
            assert_eq!(force_bits(&inline), force_bits(&spread));
            for phase in [phases::SELF_ENERGY, phases::PAIRWISE_VDW, phases::FORCE_UPDATE] {
                let (a, b) = (inline.ledger.phase(phase), spread.ledger.phase(phase));
                assert_eq!(a.counters, b.counters, "{phase}");
                assert_eq!(inline.ledger.launches(phase), spread.ledger.launches(phase));
            }
        }
    }

    #[test]
    fn an_evaluation_traces_one_event_per_launch_in_launch_order() {
        // The iteration runs as one launch sequence, but the trace still shows
        // the six launches of Table 2's three kernels, named by kernel type,
        // with the grid and modeled seconds the ledger recorded.
        use ftmap_trace::{ItemScope, Recorder, Tags, TraceSink, Track};
        use std::sync::Arc;
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff, &neighbors);
        for evaluate in [GpuMinimizationEngine::evaluate, GpuMinimizationEngine::evaluate_mobile] {
            let recorder = Arc::new(Recorder::new());
            let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as _;
            let scope = ItemScope::enter(&sink, Track::Device(0), Tags::device(0));
            let result = evaluate(&gpu, &complex);
            drop(scope);
            let events = recorder.drain_raw();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "BornSelfKernel<'_>",
                    "TablePassKernel<'_>",
                    "TablePassKernel<'_>",
                    "TablePassKernel<'_>",
                    "TablePassKernel<'_>",
                    "ForceUpdateKernel"
                ]
            );
            assert_eq!(events.len(), result.ledger.total_launches());
            let grid = |e: &ftmap_trace::TraceEvent| {
                e.tags.nums.iter().find(|(k, _)| *k == "grid_blocks").map(|&(_, v)| v as usize)
            };
            let blocks: usize = events.iter().filter_map(grid).sum();
            assert_eq!(blocks, result.ledger.total().blocks);
            for (phase, range) in [
                (phases::SELF_ENERGY, 0..3),
                (phases::PAIRWISE_VDW, 3..5),
                (phases::FORCE_UPDATE, 5..6),
            ] {
                let traced: f64 = events[range].iter().map(|e| e.dur_s).sum();
                let recorded = result.ledger.phase(phase).modeled_time_s;
                assert_eq!(traced.to_bits(), recorded.to_bits(), "{phase}");
            }
        }
    }

    #[test]
    fn mobile_evaluation_matches_the_full_one_on_mobile_atoms_and_in_every_launch() {
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff, &neighbors);
        let full = gpu.evaluate(&complex);
        let mobile = gpu.evaluate_mobile(&complex);

        for i in 0..complex.n_atoms() {
            let (e, f) = (mobile.atom_energies[i], mobile.forces[i]);
            if complex.is_mobile(i) {
                assert_eq!(e.to_bits(), full.atom_energies[i].to_bits(), "atom {i} energy");
                assert_eq!(
                    f.to_array().map(f64::to_bits),
                    full.forces[i].to_array().map(f64::to_bits),
                    "atom {i} force"
                );
            } else {
                assert_eq!((e, f), (0.0, Vec3::ZERO), "immobile atom {i} was computed");
            }
        }
        // The modeled device still runs the whole iteration.
        for phase in [phases::SELF_ENERGY, phases::PAIRWISE_VDW, phases::FORCE_UPDATE] {
            let (a, b) = (full.ledger.phase(phase), mobile.ledger.phase(phase));
            assert_eq!(a.counters, b.counters, "{phase}");
            assert_eq!((a.blocks, a.threads_per_block), (b.blocks, b.threads_per_block));
            assert_eq!(a.modeled_time_s.to_bits(), b.modeled_time_s.to_bits(), "{phase}");
            assert_eq!(full.ledger.launches(phase), mobile.ledger.launches(phase));
        }
    }

    #[test]
    fn kernel_stats_reflect_paper_ordering() {
        // Table 2: the self-energy kernel is the most expensive, then pairwise+vdW,
        // then the force update.
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff, &neighbors);
        let result = gpu.evaluate(&complex);
        assert!(
            result.self_energy_stats().modeled_time_s > result.force_update_stats().modeled_time_s
        );
        assert!(
            result.pairwise_vdw_stats().modeled_time_s > result.force_update_stats().modeled_time_s
        );
        assert!(
            result.self_energy_stats().counters.flops
                > result.pairwise_vdw_stats().counters.flops / 2
        );
    }

    #[test]
    fn all_three_schemes_agree_on_energies() {
        let (complex, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let gpu = GpuMinimizationEngine::new(&device, ff, &neighbors);
        let pairs = PairsList::from_neighbor_list(&neighbors);

        let (e_neighbor, s_neighbor) =
            gpu.scheme_neighbor_list(&complex, &neighbors, PairTerm::AceSelf);
        let (e_pairs, s_pairs) =
            gpu.scheme_pairs_list_host_accum(&complex, &pairs, PairTerm::AceSelf);
        let (e_split, s_split) = gpu.scheme_split_assignment(&complex, PairTerm::AceSelf);

        for ((a, b), c) in e_neighbor.iter().zip(&e_pairs).zip(&e_split) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
            assert!((a - c).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {c}");
        }
        // The final scheme must beat the single pairs-list with host accumulation (the
        // paper quotes only ~3× for that scheme before the restructuring).
        assert!(
            s_split.modeled_time_s < s_pairs.modeled_time_s,
            "split {} vs pairs {}",
            s_split.modeled_time_s,
            s_pairs.modeled_time_s
        );
        // The neighbor-list scheme computes every pair twice and moves every partial
        // energy through global memory; per pair covered it must generate more global
        // traffic than the final scheme. (The merged-counter cost model cannot see the
        // intra-block load imbalance that is this scheme's other problem, so the
        // comparison here is on traffic, not modeled time.)
        let split_traffic_per_pair =
            s_split.counters.global_accesses() as f64 / (2.0 * neighbors.n_pairs() as f64);
        let neighbor_traffic_per_pair =
            s_neighbor.counters.global_accesses() as f64 / neighbors.n_pairs() as f64;
        assert!(
            neighbor_traffic_per_pair > split_traffic_per_pair,
            "neighbor {neighbor_traffic_per_pair} vs split {split_traffic_per_pair}"
        );
    }

    #[test]
    fn refresh_neighbor_list_charges_transfer() {
        let (_, neighbors, ff) = system();
        let device = Device::tesla_c1060();
        let before_bytes = device.total_transfer_bytes();
        let mut gpu = GpuMinimizationEngine::new(&device, ff, &neighbors);
        let after_build = device.total_transfer_bytes();
        assert!(after_build > before_bytes);
        gpu.refresh_neighbor_list(&neighbors);
        assert!(device.total_transfer_bytes() > after_build);
        assert!(gpu.n_pairs() > 0);
    }
}
