//! Golden-bit regression tests for the Table-2 minimization path.
//!
//! Every value below is an FNV-1a hash over the IEEE-754 bits (and indices)
//! of one output on the `small_test` complex, recorded at the commit before
//! the pair-structure builds, block execution and the minimizer's final
//! breakdown were reworked for speed. Those reworks promise identical bits;
//! these hashes are what holds them to it — including the final-breakdown
//! reuse across neighbor-list refreshes (intervals 1, 2 and 250). The serial
//! evaluator's full output and the three §IV schemes were pinned the same
//! way, before the energy-only evaluations, the two-sided ACE term and the
//! shared pair geometry went in.

use ftmap_energy::evaluator::Evaluation;
use ftmap_energy::gpu::{GpuMinimizationEngine, PairTerm};
use ftmap_energy::minimize::EvaluationPath;
use ftmap_energy::pairs::{AssignmentTable, AtomPair};
use ftmap_energy::{
    Evaluator, MinimizationConfig, MinimizationResult, Minimizer, PairsList, SplitPairsLists,
};
use ftmap_math::Vec3;
use ftmap_molecule::{
    Complex, ForceField, NeighborList, Probe, ProbeType, ProteinSpec, SyntheticProtein,
};
use gpu_sim::{Device, Fnv1a, KernelStats};

/// The `small_test` protein with an ethanol probe at its first pocket centre,
/// shifted by `offset` Å.
fn system_at(offset: Vec3) -> (Complex, NeighborList, ForceField) {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut posed = Probe::new(ProbeType::Ethanol, &ff);
    let target = protein.pocket_centers[0] + offset;
    for a in &mut posed.atoms {
        a.position += target;
    }
    let complex = Complex::new(&protein, &posed);
    let excluded = complex.topology.excluded_pairs();
    let neighbors = NeighborList::build(&complex.atoms, ff.cutoff, &excluded);
    (complex, neighbors, ff)
}

fn system() -> (Complex, NeighborList, ForceField) {
    system_at(Vec3::ZERO)
}

fn write_vec3(hash: &mut Fnv1a, v: Vec3) {
    for c in [v.x, v.y, v.z] {
        hash.write_f64(c);
    }
}

fn write_pairs(hash: &mut Fnv1a, pairs: &[AtomPair]) {
    hash.write_u64(pairs.len() as u64);
    for p in pairs {
        hash.write_u64(p.first as u64);
        hash.write_u64(p.second as u64);
    }
}

fn write_table(hash: &mut Fnv1a, table: &AssignmentTable) {
    hash.write_u64(table.threads_per_block as u64);
    hash.write_u64(table.n_atoms as u64);
    hash.write_u64(table.rows.len() as u64);
    for row in &table.rows {
        for v in [row.pair_index, row.atom_first, row.atom_second, row.master as usize] {
            hash.write_u64(v as u64);
        }
        hash.write_u64(row.group_size as u64);
    }
}

fn write_stats(hash: &mut Fnv1a, stats: &KernelStats) {
    hash.write_u64(stats.blocks as u64);
    hash.write_u64(stats.threads_per_block as u64);
    let c = stats.counters;
    for v in
        [c.flops, c.global_reads, c.global_writes, c.shared_accesses, c.constant_reads, c.barriers]
    {
        hash.write_u64(v);
    }
    hash.write_f64(stats.modeled_time_s);
}

fn minimization_hash(result: &MinimizationResult) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_f64(result.initial_energy);
    hash.write_f64(result.final_energy);
    hash.write_u64(result.iterations as u64);
    hash.write_u64(result.converged as u64);
    let b = &result.breakdown;
    for e in [b.electrostatics, b.vdw, b.bonded] {
        hash.write_f64(e);
    }
    let (a, p, f) = result.modeled_kernel_times_s;
    for t in [a, p, f] {
        hash.write_f64(t);
    }
    for &pos in &result.final_positions {
        write_vec3(&mut hash, pos);
    }
    hash.finish()
}

/// Asserts every `(what, got, recorded)` hash matches, listing all of them
/// (not just the first mismatch) when one does not.
fn assert_golden(hashes: &[(String, u64, u64)]) {
    let report: Vec<String> = hashes
        .iter()
        .map(|(what, got, want)| {
            let verdict = if got == want { "ok  " } else { "DIFF" };
            format!("{verdict} {what}: {got:#018x} (recorded {want:#018x})")
        })
        .collect();
    assert!(hashes.iter().all(|(_, got, want)| got == want), "{}", report.join("\n"));
}

#[test]
fn split_pairs_lists_and_assignment_tables_are_unchanged() {
    let (_, neighbors, _) = system();
    let split = SplitPairsLists::from_neighbor_list(&neighbors);
    let mut lists = Fnv1a::new();
    lists.write_u64(split.n_atoms as u64);
    write_pairs(&mut lists, &split.forward);
    write_pairs(&mut lists, &split.reverse);

    let mut tables = Fnv1a::new();
    for tpb in [16, 32, 64] {
        write_table(&mut tables, &AssignmentTable::build(&split.forward, split.n_atoms, tpb));
        write_table(&mut tables, &AssignmentTable::build(&split.reverse, split.n_atoms, tpb));
    }
    assert_golden(&[
        ("split pairs lists".into(), lists.finish(), 0xc046_fb93_1517_b05b),
        ("assignment tables".into(), tables.finish(), 0x40af_8890_9a71_9706),
    ]);
}

#[test]
fn gpu_evaluate_energies_forces_and_ledger_are_unchanged() {
    let (complex, neighbors, ff) = system();
    let device = Device::tesla_c1060();
    let result = GpuMinimizationEngine::new(&device, ff, &neighbors).evaluate(&complex);

    let mut values = Fnv1a::new();
    for &e in &result.atom_energies {
        values.write_f64(e);
    }
    for &f in &result.forces {
        write_vec3(&mut values, f);
    }

    let mut ledger = Fnv1a::new();
    for (phase, stats) in result.ledger.phases() {
        ledger.write(phase.as_bytes());
        ledger.write_u64(result.ledger.launches(phase) as u64);
        write_stats(&mut ledger, &stats);
    }
    assert_golden(&[
        ("energies and forces".into(), values.finish(), 0xd53b_aa76_5918_ae53),
        ("ledger".into(), ledger.finish(), 0xea65_4812_3dbb_f31b),
    ]);
}

fn evaluation_hash(eval: &Evaluation) -> u64 {
    let mut hash = Fnv1a::new();
    for &e in &eval.atom_energies {
        hash.write_f64(e);
    }
    for &f in &eval.forces {
        write_vec3(&mut hash, f);
    }
    let b = &eval.breakdown;
    for e in [b.electrostatics, b.vdw, b.bonded] {
        hash.write_f64(e);
    }
    hash.finish()
}

#[test]
fn host_evaluations_are_unchanged() {
    // The serial evaluator's full output — per-atom energies, forces and the
    // term totals — with and without the bonded terms, centred and shifted.
    let cases = [
        (Vec3::ZERO, 0x520e_88aa_4726_c3d9, 0x4f91_0294_846d_d6fb),
        (Vec3::new(-2.0, 2.0, 0.0), 0x23ae_23f2_0237_8c45, 0x1d0c_1a3a_f464_22b7),
        (Vec3::new(1.5, 0.5, -3.0), 0xbea4_45fb_1b26_c99e, 0x7cfc_bf99_feb5_57e4),
    ];
    let mut hashes = Vec::new();
    for (offset, want_full, want_nonbonded) in cases {
        let (complex, neighbors, ff) = system_at(offset);
        let evaluator = Evaluator::new(ff);
        let at = offset.to_array();
        hashes.push((
            format!("evaluate, probe shifted {at:?}"),
            evaluation_hash(&evaluator.evaluate(&complex, &neighbors)),
            want_full,
        ));
        hashes.push((
            format!("evaluate_nonbonded, probe shifted {at:?}"),
            evaluation_hash(&evaluator.evaluate_nonbonded(&complex, &neighbors)),
            want_nonbonded,
        ));
    }
    assert_golden(&hashes);
}

#[test]
fn gpu_mapping_schemes_are_unchanged() {
    // The three §IV mapping schemes, per pair term: energies and stats.
    let (complex, neighbors, ff) = system();
    let device = Device::tesla_c1060();
    let engine = GpuMinimizationEngine::new(&device, ff, &neighbors);
    let pairs = PairsList::from_neighbor_list(&neighbors);
    let cases = [
        (PairTerm::AceSelf, 0xc243_13f2_31f3_5b27),
        (PairTerm::PairwiseAndVdw, 0xc7b3_a668_43ce_0fd6),
    ];
    let hashes: Vec<_> = cases
        .into_iter()
        .map(|(term, want)| {
            let mut hash = Fnv1a::new();
            for (energies, stats) in [
                engine.scheme_neighbor_list(&complex, &neighbors, term),
                engine.scheme_pairs_list_host_accum(&complex, &pairs, term),
                engine.scheme_split_assignment(&complex, term),
            ] {
                for e in energies {
                    hash.write_f64(e);
                }
                write_stats(&mut hash, &stats);
            }
            (format!("{term:?} schemes"), hash.finish(), want)
        })
        .collect();
    assert_golden(&hashes);
}

#[test]
fn minimization_results_are_unchanged_across_neighbor_refresh_intervals() {
    // Centred, `small_test` barely moves the probe and every refresh rebuilds
    // the same list. Shifted 2 Å off-centre with a larger step, the probe moves
    // far enough that refreshed lists differ, and some runs end on rejected
    // trials after such a refresh (host: every-1; GPU: every-1 and every-2) —
    // the case where reusing the last accepted evaluation for the final
    // breakdown would be stale.
    let device = Device::tesla_c1060();
    let shifted = Vec3::new(-2.0, 2.0, 0.0);
    let cases = [
        (EvaluationPath::Host, Vec3::ZERO, 5e-4, 1, 0x285b_81ba_5c1f_ee30),
        (EvaluationPath::Host, Vec3::ZERO, 5e-4, 2, 0x285b_81ba_5c1f_ee30),
        (EvaluationPath::Host, Vec3::ZERO, 5e-4, 250, 0x285b_81ba_5c1f_ee30),
        (EvaluationPath::Host, shifted, 1e-2, 1, 0x987c_3eac_454f_e79c),
        (EvaluationPath::Host, shifted, 1e-2, 2, 0x924d_f75c_fc53_3e1b),
        (EvaluationPath::Host, shifted, 1e-2, 250, 0x64fb_b541_bd98_d490),
        (EvaluationPath::Gpu, Vec3::ZERO, 5e-4, 1, 0xf961_5d92_5ec8_03a3),
        (EvaluationPath::Gpu, Vec3::ZERO, 5e-4, 2, 0xf961_5d92_5ec8_03a3),
        (EvaluationPath::Gpu, Vec3::ZERO, 5e-4, 250, 0xf961_5d92_5ec8_03a3),
        (EvaluationPath::Gpu, shifted, 1e-2, 1, 0xcb07_f9a8_bd3c_9db2),
        (EvaluationPath::Gpu, shifted, 1e-2, 2, 0xbcee_136a_2420_7e90),
        (EvaluationPath::Gpu, shifted, 1e-2, 250, 0xf0bf_072d_bdb0_f01a),
    ];
    let hashes: Vec<_> = cases
        .into_iter()
        .map(|(path, offset, initial_step, neighbor_refresh_interval, want)| {
            let (mut complex, _, ff) = system_at(offset);
            let config = MinimizationConfig {
                initial_step,
                neighbor_refresh_interval,
                ..MinimizationConfig::small_test(path)
            };
            let result = Minimizer::new(ff, config).minimize(&mut complex, &device);
            let what = format!(
                "{path:?} minimization, probe shifted {:?}, step {initial_step}, \
                 refresh every {neighbor_refresh_interval}",
                offset.to_array()
            );
            (what, minimization_hash(&result), want)
        })
        .collect();
    assert_golden(&hashes);
}
