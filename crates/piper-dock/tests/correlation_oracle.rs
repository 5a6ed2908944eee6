//! A naive correlation oracle for every docking engine.
//!
//! [`naive_correlation`] is Equation (1) written out literally, in the shape
//! of a `conv3d` of the probe footprint over the receptor grid: for every
//! translation `d` and term `t`,
//! `out_t[d] = Σ_{x,y,z} L_t[x, y, z] · R_t[(x + dx) % N, (y + dy) % N, (z + dz) % N]`,
//! summed from `+0.0` over the footprint in storage order.
//!
//! * `DirectSerial` and `DirectMulticore` must match it **bitwise**.
//!   They add a translation's products in the same order — ligand entries are
//!   the footprint voxels in storage order — and only skip voxels whose value
//!   is `±0.0`. Skipping those changes no bit: their product with a finite
//!   receptor value is a signed zero, and adding a signed zero to an
//!   accumulator that starts at `+0.0` leaves it unchanged (a sum that cancels
//!   exactly is `+0.0` in round-to-nearest, so the accumulator is never `-0.0`).
//! * `Gpu` runs the same slab routine but keeps only its retained poses: each
//!   must carry, bitwise, the score the naive grids give its translation, and
//!   the pose list must be `filter::filter_top_k` over the naive score grid.
//! * `FftSerial` and `BatchedFft` evaluate the same sum through the
//!   convolution theorem, on real-input transforms over the half spectrum,
//!   so they match within [`fft_tolerance`]. Docking, both score a rotation
//!   with one inverse transform of the weighted sum of the term products, so
//!   their scores match the naive score grid within twice the sum of the
//!   per-term tolerances.

use ftmap_math::{Grid3, Real, RotationSet};
use ftmap_molecule::{ForceField, Probe, ProbeType, ProteinSpec, SyntheticProtein};
use gpu_sim::Device;
use piper_dock::direct::{DirectCorrelationEngine, SparseEntry, SparseLigand};
use piper_dock::fft_engine::FftCorrelationEngine;
use piper_dock::filter;
use piper_dock::gpu::GpuDockingEngine;
use piper_dock::grids::{term_kinds, GridSpec};
use piper_dock::{BatchedFftEngine, EnergyWeights, LigandGrids, Pose, ReceptorGrids};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N_DESOLV: usize = 4;

/// The literal cyclic cross-correlation of one ligand term over one receptor
/// term.
fn naive_correlation(ligand: &Grid3<Real>, receptor: &Grid3<Real>) -> Grid3<Real> {
    let n = receptor.dims().0;
    let (lx, ly, lz) = ligand.dims();
    let mut out = Grid3::cubic(n);
    for dx in 0..n {
        for dy in 0..n {
            for dz in 0..n {
                let mut acc = 0.0;
                for x in 0..lx {
                    for y in 0..ly {
                        for z in 0..lz {
                            let r = *receptor.at((x + dx) % n, (y + dy) % n, (z + dz) % n);
                            acc += *ligand.at(x, y, z) * r;
                        }
                    }
                }
                *out.at_mut(dx, dy, dz) = acc;
            }
        }
    }
    out
}

fn naive_rotation(ligand: &LigandGrids, receptor: &ReceptorGrids) -> Vec<Grid3<Real>> {
    ligand.terms.iter().zip(&receptor.terms).map(|(l, r)| naive_correlation(l, r)).collect()
}

/// The FFT engines' allowed deviation from the naive sum for one term:
/// `8 · log2(N³) · ε · Σ|L| · max|R|`. The rounding error of a radix-2
/// transform grows like `ε · log2(N³)` times the size of its inputs; on these
/// cases the largest observed deviation is `8 ε · Σ|L| · max|R|`, six to
/// eight times inside the bound at 16³ and 32³.
fn fft_tolerance(ligand: &Grid3<Real>, receptor: &Grid3<Real>) -> Real {
    let l1: Real = ligand.as_slice().iter().map(|v| v.abs()).sum();
    let r_max = receptor.as_slice().iter().fold(0.0, |m: Real, v| m.max(v.abs()));
    8.0 * (receptor.len() as Real).log2() * Real::EPSILON * l1 * r_max
}

/// Random values in `[-scale, scale)`, with about `zeros` of them `+0.0` or
/// `-0.0`.
fn fill(grid: &mut Grid3<Real>, rng: &mut SmallRng, scale: Real, zeros: f64) {
    for v in grid.as_mut_slice() {
        *v = if rng.gen_range(0.0..1.0) < zeros {
            if rng.gen_range(0.0..1.0) < 0.5 {
                0.0
            } else {
                -0.0
            }
        } else {
            rng.gen_range(-scale..scale)
        };
    }
}

/// The `small_test` protein's receptor grids at `dim³`, with every value
/// replaced by seeded noise when `seed` is given.
fn receptor(dim: usize, seed: Option<u64>) -> ReceptorGrids {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let spec = GridSpec::centered_on(&protein.atoms, dim, 2.0);
    let mut grids = ReceptorGrids::build(&protein.atoms, spec, N_DESOLV);
    if let Some(seed) = seed {
        // Filled before anything reads the memoized content key.
        let mut rng = SmallRng::seed_from_u64(seed);
        for term in &mut grids.terms {
            fill(term, &mut rng, 10.0, 0.2);
        }
    }
    grids
}

/// A sparse random ligand with a `dim³` footprint per term.
fn random_ligand(dim: usize, rng: &mut SmallRng) -> LigandGrids {
    let terms = term_kinds(N_DESOLV)
        .iter()
        .map(|_| {
            let mut grid = Grid3::cubic(dim);
            fill(&mut grid, rng, 2.0, 0.6);
            grid
        })
        .collect();
    LigandGrids { dim, spacing: 1.0, terms }
}

/// The per-voxel loop over a sparse ligand: every translation adds its
/// entries' products in entry order, from `+0.0`.
fn naive_sparse(ligand: &SparseLigand, receptor: &ReceptorGrids) -> Vec<Grid3<Real>> {
    let n = receptor.spec.dim;
    let mut out: Vec<Grid3<Real>> = (0..ligand.n_terms).map(|_| Grid3::cubic(n)).collect();
    for dx in 0..n {
        for dy in 0..n {
            for dz in 0..n {
                for e in &ligand.entries {
                    let (x, y, z) = e.offset;
                    let r = *receptor.terms[e.term].at((x + dx) % n, (y + dy) % n, (z + dz) % n);
                    *out[e.term].at_mut(dx, dy, dz) += e.value * r;
                }
            }
        }
    }
    out
}

/// A hand-built sparse ligand over an `n³` receptor: one entry per `z`
/// offset `0..n` (so a row splits at every possible wrap), with `x` and `y`
/// offsets at either edge or in between, terms drawn at random (so they
/// interleave out of order and repeat offsets), a few values `±0.0`, in
/// shuffled order.
fn hand_built_ligand(n: usize, n_terms: usize, rng: &mut SmallRng) -> SparseLigand {
    let edge = |rng: &mut SmallRng| match rng.gen_range(0..3) {
        0 => 0,
        1 => n - 1,
        _ => rng.gen_range(0..n),
    };
    let mut entries: Vec<SparseEntry> = (0..n)
        .map(|oz| SparseEntry {
            term: rng.gen_range(0..n_terms),
            offset: (edge(rng), edge(rng), oz),
            value: match rng.gen_range(0..5) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(-2.0..2.0),
            },
        })
        .collect();
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..i + 1));
    }
    SparseLigand { dim: n, n_terms, entries }
}

/// The Equation (2) score grid of one rotation's term results.
fn score_grid(terms: &[Grid3<Real>], weights: &EnergyWeights) -> Grid3<Real> {
    let desolv = filter::accumulate_desolvation(terms, N_DESOLV);
    filter::score_grid(terms, &desolv, weights, N_DESOLV)
}

/// Docks `ligands` as one Gpu batch (3 poses per rotation, exclusion radius 1)
/// and checks every slot's poses against its naive score grid, bitwise.
fn check_gpu(receptor: &ReceptorGrids, ligands: &[SparseLigand], naive: &[Vec<Grid3<Real>>]) {
    let device = Device::tesla_c1060();
    let weights = EnergyWeights::default();
    let indices: Vec<usize> = (0..ligands.len()).collect();
    let out = GpuDockingEngine::new(&device, receptor)
        .dock_batch(ligands, &indices, &weights, N_DESOLV, 3, 1);
    let bits = |poses: &[Pose]| -> Vec<_> {
        poses.iter().map(|p| (p.rotation_index, p.translation, p.score.to_bits())).collect()
    };
    for (slot, terms) in naive.iter().enumerate() {
        let scores = score_grid(terms, &weights);
        for pose in &out.poses[slot] {
            let (x, y, z) = pose.translation;
            let want = *scores.at(x, y, z);
            assert!(
                pose.score.to_bits() == want.to_bits(),
                "Gpu slot {slot}: {pose:?} vs {want:e}"
            );
        }
        let want = filter::filter_top_k(&scores, 3, 1, slot);
        assert_eq!(bits(&out.poses[slot]), bits(&want), "Gpu slot {slot}");
    }
}

fn assert_bitwise(engine: &str, got: &[Grid3<Real>], want: &[Grid3<Real>]) {
    assert_eq!(got.len(), want.len(), "{engine}: term count");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        for (i, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{engine}: term {t} voxel {i}: {a:e} vs {b:e}");
        }
    }
}

/// Checks every engine against the naive oracle on one receptor and a batch
/// of ligands.
fn check_engines(receptor: &ReceptorGrids, ligands: &[LigandGrids]) {
    let naive: Vec<Vec<Grid3<Real>>> =
        ligands.iter().map(|l| naive_rotation(l, receptor)).collect();
    let sparse: Vec<SparseLigand> = ligands.iter().map(SparseLigand::from_grids).collect();

    let direct = DirectCorrelationEngine::new(receptor);
    for (want, s) in naive.iter().zip(&sparse) {
        assert_bitwise("DirectSerial", &direct.correlate_rotation_serial(s), want);
        assert_bitwise("DirectMulticore", &direct.correlate_rotation_multicore(s, 3), want);
    }

    check_gpu(receptor, &sparse, &naive);

    let fft = FftCorrelationEngine::new(receptor);
    for (ligand, want) in ligands.iter().zip(&naive) {
        let got = fft.correlate_rotation(ligand);
        for (t, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = fft_tolerance(&ligand.terms[t], &receptor.terms[t]);
            for (i, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
                assert!((a - b).abs() <= tol, "FftSerial: term {t} voxel {i}: {a} vs {b} (±{tol})");
            }
        }
    }

    // BatchedFft returns only its retained poses: each must carry the score
    // the naive grids give its translation. Every default weight is at most 1
    // in magnitude, so the score may deviate by the sum of the per-term
    // tolerances; the factor 2 covers the rounding of the scoring sums.
    let weights = EnergyWeights::default();
    let indices: Vec<usize> = (0..ligands.len()).collect();
    let batched = BatchedFftEngine::new(&Device::tesla_c1060(), receptor)
        .dock_batch(ligands, &indices, &weights, N_DESOLV, 3, 1);
    for (slot, ligand) in ligands.iter().enumerate() {
        let scores = score_grid(&naive[slot], &weights);
        let tol: Real = ligand
            .terms
            .iter()
            .zip(&receptor.terms)
            .map(|(l, r)| fft_tolerance(l, r))
            .sum::<Real>()
            * 2.0;
        assert_eq!(batched.poses[slot].len(), 3, "slot {slot}");
        for pose in &batched.poses[slot] {
            let (x, y, z) = pose.translation;
            let want = *scores.at(x, y, z);
            assert!((pose.score - want).abs() <= tol, "BatchedFft slot {slot}: {pose:?} vs {want}");
        }
    }
}

/// Checks `FftSerial`'s retained poses — `filter::filter_top_k` over the
/// engine's score routine, 3 poses per rotation, exclusion radius 1 — the way
/// `check_engines` checks `BatchedFft`'s: each must carry the score the naive
/// grids give its translation, within twice the per-term tolerances' sum.
fn check_fft_serial_poses(receptor: &ReceptorGrids, ligands: &[LigandGrids]) {
    let weights = EnergyWeights::default();
    let fft = FftCorrelationEngine::new(receptor);
    for (slot, ligand) in ligands.iter().enumerate() {
        let scores = score_grid(&naive_rotation(ligand, receptor), &weights);
        let tol = score_tolerance(ligand, receptor);
        let routine = fft.rotation_score_grid(ligand, &weights, N_DESOLV);
        let poses = filter::filter_top_k(&routine, 3, 1, slot);
        assert_eq!(poses.len(), 3, "slot {slot}");
        for pose in &poses {
            let (x, y, z) = pose.translation;
            let want = *scores.at(x, y, z);
            assert!((pose.score - want).abs() <= tol, "FftSerial slot {slot}: {pose:?} vs {want}");
        }
    }
}

/// Twice the sum over terms of [`fft_tolerance`]: how far an FFT engine's
/// Equation (2) score may lie from the naive grids' (every default weight is
/// at most 1 in magnitude; the factor 2 covers the rounding of the sums).
fn score_tolerance(ligand: &LigandGrids, receptor: &ReceptorGrids) -> Real {
    let per_term = ligand.terms.iter().zip(&receptor.terms).map(|(l, r)| fft_tolerance(l, r));
    per_term.sum::<Real>() * 2.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 3³ and 4³ footprints (with `±0.0` voxels) over random 16³
    /// receptor grids: the FFT engines' score routine, which sums the weighted
    /// term products in the half spectrum and inverse-transforms once, stays
    /// within twice the per-term tolerances' sum of the naive score grid at
    /// every voxel, and `FftSerial`'s retained poses carry naive scores.
    #[test]
    fn fft_score_routine_matches_the_naive_score_grid_at_16(
        seed in 0u64..u64::MAX,
        footprints in prop::collection::vec(3usize..5, 2),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let receptor = receptor(16, Some(rng.gen_range(0..u64::MAX)));
        let ligands: Vec<LigandGrids> =
            footprints.iter().map(|&dim| random_ligand(dim, &mut rng)).collect();
        let weights = EnergyWeights::default();
        let fft = FftCorrelationEngine::new(&receptor);
        for ligand in &ligands {
            let want = score_grid(&naive_rotation(ligand, &receptor), &weights);
            let got = fft.rotation_score_grid(ligand, &weights, N_DESOLV);
            let tol = score_tolerance(ligand, &receptor);
            for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                prop_assert!((a - b).abs() <= tol, "voxel {}: {} vs {} (±{})", i, a, b, tol);
            }
        }
        check_fft_serial_poses(&receptor, &ligands);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 3³ and 4³ footprints (with `±0.0` voxels) over random 16³
    /// receptor grids, two rotations per batch.
    #[test]
    fn engines_match_the_naive_correlation_at_16(
        seed in 0u64..u64::MAX,
        footprints in prop::collection::vec(3usize..5, 2),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let receptor = receptor(16, Some(rng.gen_range(0..u64::MAX)));
        let ligands: Vec<LigandGrids> =
            footprints.iter().map(|&dim| random_ligand(dim, &mut rng)).collect();
        check_engines(&receptor, &ligands);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hand-built sparse ligands over random 8³ receptor grids: every direct
    /// engine must equal the per-voxel entry-order loop bitwise, and the Gpu
    /// engine must retain the poses of its score grids.
    #[test]
    fn direct_engines_match_the_per_voxel_loop_on_hand_built_ligands(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let receptor = receptor(8, Some(rng.gen_range(0..u64::MAX)));
        let (n, n_terms) = (receptor.spec.dim, receptor.n_terms());
        let ligands: Vec<SparseLigand> =
            (0..3).map(|_| hand_built_ligand(n, n_terms, &mut rng)).collect();
        let want: Vec<Vec<Grid3<Real>>> =
            ligands.iter().map(|l| naive_sparse(l, &receptor)).collect();

        let direct = DirectCorrelationEngine::new(&receptor);
        for (ligand, want) in ligands.iter().zip(&want) {
            assert_bitwise("DirectSerial", &direct.correlate_rotation_serial(ligand), want);
            for threads in [3, 9] {
                let got = direct.correlate_rotation_multicore(ligand, threads);
                assert_bitwise("DirectMulticore", &got, want);
            }
        }
        check_gpu(&receptor, &ligands, &want);
    }
}

#[test]
fn engines_match_the_naive_correlation_at_32() {
    // The protein's own receptor grids and real acetone rotations: footprints
    // of 3³ to 4³ at a 2 Å spacing.
    let receptor = receptor(32, None);
    let probe = Probe::new(ProbeType::Acetone, &ForceField::charmm_like());
    let ligands: Vec<LigandGrids> = RotationSet::uniform(2)
        .iter()
        .map(|r| LigandGrids::build(&probe.atoms, r, 2.0, N_DESOLV))
        .collect();
    for ligand in &ligands {
        assert!((3..=4).contains(&ligand.dim), "footprint {}", ligand.dim);
    }
    check_engines(&receptor, &ligands);
    check_fft_serial_poses(&receptor, &ligands);
}

#[test]
fn engines_match_the_naive_correlation_on_noise_at_32() {
    // The `map_fft` scale with noise in every receptor voxel and two random 4³
    // footprints with `±0.0` voxels: the half-spectrum transforms must stay
    // within `fft_tolerance` where every bin carries signal.
    let mut rng = SmallRng::seed_from_u64(32);
    let receptor = receptor(32, Some(rng.gen_range(0..u64::MAX)));
    let ligands: Vec<LigandGrids> = (0..2).map(|_| random_ligand(4, &mut rng)).collect();
    check_engines(&receptor, &ligands);
    check_fft_serial_poses(&receptor, &ligands);
}
