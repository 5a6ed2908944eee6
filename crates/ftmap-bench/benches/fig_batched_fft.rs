//! Batched FFT docking figure: what receptor-transform residency plus the
//! fused top-K epilogue buys over the per-rotation FFT path.
//!
//! Three claims, each gated:
//!
//! * **Warm-receptor speedup** — with the receptor's forward transforms and
//!   FFT plan resident (derived residency hit), the batched engine's modeled
//!   per-rotation time must stay ≥ 2× below the per-rotation
//!   `FftSerial` path, which recomputes the receptor transforms
//!   every run and correlates one rotation per pass.
//! * **Download reduction** — the fused epilogue scores and top-K-filters on
//!   the device before any download, so only retained poses are
//!   transfer-accounted. Bytes downloaded per rotation must be ≥ 10× below
//!   the full `N³` score grid an unfused path would ship across the link.
//! * **Bit-identity** — swapping the batched engine into a
//!   `PipelineMode::Accelerated` pipeline changes modeled times only: pose
//!   selections, pose centres and consensus sites are reproduced exactly.
//!
//! Results are written to `BENCH_BATCHED_FFT.json` at the workspace root
//! (per-rotation modeled times comparable with the `BENCH_BASELINE.json`
//! Table-1 rows).
//!
//! Run with: `cargo bench -p ftmap-bench --bench fig_batched_fft`
//! (set `FTMAP_BATCHED_FFT_ROTATIONS=8` for a reduced scale).

use ftmap_bench::{DockingWorkload, BENCH_GRID_DIM};
use ftmap_core::{FtMapConfig, FtMapPipeline, MappingResult, PipelineMode};
use ftmap_molecule::{ForceField, ProbeLibrary, ProbeType, ProteinSpec, SyntheticProtein};
use piper_dock::docking::DEFAULT_FFT_BATCH;
use piper_dock::{Docking, DockingEngineKind, DockingRun, Pose};
use std::time::Instant;

/// The gate: minimum warm-receptor batched speedup over the per-rotation FFT
/// path (modeled per-rotation time).
const MIN_WARM_SPEEDUP: f64 = 2.0;
/// The gate: minimum reduction in bytes downloaded per rotation versus
/// shipping the full `N³` score grid.
const MIN_DOWNLOAD_REDUCTION: f64 = 10.0;

struct Results {
    rotations: usize,
    fft_per_rotation_ms: f64,
    batched_cold_per_rotation_ms: f64,
    batched_warm_per_rotation_ms: f64,
    warm_speedup: f64,
    unfused_bytes_per_rotation: usize,
    fused_bytes_per_rotation: f64,
    download_reduction: f64,
    wall_ms: f64,
}

/// Per-rotation modeled milliseconds of a docking run.
fn per_rotation_ms(run: &DockingRun) -> f64 {
    1e3 * run.modeled.total() / run.n_rotations as f64
}

fn assert_poses_bit_identical(a: &[Pose], b: &[Pose], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: pose counts diverged");
    for (pa, pb) in a.iter().zip(b) {
        assert_eq!(pa.rotation_index, pb.rotation_index, "{label}: rotation diverged");
        assert_eq!(pa.translation, pb.translation, "{label}: translation diverged");
        assert_eq!(
            pa.score.to_bits(),
            pb.score.to_bits(),
            "{label}: score bits diverged ({} vs {})",
            pa.score,
            pb.score
        );
    }
}

/// The acceptance check: a `PipelineMode::Accelerated` pipeline with the
/// batched engine swapped in reproduces the stock accelerated pipeline's
/// mapping exactly — same pose centres, same consensus sites.
fn assert_pipeline_bit_identical() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
    let run = |engine: Option<DockingEngineKind>| -> MappingResult {
        let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
        if let Some(engine) = engine {
            config.docking.engine = engine;
        }
        FtMapPipeline::new(protein.clone(), ff.clone(), config).map(&library)
    };
    let stock = run(None);
    let batched = run(Some(DockingEngineKind::BatchedFft { batch: DEFAULT_FFT_BATCH }));
    assert_eq!(stock.conformations_minimized, batched.conformations_minimized);
    assert_eq!(stock.pose_centers.len(), batched.pose_centers.len());
    for ((pa, ca), (pb, cb)) in stock.pose_centers.iter().zip(&batched.pose_centers) {
        assert_eq!(pa, pb, "pipeline probe order diverged");
        assert!(
            ca.x == cb.x && ca.y == cb.y && ca.z == cb.z,
            "pose centre moved under the batched engine: {ca:?} vs {cb:?}"
        );
    }
    assert_eq!(stock.sites.len(), batched.sites.len(), "site counts diverged");
    for (a, b) in stock.sites.iter().zip(&batched.sites) {
        assert_eq!(a.rank, b.rank);
        assert!(
            a.cluster.center.distance(b.cluster.center) == 0.0,
            "consensus site moved under the batched engine"
        );
    }
}

fn main() {
    let start = Instant::now();
    let rotations: usize = std::env::var("FTMAP_BATCHED_FFT_ROTATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(ftmap_bench::BENCH_ROTATIONS);
    let workload = DockingWorkload::standard();
    let config = |engine: DockingEngineKind| {
        let mut config = workload.config(engine);
        config.n_rotations = rotations;
        config
    };

    // The comparator: per-rotation FFT correlation on the host model, receptor
    // transforms recomputed by every run.
    let fft_docking = Docking::new(&workload.protein.atoms, config(DockingEngineKind::FftSerial));
    let fft_run = fft_docking.run(&workload.probe);

    // The batched engine on one modeled device. Run 1 is cold: the raw grids
    // upload at construction and the first run computes + caches the receptor
    // transforms (derived residency miss). Run 2 is warm: raw hit + derived
    // hit, so docking skips straight to the ligand-side transforms.
    let batched_docking = Docking::new(
        &workload.protein.atoms,
        config(DockingEngineKind::BatchedFft { batch: DEFAULT_FFT_BATCH }),
    );
    let cold_run = batched_docking.run(&workload.probe);
    let warm_run = batched_docking.run(&workload.probe);
    assert_poses_bit_identical(&fft_run.poses, &cold_run.poses, "cold batched vs per-rotation");
    assert_poses_bit_identical(&cold_run.poses, &warm_run.poses, "warm batched vs cold");

    // The download ledger: an unfused path ships each rotation's full N³
    // score grid; the fused epilogue ships only the retained poses (this is
    // exactly what `BatchedFftEngine::dock_batch` transfer-accounts — pinned
    // by `download_carries_only_retained_poses` in piper-dock).
    let unfused_bytes_per_rotation =
        BENCH_GRID_DIM.pow(3) * std::mem::size_of::<ftmap_math::Real>();
    let fused_bytes_per_rotation =
        (warm_run.poses.len() * std::mem::size_of::<Pose>()) as f64 / rotations as f64;

    let fft_ms = per_rotation_ms(&fft_run);
    let cold_ms = per_rotation_ms(&cold_run);
    let warm_ms = per_rotation_ms(&warm_run);
    let results = Results {
        rotations,
        fft_per_rotation_ms: fft_ms,
        batched_cold_per_rotation_ms: cold_ms,
        batched_warm_per_rotation_ms: warm_ms,
        warm_speedup: fft_ms / warm_ms.max(1e-12),
        unfused_bytes_per_rotation,
        fused_bytes_per_rotation,
        download_reduction: unfused_bytes_per_rotation as f64 / fused_bytes_per_rotation.max(1e-12),
        wall_ms: 1e3 * start.elapsed().as_secs_f64(),
    };

    assert_pipeline_bit_identical();

    println!(
        "fig_batched_fft: {rotations} rotations, {BENCH_GRID_DIM}^3 grid, batch {DEFAULT_FFT_BATCH}\n"
    );
    println!("{:>34}{:>16}", "path", "per-rot ms");
    println!("{:>34}{:>16.4}", "per-rotation FFT (host model)", results.fft_per_rotation_ms);
    println!("{:>34}{:>16.4}", "batched FFT, cold receptor", results.batched_cold_per_rotation_ms);
    println!("{:>34}{:>16.4}", "batched FFT, warm receptor", results.batched_warm_per_rotation_ms);
    println!(
        "\nwarm speedup {:.2}x; download {} B -> {:.1} B per rotation ({:.0}x reduction)",
        results.warm_speedup,
        results.unfused_bytes_per_rotation,
        results.fused_bytes_per_rotation,
        results.download_reduction
    );

    let json = format_json(&results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BATCHED_FFT.json");
    std::fs::write(path, json).expect("write BENCH_BATCHED_FFT.json");
    println!("\nwrote {path}");

    assert!(
        results.warm_speedup >= MIN_WARM_SPEEDUP,
        "REGRESSION: warm-receptor batched speedup {:.2}x fell below the \
         {MIN_WARM_SPEEDUP}x gate",
        results.warm_speedup
    );
    assert!(
        results.download_reduction >= MIN_DOWNLOAD_REDUCTION,
        "REGRESSION: download reduction {:.1}x fell below the \
         {MIN_DOWNLOAD_REDUCTION}x gate",
        results.download_reduction
    );
    assert!(
        results.batched_warm_per_rotation_ms <= results.batched_cold_per_rotation_ms,
        "REGRESSION: warm run slower than cold run — transform residency is not \
         amortizing ({:.4} vs {:.4} ms)",
        results.batched_warm_per_rotation_ms,
        results.batched_cold_per_rotation_ms
    );
    println!(
        "gate ok: warm speedup {:.2}x >= {MIN_WARM_SPEEDUP}x, download reduction \
         {:.0}x >= {MIN_DOWNLOAD_REDUCTION}x, pipeline bit-identical",
        results.warm_speedup, results.download_reduction
    );
}

fn format_json(r: &Results) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"batched FFT docking vs per-rotation FFT path\",\n");
    out.push_str(
        "  \"model\": \"receptor transforms + plan as derived residency payloads; one \
         forward/multiply/inverse launch trio per rotation batch; fused on-device top-K \
         epilogue downloads retained poses only\",\n",
    );
    out.push_str(&format!(
        "  \"workload\": {{ \"grid_dim\": {BENCH_GRID_DIM}, \"rotations\": {}, \
         \"fft_batch\": {DEFAULT_FFT_BATCH} }},\n",
        r.rotations
    ));
    out.push_str(&format!(
        "  \"per_rotation_modeled_ms\": {{ \"fft_per_rotation\": {:.4}, \
         \"batched_cold\": {:.4}, \"batched_warm\": {:.4} }},\n",
        r.fft_per_rotation_ms, r.batched_cold_per_rotation_ms, r.batched_warm_per_rotation_ms
    ));
    out.push_str(&format!(
        "  \"download_bytes_per_rotation\": {{ \"unfused_full_grid\": {}, \
         \"fused_top_k\": {:.1} }},\n",
        r.unfused_bytes_per_rotation, r.fused_bytes_per_rotation
    ));
    out.push_str(&format!(
        "  \"warm_speedup\": {{ \"gate\": {MIN_WARM_SPEEDUP:.1}, \"measured\": {:.4} }},\n",
        r.warm_speedup
    ));
    out.push_str(&format!(
        "  \"download_reduction\": {{ \"gate\": {MIN_DOWNLOAD_REDUCTION:.1}, \
         \"measured\": {:.4} }},\n",
        r.download_reduction
    ));
    out.push_str("  \"bit_identical_to_accelerated_pipeline\": true,\n");
    out.push_str(&format!("  \"wall_ms\": {:.1}\n", r.wall_ms));
    out.push_str("}\n");
    out
}
