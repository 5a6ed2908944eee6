//! Pose-granularity sharding figure: what scheduling pose blocks instead of
//! whole probes buys on the two workloads probe granularity handles worst.
//!
//! * **Hot probe** — ONE probe's retained poses on a 4-device pool. Probe
//!   granularity serializes every minimization on a single device (three
//!   devices idle); pose blocks spread them across the pool. The CI gate is
//!   here: pose-block modeled speedup over probe granularity must stay ≥ 2×.
//! * **Mixed pool** — a small library on a heterogeneous 3×Tesla + 1×Xeon
//!   pool. At probe granularity the first-round fan-out hands the modeled-
//!   slow Xeon a whole probe and the load skew blows up; pose blocks are fine
//!   enough for the modeled-clock claim rule to balance (measured skew ~1.14 where
//!   probe granularity measures ~1.54; gated at ≤ 1.3 to ride out claim-race
//!   variance on loaded runners).
//!
//! Results are written to `BENCH_POSE_SHARD.json` at the workspace root.
//!
//! Run with: `cargo bench -p ftmap-bench --bench fig_pose_shard`
//! (set `FTMAP_POSE_SHARD_CONFS=128` for the reduced CI scale).

use ftmap_core::{FtMapConfig, FtMapPipeline, MappingResult, PipelineMode};
use ftmap_molecule::{ForceField, ProbeLibrary, ProbeType, ProteinSpec, SyntheticProtein};
use gpu_sim::sched::DevicePool;
use std::time::Instant;

/// The gate: minimum pose-block speedup over probe granularity on the
/// hot-probe workload (1 probe × all its poses × 4 devices).
const MIN_HOT_PROBE_SPEEDUP: f64 = 2.0;
/// Safety bound on the mixed-pool pose-block skew. The committed
/// `BENCH_POSE_SHARD.json` demonstrates ~1.14 (vs ~1.54 at probe
/// granularity); the gate sits well above that because skew depends on which
/// worker wins discrete claim races — a loaded CI runner can shift it by a
/// block-sized step, and a hair-trigger bound would fail spuriously.
const MAX_POSE_SKEW: f64 = 1.3;

struct Scenario {
    label: &'static str,
    workload: String,
    probe_makespan_ms: f64,
    probe_skew: f64,
    pose_makespan_ms: f64,
    pose_skew: f64,
    pose_blocks: usize,
    speedup: f64,
    wall_ms: f64,
}

fn run(
    protein: &SyntheticProtein,
    ff: &ForceField,
    library: &ProbeLibrary,
    pool: DevicePool,
    pose_block: usize,
    conformations: usize,
) -> (MappingResult, f64) {
    let mut config =
        FtMapConfig::small_test(PipelineMode::Sharded { devices: pool.len(), pose_block });
    // Retain exactly `conformations` poses (the run keeps n_rotations ×
    // poses_per_rotation), so the hot probe really has that many
    // minimizations to spread.
    config.docking.n_rotations = conformations.div_ceil(config.docking.poses_per_rotation).max(1);
    config.conformations_per_probe = conformations;
    let pipeline = FtMapPipeline::with_pool(protein.clone(), ff.clone(), config, pool);
    let start = Instant::now();
    let result = pipeline.map(library);
    (result, start.elapsed().as_secs_f64())
}

fn assert_identical(a: &MappingResult, b: &MappingResult, label: &str) {
    assert_eq!(a.sites.len(), b.sites.len(), "{label}: site counts diverged");
    for (sa, sb) in a.sites.iter().zip(&b.sites) {
        assert!(
            sa.cluster.center.distance(sb.cluster.center) == 0.0,
            "{label}: consensus site moved between granularities"
        );
    }
}

// lint-allow(justified-allows): the scenario runner threads every fixture
// through one call; a params struct would be built once and read once.
#[allow(clippy::too_many_arguments)]
fn scenario(
    label: &'static str,
    workload: String,
    protein: &SyntheticProtein,
    ff: &ForceField,
    library: &ProbeLibrary,
    pool: &dyn Fn() -> DevicePool,
    pose_block: usize,
    conformations: usize,
) -> Scenario {
    let start = Instant::now();
    let (probe, _) = run(protein, ff, library, pool(), 0, conformations);
    let (pose, _) = run(protein, ff, library, pool(), pose_block, conformations);
    assert_identical(&probe, &pose, label);
    let probe_makespan = probe.profile.makespan_modeled_s();
    let pose_makespan = pose.profile.makespan_modeled_s();
    Scenario {
        label,
        workload,
        probe_makespan_ms: 1e3 * probe_makespan,
        probe_skew: probe.profile.load_skew(),
        pose_makespan_ms: 1e3 * pose_makespan,
        pose_skew: pose.profile.load_skew(),
        pose_blocks: pose.profile.schedule.as_ref().map_or(0, |schedule| schedule.blocks),
        speedup: probe_makespan / pose_makespan.max(1e-12),
        wall_ms: 1e3 * start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let conformations: usize =
        std::env::var("FTMAP_POSE_SHARD_CONFS").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let pose_block = (conformations / 20).max(1);
    println!("fig_pose_shard: {conformations} retained poses/probe, pose blocks of {pose_block}\n");

    // Scenario 1 (the gate): one hot probe on four Teslas.
    let hot_library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol]);
    let hot = scenario(
        "hot_probe_4_tesla",
        format!("1 probe x {conformations} poses, 4 x Tesla C1060"),
        &protein,
        &ff,
        &hot_library,
        &|| DevicePool::tesla(4),
        pose_block,
        conformations,
    );

    // Scenario 2: a small library on a mixed Tesla/Xeon pool. Probe
    // granularity hands the modeled-slow Xeon whole probes (the first-round
    // fan-out gives every idle worker one item before any completion has
    // advanced a device clock), so its busy time balloons; pose blocks are
    // fine enough for the claim rule to shrink its share to a few blocks.
    let mixed_library = ProbeLibrary::subset(
        &ff,
        &[
            ProbeType::Ethanol,
            ProbeType::Isopropanol,
            ProbeType::Acetone,
            ProbeType::Acetaldehyde,
            ProbeType::Benzene,
            ProbeType::Phenol,
            ProbeType::Urea,
            ProbeType::Methylamine,
        ],
    );
    let mixed = scenario(
        "small_library_mixed_pool",
        format!("8 probes x {conformations} poses, 3 x Tesla + 1 x Xeon"),
        &protein,
        &ff,
        &mixed_library,
        &|| DevicePool::mixed(3, 1),
        1, // finest blocks: the slow member's claim shrinks to single poses
        conformations,
    );

    println!(
        "{:>26}{:>16}{:>12}{:>16}{:>12}{:>10}{:>10}",
        "scenario", "probe ms", "skew", "pose ms", "skew", "speedup", "blocks"
    );
    for s in [&hot, &mixed] {
        println!(
            "{:>26}{:>16.2}{:>12.3}{:>16.2}{:>12.3}{:>9.2}x{:>10}",
            s.label,
            s.probe_makespan_ms,
            s.probe_skew,
            s.pose_makespan_ms,
            s.pose_skew,
            s.speedup,
            s.pose_blocks
        );
    }

    let json = format_json(&[&hot, &mixed]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_POSE_SHARD.json");
    std::fs::write(path, json).expect("write BENCH_POSE_SHARD.json");
    println!("\nwrote {path}");

    assert!(
        hot.speedup >= MIN_HOT_PROBE_SPEEDUP,
        "REGRESSION: hot-probe pose-block speedup {:.2}x fell below the \
         {MIN_HOT_PROBE_SPEEDUP}x gate",
        hot.speedup
    );
    assert!(
        mixed.pose_skew < mixed.probe_skew,
        "REGRESSION: pose blocks no longer improve the mixed-pool balance \
         ({:.3} probe vs {:.3} pose)",
        mixed.probe_skew,
        mixed.pose_skew
    );
    assert!(
        mixed.pose_skew <= MAX_POSE_SKEW,
        "REGRESSION: mixed-pool pose-block skew {:.3} exceeded {MAX_POSE_SKEW}",
        mixed.pose_skew
    );
    println!(
        "gate ok: hot-probe speedup {:.2}x >= {MIN_HOT_PROBE_SPEEDUP}x; mixed-pool skew \
         {:.3} (probe) -> {:.3} (pose)",
        hot.speedup, mixed.probe_skew, mixed.pose_skew
    );
}

fn format_json(scenarios: &[&Scenario]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"pose-granularity sharding vs whole-probe sharding\",\n");
    out.push_str(
        "  \"model\": \"per-device overlapped stream makespan (gpu_sim::sched); dock items unlock \
         their probe's pose blocks on the phased executor (PhasePipeline), modeled-clock \
         claiming\",\n",
    );
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"scenario\": \"{}\", \"workload\": \"{}\", \
             \"probe_granularity_makespan_ms\": {:.4}, \"probe_granularity_skew\": {:.4}, \
             \"pose_block_makespan_ms\": {:.4}, \"pose_block_skew\": {:.4}, \
             \"pose_blocks\": {}, \"speedup\": {:.4}, \"wall_ms\": {:.1} }}{}\n",
            s.label,
            s.workload,
            s.probe_makespan_ms,
            s.probe_skew,
            s.pose_makespan_ms,
            s.pose_skew,
            s.pose_blocks,
            s.speedup,
            s.wall_ms,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gates\": {{ \"hot_probe_min_speedup\": {MIN_HOT_PROBE_SPEEDUP:.1}, \
         \"mixed_pool_max_pose_skew\": {MAX_POSE_SKEW:.2} }}\n"
    ));
    out.push_str("}\n");
    out
}
