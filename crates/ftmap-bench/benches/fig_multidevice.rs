//! Multi-device scaling figure: modeled makespan of the sharded pipeline as
//! the device pool grows 1 → 8, on the full 16-probe library.
//!
//! This is the workspace's first experiment *beyond* the paper: the C1060
//! paper runs one device; `PipelineMode::Sharded` shards the probe library
//! over a pool with stream-overlapped transfers. Results are written to
//! `BENCH_MULTIDEVICE.json` at the workspace root and the run **fails** if the
//! 4-device modeled speedup over 1 device drops below 2× — the CI regression
//! gate for the scheduler.
//!
//! Run with: `cargo bench -p ftmap-bench --bench fig_multidevice`
//! (set `FTMAP_MULTIDEVICE_PROBES=8` for the reduced CI scale).

use ftmap_core::{FtMapConfig, FtMapPipeline, MappingResult, PipelineMode};
use ftmap_molecule::{ForceField, ProbeLibrary, ProteinSpec, SyntheticProtein};
use std::time::Instant;

/// The gate: minimum acceptable 4-device modeled speedup over 1 device.
const MIN_4_DEVICE_SPEEDUP: f64 = 2.0;

struct ScalePoint {
    devices: usize,
    wall_ms: f64,
    makespan_ms: f64,
    overlap_saved_ms: f64,
    load_skew: f64,
    speedup_vs_1: f64,
}

fn run(mode: PipelineMode, library: &ProbeLibrary) -> (MappingResult, f64) {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut config = FtMapConfig::small_test(mode);
    config.docking.n_rotations = 8;
    config.conformations_per_probe = 2;
    let pipeline = FtMapPipeline::new(protein, ff, config);
    let start = Instant::now();
    let result = pipeline.map(library);
    (result, start.elapsed().as_secs_f64())
}

fn main() {
    let ff = ForceField::charmm_like();
    let full = ProbeLibrary::standard(&ff);
    let n_probes: usize = std::env::var("FTMAP_MULTIDEVICE_PROBES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: usize| n.clamp(1, full.len()))
        .unwrap_or(full.len());
    let probe_types: Vec<_> = full.probes().iter().take(n_probes).map(|p| p.probe_type).collect();
    let library = ProbeLibrary::subset(&ff, &probe_types);
    println!("fig_multidevice: {} probes, pools of 1/2/4/8 Tesla C1060s", library.len());

    // Reference: the paper's single-device accelerated pipeline (no streams).
    let (accel, _) = run(PipelineMode::Accelerated, &library);
    let accel_ms = 1e3 * accel.profile.makespan_modeled_s();

    let mut points: Vec<ScalePoint> = Vec::new();
    let mut one_device_makespan_ms = f64::NAN;
    for devices in [1usize, 2, 4, 8] {
        // Whole-probe granularity (`pose_block: 0`): this figure gates the
        // probe-granularity scheduler; `fig_pose_shard` measures the
        // pose-block schedule against it.
        let (result, wall_s) = run(PipelineMode::Sharded { devices, pose_block: 0 }, &library);
        // Sharding must never change the answer.
        assert_eq!(result.sites.len(), accel.sites.len(), "{devices}-device sites diverged");
        for (a, b) in result.sites.iter().zip(&accel.sites) {
            assert!(
                a.cluster.center.distance(b.cluster.center) == 0.0,
                "{devices}-device consensus site moved"
            );
        }
        let makespan_ms = 1e3 * result.profile.makespan_modeled_s();
        if devices == 1 {
            one_device_makespan_ms = makespan_ms;
        }
        points.push(ScalePoint {
            devices,
            wall_ms: 1e3 * wall_s,
            makespan_ms,
            overlap_saved_ms: 1e3 * result.profile.overlap_saved_s(),
            load_skew: result.profile.load_skew(),
            speedup_vs_1: one_device_makespan_ms / makespan_ms.max(1e-12),
        });
    }

    println!(
        "\n{:>8}{:>14}{:>14}{:>16}{:>10}{:>12}",
        "devices", "modeled ms", "speedup", "overlap ms", "skew", "wall ms"
    );
    for p in &points {
        println!(
            "{:>8}{:>14.2}{:>13.2}x{:>16.3}{:>10.3}{:>12.1}",
            p.devices, p.makespan_ms, p.speedup_vs_1, p.overlap_saved_ms, p.load_skew, p.wall_ms
        );
    }

    let four = points.iter().find(|p| p.devices == 4).expect("4-device point");
    let json = format_json(&points, accel_ms, library.len(), four.speedup_vs_1);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_MULTIDEVICE.json");
    std::fs::write(path, json).expect("write BENCH_MULTIDEVICE.json");
    println!("\nwrote {path}");

    assert!(
        four.speedup_vs_1 >= MIN_4_DEVICE_SPEEDUP,
        "REGRESSION: 4-device modeled speedup {:.2}x fell below the {MIN_4_DEVICE_SPEEDUP}x gate",
        four.speedup_vs_1
    );
    println!(
        "gate ok: 4-device modeled speedup {:.2}x >= {MIN_4_DEVICE_SPEEDUP}x",
        four.speedup_vs_1
    );
}

fn format_json(points: &[ScalePoint], accel_ms: f64, n_probes: usize, gate_value: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"multi-device scaling of the sharded FTMap pipeline\",\n");
    out.push_str(&format!(
        "  \"workload\": \"ProteinSpec::small_test, {n_probes} probes, 8 rotations, 2 conformations/probe\",\n"
    ));
    out.push_str(
        "  \"model\": \"per-device overlapped stream makespan (gpu_sim::sched); dual copy \
         engines, in-order streams, one batch on the phased executor (PhasePipeline) with \
         modeled-clock claiming\",\n",
    );
    out.push_str(&format!("  \"accelerated_single_device_modeled_ms\": {accel_ms:.4},\n"));
    out.push_str("  \"scaling\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"devices\": {}, \"modeled_makespan_ms\": {:.4}, \"speedup_vs_1_device\": \
             {:.4}, \"overlap_saved_ms\": {:.4}, \"load_skew\": {:.4}, \"wall_ms\": {:.1} }}{}\n",
            p.devices,
            p.makespan_ms,
            p.speedup_vs_1,
            p.overlap_saved_ms,
            p.load_skew,
            p.wall_ms,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gate\": {{ \"metric\": \"4-device speedup vs 1 device\", \"minimum\": {MIN_4_DEVICE_SPEEDUP:.1}, \"measured\": {gate_value:.4} }}\n"
    ));
    out.push_str("}\n");
    out
}
