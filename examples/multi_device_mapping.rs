//! Multi-device binding-site mapping: shard the probe library over a pool of
//! modeled Tesla C1060s, overlap host↔device transfers with compute, and print
//! the per-device utilization report.
//!
//! Run with: `cargo run --release --example multi_device_mapping`

use ftmap::gpu::sched::DevicePool;
use ftmap::prelude::*;

fn build_pipeline(
    mode: PipelineMode,
    ff: &ForceField,
    protein: &SyntheticProtein,
) -> FtMapPipeline {
    let mut config = FtMapConfig::small_test(mode);
    config.docking.n_rotations = 8;
    config.conformations_per_probe = 2;
    FtMapPipeline::new(protein.clone(), ff.clone(), config)
}

fn main() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::standard(&ff);
    println!(
        "Mapping a {}-atom protein with the full {}-probe library\n",
        protein.n_atoms(),
        library.len()
    );

    // Baseline: the paper's single-device accelerated pipeline.
    let single = build_pipeline(PipelineMode::Accelerated, &ff, &protein).map(&library);
    let single_makespan = single.profile.makespan_modeled_s();
    println!("1 × Tesla C1060 (Accelerated):    modeled {:>8.2} ms", 1e3 * single_makespan);

    // Sharded: the same workload over a growing device pool, scheduled at the
    // default pose-block granularity (dock once per probe, then spread every
    // probe's retained poses across the pool).
    for devices in [2usize, 4] {
        let sharded = build_pipeline(PipelineMode::sharded(devices), &ff, &protein).map(&library);
        let makespan = sharded.profile.makespan_modeled_s();
        println!(
            "{devices} × Tesla C1060 (Sharded):       modeled {:>8.2} ms  speedup {:>5.2}x  \
             overlap saved {:>6.3} ms  skew {:.3}",
            1e3 * makespan,
            single_makespan / makespan.max(1e-12),
            1e3 * sharded.profile.overlap_saved_s(),
            sharded.profile.load_skew(),
        );
        // Utilizations and loads are both in pool order; homogeneous pool
        // members share a name, so pair them by index, not by name.
        let utilizations = sharded.profile.device_utilizations();
        for ((name, utilization), load) in utilizations.iter().zip(&sharded.profile.device_loads) {
            println!(
                "    {:<42} probes {:>2}  pose blocks {:>2}  utilization {:>5.1} %",
                name,
                load.probes,
                load.pose_blocks,
                100.0 * utilization
            );
        }

        // The consensus sites must be exactly the single-device sites —
        // sharding never changes results, only where they are computed.
        assert_eq!(sharded.sites.len(), single.sites.len());
        for (a, b) in sharded.sites.iter().zip(&single.sites) {
            assert_eq!(a.rank, b.rank);
            assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
        }

        if devices == 4 {
            println!("\n    Per-phase breakdown ({devices} devices):");
            for line in sharded.profile.phase_table().lines() {
                println!("    {line}");
            }
            println!();
        }
    }

    // A heterogeneous pool: two Teslas plus the quad-core Xeon host as a
    // third, slower shard consumer — the claim rule balances by modeled speed.
    let mut config = FtMapConfig::small_test(PipelineMode::sharded(3));
    config.docking.n_rotations = 8;
    config.conformations_per_probe = 2;
    let mixed =
        FtMapPipeline::with_pool(protein.clone(), ff.clone(), config, DevicePool::mixed(2, 1))
            .map(&library);
    println!("\nHeterogeneous pool (2 × Tesla + 1 × Xeon quad):");
    for load in &mixed.profile.device_loads {
        println!(
            "    {:<42} probes {:>2}  pose blocks {:>2}  busy {:>8.2} ms  overlap saved {:>6.3} ms",
            load.device,
            load.probes,
            load.pose_blocks,
            1e3 * load.busy_modeled_s,
            1e3 * load.overlap_saved_s,
        );
    }
    println!(
        "    makespan {:.2} ms, load skew {:.3}",
        1e3 * mixed.profile.makespan_modeled_s(),
        mixed.profile.load_skew()
    );

    if let Some(top) = single.top_hotspot() {
        println!(
            "\nTop hotspot (identical in every mode): ({:.1}, {:.1}, {:.1})",
            top.x, top.y, top.z
        );
    }
}
