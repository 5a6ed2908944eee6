//! Serving-layer throughput figure: warm-cache vs cold-cache job throughput
//! of the batch-mapping service, plus the pre-residency baseline (cache
//! disabled — every docking construction re-uploads the receptor grids, the
//! behavior before the serve layer existed).
//!
//! Workload: 8 single-probe jobs against one receptor on a 2-device pool,
//! sized so the receptor-grid upload is a substantial fraction of a cold
//! job's modeled time (64³ grids × 22 energy terms ≈ 46 MB ≈ 9 ms on PCIe
//! gen2 — the paper's §III.A "done only once" transfer, made to matter).
//!
//! Results are written to `BENCH_SERVE.json` at the workspace root and the
//! run **fails** if warm-cache throughput falls below 1.5× cold-cache
//! throughput — the CI regression gate for the residency cache.
//!
//! Run with: `cargo bench -p ftmap-bench --bench fig_serve`
//! (set `FTMAP_SERVE_JOBS=4` for a reduced scale).

use ftmap_core::{FtMapConfig, PipelineMode};
use ftmap_molecule::{ForceField, ProbeType, ProteinSpec, SyntheticProtein};
use ftmap_serve::{BatchMappingService, JobReport, MappingRequest};
use gpu_sim::sched::DevicePool;
use gpu_sim::CacheStats;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The gate: minimum acceptable warm-cache throughput over cold-cache.
const MIN_WARM_OVER_COLD: f64 = 1.5;

struct Measurement {
    label: &'static str,
    jobs: usize,
    modeled_s: f64,
    wall_s: f64,
    cache: CacheStats,
}

impl Measurement {
    /// Jobs per modeled second — the serving throughput figure.
    fn throughput(&self) -> f64 {
        self.jobs as f64 / self.modeled_s.max(1e-12)
    }
}

fn jobs(n: usize) -> Vec<MappingRequest> {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    // Big resident receptor, small per-job compute: 64³ grids with the full
    // 18 desolvation components (22 terms), one rotation, docking only.
    config.docking.grid_dim = 64;
    config.docking.n_desolv = 18;
    config.docking.n_rotations = 1;
    config.conformations_per_probe = 0;
    (0..n)
        .map(|i| {
            MappingRequest::new(
                protein.clone(),
                ff.clone(),
                vec![ProbeType::Ethanol],
                config.clone(),
            )
            .with_tag(format!("job-{i}"))
        })
        .collect()
}

/// Runs the job set through a service over `pool` and returns the summed
/// modeled makespan over the distinct batches the dispatcher formed.
fn run(label: &'static str, pool: Arc<DevicePool>, requests: Vec<MappingRequest>) -> Measurement {
    let n = requests.len();
    let service = BatchMappingService::builder(pool).build();
    let start = Instant::now();
    let handles: Vec<_> =
        requests.into_iter().map(|r| service.submit(r).expect_admitted("admitted")).collect();
    let reports: Vec<Arc<JobReport>> = handles.iter().map(|h| h.wait()).collect();
    let wall_s = start.elapsed().as_secs_f64();
    let cache = service.shutdown().cache();

    // Modeled serving time: each batch runs the pool once; distinct batches
    // run back to back, so the run's modeled time is the sum of their
    // makespans (robust to however the dispatcher happened to batch).
    let mut batch_makespans: BTreeMap<usize, f64> = BTreeMap::new();
    for report in &reports {
        batch_makespans.insert(report.batch.batch_index, report.batch.report.span_modeled_s());
    }
    let modeled_s: f64 = batch_makespans.values().sum();
    Measurement { label, jobs: n, modeled_s, wall_s, cache }
}

fn main() {
    let n_jobs: usize = std::env::var("FTMAP_SERVE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: usize| n.clamp(2, 64))
        .unwrap_or(8);
    println!("fig_serve: {n_jobs} jobs, 1 receptor (64³ × 22 terms), 2 × Tesla C1060");

    // Pre-residency baseline: cache disabled, every Docking construction
    // re-uploads the receptor grids (one upload per probe shard).
    let no_cache_pool = Arc::new(DevicePool::tesla(2));
    for device in no_cache_pool.devices() {
        device.residency().set_enabled(false);
    }
    let no_cache = run("no residency (pre-serve baseline)", no_cache_pool, jobs(n_jobs));

    // Cold: fresh pool, empty caches — each device pays one grid-set upload.
    let pool = Arc::new(DevicePool::tesla(2));
    let cold = run("cold cache (first submission)", Arc::clone(&pool), jobs(n_jobs));
    // Warm: same pool, receptor already resident — zero grid uploads.
    let warm = run("warm cache (resident receptor)", pool, jobs(n_jobs));

    println!(
        "\n{:<36}{:>12}{:>16}{:>10}{:>8}{:>8}",
        "configuration", "modeled ms", "jobs/modeled s", "hits", "misses", "wall ms"
    );
    for m in [&no_cache, &cold, &warm] {
        println!(
            "{:<36}{:>12.3}{:>16.1}{:>10}{:>8}{:>8.0}",
            m.label,
            1e3 * m.modeled_s,
            m.throughput(),
            m.cache.hits,
            m.cache.misses,
            1e3 * m.wall_s
        );
    }

    let warm_over_cold = warm.throughput() / cold.throughput();
    let warm_over_no_cache = warm.throughput() / no_cache.throughput();
    println!(
        "\nwarm/cold speedup {warm_over_cold:.2}x, warm/no-residency {warm_over_no_cache:.2}x"
    );

    // Sanity: the warm run must be all hits, the cold run exactly one miss
    // per device that serviced work.
    assert_eq!(warm.cache.misses, 0, "warm run must not miss");
    assert!(cold.cache.misses <= 2, "cold run misses once per device at most");

    let json = format_json(&[&no_cache, &cold, &warm], n_jobs, warm_over_cold);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SERVE.json");
    std::fs::write(path, json).expect("write BENCH_SERVE.json");
    println!("wrote {path}");

    assert!(
        warm_over_cold >= MIN_WARM_OVER_COLD,
        "REGRESSION: warm-cache throughput {warm_over_cold:.2}x cold fell below the \
         {MIN_WARM_OVER_COLD}x gate"
    );
    println!("gate ok: warm-cache throughput {warm_over_cold:.2}x >= {MIN_WARM_OVER_COLD}x cold");
}

fn format_json(measurements: &[&Measurement], n_jobs: usize, gate_value: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"batch-mapping service throughput: receptor-grid residency\",\n");
    out.push_str(&format!(
        "  \"workload\": \"{n_jobs} single-probe jobs, one receptor, 64^3 grids x 22 terms, \
         docking only, 2 x Tesla C1060 pool\",\n"
    ));
    out.push_str(
        "  \"model\": \"sum of per-batch overlapped-stream makespans over the pool \
         (gpu_sim::sched); residency cache on Device.global_mem_bytes\",\n",
    );
    out.push_str("  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"configuration\": \"{}\", \"modeled_ms\": {:.4}, \
             \"jobs_per_modeled_s\": {:.2}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"wall_ms\": {:.1} }}{}\n",
            m.label,
            1e3 * m.modeled_s,
            m.throughput(),
            m.cache.hits,
            m.cache.misses,
            1e3 * m.wall_s,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gate\": {{ \"metric\": \"warm-cache jobs/modeled-s over cold-cache\", \
         \"minimum\": {MIN_WARM_OVER_COLD:.1}, \"measured\": {gate_value:.4} }}\n"
    ));
    out.push_str("}\n");
    out
}
