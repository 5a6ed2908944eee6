//! The batch-mapping service end to end: 10 concurrent jobs over 2 receptors,
//! submitted from client threads, batched by receptor onto a 2-device pool,
//! with the receptor-grid residency cache turning every job after the first
//! (per receptor, per device) into a zero-upload cache hit.
//!
//! Run with: `cargo run --release --example batch_service`

use ftmap::prelude::*;
use std::sync::Arc;

fn main() {
    let ff = ForceField::charmm_like();
    let protein_a = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut spec_b = ProteinSpec::small_test();
    spec_b.seed = 1301;
    let protein_b = SyntheticProtein::generate(&spec_b, &ff);

    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 4;
    config.conformations_per_probe = 2;

    // 10 jobs over 2 receptors with varying probe subsets.
    let probe_sets: [&[ProbeType]; 5] = [
        &[ProbeType::Ethanol],
        &[ProbeType::Acetone, ProbeType::Urea],
        &[ProbeType::Benzene],
        &[ProbeType::Ethanol, ProbeType::Benzene],
        &[ProbeType::Phenol],
    ];
    let mut jobs = Vec::new();
    for (i, probes) in probe_sets.iter().enumerate() {
        for (label, protein) in [("A", &protein_a), ("B", &protein_b)] {
            jobs.push(
                MappingRequest::new(protein.clone(), ff.clone(), probes.to_vec(), config.clone())
                    .with_tag(format!("receptor-{label}/job-{i}")),
            );
        }
    }
    let n_jobs = jobs.len();

    let pool = Arc::new(DevicePool::tesla(2));
    let service = Arc::new(BatchMappingService::builder(Arc::clone(&pool)).build());
    println!(
        "batch service up: {} devices, admission queue depth {}, {} jobs incoming\n",
        pool.len(),
        service.config().queue.max_pending,
        n_jobs
    );

    // Concurrent clients: every job is submitted from its own thread and the
    // handle is awaited there — the service is the only shared state.
    let mut clients = Vec::new();
    for job in jobs {
        let service = Arc::clone(&service);
        clients.push(std::thread::spawn(move || {
            service.submit(job).expect_admitted("job refused").wait()
        }));
    }
    let mut reports: Vec<_> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();
    reports.sort_by(|a, b| a.tag.cmp(&b.tag));

    println!(
        "{:<22} {:>6} {:>7} {:>9} {:>7} {:>12}",
        "job", "batch", "sites", "confs", "probes", "makespan ms"
    );
    for report in &reports {
        println!(
            "{:<22} {:>6} {:>7} {:>9} {:>7} {:>12.3}",
            report.tag,
            report.batch.batch_index,
            report.result.sites.len(),
            report.result.conformations_minimized,
            report.batch.report.docks,
            1e3 * report.batch.report.span_modeled_s(),
        );
        assert!(!report.result.sites.is_empty(), "{}: no consensus sites", report.tag);
    }

    // Per-job determinism: the same request resubmitted on the warm service
    // must reproduce its consensus sites exactly.
    let rerun =
        MappingRequest::new(protein_a.clone(), ff.clone(), probe_sets[3].to_vec(), config.clone())
            .with_tag("receptor-A/job-3");
    let rerun_report = service.submit(rerun).expect_admitted("admitted").wait();
    let original = reports.iter().find(|r| r.tag == "receptor-A/job-3").expect("original report");
    assert_eq!(rerun_report.result.sites.len(), original.result.sites.len());
    for (a, b) in rerun_report.result.sites.iter().zip(&original.result.sites) {
        assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
    }
    println!("\nwarm re-run of {}: identical sites (deterministic)", rerun_report.tag);

    let stats = service.stats();
    let cache = stats.cache();
    println!(
        "\nservice: {} jobs in {} batches | residency cache: {} lookups, {} hits, \
         {} misses, {} evictions (hit rate {:.0}%)",
        stats.jobs_completed,
        stats.batches_run,
        cache.lookups(),
        cache.hits,
        cache.misses,
        cache.evictions,
        100.0 * cache.hit_rate(),
    );
    for (i, device) in pool.devices().iter().enumerate() {
        let d = device.residency().stats();
        println!(
            "    device {i}: {} resident grid sets ({} KiB), {} hits / {} misses",
            device.residency().len(),
            device.residency().resident_bytes() / 1024,
            d.hits,
            d.misses,
        );
    }
    // 2 receptors × 2 devices bound the cold uploads; every other shard hit.
    assert!(cache.misses <= 4, "at most one miss per (receptor, device)");
    assert!(cache.hits > cache.misses, "hits must dominate under batching");

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("clients done"));
    service.shutdown();
    println!("\nservice drained and shut down cleanly");
}
