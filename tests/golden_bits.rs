//! Golden-bit regression tests for the end-to-end mapping paths.
//!
//! Every value below is an FNV-1a hash over the IEEE-754 bits (and indices)
//! of one mapping result — consensus sites with their members, minimized pose
//! centres and the conformation count — recorded before the public API was
//! pruned to what the workspace references and the pipeline's engine choice
//! was reduced to one `match` on the mode. Neither change may move a bit.
//!
//! Profiles are deliberately not hashed: the serial mode's modeled
//! minimization seconds are measured wall time, and sharded device loads
//! depend on which worker claims an item first.

use ftmap::gpu::sched::DevicePool;
use ftmap::gpu::Fnv1a;
use ftmap::prelude::*;
use std::sync::Arc;

fn write_vec3(hash: &mut Fnv1a, v: Vec3) {
    for c in [v.x, v.y, v.z] {
        hash.write_f64(c);
    }
}

fn result_hash(result: &MappingResult) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_u64(result.conformations_minimized as u64);
    hash.write_u64(result.sites.len() as u64);
    for site in &result.sites {
        hash.write_u64(site.rank as u64);
        write_vec3(&mut hash, site.cluster.center);
        hash.write_u64(site.cluster.members.len() as u64);
        for member in &site.cluster.members {
            hash.write_u64(member.probe as u64);
            write_vec3(&mut hash, member.center);
            hash.write_f64(member.energy);
        }
    }
    hash.write_u64(result.pose_centers.len() as u64);
    for &(probe, center) in &result.pose_centers {
        hash.write_u64(probe as u64);
        write_vec3(&mut hash, center);
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
fn pipeline_maps_are_unchanged_in_every_mode() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
    let cases = [
        (PipelineMode::Serial, 0x3e2e_c914_18e9_5b69),
        (PipelineMode::Accelerated, 0x8696_90ca_ad70_d090),
        (PipelineMode::Sharded { devices: 2, pose_block: 0 }, 0x8696_90ca_ad70_d090),
        (PipelineMode::Sharded { devices: 2, pose_block: 2 }, 0x8696_90ca_ad70_d090),
    ];
    let hashes: Vec<_> = cases
        .into_iter()
        .map(|(mode, want)| {
            let config = FtMapConfig::small_test(mode);
            let result = FtMapPipeline::new(protein.clone(), ff.clone(), config).map(&library);
            (format!("{mode:?} map"), result_hash(&result), want)
        })
        .collect();
    assert_golden(&hashes);
}

#[test]
fn serve_batch_job_reports_are_unchanged() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 2;
    let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
        .batch(BatchConfig { max_batch_jobs: 2, ..BatchConfig::default() })
        .build();
    let cases = [
        ("ethanol", vec![ProbeType::Ethanol], 0x771a_32bf_2584_40cc),
        ("acetone-urea", vec![ProbeType::Acetone, ProbeType::Urea], 0x11ec_89a1_69e5_fbc0),
    ];
    let handles: Vec<_> = cases
        .iter()
        .map(|(tag, probes, _)| {
            let request =
                MappingRequest::new(protein.clone(), ff.clone(), probes.clone(), config.clone())
                    .with_tag(*tag);
            service.submit(request).expect_admitted("an unbounded service admits every job")
        })
        .collect();
    let hashes: Vec<_> = handles
        .into_iter()
        .zip(&cases)
        .map(|(handle, (tag, _, want))| {
            let report = handle.wait();
            assert_eq!(report.tag, *tag);
            (format!("{tag} job report"), result_hash(&report.result), *want)
        })
        .collect();
    service.shutdown();
    assert_golden(&hashes);
}
