//! Cold set-up of each workload and the bitwise result fingerprint.
//!
//! A *fixture* is everything a workload needs before its first warm round:
//! generated proteins, the device pool, and either the per-request pipelines
//! (`map_*`) or the running service (`serve_mix`). Building one and driving
//! one cold round through it is what `setup_s` times.

use crate::clock::Tick;
use crate::workload::{JobSpec, Workload, SERVE_RESIDENT_GRID_SETS};
use ftmap_core::{FtMapPipeline, MappingResult};
use ftmap_molecule::{ForceField, ProbeLibrary, SyntheticProtein};
use ftmap_serve::{BatchMappingService, JobHandle, MappingRequest};
use ftmap_trace::TraceSink;
use gpu_sim::sched::DevicePool;
use gpu_sim::{DeviceSpec, Fnv1a};
use piper_dock::Docking;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bitwise fingerprint of what a mapping computed: every consensus site
/// (rank, centre, each member's probe, centre and energy) and every minimized
/// pose centre, hashed over their IEEE-754 bit patterns. Wall-clock profile
/// fields are deliberately left out.
pub fn fingerprint(result: &MappingResult) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_u64(result.sites.len() as u64);
    for site in &result.sites {
        hash.write_u64(site.rank as u64);
        let c = site.cluster.center;
        for v in [c.x, c.y, c.z] {
            hash.write_f64(v);
        }
        hash.write_u64(site.cluster.members.len() as u64);
        for m in &site.cluster.members {
            hash.write_u64(m.probe as u64);
            for v in [m.center.x, m.center.y, m.center.z, m.energy] {
                hash.write_f64(v);
            }
        }
    }
    hash.write_u64(result.conformations_minimized as u64);
    hash.write_u64(result.pose_centers.len() as u64);
    for (probe, center) in &result.pose_centers {
        hash.write_u64(*probe as u64);
        for v in [center.x, center.y, center.z] {
            hash.write_f64(v);
        }
    }
    hash.finish()
}

/// One closed-loop request ready to run: its pipeline (receptor grids built,
/// own one-device pool) and probe library.
pub struct MapJob {
    /// The spec this job was generated from.
    pub spec: JobSpec,
    /// The pipeline over the generated receptor.
    pub pipeline: FtMapPipeline,
    /// The probes to map.
    pub library: ProbeLibrary,
}

impl MapJob {
    /// Generates the receptor and builds the pipeline on a fresh pool.
    pub fn cold(spec: &JobSpec, ff: &ForceField) -> MapJob {
        let protein = spec.protein(ff);
        let pool = DevicePool::tesla(1);
        let pipeline = FtMapPipeline::with_pool(protein, ff.clone(), spec.config(), pool);
        MapJob { spec: spec.clone(), pipeline, library: spec.library(ff) }
    }

    /// One request: `FtMapPipeline::map` over the library.
    pub fn run(&self) -> MappingResult {
        self.pipeline.map(&self.library)
    }
}

/// The `serve_mix` pool: [`crate::workload::SERVE_DEVICES`] Tesla-class
/// devices whose modeled memory holds [`SERVE_RESIDENT_GRID_SETS`] receptor
/// grid sets of `spec`'s geometry (plus half a set of slack, so rounding in
/// the residency accounting can never turn three into two).
pub fn serve_pool(workload: Workload, spec: &JobSpec, protein: &SyntheticProtein) -> DevicePool {
    let grid_bytes =
        Docking::build_receptor(&protein.atoms, &spec.config().docking).resident_bytes();
    let device = DeviceSpec {
        global_mem_bytes: grid_bytes * SERVE_RESIDENT_GRID_SETS + grid_bytes / 2,
        ..DeviceSpec::tesla_c1060()
    };
    DevicePool::homogeneous(device, workload.devices())
}

/// A workload's rounds driven through a `BatchMappingService`.
pub struct ServeFixture {
    /// The running service.
    pub service: BatchMappingService,
    /// Per round variant, the specs and a prototype request for each job.
    pub rounds: Vec<Vec<(JobSpec, MappingRequest)>>,
}

impl ServeFixture {
    /// Generates every receptor, builds the pool and starts the service with
    /// `sink` attached (`ftmap_trace::noop()` for untraced runs).
    pub fn cold(
        workload: Workload,
        rounds: &[Vec<JobSpec>],
        ff: &ForceField,
        sink: Arc<dyn TraceSink>,
    ) -> ServeFixture {
        let mut proteins: BTreeMap<u64, SyntheticProtein> = BTreeMap::new();
        for spec in rounds.iter().flatten() {
            proteins.entry(spec.protein.seed).or_insert_with(|| spec.protein(ff));
        }
        let first = &rounds[0][0];
        let pool = match workload {
            Workload::ServeMix => serve_pool(workload, first, &proteins[&first.protein.seed]),
            _ => DevicePool::tesla(workload.devices()),
        };
        let service = BatchMappingService::builder(Arc::new(pool)).trace(sink).build();
        let rounds = rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|spec| (spec.clone(), spec.request(&proteins[&spec.protein.seed], ff)))
                    .collect()
            })
            .collect();
        ServeFixture { service, rounds }
    }

    /// Fresh copies of round `variant`'s requests, built ahead of the round's
    /// due time so request construction is not inside the measured latency.
    pub fn requests(&self, variant: usize) -> Vec<MappingRequest> {
        self.rounds[variant % self.rounds.len()].iter().map(|(_, r)| r.clone()).collect()
    }
}

/// One submitted job of a service round.
pub struct Submitted {
    /// The handle, or `None` when the service refused the request.
    pub handle: Option<JobHandle>,
    /// Wall seconds the `submit` call took.
    pub submit_s: f64,
}

/// Submits one request (blocking on backpressure) and times the call. A
/// `Rejected` verdict yields no handle; the caller counts it as failed.
pub fn submit(service: &BatchMappingService, request: MappingRequest) -> Submitted {
    let start = Tick::now();
    let verdict = service.submit(request);
    let submit_s = start.elapsed_s();
    Submitted { handle: verdict.into_handle(), submit_s }
}
