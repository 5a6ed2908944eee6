//! The four workloads and the seeded request lists they are made of.
//!
//! A workload is a short cycle of *rounds*; a round is a fixed list of
//! [`JobSpec`]s. The `--seed` argument reaches the system only through the
//! specs generated here: it picks every protein's `ProteinSpec::seed` and (on
//! `serve_mix`) which probe and tenant each job of the burst carries. The
//! *amount and shape* of work is deliberately not seeded — grid size, rotation
//! count, probe set, protein size, burst order and latency classes are fixed
//! per workload — so that two seeds measure the same workload on different
//! inputs rather than two different workloads.

use ftmap_core::{FtMapConfig, PipelineMode};
use ftmap_energy::minimize::{EvaluationPath, MinimizationConfig};
use ftmap_molecule::{ForceField, ProbeLibrary, ProbeType, ProteinSpec, SyntheticProtein};
use ftmap_serve::{LatencyClass, MappingRequest};
use piper_dock::{DockingConfig, DockingEngineKind};

/// The benchmark's workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Gpu{batch:8}` direct correlation dominates (the paper's Table 1 path).
    MapDirect,
    /// `BatchedFft{batch:64}` frequency-domain docking dominates.
    MapFft,
    /// Energy minimization dominates (the paper's Table 2 path).
    MapMinimize,
    /// Open-loop bursts of tiny jobs through `BatchMappingService`.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::MapDirect, Workload::MapFft, Workload::MapMinimize, Workload::ServeMix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MapDirect => "map_direct",
            Workload::MapFft => "map_fft",
            Workload::MapMinimize => "map_minimize",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Devices in the workload's pool.
    pub fn devices(self) -> usize {
        match self {
            Workload::ServeMix => SERVE_DEVICES,
            _ => 1,
        }
    }
}

/// Devices in the `serve_mix` pool (= `nproc` on the reference box, so every
/// scheduler worker has a core and device count does not add oversubscription
/// noise).
pub const SERVE_DEVICES: usize = 2;
/// Receptor grid sets each `serve_mix` device's modeled memory holds: the two
/// hot receptors plus one cold one, so a ring of four cold receptors visited
/// two per round is always evicted before reuse.
pub const SERVE_RESIDENT_GRID_SETS: usize = 3;
/// Cold receptors in the `serve_mix` ring.
pub const SERVE_COLD_RING: usize = 4;

/// Where a job sits in its workload (drives the hot/cold layer metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A closed-loop `map_*` request.
    Single,
    /// A `serve_mix` job on one of the two always-resident receptors.
    Hot,
    /// A `serve_mix` job on a receptor from the cold ring.
    Cold,
}

/// One request, as plain data: everything the system is given about it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The receptor to generate.
    pub protein: ProteinSpec,
    /// Probes to map, in order (order is part of a job's identity).
    pub probes: Vec<ProbeType>,
    /// Docking grid dimension.
    pub grid_dim: usize,
    /// Docking grid spacing, Å.
    pub spacing: f64,
    /// Rotations scored per probe.
    pub n_rotations: usize,
    /// Docking engine.
    pub engine: DockingEngineKind,
    /// Retained poses minimized per probe.
    pub conformations: usize,
    /// Minimization iteration cap.
    pub iterations: usize,
    /// Latency class (scheduling only).
    pub class: LatencyClass,
    /// Tenant index (scheduling only).
    pub tenant: u8,
    /// Position in the workload.
    pub kind: JobKind,
}

impl JobSpec {
    /// The pipeline configuration this spec describes.
    pub fn config(&self) -> FtMapConfig {
        let mode = PipelineMode::Accelerated;
        FtMapConfig {
            docking: DockingConfig {
                grid_dim: self.grid_dim,
                spacing: self.spacing,
                n_desolv: 4,
                n_rotations: self.n_rotations,
                poses_per_rotation: 2,
                exclusion_radius: 2,
                weights: Default::default(),
                engine: self.engine,
            },
            minimization: MinimizationConfig {
                max_iterations: self.iterations,
                ..MinimizationConfig::small_test(EvaluationPath::Gpu)
            },
            conformations_per_probe: self.conformations,
            cluster_radius: 6.0,
            mode,
        }
    }

    /// Generates the receptor.
    pub fn protein(&self, ff: &ForceField) -> SyntheticProtein {
        SyntheticProtein::generate(&self.protein, ff)
    }

    /// The probe library of this request.
    pub fn library(&self, ff: &ForceField) -> ProbeLibrary {
        ProbeLibrary::subset(ff, &self.probes)
    }

    /// The service request for this spec over an already generated receptor.
    pub fn request(&self, protein: &SyntheticProtein, ff: &ForceField) -> MappingRequest {
        MappingRequest::new(protein.clone(), ff.clone(), self.probes.clone(), self.config())
            .with_class(self.class)
            .with_tenant(format!("tenant-{}", self.tenant))
    }
}

/// SplitMix64: the harness's seeded generator (statistically fine for
/// label draws and filler values, and identical on every platform).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn protein_spec(target_atoms: usize, radius: f64, rng: &mut SplitMix64) -> ProteinSpec {
    ProteinSpec {
        target_atoms,
        radius,
        n_pockets: 2,
        pocket_radius: 4.0,
        // Kept clear of the seeds the repository's own fixtures use.
        seed: 1_000 + rng.next_u64() % 1_000_000,
    }
}

/// The rounds of `workload` under `seed`: the measured loop cycles through
/// them in order. `map_*` workloads have one round of one request;
/// `serve_mix` has [`SERVE_COLD_RING`]` / 2` rounds of six jobs that differ
/// only in which two cold receptors they touch.
pub fn rounds(workload: Workload, seed: u64) -> Vec<Vec<JobSpec>> {
    let mut rng = SplitMix64::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    // The shape `map_direct` runs; the other closed loops override parts of it.
    let base = |protein, engine| JobSpec {
        protein,
        probes: vec![ProbeType::Acetone],
        grid_dim: 32,
        spacing: 1.5,
        n_rotations: 8,
        engine,
        conformations: 1,
        iterations: 2,
        class: LatencyClass::Bulk,
        tenant: 0,
        kind: JobKind::Single,
    };
    let gpu = DockingEngineKind::Gpu { batch: 8 };
    let job = match workload {
        Workload::MapDirect => base(protein_spec(100, 8.0, &mut rng), gpu),
        Workload::MapFft => JobSpec {
            n_rotations: 3,
            ..base(protein_spec(100, 8.0, &mut rng), DockingEngineKind::BatchedFft { batch: 64 })
        },
        Workload::MapMinimize => JobSpec {
            probes: vec![ProbeType::Isopropanol],
            grid_dim: 16,
            spacing: 3.0,
            n_rotations: 2,
            iterations: 6,
            ..base(protein_spec(800, 16.0, &mut rng), gpu)
        },
        Workload::ServeMix => return serve_rounds(&mut rng),
    };
    vec![vec![job]]
}

fn serve_rounds(rng: &mut SplitMix64) -> Vec<Vec<JobSpec>> {
    const PROBES: [ProbeType; 6] = [
        ProbeType::Ethanol,
        ProbeType::Acetone,
        ProbeType::Urea,
        ProbeType::Methylamine,
        ProbeType::Acetonitrile,
        ProbeType::DimethylEther,
    ];
    use LatencyClass::{Bulk, Interactive};
    let hot: Vec<ProteinSpec> = (0..2).map(|_| protein_spec(150, 9.0, rng)).collect();
    let cold: Vec<ProteinSpec> =
        (0..SERVE_COLD_RING).map(|_| protein_spec(150, 9.0, rng)).collect();
    // The burst's shape is fixed — two same-class pairs on the hot receptors
    // (so each pair can share a batch), then one cold job of each class, each
    // slot always with the same probe — so every seed offers the same work in
    // the same order. The seed deals the receptors and the tenants.
    let probes = PROBES;
    let tenants: Vec<u8> = (0..PROBES.len()).map(|_| rng.below(3) as u8).collect();
    let job = |slot: usize, protein: &ProteinSpec, class, kind| JobSpec {
        protein: protein.clone(),
        probes: vec![probes[slot]],
        grid_dim: 16,
        spacing: 2.0,
        n_rotations: 2,
        engine: DockingEngineKind::Gpu { batch: 8 },
        conformations: 1,
        iterations: 3,
        class,
        tenant: tenants[slot],
        kind,
    };
    (0..SERVE_COLD_RING / 2)
        .map(|variant| {
            vec![
                job(0, &hot[0], Interactive, JobKind::Hot),
                job(1, &hot[0], Interactive, JobKind::Hot),
                job(2, &hot[1], Bulk, JobKind::Hot),
                job(3, &hot[1], Bulk, JobKind::Hot),
                job(4, &cold[2 * variant], Interactive, JobKind::Cold),
                job(5, &cold[2 * variant + 1], Bulk, JobKind::Cold),
            ]
        })
        .collect()
}

/// The request list as bytes: what "the same seed gives the same inputs"
/// is checked on.
#[cfg(test)]
pub fn canonical_bytes(rounds: &[Vec<JobSpec>]) -> Vec<u8> {
    format!("{rounds:#?}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_different_seed_different_bytes() {
        for workload in Workload::ALL {
            let a = canonical_bytes(&rounds(workload, 7));
            let b = canonical_bytes(&rounds(workload, 7));
            let c = canonical_bytes(&rounds(workload, 8));
            assert_eq!(a, b, "{} is not a function of its seed", workload.name());
            assert_ne!(a, c, "{} ignores its seed", workload.name());
        }
    }

    #[test]
    fn work_size_does_not_depend_on_the_seed() {
        for workload in Workload::ALL {
            let size = |seed| -> Vec<(usize, usize, usize, usize, usize)> {
                rounds(workload, seed)
                    .iter()
                    .flatten()
                    .map(|j| {
                        (j.grid_dim, j.n_rotations, j.probes.len(), j.conformations, j.iterations)
                    })
                    .collect()
            };
            assert_eq!(size(1), size(2));
        }
    }

    #[test]
    fn serve_rounds_pair_hot_jobs_by_class_and_walk_the_cold_ring() {
        let rounds = rounds(Workload::ServeMix, 3);
        assert_eq!(rounds.len(), SERVE_COLD_RING / 2);
        let mut cold_seen = Vec::new();
        for round in &rounds {
            assert_eq!(round.len(), 6);
            let hot: Vec<&JobSpec> = round.iter().filter(|j| j.kind == JobKind::Hot).collect();
            assert_eq!(hot.len(), 4);
            for a in &hot {
                let mates =
                    hot.iter().filter(|b| b.protein.seed == a.protein.seed && b.class == a.class);
                assert_eq!(mates.count(), 2, "hot jobs batch in same-class pairs");
            }
            cold_seen
                .extend(round.iter().filter(|j| j.kind == JobKind::Cold).map(|j| j.protein.seed));
        }
        cold_seen.sort_unstable();
        cold_seen.dedup();
        assert_eq!(cold_seen.len(), SERVE_COLD_RING);
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
