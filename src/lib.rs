//! # ftmap — GPU-accelerated binding site mapping, reproduced in Rust
//!
//! Umbrella crate for the ftmap-rs workspace, a reproduction of
//! *Fast Binding Site Mapping using GPUs and CUDA* (Sukhwani & Herbordt, 2010).
//! It re-exports the public API of every workspace crate so examples and downstream
//! users need a single dependency:
//!
//! * [`math`] — vectors, rotations, grids, FFT ([`ftmap_math`]).
//! * [`molecule`] — atoms, force field, probes, synthetic proteins ([`ftmap_molecule`]).
//! * [`gpu`] — the CUDA-class device model ([`gpu_sim`]).
//! * [`dock`] — PIPER rigid docking ([`piper_dock`]).
//! * [`energy`] — CHARMM/ACE energy model and minimization ([`ftmap_energy`]).
//! * [`core`] — the end-to-end mapping pipeline ([`ftmap_core`]).
//! * [`serve`] — the asynchronous batch-mapping service ([`ftmap_serve`]).
//! * [`trace`] — tracing, metrics, and Perfetto timeline export ([`ftmap_trace`]).
//!
//! ## Quickstart
//!
//! ```
//! use ftmap::dock::docking::DEFAULT_GPU_BATCH;
//! use ftmap::prelude::*;
//!
//! // Generate a small synthetic protein and dock an ethanol probe against it
//! // with the paper's batched direct-correlation engine on the modeled device.
//! let ff = ForceField::charmm_like();
//! let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
//! let probe = Probe::new(ProbeType::Ethanol, &ff);
//! let engine = DockingEngineKind::Gpu { batch: DEFAULT_GPU_BATCH };
//! let docking = Docking::new(&protein.atoms, DockingConfig::small_test(engine));
//! let run = docking.run(&probe);
//! assert!(!run.poses.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub use ftmap_core as core;
pub use ftmap_energy as energy;
pub use ftmap_math as math;
pub use ftmap_molecule as molecule;
pub use ftmap_serve as serve;
pub use ftmap_trace as trace;
pub use gpu_sim as gpu;
pub use piper_dock as dock;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use ftmap_core::{FtMapConfig, FtMapPipeline, MappingResult, PipelineMode};
    pub use ftmap_energy::{
        minimize::{EvaluationPath, MinimizationConfig, Minimizer},
        Evaluator,
    };
    pub use ftmap_math::{Grid3, Quaternion, Real, Rotation, RotationSet, Vec3};
    pub use ftmap_molecule::{
        Complex, ForceField, NeighborList, Probe, ProbeLibrary, ProbeType, ProteinSpec,
        SyntheticProtein,
    };
    pub use ftmap_serve::{
        AdmissionConfig, AdmissionVerdict, BatchConfig, BatchMappingService, JobHandle, JobStatus,
        LatencyClass, MappingRequest, QueueConfig, RejectReason, ServeConfig, ServiceBuilder,
        TenantQuota,
    };
    pub use ftmap_trace::{
        analyze, analyze_all, build_request_trees, export_chrome_trace,
        export_chrome_trace_with_flows, sanitize, AlertState, FlightRecorder, MetricsSnapshot,
        Recorder, RequestTrace, SanitizeReport, SloReport, SloSpec, TraceSink,
    };
    pub use gpu_sim::{Device, DevicePool, DeviceSpec, KernelLaunch, StatsLedger, Stream};
    pub use piper_dock::{Docking, DockingConfig, DockingEngineKind, EnergyWeights, Pose};
}
