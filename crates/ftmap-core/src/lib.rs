//! # ftmap-core
//!
//! The FTMap binding-site-mapping pipeline (paper §I–II), assembled from the
//! workspace's substrates:
//!
//! 1. **Rigid docking** of each small-molecule probe with PIPER ([`piper_dock`]):
//!    500 rotations, 4 retained translations per rotation.
//! 2. **Energy minimization** of every retained protein–probe conformation
//!    ([`ftmap_energy`]): CHARMM/ACE potential, probe atoms mobile.
//! 3. **Consensus clustering** of the minimized poses across all probes: surface
//!    regions that bind many different probe types are reported as *hotspots*
//!    (druggable binding sites).
//!
//! [`pipeline::FtMapPipeline`] runs the whole flow with either the serial host engines
//! (the original FTMap structure) or the accelerated engines (the paper's GPU mapping
//! on the device model), and [`profile::MappingProfile`] records the phase breakdown
//! that regenerates Fig. 2(a) and the overall §V.C speedup.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod cluster;
pub mod phased;
pub mod pipeline;
pub mod profile;

pub use cluster::{cluster_poses, ClusterInput, ConsensusCluster, ConsensusSite};
pub use phased::PhasedMapBatch;
pub use pipeline::{
    AppliedDegrade, DegradePolicy, DockedProbe, FtMapConfig, FtMapPipeline, MappingResult,
    PipelineMode, ProbeShard, DEFAULT_POSE_BLOCK,
};
pub use profile::{phase_table, MappingProfile};
