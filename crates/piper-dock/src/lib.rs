//! # piper-dock
//!
//! PIPER-style rigid docking, the first phase of FTMap (paper §II.A / §III).
//!
//! Rigid docking maps the protein (receptor) and the small-molecule probe (ligand)
//! onto 3-D grids of energy-function components and scores every pose — a rotation of
//! the probe plus a relative translation — as a sum of correlations between matching
//! receptor/ligand grids (Equation 1), combined with per-term weights (Equation 2).
//!
//! This crate provides every engine the paper compares:
//!
//! * [`ReceptorTransforms`] — the original PIPER approach: forward FFT of each ligand
//!   grid, per-voxel modulation with the precomputed receptor FFTs, inverse FFT;
//!   `O(N³ log N)` per rotation, dominated by the FFT (Fig. 2(b): ~93 %).
//! * [`direct::DirectCorrelationEngine`] — direct `O(N³ · n³)` correlation, which wins
//!   for the very small (≤4³) probe grids FTMap uses.
//! * [`gpu::GpuDockingEngine`] — the paper's GPU mapping: direct correlation with the
//!   probe grids staged in constant memory, **multi-rotation batching** (8 rotations per
//!   pass over the protein grid), desolvation-term accumulation on the device and
//!   single-block **scoring + filtering** with region exclusion (§III.A–B), all running
//!   on the [`gpu_sim`] device model.
//! * [`BatchedFftEngine`] — batched FFT correlation on the device model: receptor
//!   transforms + FFT plan cached as a **derived residency payload**, many rotations
//!   per forward/multiply/inverse launch, and a **fused top-K epilogue** that downloads
//!   only the retained poses (never full `N³` score grids).
//! * [`filter`] — weighted scoring and top-K filtering with neighbourhood exclusion
//!   (Fig. 5), host reference implementation.
//!
//! [`docking::Docking`] runs every engine through one batch loop (500 rotations, 4
//! retained poses per rotation by default; the multicore kinds are the host engines on
//! rotation chunks over host threads) and records the per-step timing breakdown that
//! regenerates Fig. 2(b) and Table 1.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub(crate) mod batched_fft;
pub mod direct;
pub mod docking;
pub mod filter;
pub mod gpu;
pub mod grids;
pub mod pose;

pub use batched_fft::{BatchedFftEngine, ReceptorTransforms, TransformResidency};
pub use docking::{Docking, DockingConfig, DockingEngineKind, DockingRun};
pub use grids::{EnergyWeights, LigandGrids, ReceptorGrids};
pub use pose::Pose;
