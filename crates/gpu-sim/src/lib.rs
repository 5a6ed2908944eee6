//! # gpu-sim
//!
//! A software model of a CUDA-class GPU, used as the *accelerator substrate* for the
//! ftmap-rs reproduction of *Fast Binding Site Mapping using GPUs and CUDA*
//! (Sukhwani & Herbordt, 2010).
//!
//! ## Why a device model
//!
//! The paper's results were measured on an NVIDIA Tesla C1060 (30 streaming
//! multiprocessors × 8 cores at 1.3 GHz, 16 KB shared memory per SM, 64 KB constant
//! memory, uncached global memory). No GPU is available to this reproduction and Rust
//! GPU toolchains are immature, so the workspace substitutes a **software device model**:
//!
//! * kernels are written against a CUDA-like execution model — a grid of thread
//!   **blocks**, each with shared memory, barriers, and per-thread work assignment;
//! * blocks execute **in parallel on CPU worker threads** (the launching thread
//!   plus scoped spawns, at most the device's share of the host's CPUs), so the
//!   restructured algorithms really do run concurrently and their results are
//!   tested. Each worker owns one shared-memory arena, zeroed per block, and one
//!   counter set summed at the join; a one-block launch, or any launch on a
//!   one-worker device, runs inline on the caller;
//! * every kernel **accounts** its floating-point work and its global / shared /
//!   constant memory traffic, and a [`cost::CostModel`] converts those counts into
//!   *modeled* kernel times for the Tesla-class device and for a single Xeon-class
//!   host core. The ratio of the two modeled times is what the benchmark harness
//!   compares against the paper's Table 1 / Table 2 speedups.
//!
//! The important property is that the modeled times depend on exactly the quantities
//! the paper's optimizations change — number of global-memory touches per result,
//! reuse out of shared/constant memory, kernel-launch counts, and host↔device
//! transfers — so the *shape* of the paper's results is reproduced even though the
//! absolute silicon is absent.
//!
//! ## Module map
//!
//! * [`device`] — device specifications ([`DeviceSpec::tesla_c1060`],
//!   [`DeviceSpec::xeon_core`]) and the [`Device`] execution engine.
//! * [`kernel`] — the [`BlockKernel`] trait, launch configuration and block context
//!   (shared memory + counters) passed to kernels.
//! * [`launch`] — the shared kernel-execution layer every consumer crate goes
//!   through: the [`KernelLaunch`] builder, [`launch::Staged`] output buffers
//!   (with [`BlockOrder`] for block-ordered accumulation, which a panicking block
//!   aborts instead of hanging) and the
//!   [`StatsLedger`] multi-kernel statistics accumulator.
//! * [`residency`] — the per-device LRU cache ([`ResidencyCache`]) that keeps
//!   uploaded buffers (receptor grids) resident in modeled device memory, so
//!   repeat consumers borrow instead of re-uploading.
//! * [`sched`] — the multi-device scheduler: [`sched::DevicePool`],
//!   the copy/compute-overlap [`sched::Stream`], and the one executor,
//!   [`sched::PhasePipeline`] (persistent workers, priority-aware
//!   dock→minimize pipelining, batch-scoped accounting, deterministic result
//!   ordering).
//! * `memory` — access counters and the host↔device transfer model.
//! * `cost` — the analytic cost model that turns counters into modeled times.
//! * `timing` — wall-clock helpers and the combined [`KernelStats`] report.
//! * [`sync`] — poison-tolerant lock helpers for the scheduler/serve hot paths
//!   (defined in `ftmap-trace`, re-exported here).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub(crate) mod cost;
pub mod device;
pub mod kernel;
pub mod launch;
pub(crate) mod memory;
pub mod residency;
pub mod sched;
pub(crate) mod timing;

pub use ftmap_trace::sync;

pub use cost::CostModel;
pub use device::{Device, DeviceSpec, TransferSnapshot};
pub use kernel::{BlockContext, BlockKernel, LaunchConfig};
pub use launch::{BlockOrder, KernelLaunch, QueuedLaunch, Staged, StatsLedger};
pub use memory::{MemoryCounters, Transfer};
pub use residency::{CacheStats, Fnv1a, Residency, ResidencyCache, ResidentPayload};
pub use sched::{DevicePool, Stream};
pub use sync::{locked, wait_on};
pub use timing::{wall_timed, KernelStats, StreamOp, StreamStats};
