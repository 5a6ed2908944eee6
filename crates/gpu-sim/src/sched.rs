//! The multi-device scheduler (the workspace's answer to "the workload is
//! embarrassingly parallel across the probe library").
//!
//! The paper maps binding sites on a *single* Tesla C1060; its own profiling
//! shows the work shards perfectly along the probe axis (16 probes × 500
//! rotations). This module turns the single [`crate::Device`] into a pool and
//! the serial per-probe loop into overlap-aware execution on **one executor**:
//!
//! * [`pool::DevicePool`] — owns N (possibly heterogeneous) devices behind
//!   `Arc` handles that consumers borrow instead of constructing their own,
//!   plus the load-balance math over per-device busy times
//!   ([`makespan_s`], [`load_skew`], [`utilizations`]);
//! * [`stream::Stream`] — models CUDA-stream copy/compute overlap: each work
//!   item contributes an upload → kernel → download
//!   [`crate::timing::StreamOp`], and the stream reports both the serialized
//!   total and the overlapped makespan
//!   (`crate::cost::overlapped_stream_time`), so overlapped transfer time is
//!   counted once;
//! * [`work::pose_blocks`] — the pose-granularity block layout: one docked
//!   probe's retained poses as weighted blocks, so a single hot probe's 2000
//!   minimizations spread across the pool instead of serializing on one
//!   device;
//! * [`pipeline::PhasePipeline`] — the executor: persistent workers (one per
//!   pooled device), phase-tagged items with a per-probe dock→minimize
//!   dependency edge, a modeled-clock claim rule that balances heterogeneous
//!   pools, priority-aware claiming, per-item transfer and residency
//!   attribution and per-slot results, so output order is **deterministic**
//!   no matter which device serviced what. A one-shot mapping run is one
//!   batch on a short-lived pipeline; the batch service keeps one alive so
//!   batch N+1's docking overlaps batch N's minimization.
//!
//! [`shard::ShardQueue`], the earlier one-shot executor, has no dependants
//! left in the workspace and survives only until the benchmark harness drops
//! the microbench that names it (see its module doc).
//!
//! The scheduling follows the related GPU literature: van Meel et al. overlap
//! host↔device transfers with compute, and Barros et al. partition lattice
//! work across independent device contexts; `sched` composes both moves.

pub mod pipeline;
pub mod pool;
pub mod shard;
pub mod stream;
pub mod work;

pub use pipeline::{
    BatchFailed, BatchHandle, BatchLabel, BatchReport, PhasePipeline, PhasedBatch,
    PhasedDeviceReport, PhasedExec, ShardCtx,
};
pub use pool::{load_skew, makespan_s, utilizations, DevicePool};
pub use shard::{DeviceShardReport, ShardOutcome, ShardQueue};
pub use stream::Stream;
pub use work::pose_blocks;
