//! Kernel statistics and the stream-overlap summaries.
//!
//! [`KernelStats`] is what [`crate::Device::launch`] returns: the merged counters of all
//! blocks, the measured wall-clock time of the (CPU-parallel) execution and the modeled
//! device time from the cost model. [`StreamOp`] / [`StreamStats`] are the
//! stream-overlap view used by the multi-device scheduler ([`crate::sched`]): one
//! upload → kernel → download triple per work item, summarized with and without
//! copy/compute overlap so overlapped transfer time is never double-counted.

use crate::memory::MemoryCounters;
// lint-allow(no-wall-clock): this module IS the wall-profiling layer — the one
// place modeled code is allowed to read the host clock from.
use std::time::Instant;

/// Runs `f`, returning its result and the measured wall-clock seconds it took.
///
/// This is the workspace's **only** sanctioned wall-clock entry point for
/// modeled code (enforced by the `no-wall-clock` lint rule): pipelines that
/// report a measured `wall_*` figure next to their modeled one route the
/// measurement through here, so no `Instant::now` can leak into modeled-time
/// arithmetic unnoticed.
pub fn wall_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Statistics for one kernel launch (or one serial run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Number of blocks executed.
    pub blocks: usize,
    /// Threads per block configured for the launch.
    pub threads_per_block: usize,
    /// Merged counters over all blocks.
    pub counters: MemoryCounters,
    /// Measured wall-clock time of the CPU-parallel execution, seconds.
    pub wall_time_s: f64,
    /// Modeled device time from the cost model, seconds.
    pub modeled_time_s: f64,
}

impl KernelStats {
    /// A zeroed stats record (useful as an accumulator identity).
    pub fn zero() -> Self {
        KernelStats {
            blocks: 0,
            threads_per_block: 0,
            counters: MemoryCounters::new(),
            wall_time_s: 0.0,
            modeled_time_s: 0.0,
        }
    }

    /// Accumulates another launch into this record (blocks and times add, the thread
    /// count keeps the maximum).
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.blocks += other.blocks;
        self.threads_per_block = self.threads_per_block.max(other.threads_per_block);
        self.counters.merge(&other.counters);
        self.wall_time_s += other.wall_time_s;
        self.modeled_time_s += other.modeled_time_s;
    }
}

/// One stream work item: the modeled seconds of its host→device upload, its
/// kernel (compute) work, and its device→host download.
///
/// The three stages are the overlappable intervals of the scheduler's stream
/// model: on a device with asynchronous copy engines, item `i+1`'s upload can
/// proceed while item `i`'s kernels run and item `i-1`'s results download.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamOp {
    /// Modeled host→device transfer seconds for this item.
    pub upload_s: f64,
    /// Modeled kernel seconds for this item (transfers excluded).
    pub kernel_s: f64,
    /// Modeled device→host transfer seconds for this item.
    pub download_s: f64,
}

impl StreamOp {
    /// A stream op from its three stage durations.
    pub fn new(upload_s: f64, kernel_s: f64, download_s: f64) -> Self {
        StreamOp { upload_s, kernel_s, download_s }
    }

    /// The item's duration with no copy/compute overlap (synchronous
    /// `cudaMemcpy` on both sides of the launch).
    pub fn serialized_s(&self) -> f64 {
        self.upload_s + self.kernel_s + self.download_s
    }
}

/// Summary of one stream's work, with and without copy/compute overlap.
///
/// `serialized_s` is what a device without asynchronous copy engines would
/// take (every stage back-to-back); `overlapped_s` is the makespan of the
/// three-stage pipeline computed by `crate::cost::overlapped_stream_time`.
/// The difference ([`StreamStats::savings_s`]) is modeled transfer time hidden
/// under kernel execution — time that must be counted **once**, which is why
/// stream consumers report `overlapped_s` instead of adding transfer totals on
/// top of kernel totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Number of work items issued to the stream.
    pub ops: usize,
    /// Total upload seconds over all items.
    pub upload_s: f64,
    /// Total kernel seconds over all items.
    pub kernel_s: f64,
    /// Total download seconds over all items.
    pub download_s: f64,
    /// Total with no overlap (uploads + kernels + downloads, back-to-back).
    pub serialized_s: f64,
    /// Pipeline makespan with copy/compute overlap.
    pub overlapped_s: f64,
}

impl StreamStats {
    /// Modeled transfer seconds hidden under kernel execution (never negative).
    pub fn savings_s(&self) -> f64 {
        (self.serialized_s - self.overlapped_s).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_stats_accumulate() {
        let mut total = KernelStats::zero();
        let a = KernelStats {
            blocks: 10,
            threads_per_block: 64,
            counters: MemoryCounters { flops: 100, ..Default::default() },
            wall_time_s: 0.5,
            modeled_time_s: 0.01,
        };
        let b = KernelStats {
            blocks: 5,
            threads_per_block: 128,
            counters: MemoryCounters { flops: 50, ..Default::default() },
            wall_time_s: 0.25,
            modeled_time_s: 0.02,
        };
        total.accumulate(&a);
        total.accumulate(&b);
        assert_eq!(total.blocks, 15);
        assert_eq!(total.threads_per_block, 128);
        assert_eq!(total.counters.flops, 150);
        assert!((total.wall_time_s - 0.75).abs() < 1e-12);
        assert!((total.modeled_time_s - 0.03).abs() < 1e-12);
    }

    #[test]
    fn stream_op_serializes_stages() {
        let op = StreamOp::new(1.0, 3.0, 0.5);
        assert!((op.serialized_s() - 4.5).abs() < 1e-12);
        assert_eq!(StreamOp::default().serialized_s(), 0.0);
    }

    #[test]
    fn stream_stats_savings_and_fraction() {
        let stats = StreamStats {
            ops: 4,
            upload_s: 2.0,
            kernel_s: 10.0,
            download_s: 1.0,
            serialized_s: 13.0,
            overlapped_s: 10.75,
        };
        assert!((stats.savings_s() - 2.25).abs() < 1e-12);
        let empty = StreamStats::default();
        assert_eq!(empty.savings_s(), 0.0);
    }
}
