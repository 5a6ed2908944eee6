//! Kernels, launch configuration and the per-block execution context.
//!
//! A [`BlockKernel`] is the model's analogue of a CUDA `__global__` function: the
//! device invokes [`BlockKernel::execute_block`] once per block in the launch grid, and
//! the kernel decides — exactly as CUDA code does from `blockIdx`/`threadIdx` — which
//! slice of the problem the block covers. Inside a block the model does not simulate
//! individual hardware threads cycle-by-cycle; the kernel instead *accounts* the work
//! its threads would do (flops, memory touches, barriers) on the block's
//! [`MemoryCounters`]. That is the granularity the paper reasons at, and it is what the
//! cost model needs.

use crate::memory::{MemoryCounters, SharedMemory};

/// Splits a problem of `n_items` evenly over `n_blocks` and returns block
/// `block_idx`'s `start..end` slice (CUDA's usual `blockIdx * chunk` pattern).
/// Every item belongs to exactly one block; trailing blocks may be empty when
/// the grid is larger than the problem.
///
/// This is the partition used both by [`BlockContext::block_range`] during
/// execution and by [`crate::KernelLaunch::item_range`] when the host reasons
/// about block ownership.
pub fn partition_range(
    block_idx: usize,
    n_blocks: usize,
    n_items: usize,
) -> std::ops::Range<usize> {
    let chunk = n_items.div_ceil(n_blocks.max(1));
    let start = (block_idx * chunk).min(n_items);
    let end = (start + chunk).min(n_items);
    start..end
}

/// Launch configuration: how many blocks, how many threads per block, and how much
/// shared memory each block gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block (used for work-assignment and occupancy accounting).
    pub threads_per_block: usize,
    /// Shared memory per block, in f64 words.
    pub shared_mem_words: usize,
}

impl LaunchConfig {
    /// Creates a launch configuration with no shared memory.
    pub fn new(grid_blocks: usize, threads_per_block: usize) -> Self {
        assert!(grid_blocks > 0, "launch needs at least one block");
        assert!(threads_per_block > 0, "launch needs at least one thread per block");
        LaunchConfig { grid_blocks, threads_per_block, shared_mem_words: 0 }
    }

    /// Sets the per-block shared-memory allocation (f64 words).
    pub(crate) fn with_shared_mem_words(mut self, words: usize) -> Self {
        self.shared_mem_words = words;
        self
    }

    /// Total threads in the launch.
    pub(crate) fn total_threads(&self) -> usize {
        self.grid_blocks * self.threads_per_block
    }
}

/// Execution context handed to a kernel for one block.
///
/// The device keeps one context per launch worker and re-targets it at each block
/// the worker runs: the shared arena is zeroed in between, while the counters keep
/// accumulating over the worker's blocks (kernels only ever add to them).
#[derive(Debug)]
pub struct BlockContext {
    /// Index of this block within the launch grid.
    pub block_idx: usize,
    /// Total number of blocks in the launch grid.
    pub n_blocks: usize,
    /// Threads per block configured for the launch.
    pub threads_per_block: usize,
    /// The block's shared-memory arena (all zeros when the block starts).
    pub shared: SharedMemory,
    /// Access counters, summed over the worker's blocks and then over workers.
    pub counters: MemoryCounters,
}

impl BlockContext {
    /// Creates a context (called by the device).
    pub fn new(
        block_idx: usize,
        n_blocks: usize,
        threads_per_block: usize,
        shared: SharedMemory,
    ) -> Self {
        BlockContext {
            block_idx,
            n_blocks,
            threads_per_block,
            shared,
            counters: MemoryCounters::new(),
        }
    }

    /// Re-targets the context at the worker's next block: zeroes the shared
    /// arena and keeps the counters (called by the device).
    pub(crate) fn start_block(&mut self, block_idx: usize) {
        self.block_idx = block_idx;
        self.shared.clear();
    }

    /// Splits a problem of `n_items` evenly over the launch grid and returns this
    /// block's `start..end` range (CUDA's usual `blockIdx * chunk` pattern).
    pub fn block_range(&self, n_items: usize) -> std::ops::Range<usize> {
        partition_range(self.block_idx, self.n_blocks, n_items)
    }

    /// Records a block-wide barrier (`__syncthreads()` in CUDA).
    pub fn sync_threads(&mut self) {
        self.counters.barriers += 1;
    }

    /// Records `n` floating-point operations.
    #[inline]
    pub fn record_flops(&mut self, n: u64) {
        self.counters.flops += n;
    }

    /// Records `n` reads from global memory.
    #[inline]
    pub fn record_global_reads(&mut self, n: u64) {
        self.counters.global_reads += n;
    }

    /// Records `n` writes to global memory.
    #[inline]
    pub fn record_global_writes(&mut self, n: u64) {
        self.counters.global_writes += n;
    }

    /// Records `n` shared-memory accesses.
    #[inline]
    pub fn record_shared_accesses(&mut self, n: u64) {
        self.counters.shared_accesses += n;
    }

    /// Records `n` constant-memory reads.
    #[inline]
    pub fn record_constant_reads(&mut self, n: u64) {
        self.counters.constant_reads += n;
    }

    /// Consumes the context, returning its counters (called by the device).
    pub(crate) fn into_counters(self) -> MemoryCounters {
        self.counters
    }
}

/// A kernel executable on the modeled device, one block at a time.
///
/// Implementations must be `Sync` because blocks run concurrently on CPU worker
/// threads; output buffers are therefore captured behind interior-mutable containers
/// (e.g. a mutex-protected `Vec`, or disjoint atomic slots), mirroring the way CUDA
/// blocks write disjoint regions of global memory.
pub trait BlockKernel: Sync {
    /// Executes one block of the kernel.
    fn execute_block(&self, ctx: &mut BlockContext);
}

impl<F: Fn(&mut BlockContext) + Sync> BlockKernel for F {
    fn execute_block(&self, ctx: &mut BlockContext) {
        self(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_config_totals() {
        let cfg = LaunchConfig::new(12, 64).with_shared_mem_words(128);
        assert_eq!(cfg.total_threads(), 768);
        assert_eq!(cfg.shared_mem_words, 128);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = LaunchConfig::new(0, 32);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = LaunchConfig::new(1, 0);
    }

    #[test]
    fn block_range_partitions_work() {
        let n_items = 103;
        let n_blocks = 10;
        let mut covered = vec![false; n_items];
        for b in 0..n_blocks {
            let ctx = BlockContext::new(b, n_blocks, 32, SharedMemory::new(0));
            for i in ctx.block_range(n_items) {
                assert!(!covered[i], "item {i} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "all items covered exactly once");
    }

    #[test]
    fn block_range_handles_more_blocks_than_items() {
        let ctx = BlockContext::new(7, 16, 32, SharedMemory::new(0));
        let r = ctx.block_range(3);
        assert!(r.is_empty() || r.end <= 3);
    }

    #[test]
    fn counter_recording() {
        let mut ctx = BlockContext::new(0, 1, 32, SharedMemory::new(4));
        ctx.record_flops(10);
        ctx.record_global_reads(3);
        ctx.record_global_writes(2);
        ctx.record_shared_accesses(5);
        ctx.record_constant_reads(7);
        ctx.sync_threads();
        let c = ctx.into_counters();
        assert_eq!(c.flops, 10);
        assert_eq!(c.global_reads, 3);
        assert_eq!(c.global_writes, 2);
        assert_eq!(c.shared_accesses, 5);
        assert_eq!(c.constant_reads, 7);
        assert_eq!(c.barriers, 1);
    }

    #[test]
    fn closures_are_kernels() {
        let kernel = |ctx: &mut BlockContext| {
            ctx.record_flops(1);
        };
        let mut ctx = BlockContext::new(0, 1, 1, SharedMemory::new(0));
        kernel.execute_block(&mut ctx);
        assert_eq!(ctx.counters.flops, 1);
    }
}
