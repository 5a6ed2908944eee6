//! Device specifications and the block-parallel execution engine.
//!
//! [`DeviceSpec`] captures the handful of hardware parameters the cost model needs.
//! Two built-in specs matter for the reproduction:
//!
//! * [`DeviceSpec::tesla_c1060`] — the accelerator the paper used (240 cores @ 1.3 GHz,
//!   30 SMs, 16 KB shared memory per SM, uncached global memory, PCIe x16 gen2);
//! * [`DeviceSpec::xeon_core`] — a single core of the 3 GHz Xeon Harpertown host the
//!   paper's serial baseline ran on.
//!
//! [`Device`] executes [`BlockKernel`]s: the grid of blocks is distributed over
//! `std::thread::scope` workers (one logical worker per simulated SM, capped at the
//! physical CPU count).
//! Each worker owns one shared-memory arena, zeroed per block, and one counter set
//! summed at the join; the cost model converts the totals into modeled times. A
//! launch on a one-worker device runs inline on the caller.

use crate::cost::CostModel;
use crate::kernel::{BlockContext, BlockKernel, LaunchConfig};
use crate::memory::{MemoryCounters, SharedMemory, Transfer, TransferDirection};
use crate::residency::ResidencyCache;
use crate::timing::KernelStats;
use ftmap_trace::sync::locked;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Hardware parameters of a (modeled) compute device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors (1 for a CPU core).
    pub sm_count: usize,
    /// Scalar cores per SM.
    pub cores_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sustained floating-point operations per core per clock cycle.
    pub flops_per_cycle: f64,
    /// Shared memory per SM, in bytes.
    pub shared_mem_bytes: usize,
    /// Constant memory visible to all SMs, in bytes.
    pub constant_mem_bytes: usize,
    /// Global (device) memory capacity in bytes — the budget the per-device
    /// residency cache ([`crate::ResidencyCache`]) evicts against.
    pub global_mem_bytes: usize,
    /// Global-memory access latency in clock cycles (uncached on the C1060).
    pub global_latency_cycles: f64,
    /// Shared/constant-memory access latency in clock cycles.
    pub shared_latency_cycles: f64,
    /// Sustainable global-memory bandwidth in GB/s.
    pub global_bandwidth_gbps: f64,
    /// Kernel-launch overhead in microseconds (0 for host execution).
    pub kernel_launch_overhead_us: f64,
    /// Host↔device transfer bandwidth in GB/s (PCIe); `f64::INFINITY` for the host
    /// itself (no transfer needed).
    pub transfer_bandwidth_gbps: f64,
    /// Fixed per-transfer latency in microseconds.
    pub transfer_latency_us: f64,
}

impl DeviceSpec {
    /// The NVIDIA Tesla C1060 used in the paper: 30 SMs × 8 cores @ 1.3 GHz,
    /// 16 KB shared memory per SM, 64 KB constant memory, ~102 GB/s global bandwidth,
    /// 400–600 cycle uncached global latency, PCIe gen2 x16 host link.
    pub fn tesla_c1060() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla C1060 (modeled)".to_string(),
            sm_count: 30,
            cores_per_sm: 8,
            clock_ghz: 1.3,
            flops_per_cycle: 1.0,
            shared_mem_bytes: 16 * 1024,
            constant_mem_bytes: 64 * 1024,
            global_mem_bytes: 4 * 1024 * 1024 * 1024,
            global_latency_cycles: 500.0,
            shared_latency_cycles: 2.0,
            global_bandwidth_gbps: 102.0,
            kernel_launch_overhead_us: 10.0,
            transfer_bandwidth_gbps: 5.0,
            transfer_latency_us: 8.0,
        }
    }

    /// A single core of the 3 GHz Intel Xeon Harpertown host used for the paper's
    /// serial baseline. Modeled as one wide core with a large cache (so the "shared"
    /// latency class applies to most of its memory traffic) and no launch or transfer
    /// overheads.
    pub fn xeon_core() -> Self {
        DeviceSpec {
            name: "Intel Xeon Harpertown, 1 core (modeled)".to_string(),
            sm_count: 1,
            cores_per_sm: 1,
            clock_ghz: 3.0,
            flops_per_cycle: 1.0,
            shared_mem_bytes: 6 * 1024 * 1024,
            constant_mem_bytes: 6 * 1024 * 1024,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            global_latency_cycles: 12.0,
            shared_latency_cycles: 3.0,
            global_bandwidth_gbps: 8.0,
            kernel_launch_overhead_us: 0.0,
            transfer_bandwidth_gbps: f64::INFINITY,
            transfer_latency_us: 0.0,
        }
    }

    /// The quad-core variant of the host, used for the paper's multicore comparison
    /// (§V.A: GPU-PIPER vs multicore FFT-PIPER).
    pub fn xeon_quad() -> Self {
        let mut spec = Self::xeon_core();
        spec.name = "Intel Xeon Harpertown, 4 cores (modeled)".to_string();
        spec.sm_count = 4;
        spec
    }

    /// Peak floating-point throughput in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * self.flops_per_cycle
    }

    /// Shared-memory capacity per SM in f64 words.
    pub fn shared_mem_words(&self) -> usize {
        self.shared_mem_bytes / std::mem::size_of::<f64>()
    }

    /// Constant-memory capacity in f64 words.
    pub fn constant_mem_words(&self) -> usize {
        self.constant_mem_bytes / std::mem::size_of::<f64>()
    }
}

/// A point-in-time copy of a device's transfer accounting, split by direction.
///
/// Snapshots taken before and after a unit of work give exactly the transfer
/// time that work caused ([`TransferSnapshot::delta_since`]) — this is how the
/// scheduler's stream model ([`crate::sched::Stream`]) attributes upload and
/// download seconds to individual work items without the device having to know
/// about work items at all.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferSnapshot {
    /// Accumulated modeled host→device transfer seconds.
    pub upload_s: f64,
    /// Accumulated modeled device→host transfer seconds.
    pub download_s: f64,
    /// Accumulated transferred bytes, both directions.
    pub bytes: usize,
}

impl TransferSnapshot {
    /// Total modeled transfer seconds, both directions.
    pub fn total_s(&self) -> f64 {
        self.upload_s + self.download_s
    }

    /// The transfers recorded between `earlier` and this snapshot.
    ///
    /// Saturates at zero if the accounting was reset between the snapshots
    /// (a consumer calling [`Device::reset_transfer_stats`] mid-window) —
    /// the window's attribution is lost either way, but a nonsense negative
    /// delta must not poison downstream stream accounting or panic on the
    /// byte counter.
    pub fn delta_since(&self, earlier: &TransferSnapshot) -> TransferSnapshot {
        TransferSnapshot {
            upload_s: (self.upload_s - earlier.upload_s).max(0.0),
            download_s: (self.download_s - earlier.download_s).max(0.0),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// The block-parallel execution engine for one modeled device.
///
/// Besides the launch engine, a device holds its transfer accounting, its
/// [`ResidencyCache`] and a free list of `f64` result buffers
/// ([`Device::result_buffer`]). The free list models kernel outputs allocated
/// once in device global memory and reused: it keeps at most as many buffers
/// as the device has had out at once, and it is host memory only, so no
/// modeled byte, residency hit or eviction depends on it.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    cost: CostModel,
    worker_threads: usize,
    /// Accumulated modeled transfer seconds and bytes since construction /
    /// reset, under one lock so a snapshot never sees an item's seconds
    /// without its bytes.
    transfers: Mutex<TransferSnapshot>,
    /// Buffers kept resident in this device's modeled global memory.
    residency: ResidencyCache,
    /// Result buffers the device keeps between launches.
    result_buffers: Mutex<ResultBuffers>,
}

/// The free list behind [`Device::result_buffer`]: at most `peak` buffers, the
/// most the device has had out at once. `Debug` prints counts, not contents.
#[derive(Default)]
struct ResultBuffers {
    free: Vec<Vec<f64>>,
    out: usize,
    peak: usize,
}

impl std::fmt::Debug for ResultBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultBuffers")
            .field("free", &self.free.len())
            .field("out", &self.out)
            .field("peak", &self.peak)
            .finish()
    }
}

impl Device {
    /// Creates a device with the given spec, using up to `min(spec.sm_count, CPU count)`
    /// worker threads for block execution.
    pub fn new(spec: DeviceSpec) -> Self {
        let physical = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let worker_threads = spec.sm_count.min(physical).max(1);
        let cost = CostModel::new(spec.clone());
        let residency = ResidencyCache::new(spec.global_mem_bytes);
        Device {
            spec,
            cost,
            worker_threads,
            transfers: Mutex::new(TransferSnapshot::default()),
            residency,
            result_buffers: Mutex::default(),
        }
    }

    /// A Tesla-C1060-class device.
    pub fn tesla_c1060() -> Self {
        Device::new(DeviceSpec::tesla_c1060())
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The cost model attached to this device.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Number of CPU worker threads used to execute blocks.
    pub fn worker_threads(&self) -> usize {
        self.worker_threads
    }

    /// The cache of buffers resident in this device's modeled global memory.
    ///
    /// Residency deliberately survives [`Device::reset_transfer_stats`]: the
    /// transfer counters are a per-run gauge, but uploaded data stays on the
    /// device between runs — that persistence is exactly what later runs'
    /// cache hits (zero upload bytes) model.
    pub fn residency(&self) -> &ResidencyCache {
        &self.residency
    }

    /// Takes a `len`-word result buffer from the device's free list, or
    /// allocates one when the list is empty — the model of a kernel's output
    /// grid allocated once in device global memory, as CUDA code does.
    ///
    /// The buffer's contents are unspecified (a reused one holds whatever its
    /// last user left): the kernel that fills it must write every word. Hand
    /// it back with [`Device::recycle_result_buffers`]. The list is host
    /// memory only and is never charged to [`Device::residency`].
    pub fn result_buffer(&self, len: usize) -> Vec<f64> {
        let reused = {
            let mut buffers = locked(&self.result_buffers);
            buffers.out += 1;
            buffers.peak = buffers.peak.max(buffers.out);
            buffers.free.pop()
        };
        let mut buffer = reused.unwrap_or_default();
        buffer.resize(len, 0.0);
        buffer
    }

    /// Hands result buffers back to the free list. The list keeps at most as
    /// many buffers as the device has had out at once and drops the rest.
    pub fn recycle_result_buffers(&self, returned: impl IntoIterator<Item = Vec<f64>>) {
        let mut buffers = locked(&self.result_buffers);
        for buffer in returned {
            buffers.out = buffers.out.saturating_sub(1);
            if buffers.free.len() < buffers.peak {
                buffers.free.push(buffer);
            }
        }
    }

    /// Records a host↔device transfer and returns its modeled duration in seconds.
    pub fn record_transfer(&self, transfer: Transfer) -> f64 {
        let t = self.cost.transfer_time(&transfer);
        let direction = {
            let mut account = locked(&self.transfers);
            account.bytes += transfer.bytes as usize;
            match transfer.direction {
                TransferDirection::HostToDevice => {
                    account.upload_s += t;
                    "upload"
                }
                TransferDirection::DeviceToHost => {
                    account.download_s += t;
                    "download"
                }
            }
        };
        ftmap_trace::hook::transfer(direction, transfer.bytes, t);
        t
    }

    // --- Transfer-accounted upload/download helpers (the launch layer's API ---
    // for charging host↔device traffic without spelling out `Transfer` values).

    /// Charges an upload of `bytes` bytes and returns its modeled duration.
    pub fn upload_bytes(&self, bytes: u64) -> f64 {
        self.record_transfer(Transfer::upload(bytes))
    }

    /// Charges an upload of `words` f64 words and returns its modeled duration.
    pub fn upload_words(&self, words: usize) -> f64 {
        self.upload_bytes((words * std::mem::size_of::<f64>()) as u64)
    }

    /// Charges a download of `bytes` bytes and returns its modeled duration.
    pub fn download_bytes(&self, bytes: u64) -> f64 {
        self.record_transfer(Transfer::download(bytes))
    }

    /// Charges a download of `items` (sized by `std::mem::size_of::<T>()`) and
    /// returns its modeled duration.
    pub fn download_slice<T>(&self, items: &[T]) -> f64 {
        self.download_bytes(std::mem::size_of_val(items) as u64)
    }

    /// Total modeled transfer time (seconds) recorded so far, both directions.
    /// The per-direction split is read through [`Device::transfer_snapshot`].
    pub fn total_transfer_time(&self) -> f64 {
        self.transfer_snapshot().total_s()
    }

    /// Total bytes transferred so far.
    pub fn total_transfer_bytes(&self) -> usize {
        self.transfer_snapshot().bytes
    }

    /// A point-in-time copy of the transfer accounting, split by direction.
    pub fn transfer_snapshot(&self) -> TransferSnapshot {
        *locked(&self.transfers)
    }

    /// Resets the transfer accounting.
    ///
    /// Pooled devices are reused across pipeline runs; callers that reuse a
    /// device ([`crate::sched::DevicePool::reset_transfer_stats`], the mapping
    /// pipeline) reset at the start of every run so one run's transfers never
    /// leak into the next run's stream-overlap accounting.
    pub fn reset_transfer_stats(&self) {
        *locked(&self.transfers) = TransferSnapshot::default();
    }

    /// Launches a kernel: executes `config.grid_blocks` blocks of the kernel, in
    /// parallel across the worker threads, and returns merged statistics.
    ///
    /// Blocks are handed out in increasing index order. Each worker owns one
    /// [`BlockContext`]: its shared-memory arena is zeroed before every block, and
    /// its counters accumulate over the worker's blocks and are summed once at the
    /// join — integer sums, so the totals do not depend on which worker ran which
    /// block. Kernels write their results through whatever interior-mutable output
    /// structure they captured (mirroring global-memory writes on a real device).
    ///
    /// On a one-worker device the launch runs entirely inline on the calling
    /// thread and spawns nothing; otherwise its blocks run on scoped spawns
    /// (one per worker, at least one) while the caller waits.
    ///
    /// # Panics
    /// Panics if the requested shared memory exceeds the device's per-SM capacity,
    /// and re-raises the first panic of any block once every worker has stopped
    /// (blocks waiting in [`crate::BlockOrder::in_turn`] for a panicked block's turn
    /// give up instead of waiting forever).
    pub fn launch<K: BlockKernel>(&self, config: &LaunchConfig, kernel: &K) -> KernelStats {
        assert!(
            config.shared_mem_words * std::mem::size_of::<f64>() <= self.spec.shared_mem_bytes,
            "kernel requests {} words of shared memory; device has {} bytes per SM",
            config.shared_mem_words,
            self.spec.shared_mem_bytes
        );

        let n_blocks = config.grid_blocks;
        let spawns =
            if self.worker_threads == 1 { 0 } else { self.worker_threads.min(n_blocks.max(1)) };
        let next_block = AtomicUsize::new(0);
        let run = || {
            let arena = SharedMemory::new(config.shared_mem_words);
            let mut ctx = BlockContext::new(0, n_blocks, config.threads_per_block, arena);
            loop {
                let block_idx = next_block.fetch_add(1, Ordering::Relaxed);
                if block_idx >= n_blocks || launch_aborted() {
                    return ctx.into_counters();
                }
                ctx.start_block(block_idx);
                kernel.execute_block(&mut ctx);
            }
        };

        let wall_start = Instant::now();
        let totals = run_on_workers(spawns, run);
        let wall_time = wall_start.elapsed();
        let modeled = self.cost.kernel_time(&totals, config);

        KernelStats {
            blocks: n_blocks,
            threads_per_block: config.threads_per_block,
            counters: totals,
            wall_time_s: wall_time.as_secs_f64(),
            modeled_time_s: modeled,
        }
    }
}

thread_local! {
    /// The abort flag of the launch this thread is running blocks for.
    static LAUNCH_ABORT: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// True when the launch whose blocks this thread is running has a panicked
/// worker (always false outside a launch).
pub(crate) fn launch_aborted() -> bool {
    LAUNCH_ABORT.with(|slot| slot.borrow().as_ref().is_some_and(|a| a.load(Ordering::Acquire)))
}

/// Runs `run` on `spawns` scoped threads while the caller waits at the join,
/// or inline on the caller when `spawns` is 0, and sums the counters the
/// workers return. The caller never claims blocks itself: it is usually a
/// long-lived scheduler thread, and block work kept on those threads (the
/// caller as a worker, or one-block launches inline) let the OS leave them on
/// fixed CPUs for whole `serve_mix` runs — sometimes all on one CPU, a ~30 %
/// slower run — where fresh spawns per launch keep them re-placed.
/// A worker whose block panics raises the launch's abort flag (through
/// [`launch_aborted`] the others stop claiming blocks and blocks waiting on a
/// turn give up); the first panic is re-raised once every worker has stopped.
fn run_on_workers(spawns: usize, run: impl Fn() -> MemoryCounters + Sync) -> MemoryCounters {
    let abort = Arc::new(AtomicBool::new(false));
    let totals = Mutex::new(MemoryCounters::new());
    let first_panic = Mutex::new(None);
    let worker = || {
        let outer = LAUNCH_ABORT.with(|slot| slot.replace(Some(Arc::clone(&abort))));
        match catch_unwind(AssertUnwindSafe(&run)) {
            Ok(counters) => locked(&totals).merge(&counters),
            Err(payload) => {
                locked(&first_panic).get_or_insert(payload);
                // Release pairs with the Acquire in `launch_aborted`: a block
                // that gives up because of this flag panics only after this
                // payload is stored, so its own panic never becomes the first.
                abort.store(true, Ordering::Release);
            }
        }
        LAUNCH_ABORT.with(|slot| *slot.borrow_mut() = outer);
    };
    if spawns == 0 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..spawns {
                scope.spawn(worker);
            }
        });
    }
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    totals.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BlockContext, BlockKernel, LaunchConfig};

    /// A kernel that squares numbers: block i handles a contiguous chunk of the input.
    struct SquareKernel<'a> {
        input: &'a [f64],
        output: &'a Mutex<Vec<f64>>,
        chunk: usize,
    }

    impl BlockKernel for SquareKernel<'_> {
        fn execute_block(&self, ctx: &mut BlockContext) {
            let start = ctx.block_idx * self.chunk;
            let end = (start + self.chunk).min(self.input.len());
            let mut local = Vec::with_capacity(end.saturating_sub(start));
            for i in start..end {
                ctx.counters.global_reads += 1;
                ctx.counters.flops += 1;
                local.push(self.input[i] * self.input[i]);
            }
            let mut out = locked(self.output);
            for (offset, v) in local.into_iter().enumerate() {
                ctx.counters.global_writes += 1;
                out[start + offset] = v;
            }
        }
    }

    #[test]
    fn tesla_spec_matches_paper_hardware() {
        let spec = DeviceSpec::tesla_c1060();
        assert_eq!(spec.sm_count * spec.cores_per_sm, 240);
        assert!((spec.clock_ghz - 1.3).abs() < 1e-12);
        assert_eq!(spec.shared_mem_bytes, 16 * 1024);
        assert_eq!(spec.constant_mem_bytes, 64 * 1024);
        assert!(spec.peak_gflops() > 300.0);
    }

    #[test]
    fn xeon_specs() {
        let core = DeviceSpec::xeon_core();
        assert_eq!(core.sm_count, 1);
        assert!((core.clock_ghz - 3.0).abs() < 1e-12);
        assert!(core.transfer_bandwidth_gbps.is_infinite());
        let quad = DeviceSpec::xeon_quad();
        assert_eq!(quad.sm_count, 4);
        assert!(quad.peak_gflops() > core.peak_gflops());
    }

    #[test]
    fn launch_executes_all_blocks_and_counts() {
        let device = Device::tesla_c1060();
        let input: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let output = Mutex::new(vec![0.0; input.len()]);
        let chunk = 64;
        let kernel = SquareKernel { input: &input, output: &output, chunk };
        let n_blocks = input.len().div_ceil(chunk);
        let config = LaunchConfig::new(n_blocks, 64);
        let stats = device.launch(&config, &kernel);

        let out = output.into_inner().unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as f64);
        }
        assert_eq!(stats.blocks, n_blocks);
        assert_eq!(stats.counters.flops, input.len() as u64);
        assert_eq!(stats.counters.global_reads, input.len() as u64);
        assert_eq!(stats.counters.global_writes, input.len() as u64);
        assert!(stats.modeled_time_s > 0.0);
        assert!(stats.wall_time_s > 0.0);
    }

    #[test]
    fn gpu_modeled_time_beats_serial_for_large_parallel_work() {
        // A compute-heavy kernel should be modeled much faster on the 240-core device
        // than on one Xeon core — this is the basic premise behind Table 1.
        let counters =
            MemoryCounters { flops: 100_000_000, global_reads: 1_000_000, ..Default::default() };
        let gpu = Device::tesla_c1060();
        let cpu = Device::new(DeviceSpec::xeon_core());
        let config = LaunchConfig::new(1000, 64);
        let gpu_time = gpu.cost_model().kernel_time(&counters, &config);
        let cpu_time = cpu.cost_model().serial_time(&counters);
        assert!(cpu_time / gpu_time > 20.0, "speedup {}", cpu_time / gpu_time);
    }

    #[test]
    fn transfer_accounting_accumulates() {
        let device = Device::tesla_c1060();
        assert_eq!(device.total_transfer_bytes(), 0);
        let t1 = device.record_transfer(Transfer::upload(1_000_000));
        let t2 = device.record_transfer(Transfer::download(500_000));
        assert!(t1 > 0.0 && t2 > 0.0);
        assert_eq!(device.total_transfer_bytes(), 1_500_000);
        assert!(device.total_transfer_time() >= t1 + t2 - 1e-12);
        // Directions are tracked separately.
        let snapshot = device.transfer_snapshot();
        assert!((snapshot.upload_s - t1).abs() < 1e-12);
        assert!((snapshot.download_s - t2).abs() < 1e-12);
        device.reset_transfer_stats();
        assert_eq!(device.total_transfer_bytes(), 0);
        assert_eq!(device.total_transfer_time(), 0.0);
        assert_eq!(device.transfer_snapshot(), TransferSnapshot::default());
    }

    #[test]
    fn transfer_snapshots_attribute_deltas() {
        let device = Device::tesla_c1060();
        device.upload_bytes(1 << 20);
        let before = device.transfer_snapshot();
        let up = device.upload_bytes(2 << 20);
        let down = device.download_bytes(1 << 19);
        let delta = device.transfer_snapshot().delta_since(&before);
        assert!((delta.upload_s - up).abs() < 1e-12);
        assert!((delta.download_s - down).abs() < 1e-12);
        assert_eq!(delta.bytes, (2 << 20) + (1 << 19));
        assert!((delta.total_s() - (up + down)).abs() < 1e-12);
    }

    #[test]
    fn transfer_snapshot_never_tears_seconds_from_bytes() {
        // Seconds and bytes live under one lock: no snapshot, however it
        // interleaves with concurrent uploads, may carry a transfer's
        // seconds without its bytes (or the reverse).
        const SIZE: u64 = 4096;
        const UPLOADS: usize = 5_000;
        let device = Device::tesla_c1060();
        let per_transfer_s = device.cost_model().transfer_time(&Transfer::upload(SIZE));
        let consistent = |snapshot: TransferSnapshot| {
            let transfers = (snapshot.bytes / SIZE as usize) as f64;
            let expected = transfers * per_transfer_s;
            assert!(
                (snapshot.upload_s - expected).abs() <= 1e-12,
                "torn snapshot: {} bytes but {} upload seconds (expected {expected})",
                snapshot.bytes,
                snapshot.upload_s,
            );
        };
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..UPLOADS {
                            device.upload_bytes(SIZE);
                        }
                    })
                })
                .collect();
            while !writers.iter().all(|w| w.is_finished()) {
                consistent(device.transfer_snapshot());
            }
        });
        assert_eq!(device.total_transfer_bytes(), 2 * UPLOADS * SIZE as usize);
        consistent(device.transfer_snapshot());
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn oversized_shared_memory_request_panics() {
        let device = Device::tesla_c1060();
        let config = LaunchConfig::new(1, 32).with_shared_mem_words(1_000_000);
        struct Noop;
        impl BlockKernel for Noop {
            fn execute_block(&self, _ctx: &mut BlockContext) {}
        }
        device.launch(&config, &Noop);
    }

    #[test]
    fn residency_cache_sized_by_global_memory_and_survives_resets() {
        let device = Device::tesla_c1060();
        assert_eq!(device.residency().capacity_bytes(), device.spec().global_mem_bytes);
        let payload: crate::residency::ResidentPayload = std::sync::Arc::new(1u64);
        device.residency().get_or_insert_with(99, || (payload, 1 << 20));
        device.upload_bytes(1 << 20);
        device.reset_transfer_stats();
        // Transfers are a per-run gauge; residency is device state and persists.
        assert_eq!(device.total_transfer_bytes(), 0);
        assert!(device.residency().contains(99));
    }

    #[test]
    fn one_worker_launches_run_inline_and_wider_ones_on_spawns() {
        let caller = std::thread::current().id();
        let on_caller = |device: &Device, blocks: usize| {
            let ran_on = Mutex::new(Vec::new());
            let kernel = |_: &mut BlockContext| locked(&ran_on).push(std::thread::current().id());
            let stats = device.launch(&LaunchConfig::new(blocks, 32), &kernel);
            let ran_on = ran_on.into_inner().unwrap();
            assert_eq!(ran_on.len(), blocks);
            assert_eq!(stats.blocks, blocks);
            ran_on.iter().all(|&id| id == caller)
        };
        let one_worker = Device::new(DeviceSpec { sm_count: 1, ..DeviceSpec::tesla_c1060() });
        assert_eq!(one_worker.worker_threads(), 1);
        assert!(on_caller(&one_worker, 40), "a one-worker device spawns nothing");
        let full = Device::tesla_c1060();
        if full.worker_threads() > 1 {
            // The caller only waits, even for a one-block launch.
            assert!(!on_caller(&full, 1), "a one-block launch runs on a spawn");
            assert!(!on_caller(&full, 40), "a wide launch runs on spawns");
        }
    }

    #[test]
    fn every_block_starts_from_a_zeroed_arena_and_counters_sum_over_workers() {
        // Workers reuse one arena across their blocks; a block must never see
        // what the previous block on its worker left behind.
        let device = Device::tesla_c1060();
        let dirty = AtomicUsize::new(0);
        let kernel = |ctx: &mut BlockContext| {
            if ctx.shared.as_slice().iter().any(|&v| v != 0.0) {
                dirty.fetch_add(1, Ordering::Relaxed);
            }
            ctx.shared.as_mut_slice().fill(ctx.block_idx as f64 + 1.0);
            ctx.record_flops(ctx.block_idx as u64);
            ctx.sync_threads();
        };
        let config = LaunchConfig::new(500, 64).with_shared_mem_words(16);
        let stats = device.launch(&config, &kernel);
        assert_eq!(dirty.into_inner(), 0);
        assert_eq!(stats.counters.flops, (0..500u64).sum::<u64>());
        assert_eq!(stats.counters.barriers, 500);
    }

    #[test]
    fn worker_threads_bounded_by_sm_count() {
        let device = Device::new(DeviceSpec::xeon_quad());
        assert!(device.worker_threads() <= 4);
        assert!(device.worker_threads() >= 1);
    }

    #[test]
    fn result_buffer_free_list_is_bounded_by_the_peak_out_at_once() {
        let device = Device::tesla_c1060();
        let held = |device: &Device| locked(&device.result_buffers).free.len();
        // Buffers the device never lent out are dropped.
        device.recycle_result_buffers([vec![1.0; 4]]);
        assert_eq!(held(&device), 0);

        let out: Vec<Vec<f64>> = (0..3).map(|_| device.result_buffer(8)).collect();
        assert!(out.iter().all(|b| b.len() == 8));
        // Five back for three out: the list keeps three.
        device.recycle_result_buffers(out.into_iter().chain([vec![0.0; 8], vec![0.0; 2]]));
        assert_eq!(held(&device), 3);

        // Reuse takes from the list, at the requested length, and never
        // raises the peak past what was out at once.
        for _ in 0..4 {
            let a = device.result_buffer(5);
            let b = device.result_buffer(12);
            assert_eq!((a.len(), b.len()), (5, 12));
            assert_eq!(held(&device), 1);
            device.recycle_result_buffers([a, b]);
            assert_eq!(held(&device), 3);
        }
        let buffers = locked(&device.result_buffers);
        assert_eq!((buffers.out, buffers.peak), (0, 3));
    }
}
