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
//! [`Device`] executes [`BlockKernel`]s, one launch ([`Device::launch`]) or an
//! ordered launch sequence ([`Device::launch_sequence`]) at a time: each grid of
//! blocks is distributed over launch workers — the calling thread plus
//! `std::thread::scope` spawns. A device's worker count is a share of the
//! host's CPUs: at most one per simulated SM, at most the CPU count for a
//! stand-alone device, and at most the device's even share of them in a
//! [`crate::sched::DevicePool`]. A sequence spawns its extra workers once and
//! runs its launches one after another, with a barrier in between; a single
//! launch is the one-element sequence. A one-block launch, or any launch on a
//! one-worker device, runs inline on the caller and spawns nothing.
//! For each launch, each worker owns one shared-memory arena, zeroed per block, and
//! one counter set summed when the launch ends; the cost model converts the totals
//! into modeled times.

use crate::cost::CostModel;
use crate::kernel::{BlockContext, BlockKernel, LaunchConfig};
use crate::launch::QueuedLaunch;
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
    pub(crate) fn xeon_quad() -> Self {
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
    /// launch workers for block execution, the launching thread among them.
    /// A [`crate::sched::DevicePool`] gives each of its devices only its share
    /// of the CPUs instead.
    pub fn new(spec: DeviceSpec) -> Self {
        Device::with_cpus(spec, host_cpus())
    }

    /// A device whose launches may occupy `cpus` host CPUs: it gets
    /// `min(spec.sm_count, cpus)` launch workers, and at least one.
    pub(crate) fn with_cpus(spec: DeviceSpec, cpus: usize) -> Self {
        let worker_threads = spec.sm_count.min(cpus).max(1);
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

    /// Number of launch workers that execute blocks: the launching thread
    /// plus at most this many minus one spawns per launch sequence.
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
    /// parallel across the worker threads, and returns merged statistics. This
    /// is the one-launch case of [`Device::launch_sequence`], which documents
    /// how blocks run and how a panic fails the launch.
    ///
    /// # Panics
    /// As [`Device::launch_sequence`].
    pub fn launch<K: BlockKernel>(&self, config: &LaunchConfig, kernel: &K) -> KernelStats {
        let mut stats = [KernelStats::zero()];
        self.launch_sequence(&[QueuedLaunch::new(*config, kernel)], &mut stats);
        stats[0]
    }

    /// Runs `launches` in order, as one launch sequence, and writes each one's
    /// statistics into the matching slot of `stats`.
    ///
    /// Each launch hands its blocks out in increasing index order from its own
    /// claim counter. Each worker gives it a fresh [`BlockContext`]: the
    /// shared-memory arena is zeroed before every block, and the counters
    /// accumulate over the worker's blocks of that launch and are summed once
    /// it ends — integer sums, so the totals do not depend on which worker ran
    /// which block. Kernels write their results through whatever
    /// interior-mutable output structure they captured (mirroring global-memory
    /// writes on a real device). After the sequence, each launch gets its
    /// modeled time from its own counters and emits its own `ftmap_trace`
    /// kernel event, in launch order, under the kernel's type name: `stats`
    /// and the trace are bit for bit those of separate [`Device::launch`]
    /// calls, and only `wall_time_s` differs.
    ///
    /// The whole sequence runs on one set of workers: the calling thread plus
    /// `min(worker_threads, widest launch's blocks) − 1` scoped spawns, all
    /// running the same worker loop. So a one-block launch, or any sequence on
    /// a one-worker device, runs inline on the caller and spawns nothing. A
    /// barrier separates consecutive launches, as the device's stream
    /// separates dependent kernels: no block of a launch starts before every
    /// block of the one before it has finished.
    ///
    /// # Panics
    /// Panics if `stats` and `launches` differ in length, or if a launch
    /// requests more shared memory than the device has per SM. Re-raises the
    /// first panic of any block once every worker has stopped: the other
    /// workers stop claiming blocks, blocks waiting in
    /// [`crate::BlockOrder::in_turn`] for a panicked block's turn give up, and
    /// workers waiting at the barrier leave, so later launches never start.
    pub fn launch_sequence(&self, launches: &[QueuedLaunch<'_>], stats: &mut [KernelStats]) {
        assert_eq!(launches.len(), stats.len(), "one stats slot per launch");
        for launch in launches {
            assert!(
                launch.config.shared_mem_words * std::mem::size_of::<f64>()
                    <= self.spec.shared_mem_bytes,
                "kernel requests {} words of shared memory; device has {} bytes per SM",
                launch.config.shared_mem_words,
                self.spec.shared_mem_bytes
            );
        }
        let Some(widest) = launches.iter().map(|launch| launch.config.grid_blocks).max() else {
            return;
        };
        stats.fill(KernelStats::zero());

        let workers = self.worker_threads.min(widest);
        let barrier = LaunchBarrier::new(workers, stats);
        run_on_workers(workers - 1, || {
            for (index, launch) in launches.iter().enumerate() {
                if !wait_until(|| barrier.current.load(Ordering::Acquire) == index) {
                    return;
                }
                let config = &launch.config;
                let arena = SharedMemory::new(config.shared_mem_words);
                let mut ctx =
                    BlockContext::new(0, config.grid_blocks, config.threads_per_block, arena);
                loop {
                    let block_idx = barrier.next_block.fetch_add(1, Ordering::Relaxed);
                    if block_idx >= config.grid_blocks || launch_aborted() {
                        break;
                    }
                    ctx.start_block(block_idx);
                    launch.kernel.execute_block(&mut ctx);
                }
                barrier.arrive(index, &ctx.into_counters());
            }
        });

        let stats = barrier.into_stats();
        for (slot, launch) in stats.iter_mut().zip(launches) {
            let config = &launch.config;
            (slot.blocks, slot.threads_per_block) = (config.grid_blocks, config.threads_per_block);
            slot.modeled_time_s = self.cost.kernel_time(&slot.counters, config);
            if ftmap_trace::hook::active() {
                let (blocks, threads) = (slot.blocks, slot.threads_per_block);
                ftmap_trace::hook::kernel(launch.name, slot.modeled_time_s, blocks, threads);
            }
        }
    }
}

/// The state the workers of one launch sequence share: the launch being run,
/// its block claim counter, and the barrier between consecutive launches.
struct LaunchBarrier<'s> {
    /// Index of the launch whose blocks are being claimed. The last worker
    /// to finish a launch advances it (Release, after resetting
    /// `next_block`); workers waiting to start the next launch read it
    /// (Acquire), so they see the reset counter.
    current: AtomicUsize,
    /// The current launch's next unclaimed block.
    next_block: AtomicUsize,
    workers: usize,
    arrivals: Mutex<Arrivals<'s>>,
}

/// What the barrier guards: how many workers have finished the current
/// launch, when it started, and every launch's statistics.
struct Arrivals<'s> {
    finished: usize,
    started: Instant,
    stats: &'s mut [KernelStats],
}

impl<'s> LaunchBarrier<'s> {
    fn new(workers: usize, stats: &'s mut [KernelStats]) -> Self {
        LaunchBarrier {
            current: AtomicUsize::new(0),
            next_block: AtomicUsize::new(0),
            workers,
            arrivals: Mutex::new(Arrivals { finished: 0, started: Instant::now(), stats }),
        }
    }

    /// Adds one worker's counters for launch `index`; the last worker to
    /// arrive closes the launch and opens the next.
    fn arrive(&self, index: usize, counters: &MemoryCounters) {
        let mut arrivals = locked(&self.arrivals);
        arrivals.stats[index].counters.merge(counters);
        arrivals.finished += 1;
        if arrivals.finished == self.workers {
            let now = Instant::now();
            arrivals.stats[index].wall_time_s = (now - arrivals.started).as_secs_f64();
            arrivals.started = now;
            arrivals.finished = 0;
            self.next_block.store(0, Ordering::Relaxed);
            self.current.store(index + 1, Ordering::Release);
        }
    }

    fn into_stats(self) -> &'s mut [KernelStats] {
        self.arrivals.into_inner().unwrap_or_else(PoisonError::into_inner).stats
    }
}

/// The host's CPU count (1 when it cannot be read).
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    /// The abort flag of the launch sequence this thread is running blocks for.
    static LAUNCH_ABORT: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// True when the launch sequence whose blocks this thread is running has a
/// panicked worker (always false outside a launch).
pub(crate) fn launch_aborted() -> bool {
    LAUNCH_ABORT.with(|slot| slot.borrow().as_ref().is_some_and(|a| a.load(Ordering::Acquire)))
}

/// Waits until `ready` holds; false if the launch sequence this thread runs
/// blocks for was aborted first. The waits it serves (a block's turn, the
/// barrier before the next launch) are a few microseconds of block work long,
/// so it spins briefly, then gives the core away in case the awaited worker is
/// descheduled — or gone, if it panicked.
pub(crate) fn wait_until(ready: impl Fn() -> bool) -> bool {
    let mut spins = 0u32;
    while !ready() {
        if spins < 128 {
            spins += 1;
            std::hint::spin_loop();
        } else if launch_aborted() {
            return false;
        } else {
            std::thread::yield_now();
        }
    }
    true
}

/// Runs `run` on the caller and on `spawns` scoped threads beside it, and
/// returns once all of them have finished. This is the one place [`Device`]
/// puts block work on host threads: a launch sequence, however many launches
/// it holds, spawns once, and the caller is one of its workers, so a
/// one-worker run spawns nothing.
/// A worker whose block panics — the caller's included — raises the
/// sequence's abort flag (through [`launch_aborted`] the others stop claiming
/// blocks, leave the barrier, and blocks waiting on a turn give up); the
/// first panic is re-raised once every worker has stopped.
fn run_on_workers(spawns: usize, run: impl Fn() + Sync) {
    let abort = Arc::new(AtomicBool::new(false));
    let first_panic = Mutex::new(None);
    let worker = || {
        let outer = LAUNCH_ABORT.with(|slot| slot.replace(Some(Arc::clone(&abort))));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(&run)) {
            locked(&first_panic).get_or_insert(payload);
            // Release pairs with the Acquire in `launch_aborted`: a block
            // that gives up because of this flag panics only after this
            // payload is stored, so its own panic never becomes the first.
            abort.store(true, Ordering::Release);
        }
        LAUNCH_ABORT.with(|slot| *slot.borrow_mut() = outer);
    };
    std::thread::scope(|scope| {
        for _ in 0..spawns {
            scope.spawn(worker);
        }
        worker();
    });
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BlockContext, BlockKernel, LaunchConfig};
    use crate::launch::{BlockOrder, KernelLaunch, Staged};

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
    fn launches_run_on_the_caller_and_at_most_workers_minus_one_spawns() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        // The caller is one of a sequence's workers. Returns the threads that
        // ran blocks of a five-launch sequence of `blocks`-block launches. In
        // the first launch, blocks below `hold` keep their worker until that
        // many distinct threads have run a block, so each of them is claimed
        // by a different worker: with `hold` = the worker count, every worker
        // (the caller included) must run one, or the sequence hangs.
        fn threads_of(device: &Device, blocks: usize, hold: usize) -> HashSet<ThreadId> {
            let ran_on = Mutex::new(HashSet::new());
            let kernel = |ctx: &mut BlockContext| {
                locked(&ran_on).insert(std::thread::current().id());
                if ctx.block_idx < hold {
                    wait_until(|| locked(&ran_on).len() >= hold);
                }
            };
            let launch = KernelLaunch::on(device).grid(blocks);
            let mut stats = [KernelStats::zero(); 5];
            device.launch_sequence(&[launch.queue(&kernel); 5], &mut stats);
            assert!(stats.iter().all(|s| s.blocks == blocks));
            ran_on.into_inner().unwrap()
        }
        let spec = DeviceSpec::tesla_c1060();
        for workers in [1, 2, 3, 4] {
            let (done, outcome) = std::sync::mpsc::channel();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let caller = std::thread::current().id();
                let device = Device::with_cpus(spec, workers);
                assert_eq!(device.worker_threads(), workers);
                // A one-block launch, and anything on a one-worker device,
                // runs on the caller alone.
                assert_eq!(threads_of(&device, 1, 0), [caller].into(), "one block spawns");
                let wide = threads_of(&device, 40, workers);
                assert!(wide.contains(&caller), "the caller is a worker");
                assert_eq!(wide.len(), workers, "the caller plus {} spawns", workers - 1);
                let _ = done.send(());
            });
            outcome
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("a {workers}-worker sequence had too few workers"));
        }
        // Without holds, a device runs a sequence on at most its worker
        // count of threads, the caller included: one spawn set per sequence
        // (thread ids are never reused, so five sets would show).
        let caller = std::thread::current().id();
        let full = Device::tesla_c1060();
        let ran_on = threads_of(&full, 40, 0);
        let spawned = ran_on.iter().filter(|&&id| id != caller).count();
        assert!(ran_on.len() <= full.worker_threads(), "{} threads", ran_on.len());
        assert!(spawned < full.worker_threads(), "{spawned} spawns");
    }

    /// Three dependent launches: squares of the input, a block-ordered float
    /// sum of those squares staged through shared memory, and a one-block
    /// launch reading that sum. Returns each launch's stats and the output
    /// bits, from separate launches or from one sequence.
    fn dependent_launches(device: &Device, as_sequence: bool) -> ([KernelStats; 3], Vec<u64>) {
        let input: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let squares = Staged::zeroed(input.len());
        let sum = Staged::new(0.0f64);
        let scaled = Staged::new(0.0f64);
        let order = BlockOrder::new();
        let square = |ctx: &mut BlockContext| {
            let span = ctx.block_range(input.len());
            ctx.record_global_reads(span.len() as u64);
            ctx.record_flops(span.len() as u64);
            let mut out = squares.write();
            for i in span {
                out[i] = input[i] * input[i] * 1.1;
            }
        };
        let accumulate = |ctx: &mut BlockContext| {
            let span = ctx.block_range(input.len());
            assert!(ctx.shared.as_slice().iter().all(|&v| v == 0.0), "dirty arena");
            let staged = ctx.shared.as_mut_slice();
            for (slot, i) in span.clone().enumerate() {
                staged[slot] = squares.write()[i] * 0.3;
            }
            ctx.record_shared_accesses(2 * span.len() as u64);
            ctx.sync_threads();
            let part: f64 = ctx.shared.as_slice()[..span.len()].iter().sum();
            order.in_turn(ctx.block_idx, || *sum.write() += part);
        };
        let read_sum = |ctx: &mut BlockContext| {
            ctx.record_global_reads(1);
            ctx.record_global_writes(1);
            *scaled.write() = *sum.write() / 7.0;
        };
        let wide = KernelLaunch::on(device).grid(37).threads(32);
        let staging = wide.clone().shared_mem_words(32);
        let single = KernelLaunch::on(device).threads(128);
        let stats = if as_sequence {
            let mut stats = [KernelStats::zero(); 3];
            let launches =
                [wide.queue(&square), staging.queue(&accumulate), single.queue(&read_sum)];
            device.launch_sequence(&launches, &mut stats);
            stats
        } else {
            [wide.run(&square), staging.run(&accumulate), single.run(&read_sum)]
        };
        let mut bits: Vec<u64> = squares.take().iter().map(|v| v.to_bits()).collect();
        bits.extend([sum.take().to_bits(), scaled.take().to_bits()]);
        (stats, bits)
    }

    #[test]
    fn a_sequence_matches_separate_launches_in_stats_and_output_bits() {
        for device in [
            Device::new(DeviceSpec { sm_count: 1, ..DeviceSpec::tesla_c1060() }),
            Device::tesla_c1060(),
        ] {
            let (separate, separate_bits) = dependent_launches(&device, false);
            for _ in 0..20 {
                let (sequenced, sequenced_bits) = dependent_launches(&device, true);
                assert_eq!(sequenced_bits, separate_bits, "output bits");
                for (a, b) in separate.iter().zip(&sequenced) {
                    assert_eq!((a.blocks, a.threads_per_block), (b.blocks, b.threads_per_block));
                    assert_eq!(a.counters, b.counters);
                    assert_eq!(a.modeled_time_s.to_bits(), b.modeled_time_s.to_bits());
                    assert!(b.wall_time_s > 0.0);
                }
            }
            assert_eq!(separate[1].counters.barriers, 37);
        }
    }

    #[test]
    fn a_sequence_emits_the_trace_events_of_separate_launches_in_launch_order() {
        use ftmap_trace::{ItemScope, Recorder, Tags, TraceSink, Track};
        let device = Device::tesla_c1060();
        let events = |as_sequence: bool| {
            let recorder = Arc::new(Recorder::new());
            let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as _;
            let scope = ItemScope::enter(&sink, Track::Device(0), Tags::device(0));
            dependent_launches(&device, as_sequence);
            drop(scope);
            recorder.drain_raw()
        };
        let (separate, sequenced) = (events(false), events(true));
        assert_eq!(sequenced.len(), 3);
        let names: Vec<&str> = sequenced.iter().map(|e| e.name.as_str()).collect();
        // Closures are named by their type, as a separate launch names them.
        assert_eq!(names, ["{{closure}}"; 3]);
        for (a, b) in separate.iter().zip(&sequenced) {
            assert_eq!((&a.name, a.cat, &a.tags.nums), (&b.name, b.cat, &b.tags.nums));
            assert_eq!(
                (a.start_s.to_bits(), a.dur_s.to_bits()),
                (b.start_s.to_bits(), b.dur_s.to_bits())
            );
        }
    }

    #[test]
    fn a_panic_anywhere_in_a_sequence_fails_it_without_hanging() {
        // Three launches of 64 blocks, each committing in block order; block 3
        // of one launch panics before its turn or inside its commit. Workers
        // waiting at the barrier for that launch must leave, the launches
        // after it must never start, and the kernel's own panic must surface.
        struct Step<'a> {
            launch: usize,
            fail: (usize, bool),
            order: BlockOrder,
            blocks_run: &'a [AtomicUsize; 3],
        }
        impl BlockKernel for Step<'_> {
            fn execute_block(&self, ctx: &mut BlockContext) {
                let (launch, (failing, in_commit)) = (self.launch, self.fail);
                let fails = launch == failing && ctx.block_idx == 3;
                assert!(!fails || in_commit, "launch {launch}: block 3 failed before its turn");
                self.order.in_turn(ctx.block_idx, || {
                    assert!(!fails, "launch {launch}: block 3 failed in its commit");
                });
                self.blocks_run[launch].fetch_add(1, Ordering::Relaxed);
            }
        }
        let cases = [
            (0, false, "launch 0: block 3 failed before its turn"),
            (1, false, "launch 1: block 3 failed before its turn"),
            (1, true, "launch 1: block 3 failed in its commit"),
            (2, true, "launch 2: block 3 failed in its commit"),
        ];
        for one_worker in [false, true] {
            for (failing, in_commit, message) in cases {
                let (done, outcome) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let spec = DeviceSpec::tesla_c1060();
                    let device = if one_worker {
                        Device::new(DeviceSpec { sm_count: 1, ..spec })
                    } else {
                        Device::new(spec)
                    };
                    let blocks_run = [(); 3].map(|_| AtomicUsize::new(0));
                    let steps = [0, 1, 2].map(|launch| Step {
                        launch,
                        fail: (failing, in_commit),
                        order: BlockOrder::new(),
                        blocks_run: &blocks_run,
                    });
                    let launch = KernelLaunch::on(&device).grid(64);
                    let mut stats = [KernelStats::zero(); 3];
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        device
                            .launch_sequence(&steps.each_ref().map(|k| launch.queue(k)), &mut stats)
                    }));
                    let panic = run.err().map(|p| match p.downcast::<&str>() {
                        Ok(text) => text.to_string(),
                        Err(p) => p.downcast::<String>().map(|text| *text).unwrap_or_default(),
                    });
                    let _ = done.send((panic, blocks_run.map(AtomicUsize::into_inner)));
                });
                let (panic, blocks_run) = outcome
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("sequence hung ({message})"));
                assert_eq!(panic.as_deref(), Some(message), "the kernel's own panic surfaces");
                assert!(blocks_run[..failing].iter().all(|&n| n == 64), "{blocks_run:?}");
                assert!(blocks_run[failing + 1..].iter().all(|&n| n == 0), "{blocks_run:?}");
            }
        }

        // The caller is a worker too, so a panic in a block it runs must fail
        // the sequence the same way: a one-block launch (the caller alone),
        // and a two-worker device whose caller fails its first block only
        // once the spawn has run every other block of the launch and is
        // waiting at the barrier. Until the caller has claimed a block, the
        // spawn's blocks wait for it, so the caller always gets one.
        struct OnCaller<'a> {
            caller: std::thread::ThreadId,
            blocks: usize,
            caller_started: AtomicBool,
            panics: &'a AtomicUsize,
            blocks_run: &'a AtomicUsize,
        }
        impl BlockKernel for OnCaller<'_> {
            fn execute_block(&self, ctx: &mut BlockContext) {
                if std::thread::current().id() != self.caller {
                    wait_until(|| self.caller_started.load(Ordering::Acquire));
                } else if !self.caller_started.swap(true, Ordering::AcqRel) {
                    wait_until(|| self.blocks_run.load(Ordering::Acquire) == self.blocks - 1);
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    panic!("the caller's block {} failed", ctx.block_idx);
                }
                self.blocks_run.fetch_add(1, Ordering::Release);
            }
        }
        for (workers, blocks) in [(DeviceSpec::tesla_c1060().sm_count, 1), (2, 64)] {
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let device = Device::with_cpus(DeviceSpec::tesla_c1060(), workers);
                let (panics, blocks_run) =
                    (AtomicUsize::new(0), [(); 2].map(|_| AtomicUsize::new(0)));
                let steps = [0, 1].map(|launch| OnCaller {
                    caller: std::thread::current().id(),
                    blocks,
                    caller_started: AtomicBool::new(false),
                    panics: &panics,
                    blocks_run: &blocks_run[launch],
                });
                let launch = KernelLaunch::on(&device).grid(blocks);
                let mut stats = [KernelStats::zero(); 2];
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    device.launch_sequence(&steps.each_ref().map(|k| launch.queue(k)), &mut stats)
                }));
                let panic = run.err().and_then(|p| p.downcast::<String>().ok()).map(|text| *text);
                let _ = done.send((
                    panic,
                    panics.into_inner(),
                    blocks_run.map(AtomicUsize::into_inner),
                ));
            });
            let (panic, panics, blocks_run) =
                outcome.recv_timeout(std::time::Duration::from_secs(10)).unwrap_or_else(|_| {
                    panic!("a panic on the caller hung the sequence ({blocks} blocks)")
                });
            let panic = panic.expect("the caller's panic fails the sequence");
            assert!(panic.starts_with("the caller's block "), "{panic}");
            assert_eq!(panics, 1, "the kernel panicked once");
            assert_eq!(blocks_run, [blocks - 1, 0], "the spawn ran the rest; launch 1 never ran");
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
