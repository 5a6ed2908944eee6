//! The shared kernel-execution layer: typed launch builder, staged output
//! buffers, and cross-kernel statistics accounting.
//!
//! Before this module existed, every consumer of the device model hand-rolled
//! the same three pieces of machinery around [`Device::launch`]:
//!
//! 1. a [`LaunchConfig`] assembled inline, with ad-hoc clamping of the shared
//!    memory request to the device's per-SM capacity;
//! 2. mutex-wrapped output buffers that blocks write disjoint regions of
//!    (the model's analogue of device global memory), unwrapped after the
//!    launch;
//! 3. manual merging of per-launch [`KernelStats`] across the kernels of a
//!    phase (`KernelStats::zero()` + `accumulate` chains).
//!
//! [`KernelLaunch`] replaces (1): a builder that mirrors CUDA's
//! `kernel<<<grid, block, shmem>>>` launch syntax and knows the device it will
//! run on. It runs its kernel alone ([`KernelLaunch::run`]) or queues it
//! ([`KernelLaunch::queue`]) for a [`Device::launch_sequence`] of dependent
//! launches that share one set of host workers. [`Staged`] replaces (2): an
//! output buffer owned by the launch layer that kernels write through and the
//! host *takes back* after the launch — the model's equivalent of
//! `cudaMemcpy(DeviceToHost)` for results, with the locking hidden.
//! [`StatsLedger`] replaces (3): a named accumulator that merges stats and
//! counters across the launches of a multi-kernel phase.

use crate::device::Device;
use crate::kernel::{partition_range, BlockKernel, LaunchConfig};
use crate::memory::MemoryCounters;
use crate::timing::KernelStats;
use ftmap_trace::sync::locked;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Threads per block used when the builder is not told otherwise — the value
/// the paper's correlation and minimization kernels use throughout.
const DEFAULT_THREADS_PER_BLOCK: usize = 64;

/// How the launch grid is sized: an explicit block count, or derived from a
/// work-item count when the launch runs (so the builder methods compose in any
/// order).
#[derive(Debug, Clone, Copy)]
enum GridShape {
    Blocks(usize),
    ForItems(usize),
}

/// A typed, device-aware kernel-launch builder.
///
/// Mirrors the CUDA launch configuration (`<<<grid, block, shmem>>>`): choose a
/// grid with [`grid`](Self::grid) or [`for_items`](Self::for_items), a block
/// width with [`threads`](Self::threads), optionally request shared memory, and
/// execute block-parallel with [`run`](Self::run). (Host-model baseline times
/// come from [`crate::CostModel::serial_time`] over the same counters.)
///
/// # Example
///
/// ```
/// use gpu_sim::{BlockContext, Device, KernelLaunch};
///
/// let device = Device::tesla_c1060();
/// let stats = KernelLaunch::on(&device)
///     .for_items(10_000)
///     .run(&|ctx: &mut BlockContext| {
///         let span = ctx.block_range(10_000);
///         ctx.record_flops(span.len() as u64);
///     });
/// assert_eq!(stats.counters.flops, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct KernelLaunch<'d> {
    device: &'d Device,
    grid: GridShape,
    threads_per_block: usize,
    shared_mem_words: usize,
}

impl<'d> KernelLaunch<'d> {
    /// Starts a launch on `device` with a 1-block grid of
    /// 64 threads (`DEFAULT_THREADS_PER_BLOCK`) and no shared memory.
    pub fn on(device: &'d Device) -> Self {
        KernelLaunch {
            device,
            grid: GridShape::Blocks(1),
            threads_per_block: DEFAULT_THREADS_PER_BLOCK,
            shared_mem_words: 0,
        }
    }

    /// Sets the number of blocks in the grid.
    pub fn grid(mut self, blocks: usize) -> Self {
        assert!(blocks > 0, "launch needs at least one block");
        self.grid = GridShape::Blocks(blocks);
        self
    }

    /// Sets the number of threads per block.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "launch needs at least one thread per block");
        self.threads_per_block = threads;
        self
    }

    /// Sizes the grid so that one thread covers one item: `ceil(n_items /
    /// threads_per_block)` blocks (at least one). The block count is resolved
    /// when the launch runs, so this composes with [`threads`](Self::threads)
    /// in either order.
    pub fn for_items(mut self, n_items: usize) -> Self {
        self.grid = GridShape::ForItems(n_items);
        self
    }

    /// The resolved number of blocks in the grid.
    fn grid_blocks(&self) -> usize {
        match self.grid {
            GridShape::Blocks(blocks) => blocks,
            GridShape::ForItems(n_items) => n_items.div_ceil(self.threads_per_block).max(1),
        }
    }

    /// Requests `words` f64 words of per-block shared memory. The request is
    /// validated against the device's capacity at launch.
    pub fn shared_mem_words(mut self, words: usize) -> Self {
        self.shared_mem_words = words;
        self
    }

    /// Requests `words` f64 words of per-block shared memory, capped at the
    /// device's per-SM capacity — the "use as much shared memory as the part
    /// has" pattern the paper's kernels rely on.
    pub fn shared_mem_capped(mut self, words: usize) -> Self {
        self.shared_mem_words = words.min(self.device.spec().shared_mem_words());
        self
    }

    /// The device this launch targets.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The assembled launch configuration.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.grid_blocks(), self.threads_per_block)
            .with_shared_mem_words(self.shared_mem_words)
    }

    /// The `start..end` slice of an `n_items`-sized problem owned by
    /// `block_idx` under this launch's grid — the same contiguous-chunk
    /// partition [`crate::BlockContext::block_range`] hands to executing
    /// kernels. Every item is covered by exactly one block.
    pub fn item_range(&self, block_idx: usize, n_items: usize) -> Range<usize> {
        partition_range(block_idx, self.grid_blocks(), n_items)
    }

    /// Executes the kernel block-parallel on the device and returns its stats.
    pub fn run<K: BlockKernel>(&self, kernel: &K) -> KernelStats {
        self.device.launch(&self.config(), kernel)
    }

    /// This launch with its kernel, for [`Device::launch_sequence`]: the
    /// device's way to run several dependent launches on one set of host
    /// workers.
    pub fn queue<'k, K: BlockKernel>(&self, kernel: &'k K) -> QueuedLaunch<'k> {
        QueuedLaunch::new(self.config(), kernel)
    }

    /// Executes the kernel block-parallel and records the stats into `ledger`
    /// under `phase`, returning them as well.
    pub fn run_recorded<K: BlockKernel>(
        &self,
        ledger: &mut StatsLedger,
        phase: &str,
        kernel: &K,
    ) -> KernelStats {
        let stats = self.run(kernel);
        ledger.record(phase, &stats);
        stats
    }
}

/// One launch of a [`Device::launch_sequence`]: its configuration, its
/// kernel, and the name of its trace event. Built by [`KernelLaunch::queue`].
#[derive(Clone, Copy)]
pub struct QueuedLaunch<'k> {
    pub(crate) config: LaunchConfig,
    pub(crate) kernel: &'k dyn BlockKernel,
    /// The kernel's type name without its path, resolved while the type is
    /// still known: a sequence holds its kernels as trait objects.
    pub(crate) name: &'static str,
}

impl<'k> QueuedLaunch<'k> {
    pub(crate) fn new<K: BlockKernel>(config: LaunchConfig, kernel: &'k K) -> Self {
        let name = std::any::type_name::<K>().rsplit("::").next().unwrap_or("kernel");
        QueuedLaunch { config, kernel, name }
    }
}

/// An output buffer owned by the launch layer.
///
/// Kernels write their results through a `&Staged<T>` captured in the kernel
/// struct — mirroring global-memory writes on a real device — and the host
/// takes the finished buffer back with [`Staged::take`] after the launch. The
/// interior locking that makes concurrent block writes safe is an
/// implementation detail of this type; consumer crates no longer touch a mutex
/// directly.
///
/// Blocks should write *disjoint* regions (as CUDA blocks write disjoint
/// global-memory ranges); the lock makes overlapping writes safe but
/// serialized, not ordered.
#[derive(Debug, Default)]
pub struct Staged<T> {
    slot: Mutex<T>,
}

impl<T> Staged<T> {
    /// Stages an output buffer with the given initial contents.
    pub fn new(value: T) -> Self {
        Staged { slot: Mutex::new(value) }
    }

    /// Locks the buffer for a block's write window.
    pub fn write(&self) -> MutexGuard<'_, T> {
        locked(&self.slot)
    }

    /// Consumes the staging slot, returning the finished buffer (the host-side
    /// "download" of the result).
    pub fn take(self) -> T {
        self.slot.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Clone + Default> Staged<Vec<T>> {
    /// Stages a zero-initialized buffer of `n` elements.
    pub fn zeroed(n: usize) -> Self {
        Staged::new(vec![T::default(); n])
    }
}

/// Orders the commit windows of one launch's blocks by block index.
///
/// [`Staged`] makes overlapping block writes safe but not *ordered*: blocks
/// run on several host threads, so two blocks adding into the same slot (an
/// atom whose pair rows span blocks) land in arrival order — and float
/// addition is not associative, so the sum would differ run to run. A kernel
/// that accumulates into shared slots wraps its commit in
/// [`BlockOrder::in_turn`], which makes the sum order a function of the
/// launch grid alone.
///
/// The turns start at a block the order is made with (block 0 by default).
/// Every block from there on must take exactly one turn (blocks with nothing
/// to commit pass an empty closure); the blocks below it take none, so they
/// never wait and nobody waits for them. This cannot deadlock:
/// [`Device::launch_sequence`] (and [`Device::launch`], its one-launch case)
/// hands a launch's blocks out in increasing index order from the launch's
/// own counter and runs each to completion, so the block being waited for
/// has always been claimed already. The barrier between a sequence's
/// launches adds no wait a turn can be caught in: a worker reaches it only
/// after its last block of the launch has finished, turn included, and it
/// waits there only for workers still running blocks of that same launch —
/// never for a later one, whose blocks no worker claims until every worker
/// has arrived. The calling thread is one of those workers, not a bystander:
/// it claims blocks from the same counter, runs each to completion and
/// arrives at the same barrier, so a block it holds is a claimed block like
/// any other and the argument covers it unchanged; the caller waits at the
/// join only after its own worker loop has ended. If the awaited block panics
/// before or during its turn — on the caller or on a spawn — the sequence's
/// abort flag makes the waiting blocks give up and the workers at the
/// barrier leave, so the sequence resolves to the kernel's panic. A one-block
/// launch, and any sequence on a one-worker device, runs on the caller
/// alone, where every turn is already due when a block reaches it and every
/// barrier is already complete.
/// One per launch; it holds a single counter and allocates nothing.
#[derive(Debug, Default)]
pub struct BlockOrder {
    next: AtomicUsize,
}

impl BlockOrder {
    /// An order whose first turn belongs to block 0.
    pub fn new() -> Self {
        BlockOrder::default()
    }

    /// An order whose first turn belongs to block `first`: a kernel whose
    /// blocks below `first` commit nothing skips their turns.
    pub fn starting_at(first: usize) -> Self {
        BlockOrder { next: AtomicUsize::new(first) }
    }

    /// Runs `commit` once every lower-indexed block has taken its turn, then
    /// passes the turn to block `block_idx + 1`.
    ///
    /// # Panics
    /// Panics if another block of the same launch panicked while this one was
    /// waiting for its turn — before its own turn or inside its commit — and
    /// the launch then re-raises that first panic.
    pub fn in_turn<R>(&self, block_idx: usize, commit: impl FnOnce() -> R) -> R {
        assert!(
            crate::device::wait_until(|| self.next.load(Ordering::Acquire) == block_idx),
            "block {block_idx} gave up its turn: another block of the launch panicked"
        );
        let committed = commit();
        self.next.store(block_idx + 1, Ordering::Release);
        committed
    }
}

/// Per-phase record inside a [`StatsLedger`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct PhaseRecord {
    launches: usize,
    stats: KernelStats,
}

impl PhaseRecord {
    fn zero() -> Self {
        PhaseRecord { launches: 0, stats: KernelStats::zero() }
    }
}

/// Accumulates [`KernelStats`] across the launches of a multi-kernel phase (and
/// across phases), replacing the `KernelStats::zero()` + `accumulate` chains
/// each consumer crate used to hand-roll.
///
/// Phases are named; recording twice under one name accumulates (blocks and
/// times add, counters merge, thread width keeps its maximum — the semantics of
/// [`KernelStats::accumulate`]). The ledger holds kernel statistics only:
/// transfer seconds and residency events are attributed per scheduled item by
/// [`crate::sched::PhasePipeline`] and published on
/// [`crate::sched::BatchReport`].
#[derive(Debug, Clone, Default)]
pub struct StatsLedger {
    phases: BTreeMap<String, PhaseRecord>,
}

impl StatsLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        StatsLedger::default()
    }

    /// Records one launch's stats under `phase`.
    pub fn record(&mut self, phase: &str, stats: &KernelStats) {
        self.add(phase, 1, stats);
    }

    /// Adds `launches` launches' merged `stats` to `phase`, allocating the
    /// key only the first time the phase is seen.
    fn add(&mut self, phase: &str, launches: usize, stats: &KernelStats) {
        let entry = match self.phases.get_mut(phase) {
            Some(entry) => entry,
            None => self.phases.entry(phase.to_string()).or_insert_with(PhaseRecord::zero),
        };
        entry.launches += launches;
        entry.stats.accumulate(stats);
    }

    /// The merged stats of a phase (zero if the phase was never recorded).
    pub fn phase(&self, phase: &str) -> KernelStats {
        self.phases.get(phase).map(|r| r.stats).unwrap_or_else(KernelStats::zero)
    }

    /// Number of launches recorded under `phase`.
    pub fn launches(&self, phase: &str) -> usize {
        self.phases.get(phase).map(|r| r.launches).unwrap_or(0)
    }

    /// Total launches recorded across all phases.
    pub fn total_launches(&self) -> usize {
        self.phases.values().map(|r| r.launches).sum()
    }

    /// The merged stats over all phases.
    pub fn total(&self) -> KernelStats {
        let mut total = KernelStats::zero();
        for record in self.phases.values() {
            total.accumulate(&record.stats);
        }
        total
    }

    /// The merged memory counters over all phases.
    pub fn total_counters(&self) -> MemoryCounters {
        self.total().counters
    }

    /// Total modeled device seconds over all phases.
    pub fn total_modeled_s(&self) -> f64 {
        self.phases.values().map(|r| r.stats.modeled_time_s).sum()
    }

    /// Merges another ledger into this one, phase by phase.
    pub fn merge(&mut self, other: &StatsLedger) {
        for (name, record) in &other.phases {
            self.add(name, record.launches, &record.stats);
        }
    }

    /// Phase names with their merged stats, sorted by name.
    pub fn phases(&self) -> impl Iterator<Item = (&str, KernelStats)> {
        self.phases.iter().map(|(k, v)| (k.as_str(), v.stats))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BlockContext;

    fn stats(blocks: usize, flops: u64, modeled: f64) -> KernelStats {
        KernelStats {
            blocks,
            threads_per_block: 64,
            counters: MemoryCounters { flops, ..Default::default() },
            wall_time_s: 0.0,
            modeled_time_s: modeled,
        }
    }

    #[test]
    fn builder_assembles_config() {
        let device = Device::tesla_c1060();
        let launch = KernelLaunch::on(&device).grid(12).threads(128).shared_mem_words(256);
        let config = launch.config();
        assert_eq!(config.grid_blocks, 12);
        assert_eq!(config.threads_per_block, 128);
        assert_eq!(config.shared_mem_words, 256);
    }

    #[test]
    fn for_items_covers_the_problem() {
        let device = Device::tesla_c1060();
        let launch = KernelLaunch::on(&device).threads(64).for_items(1000);
        assert_eq!(launch.config().grid_blocks, 16);
        // The grid resolves at run time, so builder order does not matter.
        let reversed = KernelLaunch::on(&device).for_items(1000).threads(32);
        assert_eq!(reversed.config().grid_blocks, 1000usize.div_ceil(32));
        // Zero items still launches one (empty-ranged) block.
        let empty = KernelLaunch::on(&device).for_items(0);
        assert_eq!(empty.config().grid_blocks, 1);
    }

    #[test]
    fn shared_mem_capped_respects_device_capacity() {
        let device = Device::tesla_c1060();
        let capacity = device.spec().shared_mem_words();
        let launch = KernelLaunch::on(&device).shared_mem_capped(usize::MAX);
        assert_eq!(launch.config().shared_mem_words, capacity);
        let small = KernelLaunch::on(&device).shared_mem_capped(8);
        assert_eq!(small.config().shared_mem_words, 8);
    }

    #[test]
    fn run_executes_and_run_recorded_feeds_ledger() {
        let device = Device::tesla_c1060();
        let output: Staged<Vec<f64>> = Staged::zeroed(100);
        let mut ledger = StatsLedger::new();
        let stats = {
            let kernel = |ctx: &mut BlockContext| {
                let span = ctx.block_range(100);
                ctx.record_flops(span.len() as u64);
                let mut out = output.write();
                for i in span {
                    out[i] = i as f64;
                }
            };
            KernelLaunch::on(&device).grid(10).run_recorded(&mut ledger, "square", &kernel)
        };
        assert_eq!(stats.counters.flops, 100);
        assert_eq!(ledger.launches("square"), 1);
        assert_eq!(ledger.phase("square").counters.flops, 100);
        let out = output.take();
        assert!((out[99] - 99.0).abs() < 1e-12);
    }

    #[test]
    fn staged_buffer_survives_a_kernel_panic_under_its_write_guard() {
        // A block that panics while holding the write guard poisons the
        // slot's mutex; the host must still get the buffer back rather than
        // a `PoisonError` panic that masks the kernel's own.
        let device = Device::tesla_c1060();
        let output: Staged<Vec<f64>> = Staged::zeroed(2);
        let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            KernelLaunch::on(&device).grid(1).run(&|_: &mut BlockContext| {
                let mut out = output.write();
                out[0] = 7.0;
                panic!("kernel bug");
            })
        }));
        assert!(launch.is_err());
        output.write()[1] = 8.0;
        assert_eq!(output.take(), vec![7.0, 8.0]);
    }

    #[test]
    fn item_range_matches_block_context_partition() {
        let device = Device::tesla_c1060();
        let launch = KernelLaunch::on(&device).grid(10);
        for b in 0..10 {
            let ctx = BlockContext::new(b, 10, 64, crate::memory::SharedMemory::new(0));
            assert_eq!(launch.item_range(b, 103), ctx.block_range(103));
        }
    }

    #[test]
    fn ledger_accumulates_within_a_phase() {
        let mut ledger = StatsLedger::new();
        ledger.record("pair", &stats(10, 100, 0.5));
        ledger.record("pair", &stats(5, 50, 0.25));
        let merged = ledger.phase("pair");
        assert_eq!(merged.blocks, 15);
        assert_eq!(merged.counters.flops, 150);
        assert!((merged.modeled_time_s - 0.75).abs() < 1e-12);
        assert_eq!(ledger.launches("pair"), 2);
    }

    #[test]
    fn ledger_totals_span_phases() {
        let mut ledger = StatsLedger::new();
        ledger.record("a", &stats(1, 10, 0.1));
        ledger.record("b", &stats(2, 20, 0.2));
        assert_eq!(ledger.total().counters.flops, 30);
        assert!((ledger.total_modeled_s() - 0.3).abs() < 1e-12);
        assert_eq!(ledger.total_launches(), 2);
        assert_eq!(ledger.total_counters().flops, 30);
        assert_eq!(ledger.phases().count(), 2);
    }

    #[test]
    fn ledger_missing_phase_is_zero() {
        let ledger = StatsLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.phase("nope"), KernelStats::zero());
        assert_eq!(ledger.launches("nope"), 0);
    }

    #[test]
    fn ledger_merge_combines_ledgers() {
        let mut a = StatsLedger::new();
        a.record("x", &stats(1, 10, 0.1));
        let mut b = StatsLedger::new();
        b.record("x", &stats(2, 20, 0.2));
        b.record("y", &stats(3, 30, 0.3));
        a.merge(&b);
        assert_eq!(a.phase("x").counters.flops, 30);
        assert_eq!(a.phase("y").counters.flops, 30);
        assert_eq!(a.launches("x"), 2);
        assert_eq!(a.total_launches(), 3);
    }

    #[test]
    fn block_order_commits_in_block_index_order() {
        // Blocks run on several worker threads; whatever order they finish
        // their compute in, the commits must land 0, 1, 2, ...
        let device = Device::tesla_c1060();
        let order = BlockOrder::new();
        let committed: Staged<Vec<usize>> = Staged::new(Vec::new());
        let kernel = |ctx: &mut BlockContext| {
            // Uneven compute so later blocks often finish first.
            let spin = (ctx.block_idx * 7919) % 64;
            std::hint::black_box((0..spin * 100).sum::<usize>());
            order.in_turn(ctx.block_idx, || committed.write().push(ctx.block_idx));
        };
        KernelLaunch::on(&device).grid(200).run(&kernel);
        assert_eq!(committed.take(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn a_block_panic_fails_the_launch_instead_of_hanging_it() {
        // Block 3 panics before taking its turn, or inside its commit; either
        // way the launch must resolve to that panic. (A panic before the turn
        // used to leave block 4's worker waiting for turn 3 forever.)
        for (in_commit, message) in
            [(false, "block 3 failed before its turn"), (true, "block 3 failed in its commit")]
        {
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let device = Device::tesla_c1060();
                let order = BlockOrder::new();
                let kernel = |ctx: &mut BlockContext| {
                    assert!(ctx.block_idx != 3 || in_commit, "block 3 failed before its turn");
                    order.in_turn(ctx.block_idx, || {
                        assert!(ctx.block_idx != 3, "block 3 failed in its commit");
                    });
                };
                let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    KernelLaunch::on(&device).grid(64).run(&kernel)
                }));
                let panic = launch.err().map(|p| match p.downcast::<&str>() {
                    Ok(text) => text.to_string(),
                    Err(p) => p.downcast::<String>().map(|text| *text).unwrap_or_default(),
                });
                let _ = done.send(panic);
            });
            let panic = outcome
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("launch hung ({message})"));
            assert_eq!(panic.as_deref(), Some(message), "the kernel's own panic surfaces");
        }
    }

    #[test]
    fn turns_starting_past_block_zero_order_only_the_blocks_from_there_on() {
        // Blocks below the first turn take none. They must never wait, nor be
        // waited for: on a multi-worker device block 0 finishes only after
        // every ordered block has committed, so a turn waiting on it, or it
        // on a turn, would hang the launch.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let device = Device::tesla_c1060();
            let block_0_waits = device.worker_threads() > 1;
            let order = BlockOrder::starting_at(5);
            let committed: Staged<Vec<usize>> = Staged::new(Vec::new());
            let unordered = std::sync::atomic::AtomicUsize::new(0);
            let kernel = |ctx: &mut BlockContext| {
                if ctx.block_idx >= 5 {
                    let spin = (ctx.block_idx * 7919) % 64;
                    std::hint::black_box((0..spin * 100).sum::<usize>());
                    return order.in_turn(ctx.block_idx, || committed.write().push(ctx.block_idx));
                }
                if ctx.block_idx == 0 && block_0_waits {
                    while committed.write().len() < 59 {
                        std::thread::yield_now();
                    }
                }
                unordered.fetch_add(1, Ordering::Relaxed);
            };
            KernelLaunch::on(&device).grid(64).run(&kernel);
            let _ = done.send((committed.take(), unordered.into_inner()));
        });
        let (committed, unordered) = outcome
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("launch hung"));
        assert_eq!(committed, (5..64).collect::<Vec<_>>());
        assert_eq!(unordered, 5);

        // A one-worker device runs the same launch inline, in block order.
        let inline =
            Device::new(crate::DeviceSpec { sm_count: 1, ..crate::DeviceSpec::tesla_c1060() });
        let order = BlockOrder::starting_at(3);
        let committed: Staged<Vec<usize>> = Staged::new(Vec::new());
        let kernel = |ctx: &mut BlockContext| {
            if ctx.block_idx >= 3 {
                order.in_turn(ctx.block_idx, || committed.write().push(ctx.block_idx));
            }
        };
        KernelLaunch::on(&inline).grid(10).run(&kernel);
        assert_eq!(committed.take(), (3..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_block_panic_fails_a_launch_whose_turns_start_late() {
        // Block 6 panics before its turn; blocks 7.. wait on it and must give
        // up, and block 2 (below the first turn, also panicking) must not
        // matter for the order either way.
        for panicking in [6, 2] {
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let device = Device::tesla_c1060();
                let order = BlockOrder::starting_at(4);
                let kernel = |ctx: &mut BlockContext| {
                    assert!(ctx.block_idx != panicking, "block {panicking} failed");
                    if ctx.block_idx >= 4 {
                        order.in_turn(ctx.block_idx, || ());
                    }
                };
                let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    KernelLaunch::on(&device).grid(64).run(&kernel)
                }));
                let panic = launch.err().map(|p| match p.downcast::<&str>() {
                    Ok(text) => text.to_string(),
                    Err(p) => p.downcast::<String>().map(|text| *text).unwrap_or_default(),
                });
                let _ = done.send(panic);
            });
            let panic = outcome
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("launch hung (block {panicking} panicked)"));
            assert_eq!(panic, Some(format!("block {panicking} failed")));
        }
    }

    #[test]
    fn staged_buffers_roundtrip() {
        let staged = Staged::new(vec![0.0f64; 4]);
        staged.write()[2] = 7.0;
        assert_eq!(staged.take(), vec![0.0, 0.0, 7.0, 0.0]);
        let zeroed: Staged<Vec<u32>> = Staged::zeroed(3);
        assert_eq!(zeroed.take(), vec![0, 0, 0]);
    }
}
