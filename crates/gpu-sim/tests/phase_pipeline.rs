//! Property tests on the cross-batch phased pipeline: for any batch shape,
//! pool size, priority mix and interleaving, every phase-tagged item is
//! dispatched **exactly once**, every entry's minimize blocks run strictly
//! after that entry's dock (the per-probe dependency edge), and the
//! batch-scoped accounting covers every item. Plus the claim rule's
//! load-balance properties: modeled-slow pool members service fewer items,
//! homogeneous pools split evenly, and unevenly weighted blocks still land in
//! their slots.

use gpu_sim::sched::{
    load_skew, BatchHandle, BatchReport, DevicePool, PhasePipeline, PhasedBatch,
    PhasedDeviceReport, PhasedExec, ShardCtx,
};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Records every dock/minimize event so the properties can audit the run.
struct AuditExec {
    blocks_per_entry: usize,
    dock_runs: Vec<AtomicUsize>,
    block_runs: Vec<Vec<AtomicUsize>>,
    /// Minimize calls that observed their entry's dock incomplete.
    dependency_violations: AtomicUsize,
}

impl AuditExec {
    fn new(entries: usize, blocks_per_entry: usize) -> Self {
        AuditExec {
            blocks_per_entry,
            dock_runs: (0..entries).map(|_| AtomicUsize::new(0)).collect(),
            block_runs: (0..entries)
                .map(|_| (0..blocks_per_entry).map(|_| AtomicUsize::new(0)).collect())
                .collect(),
            dependency_violations: AtomicUsize::new(0),
        }
    }
}

impl PhasedExec for AuditExec {
    fn dock(&self, ctx: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
        ctx.device.upload_bytes(256 << 10);
        self.dock_runs[entry].fetch_add(1, Ordering::SeqCst);
        ((entry as f64 + 1.0) * 1e-4, (0..self.blocks_per_entry).map(|b| (b..b + 1, 1.0)).collect())
    }

    fn minimize(&self, ctx: &ShardCtx<'_>, entry: usize, pose_range: Range<usize>) -> f64 {
        ctx.device.download_bytes(64 << 10);
        if self.dock_runs[entry].load(Ordering::SeqCst) != 1 {
            self.dependency_violations.fetch_add(1, Ordering::SeqCst);
        }
        self.block_runs[entry][pose_range.start].fetch_add(1, Ordering::SeqCst);
        2e-4
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once dispatch with dock-before-minimize per entry, for any
    /// number of batches of any shape on any pool, with priorities drawn from
    /// the batch index (so urgent and patient batches interleave).
    #[test]
    fn every_phased_item_runs_exactly_once_after_its_dock(
        pool_size in 1usize..5,
        n_batches in 1usize..5,
        shape in (0usize..7, 1usize..4),
    ) {
        let (entries, blocks_per_entry) = shape;
        let pool = Arc::new(DevicePool::tesla(pool_size));
        pool.reset_transfer_stats();
        let pipeline = PhasePipeline::new(Arc::clone(&pool));
        let execs: Vec<Arc<AuditExec>> =
            (0..n_batches).map(|_| Arc::new(AuditExec::new(entries, blocks_per_entry))).collect();
        let handles: Vec<BatchHandle> = execs
            .iter()
            .enumerate()
            .map(|(i, exec)| {
                pipeline.submit(
                    PhasedBatch {
                        label: Default::default(),
                        entry_traces: Vec::new(),
                        // Alternate urgency so overtaking paths are exercised.
                        priority: (i % 2) as u32,
                        entries,
                        dock_weights: vec![1.0; entries],
                        exec: Arc::clone(exec) as Arc<dyn PhasedExec>,
                    },
                    None,
                )
            })
            .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait().unwrap()).collect();
        pipeline.drain();
        let pipelined_makespan = pipeline.makespan_modeled_s();
        pipeline.shutdown();

        let mut batch_transfer_total = 0.0;
        for (exec, report) in execs.iter().zip(&reports) {
            // Exactly-once, dependency-ordered execution.
            for entry in 0..entries {
                prop_assert_eq!(exec.dock_runs[entry].load(Ordering::SeqCst), 1);
                for block in &exec.block_runs[entry] {
                    prop_assert_eq!(block.load(Ordering::SeqCst), 1);
                }
            }
            prop_assert_eq!(exec.dependency_violations.load(Ordering::SeqCst), 0);
            // The report accounts every item of this batch, once.
            prop_assert_eq!(report.docks, entries);
            prop_assert_eq!(report.blocks, entries * blocks_per_entry);
            let dock_ops: usize = report.per_device.iter().map(|d| d.dock.ops).sum();
            let minimize_ops: usize = report.per_device.iter().map(|d| d.minimize.ops).sum();
            prop_assert_eq!(dock_ops, entries);
            prop_assert_eq!(minimize_ops, entries * blocks_per_entry);
            // Virtual-timeline coherence.
            prop_assert!(report.completed_v_s >= report.started_v_s - 1e-15);
            prop_assert!(report.latency_modeled_s() >= report.span_modeled_s() - 1e-12);
            prop_assert!(pipelined_makespan >= report.completed_v_s - 1e-12);
            let busy: f64 = report.per_device.iter().map(PhasedDeviceReport::busy_s).sum();
            prop_assert!(busy >= 0.0);
            batch_transfer_total += report.transfer_modeled_s();
        }
        // Batch-scoped transfers partition the pool total exactly — no
        // double-attribution no matter how batches overlapped.
        prop_assert!(
            (batch_transfer_total - pool.total_transfer_time()).abs() < 1e-9,
            "batch transfers {} vs pool {}",
            batch_transfer_total,
            pool.total_transfer_time()
        );
    }
}

/// Runs `exec` as one batch of `entries` dock items on a fresh pipeline.
fn run_one_batch(pool: DevicePool, entries: usize, exec: Arc<dyn PhasedExec>) -> BatchReport {
    let pipeline = PhasePipeline::new(Arc::new(pool));
    let handle = pipeline.submit(
        PhasedBatch {
            label: Default::default(),
            entry_traces: Vec::new(),
            priority: 0,
            entries,
            dock_weights: vec![1.0; entries],
            exec,
        },
        None,
    );
    let report = handle.wait().unwrap();
    pipeline.shutdown();
    report
}

fn busy_times(report: &BatchReport) -> Vec<f64> {
    report.per_device.iter().map(PhasedDeviceReport::busy_s).collect()
}

/// Dock-only items whose modeled cost depends on the servicing device's peak
/// throughput, as real probe shards do.
struct DeviceCostExec;

impl PhasedExec for DeviceCostExec {
    fn dock(&self, ctx: &ShardCtx<'_>, _entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
        (1.0 / ctx.device.spec().peak_gflops().max(1.0), Vec::new())
    }

    fn minimize(&self, _: &ShardCtx<'_>, _: usize, _: Range<usize>) -> f64 {
        unreachable!("dock-only batch")
    }
}

#[test]
fn mixed_pool_starves_the_modeled_slow_device() {
    // Tesla peak ≈ 312 GFLOP/s, quad-Xeon peak = 12 GFLOP/s: per item the
    // Xeon is ~26× modeled-slower. Every device runs items at the same wall
    // speed here, so a wall-clock race would hand it a third of the items;
    // the claim rule must hand it only a sliver, and busy times converge.
    let n_items = 200;
    let report = run_one_batch(DevicePool::mixed(2, 1), n_items, Arc::new(DeviceCostExec));
    let items: Vec<usize> = report.per_device.iter().map(PhasedDeviceReport::items).collect();
    assert_eq!(items.iter().sum::<usize>(), n_items, "dispatch stays exactly-once");
    // The Xeon's fair modeled share of 200 items is 200 · 12/(312+312+12)
    // ≈ 3.8; allow slop for the half-item slack band.
    assert!(items[2] <= 8, "Xeon claimed {} of {n_items}", items[2]);
    assert!(items[2] < items[0] && items[2] < items[1], "per-device items {items:?}");
    let skew = load_skew(&busy_times(&report));
    assert!(skew < 1.3, "modeled busy times did not converge: skew {skew}");
}

#[test]
fn homogeneous_pool_splits_items_evenly() {
    // On a homogeneous pool the device clocks advance in lockstep, so the
    // claim rule degenerates to an even split.
    struct UniformExec;
    impl PhasedExec for UniformExec {
        fn dock(&self, _: &ShardCtx<'_>, _: usize) -> (f64, Vec<(Range<usize>, f64)>) {
            (1e-3, Vec::new())
        }
        fn minimize(&self, _: &ShardCtx<'_>, _: usize, _: Range<usize>) -> f64 {
            unreachable!("dock-only batch")
        }
    }
    let report = run_one_batch(DevicePool::tesla(4), 40, Arc::new(UniformExec));
    for (index, device) in report.per_device.iter().enumerate() {
        assert!((8..=12).contains(&device.items()), "device {index} ran {}", device.items());
    }
    let skew = load_skew(&busy_times(&report));
    assert!(skew < 1.3, "skew {skew}");
}

#[test]
fn weighted_blocks_keep_slot_order_and_balance() {
    // Blocks of very different weights (a 50-pose block, then two 1-pose
    // tails per entry): every block runs exactly once, results land in the
    // slot of their (entry, block) no matter which device ran them, and no
    // device hoards the heavy blocks.
    const LAYOUT: [Range<usize>; 3] = [0..50, 50..51, 51..52];
    struct WeightedExec {
        slots: Vec<Mutex<Vec<Option<usize>>>>,
    }
    impl PhasedExec for WeightedExec {
        fn dock(&self, _: &ShardCtx<'_>, _: usize) -> (f64, Vec<(Range<usize>, f64)>) {
            (1e-5, LAYOUT.iter().map(|r| (r.clone(), r.len() as f64)).collect())
        }
        fn minimize(&self, _: &ShardCtx<'_>, entry: usize, pose_range: Range<usize>) -> f64 {
            let slot = LAYOUT.iter().position(|r| *r == pose_range).expect("a laid-out block");
            let previous = self.slots[entry].lock().unwrap()[slot].replace(pose_range.len());
            assert!(previous.is_none(), "block ({entry}, {slot}) ran twice");
            pose_range.len() as f64 * 1e-4
        }
    }
    let entries = 10;
    let exec = Arc::new(WeightedExec {
        slots: (0..entries).map(|_| Mutex::new(vec![None; LAYOUT.len()])).collect(),
    });
    let report =
        run_one_batch(DevicePool::tesla(2), entries, Arc::clone(&exec) as Arc<dyn PhasedExec>);
    assert_eq!(report.blocks, entries * LAYOUT.len());
    for slots in &exec.slots {
        assert_eq!(*slots.lock().unwrap(), vec![Some(50), Some(1), Some(1)]);
    }
    let skew = load_skew(&busy_times(&report));
    assert!(skew < 1.6, "weighted skew {skew}");
}

#[test]
fn overlapping_batches_report_exactly_their_own_residency_events() {
    // Two batches in flight at once on a 2-device pool, each dock doing one
    // raw residency lookup on its batch's own key: every batch's report must
    // carry exactly its own lookups — a pool-wide "since the previous
    // completion" window would hand one batch its neighbour's — and the
    // per-batch tallies must partition the pool's residency counters.
    struct LookupExec {
        key: u64,
        blocks_per_entry: usize,
        /// Entry 0 of both batches meets here, so the two batches are
        /// provably executing at the same time.
        rendezvous: Arc<std::sync::Barrier>,
    }
    impl PhasedExec for LookupExec {
        fn dock(&self, ctx: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
            if entry == 0 {
                self.rendezvous.wait();
            }
            ctx.device.residency().get_or_insert_with(self.key, || (Arc::new(self.key), 1 << 10));
            (1e-4, (0..self.blocks_per_entry).map(|b| (b..b + 1, 1.0)).collect())
        }
        fn minimize(&self, _: &ShardCtx<'_>, _: usize, _: Range<usize>) -> f64 {
            2e-4
        }
    }
    let pool = Arc::new(DevicePool::tesla(2));
    let pipeline = PhasePipeline::new(Arc::clone(&pool));
    let rendezvous = Arc::new(std::sync::Barrier::new(2));
    // The first batch has a single dock: nothing can complete (and start
    // gating claims) before the second batch's entry 0 reaches the barrier
    // on the other device.
    let handles: Vec<BatchHandle> = [(1usize, 3usize), (4, 1)]
        .into_iter()
        .enumerate()
        .map(|(key, (entries, blocks_per_entry))| {
            pipeline.submit(
                PhasedBatch {
                    label: Default::default(),
                    entry_traces: Vec::new(),
                    priority: 1,
                    entries,
                    dock_weights: vec![1.0; entries],
                    exec: Arc::new(LookupExec {
                        key: key as u64,
                        blocks_per_entry,
                        rendezvous: Arc::clone(&rendezvous),
                    }),
                },
                None,
            )
        })
        .collect();
    let reports: Vec<BatchReport> = handles.iter().map(|h| h.wait().unwrap()).collect();
    pipeline.shutdown();

    let mut batch_total = gpu_sim::CacheStats::default();
    for report in &reports {
        assert_eq!(report.cache.lookups(), report.docks as u64, "batch {}", report.seq);
        assert!(report.cache.misses >= 1, "batch {}: first touch of its own key", report.seq);
        assert_eq!(report.cache.misses, report.cache.insertions);
        assert_eq!(report.derived_cache, gpu_sim::CacheStats::default());
        batch_total.accumulate(&report.cache);
    }
    let mut pool_total = gpu_sim::CacheStats::default();
    for device in pool.devices() {
        pool_total.accumulate(&device.residency().stats());
    }
    assert_eq!(batch_total, pool_total);
}
