//! The one-shot shard executor: one scoped worker per pooled device over a
//! fixed item list, deterministic result ordering.
//!
//! **Slated for deletion.** Every mapping run and every serve batch executes
//! on [`super::PhasePipeline`]; nothing inside the workspace depends on this
//! module any more. What remains — [`ShardQueue::new`], [`ShardQueue::execute`],
//! [`ShardOutcome`] and [`DeviceShardReport`] — is exactly the surface the
//! benchmark harness's `gpu-sim.sched.shardqueue_item_2dev.us` microbench
//! compiles against (`benchmark/src/layers.rs`); the harness is frozen for
//! this change, so the file goes with the next benchmark revision.

use crate::sched::pipeline::ShardCtx;
use crate::sched::pool::{load_skew, makespan_s, utilizations, DevicePool};
use crate::sched::stream::Stream;
use crate::sync::{locked, wait_on};
use crate::timing::StreamStats;
use std::sync::{Condvar, Mutex, PoisonError};

/// What one pooled device did during a [`ShardQueue::execute`] run.
#[derive(Debug, Clone)]
pub struct DeviceShardReport {
    /// Human-readable device name (from its spec).
    pub device: String,
    /// Index of the device in the pool.
    pub device_index: usize,
    /// Indices of the work items this device serviced, in service order.
    pub item_indices: Vec<usize>,
    /// The device's stream summary (kernel/transfer split, overlap savings).
    pub stream: StreamStats,
}

impl DeviceShardReport {
    /// Number of items this device serviced.
    pub fn items(&self) -> usize {
        self.item_indices.len()
    }

    /// Modeled busy seconds: the device's overlapped stream makespan.
    pub fn busy_s(&self) -> f64 {
        self.stream.overlapped_s
    }
}

/// The outcome of a sharded execution: results in submission order plus a
/// per-device load report.
#[derive(Debug)]
pub struct ShardOutcome<R> {
    /// One result per submitted item, in **submission order** — independent of
    /// which device serviced which shard.
    pub results: Vec<R>,
    /// Per-device reports, in pool order (idle devices report zero items).
    pub reports: Vec<DeviceShardReport>,
}

impl<R> ShardOutcome<R> {
    /// The per-device busy times, in pool order.
    fn busy(&self) -> Vec<f64> {
        self.reports.iter().map(DeviceShardReport::busy_s).collect()
    }

    /// Modeled makespan: the busiest device's overlapped stream time — the
    /// multi-device modeled run time.
    pub fn makespan_s(&self) -> f64 {
        makespan_s(&self.busy())
    }

    /// Total modeled transfer seconds hidden under compute, across devices.
    pub fn overlap_saved_s(&self) -> f64 {
        self.reports.iter().map(|r| r.stream.savings_s()).sum()
    }

    /// Load-balance skew of this execution (see [`load_skew`]).
    pub fn load_skew(&self) -> f64 {
        load_skew(&self.busy())
    }

    /// Per-device utilization, in pool order (see [`utilizations`]).
    pub fn utilizations(&self) -> Vec<f64> {
        utilizations(&self.busy())
    }
}

/// A one-shot executor over a [`DevicePool`].
///
/// [`ShardQueue::execute`] spawns one scoped worker thread per pooled
/// device. Workers claim items from a shared cursor, gated on each worker's
/// **modeled** virtual clock (see below), so heterogeneous pools balance by
/// modeled speed rather than by host wall time. Two properties hold
/// regardless of the interleaving:
///
/// * **exactly-once dispatch** — the queue cursor hands every index to
///   exactly one worker, no item is skipped or run twice;
/// * **deterministic results** — each result is written to the slot of its
///   item index, so `results[i]` always corresponds to `items[i]` even though
///   the servicing device varies run to run.
///
/// Each worker drives its own [`Stream`]: the executor snapshots the device's
/// transfer accounting around every item, so per-item upload/download seconds
/// are attributed exactly and overlap savings are computed per device.
///
/// # Modeled-cost claiming
///
/// The same rule as [`super::PhasePipeline`]: every worker keeps a virtual
/// clock of the modeled seconds (kernel + transfers) of the items it has
/// completed, and may claim the next item only when its clock is within
/// one-half of the average item cost of the pool-wide minimum clock; otherwise
/// it parks until the clocks catch up. The worker holding the minimum clock is
/// never parked, so the queue always makes progress; before any item completes
/// the slack is unbounded, so the first round fans out one item to every
/// worker.
pub struct ShardQueue<'p> {
    pool: &'p DevicePool,
}

/// Shared claim state.
struct ClaimState {
    /// Index of the next unclaimed item.
    next: usize,
    /// Per-worker virtual clocks: modeled seconds of the items completed.
    vtime: Vec<f64>,
    /// Items completed across the pool.
    completed: usize,
}

impl ClaimState {
    /// Whether worker `idx` may claim an item now: its clock must be within
    /// half the mean completed-item cost of the pool minimum.
    fn may_claim(&self, idx: usize) -> bool {
        if self.completed == 0 {
            return true; // no completions yet — unbounded slack
        }
        let mean = self.vtime.iter().sum::<f64>() / self.completed as f64;
        let min = self.vtime.iter().copied().fold(f64::INFINITY, f64::min);
        self.vtime[idx] <= min + 0.5 * mean
    }
}

impl<'p> ShardQueue<'p> {
    /// A queue executing on `pool`.
    pub fn new(pool: &'p DevicePool) -> Self {
        ShardQueue { pool }
    }

    /// Executes `work` over every item, one worker per pooled device.
    ///
    /// `work` receives the shard context (device handle, device index, item
    /// index) and the item, and returns the result together with the item's
    /// modeled **kernel** seconds (transfers are captured automatically from
    /// the device's transfer accounting, so they must not be folded into the
    /// returned figure — that is what keeps them from being double-counted).
    pub fn execute<T, R, F>(&self, items: Vec<T>, work: F) -> ShardOutcome<R>
    where
        T: Send,
        R: Send,
        F: Fn(&ShardCtx<'_>, T) -> (R, f64) + Sync,
    {
        let n_items = items.len();
        let n_workers = self.pool.len();
        let slots: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n_items).map(|_| Mutex::new(None)).collect();
        let claims = Mutex::new(ClaimState { next: 0, vtime: vec![0.0; n_workers], completed: 0 });
        let turnstile = Condvar::new();
        let reports: Mutex<Vec<Option<DeviceShardReport>>> =
            Mutex::new((0..n_workers).map(|_| None).collect());

        // A worker panic re-raises on the caller's thread when the scope joins,
        // instead of leaving partially-filled results behind.
        std::thread::scope(|scope| {
            for (device_index, device) in self.pool.devices().iter().enumerate() {
                let slots = &slots;
                let results = &results;
                let claims = &claims;
                let turnstile = &turnstile;
                let reports = &reports;
                let work = &work;
                scope.spawn(move || {
                    let mut stream = Stream::new();
                    let mut item_indices = Vec::new();
                    loop {
                        // Claim an item: park until this worker's virtual
                        // clock is close enough to the pool minimum; the
                        // minimum-clock worker never parks, so the queue
                        // cannot stall.
                        let item_index = {
                            let mut state = locked(claims);
                            while state.next < n_items && !state.may_claim(device_index) {
                                state = wait_on(turnstile, state);
                            }
                            if state.next >= n_items {
                                turnstile.notify_all();
                                break;
                            }
                            state.next += 1;
                            state.next - 1
                        };
                        turnstile.notify_all();

                        let item = locked(&slots[item_index])
                            .take()
                            // lint-allow(no-panic-in-workers): a drained slot
                            // means the claim cursor handed one index out twice
                            // — results would be silently wrong, so fail
                            // loudly; the scope join propagates this by design.
                            .expect("work item claimed twice — claim cursor violated");
                        let ctx = ShardCtx { device, device_index, item_index };
                        let before = device.transfer_snapshot();
                        let (result, kernel_s) = work(&ctx, item);
                        stream.record_between(&before, &device.transfer_snapshot(), kernel_s);
                        let actual_s = stream
                            .ops()
                            .last()
                            .map(crate::timing::StreamOp::serialized_s)
                            .unwrap_or(kernel_s);
                        item_indices.push(item_index);
                        *locked(&results[item_index]) = Some(result);

                        // Advance this worker's clock by the item's actual
                        // modeled cost (kernel + transfers).
                        {
                            let mut state = locked(claims);
                            state.vtime[device_index] += actual_s;
                            state.completed += 1;
                        }
                        turnstile.notify_all();
                    }
                    locked(reports)[device_index] = Some(DeviceShardReport {
                        device: device.spec().name.clone(),
                        device_index,
                        item_indices,
                        stream: stream.stats(),
                    });
                });
            }
        });

        // The join above proved every worker ran to completion, and a worker
        // only exits its claim loop once the cursor has passed the end, so
        // every slot and report is filled.
        let results = results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint-allow(no-panic-in-workers): post-join completeness
                    // invariant — an empty slot after a clean join is
                    // unrecoverable.
                    .expect("work item produced no result")
            })
            .collect();
        let reports = reports
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            // lint-allow(no-panic-in-workers): same post-join invariant as
            // the result slots above.
            .map(|r| r.expect("worker exited without reporting"))
            .collect();
        ShardOutcome { results, reports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        let pool = DevicePool::tesla(3);
        let queue = ShardQueue::new(&pool);
        let items: Vec<usize> = (0..20).collect();
        let outcome = queue.execute(items, |ctx, item| {
            assert_eq!(ctx.item_index, item);
            (item * 2, 1e-3)
        });
        assert_eq!(outcome.results, (0..20).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(outcome.reports.len(), 3);
        let serviced: usize = outcome.reports.iter().map(DeviceShardReport::items).sum();
        assert_eq!(serviced, 20);
    }

    #[test]
    fn per_device_streams_capture_transfers() {
        let pool = DevicePool::tesla(2);
        let queue = ShardQueue::new(&pool);
        let outcome = queue.execute(vec![(); 8], |ctx, ()| {
            ctx.device.upload_bytes(1 << 20);
            ctx.device.download_bytes(1 << 18);
            ((), 5e-3)
        });
        for report in &outcome.reports {
            assert_eq!(report.stream.ops, report.items());
            if report.items() > 0 {
                assert!(report.stream.upload_s > 0.0);
                assert!(report.stream.download_s > 0.0);
                assert!(report.busy_s() <= report.stream.serialized_s + 1e-12);
            }
        }
        assert!(outcome.makespan_s() > 0.0);
        assert!(outcome.makespan_s() <= outcome.busy().iter().sum::<f64>() + 1e-12);
        assert!(outcome.load_skew() >= 1.0 - 1e-12);
        let utils = outcome.utilizations();
        assert_eq!(utils.len(), 2);
        assert!(utils.iter().all(|&u| (0.0..=1.0 + 1e-12).contains(&u)));
    }

    #[test]
    fn load_skew_of_an_all_idle_pool_is_one() {
        // Zero busy time everywhere must report 1.0 (perfectly balanced /
        // nothing to balance), never NaN from the mean division.
        assert_eq!(load_skew(&[0.0, 0.0, 0.0]), 1.0);
        assert_eq!(load_skew(&[]), 1.0);
        assert_eq!(utilizations(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(makespan_s(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn empty_work_list_reports_idle_devices() {
        let pool = DevicePool::tesla(2);
        let queue = ShardQueue::new(&pool);
        let outcome: ShardOutcome<()> = queue.execute(Vec::new(), |_, ()| ((), 0.0));
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.reports.len(), 2);
        assert_eq!(outcome.makespan_s(), 0.0);
        assert_eq!(outcome.load_skew(), 1.0);
        assert_eq!(outcome.utilizations(), vec![0.0, 0.0]);
    }
}
