//! The phased pipeline: the workspace's one multi-device executor.
//!
//! Every mapping run and every serve batch is a [`PhasedBatch`] on a
//! [`PhasePipeline`]. Workers are **persistent** (one per pooled device, alive
//! for the scheduler's lifetime) and feed from one continuously-refilled ready
//! set, so there is no phase barrier and no batch barrier:
//!
//! * each batch submits **phase-tagged items** — a dock item per entry, whose
//!   completion *generates* that entry's minimize-block items (the
//!   dock→minimize dependency edge is per probe, not per phase), so probe A's
//!   pose blocks minimize while probe B is still docking;
//! * batches queue up behind each other without draining the pool: when batch
//!   N's tail leaves devices idle, those devices immediately claim batch
//!   N+1's dock items — the paper's transfer/compute overlap idea applied one
//!   level up, across request batches;
//! * every batch carries a **priority** (lower wins): all ready items of an
//!   urgent batch are claimed before any item of a patient one, so a small
//!   interactive batch overtakes a bulk scan at the next item boundary
//!   instead of waiting out its phases. Priority never affects *results* —
//!   only when work runs.
//!
//! Load balance comes from the **claim rule**: a worker may take the next
//! ready item only while its device's modeled clock is within half a mean
//! item cost of the pool minimum, so a modeled-slow pool member (a Xeon among
//! Teslas) services proportionally fewer items and modeled busy times
//! converge, whatever the host's wall-clock interleaving.
//!
//! Determinism: item execution writes into per-entry/per-block slots owned by
//! the submitting [`PhasedExec`], and folding happens in `(entry, pose)` order
//! at batch completion, so results are bit-identical to a single-device run
//! no matter how batches interleave.
//!
//! Failure is **batch-scoped** too: a panic in an item's
//! [`PhasedExec::dock`] / [`PhasedExec::minimize`] or in a batch's completion
//! callback fails that batch alone. Its queued items are dropped, a dock of
//! it still in flight unlocks no minimize items, and once its in-flight items
//! return it resolves as [`BatchFailed`] — every waiter returns, and the
//! worker, its device and the pipeline keep serving later batches. A failed
//! item charges nothing to the virtual timeline.
//!
//! Accounting is **batch-scoped**: every item is bracketed by one before/after
//! snapshot of the servicing device's monotone counters — transfer seconds
//! ([`crate::TransferSnapshot`]) and raw/derived residency events
//! ([`crate::CacheStats`]) — and the delta lands on the *owning batch*: its
//! per-device streams and its [`BatchReport::cache`] /
//! [`BatchReport::derived_cache`] tallies. A device runs one item at a time,
//! so the delta is exactly that item's, and two batches overlapping on the
//! pool can never share a transfer second or a cache miss — which any
//! pool-wide window (read the totals at each batch completion, subtract the
//! previous reading) would, by charging batch N+1's uploads and misses to
//! batch N once they overlap.
//!
//! A modeled **virtual timeline** runs alongside: each device's clock advances
//! by the modeled seconds of the items it services (an item never starts
//! before its dependency's completion instant), giving per-batch modeled
//! span/latency figures and a pool makespan that reflect the overlap. What a
//! two-phase barrier would have cost the same items is answered analytically
//! by `BatchReport::barrier_equivalent_s` — the comparator the
//! `fig_serve_pipeline` bench gates against.

use crate::device::{Device, TransferSnapshot};
use crate::residency::CacheStats;
use crate::sched::pool::DevicePool;
use crate::sched::stream::Stream;
use crate::sync::{locked, wait_on};
use crate::timing::{StreamOp, StreamStats};
use ftmap_trace::{Category, ItemScope, Tags, TraceEvent, TraceSink, Track};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Which stage of the dock→minimize pipeline an item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Rigid docking of one entry (probe): runs as soon as a device is free.
    Dock,
    /// Minimization of one pose block: runs only after its entry's dock item
    /// completed (the per-probe dependency edge).
    Minimize,
}

/// Execution context handed to [`PhasedExec`] code for each work item.
pub struct ShardCtx<'p> {
    /// The pooled device servicing this item.
    pub device: &'p Arc<Device>,
    /// Index of that device in the pool.
    pub device_index: usize,
    /// Index of the item's entry in its batch.
    pub item_index: usize,
}

/// What a batch knows how to execute. Implementors own their payloads and
/// result slots; the scheduler only routes `(entry, pose_range)` descriptors
/// to devices, so it stays agnostic of probes, grids and shards.
pub trait PhasedExec: Send + Sync {
    /// Docks entry `entry` on the servicing device. Returns the item's pure
    /// modeled **kernel** seconds (transfers are captured from the device's
    /// accounting and must not be folded in) plus the minimize-block layout
    /// this dock unlocked: one `(pose_range, weight)` per block, in pose
    /// order. An empty layout means the entry is finished after docking
    /// (e.g. a fused dock+minimize item).
    fn dock(&self, ctx: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>);

    /// Minimizes one of entry `entry`'s pose blocks on the servicing device,
    /// returning the block's pure modeled kernel seconds.
    fn minimize(&self, ctx: &ShardCtx<'_>, entry: usize, pose_range: Range<usize>) -> f64;
}

/// Trace identity a batch carries: who submitted it and at which urgency
/// tier. Flows onto every trace event the batch's items emit; empty by
/// default (`BatchLabel::default()`), which costs nothing when tracing is
/// off.
#[derive(Debug, Clone, Default)]
pub struct BatchLabel {
    /// Tenant identity (the serve layer's job tag).
    pub tenant: Option<String>,
    /// Latency class name (`"interactive"` / `"bulk"`).
    pub class: Option<&'static str>,
}

/// One batch submitted to the pipeline.
pub struct PhasedBatch {
    /// Scheduling priority: **lower is more urgent**. Ready items of a more
    /// urgent batch are always claimed first; ties break by submission order.
    pub priority: u32,
    /// Number of dock entries; the scheduler submits dock items `0..entries`.
    pub entries: usize,
    /// Cost-model weight per dock item (uniform 1.0 is fine); must have
    /// `entries` elements.
    pub dock_weights: Vec<f64>,
    /// The executor that does the work and owns the results.
    pub exec: Arc<dyn PhasedExec>,
    /// Trace identity (tenant / latency class); `BatchLabel::default()` when
    /// the caller has none.
    pub label: BatchLabel,
    /// Request trace id per dock entry (empty when the caller doesn't do
    /// request-level tracing; otherwise must have `entries` elements). Each
    /// entry's id flows onto its dock item span and every minimize item the
    /// dock unlocks, so per-request causal trees can be reassembled from the
    /// event stream.
    pub entry_traces: Vec<u64>,
}

/// Per-device account of what one batch ran, split by phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedDeviceReport {
    /// Human-readable device name.
    pub device: String,
    /// Dock-phase stream summary on this device (this batch's items only).
    pub dock: StreamStats,
    /// Minimize-phase stream summary on this device (this batch's items only).
    pub minimize: StreamStats,
}

impl PhasedDeviceReport {
    /// Modeled busy seconds this batch put on the device (both phases,
    /// overlap applied per phase stream).
    pub fn busy_s(&self) -> f64 {
        self.dock.overlapped_s + self.minimize.overlapped_s
    }

    /// Items of either phase serviced on this device.
    pub fn items(&self) -> usize {
        self.dock.ops + self.minimize.ops
    }

    /// Modeled transfer seconds hidden under kernels on this device (both
    /// phase streams).
    pub fn overlap_saved_s(&self) -> f64 {
        self.dock.savings_s() + self.minimize.savings_s()
    }
}

/// What one batch did, returned on completion.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The batch's submission sequence number (scheduler-wide, 0-based).
    pub seq: usize,
    /// The priority it ran at.
    pub priority: u32,
    /// Virtual-timeline instant of submission (seconds).
    pub submitted_v_s: f64,
    /// Virtual instant the batch's first item started.
    pub started_v_s: f64,
    /// Virtual instant the batch's last item completed.
    pub completed_v_s: f64,
    /// Dock items executed.
    pub docks: usize,
    /// Minimize-block items executed.
    pub blocks: usize,
    /// Per-device, per-phase stream accounting — **scoped to this batch**, so
    /// overlapping batches never share a transfer second.
    pub per_device: Vec<PhasedDeviceReport>,
    /// Raw residency-cache events this batch's items caused, summed over the
    /// pool — exact per batch (see the [module docs](self)).
    pub cache: CacheStats,
    /// Derived-payload residency events this batch's items caused (the
    /// [`crate::ResidencyCache::derived_stats`] bucket), summed over the pool.
    pub derived_cache: CacheStats,
}

impl BatchReport {
    /// Modeled latency: completion minus submission on the virtual timeline.
    pub fn latency_modeled_s(&self) -> f64 {
        (self.completed_v_s - self.submitted_v_s).max(0.0)
    }

    /// Modeled span: the batch's own start-to-finish window.
    pub fn span_modeled_s(&self) -> f64 {
        (self.completed_v_s - self.started_v_s).max(0.0)
    }

    /// Total modeled transfer seconds this batch caused (both phases, all
    /// devices).
    pub fn transfer_modeled_s(&self) -> f64 {
        self.per_device
            .iter()
            .map(|d| {
                d.dock.upload_s + d.dock.download_s + d.minimize.upload_s + d.minimize.download_s
            })
            .sum()
    }

    /// What the same work would have cost under a per-batch two-phase
    /// barrier run in isolation: dock-phase makespan plus minimize-phase
    /// makespan (each phase as slow as its busiest device).
    fn barrier_equivalent_s(&self) -> f64 {
        let dock = self.per_device.iter().map(|d| d.dock.overlapped_s).fold(0.0, f64::max);
        let minimize = self.per_device.iter().map(|d| d.minimize.overlapped_s).fold(0.0, f64::max);
        dock + minimize
    }

    /// Modeled seconds the phase overlap saved versus the barriered schedule
    /// of the same items (0 when the span already exceeds the barrier sum).
    pub fn overlap_saved_s(&self) -> f64 {
        (self.barrier_equivalent_s() - self.span_modeled_s()).max(0.0)
    }
}

/// Why a batch failed: the first panic in one of its items or in its
/// completion callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFailed {
    /// The batch's submission sequence number.
    pub seq: usize,
    /// The panic's message.
    pub message: String,
}

impl fmt::Display for BatchFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase-pipeline batch {} failed: {}", self.seq, self.message)
    }
}

/// Runs `step`, turning a panic into its message (`panic!` payloads are a
/// `String` or a `&str`).
fn caught<T>(step: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(step)).map_err(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or("non-string panic", |m| m).into(),
    })
}

/// Shared completion slot between a [`BatchHandle`] and the workers: empty
/// until the batch resolves.
type BatchSlot = Arc<(Mutex<Option<Result<BatchReport, BatchFailed>>>, Condvar)>;

/// A waiter's view of one submitted batch.
#[derive(Clone)]
pub struct BatchHandle {
    slot: BatchSlot,
}

impl BatchHandle {
    /// Blocks until the batch resolves: its report, or why it failed.
    pub fn wait(&self) -> Result<BatchReport, BatchFailed> {
        let (lock, done) = &*self.slot;
        let mut outcome = locked(lock);
        loop {
            if let Some(outcome) = &*outcome {
                return outcome.clone();
            }
            outcome = wait_on(done, outcome);
        }
    }
}

/// One ready-to-run item in the shared queue.
struct ReadyItem {
    batch_slot: usize,
    /// The owning batch's executor, carried with the item so workers never
    /// need to re-lock the scheduler mid-execution to find it.
    exec: Arc<dyn PhasedExec>,
    phase: Phase,
    entry: usize,
    pose_range: Range<usize>,
    weight: f64,
    /// Virtual instant the item became runnable (its dock parent's completion
    /// for minimize items; the batch's submission instant for dock items).
    ready_v_s: f64,
    /// Latency-class tag carried for trace item spans (`Copy`, so free even
    /// when tracing is off).
    class: Option<&'static str>,
    /// Request trace id of the entry this item serves (from
    /// [`PhasedBatch::entry_traces`]); minimize items inherit their dock's.
    trace: Option<u64>,
}

/// In-flight bookkeeping for one batch.
struct BatchState {
    seq: usize,
    priority: u32,
    /// Items submitted but not yet completed (docks + generated blocks).
    outstanding: usize,
    docks_done: usize,
    blocks_done: usize,
    submitted_v_s: f64,
    started_v_s: f64,
    completed_v_s: f64,
    /// Per-device `[dock, minimize]` streams, scoped to this batch.
    streams: Vec<[Stream; 2]>,
    /// Raw / derived residency events of this batch's items.
    cache: CacheStats,
    derived_cache: CacheStats,
    /// Trace identity the batch was submitted with.
    label: BatchLabel,
    /// The first panic message of one of the batch's items, once one failed.
    failed: Option<String>,
    slot: BatchSlot,
    on_complete: Option<OnComplete>,
}

/// A batch's completion callback.
type OnComplete = Box<dyn FnOnce(Result<BatchReport, BatchFailed>) + Send>;

/// Everything the workers share.
struct SchedState {
    /// Ready items, ordered by `(priority, batch seq, insertion order)` — the
    /// first entry is always the most urgent runnable work.
    ready: BTreeMap<(u32, usize, u64), ReadyItem>,
    next_order: u64,
    /// Live batches by slot id (completed batches are removed).
    batches: BTreeMap<usize, BatchState>,
    /// Batches submitted whose completion (including the completion callback)
    /// has not finished yet. This — not `batches.is_empty()` — is what
    /// [`PhasePipeline::drain`] and capacity waiters watch: a batch leaves
    /// `batches` before its callback runs, but it only stops counting here
    /// *after* the callback returns, so a drainer can never observe "all
    /// done" while a callback still holds scheduler or caller state.
    unfinished: usize,
    next_seq: usize,
    /// Per-device modeled clocks: the virtual timeline work is laid onto.
    device_clock: Vec<f64>,
    /// Per-device completed-cost tallies for claim gating: (modeled seconds,
    /// summed weights, items).
    completed: Vec<(f64, f64, usize)>,
    shutdown: bool,
}

impl SchedState {
    /// Mean modeled cost per completed item across the pool (`None` before
    /// the first completion) — the slack band of the claim gate.
    fn mean_item_cost(&self) -> Option<f64> {
        let (cost, items) =
            self.completed.iter().fold((0.0, 0usize), |(c, n), t| (c + t.0, n + t.2));
        if items == 0 {
            None
        } else {
            Some(cost / items as f64)
        }
    }

    /// Whether worker `idx` may claim work now: its device clock must be
    /// within half a mean item cost of the pool minimum (the min-clock worker
    /// is never gated, so the queue always drains) — driven by the device
    /// clocks the virtual timeline keeps anyway.
    fn may_claim(&self, idx: usize) -> bool {
        let Some(mean) = self.mean_item_cost() else {
            return true;
        };
        let min = self.device_clock.iter().copied().fold(f64::INFINITY, f64::min);
        self.device_clock[idx] <= min + 0.5 * mean
    }
}

/// The persistent, priority-aware two-stage pipeline over a device pool. See
/// the [module docs](self).
pub struct PhasePipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    pool: Arc<DevicePool>,
    state: Mutex<SchedState>,
    /// Workers park here waiting for claimable work; batch completion and
    /// capacity changes notify it too.
    work: Condvar,
    /// Capacity/completion waiters ([`PhasePipeline::wait_capacity`],
    /// drain) park here.
    settled: Condvar,
    /// Trace sink every worker records into. [`ftmap_trace::noop`] by
    /// default: workers check `enabled()` once per item and skip all tag
    /// assembly when tracing is off.
    trace: Arc<dyn TraceSink>,
}

impl PhasePipeline {
    /// Starts a pipeline over `pool`, spawning one persistent worker per
    /// pooled device. Workers idle (parked on a condvar) until batches arrive
    /// and exit on [`PhasePipeline::shutdown`] / drop.
    pub fn new(pool: Arc<DevicePool>) -> Self {
        Self::with_trace(pool, ftmap_trace::noop())
    }

    /// Like [`PhasePipeline::new`], but every scheduler edge — item claim,
    /// dock/minimize spans, batch submit/start/complete — plus the kernel,
    /// transfer and cache events the items generate are recorded into `sink`
    /// on the modeled virtual timeline.
    pub fn with_trace(pool: Arc<DevicePool>, sink: Arc<dyn TraceSink>) -> Self {
        let n = pool.len();
        let shared = Arc::new(Shared {
            pool: Arc::clone(&pool),
            trace: sink,
            state: Mutex::new(SchedState {
                ready: BTreeMap::new(),
                next_order: 0,
                batches: BTreeMap::new(),
                unfinished: 0,
                next_seq: 0,
                device_clock: vec![0.0; n],
                completed: vec![(0.0, 0.0, 0); n],
                shutdown: false,
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
        });
        let workers = (0..n)
            .map(|device_index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, device_index))
            })
            .collect();
        PhasePipeline { shared, workers }
    }

    /// The pool this pipeline schedules onto.
    pub fn pool(&self) -> &Arc<DevicePool> {
        &self.shared.pool
    }

    /// Submits a batch; its dock items become claimable immediately. Returns
    /// a handle the caller may wait on; `on_complete` (if any) runs exactly
    /// once, with the batch's outcome, on the worker that finishes the
    /// batch's last item, before the handle resolves. A panic in
    /// `on_complete` resolves the handle as [`BatchFailed`].
    ///
    /// # Panics
    /// Panics if the pipeline has been shut down, or if `dock_weights` does
    /// not have `entries` elements.
    pub fn submit(&self, batch: PhasedBatch, on_complete: Option<OnComplete>) -> BatchHandle {
        assert_eq!(batch.dock_weights.len(), batch.entries, "dock_weights must cover every entry");
        assert!(
            batch.entry_traces.is_empty() || batch.entry_traces.len() == batch.entries,
            "entry_traces must be empty or cover every entry"
        );
        let slot = BatchSlot::default();
        let exec = Arc::clone(&batch.exec);
        let mut state = locked(&self.shared.state);
        assert!(!state.shutdown, "submit after PhasePipeline::shutdown");
        let seq = state.next_seq;
        state.next_seq += 1;
        state.unfinished += 1;
        // "Now" on the virtual timeline: the earliest instant any device
        // could pick the new work up.
        let submitted_v_s = state.device_clock.iter().copied().fold(f64::INFINITY, f64::min);
        let entries = batch.entries;
        let class = batch.label.class;
        if self.shared.trace.enabled() {
            let tags = Tags {
                batch_seq: Some(seq as u64),
                tenant: batch.label.tenant.clone(),
                class,
                ..Tags::default()
            }
            .with_num("entries", entries as f64)
            .with_num("priority", f64::from(batch.priority));
            self.shared.trace.record(
                TraceEvent::instant(
                    Track::Batch(seq as u64),
                    "batch-submit",
                    Category::Batch,
                    submitted_v_s,
                )
                .with_tags(tags),
            );
        }
        let batch_state = BatchState {
            seq,
            priority: batch.priority,
            outstanding: entries,
            docks_done: 0,
            blocks_done: 0,
            submitted_v_s,
            started_v_s: f64::INFINITY,
            completed_v_s: submitted_v_s,
            streams: (0..self.shared.pool.len()).map(|_| [Stream::new(), Stream::new()]).collect(),
            cache: CacheStats::default(),
            derived_cache: CacheStats::default(),
            label: batch.label,
            failed: None,
            slot: Arc::clone(&slot),
            on_complete,
        };
        // An empty batch completes immediately (no items will ever run), so it
        // never enters the live-batch table at all.
        if entries == 0 {
            drop(state);
            finish_batch(&self.shared, batch_state);
            return BatchHandle { slot };
        }
        state.batches.insert(seq, batch_state);
        for entry in 0..entries {
            let order = state.next_order;
            state.next_order += 1;
            state.ready.insert(
                (batch.priority, seq, order),
                ReadyItem {
                    batch_slot: seq,
                    exec: Arc::clone(&exec),
                    phase: Phase::Dock,
                    entry,
                    pose_range: 0..0,
                    weight: batch.dock_weights[entry],
                    ready_v_s: submitted_v_s,
                    class,
                    trace: batch.entry_traces.get(entry).copied(),
                },
            );
        }
        drop(state);
        self.shared.work.notify_all();
        BatchHandle { slot }
    }

    /// Blocks until fewer than `max_inflight` batches are unresolved — the
    /// dispatcher's flow control: keep batch N+1 docking under batch N, but
    /// never pile up unboundedly.
    pub fn wait_capacity(&self, max_inflight: usize) {
        let mut state = locked(&self.shared.state);
        while state.unfinished >= max_inflight.max(1) {
            state = wait_on(&self.shared.settled, state);
        }
    }

    /// Blocks until every submitted batch has resolved, completed or failed.
    pub fn drain(&self) {
        let mut state = locked(&self.shared.state);
        while state.unfinished > 0 {
            state = wait_on(&self.shared.settled, state);
        }
    }

    /// The scheduler's current virtual instant: the earliest point any
    /// device could begin new work (the minimum device clock — the same
    /// instant [`submit`](PhasePipeline::submit) stamps on a new batch).
    /// Admission layers stamp requests with this at arrival to measure
    /// modeled queue wait that accrues *before* batch submission.
    pub fn now_v_s(&self) -> f64 {
        let state = locked(&self.shared.state);
        state.device_clock.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The modeled pool makespan so far: the busiest device's virtual clock.
    /// After [`PhasePipeline::drain`] this is the modeled time the whole
    /// run took.
    pub fn makespan_modeled_s(&self) -> f64 {
        let state = locked(&self.shared.state);
        state.device_clock.iter().copied().fold(0.0, f64::max)
    }

    /// Per-device modeled busy seconds (the virtual time each device spent
    /// executing items, summed over every batch) — the numerator of a
    /// utilization gauge.
    pub fn device_busy_modeled_s(&self) -> Vec<f64> {
        let state = locked(&self.shared.state);
        state.completed.iter().map(|t| t.0).collect()
    }

    /// Per-device virtual clocks: the instant each device's last item
    /// completed. `busy / max(clock)` gives per-device utilization; the
    /// spread of this vector is the pool's load skew.
    pub fn device_clocks_v_s(&self) -> Vec<f64> {
        let state = locked(&self.shared.state);
        state.device_clock.clone()
    }

    /// Per-device **projected completion instants**: each device's virtual
    /// clock plus an even share of the ready backlog's modeled cost — the
    /// admission estimator's view of when the pool frees up for new work.
    ///
    /// Ready-item cost is projected from the pool's observed mean cost per
    /// unit weight (before any item has completed the backlog projects as
    /// zero, so the instants degrade gracefully to the raw clocks).
    /// `priority_cutoff` restricts the backlog to items at least as urgent as
    /// the given priority (lower is more urgent): an interactive admission
    /// (`Some(0)`) ignores patient bulk items it would overtake, while
    /// `None` counts everything.
    pub fn projected_completion_v_s(&self, priority_cutoff: Option<u32>) -> Vec<f64> {
        let state = locked(&self.shared.state);
        let n = state.device_clock.len().max(1);
        let (cost, weight) =
            state.completed.iter().fold((0.0, 0.0), |(c, w), t| (c + t.0, w + t.1));
        let per_weight = if weight > 0.0 { cost / weight } else { 0.0 };
        let backlog_weight: f64 = state
            .ready
            .iter()
            .filter(|((priority, _, _), _)| priority_cutoff.is_none_or(|cut| *priority <= cut))
            .map(|(_, item)| item.weight)
            .sum();
        let share = backlog_weight * per_weight / n as f64;
        state.device_clock.iter().map(|clock| clock + share).collect()
    }

    /// Drains outstanding batches, stops the workers and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // `locked` recovers from a poisoned mutex: shutdown runs during Drop
        // (and so possibly during a panic's cleanup), where a second panic
        // would abort the process.
        locked(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                eprintln!("gpu-sim: phase-pipeline worker panicked outside an item");
            }
        }
    }
}

impl Drop for PhasePipeline {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Resolves a batch: builds its report, runs the completion callback (if
/// any) under `catch_unwind`, resolves the handle slot, and stops counting
/// the batch as unfinished. Called without the scheduler lock held — the
/// callback may do real work (clustering, job-slot completion), and only
/// after it returns can a drainer observe the batch as done.
fn finish_batch(shared: &Shared, mut batch: BatchState) {
    let per_device = batch
        .streams
        .iter()
        .enumerate()
        .map(|(idx, [dock, minimize])| PhasedDeviceReport {
            device: shared.pool.device(idx).spec().name.clone(),
            dock: dock.stats(),
            minimize: minimize.stats(),
        })
        .collect();
    let report = BatchReport {
        seq: batch.seq,
        priority: batch.priority,
        submitted_v_s: batch.submitted_v_s,
        started_v_s: if batch.started_v_s.is_finite() {
            batch.started_v_s
        } else {
            batch.submitted_v_s
        },
        completed_v_s: batch.completed_v_s,
        docks: batch.docks_done,
        blocks: batch.blocks_done,
        per_device,
        cache: batch.cache,
        derived_cache: batch.derived_cache,
    };
    if shared.trace.enabled() {
        let tags = Tags {
            batch_seq: Some(batch.seq as u64),
            tenant: batch.label.tenant.clone(),
            class: batch.label.class,
            ..Tags::default()
        }
        .with_num("docks", batch.docks_done as f64)
        .with_num("blocks", batch.blocks_done as f64)
        .with_num("priority", f64::from(batch.priority))
        .with_num("latency_s", report.latency_modeled_s())
        .with_num("overlap_saved_s", report.overlap_saved_s());
        shared.trace.record(
            TraceEvent::span(
                Track::Batch(batch.seq as u64),
                "batch",
                Category::Batch,
                report.started_v_s,
                report.span_modeled_s(),
            )
            .with_tags(tags),
        );
    }
    let seq = batch.seq;
    let mut outcome = match batch.failed.take() {
        Some(message) => Err(BatchFailed { seq, message }),
        None => Ok(report),
    };
    if let Some(cb) = batch.on_complete.take() {
        if let (Err(message), Ok(_)) = (caught(|| cb(outcome.clone())), &outcome) {
            outcome = Err(BatchFailed { seq, message });
        }
    }
    let (lock, done) = &*batch.slot;
    *locked(lock) = Some(outcome);
    done.notify_all();
    locked(&shared.state).unfinished -= 1;
    shared.settled.notify_all();
    shared.work.notify_all();
}

/// One end of the per-item bracket: the servicing device's monotone transfer
/// and residency counters at one instant.
struct ItemMark {
    transfer: TransferSnapshot,
    cache: CacheStats,
    derived_cache: CacheStats,
}

impl ItemMark {
    fn of(device: &Device) -> Self {
        let residency = device.residency();
        ItemMark {
            transfer: device.transfer_snapshot(),
            cache: residency.stats(),
            derived_cache: residency.derived_stats(),
        }
    }
}

/// One persistent worker: claim the most urgent ready item (gated by the
/// modeled-cost fairness rule), execute it under `catch_unwind`, account it
/// to its batch, generate follow-on minimize items, resolve batches. A
/// panicking item fails its batch (see the [module docs](self)) and the
/// worker moves on to the next item.
fn worker_loop(shared: &Shared, device_index: usize) {
    let device: &Arc<Device> = shared.pool.device(device_index);
    loop {
        // --- Claim.
        let claimed = {
            let mut state = locked(&shared.state);
            loop {
                if !state.ready.is_empty() && state.may_claim(device_index) {
                    break;
                }
                if state.shutdown && state.ready.is_empty() && state.unfinished == 0 {
                    return;
                }
                state = wait_on(&shared.work, state);
            }
            state.ready.pop_first().map(|(_key, item)| item)
        };
        // The wait loop only breaks on a non-empty ready set, but claim
        // defensively rather than planting an unwrap in the worker body.
        let Some(item) = claimed else { continue };

        // --- Execute outside the lock. The device runs one item at a time
        // (it has exactly one worker), so the bracket's delta is exactly this
        // item's transfers and residency events.
        let ctx = ShardCtx { device, device_index, item_index: item.entry };
        // Tag assembly and scope entry only happen when a real sink is
        // installed; the untraced path pays one `enabled()` call per item.
        let item_tags = if shared.trace.enabled() {
            let mut tags = Tags::device(device_index as u32);
            tags.batch_seq = Some(item.batch_slot as u64);
            tags.class = item.class;
            tags.probe = Some(item.entry as u32);
            tags.trace = item.trace;
            if item.phase == Phase::Minimize {
                tags.pose_range = Some((item.pose_range.start as u32, item.pose_range.end as u32));
            }
            Some(tags)
        } else {
            None
        };
        // While the scope is active, every kernel launch, transfer and cache
        // lookup the item performs records an event anchored to this item:
        // an offset from the item's start, rebased to absolute once the item
        // span (recorded below with the same anchor id) fixes its start.
        let scope = item_tags.as_ref().and_then(|tags| {
            ItemScope::enter(&shared.trace, Track::Device(device_index as u32), tags.clone())
        });
        let before = ItemMark::of(device);
        let batch_slot = item.batch_slot;
        let ran = caught(|| match item.phase {
            Phase::Dock => item.exec.dock(&ctx, item.entry),
            Phase::Minimize => {
                (item.exec.minimize(&ctx, item.entry, item.pose_range.clone()), Vec::new())
            }
        });
        let after = ItemMark::of(device);
        let anchor = scope.as_ref().map(|s| s.anchor());
        drop(scope);

        // --- Account, advance the virtual timeline, unlock dependents; or
        // fail the batch.
        let (finished, span) = {
            let mut guard = locked(&shared.state);
            let state = &mut *guard;
            // Every claimed item counts in its batch's `outstanding`, so the
            // batch stays live until this item is accounted.
            let Some(batch) = state.batches.get_mut(&batch_slot) else { continue };
            batch.outstanding -= 1;
            let span = match ran {
                Ok((kernel_s, unlocked)) => {
                    let op = {
                        let delta = after.transfer.delta_since(&before.transfer);
                        StreamOp::new(delta.upload_s, kernel_s, delta.download_s)
                    };
                    let actual_s = op.serialized_s();
                    let start_v = state.device_clock[device_index].max(item.ready_v_s);
                    let completion_v = start_v + actual_s;
                    state.device_clock[device_index] = completion_v;
                    let tally = &mut state.completed[device_index];
                    tally.0 += actual_s;
                    tally.1 += item.weight;
                    tally.2 += 1;

                    let phase_idx = match item.phase {
                        Phase::Dock => 0,
                        Phase::Minimize => 1,
                    };
                    batch.streams[device_index][phase_idx].record(op);
                    batch.cache.accumulate(&after.cache.delta_since(&before.cache));
                    batch
                        .derived_cache
                        .accumulate(&after.derived_cache.delta_since(&before.derived_cache));
                    batch.started_v_s = batch.started_v_s.min(start_v);
                    batch.completed_v_s = batch.completed_v_s.max(completion_v);
                    match item.phase {
                        Phase::Dock => batch.docks_done += 1,
                        Phase::Minimize => batch.blocks_done += 1,
                    }
                    // A failed batch runs no further work: its in-flight docks
                    // unlock nothing.
                    if batch.failed.is_none() {
                        batch.outstanding += unlocked.len();
                        for (pose_range, weight) in unlocked {
                            let order = state.next_order;
                            state.next_order += 1;
                            state.ready.insert(
                                (batch.priority, batch.seq, order),
                                ReadyItem {
                                    batch_slot,
                                    exec: Arc::clone(&item.exec),
                                    phase: Phase::Minimize,
                                    entry: item.entry,
                                    pose_range,
                                    weight,
                                    ready_v_s: completion_v,
                                    class: item.class,
                                    trace: item.trace,
                                },
                            );
                        }
                    }
                    Some((start_v, actual_s, kernel_s))
                }
                Err(message) => {
                    // The batch fails: drop its queued items; its in-flight
                    // ones finish, and the last to return resolves it.
                    batch.failed.get_or_insert(message);
                    let queued = state.ready.len();
                    state.ready.retain(|_, ready| ready.batch_slot != batch_slot);
                    batch.outstanding -= queued - state.ready.len();
                    None
                }
            };
            let finished =
                if batch.outstanding == 0 { state.batches.remove(&batch_slot) } else { None };
            (finished, span)
        };
        if let (Some(tags), Some((start_v, actual_s, kernel_s))) = (item_tags, span) {
            let name = match item.phase {
                Phase::Dock => "dock",
                Phase::Minimize => "minimize",
            };
            let mut event = TraceEvent::span(
                Track::Device(device_index as u32),
                name,
                Category::Sched,
                start_v,
                actual_s,
            )
            .with_tags(tags.with_num("ready_v_s", item.ready_v_s).with_num("kernel_s", kernel_s));
            if let Some(id) = anchor {
                event = event.defines(id);
            }
            shared.trace.record(event);
        }
        if let Some(batch) = finished {
            // Report assembly + completion callback run outside the state
            // lock (the callback may do real work: clustering, job slots).
            finish_batch(shared, batch);
        }
        shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A synthetic exec: every entry docks (kernel 1 ms + an upload) and
    /// unlocks `blocks_per_entry` minimize blocks (2 ms each). Records every
    /// event for the dependency/exactly-once assertions.
    struct TestExec {
        blocks_per_entry: usize,
        dock_count: Vec<AtomicUsize>,
        block_count: Vec<AtomicUsize>,
        violations: AtomicUsize,
    }

    impl TestExec {
        fn new(entries: usize, blocks_per_entry: usize) -> Self {
            TestExec {
                blocks_per_entry,
                dock_count: (0..entries).map(|_| AtomicUsize::new(0)).collect(),
                block_count: (0..entries).map(|_| AtomicUsize::new(0)).collect(),
                violations: AtomicUsize::new(0),
            }
        }
    }

    impl PhasedExec for TestExec {
        fn dock(&self, ctx: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
            ctx.device.upload_bytes(1 << 20);
            self.dock_count[entry].fetch_add(1, Ordering::SeqCst);
            let blocks = (0..self.blocks_per_entry).map(|b| (b..b + 1, 1.0)).collect();
            (1e-3, blocks)
        }

        fn minimize(&self, ctx: &ShardCtx<'_>, entry: usize, pose_range: Range<usize>) -> f64 {
            ctx.device.download_bytes(1 << 16);
            if self.dock_count[entry].load(Ordering::SeqCst) != 1 {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
            assert_eq!(pose_range.len(), 1);
            self.block_count[entry].fetch_add(1, Ordering::SeqCst);
            2e-3
        }
    }

    fn submit_test_batch(
        pipeline: &PhasePipeline,
        exec: &Arc<TestExec>,
        priority: u32,
    ) -> BatchHandle {
        let entries = exec.dock_count.len();
        pipeline.submit(
            PhasedBatch {
                label: Default::default(),
                entry_traces: Vec::new(),
                priority,
                entries,
                dock_weights: vec![1.0; entries],
                exec: Arc::clone(exec) as Arc<dyn PhasedExec>,
            },
            None,
        )
    }

    #[test]
    fn single_batch_runs_every_item_once_with_dock_first() {
        let pool = Arc::new(DevicePool::tesla(3));
        let pipeline = PhasePipeline::new(pool);
        let exec = Arc::new(TestExec::new(5, 4));
        let handle = submit_test_batch(&pipeline, &exec, 0);
        let report = handle.wait().unwrap();
        assert_eq!(report.docks, 5);
        assert_eq!(report.blocks, 20);
        assert_eq!(exec.violations.load(Ordering::SeqCst), 0);
        for entry in 0..5 {
            assert_eq!(exec.dock_count[entry].load(Ordering::SeqCst), 1);
            assert_eq!(exec.block_count[entry].load(Ordering::SeqCst), 4);
        }
        // The virtual timeline is coherent: span > 0, latency >= span start.
        assert!(report.completed_v_s > report.started_v_s);
        assert!(report.latency_modeled_s() >= report.span_modeled_s());
        // Per-batch streams saw every item exactly once across the pool.
        let items: usize = report.per_device.iter().map(PhasedDeviceReport::items).sum();
        assert_eq!(items, 25);
        assert!(report.transfer_modeled_s() > 0.0);
        pipeline.shutdown();
    }

    #[test]
    fn cross_batch_overlap_beats_the_barrier_schedule() {
        // Two batches on a 2-device pool: under barrier dispatch the total is
        // the sum of each batch's two phase makespans; pipelined, batch 2's
        // docks fill batch 1's idle tail, so the pool makespan lands strictly
        // below the barrier sum.
        let pool = Arc::new(DevicePool::tesla(2));
        let pipeline = PhasePipeline::new(pool);
        let execs: Vec<Arc<TestExec>> = (0..3).map(|_| Arc::new(TestExec::new(3, 3))).collect();
        let handles: Vec<BatchHandle> =
            execs.iter().map(|e| submit_test_batch(&pipeline, e, 1)).collect();
        let reports: Vec<BatchReport> = handles.iter().map(|h| h.wait().unwrap()).collect();
        pipeline.drain();
        let pipelined = pipeline.makespan_modeled_s();
        let barrier: f64 = reports.iter().map(BatchReport::barrier_equivalent_s).sum();
        assert!(
            pipelined < barrier,
            "pipelined makespan {pipelined} should beat barrier sum {barrier}"
        );
        // Batches were submitted back to back, so later batches started
        // before earlier ones completed (the cross-batch overlap itself).
        assert!(reports[1].started_v_s < reports[0].completed_v_s);
        pipeline.shutdown();
    }

    #[test]
    fn urgent_batches_overtake_patient_ones() {
        // Saturate the pool with two bulk batches, then submit an interactive
        // one: its modeled completion must come before the *last* bulk
        // completion even though it arrived last.
        let pool = Arc::new(DevicePool::tesla(2));
        let pipeline = PhasePipeline::new(pool);
        let bulk: Vec<Arc<TestExec>> = (0..2).map(|_| Arc::new(TestExec::new(6, 6))).collect();
        let bulk_handles: Vec<BatchHandle> =
            bulk.iter().map(|e| submit_test_batch(&pipeline, e, 1)).collect();
        let interactive = Arc::new(TestExec::new(1, 1));
        let interactive_handle = submit_test_batch(&pipeline, &interactive, 0);
        let interactive_report = interactive_handle.wait().unwrap();
        let bulk_reports: Vec<BatchReport> =
            bulk_handles.iter().map(|h| h.wait().unwrap()).collect();
        let last_bulk = bulk_reports.iter().map(|r| r.completed_v_s).fold(0.0, f64::max);
        assert!(
            interactive_report.completed_v_s < last_bulk,
            "interactive finished at {} vs last bulk {}",
            interactive_report.completed_v_s,
            last_bulk
        );
        pipeline.shutdown();
    }

    #[test]
    fn completion_callback_fires_once_with_the_report() {
        let pool = Arc::new(DevicePool::tesla(1));
        let pipeline = PhasePipeline::new(pool);
        let exec = Arc::new(TestExec::new(2, 1));
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_cb = Arc::clone(&fired);
        let handle = pipeline.submit(
            PhasedBatch {
                label: Default::default(),
                entry_traces: Vec::new(),
                priority: 0,
                entries: 2,
                dock_weights: vec![1.0; 2],
                exec: Arc::clone(&exec) as Arc<dyn PhasedExec>,
            },
            Some(Box::new(move |report: Result<BatchReport, BatchFailed>| {
                assert_eq!(report.unwrap().docks, 2);
                fired_cb.fetch_add(1, Ordering::SeqCst);
            })),
        );
        handle.wait().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        pipeline.shutdown();
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = Arc::new(DevicePool::tesla(2));
        let pipeline = PhasePipeline::new(pool);
        let exec = Arc::new(TestExec::new(0, 0));
        let handle = submit_test_batch(&pipeline, &exec, 0);
        let report = handle.wait().unwrap();
        assert_eq!(report.docks, 0);
        assert_eq!(report.blocks, 0);
        assert_eq!(report.span_modeled_s(), 0.0);
        pipeline.shutdown();
    }

    #[test]
    fn wait_capacity_bounds_inflight_batches() {
        let pool = Arc::new(DevicePool::tesla(1));
        let pipeline = PhasePipeline::new(pool);
        for _ in 0..4 {
            pipeline.wait_capacity(2);
            assert!(locked(&pipeline.shared.state).unfinished < 2);
            let exec = Arc::new(TestExec::new(2, 2));
            submit_test_batch(&pipeline, &exec, 1);
        }
        pipeline.drain();
        assert_eq!(locked(&pipeline.shared.state).unfinished, 0);
        pipeline.shutdown();
    }

    fn submit_exec(
        pipeline: &PhasePipeline,
        exec: Arc<dyn PhasedExec>,
        entries: usize,
        on_complete: Option<OnComplete>,
    ) -> BatchHandle {
        pipeline.submit(
            PhasedBatch {
                label: Default::default(),
                entry_traces: Vec::new(),
                priority: 0,
                entries,
                dock_weights: vec![1.0; entries],
                exec,
            },
            on_complete,
        )
    }

    /// Every blocking entry point returns once the only batch resolved.
    fn assert_nothing_blocks(pipeline: &PhasePipeline) {
        pipeline.drain();
        pipeline.wait_capacity(1);
    }

    #[test]
    fn exec_panic_fails_only_its_batch_and_an_inflight_dock_unlocks_nothing() {
        // Entry 0's dock panics while entry 1's dock is in flight on the
        // other device. The batch fails with the panic's message; entry 1's
        // dock still returns and is accounted, but unlocks no minimize items.
        struct FailWhileDocking {
            both_docking: std::sync::Barrier,
            release: std::sync::atomic::AtomicBool,
            minimized: AtomicUsize,
        }
        impl PhasedExec for FailWhileDocking {
            fn dock(&self, _: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
                self.both_docking.wait();
                assert!(entry != 0, "exec bug on entry 0");
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                (1e-3, vec![(0..1, 1.0), (1..2, 1.0)])
            }
            fn minimize(&self, _: &ShardCtx<'_>, _: usize, _: Range<usize>) -> f64 {
                self.minimized.fetch_add(1, Ordering::SeqCst);
                1e-3
            }
        }
        let pipeline = PhasePipeline::new(Arc::new(DevicePool::tesla(2)));
        let exec = Arc::new(FailWhileDocking {
            both_docking: std::sync::Barrier::new(2),
            release: std::sync::atomic::AtomicBool::new(false),
            minimized: AtomicUsize::new(0),
        });
        let handle = submit_exec(&pipeline, Arc::clone(&exec) as Arc<dyn PhasedExec>, 2, None);
        let failed =
            || locked(&pipeline.shared.state).batches.get(&0).is_some_and(|b| b.failed.is_some());
        while !failed() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        exec.release.store(true, Ordering::SeqCst);
        let failed = handle.wait().unwrap_err();
        assert_eq!(failed, BatchFailed { seq: 0, message: "exec bug on entry 0".into() });
        assert_eq!(failed.to_string(), "phase-pipeline batch 0 failed: exec bug on entry 0");
        assert_eq!(exec.minimized.load(Ordering::SeqCst), 0);
        assert_nothing_blocks(&pipeline);
        // Entry 1's dock ran, so it charged its device's clock; entry 0's
        // failed item charged nothing.
        assert_eq!(locked(&pipeline.shared.state).completed.iter().map(|t| t.2).sum::<usize>(), 1);
        pipeline.shutdown();
    }

    #[test]
    fn callback_panic_fails_the_waiter() {
        let pipeline = PhasePipeline::new(Arc::new(DevicePool::tesla(1)));
        let exec = Arc::new(TestExec::new(1, 0));
        let handle = submit_exec(
            &pipeline,
            exec,
            1,
            Some(Box::new(|outcome: Result<BatchReport, BatchFailed>| {
                assert!(outcome.is_ok());
                panic!("callback bug");
            })),
        );
        assert_eq!(handle.wait(), Err(BatchFailed { seq: 0, message: "callback bug".into() }));
        assert_nothing_blocks(&pipeline);
        pipeline.shutdown();
    }

    #[test]
    fn pipeline_keeps_serving_after_a_failed_batch() {
        // On one device, entry 0 docks first and panics: entry 1, still
        // queued, is dropped and never runs, and the failed item charges
        // nothing. A later batch then reports exactly what it reports on a
        // fresh pipeline whose first batch was empty.
        struct PanicOnEntryZero(AtomicUsize);
        impl PhasedExec for PanicOnEntryZero {
            fn dock(&self, _: &ShardCtx<'_>, entry: usize) -> (f64, Vec<(Range<usize>, f64)>) {
                assert!(entry != 0, "exec bug on entry 0");
                self.0.fetch_add(1, Ordering::SeqCst);
                (1e-3, Vec::new())
            }
            fn minimize(&self, _: &ShardCtx<'_>, _: usize, _: Range<usize>) -> f64 {
                unreachable!()
            }
        }
        let later_batch = |pipeline: &PhasePipeline| {
            submit_test_batch(pipeline, &Arc::new(TestExec::new(3, 2)), 0).wait().unwrap()
        };
        let pipeline = PhasePipeline::new(Arc::new(DevicePool::tesla(1)));
        let failing = Arc::new(PanicOnEntryZero(AtomicUsize::new(0)));
        let handle = submit_exec(&pipeline, Arc::clone(&failing) as Arc<dyn PhasedExec>, 2, None);
        assert_eq!(handle.wait().unwrap_err().message, "exec bug on entry 0");
        assert_eq!(failing.0.load(Ordering::SeqCst), 0, "the queued entry never ran");
        assert_nothing_blocks(&pipeline);
        let after_failure = later_batch(&pipeline);
        pipeline.shutdown();

        let fresh = PhasePipeline::new(Arc::new(DevicePool::tesla(1)));
        submit_exec(&fresh, Arc::new(TestExec::new(0, 0)), 0, None).wait().unwrap();
        assert_eq!(after_failure, later_batch(&fresh));
        assert_eq!(after_failure.seq, 1);
        fresh.shutdown();
    }

    #[test]
    fn batch_scoped_transfers_sum_to_the_pool_total() {
        // The double-attribution regression at the scheduler level: with two
        // batches overlapping on the pool, the per-batch transfer figures
        // must partition the pool's cumulative transfer time exactly.
        let pool = Arc::new(DevicePool::tesla(2));
        pool.reset_transfer_stats();
        let pipeline = PhasePipeline::new(Arc::clone(&pool));
        let execs: Vec<Arc<TestExec>> = (0..2).map(|_| Arc::new(TestExec::new(4, 2))).collect();
        let handles: Vec<BatchHandle> =
            execs.iter().map(|e| submit_test_batch(&pipeline, e, 1)).collect();
        let total_batches: f64 =
            handles.iter().map(|h| h.wait().unwrap().transfer_modeled_s()).sum();
        pipeline.shutdown();
        let pool_total = pool.total_transfer_time();
        assert!(pool_total > 0.0);
        assert!(
            (total_batches - pool_total).abs() < 1e-12,
            "batch-scoped transfers {total_batches} != pool total {pool_total}"
        );
    }

    #[test]
    fn entry_traces_flow_onto_item_spans_and_children() {
        let pool = Arc::new(DevicePool::tesla(2));
        let recorder = Arc::new(ftmap_trace::Recorder::new());
        let pipeline = PhasePipeline::with_trace(pool, Arc::clone(&recorder) as Arc<dyn TraceSink>);
        let exec = Arc::new(TestExec::new(3, 2));
        let handle = pipeline.submit(
            PhasedBatch {
                label: Default::default(),
                entry_traces: vec![100, 101, 102],
                priority: 0,
                entries: 3,
                dock_weights: vec![1.0; 3],
                exec: Arc::clone(&exec) as Arc<dyn PhasedExec>,
            },
            None,
        );
        handle.wait().unwrap();
        pipeline.shutdown();
        let events = recorder.events();
        for trace_id in [100u64, 101, 102] {
            let docks: Vec<_> = events
                .iter()
                .filter(|e| e.name == "dock" && e.tags.trace == Some(trace_id))
                .collect();
            assert_eq!(docks.len(), 1, "one dock span per traced entry");
            let minimizes: Vec<_> = events
                .iter()
                .filter(|e| e.name == "minimize" && e.tags.trace == Some(trace_id))
                .collect();
            assert_eq!(minimizes.len(), 2, "minimize items inherit the dock's trace id");
            // Anchored children (transfers) inherit the scope tags too.
            assert!(events
                .iter()
                .any(|e| e.cat == Category::Transfer && e.tags.trace == Some(trace_id)));
            // The dependency edge survives in the tags: each minimize's
            // ready_v_s is its dock's completion instant.
            let dock_end = docks[0].end_s();
            for minimize in minimizes {
                let ready = minimize
                    .tags
                    .nums
                    .iter()
                    .find(|(k, _)| *k == "ready_v_s")
                    .map(|(_, v)| *v)
                    .expect("minimize spans carry ready_v_s");
                assert!((ready - dock_end).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn projected_completion_tracks_clocks_and_backlog() {
        let pool = Arc::new(DevicePool::tesla(2));
        let pipeline = PhasePipeline::new(pool);
        // Idle pipeline: no backlog, no completions — projections are the raw
        // clocks (all zero).
        assert_eq!(pipeline.projected_completion_v_s(None), vec![0.0, 0.0]);
        let exec = Arc::new(TestExec::new(4, 3));
        let handle = submit_test_batch(&pipeline, &exec, 1);
        handle.wait().unwrap();
        pipeline.drain();
        // Drained: the ready set is empty again, so projections collapse to
        // the device clocks regardless of the cutoff.
        let clocks = pipeline.device_clocks_v_s();
        assert_eq!(pipeline.projected_completion_v_s(None), clocks);
        assert_eq!(pipeline.projected_completion_v_s(Some(0)), clocks);
        // And a projection can never fall below the device clocks.
        for (proj, clock) in pipeline.projected_completion_v_s(None).iter().zip(&clocks) {
            assert!(proj >= clock);
        }
        pipeline.shutdown();
    }

    #[test]
    #[should_panic(expected = "entry_traces must be empty or cover every entry")]
    fn partial_entry_traces_are_rejected() {
        let pool = Arc::new(DevicePool::tesla(1));
        let pipeline = PhasePipeline::new(pool);
        let exec = Arc::new(TestExec::new(2, 1));
        pipeline.submit(
            PhasedBatch {
                label: Default::default(),
                entry_traces: vec![1],
                priority: 0,
                entries: 2,
                dock_weights: vec![1.0; 2],
                exec: Arc::clone(&exec) as Arc<dyn PhasedExec>,
            },
            None,
        );
    }
}
