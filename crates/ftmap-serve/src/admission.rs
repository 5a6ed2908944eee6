//! SLO-aware admission control on the modeled virtual timeline.
//!
//! At `submit` time the service estimates a request's
//! **admission-to-completion latency** against live modeled state — the
//! scheduler's projected per-device completion instants
//! ([`gpu_sim::sched::PhasePipeline::projected_completion_v_s`]), the weight
//! of jobs admitted but not yet handed to the scheduler, the request's own
//! execution cost under a continuously calibrated [`CostModel`], and whether
//! its receptor grids are already warm — and issues a typed
//! [`AdmissionVerdict`]:
//!
//! * **Admitted** — the estimate fits the deadline (or no deadline applies);
//! * **Reprioritized** — a bulk request that only fits at interactive
//!   priority is bumped (when [`crate::config::AdmissionConfig::reprioritize`]
//!   is on);
//! * **Degraded** — the request is admitted with fewer rotations /
//!   conformations ([`ftmap_core::DegradePolicy`]), the reduction reported on
//!   the verdict;
//! * **Rejected** — the deadline is unmeetable even degraded (or the queue
//!   refused), with a **modeled** `retry_after` hint instead of a wall-clock
//!   one.
//!
//! The controller is deliberately conservative before it has data: until the
//! first batch completes and calibrates the [`CostModel`], every request is
//! plainly admitted — refusing work on an uncalibrated model would shed load
//! the service could trivially absorb.

use crate::batcher::LatencyClass;
use crate::config::AdmissionConfig;
use crate::job::JobHandle;
use crate::request::MappingRequest;
use ftmap_core::{AppliedDegrade, FtMapConfig};
use std::collections::BTreeMap;

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The admission queue is at capacity (non-blocking
    /// [`crate::BatchMappingService::try_submit`] only — the blocking submit
    /// waits out a full queue instead).
    QueueFull,
    /// The service is shutting down and admits nothing new.
    Closed,
    /// The modeled latency estimate exceeds the deadline even after every
    /// permitted concession (reprioritization, degradation).
    DeadlineUnmeetable {
        /// The controller's admission-to-completion estimate (modeled
        /// seconds) for the request as submitted.
        estimated_s: f64,
        /// The deadline the estimate was compared against.
        deadline_s: f64,
    },
}

/// The typed outcome of [`crate::BatchMappingService::submit`] /
/// [`try_submit`](crate::BatchMappingService::try_submit).
// lint-allow(justified-allows): the rejected request is handed back by value
// on purpose — the shedding path must not clone a protein — and verdicts are
// matched and consumed right at the submit call site, never stored, so the
// variant-size asymmetry costs one stack copy on the cold (rejection) path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AdmissionVerdict {
    /// Admitted as requested.
    Admitted(JobHandle),
    /// Admitted, but bumped to a more urgent latency class so the deadline
    /// fits (bulk → interactive).
    Reprioritized {
        /// The job handle.
        handle: JobHandle,
        /// The class the request asked for.
        from: LatencyClass,
        /// The class it was admitted at.
        to: LatencyClass,
    },
    /// Admitted with reduced work (fewer rotations / conformations) so the
    /// deadline fits.
    Degraded {
        /// The job handle.
        handle: JobHandle,
        /// What the degrade policy actually changed.
        applied: AppliedDegrade,
    },
    /// Refused; the request is handed back to the caller untouched.
    Rejected {
        /// The request, returned by value so the caller can retry or shed
        /// without cloning a protein.
        request: MappingRequest,
        /// Why it was refused.
        reason: RejectReason,
        /// Modeled seconds after which a retry is likely to be admitted
        /// (`None` when the service is closed — there is no later).
        retry_after_modeled_s: Option<f64>,
    },
}

impl AdmissionVerdict {
    /// The verdict's label value on trace events and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionVerdict::Admitted(_) => "admitted",
            AdmissionVerdict::Reprioritized { .. } => "reprioritized",
            AdmissionVerdict::Degraded { .. } => "degraded",
            AdmissionVerdict::Rejected { .. } => "rejected",
        }
    }

    /// The job handle, unless rejected.
    pub fn handle(&self) -> Option<&JobHandle> {
        match self {
            AdmissionVerdict::Admitted(handle)
            | AdmissionVerdict::Reprioritized { handle, .. }
            | AdmissionVerdict::Degraded { handle, .. } => Some(handle),
            AdmissionVerdict::Rejected { .. } => None,
        }
    }

    /// Consumes the verdict into its job handle, unless rejected.
    pub fn into_handle(self) -> Option<JobHandle> {
        match self {
            AdmissionVerdict::Admitted(handle)
            | AdmissionVerdict::Reprioritized { handle, .. }
            | AdmissionVerdict::Degraded { handle, .. } => Some(handle),
            AdmissionVerdict::Rejected { .. } => None,
        }
    }

    /// Consumes the verdict into its job handle.
    ///
    /// # Panics
    /// Panics with `msg` when the verdict is a rejection — the
    /// `submit(..).expect_admitted("..")` idiom for tests and examples that
    /// know their load fits.
    pub fn expect_admitted(self, msg: &str) -> JobHandle {
        match self.into_handle() {
            Some(handle) => handle,
            // lint-allow(no-panic-in-workers): caller-opt-in assertion API
            // (the `expect` idiom for the typed verdict) — never runs on a
            // dispatcher or scheduler thread.
            None => panic!("{msg}: request was rejected"),
        }
    }
}

/// Exponentially weighted moving average with a calibration flag.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    samples: usize,
}

/// EWMA smoothing: new observations carry this weight. High enough to track
/// workload shifts within a few batches, low enough that one outlier batch
/// does not whipsaw the estimator.
const EWMA_ALPHA: f64 = 0.3;

impl Ewma {
    fn observe(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.value = if self.samples == 0 {
            value
        } else {
            EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.value
        };
        self.samples += 1;
    }

    fn get(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.value)
    }
}

/// The admission controller's continuously calibrated cost model: modeled
/// seconds per **work unit** (one docking rotation or one minimized
/// conformation both count as one unit), learned from completed batches, plus
/// the cold-receptor upload surcharge.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// Batch span seconds per work unit (EWMA over completed batches) — the
    /// cost of one batch's own execution, pool parallelism included.
    span_per_weight: Ewma,
    /// Backlog drain seconds per work unit (EWMA over `span x device-share /
    /// weight` of completed batches). A batch that occupies `shards` of `n`
    /// devices for `span` seconds leaves the other devices free to run its
    /// queue neighbors, so a saturated pool works off queued weight at
    /// `span x shards / n` per batch — faster than batch spans suggest. This
    /// rate prices the wait behind pending jobs, and unlike completion-gap
    /// sampling it is sound from the first completion even on an idle pool
    /// (parallel completions have zero gaps, which would price backlog wait
    /// at zero).
    drain_per_weight: Ewma,
    /// Transfer seconds a cold batch pays (EWMA over batches whose receptor
    /// was not yet resident).
    cold_upload_s: Ewma,
}

/// One request's latency estimate, broken into the terms the controller
/// summed — carried on metrics and useful when explaining a rejection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyEstimate {
    /// Modeled seconds until the pool works off the backlog ahead of this
    /// request (scheduler-projected completion plus not-yet-scheduled
    /// admitted work of equal-or-higher urgency).
    pub wait_s: f64,
    /// The request's own modeled execution span once started.
    pub exec_s: f64,
    /// Cold-receptor upload surcharge (0 when the receptor is warm).
    pub upload_s: f64,
}

impl LatencyEstimate {
    /// The total admission-to-completion estimate.
    pub fn total_s(&self) -> f64 {
        self.wait_s + self.exec_s + self.upload_s
    }
}

impl CostModel {
    /// Feeds one completed batch back into the model: `span_s` is the batch's
    /// start-to-finish modeled span, `device_share` the fraction of the pool
    /// it occupied (devices that ran its items / devices), `weight` its total
    /// work units,
    /// `cold` whether it paid a receptor upload (then `transfer_s` calibrates
    /// the surcharge).
    pub(crate) fn observe_batch(
        &mut self,
        span_s: f64,
        device_share: f64,
        weight: f64,
        cold: bool,
        transfer_s: f64,
    ) {
        if weight > 0.0 {
            self.span_per_weight.observe(span_s / weight);
            let share = device_share.clamp(0.0, 1.0);
            if share > 0.0 {
                self.drain_per_weight.observe(span_s * share / weight);
            }
        }
        if cold {
            self.cold_upload_s.observe(transfer_s);
        }
    }

    /// Estimates a request's admission-to-completion latency. `wait_base_s`
    /// is the scheduler-projected time until the ready backlog at this
    /// urgency drains; `pending_weight` the work units admitted but not yet
    /// handed to the scheduler at equal-or-higher urgency; `weight` / `items`
    /// the request's own work units and parallelism grain (probes);
    /// `n_devices` the pool width. `None` until calibrated.
    pub fn estimate(
        &self,
        wait_base_s: f64,
        pending_weight: f64,
        weight: f64,
        items: usize,
        n_devices: usize,
        cold: bool,
    ) -> Option<LatencyEstimate> {
        let rate = self.span_per_weight.get()?;
        let n = n_devices.max(1) as f64;
        let grain = (items.max(1)).min(n_devices.max(1)) as f64;
        // Pending weight drains at the device-share-scaled span rate (how
        // fast a saturated pool works off queued weight); if only span
        // observations exist, fall back to the optimistic perfectly-parallel
        // estimate.
        let drain = self.drain_per_weight.get().unwrap_or(rate / n);
        Some(LatencyEstimate {
            wait_s: wait_base_s.max(0.0) + pending_weight.max(0.0) * drain,
            exec_s: weight.max(0.0) * rate / grain,
            upload_s: if cold { self.cold_upload_s.get().unwrap_or(0.0) } else { 0.0 },
        })
    }
}

/// The work units a request contributes under `config`: docking rotations
/// plus minimized conformations, summed over its probes. The unit the
/// [`CostModel`] is calibrated in.
pub(crate) fn request_weight(config: &FtMapConfig, n_probes: usize) -> f64 {
    (n_probes * (config.docking.n_rotations + config.conformations_per_probe)) as f64
}

/// Receptor fingerprints the warm-set tracker remembers (MRU) — mirrors the
/// host-side grid memo bound, since a fingerprint evicted there will rebuild
/// (and likely re-upload) anyway.
const WARM_SET_CAP: usize = 16;

/// Mutable admission-controller state, held under one mutex in the service:
/// the cost model, the not-yet-scheduled backlog per class priority, the
/// fairness in-flight counters, and the completion epoch the dispatcher
/// waits on when every pending job is fairness-blocked.
#[derive(Debug, Default)]
pub(crate) struct AdmissionState {
    /// The calibrated cost model.
    pub model: CostModel,
    /// Work units admitted but not yet handed to a dispatcher, indexed by
    /// class priority (0 = interactive, 1 = bulk).
    pub pending_weight: [f64; 2],
    /// In-flight jobs per receptor fingerprint (formed into a batch, not yet
    /// resolved).
    pub receptor_inflight: BTreeMap<u64, usize>,
    /// In-flight jobs per tenant label.
    pub tenant_inflight: BTreeMap<String, usize>,
    /// Receptor fingerprints whose grids have been built/uploaded recently
    /// (MRU, capped) — the estimator's cache-warmth signal.
    warm: Vec<u64>,
    /// Bumped on every job completion and admission; the dispatcher re-checks
    /// fairness eligibility when it changes.
    pub epoch: u64,
}

impl AdmissionState {
    /// Backlog weight at priorities `<= priority` (more or equally urgent).
    pub(crate) fn pending_weight_through(&self, priority: u32) -> f64 {
        self.pending_weight.iter().take(priority as usize + 1).sum()
    }

    /// Adds a job's weight to the not-yet-scheduled backlog.
    pub(crate) fn add_pending(&mut self, priority: u32, weight: f64) {
        if let Some(slot) = self.pending_weight.get_mut(priority as usize) {
            *slot += weight;
        }
    }

    /// Removes a job's weight from the backlog (it was handed to a
    /// dispatcher; the scheduler's own projection covers it from here).
    pub(crate) fn remove_pending(&mut self, priority: u32, weight: f64) {
        if let Some(slot) = self.pending_weight.get_mut(priority as usize) {
            *slot = (*slot - weight).max(0.0);
        }
    }

    /// True when `fingerprint`'s receptor grids were built recently enough
    /// that the estimator should treat them as resident.
    pub(crate) fn is_warm(&self, fingerprint: u64) -> bool {
        self.warm.contains(&fingerprint)
    }

    /// Marks `fingerprint` warm (MRU promote, capped).
    pub(crate) fn note_warm(&mut self, fingerprint: u64) {
        if let Some(pos) = self.warm.iter().position(|&fp| fp == fingerprint) {
            self.warm.remove(pos);
        }
        self.warm.insert(0, fingerprint);
        self.warm.truncate(WARM_SET_CAP);
    }

    /// Reserves an in-flight slot for a job joining a batch.
    pub(crate) fn reserve_inflight(&mut self, fingerprint: u64, tenant: &str) {
        *self.receptor_inflight.entry(fingerprint).or_insert(0) += 1;
        *self.tenant_inflight.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Releases a job's in-flight slot at resolve time and bumps the epoch
    /// so a fairness-blocked dispatcher re-checks eligibility.
    pub(crate) fn release_inflight(&mut self, fingerprint: u64, tenant: &str) {
        release_count(&mut self.receptor_inflight, &fingerprint);
        release_count(&mut self.tenant_inflight, &tenant.to_string());
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Jobs of `fingerprint` currently in flight.
    pub(crate) fn receptor_load(&self, fingerprint: u64) -> usize {
        self.receptor_inflight.get(&fingerprint).copied().unwrap_or(0)
    }

    /// Jobs of `tenant` currently in flight.
    pub(crate) fn tenant_load(&self, tenant: &str) -> usize {
        self.tenant_inflight.get(tenant).copied().unwrap_or(0)
    }
}

/// The admission controller's internal decision for one request, before it is
/// turned into an [`AdmissionVerdict`] by the submit path (which still has to
/// get the job past the bounded queue).
#[derive(Debug)]
pub(crate) enum Decision {
    /// Admit as requested (`estimated_s` is `None` until the model
    /// calibrates, or when the estimate cannot be formed).
    Admit {
        /// The admission-to-completion estimate recorded on the job.
        estimated_s: Option<f64>,
    },
    /// Admit at a more urgent class (bulk → interactive).
    Reprioritize {
        /// The class to admit at.
        to: LatencyClass,
        /// The estimate at the new class.
        estimated_s: f64,
    },
    /// Admit with reduced work.
    Degrade {
        /// The degraded per-job mapping config to run.
        config: FtMapConfig,
        /// What the policy changed.
        applied: AppliedDegrade,
        /// The estimate for the degraded request.
        estimated_s: f64,
    },
    /// Refuse: unmeetable even after every permitted concession.
    Reject {
        /// The estimate for the request as submitted.
        estimated_s: f64,
        /// The deadline it was compared against.
        deadline_s: f64,
    },
}

/// The escalation ladder: admit if the estimate fits the deadline, else
/// reprioritize (bulk → interactive, when enabled), else degrade (when a
/// policy is set and actually reduces work), else reject. `estimate` is
/// called with candidate `(config, class)` pairs and returns `None` while the
/// model is uncalibrated — then the request is plainly admitted, as is any
/// request without a deadline.
pub(crate) fn decide(
    admission: &AdmissionConfig,
    class: LatencyClass,
    deadline_s: Option<f64>,
    config: &FtMapConfig,
    estimate: impl Fn(&FtMapConfig, LatencyClass) -> Option<LatencyEstimate>,
) -> Decision {
    let Some(base) = estimate(config, class) else {
        return Decision::Admit { estimated_s: None };
    };
    let estimated_s = base.total_s();
    let Some(deadline) = deadline_s else {
        return Decision::Admit { estimated_s: Some(estimated_s) };
    };
    if estimated_s <= deadline {
        return Decision::Admit { estimated_s: Some(estimated_s) };
    }
    if admission.reprioritize && class == LatencyClass::Bulk {
        if let Some(bumped) = estimate(config, LatencyClass::Interactive) {
            if bumped.total_s() <= deadline {
                return Decision::Reprioritize {
                    to: LatencyClass::Interactive,
                    estimated_s: bumped.total_s(),
                };
            }
        }
    }
    if let Some(policy) = &admission.degrade {
        let (degraded, applied) = config.degraded(policy);
        if !applied.is_noop() {
            if let Some(reduced) = estimate(&degraded, class) {
                if reduced.total_s() <= deadline {
                    return Decision::Degrade {
                        config: degraded,
                        applied,
                        estimated_s: reduced.total_s(),
                    };
                }
            }
        }
    }
    Decision::Reject { estimated_s, deadline_s: deadline }
}

fn release_count<K: Ord>(counts: &mut BTreeMap<K, usize>, key: &K) {
    if let Some(count) = counts.get_mut(key) {
        *count = count.saturating_sub(1);
        if *count == 0 {
            counts.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_requires_calibration_then_tracks_rates() {
        let mut model = CostModel::default();
        assert!(model.span_per_weight.get().is_none());
        assert!(model.estimate(0.0, 0.0, 10.0, 1, 2, false).is_none());
        // One batch: 100 work units over 1 modeled second → 0.01 s/unit. A
        // zero device share (footprint unknown) leaves the drain rate
        // uncalibrated.
        model.observe_batch(1.0, 0.0, 100.0, true, 0.2);
        assert!(model.span_per_weight.get().is_some());
        let est = model.estimate(0.5, 200.0, 100.0, 4, 2, true).expect("calibrated");
        // No drain observation yet: wait falls back to the perfectly-parallel
        // rate — 0.5 base + 200 units × 0.01 / 2 devices = 1.5.
        assert!((est.wait_s - 1.5).abs() < 1e-9);
        // exec = 100 units × 0.01 / min(4 probes, 2 devices) = 0.5.
        assert!((est.exec_s - 0.5).abs() < 1e-9);
        // cold pays the calibrated upload surcharge.
        assert!((est.upload_s - 0.2).abs() < 1e-9);
        assert!((est.total_s() - 2.2).abs() < 1e-9);
        // warm drops it.
        let warm = model.estimate(0.5, 200.0, 100.0, 4, 2, false).expect("calibrated");
        assert_eq!(warm.upload_s, 0.0);

        // A second completion that occupied half the pool calibrates the
        // drain rate at 0.01 × 0.5 = 0.005 s/unit — the backlog now prices
        // at the device-share-scaled rate, not the parallel fallback.
        model.observe_batch(1.0, 0.5, 100.0, false, 0.0);
        let drained = model.estimate(0.0, 200.0, 100.0, 4, 2, false).expect("calibrated");
        assert!((drained.wait_s - 1.0).abs() < 1e-9, "wait {}", drained.wait_s);
    }

    #[test]
    fn ewma_converges_toward_sustained_shifts() {
        let mut model = CostModel::default();
        model.observe_batch(1.0, 1.0, 100.0, false, 0.0);
        for _ in 0..20 {
            model.observe_batch(4.0, 1.0, 100.0, false, 0.0);
        }
        let est = model.estimate(0.0, 0.0, 100.0, 1, 1, false).expect("calibrated");
        // Rate converged near the new 0.04 s/unit, away from the initial 0.01.
        assert!(est.exec_s > 3.5 && est.exec_s <= 4.0 + 1e-9, "exec {}", est.exec_s);
    }

    #[test]
    fn admission_state_tracks_backlog_inflight_and_warmth() {
        let mut state = AdmissionState::default();
        state.add_pending(0, 5.0);
        state.add_pending(1, 7.0);
        assert_eq!(state.pending_weight_through(0), 5.0);
        assert_eq!(state.pending_weight_through(1), 12.0);
        state.remove_pending(1, 7.0);
        state.remove_pending(1, 1.0); // over-removal clamps at zero
        assert_eq!(state.pending_weight_through(1), 5.0);

        let epoch = state.epoch;
        state.reserve_inflight(42, "alice");
        state.reserve_inflight(42, "alice");
        assert_eq!(state.receptor_load(42), 2);
        assert_eq!(state.tenant_load("alice"), 2);
        state.release_inflight(42, "alice");
        assert_eq!(state.receptor_load(42), 1);
        assert!(state.epoch != epoch, "completion bumps the epoch");
        state.release_inflight(42, "alice");
        assert_eq!(state.receptor_load(42), 0);
        assert_eq!(state.tenant_load("alice"), 0);
        assert!(state.receptor_inflight.is_empty(), "zero counts are dropped");

        assert!(!state.is_warm(9));
        state.note_warm(9);
        assert!(state.is_warm(9));
        for fp in 100..(100 + WARM_SET_CAP as u64) {
            state.note_warm(fp);
        }
        assert!(!state.is_warm(9), "warm set is MRU-bounded");
    }

    #[test]
    fn verdict_accessors_expose_handles_and_names() {
        use crate::job::{JobId, JobSlot};
        use std::sync::Arc;
        let slot = JobSlot::new();
        let handle = JobHandle::new(JobId(1), "t".into(), Arc::clone(&slot));
        let admitted = AdmissionVerdict::Admitted(handle.clone());
        assert_eq!(admitted.name(), "admitted");
        assert!(admitted.handle().is_some());
        assert_eq!(admitted.into_handle().map(|h| h.id()), Some(JobId(1)));

        let repri = AdmissionVerdict::Reprioritized {
            handle: handle.clone(),
            from: LatencyClass::Bulk,
            to: LatencyClass::Interactive,
        };
        assert_eq!(repri.name(), "reprioritized");
        let degraded = AdmissionVerdict::Degraded {
            handle,
            applied: AppliedDegrade { rotations: (4, 2), conformations: (2, 1) },
        };
        assert_eq!(degraded.name(), "degraded");
        assert!(degraded.handle().is_some());
    }

    #[test]
    fn request_weight_counts_rotations_and_conformations_per_probe() {
        use ftmap_core::PipelineMode;
        let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
        config.docking.n_rotations = 10;
        config.conformations_per_probe = 3;
        assert_eq!(request_weight(&config, 4), 52.0);
        assert_eq!(request_weight(&config, 0), 0.0);
    }

    fn test_config() -> FtMapConfig {
        use ftmap_core::PipelineMode;
        let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
        config.docking.n_rotations = 8;
        config.conformations_per_probe = 2;
        config
    }

    /// A fake estimator whose exec time scales with the candidate's work per
    /// probe and halves at interactive priority — enough structure for every
    /// rung of the ladder to be reachable.
    fn fake_estimate(config: &FtMapConfig, class: LatencyClass) -> Option<LatencyEstimate> {
        let weight = (config.docking.n_rotations + config.conformations_per_probe) as f64;
        let class_scale = match class {
            LatencyClass::Interactive => 0.5,
            LatencyClass::Bulk => 1.0,
        };
        Some(LatencyEstimate { wait_s: 0.0, exec_s: weight * 0.1 * class_scale, upload_s: 0.0 })
    }

    #[test]
    fn decide_admits_without_deadline_or_calibration() {
        let admission = AdmissionConfig::default();
        let config = test_config();
        // Uncalibrated model (estimator returns None): plain admit, no estimate.
        match decide(&admission, LatencyClass::Bulk, Some(0.001), &config, |_, _| None) {
            Decision::Admit { estimated_s: None } => {}
            other => panic!("expected uncalibrated admit, got {other:?}"),
        }
        // No deadline: admit, but the estimate rides along for the report.
        match decide(&admission, LatencyClass::Bulk, None, &config, fake_estimate) {
            Decision::Admit { estimated_s: Some(est) } => assert!((est - 1.0).abs() < 1e-9),
            other => panic!("expected admit-with-estimate, got {other:?}"),
        }
        // Fitting deadline: admit.
        match decide(&admission, LatencyClass::Bulk, Some(2.0), &config, fake_estimate) {
            Decision::Admit { estimated_s: Some(_) } => {}
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn decide_escalates_reprioritize_then_degrade_then_reject() {
        use ftmap_core::DegradePolicy;
        let config = test_config(); // bulk estimate 1.0, interactive 0.5
        let repri = AdmissionConfig { reprioritize: true, ..AdmissionConfig::default() };
        // Deadline fits only at interactive priority: bulk gets bumped.
        match decide(&repri, LatencyClass::Bulk, Some(0.6), &config, fake_estimate) {
            Decision::Reprioritize { to: LatencyClass::Interactive, estimated_s } => {
                assert!((estimated_s - 0.5).abs() < 1e-9);
            }
            other => panic!("expected reprioritize, got {other:?}"),
        }
        // Interactive requests cannot be bumped further: same deadline rejects.
        assert!(matches!(
            decide(&repri, LatencyClass::Interactive, Some(0.3), &config, fake_estimate),
            Decision::Reject { .. }
        ));

        // Halving rotations (8 → 4) drops the bulk estimate to 0.6.
        let policy = DegradePolicy {
            rotation_factor: 0.5,
            min_rotations: 1,
            conformation_factor: 1.0,
            min_conformations: 1,
        };
        let degrading = AdmissionConfig { degrade: Some(policy), ..AdmissionConfig::default() };
        match decide(&degrading, LatencyClass::Bulk, Some(0.7), &config, fake_estimate) {
            Decision::Degrade { config: reduced, applied, estimated_s } => {
                assert_eq!(reduced.docking.n_rotations, 4);
                assert!(!applied.is_noop());
                assert!((estimated_s - 0.6).abs() < 1e-9);
            }
            other => panic!("expected degrade, got {other:?}"),
        }
        // Even degraded the deadline is unmeetable: reject, reporting the
        // as-submitted estimate and the deadline.
        match decide(&degrading, LatencyClass::Bulk, Some(0.1), &config, fake_estimate) {
            Decision::Reject { estimated_s, deadline_s } => {
                assert!((estimated_s - 1.0).abs() < 1e-9);
                assert!((deadline_s - 0.1).abs() < 1e-9);
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }
}
