//! Service configuration: nested queue / batch / admission sub-configs.
//!
//! [`ServeConfig`] used to be one flat struct; it is now composed of three
//! sub-configs, one per concern:
//!
//! * [`QueueConfig`] — the bounded admission queue (backpressure depth);
//! * [`BatchConfig`] — batch formation and dispatch (batch size, pose-block
//!   granularity, in-flight window, aging);
//! * [`AdmissionConfig`] — SLO-aware admission control: per-class modeled
//!   deadlines, the degrade policy, and the fairness controls (per-receptor
//!   in-flight caps, weighted per-tenant quotas).
//!
//! Each sub-config has a `Default`, so partial literals
//! (`BatchConfig { max_batch_jobs: 1, ..BatchConfig::default() }`) work.
//! Configs are plain Rust values: nothing here serializes or reads a file.

use crate::batcher::LatencyClass;
use ftmap_core::DegradePolicy;

/// The admission queue's knobs (the service's front door).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum jobs pending admission (the backpressure bound).
    pub max_pending: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { max_pending: 64 }
    }
}

/// Batch formation and dispatch knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum jobs co-scheduled in one batch.
    pub max_batch_jobs: usize,
    /// Scheduling granularity of a batch's minimization phase: retained poses
    /// per work item. `0` fuses dock + minimize into one item per `(job,
    /// probe)` pair (the coarse schedule); any positive value docks every
    /// probe once and then schedules pose blocks from *all* the batch's jobs,
    /// so one hot job's — or one hot probe's — minimizations spread across
    /// the whole pool.
    pub pose_block: usize,
    /// How many batches may be in flight on the pool at once. 2 is the classic
    /// double-buffer — batch N+1 docks under batch N's minimization; higher
    /// values deepen the pipeline at the cost of latency-class responsiveness
    /// for work already submitted.
    pub max_inflight_batches: usize,
    /// Aging bound for the priority batcher: how many interactive batches may
    /// overtake a pending bulk job before it anchors the next batch itself.
    /// `0` disables overtaking entirely (pure FIFO).
    pub bulk_aging: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch_jobs: 16,
            pose_block: ftmap_core::DEFAULT_POSE_BLOCK,
            max_inflight_batches: 2,
            bulk_aging: 4,
        }
    }
}

/// One tenant's weight in the fairness quota: a tenant's share of the
/// in-flight job budget is its weight over the sum of all configured weights
/// plus [`AdmissionConfig::default_tenant_weight`] (the pooled share every
/// unlisted tenant draws from).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuota {
    /// The tenant label ([`crate::MappingRequest::tenant_label`]).
    pub tenant: String,
    /// Relative weight (must be positive to grant any share).
    pub weight: f64,
}

/// SLO-aware admission control and fairness knobs. The default configures
/// **nothing**: no deadlines (every request is plainly admitted), no degrade
/// policy, no receptor caps, no tenant quotas — the pre-admission-control
/// service behavior.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdmissionConfig {
    /// Class-wide modeled-latency deadline for interactive requests
    /// (admission-to-completion seconds on the virtual timeline). `None`
    /// disables deadline enforcement for the class. A request's own
    /// [`crate::MappingRequest::deadline_s`] overrides this.
    pub interactive_deadline_s: Option<f64>,
    /// Class-wide modeled-latency deadline for bulk requests.
    pub bulk_deadline_s: Option<f64>,
    /// Multiplier on the latency estimate before it is compared to the
    /// deadline: values above 1 admit conservatively (an estimate within
    /// `deadline / safety_factor` is required), values in `(0, 1)` admit
    /// optimistically. `0` (the `Default`) means 1 — compare the raw
    /// estimate.
    pub safety_factor: f64,
    /// When set, a request whose deadline is unmeetable as-is may be admitted
    /// **degraded**: fewer rotations / conformations per
    /// [`FtMapConfig::degraded`](ftmap_core::FtMapConfig::degraded), with the
    /// reduction reported on the verdict. `None` disables degradation.
    pub degrade: Option<DegradePolicy>,
    /// When true, a bulk request whose bulk-priority estimate misses its
    /// deadline is retried at interactive priority first (reprioritization)
    /// before degradation or refusal.
    pub reprioritize: bool,
    /// Fairness: at most this many jobs of one receptor fingerprint in
    /// flight at once (forming batches stalls further jobs of a hot receptor
    /// until completions free slots). Clamped to at least 1. `None` disables
    /// the cap.
    pub max_inflight_per_receptor: Option<usize>,
    /// Fairness: weighted per-tenant shares of the in-flight job budget.
    /// Empty disables tenant quotas.
    pub tenant_quotas: Vec<TenantQuota>,
    /// Weight every tenant *not* listed in
    /// [`tenant_quotas`](AdmissionConfig::tenant_quotas) carries. `0` (the
    /// `Default`) means 1.
    pub default_tenant_weight: f64,
    /// The in-flight job budget tenant shares divide. `0` (the `Default`)
    /// derives it as `max_inflight_batches * max_batch_jobs`.
    pub quota_inflight_total: usize,
}

impl AdmissionConfig {
    /// The class-wide deadline for `class`, if configured.
    pub fn deadline_for(&self, class: LatencyClass) -> Option<f64> {
        match class {
            LatencyClass::Interactive => self.interactive_deadline_s,
            LatencyClass::Bulk => self.bulk_deadline_s,
        }
    }

    /// The effective safety factor (the `0` default means 1).
    pub fn effective_safety_factor(&self) -> f64 {
        if self.safety_factor > 0.0 {
            self.safety_factor
        } else {
            1.0
        }
    }

    /// The weight `tenant` carries: its configured quota weight, or the
    /// default weight for unlisted tenants.
    pub fn tenant_weight(&self, tenant: &str) -> f64 {
        self.tenant_quotas
            .iter()
            .find(|q| q.tenant == tenant)
            .map(|q| q.weight)
            .unwrap_or(self.effective_default_weight())
    }

    fn effective_default_weight(&self) -> f64 {
        if self.default_tenant_weight > 0.0 {
            self.default_tenant_weight
        } else {
            1.0
        }
    }

    /// How many jobs `tenant` may have in flight at once under the quota:
    /// its weight's share of `total`, never below 1 (every tenant can always
    /// make progress — quotas bound concurrency, they never starve).
    pub fn tenant_allowance(&self, tenant: &str, total: usize) -> usize {
        if self.tenant_quotas.is_empty() {
            return usize::MAX;
        }
        let weight_sum: f64 = self.tenant_quotas.iter().map(|q| q.weight.max(0.0)).sum::<f64>()
            + self.effective_default_weight();
        let weight = self.tenant_weight(tenant).max(0.0);
        if weight_sum <= 0.0 {
            return total.max(1);
        }
        (((total as f64) * weight / weight_sum).round() as usize).max(1)
    }

    /// The in-flight job budget the tenant shares divide (see
    /// [`quota_inflight_total`](AdmissionConfig::quota_inflight_total)).
    pub fn quota_total(&self, batch: &BatchConfig) -> usize {
        if self.quota_inflight_total > 0 {
            self.quota_inflight_total
        } else {
            (batch.max_inflight_batches * batch.max_batch_jobs).max(1)
        }
    }
}

/// Service tuning knobs, composed from the three sub-configs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeConfig {
    /// The admission queue (backpressure).
    pub queue: QueueConfig,
    /// Batch formation and dispatch.
    pub batch: BatchConfig,
    /// SLO-aware admission control and fairness.
    pub admission: AdmissionConfig,
}

impl ServeConfig {
    /// A config with the given batch knobs and everything else default — the
    /// most common partial-construction path in tests and examples.
    pub fn with_batch(batch: BatchConfig) -> Self {
        ServeConfig { batch, ..ServeConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_pre_split_flat_config() {
        let config = ServeConfig::default();
        assert_eq!(config.queue.max_pending, 64);
        assert_eq!(config.batch.max_batch_jobs, 16);
        assert_eq!(config.batch.pose_block, ftmap_core::DEFAULT_POSE_BLOCK);
        assert_eq!(config.batch.max_inflight_batches, 2);
        assert_eq!(config.batch.bulk_aging, 4);
        // Admission control defaults to off: no deadlines, no fairness.
        assert_eq!(config.admission.deadline_for(LatencyClass::Interactive), None);
        assert_eq!(config.admission.deadline_for(LatencyClass::Bulk), None);
        assert_eq!(config.admission.max_inflight_per_receptor, None);
        assert!(config.admission.tenant_quotas.is_empty());
        assert_eq!(config.admission.effective_safety_factor(), 1.0);
    }

    #[test]
    fn tenant_allowances_split_the_inflight_budget_by_weight() {
        let admission = AdmissionConfig {
            tenant_quotas: vec![
                TenantQuota { tenant: "heavy".into(), weight: 3.0 },
                TenantQuota { tenant: "light".into(), weight: 1.0 },
            ],
            ..AdmissionConfig::default()
        };
        // Weight sum = 3 + 1 + 1 (default pool) = 5 over a budget of 10.
        assert_eq!(admission.tenant_allowance("heavy", 10), 6);
        assert_eq!(admission.tenant_allowance("light", 10), 2);
        assert_eq!(admission.tenant_allowance("unlisted", 10), 2);
        // Quotas never starve: allowances are clamped to at least one job.
        assert_eq!(admission.tenant_allowance("light", 1), 1);
        // No quotas configured: unlimited.
        assert_eq!(AdmissionConfig::default().tenant_allowance("any", 4), usize::MAX);
    }

    #[test]
    fn quota_total_derives_from_the_batch_window() {
        let admission = AdmissionConfig::default();
        let batch = BatchConfig { max_batch_jobs: 8, ..BatchConfig::default() };
        assert_eq!(admission.quota_total(&batch), 16, "2 in-flight batches × 8 jobs");
        let explicit = AdmissionConfig { quota_inflight_total: 5, ..AdmissionConfig::default() };
        assert_eq!(explicit.quota_total(&batch), 5);
    }

    #[test]
    fn per_request_knobs_override_class_defaults() {
        let admission = AdmissionConfig {
            interactive_deadline_s: Some(0.5),
            bulk_deadline_s: Some(10.0),
            safety_factor: 1.25,
            ..AdmissionConfig::default()
        };
        assert_eq!(admission.deadline_for(LatencyClass::Interactive), Some(0.5));
        assert_eq!(admission.deadline_for(LatencyClass::Bulk), Some(10.0));
        assert_eq!(admission.effective_safety_factor(), 1.25);
    }
}
