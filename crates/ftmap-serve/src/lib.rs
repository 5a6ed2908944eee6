//! # ftmap-serve
//!
//! The **asynchronous batch-mapping service**: the serving layer that turns
//! the one-shot mapping pipeline ([`ftmap_core::FtMapPipeline`]) into a
//! multi-tenant system fit for sustained traffic.
//!
//! The paper's workload is throughput-bound and embarrassingly parallel; the
//! GPU literature it builds on (van Meel et al., Barros et al.) gets sustained
//! device throughput from two moves: keep data **resident** on the device, and
//! feed the hardware a **continuous stream of batched work** instead of
//! cold-starting each request. This crate applies both at the request level:
//!
//! ```text
//!  clients ──► MappingRequest ──► bounded JobQueue ──► batcher ──► DevicePool
//!                  │                (backpressure)    (by receptor)   │
//!                  ▼                                                  ▼
//!              JobHandle ◄──────────── JobReport ◄──── per-job assembly
//! ```
//!
//! * **Admission** ([`admission`], [`queue`]) — an **SLO-aware admission
//!   controller** in front of a bounded queue. At submit time the service
//!   estimates the request's admission-to-completion latency against the live
//!   modeled state (scheduler projection, admitted backlog, receptor-cache
//!   warmth, a continuously calibrated cost model) and returns a typed
//!   [`AdmissionVerdict`]: admitted, reprioritized (bulk → interactive),
//!   degraded (fewer rotations/conformations under a
//!   [`ftmap_core::DegradePolicy`]), or rejected with a **modeled**
//!   retry-after hint. [`BatchMappingService::submit`] blocks while the queue
//!   is full (backpressure); [`BatchMappingService::try_submit`] rejects
//!   instead (load shedding).
//! * **Batching** ([`batcher`]) — FIFO-fair grouping of jobs that share a
//!   receptor, with **latency classes** on top: interactive jobs form batches
//!   ahead of bulk scans (aging-bounded, so bulk never starves), and batches
//!   are class-homogeneous so each carries one scheduler priority. Two
//!   fairness gates bound hot spots at batch formation
//!   ([`config::AdmissionConfig`]): per-receptor in-flight caps and weighted
//!   per-tenant quotas.
//! * **Execution** ([`service`]) — batches flow through a persistent
//!   [`gpu_sim::sched::PhasePipeline`] whose phase-tagged items (dock →
//!   minimize, per probe) let batch N+1's docking overlap batch N's
//!   minimization, and let interactive batches overtake bulk work at item
//!   boundaries. The per-device **receptor-grid residency cache**
//!   ([`gpu_sim::ResidencyCache`]) makes every shard after the first borrow
//!   the uploaded grids for zero transfer bytes.
//! * **Completion** ([`job`]) — [`JobHandle`]s resolve asynchronously to
//!   deterministic per-job [`JobReport`]s: a job's consensus sites depend only
//!   on its own request, never on arrival order, class or batch-mates. The
//!   attached [`BatchSummary`] carries the batch's modeled span, latency,
//!   phase-overlap savings and batch-scoped transfer seconds.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod admission;
pub mod batcher;
pub mod config;
pub mod job;
pub mod queue;
pub mod request;
pub mod service;

pub use admission::{AdmissionVerdict, CostModel, LatencyEstimate, RejectReason};
pub use batcher::{next_batch_prioritized, Batchable, LatencyClass};
pub use config::{AdmissionConfig, BatchConfig, QueueConfig, ServeConfig, TenantQuota};
pub use job::{BatchSummary, JobHandle, JobId, JobReport, JobStatus};
pub use queue::{JobQueue, SubmitError};
pub use request::MappingRequest;
pub use service::{BatchMappingService, ClassLatency, ServeStats, ServiceBuilder};
