//! `clm-serve` — a long-running multi-tenant training service over the CLM
//! runtime.
//!
//! One service instance owns a fleet of scenes behind a [`SceneRegistry`]
//! and multiplexes per-tenant training [`Session`]s, each running the
//! simulated engine ([`clm_runtime::PipelinedEngine`]), over the shared
//! device timeline: each [`ClmServe::step`] call runs one batch of whichever
//! session the weighted deficit-round-robin [`DeficitScheduler`] picks, so
//! under contention every tenant receives virtual device time proportional
//! to its weight (within one maximum batch cost — the classic DRR bound).
//!
//! The capacity policies are built from mechanisms the lower layers already
//! guarantee:
//!
//! * **Admission control** — a bounded active set plus a FIFO queue;
//!   oversubscribed tenants wait, and their queue delay shows up in their
//!   own latency histogram.
//! * **Memory bounds** — a tenant's pinned staging budget becomes a cap on
//!   simultaneously leased staging buffers: the granted prefetch window is
//!   clamped under the cap (the budget holds by construction), and the
//!   pool's high-water mark is audited against the cap after every batch.
//! * **Evict/resume** — cold sessions are captured into the `.clmckpt`
//!   container and later restored **bit-identically**; batch boundaries are
//!   drain points of the engine, so eviction never loses in-flight work.
//!
//! Latency is measured on a service-level virtual clock advanced by each
//! batch's simulated makespan, which makes the whole schedule — and the
//! fairness and starvation tests built on it — deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod service;
pub mod session;

pub use metrics::{
    bucket_bounds, bucket_index, LatencyHistogram, BUCKETS_PER_OCTAVE, HISTOGRAM_BASE_SECONDS,
    HISTOGRAM_BUCKETS,
};
pub use registry::{SceneEntry, SceneRegistry};
pub use scheduler::DeficitScheduler;
pub use service::{
    Admission, AdmitError, ClmServe, ServeConfig, ServeError, ServeStats, StepOutcome,
};
pub use session::{EvictedState, Session, SessionId, SessionState, SessionStats, TenantSpec};
