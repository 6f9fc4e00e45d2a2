//! `clm-serve` — a long-running multi-tenant training service over the CLM
//! runtime.
//!
//! One service instance owns a fleet of scenes behind a [`SceneRegistry`]
//! and multiplexes per-tenant training [`Session`]s over the shared device
//! timeline: each [`ClmServe::step`] call runs one batch of whichever
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
//!   clamped under the cap (the budget holds by construction), the pool's
//!   `capacity_limit` backstops it, and the high-water mark is audited
//!   after every batch.
//! * **Evict/resume** — cold sessions are captured into the `.clmckpt`
//!   container and later restored **bit-identically**; batch boundaries are
//!   drain points in every backend, so eviction never loses in-flight work.
//!
//! Latency is measured on a service-level virtual clock advanced by each
//! batch's simulated makespan, which makes the whole schedule — and the
//! fairness and starvation tests built on it — deterministic with the
//! simulated backend.

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
pub use scheduler::{DeficitScheduler, FairnessConfig};
pub use service::{
    Admission, AdmitError, ClmServe, ServeConfig, ServeError, ServeStats, StepOutcome,
};
pub use session::{
    BackendChoice, EvictedState, Session, SessionId, SessionState, SessionStats, TenantSpec,
};
