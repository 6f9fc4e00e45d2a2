//! Tenant sessions: one per-tenant training job and its lifecycle.
//!
//! A session moves through `Queued → Active → (Evicted ⇄ Active) →
//! Completed | Cancelled`.  While active it owns an execution backend
//! (simulated or threaded) built over the registry's shared scene data;
//! while evicted only its `.clmckpt` bytes survive,
//! so a resumed session continues **bit-identically** — the same invariant
//! the chaos suite proves for kill/restore, applied as a capacity policy.

use crate::metrics::LatencyHistogram;
use crate::registry::SceneEntry;
use clm_core::TrainConfig;
use clm_runtime::pool::ROW_BYTES;
use clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_trace::Checkpoint;
use gs_scene::{init_from_point_cloud, InitConfig};
use std::sync::Arc;

/// Stable identifier of a session within one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Which execution backend a session trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// [`PipelinedEngine`]: deterministic simulated device time — the
    /// default, and the only choice whose batch costs (and therefore the
    /// fairness scheduler's virtual timeline) are bit-reproducible.
    #[default]
    Simulated,
    /// [`ThreadedBackend`]: real worker threads, measured wall-clock costs.
    Threaded,
}

/// Everything a tenant declares when asking for a session.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (reporting only; uniqueness is not required).
    pub tenant: String,
    /// Registry name of the scene to train.
    pub scene: String,
    /// Fair-share weight (> 0): a weight-2 tenant receives twice the
    /// virtual device time of a weight-1 tenant under contention.
    pub weight: f64,
    /// Execution backend for the session.
    pub backend: BackendChoice,
    /// Training configuration (seed, batch size, system, densify schedule).
    pub train: TrainConfig,
    /// Point-cloud initialisation of the session's model.
    pub init: InitConfig,
    /// Total batches the session wants to train.
    pub target_batches: usize,
    /// Requested prefetch lookahead window (may be clamped by the memory
    /// budget).
    pub prefetch_window: usize,
    /// Pinned staging-memory budget in bytes (`None` = the service
    /// default).  Enforced as a cap on simultaneously leased staging
    /// buffers via [`PinnedBufferPool`](clm_runtime::PinnedBufferPool)
    /// accounting.
    pub staging_budget_bytes: Option<u64>,
    /// Multiplier on the simulated backend's timeline costs (reduced-scale
    /// scenes are latency-dominated; this recovers the paper-scale,
    /// bandwidth-bound regime per tenant).  Ignored by the threaded
    /// backend, whose costs are measured wall-clock.
    pub cost_scale: f64,
}

impl TenantSpec {
    /// A minimal spec with defaults: weight 1, simulated backend, window 2,
    /// no explicit budget.
    pub fn new(tenant: &str, scene: &str, train: TrainConfig, init: InitConfig) -> Self {
        TenantSpec {
            tenant: tenant.to_string(),
            scene: scene.to_string(),
            weight: 1.0,
            backend: BackendChoice::Simulated,
            train,
            init,
            target_batches: 1,
            prefetch_window: 2,
            staging_budget_bytes: None,
            cost_scale: 1.0,
        }
    }

    /// Upper bound on the rows one staged gather can carry: the largest
    /// model this session can ever hold (its densification cap, or the
    /// initial size when it never densifies).
    pub fn max_model_rows(&self) -> usize {
        self.train
            .densify
            .as_ref()
            .map(|d| d.config.max_gaussians)
            .unwrap_or(self.init.num_gaussians)
            .max(self.init.num_gaussians)
    }

    /// Worst-case bytes of one pinned staging buffer for this session.
    pub fn buffer_bytes(&self) -> u64 {
        (self.max_model_rows() * ROW_BYTES) as u64
    }
}

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted but waiting for an active slot.
    Queued,
    /// Owns a backend and is schedulable.
    Active,
    /// Checkpointed to `.clmckpt` bytes; backend released.
    Evicted,
    /// Reached its target batch count.
    Completed,
    /// Cancelled mid-run; no state survives.
    Cancelled,
}

/// Per-session counters and latency distributions.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Batches trained so far (survives evict/resume).
    pub batches: u64,
    /// Times the session was evicted to a checkpoint.
    pub evictions: u64,
    /// Times the session was resumed from a checkpoint.
    pub resumes: u64,
    /// Batches whose pool high-water mark exceeded the admitted budget
    /// (must stay 0; a violation means the window clamp math is wrong).
    pub budget_violations: u64,
    /// Virtual device seconds consumed by the session's batches.
    pub served_cost: f64,
    /// Cost of the session's most recent batch (the scheduler's estimate
    /// for its next one).
    pub last_cost: f64,
    /// Per-batch latency on the shared virtual timeline: completion time
    /// minus the instant the session became ready (queue wait + service).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds per batch, measured on the host.
    pub wall_latency: LatencyHistogram,
}

/// The state an evicted session keeps: its encoded checkpoint.
#[derive(Debug, Clone)]
pub struct EvictedState {
    /// Encoded `.clmckpt` container bytes.
    pub checkpoint: Vec<u8>,
}

/// One tenant's training job inside the service.
#[derive(Debug)]
pub struct Session {
    /// The session's identifier.
    pub id: SessionId,
    /// The tenant's declared spec.
    pub spec: TenantSpec,
    /// Shared scene data the session trains on.
    pub scene: Arc<SceneEntry>,
    /// Lifecycle state.
    pub state: SessionState,
    /// The backend, when [`SessionState::Active`].
    pub backend: Option<Box<dyn ExecutionBackend>>,
    /// Checkpoint bytes, when [`SessionState::Evicted`] (or queued for
    /// resume).
    pub evicted: Option<EvictedState>,
    /// Counters and latency distributions.
    pub stats: SessionStats,
    /// Virtual instant the session last became ready to run (admission,
    /// resume, or its previous batch's completion).
    pub ready_at: f64,
    /// Admitted cap on simultaneously leased staging buffers.
    pub max_staging_buffers: usize,
    /// Prefetch window actually granted (requested, clamped by budget).
    pub granted_window: usize,
}

impl Session {
    /// Whether the session has trained all its target batches.
    pub fn is_done(&self) -> bool {
        self.stats.batches as usize >= self.spec.target_batches
    }

    /// The camera/target range of the session's next batch: epoch slices of
    /// `batch_size` views, derived from the trainer's own batch cursor so
    /// evict/resume cannot skip or repeat a slice.
    pub fn next_slice(&self) -> std::ops::Range<usize> {
        let views = self.scene.num_views();
        let batch = self.spec.train.batch_size.max(1).min(views);
        let per_epoch = views.div_ceil(batch);
        let cursor = self
            .backend
            .as_ref()
            .map(|b| b.trainer().batches_trained())
            .unwrap_or(self.stats.batches as usize);
        let i = cursor % per_epoch;
        let start = i * batch;
        start..(start + batch).min(views)
    }

    /// Builds the session's backend from scratch (fresh model) or from a
    /// restored trainer, applying the granted window and the budget cap.
    ///
    /// Both backends adopt the host's autotuned *scheduling* knobs (lane
    /// fan-outs, Adam chunk size) as their base configuration.  The
    /// prefetch window stays the service's granted one — it is an admission
    /// decision, not a host property — and `band_height` stays whatever the
    /// tenant's `TrainConfig` declares (`band_height: 0` below): it is part
    /// of the numeric contract, and a restored trainer must continue
    /// bit-identically to its pre-eviction trajectory.
    pub fn build_backend(&self, restored: Option<clm_core::Trainer>) -> Box<dyn ExecutionBackend> {
        let trainer = restored.unwrap_or_else(|| {
            let init = init_from_point_cloud(&self.scene.dataset.ground_truth, &self.spec.init);
            clm_core::Trainer::new(init, self.spec.train.clone())
        });
        let mut backend: Box<dyn ExecutionBackend> = match self.spec.backend {
            BackendChoice::Simulated => Box::new(PipelinedEngine::with_trainer(
                trainer,
                RuntimeConfig {
                    prefetch_window: self.granted_window,
                    cost_scale: self.spec.cost_scale,
                    pixel_cost_scale: self.spec.cost_scale,
                    band_height: 0,
                    ..RuntimeConfig::autotuned()
                },
            )),
            BackendChoice::Threaded => Box::new(ThreadedBackend::with_trainer(
                trainer,
                ThreadedConfig {
                    prefetch_window: self.granted_window,
                    band_height: 0,
                    ..ThreadedConfig::autotuned()
                },
            )),
        };
        backend.set_staging_capacity(Some(self.max_staging_buffers));
        backend
    }

    /// Captures the active backend into an [`EvictedState`].
    ///
    /// # Panics
    /// Panics if the session has no backend.
    pub fn capture(&self) -> EvictedState {
        let backend = self.backend.as_ref().expect("capture needs a backend");
        EvictedState {
            checkpoint: Checkpoint::capture(backend.trainer(), None).encode(),
        }
    }
}
