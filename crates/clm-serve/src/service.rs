//! The multi-tenant training service.
//!
//! [`ClmServe`] owns a [`SceneRegistry`], a bounded set of active
//! [`Session`]s multiplexed over the shared device timeline by a
//! [`DeficitScheduler`], and a FIFO admission queue for tenants waiting on
//! an active slot.  One call to [`ClmServe::step`] runs exactly one batch
//! of whichever session the scheduler picks; [`ClmServe::run`] steps until
//! every admitted session completes.
//!
//! Time: every session trains on the simulated engine, and the service
//! keeps a **virtual clock** advanced by each batch's simulated makespan.
//! Per-batch latency is `completion − ready`, so a session that waits
//! behind other tenants sees its queue delay in its own histogram — that is
//! the quantity the fairness bound constrains.
//!
//! Memory: admission converts a tenant's pinned staging budget into a cap
//! on simultaneously leased staging buffers (worst-case buffer size ×
//! count) and clamps the granted prefetch window below the cap, so the
//! budget holds **by construction**: the engine leases at most
//! `window + 1` buffers.  The pool's high-water mark is audited against
//! the cap after every batch ([`SessionStats::budget_violations`]).

use crate::registry::SceneRegistry;
use crate::scheduler::DeficitScheduler;
use crate::session::{Session, SessionId, SessionState, SessionStats, TenantSpec};
use clm_trace::{Checkpoint, DecodeError};
use std::collections::{BTreeMap, VecDeque};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently active (backend-owning) sessions.
    pub max_active: usize,
    /// Maximum sessions waiting in the admission queue (`0` = reject when
    /// all active slots are taken).
    pub max_queued: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_active: 4,
            max_queued: 16,
        }
    }
}

/// Why an admission request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The spec references a scene the registry does not hold.
    UnknownScene(String),
    /// Active slots and the admission queue are both full.
    Saturated,
    /// The declared staging budget cannot hold even one worst-case staging
    /// buffer for this scene/densification cap.
    BudgetTooSmall {
        /// Budget the tenant declared (or inherited), in bytes.
        budget: u64,
        /// Worst-case bytes of a single staging buffer for the spec.
        needed: u64,
    },
    /// The spec's weight is zero, negative, or non-finite.
    BadWeight,
    /// The spec asks for zero batches.
    EmptyJob,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::UnknownScene(s) => write!(f, "unknown scene {s:?}"),
            AdmitError::Saturated => write!(f, "service saturated: active slots and queue full"),
            AdmitError::BudgetTooSmall { budget, needed } => write!(
                f,
                "staging budget {budget} B below one worst-case buffer ({needed} B)"
            ),
            AdmitError::BadWeight => write!(f, "weight must be finite and > 0"),
            AdmitError::EmptyJob => write!(f, "target_batches must be > 0"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Where an admitted session landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The session got an active slot immediately.
    Active(SessionId),
    /// The session is waiting in the admission queue.
    Queued(SessionId),
}

impl Admission {
    /// The admitted session's id, wherever it landed.
    pub fn id(&self) -> SessionId {
        match *self {
            Admission::Active(id) | Admission::Queued(id) => id,
        }
    }
}

/// What one service step did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Ran one batch of the named session.
    Ran {
        /// Session that ran.
        id: SessionId,
        /// Virtual device seconds the batch cost.
        cost: f64,
        /// Whether the batch finished the session.
        completed: bool,
    },
    /// No active session has work (all completed, evicted, or the ring is
    /// empty).
    Idle,
}

/// Service-wide counters.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Total batches executed across all sessions.
    pub batches: u64,
    /// Sessions admitted (active or queued).
    pub admitted: u64,
    /// Admission requests rejected.
    pub rejected: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Resumes performed.
    pub resumes: u64,
    /// Sessions cancelled.
    pub cancelled: u64,
    /// Sessions run to completion.
    pub completed: u64,
}

/// A long-running multi-tenant training service instance.
#[derive(Debug)]
pub struct ClmServe {
    config: ServeConfig,
    registry: SceneRegistry,
    sessions: BTreeMap<SessionId, Session>,
    scheduler: DeficitScheduler,
    queue: VecDeque<SessionId>,
    virtual_now: f64,
    next_id: u64,
    stats: ServeStats,
}

impl ClmServe {
    /// A service over the given registry.
    pub fn new(registry: SceneRegistry, config: ServeConfig) -> Self {
        ClmServe {
            scheduler: DeficitScheduler::new(),
            config,
            registry,
            sessions: BTreeMap::new(),
            queue: VecDeque::new(),
            virtual_now: 0.0,
            next_id: 0,
            stats: ServeStats::default(),
        }
    }

    /// The scene registry.
    pub fn registry(&self) -> &SceneRegistry {
        &self.registry
    }

    /// Service-wide counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Current virtual time in device seconds.
    pub fn virtual_now(&self) -> f64 {
        self.virtual_now
    }

    /// A session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// All session ids in admission order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// Ids of sessions currently holding active slots.
    pub fn active_ids(&self) -> Vec<SessionId> {
        self.sessions
            .values()
            .filter(|s| s.state == SessionState::Active)
            .map(|s| s.id)
            .collect()
    }

    /// Whether every admitted session has completed or been cancelled.
    pub fn all_done(&self) -> bool {
        self.queue.is_empty()
            && self
                .sessions
                .values()
                .all(|s| matches!(s.state, SessionState::Completed | SessionState::Cancelled))
    }

    /// Admits a tenant: validates the spec, charges its staging budget, and
    /// either activates it (free slot) or queues it.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<Admission, AdmitError> {
        let scene = match self.registry.get(&spec.scene) {
            Some(s) => s,
            None => {
                self.stats.rejected += 1;
                return Err(AdmitError::UnknownScene(spec.scene.clone()));
            }
        };
        if !(spec.weight.is_finite() && spec.weight > 0.0) {
            self.stats.rejected += 1;
            return Err(AdmitError::BadWeight);
        }
        if spec.target_batches == 0 {
            self.stats.rejected += 1;
            return Err(AdmitError::EmptyJob);
        }
        let (max_buffers, granted_window) = match spec.staging_budget_bytes {
            Some(bytes) => {
                let per = spec.buffer_bytes().max(1);
                let max_buffers = (bytes / per) as usize;
                if max_buffers == 0 {
                    self.stats.rejected += 1;
                    return Err(AdmitError::BudgetTooSmall {
                        budget: bytes,
                        needed: per,
                    });
                }
                // The pool stages the in-flight batch plus the lookahead,
                // so a window of `w` can lease `w + 1` buffers at once.
                (max_buffers, spec.prefetch_window.min(max_buffers - 1))
            }
            None => (usize::MAX, spec.prefetch_window),
        };
        let active_count = self.active_ids().len();
        let has_slot = active_count < self.config.max_active;
        if !has_slot && self.queue.len() >= self.config.max_queued {
            self.stats.rejected += 1;
            return Err(AdmitError::Saturated);
        }

        let id = SessionId(self.next_id);
        self.next_id += 1;
        let mut session = Session {
            id,
            spec,
            scene,
            state: SessionState::Queued,
            backend: None,
            evicted: None,
            stats: SessionStats::default(),
            ready_at: self.virtual_now,
            max_staging_buffers: max_buffers,
            granted_window,
        };
        self.stats.admitted += 1;
        if has_slot {
            self.activate(&mut session, None);
            self.sessions.insert(id, session);
            Ok(Admission::Active(id))
        } else {
            self.sessions.insert(id, session);
            self.queue.push_back(id);
            Ok(Admission::Queued(id))
        }
    }

    /// Gives a session an engine (fresh, or restored from its checkpoint)
    /// and puts it in the scheduler ring.
    fn activate(&mut self, session: &mut Session, restored: Option<clm_core::Trainer>) {
        session.backend = Some(session.build_backend(restored));
        session.state = SessionState::Active;
        session.ready_at = self.virtual_now;
        self.scheduler.add(session.id, session.spec.weight);
    }

    /// Runs one batch of whichever active session the fairness scheduler
    /// picks, advancing the virtual clock by its cost.
    pub fn step(&mut self) -> StepOutcome {
        let id = match self.scheduler.pick() {
            None => return StepOutcome::Idle,
            Some(id) => {
                // Sessions can only leave the ring via evict/complete/
                // cancel (which call remove), so a pick is always live.
                debug_assert!(self.sessions.contains_key(&id));
                id
            }
        };

        let session = self
            .sessions
            .get_mut(&id)
            .expect("scheduled session exists");
        let slice = session.next_slice();
        let cameras = &session.scene.dataset.cameras[slice.clone()];
        let targets = &session.scene.targets[slice];
        let backend = session
            .backend
            .as_mut()
            .expect("active session has backend");
        let report = backend.run_batch(cameras, targets);
        let high_water = backend.pool_stats().high_water_buffers;
        let cost = report.makespan();

        self.virtual_now += cost;
        session.stats.batches += 1;
        session.stats.served_cost += cost;
        session.stats.last_cost = cost;
        session
            .stats
            .latency
            .record(self.virtual_now - session.ready_at);
        session.stats.wall_latency.record(report.wall_seconds);
        session.ready_at = self.virtual_now;
        if high_water > session.max_staging_buffers {
            session.stats.budget_violations += 1;
        }
        self.stats.batches += 1;
        self.scheduler.charge(id, cost);

        let completed = session.is_done();
        if completed {
            // Keep the final state as `.clmckpt` bytes so results outlive
            // the backend (and tests can assert on them).
            session.evicted = Some(session.capture());
            session.state = SessionState::Completed;
            session.backend = None;
            self.scheduler.remove(id);
            self.stats.completed += 1;
            self.promote_queued();
        }
        StepOutcome::Ran {
            id,
            cost,
            completed,
        }
    }

    /// Steps until every admitted session completes (or `max_steps` batches
    /// have run, as a runaway guard).  Returns the number of batches run.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        let mut ran = 0;
        while ran < max_steps && !self.all_done() {
            match self.step() {
                StepOutcome::Ran { .. } => ran += 1,
                StepOutcome::Idle => break,
            }
        }
        ran
    }

    /// Evicts an active session: captures its trainer into `.clmckpt`
    /// bytes, drops the engine (batch boundaries are its drain points, so
    /// there is no in-flight state to lose), frees the slot and
    /// promotes the longest-waiting queued session.
    pub fn evict(&mut self, id: SessionId) -> Result<(), ServeError> {
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::NoSuchSession(id))?;
        if session.state != SessionState::Active {
            return Err(ServeError::NotActive(id, session.state));
        }
        let evicted = session.capture();
        session.evicted = Some(evicted);
        session.backend = None;
        session.state = SessionState::Evicted;
        session.stats.evictions += 1;
        self.scheduler.remove(id);
        self.stats.evictions += 1;
        self.promote_queued();
        Ok(())
    }

    /// Resumes an evicted session into a free active slot, restoring its
    /// trainer from the `.clmckpt` bytes (bit-identical to the state at
    /// eviction) and re-entering it into the scheduler ring.  A failed
    /// restore leaves the session evicted, its bytes untouched.
    pub fn resume(&mut self, id: SessionId) -> Result<(), ServeError> {
        let session = self
            .sessions
            .get(&id)
            .ok_or(ServeError::NoSuchSession(id))?;
        let evicted = match (session.state, &session.evicted) {
            (SessionState::Evicted, Some(evicted)) => evicted,
            (state, _) => return Err(ServeError::NotEvicted(id, state)),
        };
        if self.active_ids().len() >= self.config.max_active {
            return Err(ServeError::NoFreeSlot);
        }
        let trainer = Checkpoint::decode(&evicted.checkpoint)
            .and_then(|ckpt| ckpt.restore(session.spec.train.clone()))
            .map_err(|e| ServeError::RestoreFailed(id, e))?;
        let mut session = self.sessions.remove(&id).expect("looked up above");
        self.activate(&mut session, Some(trainer));
        session.evicted = None;
        session.stats.resumes += 1;
        self.stats.resumes += 1;
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Cancels a session in any live state; its backend and checkpoint are
    /// dropped and nothing survives.
    pub fn cancel(&mut self, id: SessionId) -> Result<(), ServeError> {
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::NoSuchSession(id))?;
        match session.state {
            SessionState::Completed | SessionState::Cancelled => {
                return Err(ServeError::NotActive(id, session.state));
            }
            SessionState::Active => self.scheduler.remove(id),
            SessionState::Queued => self.queue.retain(|&q| q != id),
            SessionState::Evicted => {}
        }
        let session = self.sessions.get_mut(&id).expect("still present");
        let was_active = session.state == SessionState::Active;
        session.state = SessionState::Cancelled;
        session.backend = None;
        session.evicted = None;
        self.stats.cancelled += 1;
        if was_active {
            self.promote_queued();
        }
        Ok(())
    }

    /// Moves queued sessions into free active slots, FIFO.
    fn promote_queued(&mut self) {
        while self.active_ids().len() < self.config.max_active {
            let Some(id) = self.queue.pop_front() else {
                break;
            };
            let mut session = self.sessions.remove(&id).expect("queued session exists");
            if session.state != SessionState::Queued {
                self.sessions.insert(id, session);
                continue;
            }
            // Latency clock: the wait in the admission queue counts toward
            // the first batch's latency, so ready_at stays at admission.
            let ready = session.ready_at;
            self.activate(&mut session, None);
            session.ready_at = ready;
            self.sessions.insert(id, session);
        }
    }
}

/// Errors from lifecycle operations on existing sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No session with that id.
    NoSuchSession(SessionId),
    /// Operation requires an active session.
    NotActive(SessionId, SessionState),
    /// Operation requires an evicted session.
    NotEvicted(SessionId, SessionState),
    /// All active slots are occupied.
    NoFreeSlot,
    /// Checkpoint decode/restore failed.
    RestoreFailed(SessionId, DecodeError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoSuchSession(id) => write!(f, "no session {id}"),
            ServeError::NotActive(id, s) => write!(f, "session {id} is {s:?}, not Active"),
            ServeError::NotEvicted(id, s) => write!(f, "session {id} is {s:?}, not Evicted"),
            ServeError::NoFreeSlot => write!(f, "no free active slot"),
            ServeError::RestoreFailed(id, e) => write!(f, "restoring session {id}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use clm_core::TrainConfig;
    use gs_scene::{DatasetConfig, InitConfig, SceneKind};

    /// A service holding one active tenant with two batches to train, on
    /// 3-view batches of a small Bicycle scene at the default window 2.
    fn one_tenant() -> (ClmServe, SessionId) {
        let mut registry = SceneRegistry::new();
        let scene = DatasetConfig {
            num_gaussians: 60,
            num_views: 3,
            width: 16,
            height: 12,
            seed: 3,
        };
        registry.register("scene", SceneKind::Bicycle, scene);
        let mut serve = ClmServe::new(registry, ServeConfig::default());
        let train = TrainConfig {
            batch_size: 3,
            seed: 3,
            ..Default::default()
        };
        let init = InitConfig {
            num_gaussians: 40,
            seed: 4,
            ..Default::default()
        };
        let mut spec = TenantSpec::new("tenant", "scene", train, init);
        spec.target_batches = 2;
        let id = serve.admit(spec).unwrap().id();
        (serve, id)
    }

    #[test]
    fn a_window_above_the_buffer_cap_counts_a_budget_violation() {
        // Window 2 leases 3 buffers over a 3-view batch; a cap of 2 is the
        // clamp-math error the per-batch audit exists to catch.
        let (mut serve, id) = one_tenant();
        let session = serve.sessions.get_mut(&id).unwrap();
        assert_eq!(session.granted_window, 2);
        session.max_staging_buffers = 2;
        serve.step();
        assert!(serve.session(id).unwrap().stats.budget_violations > 0);
    }

    #[test]
    fn a_failed_resume_leaves_the_session_evicted_with_its_bytes() {
        let (mut serve, id) = one_tenant();
        serve.step();
        serve.evict(id).unwrap();

        // One flipped body byte fails the frame's checksum.
        let evicted = serve.sessions.get_mut(&id).unwrap().evicted.as_mut();
        let checkpoint = &mut evicted.unwrap().checkpoint;
        *checkpoint.last_mut().unwrap() ^= 1;
        let corrupted = checkpoint.clone();
        let resumes = serve.stats().resumes;

        let err = serve.resume(id).unwrap_err();
        assert!(
            err == ServeError::RestoreFailed(id, DecodeError::ChecksumMismatch),
            "{err}"
        );
        let session = serve
            .session(id)
            .expect("a failed resume keeps the session");
        assert_eq!(session.state, SessionState::Evicted);
        assert_eq!(session.evicted.as_ref().unwrap().checkpoint, corrupted);
        assert_eq!(serve.stats().resumes, resumes);
    }
}
