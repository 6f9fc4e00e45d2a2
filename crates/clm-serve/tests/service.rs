//! Integration tests for the multi-tenant service: fairness/starvation,
//! admission control, memory budgets, and checkpoint evict/resume.
//!
//! Everything runs on the simulated backend, so schedules and latencies are
//! virtual-timeline quantities and the assertions are exact and
//! deterministic.

use clm_core::{DensifyConfig, DensifySchedule, SystemKind, TrainConfig};
use clm_serve::{
    Admission, AdmitError, BackendChoice, ClmServe, FairnessConfig, SceneRegistry, ServeConfig,
    SessionState, StepOutcome, TenantSpec,
};
use gs_scene::{DatasetConfig, InitConfig, SceneKind};

fn registry_with(name: &str, views: usize, seed: u64) -> SceneRegistry {
    let mut registry = SceneRegistry::new();
    registry.register(
        name,
        SceneKind::Bicycle,
        DatasetConfig {
            num_gaussians: 160,
            num_views: views,
            width: 32,
            height: 24,
            seed,
        },
    );
    registry
}

fn train_config(seed: u64, batch_size: usize) -> TrainConfig {
    TrainConfig {
        system: SystemKind::Clm,
        batch_size,
        seed,
        ..Default::default()
    }
}

fn init_config(seed: u64, num_gaussians: usize) -> InitConfig {
    InitConfig {
        num_gaussians,
        initial_opacity: 0.3,
        seed,
        ..Default::default()
    }
}

fn spec(tenant: &str, scene: &str, seed: u64, batches: usize) -> TenantSpec {
    let mut s = TenantSpec::new(
        tenant,
        scene,
        train_config(seed, 3),
        init_config(seed + 1, 80),
    );
    s.target_batches = batches;
    s
}

/// A heavy tenant (large model, expensive batches) must not starve a light
/// one: with equal weights the light tenant's worst-case per-batch latency
/// stays within the fair-share bound of one heavy batch plus its own.
#[test]
fn two_tenant_starvation_bound() {
    let registry = registry_with("shared", 9, 11);
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: 2,
            fairness: FairnessConfig::default(),
            ..Default::default()
        },
    );

    let mut heavy = spec("heavy", "shared", 21, 12);
    heavy.init.num_gaussians = 320;
    heavy.cost_scale = 8.0; // paper-scale tenant: bandwidth-bound batches
    let mut light = spec("light", "shared", 22, 60);
    light.init.num_gaussians = 80;

    let heavy_id = serve.admit(heavy).unwrap().id();
    let light_id = serve.admit(light).unwrap().id();

    let mut heavy_cost_max = 0.0f64;
    let mut light_cost_max = 0.0f64;
    // Heavy device time served by the end of the contention interval (the
    // instant the light tenant completes); past that point the heavy
    // tenant runs alone and fairness no longer constrains it.
    let mut heavy_served_under_contention = None;
    while !serve.all_done() {
        match serve.step() {
            StepOutcome::Ran {
                id,
                cost,
                completed,
            } => {
                if id == heavy_id {
                    heavy_cost_max = heavy_cost_max.max(cost);
                } else {
                    light_cost_max = light_cost_max.max(cost);
                }
                if id == light_id && completed {
                    heavy_served_under_contention =
                        Some(serve.session(heavy_id).unwrap().stats.served_cost);
                }
            }
            StepOutcome::Idle => break,
        }
    }
    assert!(serve.all_done());
    let light_stats = &serve.session(light_id).unwrap().stats;
    let heavy_stats = &serve.session(heavy_id).unwrap().stats;
    assert_eq!(light_stats.batches, 60);
    assert_eq!(heavy_stats.batches, 12);
    assert!(
        heavy_cost_max > 2.0 * light_cost_max,
        "scenario needs an actually-heavy tenant: heavy {heavy_cost_max} vs light {light_cost_max}"
    );

    // DRR bound: between two of the light tenant's batches the heavy tenant
    // can run at most quantum×weight + one max batch worth of service, so
    // the light tenant's worst-case latency is bounded by its own batch
    // plus ~2 heavy batches — never an unbounded queue behind the hog.
    let bound = light_cost_max + 2.0 * heavy_cost_max + f64::EPSILON;
    assert!(
        light_stats.latency.max() <= bound,
        "light tenant starved: worst latency {} > fair-share bound {}",
        light_stats.latency.max(),
        bound
    );
    // And over the contention interval the split of virtual device time is
    // near 50/50 (equal weights), within the DRR per-tenant error of about
    // one maximum batch cost each.
    let heavy_served = heavy_served_under_contention.expect("light completed under contention");
    let ratio = heavy_served / light_stats.served_cost;
    assert!(
        (0.5..2.0).contains(&ratio),
        "device-time split {ratio} strays from equal shares"
    );
}

/// Weighted shares: a weight-3 tenant receives ≈3× the virtual device time
/// of a weight-1 tenant over a contention interval.
#[test]
fn weighted_shares_hold() {
    let registry = registry_with("shared", 9, 13);
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: 2,
            fairness: FairnessConfig { quantum: 0.0 },
            ..Default::default()
        },
    );
    let mut favored = spec("favored", "shared", 31, 30);
    favored.weight = 3.0;
    let standard = spec("standard", "shared", 32, 30);
    let favored_id = serve.admit(favored).unwrap().id();
    let standard_id = serve.admit(standard).unwrap().id();

    // Run a fixed contention interval (both tenants still have work).
    for _ in 0..24 {
        assert!(matches!(serve.step(), StepOutcome::Ran { .. }));
    }
    let f = serve.session(favored_id).unwrap().stats.served_cost;
    let s = serve.session(standard_id).unwrap().stats.served_cost;
    let ratio = f / s;
    assert!(
        (2.0..4.5).contains(&ratio),
        "expected ≈3:1 served cost, got {ratio} ({f} vs {s})"
    );
}

/// Admission control: slots then queue then rejection; completion promotes
/// the queue FIFO and queue wait shows up in first-batch latency.
#[test]
fn admission_queue_and_saturation() {
    let registry = registry_with("shared", 6, 17);
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: 2,
            max_queued: 1,
            ..Default::default()
        },
    );
    let a = serve.admit(spec("a", "shared", 41, 4)).unwrap();
    let b = serve.admit(spec("b", "shared", 42, 4)).unwrap();
    let c = serve.admit(spec("c", "shared", 43, 2)).unwrap();
    assert!(matches!(a, Admission::Active(_)));
    assert!(matches!(b, Admission::Active(_)));
    assert!(matches!(c, Admission::Queued(_)));
    assert_eq!(
        serve.admit(spec("d", "shared", 44, 2)),
        Err(AdmitError::Saturated)
    );
    assert_eq!(
        serve.admit(spec("e", "nowhere", 45, 2)),
        Err(AdmitError::UnknownScene("nowhere".into()))
    );
    let bad = TenantSpec {
        weight: 0.0,
        ..spec("f", "shared", 46, 2)
    };
    assert_eq!(serve.admit(bad), Err(AdmitError::BadWeight));

    serve.run(10_000);
    assert!(serve.all_done());
    let c_stats = &serve.session(c.id()).unwrap().stats;
    assert_eq!(c_stats.batches, 2);
    // c waited for a slot: its worst latency (first batch, includes queue
    // wait) exceeds its typical service time.
    assert!(c_stats.latency.max() > c_stats.latency.min());
    assert_eq!(serve.stats().completed, 3);
    assert_eq!(serve.stats().rejected, 3);
}

/// Memory budgets: the granted window is clamped under the buffer cap, the
/// pool high-water mark respects it (zero violations), and a budget below
/// one buffer is rejected outright.
#[test]
fn staging_budget_clamps_and_holds() {
    let registry = registry_with("shared", 6, 19);
    let mut serve = ClmServe::new(registry, ServeConfig::default());

    let mut thrifty = spec("thrifty", "shared", 51, 4);
    thrifty.prefetch_window = 6; // asks for far more lookahead...
    let per_buffer = thrifty.buffer_bytes();
    thrifty.staging_budget_bytes = Some(2 * per_buffer); // ...than 2 buffers allow
    let id = serve.admit(thrifty).unwrap().id();
    let session = serve.session(id).unwrap();
    assert_eq!(session.max_staging_buffers, 2);
    assert_eq!(session.granted_window, 1, "window clamped under the cap");

    let mut broke = spec("broke", "shared", 52, 4);
    broke.staging_budget_bytes = Some(per_buffer - 1);
    assert!(matches!(
        serve.admit(broke),
        Err(AdmitError::BudgetTooSmall { .. })
    ));

    serve.run(10_000);
    assert!(serve.all_done());
    let stats = &serve.session(id).unwrap().stats;
    assert_eq!(stats.batches, 4);
    assert_eq!(
        stats.budget_violations, 0,
        "pool high-water exceeded the admitted budget"
    );
}

/// Evict/resume: a session evicted to `.clmckpt` bytes mid-run and resumed
/// later finishes with exactly the state an uninterrupted run reaches, and
/// its batch count survives the round trip.
#[test]
fn evict_resume_is_bit_identical() {
    let densify = Some(DensifySchedule {
        every_batches: 2,
        config: DensifyConfig {
            grad_threshold: 1.0e-5,
            prune_opacity: 0.305,
            max_gaussians: 120,
            seed: 63,
            ..Default::default()
        },
    });

    // Reference: one tenant runs 6 batches uninterrupted.
    let mut reference = ClmServe::new(registry_with("scene", 6, 23), ServeConfig::default());
    let mut ref_spec = spec("ref", "scene", 61, 6);
    ref_spec.train.densify = densify.clone();
    let ref_id = reference.admit(ref_spec).unwrap().id();
    reference.run(10_000);
    assert!(reference.all_done());

    // Interrupted: same tenant spec, evicted after 3 batches (crossing a
    // densification boundary), then resumed and finished.
    let mut serve = ClmServe::new(registry_with("scene", 6, 23), ServeConfig::default());
    let mut victim = spec("victim", "scene", 61, 6);
    victim.train.densify = densify;
    let id = serve.admit(victim).unwrap().id();
    for _ in 0..3 {
        assert!(matches!(serve.step(), StepOutcome::Ran { .. }));
    }
    serve.evict(id).unwrap();
    let session = serve.session(id).unwrap();
    assert_eq!(session.state, SessionState::Evicted);
    assert!(session.backend.is_none());
    // The checkpoint is a valid .clmckpt container.
    let bytes = &session.evicted.as_ref().unwrap().checkpoint;
    assert_eq!(&bytes[..8], b"CLMCKPT\0");
    assert!(matches!(serve.step(), StepOutcome::Idle));
    assert!(serve.evict(id).is_err(), "double-evict must fail");

    serve.resume(id).unwrap();
    assert_eq!(serve.session(id).unwrap().state, SessionState::Active);
    serve.run(10_000);
    assert!(serve.all_done());

    let interrupted = serve.session(id).unwrap();
    let uninterrupted = reference.session(ref_id).unwrap();
    assert_eq!(interrupted.stats.batches, 6);
    assert_eq!(interrupted.stats.evictions, 1);
    assert_eq!(interrupted.stats.resumes, 1);
    // Bit-identity is asserted on the sessions' final trained state via
    // the completion checkpoints (covers model, Adam moments, gradient
    // norms, resize history).
    let a = &interrupted.evicted.as_ref().unwrap().checkpoint;
    let b = &uninterrupted.evicted.as_ref().unwrap().checkpoint;
    assert_eq!(a, b, "evict/resume diverged from the uninterrupted run");
}

/// Cancellation frees the slot for a queued tenant; churn (repeated
/// evict/resume cycles) neither loses batches nor violates budgets.
#[test]
fn cancellation_and_churn() {
    let registry = registry_with("shared", 6, 29);
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: 1,
            max_queued: 4,
            ..Default::default()
        },
    );
    let doomed = serve.admit(spec("doomed", "shared", 71, 50)).unwrap().id();
    let waiting = serve.admit(spec("waiting", "shared", 72, 3)).unwrap().id();
    assert_eq!(serve.session(waiting).unwrap().state, SessionState::Queued);

    assert!(matches!(serve.step(), StepOutcome::Ran { .. }));
    serve.cancel(doomed).unwrap();
    assert_eq!(
        serve.session(doomed).unwrap().state,
        SessionState::Cancelled
    );
    assert_eq!(serve.session(waiting).unwrap().state, SessionState::Active);
    assert!(serve.cancel(doomed).is_err(), "double-cancel must fail");

    // Churn the surviving session: evict+resume between every batch.
    while !serve.all_done() {
        match serve.step() {
            StepOutcome::Ran { id, completed, .. } if !completed => {
                serve.evict(id).unwrap();
                serve.resume(id).unwrap();
            }
            StepOutcome::Ran { .. } => {}
            StepOutcome::Idle => break,
        }
    }
    assert!(serve.all_done());
    let survivor = serve.session(waiting).unwrap();
    assert_eq!(survivor.stats.batches, 3);
    assert_eq!(survivor.stats.evictions, 2);
    assert_eq!(survivor.stats.resumes, 2);
    assert_eq!(survivor.stats.budget_violations, 0);
    assert_eq!(survivor.state, SessionState::Completed);
    // The cancelled session ends cancelled, with the one batch it ran.
    let cancelled = serve.session(doomed).unwrap();
    assert_eq!(cancelled.state, SessionState::Cancelled);
    assert_eq!(cancelled.stats.batches, 1);
    assert_eq!(serve.stats().cancelled, 1);
}

/// The service sustains ≥ 4 concurrent active sessions multiplexed over the
/// shared timeline, each making progress every round.
#[test]
fn four_concurrent_tenants_progress() {
    let mut registry = registry_with("a", 6, 31);
    registry.register(
        "b",
        SceneKind::Rubble,
        DatasetConfig {
            num_gaussians: 160,
            num_views: 6,
            width: 32,
            height: 24,
            seed: 37,
        },
    );
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: 4,
            ..Default::default()
        },
    );
    let ids: Vec<_> = (0..4)
        .map(|i| {
            let scene = if i % 2 == 0 { "a" } else { "b" };
            let mut s = spec(&format!("t{i}"), scene, 80 + i as u64, 5);
            s.backend = BackendChoice::Simulated;
            serve.admit(s).unwrap().id()
        })
        .collect();
    assert_eq!(serve.active_ids().len(), 4);
    serve.run(10_000);
    assert!(serve.all_done());
    for id in ids {
        let s = serve.session(id).unwrap();
        assert_eq!(s.stats.batches, 5);
        assert_eq!(s.state, SessionState::Completed);
        assert!(s.stats.latency.count() == 5 && s.stats.latency.max() > 0.0);
    }
    assert_eq!(serve.stats().batches, 20);
    assert!(serve.virtual_now() > 0.0);
}
