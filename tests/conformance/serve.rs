//! Conformance leg for the multi-tenant service: eviction → `.clmckpt` →
//! resume must be bit-identical to an uninterrupted run, under contention
//! and across a densification boundary.
//!
//! The chaos leg proves kill/restore bit-identity per backend; this leg
//! proves the same invariant when the *service* drives the checkpoint as a
//! capacity policy — with a second tenant competing for the timeline, the
//! fairness scheduler interleaving batches, and the session's granted
//! window and staging budget re-applied on resume.

use clm_repro::clm_core::{DensifyConfig, DensifySchedule, SystemKind, TrainConfig};
use clm_repro::clm_serve::{
    ClmServe, SceneRegistry, ServeConfig, SessionId, SessionState, StepOutcome, TenantSpec,
};
use clm_repro::clm_trace::Checkpoint;
use clm_repro::gs_scene::{DatasetConfig, InitConfig, SceneKind};

const SERVE_SEED: u64 = 907;

fn serve_registry() -> SceneRegistry {
    let mut registry = SceneRegistry::new();
    registry.register(
        "conformance",
        SceneKind::Rubble,
        DatasetConfig {
            num_gaussians: 200,
            num_views: 6,
            width: 32,
            height: 24,
            seed: SERVE_SEED,
        },
    );
    registry
}

fn densifying_tenant(name: &str) -> TenantSpec {
    let mut spec = TenantSpec::new(
        name,
        "conformance",
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 3,
            seed: SERVE_SEED + 1,
            densify: Some(DensifySchedule {
                every_batches: 2,
                config: DensifyConfig {
                    grad_threshold: 1.0e-5,
                    prune_opacity: 0.305,
                    max_gaussians: 140,
                    seed: SERVE_SEED + 2,
                    ..Default::default()
                },
            }),
            ..Default::default()
        },
        InitConfig {
            num_gaussians: 100,
            initial_opacity: 0.3,
            seed: SERVE_SEED + 3,
            ..Default::default()
        },
    );
    spec.target_batches = 8;
    spec
}

fn competitor(name: &str) -> TenantSpec {
    let mut spec = TenantSpec::new(
        name,
        "conformance",
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 3,
            seed: SERVE_SEED + 10,
            ..Default::default()
        },
        InitConfig {
            num_gaussians: 60,
            initial_opacity: 0.3,
            seed: SERVE_SEED + 11,
            ..Default::default()
        },
    );
    spec.target_batches = 8;
    spec
}

/// Runs the victim tenant to completion alongside a competitor, evicting
/// and resuming the victim at the given batch counts.  Returns the victim's
/// final `.clmckpt` bytes.
fn run_with_evictions(evict_at: &[u64]) -> Vec<u8> {
    let mut serve = ClmServe::new(serve_registry(), ServeConfig::default());
    let victim: SessionId = serve.admit(densifying_tenant("victim")).unwrap().id();
    serve.admit(competitor("rival")).unwrap();

    let mut pending: Vec<u64> = evict_at.to_vec();
    let mut guard = 0;
    while !serve.all_done() {
        guard += 1;
        assert!(guard < 10_000, "conformance serve leg failed to drain");
        if serve.session(victim).map(|s| s.state) == Some(SessionState::Evicted) {
            serve.resume(victim).expect("slot is free after eviction");
        }
        match serve.step() {
            StepOutcome::Ran { .. } => {}
            StepOutcome::Idle => continue,
        }
        let batches = serve.session(victim).unwrap().stats.batches;
        if pending.first() == Some(&batches)
            && serve.session(victim).map(|s| s.state) == Some(SessionState::Active)
        {
            serve.evict(victim).expect("evict the victim");
            pending.remove(0);
        }
    }
    assert!(pending.is_empty(), "eviction triggers never fired");

    let session = serve.session(victim).unwrap();
    assert_eq!(session.state, SessionState::Completed);
    assert_eq!(session.stats.batches, 8);
    assert_eq!(session.stats.evictions, evict_at.len() as u64);
    assert_eq!(session.stats.resumes, evict_at.len() as u64);
    session
        .evicted
        .as_ref()
        .expect("completion checkpoint")
        .checkpoint
        .clone()
}

#[test]
fn service_evict_resume_is_bit_identical_across_a_densify_boundary() {
    // Reference: no evictions. Interrupted: evicted twice — once straddling
    // the densification cadence (after batch 3) and once right after a
    // boundary (after batch 6) — and resumed from `.clmckpt` each time.
    let uninterrupted = run_with_evictions(&[]);
    let interrupted = run_with_evictions(&[3, 6]);

    // The container itself is well-formed and reports the same trajectory.
    let a = Checkpoint::decode(&uninterrupted).expect("reference decodes");
    let b = Checkpoint::decode(&interrupted).expect("interrupted decodes");
    assert_eq!(a.batches_trained, 8);
    assert_eq!(b.batches_trained, 8);
    assert!(
        a.resize_events >= 2,
        "the leg must cross densify boundaries"
    );
    assert_eq!(a.resize_events, b.resize_events);

    // Bit-identity: byte-for-byte equal checkpoints (model, Adam moments,
    // gradient norms, offload counters, resize history).
    assert_eq!(
        uninterrupted, interrupted,
        "service evict/resume changed the numerics"
    );
}
