//! `serve_mixed`: a `ClmServe` closed loop.  The product path is the
//! `ClmServe::step` loop over oversubscribed tenants with scripted evictions;
//! the baseline is the same tenants' jobs run back to back through plain
//! `Trainer`s with no service.
//!
//! Evictions happen at the fixed step indices of the workload file and take
//! the active session that has trained the most batches.  Whenever a slot is
//! free and the service's own queue did not claim it, the evicted session
//! that has trained the fewest batches resumes.  Both rules read only
//! deterministic service state, so the step sequence is a function of
//! `(workload, seed)`.

use crate::jobs::{self, Job};
use crate::probes;
use crate::procfs;
use crate::run::{
    median_or_zero, product_first, rate, startup_calibration, Guard, Layers, Outcome, Rep, Timed,
    MIB,
};
use crate::stats;
use crate::sys;
use crate::watchdog;
use crate::workload::{build_scene, dataset_config, init_config, stream, Serve, Workload};
use clm_serve::{
    AdmitError, ClmServe, SceneEntry, SceneRegistry, ServeConfig, SessionId, SessionState,
    StepOutcome, TenantSpec,
};
use clm_trace::Checkpoint;
use gs_scene::{init_from_point_cloud, SceneSpec};
use std::sync::Arc;
use std::time::Instant;

fn tenant_spec(w: &Workload, s: &Serve, i: usize, seed: u64) -> TenantSpec {
    let tenant = &s.tenants[i];
    let (scene_name, scene) = &s.scenes[tenant.scene];
    let tenant_seed = stream(seed, 16 + i as u64);
    let mut spec = TenantSpec::new(
        &tenant.name,
        scene_name,
        w.train_config(tenant.batch_size, None, tenant_seed),
        init_config(
            &SceneSpec::of(scene.kind),
            tenant.model_gaussians,
            tenant.init_sigma_frac,
            tenant_seed,
        ),
    );
    spec.weight = tenant.weight;
    spec.target_batches = tenant.target_batches;
    spec.prefetch_window = w.knobs.prefetch_window;
    spec.staging_budget_bytes = tenant
        .staging_buffers
        .map(|n| n as u64 * spec.buffer_bytes());
    spec.cost_scale = tenant.cost_scale;
    spec
}

/// One repetition's service: scenes registered, every tenant admitted, the
/// one deliberately under-budgeted tenant refused.
struct Service {
    serve: ClmServe,
    entries: Vec<Arc<SceneEntry>>,
    ids: Vec<SessionId>,
    admit_s: Vec<f64>,
}

/// Generates and renders every scene of the workload into a registry.
fn register_scenes(s: &Serve, seed: u64) -> (SceneRegistry, Vec<Arc<SceneEntry>>) {
    let mut registry = SceneRegistry::new();
    let entries = s
        .scenes
        .iter()
        .enumerate()
        .map(|(i, (name, scene))| {
            registry.register(
                name,
                scene.kind,
                dataset_config(scene, stream(seed, 8 + i as u64)),
            )
        })
        .collect();
    (registry, entries)
}

fn build_service(w: &Workload, s: &Serve, seed: u64) -> Result<Service, String> {
    let (registry, entries) = register_scenes(s, seed);
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: s.max_active,
            max_queued: s.max_queued,
            ..ServeConfig::default()
        },
    );
    let mut ids = Vec::with_capacity(s.tenants.len());
    let mut admit_s = Vec::with_capacity(s.tenants.len());
    for i in 0..s.tenants.len() {
        let spec = tenant_spec(w, s, i, seed);
        let start = Instant::now();
        let admission = serve.admit(spec);
        admit_s.push(start.elapsed().as_secs_f64());
        ids.push(
            admission
                .map_err(|e| format!("tenant {} refused: {e}", s.tenants[i].name))?
                .id(),
        );
    }
    let mut starved = tenant_spec(w, s, 0, seed);
    starved.tenant = "under-budget".to_string();
    starved.staging_budget_bytes = Some(s.rejected_budget_bytes);
    match serve.admit(starved) {
        Err(AdmitError::BudgetTooSmall { .. }) => {}
        other => {
            return Err(format!(
                "a {} B staging budget must be refused as too small, got {other:?}",
                s.rejected_budget_bytes
            ))
        }
    }
    Ok(Service {
        serve,
        entries,
        ids,
        admit_s,
    })
}

/// The tenants' jobs over one repetition's registered scenes.  The simulated
/// engine of each job is configured the way the service configures a
/// session's: the prefetch window clamped under the staging budget.
fn tenant_jobs<'a>(
    w: &Workload,
    s: &Serve,
    entries: &'a [Arc<SceneEntry>],
    seed: u64,
) -> (Vec<Job<'a>>, f64) {
    let mut init_s = 0.0;
    let jobs = (0..s.tenants.len())
        .map(|i| {
            let tenant = &s.tenants[i];
            let entry = &entries[tenant.scene];
            let spec = tenant_spec(w, s, i, seed);
            let mut runtime = w.runtime_config(tenant.cost_scale, tenant.cost_scale);
            if let Some(buffers) = tenant.staging_buffers {
                runtime.prefetch_window = runtime.prefetch_window.min(buffers - 1);
            }
            let start = Instant::now();
            let init = init_from_point_cloud(&entry.dataset.ground_truth, &spec.init);
            init_s += start.elapsed().as_secs_f64();
            Job {
                cameras: &entry.dataset.cameras,
                targets: &entry.targets,
                init,
                config: spec.train,
                runtime,
                staging_capacity: tenant.staging_buffers,
                batches: tenant.target_batches,
            }
        })
        .collect();
    (jobs, init_s)
}

#[derive(Debug, Default)]
struct ServicePass {
    /// Per step: scripted evict/resume before it plus the step itself.
    step_total_s: Vec<f64>,
    /// Per step: `ClmServe::step` alone.
    step_only_s: Vec<f64>,
    heavy_s: Vec<f64>,
    light_s: Vec<f64>,
    evict_s: Vec<f64>,
    resume_s: Vec<f64>,
    /// Per step: process CPU seconds of what `step_total_s` times.
    step_cpu_s: Vec<f64>,
    device_bytes_peak: u64,
    virtual_now: f64,
    share_err: f64,
    queue_wait_steps: Vec<f64>,
    rejected: u64,
    budget_violations: u64,
}

fn batches_of(serve: &ClmServe, id: SessionId) -> u64 {
    serve.session(id).map_or(0, |s| s.stats.batches)
}

fn service_pass(
    s: &Serve,
    service: &mut Service,
    reference: &jobs::Reference,
) -> Result<ServicePass, String> {
    let checksums = &reference.checksums;
    let serve = &mut service.serve;
    let ids = &service.ids;
    let steps: usize = s.tenants.iter().map(|t| t.target_batches).sum();
    let mut out = ServicePass::default();
    let mut first_ran: Vec<Option<usize>> = vec![None; ids.len()];
    let no_clock = || "cannot read the process CPU clock".to_string();
    let mut slot_may_be_free = false;
    for step in 0..steps {
        watchdog::note_batch(step);
        let cpu = sys::process_cpu_seconds().ok_or_else(no_clock)?;
        let start = Instant::now();
        if s.evict_steps.contains(&step) {
            // Most batches trained; the lower id on a tie.
            let victim = serve
                .active_ids()
                .into_iter()
                .max_by_key(|&id| (batches_of(serve, id), std::cmp::Reverse(id)));
            if let Some(id) = victim {
                let t = Instant::now();
                serve
                    .evict(id)
                    .map_err(|e| format!("step {step}: evict {id}: {e:?}"))?;
                out.evict_s.push(t.elapsed().as_secs_f64());
                slot_may_be_free = true;
            }
        }
        // Only an eviction or a completion can free a slot.
        while slot_may_be_free && serve.active_ids().len() < s.max_active {
            // Fewest batches trained; the lower id on a tie.
            let next = serve
                .session_ids()
                .into_iter()
                .filter(|&id| {
                    serve
                        .session(id)
                        .is_some_and(|s| s.state == SessionState::Evicted)
                })
                .min_by_key(|&id| (batches_of(serve, id), id));
            let Some(id) = next else { break };
            let t = Instant::now();
            serve
                .resume(id)
                .map_err(|e| format!("step {step}: resume {id}: {e:?}"))?;
            out.resume_s.push(t.elapsed().as_secs_f64());
        }
        let stepped = Instant::now();
        let outcome = serve.step();
        let end = Instant::now();
        out.step_cpu_s
            .push(sys::process_cpu_seconds().ok_or_else(no_clock)? - cpu);
        let StepOutcome::Ran { id, completed, .. } = outcome else {
            return Err(format!("step {step} of {steps}: the service went idle"));
        };
        slot_may_be_free = completed;
        let tenant = ids
            .iter()
            .position(|&t| t == id)
            .ok_or_else(|| format!("step {step}: ran unknown session {id}"))?;
        first_ran[tenant].get_or_insert(step);
        let step_s = (end - stepped).as_secs_f64();
        out.step_only_s.push(step_s);
        out.step_total_s.push((end - start).as_secs_f64());
        if s.tenants[tenant].heavy {
            out.heavy_s.push(step_s);
        } else {
            out.light_s.push(step_s);
        }
        // What the sessions co-resident right now need on the device.
        let co_resident: u64 = serve
            .active_ids()
            .iter()
            .filter_map(|id| ids.iter().position(|t| t == id))
            .map(|tenant| reference.device_bytes[tenant])
            .sum();
        out.device_bytes_peak = out.device_bytes_peak.max(co_resident);
        if step + 1 == s.share_snapshot_step {
            let costs: Vec<f64> = ids
                .iter()
                .map(|&id| serve.session(id).map_or(0.0, |s| s.stats.served_cost))
                .collect();
            let (cost_sum, weight_sum) = (
                costs.iter().sum::<f64>(),
                s.tenants.iter().map(|t| t.weight).sum::<f64>(),
            );
            out.share_err = costs
                .iter()
                .zip(&s.tenants)
                .map(|(c, t)| (c / cost_sum - t.weight / weight_sum).abs())
                .fold(0.0, f64::max);
        }
    }
    if !serve.all_done() || serve.stats().completed != ids.len() as u64 {
        return Err(format!(
            "{} of {} admitted tenants completed in {steps} steps",
            serve.stats().completed,
            ids.len()
        ));
    }
    for (i, (&id, &checksum)) in ids.iter().zip(checksums).enumerate() {
        let session = serve
            .session(id)
            .ok_or_else(|| format!("session {id} vanished"))?;
        let bytes = &session
            .evicted
            .as_ref()
            .ok_or_else(|| format!("completed session {id} kept no final checkpoint"))?
            .checkpoint;
        let model = Checkpoint::decode(bytes)
            .map_err(|e| format!("session {id}: final checkpoint: {e:?}"))?
            .model;
        jobs::check_model(&format!("tenant {}", s.tenants[i].name), &model, checksum)?;
        out.budget_violations += session.stats.budget_violations;
    }
    out.queue_wait_steps = first_ran
        .iter()
        .map(|f| f.unwrap_or(steps) as f64)
        .collect();
    out.virtual_now = serve.virtual_now();
    out.rejected = serve.stats().rejected;
    let (evictions, resumes) = (serve.stats().evictions, serve.stats().resumes);
    if evictions != resumes || evictions != out.evict_s.len() as u64 {
        return Err(format!(
            "{evictions} evictions, {resumes} resumes, {} scripted",
            out.evict_s.len()
        ));
    }
    Ok(out)
}

pub fn run(w: &Workload, s: &Serve, seed: u64, trace: bool, guard: &mut Guard) -> Option<Outcome> {
    let steps = w.batches_per_pass();

    // Reference: every tenant's job on a standalone simulated engine.
    let (_, reference_entries) = register_scenes(s, seed);
    let (reference_jobs, _) = tenant_jobs(w, s, &reference_entries, seed);
    let reference = guard.pass("sim", steps, || jobs::sim_pass(&reference_jobs))?;

    let mut timed = Timed {
        images_per_pass: jobs::total_images(&reference_jobs),
        ..Timed::default()
    };
    let mut passes: Vec<ServicePass> = Vec::new();
    let (mut admit_s, mut init_s) = (Vec::new(), Vec::new());
    for r in 0.. {
        // Fresh set-up, timed: start-up calibration, scenes generated and
        // rendered into the registry, service built, tenants admitted,
        // baseline trainers built.
        procfs::reset_peak_rss();
        let start = Instant::now();
        let autotune_s = startup_calibration();
        let mut service = match build_service(w, s, seed) {
            Ok(service) => service,
            Err(problem) => {
                guard.problem(format!("set-up: {problem}"));
                return None;
            }
        };
        let entries = service.entries.clone();
        let (rep_jobs, rep_init_s) = tenant_jobs(w, s, &entries, seed);
        let mut trainers: Vec<_> = rep_jobs.iter().map(Job::trainer).collect();
        let setup_s = start.elapsed().as_secs_f64();

        let (served, sync_s) = guard.both_passes(
            r,
            steps,
            "service",
            || service_pass(s, &mut service, &reference),
            || jobs::sync_pass(&rep_jobs, &mut trainers, &reference.checksums),
        )?;
        if r == 0 {
            let service_wall: f64 = served.step_total_s.iter().sum();
            guard.calibrate(service_wall.max(sync_s.iter().sum()));
            continue;
        }
        timed.push(Rep {
            setup_s,
            autotune_s,
            product_first: product_first(r),
            product_s: served.step_total_s.clone(),
            product_batch_s: served.step_only_s.clone(),
            product_cpu_s: served.step_cpu_s.clone(),
            sync_s,
            peak_rss_mib: guard.require(procfs::peak_rss_mib(), "VmHWM in /proc/self/status")?,
        });
        admit_s.extend_from_slice(&service.admit_s);
        init_s.push(rep_init_s);
        passes.push(served);
        if !guard.another_rep(r, w.repetitions, start.elapsed()) {
            break;
        }
    }

    // The counts of the service itself are the same in every repetition;
    // they are read from the first.
    let first = &passes[0];
    let mut counts = reference.counts.clone();
    counts.device_mem_mb = first.device_bytes_peak as f64 / MIB;

    let mut layers = Layers::default();
    jobs::reference_metrics(&mut layers, &reference, &reference_jobs);
    // One scene build outside the registry, for the set-up breakdown.
    let scene = build_scene(&s.scenes[0].1, stream(seed, 8));
    layers.put("gs-render.gt_render_s", "s", scene.times.gt_render_s);
    layers.put("gs-scene.dataset_gen_s", "s", scene.times.dataset_gen_s);
    layers.put("gs-scene.init_model_s", "s", stats::median(&init_s));
    let pooled = |f: fn(&ServicePass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    layers.put(
        "clm-serve.evict_p50_ms",
        "ms",
        1e3 * median_or_zero(&pooled(|p| &p.evict_s)),
    );
    layers.put(
        "clm-serve.resume_p50_ms",
        "ms",
        1e3 * median_or_zero(&pooled(|p| &p.resume_s)),
    );
    layers.put(
        "clm-serve.admit_p50_us",
        "us",
        1e6 * median_or_zero(&admit_s),
    );
    layers.put(
        "clm-serve.step_p50_ms",
        "ms",
        1e3 * median_or_zero(&pooled(|p| &p.step_only_s)),
    );
    layers.put(
        "clm-serve.heavy_step_ratio",
        "x",
        rate(
            median_or_zero(&pooled(|p| &p.heavy_s)),
            median_or_zero(&pooled(|p| &p.light_s)),
        ),
    );
    layers.put("clm-serve.share_err", "fraction", first.share_err);
    layers.put(
        "clm-serve.queue_wait_steps_p50",
        "count",
        stats::median(&first.queue_wait_steps),
    );
    layers.put("clm-serve.rejected", "count", first.rejected as f64);
    layers.put(
        "clm-serve.budget_violations",
        "count",
        first.budget_violations as f64,
    );
    layers.put(
        "clm-serve.evict_resume_pairs",
        "count",
        first.evict_s.len() as f64,
    );
    layers.put(
        "clm-serve.virtual_clock_residual",
        "fraction",
        (first.virtual_now - reference.makespan).abs() / reference.makespan,
    );

    let spans = if trace {
        let job = &reference_jobs[0];
        jobs::trace_and_probe(
            guard,
            &mut layers,
            &reference_jobs,
            &reference,
            &timed.sync,
            |layers| {
                probes::backend_build(layers, &job.init, &job.config, &w.threaded_config());
                Ok(())
            },
        )?
    } else {
        Vec::new()
    };
    Some(Outcome {
        timed,
        counts,
        layers,
        spans,
    })
}
