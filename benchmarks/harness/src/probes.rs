//! Per-layer probes: each calls one public function of one crate on the
//! workload's real rows (the run's final model, one real batch of cameras)
//! and reports the median of up to twenty calls (see [`crate::run::probe`]).
//! They run only in a traced run, after every timed pass, so they never share
//! the clock with an end-to-end metric.

use crate::run::{median_or_zero, probe, probe_with, rate, Layers, MIB};
use clm_core::{gather_rows_into, order_batch, OffloadedModel, TrainConfig, Trainer};
use clm_runtime::{ThreadedBackend, ThreadedConfig};
use clm_serve::{ClmServe, SceneRegistry, ServeConfig, StepOutcome, TenantSpec};
use clm_trace::Checkpoint;
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::{cull_frustum, VisibilitySet};
use gs_optim::{compute_packed, GaussianAdam, GradientBuffer};
use gs_render::{l1_loss, render, render_backward, Image, RenderOptions};
use gs_scene::{apply_resize, plan_resize, DatasetConfig, DensifyConfig, SceneKind};
use sim_device::{ScheduledOp, Timeline};
use std::hint::black_box;
use std::time::Instant;

fn render_options(config: &TrainConfig, visible: &VisibilitySet, threads: usize) -> RenderOptions {
    RenderOptions {
        background: config.background,
        visible: Some(visible.indices().to_vec()),
        compute_threads: threads,
        band_height: config.band_height,
    }
}

pub fn run(
    layers: &mut Layers,
    model: &GaussianModel,
    cameras: &[Camera],
    targets: &[Image],
    config: &TrainConfig,
    sample_ops: &[ScheduledOp],
) {
    let n = model.len() as f64;

    // gs-core: visibility-set construction, every camera of the batch.
    let cull_s = probe(|| {
        for camera in cameras {
            black_box(cull_frustum(model, camera));
        }
    });
    layers.put(
        "gs-core.cull_rows_per_s",
        "rows/s",
        rate(n * cameras.len() as f64, cull_s),
    );
    let sets: Vec<VisibilitySet> = cameras.iter().map(|c| cull_frustum(model, c)).collect();

    // clm-core: micro-batch ordering (TSP) alone.
    let order_s = probe(|| {
        black_box(order_batch(config.ordering, cameras, &sets, config.seed));
    });
    layers.put("clm-core.order_p50_ms", "ms", 1e3 * order_s);

    // gs-render: forward and backward of the batch's first view.
    let (camera, target, visible) = (&cameras[0], &targets[0], &sets[0]);
    let options = render_options(config, visible, 1);
    let rows = visible.len() as f64;
    let forward_s = probe(|| {
        black_box(render(model, camera, &options));
    });
    layers.put(
        "gs-render.forward_rows_per_s",
        "rows/s",
        rate(rows, forward_s),
    );
    let out = render(model, camera, &options);
    let loss = l1_loss(&out.image, target);
    let backward_s = probe(|| {
        black_box(render_backward(model, camera, &out.aux, &loss.d_image));
    });
    layers.put(
        "gs-render.backward_rows_per_s",
        "rows/s",
        rate(rows, backward_s),
    );
    // One view at band width 2 against width 1.  The knob is pinned to 1 in
    // every timed pass; this records the base a later PR that unpins it
    // starts from.  Width 2 waits on the process-wide `ComputePool` — the
    // watchdog is armed around the probes for exactly that.
    let wide = render_options(config, visible, 2);
    let forward2_s = probe(|| {
        black_box(render(model, camera, &wide));
    });
    layers.put("gs-render.band2_speedup", "x", rate(forward_s, forward2_s));

    // Real gradients of the whole batch, for the optimiser and resize probes.
    let mut grads = GradientBuffer::for_model(model);
    for ((camera, target), visible) in cameras.iter().zip(targets).zip(&sets) {
        let out = render(model, camera, &render_options(config, visible, 1));
        let loss = l1_loss(&out.image, target);
        grads.accumulate_render(&render_backward(model, camera, &out.aux, &loss.d_image));
    }
    let touched = grads.touched_set();
    let indices = touched.indices();
    let touched_rows = indices.len() as f64;

    // gs-optim: the in-place sparse step, and the packed path the Adam lane
    // ships to a worker (pack → compute → apply).
    let mut scratch = model.clone();
    let mut adam = GaussianAdam::new(model.len(), config.adam.clone());
    let inplace_s = probe(|| adam.step_subset(&mut scratch, &grads, indices));
    layers.put(
        "gs-optim.adam_inplace_rows_per_s",
        "rows/s",
        rate(touched_rows, inplace_s),
    );
    let pack_s = probe(|| {
        black_box(adam.pack_subset(model, &grads, indices));
    });
    layers.put(
        "gs-optim.pack_rows_per_s",
        "rows/s",
        rate(touched_rows, pack_s),
    );
    let packed_s = probe(|| {
        let mut items = adam.pack_subset(&scratch, &grads, indices);
        compute_packed(&config.adam, &mut items);
        adam.apply_packed(&mut scratch, &items);
    });
    layers.put(
        "gs-optim.adam_packed_rows_per_s",
        "rows/s",
        rate(touched_rows, packed_s),
    );

    // gs-scene: plan + apply one densification boundary.  The threshold is
    // the median touched norm, so about half the touched rows clone or split.
    let mut norms = vec![0.0f32; model.len()];
    for &i in indices {
        norms[i as usize] = grads.row(i).d_position.length();
    }
    let mut touched_norms: Vec<f32> = indices.iter().map(|&i| norms[i as usize]).collect();
    touched_norms.sort_by(f32::total_cmp);
    let densify = DensifyConfig {
        grad_threshold: touched_norms
            .get(touched_norms.len() / 2)
            .copied()
            .unwrap_or(1.0),
        seed: config.seed,
        ..config
            .densify
            .as_ref()
            .map(|d| d.config)
            .unwrap_or_default()
    };
    // The probe may grow past the workload's cap: it measures the resize
    // machinery, not the schedule.
    let densify = DensifyConfig {
        max_gaussians: 0,
        ..densify
    };
    let event = plan_resize(model, &norms, &densify);
    let changed = event.rows_changed() as f64;
    let resize_s = probe_with(
        || model.clone(),
        |mut m| {
            let event = plan_resize(&m, &norms, &densify);
            apply_resize(&mut m, &event);
            black_box(m);
        },
    );
    layers.put("gs-scene.resize_p50_ms", "ms", 1e3 * resize_s);
    layers.put(
        "gs-scene.resize_rows_per_s",
        "rows/s",
        rate(changed, resize_s),
    );

    // clm-core: the trainer-level boundary (model + Adam moments + offload
    // store), the offload store's construction, and its read and write side.
    let trainer_resize_s = probe_with(
        || Trainer::new(model.clone(), config.clone()),
        |mut trainer| {
            trainer.apply_resize(&event);
            black_box(trainer);
        },
    );
    layers.put(
        "clm-core.trainer_resize_p50_ms",
        "ms",
        1e3 * trainer_resize_s,
    );
    let offload_s = probe(|| {
        black_box(OffloadedModel::from_model(model));
    });
    layers.put("clm-core.offload_init_s", "s", offload_s);
    let mut store = OffloadedModel::from_model(model);
    let mut staged = Vec::new();
    let gather_s = probe(|| {
        gather_rows_into(store.non_critical_rows(), indices, &mut staged);
        black_box(&staged);
    });
    layers.put(
        "clm-core.gather_rows_per_s",
        "rows/s",
        rate(touched_rows, gather_s),
    );
    let scatter_s = probe(|| store.scatter_non_critical(indices, &staged));
    layers.put(
        "clm-core.scatter_rows_per_s",
        "rows/s",
        rate(touched_rows, scatter_s),
    );

    // sim-device: host cost of scheduling one batch's ops on a fresh timeline.
    let timeline_s = probe(|| {
        let mut timeline = Timeline::new();
        for op in sample_ops {
            timeline.push_traced(
                op.kind,
                op.lane,
                op.dur,
                op.bytes,
                op.rows,
                op.microbatch,
                &op.deps,
            );
        }
        black_box(timeline);
    });
    layers.put(
        "sim-device.timeline_ops_per_s",
        "ops/s",
        rate(sample_ops.len() as f64, timeline_s),
    );

    // clm-trace: the evict/resume round trip.
    let trainer = Trainer::new(model.clone(), config.clone());
    let bytes = Checkpoint::capture(&trainer, None).encode();
    let encode_s = probe_with(
        || Checkpoint::capture(&trainer, None),
        |ckpt| {
            black_box(ckpt.encode());
        },
    );
    let decode_s = probe(|| {
        black_box(Checkpoint::decode(&bytes).expect("decodes what encode wrote"));
    });
    let roundtrip_s = probe(|| {
        let bytes = Checkpoint::capture(&trainer, None).encode();
        let ckpt = Checkpoint::decode(&bytes).expect("decodes what encode wrote");
        black_box(
            ckpt.restore(config.clone())
                .expect("restores under its own config"),
        );
    });
    let mib = bytes.len() as f64 / MIB;
    layers.put("clm-trace.ckpt_roundtrip_ms", "ms", 1e3 * roundtrip_s);
    layers.put(
        "clm-trace.ckpt_encode_mb_per_s",
        "MiB/s",
        rate(mib, encode_s),
    );
    layers.put(
        "clm-trace.ckpt_decode_mb_per_s",
        "MiB/s",
        rate(mib, decode_s),
    );
    layers.put(
        "clm-trace.ckpt_bytes_per_row",
        "bytes",
        bytes.len() as f64 / n,
    );
}

/// `ThreadedBackend::new` around a job's initial model.  The training
/// workloads time it in every repetition's set-up; `serve_mixed`, whose
/// product path never builds one, probes it so the ladder has no hole.
pub fn backend_build(
    layers: &mut Layers,
    init: &GaussianModel,
    config: &TrainConfig,
    threaded: &ThreadedConfig,
) {
    let build_s = probe_with(
        || (init.clone(), config.clone(), threaded.clone()),
        |(init, config, threaded)| {
            black_box(ThreadedBackend::new(init, config, threaded));
        },
    );
    layers.put("clm-runtime.backend_build_ms", "ms", 1e3 * build_s);
}

/// Service steps, evictions and resumes a service probe makes.
const SERVICE_CYCLES: usize = 3;

/// The service layer's costs at this workload's model size: the workload's
/// own scene registered, its own job admitted as the only tenant, then
/// [`SERVICE_CYCLES`] rounds of step → evict → resume.  On `serve_mixed`
/// these metrics come from the timed passes instead.
pub fn service(
    layers: &mut Layers,
    kind: SceneKind,
    dataset: DatasetConfig,
    mut spec: TenantSpec,
) -> Result<(), String> {
    let mut registry = SceneRegistry::new();
    registry.register(&spec.scene, kind, dataset);
    let mut serve = ClmServe::new(
        registry,
        ServeConfig {
            max_active: 1,
            max_queued: 0,
            ..ServeConfig::default()
        },
    );
    spec.target_batches = SERVICE_CYCLES + 1;
    let t = Instant::now();
    let id = serve
        .admit(spec)
        .map_err(|e| format!("service probe: admit: {e}"))?
        .id();
    let admit_s = t.elapsed().as_secs_f64();
    let (mut step_s, mut evict_s, mut resume_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SERVICE_CYCLES {
        let t = Instant::now();
        let outcome = serve.step();
        step_s.push(t.elapsed().as_secs_f64());
        if !matches!(outcome, StepOutcome::Ran { .. }) {
            return Err("service probe: the service went idle".to_string());
        }
        let t = Instant::now();
        serve
            .evict(id)
            .map_err(|e| format!("service probe: evict: {e:?}"))?;
        evict_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        serve
            .resume(id)
            .map_err(|e| format!("service probe: resume: {e:?}"))?;
        resume_s.push(t.elapsed().as_secs_f64());
    }
    layers.put("clm-serve.admit_p50_us", "us", 1e6 * admit_s);
    layers.put("clm-serve.step_p50_ms", "ms", 1e3 * median_or_zero(&step_s));
    layers.put(
        "clm-serve.evict_p50_ms",
        "ms",
        1e3 * median_or_zero(&evict_s),
    );
    layers.put(
        "clm-serve.resume_p50_ms",
        "ms",
        1e3 * median_or_zero(&resume_s),
    );
    Ok(())
}
