//! A *job* is one model trained over a fixed list of batches.  A training
//! workload is one job; `serve_mixed` is one job per tenant.  The simulated
//! pass, the synchronous pass and the traced pass are the same code for both.

use crate::probes;
use crate::run::{median_or_zero, rate, rep_rates, Counts, Guard, Layers, MIB};
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::watchdog;
use crate::workload::{batch_slice, model_checksum};
use clm_core::{BatchPlan, TrainConfig, Trainer, NON_CRITICAL_BYTES};
use clm_runtime::{LaneBusy, PipelinedEngine, RuntimeConfig};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_optim::GradientBuffer;
use gs_render::Image;
use sim_device::{Lane, OpKind, ScheduledOp};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Job<'a> {
    pub cameras: &'a [Camera],
    pub targets: &'a [Image],
    pub init: GaussianModel,
    pub config: TrainConfig,
    /// Configuration of the job's simulated engine.
    pub runtime: RuntimeConfig,
    /// Cap on simultaneously leased staging buffers (`None` = uncapped).
    pub staging_capacity: Option<usize>,
    pub batches: usize,
}

impl Job<'_> {
    /// The camera range of every batch, in order.
    pub fn slices(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.batches).map(|b| batch_slice(self.cameras.len(), self.config.batch_size, b))
    }

    pub fn images(&self) -> usize {
        self.slices().map(|s| s.len()).sum()
    }

    pub fn trainer(&self) -> Trainer {
        Trainer::new(self.init.clone(), self.config.clone())
    }
}

pub fn total_batches(jobs: &[Job]) -> usize {
    jobs.iter().map(|j| j.batches).sum()
}

pub fn total_images(jobs: &[Job]) -> f64 {
    jobs.iter().map(Job::images).sum::<usize>() as f64
}

/// Everything the simulated pass establishes once per run.
#[derive(Debug, Default)]
pub struct Reference {
    pub counts: Counts,
    /// Checksum of every job's final model, and the first job's final model
    /// itself (what the probes run on).
    pub checksums: Vec<u64>,
    pub first_model: GaussianModel,
    pub init_rows: usize,
    pub final_rows: usize,
    pub resize_events: usize,
    /// Simulated busy seconds per lane, and the makespan they are shares of.
    pub sim_lanes: LaneBusy,
    pub makespan: f64,
    pub h2d: u64,
    pub d2h: u64,
    pub ops: usize,
    /// The last batch's scheduled ops, for the timeline probe.
    pub sample_ops: Vec<ScheduledOp>,
    pub pool_high_water: u64,
    /// Per job: the device memory it needs — its largest resident
    /// selection-critical store plus its staging pool once every buffer it
    /// ever leased at once has grown to its largest fetch, which is what the
    /// pool converges to.  (`PoolStats::high_water_bytes` of a run this short
    /// depends on which buffers happened to grow so far: 0.33 or 0.57 MiB on
    /// `render_bound` from one seed to the next.  It is the per-layer
    /// `clm-runtime.pool_high_water`.)
    pub device_bytes: Vec<u64>,
}

/// Folds per-job checksums into the one number the raw log carries.
pub fn fold_checksums(checksums: &[u64]) -> u64 {
    checksums.iter().fold(0, |acc, c| acc.rotate_left(7) ^ c)
}

/// Runs every job on its own simulated engine (`PipelinedEngine::run_batch`):
/// the source of the virtual-clock and count metrics and of the reference
/// final models every other pass must reproduce bit for bit.
pub fn sim_pass(jobs: &[Job]) -> Result<Reference, String> {
    let mut r = Reference::default();
    let mut idle_weighted = 0.0;
    let (mut psnr_before, mut psnr_after) = (0.0, 0.0);
    let mut done = 0;
    for job in jobs {
        let mut engine =
            PipelinedEngine::new(job.init.clone(), job.config.clone(), job.runtime.clone());
        engine.set_staging_capacity(job.staging_capacity);
        psnr_before += f64::from(engine.evaluate_psnr(job.cameras, job.targets));
        r.init_rows += job.init.len();
        let (mut resident_peak, mut fetch_rows_peak) = (0u64, 0u64);
        for s in job.slices() {
            watchdog::note_batch(done);
            done += 1;
            let report = engine.run_batch(&job.cameras[s.clone()], &job.targets[s]);
            let makespan = report.makespan();
            r.makespan += makespan;
            idle_weighted += report.gpu_idle_fraction() * makespan;
            r.h2d += report.comm_bytes_h2d();
            r.d2h += report.comm_bytes_d2h();
            r.sim_lanes.compute += report.lane(Lane::GpuCompute).busy;
            r.sim_lanes.comm += report.lane(Lane::GpuComm).busy;
            r.sim_lanes.adam += report.lane(Lane::CpuAdam).busy;
            r.ops += report.timeline.ops().len();
            resident_peak = resident_peak.max(engine.trainer().offloaded().gpu_resident_bytes());
            fetch_rows_peak = report
                .timeline
                .ops()
                .iter()
                .filter(|op| op.kind == OpKind::LoadParams)
                .map(|op| op.rows)
                .fold(fetch_rows_peak, u64::max);
            r.sample_ops = report.timeline.ops().to_vec();
        }
        let pool = engine.pool_stats();
        if pool.outstanding != 0 {
            return Err(format!(
                "{} staging buffers still leased after the pass",
                pool.outstanding
            ));
        }
        r.pool_high_water = r.pool_high_water.max(pool.high_water_bytes);
        r.device_bytes.push(
            resident_peak
                + pool.high_water_buffers as u64 * fetch_rows_peak * NON_CRITICAL_BYTES as u64,
        );
        r.resize_events += engine.trainer().resize_events();
        psnr_after += f64::from(engine.evaluate_psnr(job.cameras, job.targets));
        let model = engine.trainer().model();
        r.final_rows += model.len();
        if r.checksums.is_empty() {
            r.first_model = model.clone();
        }
        r.checksums.push(model_checksum(model));
    }
    let images = total_images(jobs);
    r.counts = Counts {
        sim_images_per_s: images / r.makespan,
        sim_gpu_idle_frac: idle_weighted / r.makespan,
        comm_bytes_per_image: (r.h2d + r.d2h) as f64 / images,
        // Jobs run one after the other here; `serve_mixed` replaces this
        // with the largest sum over the sessions it actually had co-resident.
        device_mem_mb: r.device_bytes.iter().copied().max().unwrap_or(0) as f64 / MIB,
        final_psnr_db: psnr_after / jobs.len() as f64,
        initial_psnr_db: psnr_before / jobs.len() as f64,
        checksum: fold_checksums(&r.checksums),
    };
    Ok(r)
}

pub fn check_model(what: &str, model: &GaussianModel, reference: u64) -> Result<(), String> {
    let got = model_checksum(model);
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: final model checksum {got:016x} differs from the simulated pass's {reference:016x}"
        ))
    }
}

/// The plain single-worker baseline: `Trainer::train_batch`, jobs back to
/// back.  Returns the wall seconds of every batch.
pub fn sync_pass(
    jobs: &[Job],
    trainers: &mut [Trainer],
    checksums: &[u64],
) -> Result<Vec<f64>, String> {
    let mut batch_s = Vec::with_capacity(total_batches(jobs));
    for ((job, trainer), &checksum) in jobs.iter().zip(trainers).zip(checksums) {
        for s in job.slices() {
            watchdog::note_batch(batch_s.len());
            let start = Instant::now();
            trainer.train_batch(&job.cameras[s.clone()], &job.targets[s]);
            batch_s.push(start.elapsed().as_secs_f64());
        }
        check_model("sync trainer", trainer.model(), checksum)?;
    }
    Ok(batch_s)
}

/// Counts read off the plans of the traced trajectory.
#[derive(Debug, Default)]
pub struct PlanCounts {
    visible_rows: u64,
    fetched_rows: u64,
    view_rows: u64,
    touched: u64,
    overlappable: u64,
}

impl PlanCounts {
    fn note(&mut self, plan: &BatchPlan, model_len: usize) {
        for (set, fetched) in plan.ordered_sets.iter().zip(&plan.fetched) {
            self.visible_rows += set.len() as u64;
            self.fetched_rows += fetched.len() as u64;
            self.view_rows += model_len as u64;
        }
        self.touched += plan.finalization.total_touched() as u64;
        self.overlappable += plan.finalization.overlappable() as u64;
    }

    pub fn put(&self, layers: &mut Layers) {
        layers.put(
            "gs-core.visible_frac",
            "fraction",
            rate(self.visible_rows as f64, self.view_rows as f64),
        );
        layers.put(
            "clm-core.cache_hit_frac",
            "fraction",
            1.0 - rate(self.fetched_rows as f64, self.visible_rows as f64),
        );
        layers.put(
            "clm-core.early_final_frac",
            "fraction",
            rate(self.overlappable as f64, self.touched as f64),
        );
    }
}

#[derive(Debug)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub batch_s: Vec<f64>,
    pub plan_counts: PlanCounts,
}

/// The synchronous trajectory with one span per call into a layer.  The call
/// sequence is `Trainer::train_batch`'s own, with `resize_and_plan` taken
/// apart into its three public steps so a densify boundary is attributed to
/// the crates that pay for it.
pub fn traced_pass(jobs: &[Job], checksums: &[u64]) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let mut plan_counts = PlanCounts::default();
    let mut batch_s = Vec::with_capacity(total_batches(jobs));
    for (job, &checksum) in jobs.iter().zip(checksums) {
        let mut trainer = job.trainer();
        for s in job.slices() {
            watchdog::note_batch(batch_s.len());
            let id = batch_s.len() as u32;
            let cameras = &job.cameras[s.clone()];
            let targets = &job.targets[s];
            let start = Instant::now();
            rec.span("batch", "bench", id, |rec| {
                let resize = rec.span("plan_resize", "gs-scene", id, |_| trainer.pending_resize());
                if let Some(event) = &resize {
                    rec.span("trainer_apply_resize", "clm-core", id, |_| {
                        trainer.apply_resize(event);
                    });
                }
                let mut plan = rec.span("plan_batch", "clm-core", id, |_| {
                    trainer.plan_batch(cameras)
                });
                plan.resize = resize;
                plan_counts.note(&plan, trainer.model().len());
                let mut grads = rec.span("gradient_buffer", "gs-optim", id, |_| {
                    GradientBuffer::for_model(trainer.model())
                });
                let mut staging = Vec::new();
                let mut total_loss = 0.0f32;
                rec.span("begin_batch", "gs-optim", id, |_| {
                    trainer.begin_batch(&plan, &grads);
                });
                for micro in 0..plan.num_microbatches() {
                    rec.span("stage_microbatch", "clm-core", id, |_| {
                        trainer.stage_microbatch(&plan, micro, &mut staging);
                    });
                    let (loss, render_grads) =
                        rec.span("render_microbatch", "gs-render", id, |_| {
                            trainer.render_microbatch(&plan, micro, cameras, targets, &staging)
                        });
                    total_loss += loss;
                    rec.span("accumulate_render", "gs-optim", id, |_| {
                        grads.accumulate_render(&render_grads);
                    });
                    rec.span("apply_finalized", "gs-optim", id, |_| {
                        trainer.apply_finalized(&plan, micro, &grads);
                    });
                }
                rec.span("finish_batch", "clm-core", id, |_| {
                    trainer.finish_batch(&plan, &grads, total_loss);
                });
            });
            batch_s.push(start.elapsed().as_secs_f64());
        }
        check_model("traced trainer", trainer.model(), checksum)?;
    }
    Ok(Traced {
        spans: rec.into_spans(),
        batch_s,
        plan_counts,
    })
}

/// Per-layer metrics read off the traced spans.
pub fn span_metrics(layers: &mut Layers, spans: &[Span]) {
    let own = spans::self_times(spans);
    let batch_total: f64 = spans::durations_of(spans, "batch").iter().sum();
    let child_total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "batch"))
        .map(Span::duration)
        .sum();
    let own_share = |name: &str| {
        let t: f64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| *o)
            .sum();
        rate(t, batch_total)
    };
    let by_layer = spans::self_time_by_layer(spans);
    let layer_share = |layer: &str| {
        rate(
            by_layer
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or(0.0, |(_, t)| *t),
            batch_total,
        )
    };
    let p50_ms = |name: &str| 1e3 * median_or_zero(&spans::durations_of(spans, name));
    layers.put("gs-render.self_frac", "fraction", layer_share("gs-render"));
    layers.put(
        "gs-render.microbatch_p50_ms",
        "ms",
        p50_ms("render_microbatch"),
    );
    layers.put("gs-optim.self_frac", "fraction", layer_share("gs-optim"));
    layers.put("clm-core.plan_p50_ms", "ms", p50_ms("plan_batch"));
    layers.put("clm-core.plan_frac", "fraction", own_share("plan_batch"));
    layers.put("clm-core.finish_p50_ms", "ms", p50_ms("finish_batch"));
    layers.put(
        "bench.span_coverage_frac",
        "fraction",
        rate(child_total, batch_total),
    );
}

/// Per-layer metrics the simulated pass yields in every run.
pub fn reference_metrics(layers: &mut Layers, r: &Reference, jobs: &[Job]) {
    let images = total_images(jobs);
    layers.put("gs-scene.resize_events", "count", r.resize_events as f64);
    layers.put(
        "gs-scene.model_growth",
        "x",
        r.final_rows as f64 / r.init_rows as f64,
    );
    layers.put(
        "clm-runtime.pool_high_water",
        "bytes",
        r.pool_high_water as f64,
    );
    layers.put(
        "sim-device.compute_busy_frac",
        "fraction",
        r.sim_lanes.compute / r.makespan,
    );
    layers.put(
        "sim-device.comm_busy_frac",
        "fraction",
        r.sim_lanes.comm / r.makespan,
    );
    layers.put(
        "sim-device.adam_busy_frac",
        "fraction",
        r.sim_lanes.adam / r.makespan,
    );
    layers.put(
        "sim-device.h2d_bytes_per_image",
        "bytes",
        r.h2d as f64 / images,
    );
    layers.put(
        "sim-device.d2h_bytes_per_image",
        "bytes",
        r.d2h as f64 / images,
    );
    layers.put(
        "sim-device.ops_per_batch",
        "count",
        r.ops as f64 / total_batches(jobs) as f64,
    );
}

/// The traced half of a `--trace 1` run: the traced pass, the counts and
/// shares read off it, the tracing overhead against the untraced synchronous
/// repetitions, and the probes on the first job's final model.  `extra` runs
/// the probes only this kind of workload needs.
pub fn trace_and_probe(
    guard: &mut Guard,
    layers: &mut Layers,
    jobs: &[Job],
    reference: &Reference,
    untraced_sync: &[Vec<f64>],
    extra: impl FnOnce(&mut Layers) -> Result<(), String>,
) -> Option<Vec<Span>> {
    let traced = guard.pass("traced", total_batches(jobs), || {
        traced_pass(jobs, &reference.checksums)
    })?;
    span_metrics(layers, &traced.spans);
    traced.plan_counts.put(layers);
    let images = total_images(jobs);
    // One traced pass against the typical untraced pass — not against the
    // best trajectory, which no single pass matches on a disturbed host.
    layers.put(
        "bench.trace_overhead_frac",
        "fraction",
        1.0 - rate(images, traced.batch_s.iter().sum())
            / stats::median(&rep_rates(images, untraced_sync)),
    );
    let job = &jobs[0];
    let first = batch_slice(job.cameras.len(), job.config.batch_size, 0);
    // The probes are not batches of the trajectory: a failure fails the run
    // without changing the attempted count.
    guard.pass("probes", 0, || {
        probes::run(
            layers,
            &reference.first_model,
            &job.cameras[first.clone()],
            &job.targets[first.clone()],
            &job.config,
            &reference.sample_ops,
        );
        extra(layers)
    })?;
    Some(traced.spans)
}
