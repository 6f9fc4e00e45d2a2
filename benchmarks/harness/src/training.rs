//! The three training workloads: one simulated pass for the counts and the
//! reference model, then a warm-up and `R` timed repetitions of a threaded
//! pass (`ThreadedBackend::run_batch`, the product path) and a synchronous
//! pass (`Trainer::train_batch`) over the same fixed trajectory.

use crate::jobs::{self, check_model, Job};
use crate::probes;
use crate::procfs;
use crate::run::{product_first, rate, startup_calibration, Guard, Layers, Outcome, Rep, Timed};
use crate::stats;
use crate::sys;
use crate::watchdog;
use crate::workload::{
    build_scene, dataset_config, init_config, init_model, Scene, Training, Workload,
};
use clm_runtime::{LaneBusy, ThreadedBackend};
use clm_serve::TenantSpec;
use std::time::Instant;

fn job<'a>(w: &Workload, t: &Training, scene: &'a Scene, seed: u64) -> (Job<'a>, f64) {
    let start = Instant::now();
    let init = init_model(scene, t, seed);
    let init_s = start.elapsed().as_secs_f64();
    let job = Job {
        cameras: &scene.cameras,
        targets: &scene.targets,
        init,
        config: w.train_config(t.batch_size, t.densify.as_ref(), seed),
        runtime: w.runtime_config(t.sim_cost_scale, t.sim_pixel_cost_scale),
        staging_capacity: None,
        batches: t.batches,
    };
    (job, init_s)
}

struct ThreadedPass {
    batch_s: Vec<f64>,
    /// Process CPU seconds of each batch (the lanes are scoped to a batch, so
    /// every thread's work for it ends inside it).
    batch_cpu_s: Vec<f64>,
    lanes: LaneBusy,
    lane_wall: f64,
    pool_recycle: f64,
    pool_denied: u64,
    lane_retries: u64,
}

fn threaded_pass(
    job: &Job,
    backend: &mut ThreadedBackend,
    reference: u64,
) -> Result<ThreadedPass, String> {
    let mut out = ThreadedPass {
        batch_s: Vec::with_capacity(job.batches),
        batch_cpu_s: Vec::with_capacity(job.batches),
        lanes: LaneBusy::default(),
        lane_wall: 0.0,
        pool_recycle: 0.0,
        pool_denied: 0,
        lane_retries: 0,
    };
    let no_clock = || "cannot read the process CPU clock".to_string();
    for (b, s) in job.slices().enumerate() {
        watchdog::note_batch(b);
        let cpu = sys::process_cpu_seconds().ok_or_else(no_clock)?;
        let start = Instant::now();
        let report = backend.run_batch(&job.cameras[s.clone()], &job.targets[s]);
        out.batch_s.push(start.elapsed().as_secs_f64());
        out.batch_cpu_s
            .push(sys::process_cpu_seconds().ok_or_else(no_clock)? - cpu);
        out.lanes.compute += report.lanes.compute;
        out.lanes.comm += report.lanes.comm;
        out.lanes.adam += report.lanes.adam;
        out.lanes.scheduling += report.lanes.scheduling;
        out.lane_wall += report.wall_seconds;
        out.lane_retries += report.faults.retries;
    }
    let pool = backend.pool_stats();
    if pool.outstanding != 0 {
        return Err(format!(
            "{} staging buffers still leased after the pass",
            pool.outstanding
        ));
    }
    out.pool_recycle = pool.recycle_rate();
    out.pool_denied = pool.denied;
    check_model("threaded backend", backend.trainer().model(), reference)?;
    Ok(out)
}

fn lane_frac(reps: &[ThreadedPass], lane: impl Fn(&LaneBusy) -> f64) -> f64 {
    stats::median(
        &reps
            .iter()
            .map(|p| rate(lane(&p.lanes), p.lane_wall))
            .collect::<Vec<_>>(),
    )
}

pub fn run(
    w: &Workload,
    t: &Training,
    seed: u64,
    trace: bool,
    guard: &mut Guard,
) -> Option<Outcome> {
    // Inputs of the simulated pass (and, in a traced run, of the traced pass
    // and the probes).  This first, cold set-up is not a set-up sample.
    let scene = build_scene(&t.scene, seed);
    let reference_jobs = [job(w, t, &scene, seed).0];
    let reference = guard.pass("sim", t.batches, || jobs::sim_pass(&reference_jobs))?;
    let checksum = reference.checksums[0];

    // Warm-up repetition (untimed), then at least R timed ones, and more
    // for as long as the run's time allows.
    let mut timed = Timed {
        images_per_pass: jobs::total_images(&reference_jobs),
        ..Timed::default()
    };
    let mut threaded_reps: Vec<ThreadedPass> = Vec::new();
    let (mut gt_render_s, mut dataset_gen_s, mut init_s, mut backend_build_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0.. {
        // Fresh set-up, timed: start-up calibration, generated inputs,
        // initial model, both engines.
        procfs::reset_peak_rss();
        let start = Instant::now();
        let autotune_s = startup_calibration();
        let scene = build_scene(&t.scene, seed);
        let (job, job_init_s) = job(w, t, &scene, seed);
        let build = Instant::now();
        let mut backend =
            ThreadedBackend::new(job.init.clone(), job.config.clone(), w.threaded_config());
        let build_s = build.elapsed().as_secs_f64();
        let mut trainers = [job.trainer()];
        let setup_s = start.elapsed().as_secs_f64();

        let (threaded, sync_s) = guard.both_passes(
            r,
            t.batches,
            "threaded",
            || threaded_pass(&job, &mut backend, checksum),
            || {
                jobs::sync_pass(
                    std::slice::from_ref(&job),
                    &mut trainers,
                    &reference.checksums,
                )
            },
        )?;
        if r == 0 {
            let threaded_wall: f64 = threaded.batch_s.iter().sum();
            guard.calibrate(threaded_wall.max(sync_s.iter().sum()));
            continue;
        }
        timed.push(Rep {
            setup_s,
            autotune_s,
            product_first: product_first(r),
            product_s: threaded.batch_s.clone(),
            product_batch_s: threaded.batch_s.clone(),
            product_cpu_s: threaded.batch_cpu_s.clone(),
            sync_s,
            peak_rss_mib: guard.require(procfs::peak_rss_mib(), "VmHWM in /proc/self/status")?,
        });
        gt_render_s.push(scene.times.gt_render_s);
        dataset_gen_s.push(scene.times.dataset_gen_s);
        init_s.push(job_init_s);
        backend_build_s.push(build_s);
        threaded_reps.push(threaded);
        if !guard.another_rep(r, w.repetitions, start.elapsed()) {
            break;
        }
    }

    let mut layers = Layers::default();
    jobs::reference_metrics(&mut layers, &reference, &reference_jobs);
    layers.put("gs-render.gt_render_s", "s", stats::median(&gt_render_s));
    layers.put("gs-scene.dataset_gen_s", "s", stats::median(&dataset_gen_s));
    layers.put("gs-scene.init_model_s", "s", stats::median(&init_s));
    let compute_busy = lane_frac(&threaded_reps, |l| l.compute);
    layers.put("clm-runtime.compute_busy_frac", "fraction", compute_busy);
    layers.put(
        "clm-runtime.comm_busy_frac",
        "fraction",
        lane_frac(&threaded_reps, |l| l.comm),
    );
    layers.put(
        "clm-runtime.adam_busy_frac",
        "fraction",
        lane_frac(&threaded_reps, |l| l.adam),
    );
    layers.put(
        "clm-runtime.sched_busy_frac",
        "fraction",
        lane_frac(&threaded_reps, |l| l.scheduling),
    );
    layers.put(
        "clm-runtime.compute_stall_frac",
        "fraction",
        1.0 - compute_busy,
    );
    layers.put(
        "clm-runtime.backend_build_ms",
        "ms",
        1e3 * stats::median(&backend_build_s),
    );
    layers.put(
        "clm-runtime.pool_recycle_frac",
        "fraction",
        stats::median(
            &threaded_reps
                .iter()
                .map(|p| p.pool_recycle)
                .collect::<Vec<_>>(),
        ),
    );
    layers.put(
        "clm-runtime.pool_denied",
        "count",
        threaded_reps.iter().map(|p| p.pool_denied).sum::<u64>() as f64,
    );
    layers.put(
        "clm-runtime.lane_retries",
        "count",
        threaded_reps.iter().map(|p| p.lane_retries).sum::<u64>() as f64,
    );

    let spans = if trace {
        let job = &reference_jobs[0];
        let tenant = TenantSpec::new(
            "probe",
            "probe-scene",
            job.config.clone(),
            init_config(&scene.spec, t.model_gaussians, t.init_sigma_frac, seed),
        );
        jobs::trace_and_probe(
            guard,
            &mut layers,
            &reference_jobs,
            &reference,
            &timed.sync,
            |layers| probes::service(layers, t.scene.kind, dataset_config(&t.scene, seed), tenant),
        )?
    } else {
        Vec::new()
    };
    Some(Outcome {
        timed,
        counts: reference.counts,
        layers,
        spans,
    })
}
