//! Runtime-driven figure summaries (bench-harness style).
//!
//! The throughput and idle-CDF artefacts (Figures 11, 12, 15, Table 7) are
//! exactly the ones that depend on *execution structure* — overlap, prefetch
//! and early finalisation — so they are produced by actually running the
//! trainers through the simulated `clm_runtime::ExecutionBackend` rather
//! than by the closed-form batch simulation.  Real reduced-scale scenes
//! provide the working sets; the engine's `cost_scale` lifts the timeline
//! costing to paper-scale Gaussian counts and resolution so the schedules
//! sit in the same bandwidth-bound regime as the paper's testbeds.
//!
//! Following the bench-harness idiom, every summary is a **single-line JSON
//! object** suitable for collection from stdout by an external harness.

use crate::cdf_quantile;
use clm_core::{ground_truth_images, SystemKind, TrainConfig};
use clm_runtime::{
    ExecutionBackend, ExecutionReport, PipelinedEngine, RuntimeConfig, ThreadedBackend,
    ThreadedConfig,
};
use gs_core::gaussian::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
    SceneSpec,
};
use sim_device::{
    gpu_idle_rate_cdf, hardware_utilization, mean_gpu_utilization, DeviceProfile, Lane, OpKind,
};

/// Paper-scale Gaussian count the runtime schedules are costed at (the
/// Rubble model size naive offloading maxes out at on the RTX 4090,
/// Figure 10).
pub(crate) const PAPER_SCALE_GAUSSIANS: f64 = 45_200_000.0;

/// Paper rendering resolution (1080p) the pixel costs are lifted to.
pub(crate) const PAPER_SCALE_PIXELS: f64 = 1920.0 * 1080.0;

/// Views per batch in the runtime summaries.
const BATCH: usize = 8;

fn runtime_scene() -> (Dataset, Vec<Image>, GaussianModel) {
    let spec = SceneSpec::of(SceneKind::Rubble);
    let dataset = generate_dataset(
        &spec,
        &DatasetConfig {
            num_gaussians: 600,
            num_views: BATCH * 2,
            width: 48,
            height: 36,
            seed: 11,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 240,
            initial_sigma: spec.extent * 0.03,
            initial_opacity: 0.4,
            seed: 3,
            ..Default::default()
        },
    );
    (dataset, targets, init)
}

/// The engine config pricing a `width`×`height` scene of `model_len`
/// Gaussians as the paper's 45.2 M-Gaussian, 1080p workload on the RTX
/// 4090, so its schedules sit in the bandwidth-bound regime.
pub(crate) fn paper_scale_config(model_len: usize, width: u32, height: u32) -> RuntimeConfig {
    RuntimeConfig {
        device: DeviceProfile::rtx4090(),
        cost_scale: PAPER_SCALE_GAUSSIANS / model_len as f64,
        pixel_cost_scale: PAPER_SCALE_PIXELS / (width as f64 * height as f64),
        ..Default::default()
    }
}

fn paper_scale_engine(init: GaussianModel, system: SystemKind, window: usize) -> PipelinedEngine {
    let config = paper_scale_config(init.len(), 48, 36);
    PipelinedEngine::new(
        init,
        TrainConfig {
            system,
            batch_size: BATCH,
            ..Default::default()
        },
        RuntimeConfig {
            prefetch_window: window,
            ..config
        },
    )
}

/// Runs one epoch (two batches) and returns the per-batch reports.
fn run_system(
    dataset: &Dataset,
    targets: &[Image],
    init: &GaussianModel,
    system: SystemKind,
    window: usize,
) -> Vec<ExecutionReport> {
    let mut engine = paper_scale_engine(init.clone(), system, window);
    engine.execute_epoch(dataset, targets)
}

/// Images per simulated second over a set of batch reports.
fn throughput(reports: &[ExecutionReport]) -> f64 {
    let views: usize = reports.iter().map(|r| r.batch.order.len()).sum();
    let time: f64 = reports.iter().map(ExecutionReport::makespan).sum();
    if time <= 0.0 {
        0.0
    } else {
        views as f64 / time
    }
}

/// Figure 11 (runtime): CLM vs naive offloading training throughput.
pub fn runtime_summary_figure11() -> String {
    let (dataset, targets, init) = runtime_scene();
    let naive = run_system(&dataset, &targets, &init, SystemKind::NaiveOffload, 2);
    let clm = run_system(&dataset, &targets, &init, SystemKind::Clm, 2);
    let naive_tp = throughput(&naive);
    let clm_tp = throughput(&clm);
    format!(
        "{{\"bench\":\"figure11_throughput_vs_naive\",\"scene\":\"rubble-synthetic\",\
         \"device\":\"RTX 4090\",\"paper_scale_gaussians\":{},\
         \"naive_images_per_s\":{:.3},\"clm_images_per_s\":{:.3},\"clm_speedup\":{:.3}}}",
        PAPER_SCALE_GAUSSIANS as u64,
        naive_tp,
        clm_tp,
        if naive_tp > 0.0 {
            clm_tp / naive_tp
        } else {
            0.0
        },
    )
}

/// Figure 12 (runtime): CLM vs the GPU-only baselines' training throughput.
pub fn runtime_summary_figure12() -> String {
    let (dataset, targets, init) = runtime_scene();
    let baseline = throughput(&run_system(
        &dataset,
        &targets,
        &init,
        SystemKind::Baseline,
        2,
    ));
    let enhanced = throughput(&run_system(
        &dataset,
        &targets,
        &init,
        SystemKind::EnhancedBaseline,
        2,
    ));
    let clm = throughput(&run_system(&dataset, &targets, &init, SystemKind::Clm, 2));
    format!(
        "{{\"bench\":\"figure12_throughput_vs_baseline\",\"scene\":\"rubble-synthetic\",\
         \"device\":\"RTX 4090\",\"paper_scale_gaussians\":{},\
         \"baseline_images_per_s\":{:.3},\"enhanced_images_per_s\":{:.3},\
         \"clm_images_per_s\":{:.3},\"clm_vs_enhanced\":{:.3}}}",
        PAPER_SCALE_GAUSSIANS as u64,
        baseline,
        enhanced,
        clm,
        if enhanced > 0.0 { clm / enhanced } else { 0.0 },
    )
}

/// Figure 13 (runtime): per-lane runtime decomposition of CLM vs naive
/// offloading, derived from **executed** [`ExecutionReport`] timelines
/// (paper-scale costing) rather than the closed-form batch simulation, plus
/// a measured serial-vs-parallel compute-lane scaling section from the
/// threaded backend: wall-clock compute-lane busy seconds at 1, 2 and 4
/// band workers, which shrink as threads increase on a multi-core host.
pub fn runtime_summary_figure13() -> String {
    let (dataset, targets, init) = runtime_scene();

    // Simulated breakdown: sum the executed timelines of one epoch and
    // normalise every lane to naive offloading's total makespan, like the
    // paper's stacked bars.
    let breakdown = |system: SystemKind| -> (f64, f64, f64, f64, f64) {
        let reports = run_system(&dataset, &targets, &init, system, 2);
        let comm: f64 = reports
            .iter()
            .map(|r| {
                r.timeline.time_by_kind(OpKind::LoadParams)
                    + r.timeline.time_by_kind(OpKind::StoreGrads)
            })
            .sum();
        let compute: f64 = reports
            .iter()
            .map(|r| {
                r.timeline.time_by_kind(OpKind::Forward) + r.timeline.time_by_kind(OpKind::Backward)
            })
            .sum();
        let adam: f64 = reports
            .iter()
            .map(|r| r.timeline.busy_time(Lane::CpuAdam))
            .sum();
        let sched: f64 = reports
            .iter()
            .map(|r| r.timeline.busy_time(Lane::CpuScheduler))
            .sum();
        let makespan: f64 = reports.iter().map(ExecutionReport::makespan).sum();
        (comm, compute, adam, sched, makespan)
    };
    let (n_comm, n_compute, n_adam, n_sched, n_total) = breakdown(SystemKind::NaiveOffload);
    let (c_comm, c_compute, c_adam, c_sched, c_total) = breakdown(SystemKind::Clm);
    let norm = |x: f64| if n_total > 0.0 { x / n_total } else { 0.0 };

    // Measured compute-lane scaling: the same scene trained by the
    // threaded backend with 1, 2 and 4 band workers.  Pure scheduling, so
    // the numerics are identical; only the lane's busy seconds change.
    let compute_by_threads: Vec<(usize, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut backend = ThreadedBackend::new(
                init.clone(),
                TrainConfig {
                    system: SystemKind::Clm,
                    batch_size: BATCH,
                    compute_threads: threads,
                    ..Default::default()
                },
                ThreadedConfig {
                    prefetch_window: 2,
                    ..Default::default()
                },
            );
            let reports = backend.execute_epoch(&dataset, &targets);
            let busy: f64 = reports.iter().map(|r| r.lanes.compute).sum();
            (threads, busy)
        })
        .collect();
    let scaling = compute_by_threads
        .iter()
        .map(|(t, s)| format!("{{\"threads\":{t},\"compute_busy_s\":{s:.6}}}"))
        .collect::<Vec<_>>()
        .join(",");

    format!(
        "{{\"bench\":\"figure13_runtime_breakdown\",\"scene\":\"rubble-synthetic\",\
         \"device\":\"RTX 4090\",\"paper_scale_gaussians\":{},\
         \"normalised_to\":\"naive_total\",\
         \"naive\":{{\"comm\":{:.3},\"compute\":{:.3},\"adam\":{:.3},\
         \"scheduling\":{:.3},\"total\":{:.3}}},\
         \"clm\":{{\"comm\":{:.3},\"compute\":{:.3},\"adam\":{:.3},\
         \"scheduling\":{:.3},\"total\":{:.3}}},\
         \"clm_speedup\":{:.3},\
         \"host_cores\":{},\
         \"measured_compute_lane\":[{}]}}",
        PAPER_SCALE_GAUSSIANS as u64,
        norm(n_comm),
        norm(n_compute),
        norm(n_adam),
        norm(n_sched),
        norm(n_total),
        norm(c_comm),
        norm(c_compute),
        norm(c_adam),
        norm(c_sched),
        norm(c_total),
        if c_total > 0.0 {
            n_total / c_total
        } else {
            0.0
        },
        sim_device::HostTopology::cached().effective_cores(),
        scaling,
    )
}

/// Figure 14 (runtime): communication volume per batch of the executed
/// schedules, both directions.  The table form prices CLM's fetches
/// analytically (host→device only); this runs the batches, so both sides
/// are what the executed fetches and gradient stores moved.
pub fn runtime_summary_figure14() -> String {
    let (dataset, targets, init) = runtime_scene();
    let naive = run_system(&dataset, &targets, &init, SystemKind::NaiveOffload, 2);
    let clm = run_system(&dataset, &targets, &init, SystemKind::Clm, 2);
    let gb_per_batch = |reports: &[ExecutionReport], bytes: fn(&ExecutionReport) -> u64| {
        reports.iter().map(bytes).sum::<u64>() as f64 / reports.len() as f64 / 1.0e9
    };
    format!(
        "{{\"bench\":\"figure14_comm_volume\",\"scene\":\"rubble-synthetic\",\
         \"device\":\"RTX 4090\",\"paper_scale_gaussians\":{},\
         \"naive_h2d_gb_per_batch\":{:.3},\"naive_d2h_gb_per_batch\":{:.3},\
         \"clm_h2d_gb_per_batch\":{:.3},\"clm_d2h_gb_per_batch\":{:.3}}}",
        PAPER_SCALE_GAUSSIANS as u64,
        gb_per_batch(&naive, ExecutionReport::comm_bytes_h2d),
        gb_per_batch(&naive, ExecutionReport::comm_bytes_d2h),
        gb_per_batch(&clm, ExecutionReport::comm_bytes_h2d),
        gb_per_batch(&clm, ExecutionReport::comm_bytes_d2h),
    )
}

/// Figure 15 (runtime): GPU idle-rate comparison between the pipelined CLM
/// schedule, the no-overlap (window 0) schedule and naive offloading.
pub fn runtime_summary_figure15() -> String {
    let (dataset, targets, init) = runtime_scene();
    let stats = |reports: Vec<ExecutionReport>| -> (f64, f64, f64, f64) {
        // Use the first iteration's timeline for the CDF (they are
        // structurally identical across iterations) and the mean idle
        // fraction across iterations for the headline number.
        let idle: f64 = reports
            .iter()
            .map(ExecutionReport::gpu_idle_fraction)
            .sum::<f64>()
            / reports.len() as f64;
        let timeline = &reports[0].timeline;
        let window = (timeline.makespan() / 100.0).max(1e-9);
        let cdf = gpu_idle_rate_cdf(timeline, window);
        (
            idle,
            mean_gpu_utilization(timeline, window),
            cdf_quantile(&cdf, 0.5),
            cdf_quantile(&cdf, 0.9),
        )
    };
    let (clm_idle, clm_util, clm_p50, clm_p90) =
        stats(run_system(&dataset, &targets, &init, SystemKind::Clm, 2));
    let (sync_idle, sync_util, _, _) =
        stats(run_system(&dataset, &targets, &init, SystemKind::Clm, 0));
    let (naive_idle, naive_util, naive_p50, naive_p90) = stats(run_system(
        &dataset,
        &targets,
        &init,
        SystemKind::NaiveOffload,
        2,
    ));
    format!(
        "{{\"bench\":\"figure15_gpu_idle_cdf\",\"scene\":\"rubble-synthetic\",\
         \"device\":\"RTX 4090\",\
         \"clm_idle_fraction\":{:.4},\"no_overlap_idle_fraction\":{:.4},\
         \"naive_idle_fraction\":{:.4},\
         \"clm_mean_gpu_util_pct\":{:.1},\"no_overlap_mean_gpu_util_pct\":{:.1},\
         \"naive_mean_gpu_util_pct\":{:.1},\
         \"clm_idle_p50_pct\":{:.1},\"clm_idle_p90_pct\":{:.1},\
         \"naive_idle_p50_pct\":{:.1},\"naive_idle_p90_pct\":{:.1},\
         \"overlap_reduces_idle\":{}}}",
        clm_idle,
        sync_idle,
        naive_idle,
        clm_util,
        sync_util,
        naive_util,
        clm_p50,
        clm_p90,
        naive_p50,
        naive_p90,
        clm_idle < sync_idle,
    )
}

/// Table 7 (runtime): Nsight-style hardware utilisation of CLM vs naive
/// offloading, derived from the executed timelines.
pub fn runtime_summary_table7() -> String {
    let (dataset, targets, init) = runtime_scene();
    let device = DeviceProfile::rtx4090();
    let util = |system: SystemKind| {
        let reports = run_system(&dataset, &targets, &init, system, 2);
        hardware_utilization(&reports[0].timeline, &device)
    };
    let naive = util(SystemKind::NaiveOffload);
    let clm = util(SystemKind::Clm);
    format!(
        "{{\"bench\":\"table7_hardware_utilization\",\"scene\":\"rubble-synthetic\",\
         \"device\":\"RTX 4090\",\
         \"naive\":{{\"cpu_util\":{:.1},\"dram_read\":{:.1},\"dram_write\":{:.1},\
         \"pcie_rx\":{:.1},\"pcie_tx\":{:.1}}},\
         \"clm\":{{\"cpu_util\":{:.1},\"dram_read\":{:.1},\"dram_write\":{:.1},\
         \"pcie_rx\":{:.1},\"pcie_tx\":{:.1}}}}}",
        naive.cpu_util,
        naive.dram_read,
        naive.dram_write,
        naive.pcie_rx,
        naive.pcie_tx,
        clm.cpu_util,
        clm.dram_read,
        clm.dram_write,
        clm.pcie_rx,
        clm.pcie_tx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_single_json_line(s: &str) {
        assert!(!s.contains('\n'), "summary must be a single line");
        assert!(
            s.starts_with('{') && s.ends_with('}'),
            "summary must be a JSON object: {s}"
        );
        // Braces must balance (nested objects allowed).
        let depth = s.chars().fold(0i32, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced braces in {s}");
    }

    #[test]
    fn figure15_summary_shows_overlap_reducing_idle() {
        let s = runtime_summary_figure15();
        assert_single_json_line(&s);
        assert!(
            s.contains("\"overlap_reduces_idle\":true"),
            "pipelined CLM must idle less than the no-overlap schedule: {s}"
        );
    }

    #[test]
    fn figure11_summary_shows_clm_beating_naive() {
        let s = runtime_summary_figure11();
        assert_single_json_line(&s);
        let speedup: f64 = s
            .split("\"clm_speedup\":")
            .nth(1)
            .and_then(|rest| rest.trim_end_matches('}').parse().ok())
            .expect("summary must contain clm_speedup");
        assert!(speedup > 1.0, "CLM must out-run naive offloading: {s}");
    }

    #[test]
    fn figure12_and_table7_summaries_are_single_json_lines() {
        assert_single_json_line(&runtime_summary_figure12());
        assert_single_json_line(&runtime_summary_table7());
    }

    #[test]
    fn figure14_summary_reports_both_directions() {
        let s = runtime_summary_figure14();
        assert_single_json_line(&s);
        let field = |name: &str| -> f64 {
            let rest = &s[s.find(&format!("\"{name}\":")).expect(name) + name.len() + 3..];
            rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
        };
        // CLM moves far less than naive offloading's whole model each way.
        let d2h = field("clm_d2h_gb_per_batch");
        assert!(d2h > 0.0 && d2h < field("naive_d2h_gb_per_batch"));
        assert!(field("clm_h2d_gb_per_batch") < field("naive_h2d_gb_per_batch"));
    }

    #[test]
    fn figure13_summary_breaks_down_executed_runtime() {
        let s = runtime_summary_figure13();
        assert_single_json_line(&s);
        // Naive's own makespan normalised to itself is exactly 1.
        assert!(s.contains("\"normalised_to\":\"naive_total\""), "{s}");
        assert!(s.contains("\"total\":1.000"), "{s}");
        // The pipelined CLM schedule beats naive end-to-end.
        let speedup: f64 = s
            .split("\"clm_speedup\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("summary must contain clm_speedup");
        assert!(speedup > 1.0, "CLM must out-run naive offloading: {s}");
        // The measured compute-lane section has all three thread counts.
        for t in [1, 2, 4] {
            assert!(s.contains(&format!("{{\"threads\":{t},")), "{s}");
        }
    }
}
