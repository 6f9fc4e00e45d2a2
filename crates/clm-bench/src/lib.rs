//! Regenerates every table and figure of the CLM paper's evaluation (§6)
//! against the simulated device substrate and the synthetic evaluation
//! scenes, and hosts the op-trace and fault-recovery tooling.
//!
//! Each `report_*` function returns the rows/series of one paper artefact as
//! a formatted text table; the binaries in `src/bin/` are thin wrappers that
//! print them (`paper_figures`), record / replay / report op traces
//! (`trace_*`) and run the chaos matrix (`chaos_bench`).  Absolute numbers
//! differ from the paper (the substrate is a calibrated simulator, not the
//! authors' testbeds); the *shapes* — who wins, by roughly what factor, and
//! where the crossovers fall — are the reproduction target.
//!
//! Performance numbers do not come from this crate: the repo's one
//! benchmark is `benchmarks/harness` (`BENCHMARK.json`).
#![forbid(unsafe_code)]

mod args;
pub mod chaos;
pub mod runtime_reports;
pub mod trace;

pub use args::Args;
pub use chaos::{looks_like_chaos_json, run_chaos_bench, ChaosBench, ChaosScale};
pub use runtime_reports::{
    runtime_summary_figure11, runtime_summary_figure12, runtime_summary_figure13,
    runtime_summary_figure14, runtime_summary_figure15, runtime_summary_table7,
};
pub use trace::{record_trace, TraceScale, TRACE_BACKENDS};

use clm_core::{
    gpu_memory_required, ground_truth_images, max_trainable_gaussians, pinned_memory_required,
    simulate_batch, synthetic_microbatch_stats, OrderingStrategy, SceneProfile, SystemKind,
    TrainConfig, Trainer,
};
use gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};
use sim_device::{
    empirical_cdf, gpu_idle_rate_cdf, hardware_utilization, DeviceProfile, Lane, OpKind, GIB,
};

/// Scale factor note printed by every report: the synthetic scenes are
/// ~1/10⁴ of the paper's Gaussian counts; analytic experiments evaluate the
/// memory/performance model at full scale using sparsity measured on the
/// synthetic scenes.
pub const SCALE_NOTE: &str =
    "synthetic scenes at reduced scale; sparsity/locality measured on them, \
     memory & performance evaluated analytically at full paper scale";

/// Dataset size used when measuring scene profiles (kept modest so every
/// report runs in seconds on one CPU core).
pub fn profile_dataset_config() -> DatasetConfig {
    DatasetConfig {
        num_gaussians: 4_000,
        num_views: 256,
        width: 48,
        height: 36,
        seed: 2026,
    }
}

/// Generates the synthetic dataset for one paper scene.
pub fn scene_dataset(kind: SceneKind) -> gs_scene::Dataset {
    generate_dataset(&SceneSpec::of(kind), &profile_dataset_config())
}

/// Measures the [`SceneProfile`] of one paper scene under an ordering
/// strategy, substituting the paper's full resolution and batch size.
pub fn measured_profile(kind: SceneKind, ordering: OrderingStrategy) -> SceneProfile {
    let dataset = scene_dataset(kind);
    SceneProfile::measure(&dataset, ordering, 7)
}

/// Measures all five scene profiles.
pub fn all_profiles(ordering: OrderingStrategy) -> Vec<(SceneKind, SceneProfile)> {
    SceneKind::ALL
        .iter()
        .map(|&k| (k, measured_profile(k, ordering)))
        .collect()
}

/// The paper-reference scene profiles (sparsity and locality taken from the
/// paper's own reported numbers) used for paper-scale analytic experiments.
pub fn paper_profiles() -> Vec<(SceneKind, SceneProfile)> {
    SceneKind::ALL
        .iter()
        .map(|&k| (k, SceneProfile::paper_reference(k)))
        .collect()
}

/// Formats a simple aligned text table.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:w$}", h, w = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

fn gib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / GIB as f64)
}

/// Value at quantile `q` of an empirical CDF given as sorted
/// `(value, cumulative_fraction)` pairs (0 for an empty CDF).  Shared by the
/// table reports and the runtime JSON summaries so every figure uses the
/// same quantile convention.
pub(crate) fn cdf_quantile(cdf: &[(f64, f64)], q: f64) -> f64 {
    if cdf.is_empty() {
        return 0.0;
    }
    let idx = ((cdf.len() as f64 * q).ceil() as usize).clamp(1, cdf.len()) - 1;
    cdf[idx].0
}

fn millions(n: u64) -> String {
    format!("{:.1}", n as f64 / 1e6)
}

/// Table 2: Gaussian count and minimum training memory demand per scene.
pub fn report_table2_memory_demand() -> String {
    let rows: Vec<Vec<String>> = SceneSpec::all()
        .iter()
        .map(|s| {
            vec![
                s.kind.to_string(),
                format!("{}x{}", s.full_resolution.0, s.full_resolution.1),
                millions(s.full_gaussians),
                gib(s.full_memory_demand_bytes()),
            ]
        })
        .collect();
    format_table(
        "Table 2: memory demand of the evaluation scenes",
        &[
            "Scene",
            "Resolution",
            "# Gaussians (M)",
            "Model-state demand (GB)",
        ],
        &rows,
    )
}

/// Figure 5: empirical CDF of per-view sparsity ρ for every scene.
pub fn report_figure5_sparsity_cdf() -> String {
    let mut out = String::new();
    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut rows = Vec::new();
    for kind in SceneKind::ALL {
        let dataset = scene_dataset(kind);
        let rho = dataset.sparsity_profile();
        let cdf = empirical_cdf(&rho);
        let mut row = vec![kind.to_string()];
        for &q in &quantiles {
            row.push(format!("{:.4}", cdf_quantile(&cdf, q)));
        }
        let mean = rho.iter().sum::<f64>() / rho.len() as f64;
        row.push(format!("{mean:.4}"));
        rows.push(row);
    }
    out.push_str(&format_table(
        "Figure 5: per-view sparsity rho quantiles (fraction of Gaussians per view)",
        &["Scene", "p10", "p25", "p50", "p75", "p90", "max", "mean"],
        &rows,
    ));
    out.push_str(&format!("note: {SCALE_NOTE}\n"));
    out
}

/// Figure 8: maximum trainable model size before OOM, per system, testbed
/// and scene.
pub fn report_figure8_max_model_size() -> String {
    let mut out = String::new();
    let profiles = paper_profiles();
    for device in [DeviceProfile::rtx2080ti(), DeviceProfile::rtx4090()] {
        let mut rows = Vec::new();
        for (kind, scene) in &profiles {
            let mut row = vec![kind.to_string()];
            for system in SystemKind::ALL {
                let n = max_trainable_gaussians(system, &device, scene);
                row.push(millions(n));
            }
            rows.push(row);
        }
        out.push_str(&format_table(
            &format!(
                "Figure 8 ({}): max trainable model size (million Gaussians)",
                device.name
            ),
            &["Scene", "Baseline", "Enhanced", "Naive Offload", "CLM"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Figure 9: reconstruction quality (PSNR) versus model size on the
/// BigCity-like scene, trained for real with CLM at reduced scale.
pub fn report_figure9_quality_scaling() -> String {
    let spec = SceneSpec::of(SceneKind::BigCity);
    let dataset = generate_dataset(
        &spec,
        &DatasetConfig {
            num_gaussians: 700,
            num_views: 24,
            width: 48,
            height: 36,
            seed: 13,
        },
    );
    let targets = ground_truth_images(&dataset);
    let mut rows = Vec::new();
    for &model_size in &[50usize, 100, 200, 400] {
        let init = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: model_size,
                // The initial splat size must be proportional to the scene
                // extent, as 3DGS does when initialising from a point cloud.
                initial_sigma: spec.extent * 0.03,
                initial_opacity: 0.4,
                seed: 3,
                ..Default::default()
            },
        );
        let mut trainer = Trainer::new(
            init,
            TrainConfig {
                system: SystemKind::Clm,
                batch_size: 8,
                ..Default::default()
            },
        );
        let mut last_loss = 0.0;
        for _ in 0..8 {
            let reports = trainer.train_epoch(&dataset, &targets);
            last_loss = reports.iter().map(|r| r.loss).sum::<f32>() / reports.len() as f32;
        }
        let psnr = trainer.evaluate_psnr(&dataset.cameras, &targets);
        rows.push(vec![
            model_size.to_string(),
            format!("{psnr:.2}"),
            format!("{last_loss:.4}"),
        ]);
    }
    let mut out = format_table(
        "Figure 9: PSNR vs model size (BigCity-like synthetic scene, CLM training)",
        &["Model size (Gaussians)", "PSNR (dB)", "final L1 loss"],
        &rows,
    );
    out.push_str(
        "note: reduced-scale functional training; the paper's claim is the upward trend\n",
    );
    out
}

/// Figure 10: GPU memory breakdown for Rubble and BigCity at the three
/// reference model sizes.
pub fn report_figure10_memory_breakdown() -> String {
    let mut out = String::new();
    let device = DeviceProfile::rtx4090();
    let cases = [
        (
            SceneKind::Rubble,
            vec![15_300_000u64, 30_400_000, 45_200_000],
        ),
        (
            SceneKind::BigCity,
            vec![15_300_000, 46_000_000, 102_200_000],
        ),
    ];
    for (kind, sizes) in cases {
        let scene = SceneProfile::paper_reference(kind);
        let mut rows = Vec::new();
        for &n in &sizes {
            for system in SystemKind::ALL {
                let est = gpu_memory_required(system, n, &scene);
                let fits = est.total() <= device.usable_gpu_memory();
                rows.push(vec![
                    millions(n),
                    system.to_string(),
                    gib(est.model_state),
                    gib(est.others()),
                    if fits {
                        gib(est.total())
                    } else {
                        "OOM".to_string()
                    },
                ]);
            }
        }
        out.push_str(&format_table(
            &format!("Figure 10 ({kind}, RTX 4090): GPU memory breakdown (GB)"),
            &[
                "Model size (M)",
                "System",
                "Model states",
                "Others",
                "Total",
            ],
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Figures 11 and 12: training throughput per scene and testbed, for a given
/// pair of systems and a rule for choosing the model size.
fn throughput_report(title: &str, systems: &[SystemKind], size_limited_by: SystemKind) -> String {
    let mut out = String::new();
    let profiles = paper_profiles();
    for device in [DeviceProfile::rtx2080ti(), DeviceProfile::rtx4090()] {
        let mut rows = Vec::new();
        for (kind, scene) in &profiles {
            let n = max_trainable_gaussians(size_limited_by, &device, scene);
            let mut row = vec![kind.to_string(), millions(n)];
            for &system in systems {
                let with_cache = system == SystemKind::Clm;
                let stats = synthetic_microbatch_stats(scene, n, with_cache);
                let sim = simulate_batch(system, &device, scene, n, &stats);
                row.push(format!("{:.1}", sim.throughput));
            }
            rows.push(row);
        }
        let names: Vec<String> = systems.iter().map(|s| s.to_string()).collect();
        let mut headers = vec!["Scene", "Model size (M)"];
        headers.extend(names.iter().map(String::as_str));
        out.push_str(&format_table(
            &format!("{title} ({})  [images/s]", device.name),
            &headers,
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Figure 11: CLM vs naive offloading throughput at the largest model size
/// naive offloading supports.
pub fn report_figure11_throughput_vs_naive() -> String {
    throughput_report(
        "Figure 11: CLM vs naive offloading throughput",
        &[SystemKind::NaiveOffload, SystemKind::Clm],
        SystemKind::NaiveOffload,
    )
}

/// Figure 12: CLM vs GPU-only baselines at the largest model size the
/// baseline supports.
pub fn report_figure12_throughput_vs_baseline() -> String {
    throughput_report(
        "Figure 12: CLM vs GPU-only baselines throughput",
        &[
            SystemKind::Baseline,
            SystemKind::EnhancedBaseline,
            SystemKind::Clm,
        ],
        SystemKind::Baseline,
    )
}

/// Figure 13: runtime decomposition of one batch for Rubble and BigCity on
/// the RTX 4090, CLM vs naive offloading, normalised to naive's total.
pub fn report_figure13_runtime_breakdown() -> String {
    let device = DeviceProfile::rtx4090();
    let mut rows = Vec::new();
    for kind in [SceneKind::Rubble, SceneKind::BigCity] {
        let scene = SceneProfile::paper_reference(kind);
        let n = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene);
        let stats = synthetic_microbatch_stats(&scene, n, true);

        let naive = simulate_batch(SystemKind::NaiveOffload, &device, &scene, n, &stats);
        let naive_total = naive.timeline.makespan();
        let naive_comm = naive.timeline.time_by_kind(OpKind::LoadParams)
            + naive.timeline.time_by_kind(OpKind::StoreGrads);
        let naive_compute = naive.timeline.time_by_kind(OpKind::Forward)
            + naive.timeline.time_by_kind(OpKind::Backward);
        let naive_adam = naive.timeline.busy_time(Lane::CpuAdam);
        rows.push(vec![
            kind.to_string(),
            "Naive Offloading".into(),
            format!("{:.2}", naive_comm / naive_total),
            format!("{:.2}", naive_compute / naive_total),
            format!("{:.2}", naive_adam / naive_total),
            "0.00".into(),
            "1.00".into(),
        ]);

        let clm = simulate_batch(SystemKind::Clm, &device, &scene, n, &stats);
        let pipeline_end = clm
            .timeline
            .ops()
            .iter()
            .filter(|o| o.lane == Lane::GpuCompute || o.lane == Lane::GpuComm)
            .map(|o| o.end)
            .fold(0.0f64, f64::max);
        rows.push(vec![
            kind.to_string(),
            "CLM".into(),
            "-".into(),
            format!("{:.2}", pipeline_end / naive_total),
            format!("{:.2}", clm.adam_trailing_time / naive_total),
            format!("{:.2}", clm.scheduling_time / naive_total),
            format!("{:.2}", clm.timeline.makespan() / naive_total),
        ]);
    }
    format_table(
        "Figure 13: runtime decomposition (normalised to naive offloading total, RTX 4090)",
        &[
            "Scene",
            "System",
            "Communication",
            "Compute/pipeline",
            "Non-overlapped CPU Adam",
            "Scheduling",
            "Total",
        ],
        &rows,
    )
}

/// Figure 14: average CPU→GPU communication volume per training batch for
/// naive offloading, CLM without caching, and the four ordering strategies.
pub fn report_figure14_comm_volume() -> String {
    let device = DeviceProfile::rtx4090();
    let mut rows = Vec::new();
    for kind in SceneKind::ALL {
        let dataset = scene_dataset(kind);
        let sets = dataset.visibility_sets(&dataset.ground_truth);
        let spec = SceneSpec::of(kind);
        // Model size: what naive offloading supports on the 4090 (Figure 8b).
        let scene_ref = SceneProfile::paper_reference(kind);
        let n = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene_ref);
        let per_gaussian_scale = n as f64 / dataset.ground_truth.len() as f64;

        let naive_bytes = n * 59 * 4;
        let batch = spec.batch_size.min(sets.len()).max(2);

        // Mean over batches of the measured fetch volume, scaled to the
        // full-scale Gaussian count.
        let mean_fetch = |strategy: Option<OrderingStrategy>| -> f64 {
            let mut totals = Vec::new();
            for (b_idx, chunk) in sets.chunks(batch).enumerate() {
                if chunk.len() < 2 {
                    continue;
                }
                let cams = &dataset.cameras[b_idx * batch..b_idx * batch + chunk.len()];
                let bytes = match strategy {
                    None => clm_core::batch_fetch_bytes_no_cache(chunk),
                    Some(s) => {
                        let order = clm_core::order_batch(s, cams, chunk, 7 + b_idx as u64);
                        clm_core::ordered_fetch_bytes(chunk, &order)
                    }
                };
                totals.push(bytes as f64 * per_gaussian_scale);
            }
            totals.iter().sum::<f64>() / totals.len().max(1) as f64
        };

        let mut row = vec![kind.to_string(), gib(naive_bytes)];
        row.push(format!("{:.1}", mean_fetch(None) / GIB as f64));
        for strategy in OrderingStrategy::ALL {
            row.push(format!("{:.1}", mean_fetch(Some(strategy)) / GIB as f64));
        }
        rows.push(row);
    }
    let mut out = format_table(
        "Figure 14: CPU->GPU communication volume per batch (GB, RTX 4090 model sizes)",
        &[
            "Scene",
            "Naive",
            "No Cache",
            "Random",
            "Camera",
            "GS Count",
            "TSP (CLM)",
        ],
        &rows,
    );
    out.push_str(&format!("note: {SCALE_NOTE}\n"));
    out
}

/// Table 5: training throughput and CPU Adam trailing time under the four
/// ordering strategies.
pub fn report_table5_ordering_strategies() -> String {
    let device = DeviceProfile::rtx4090();
    let mut thr_rows = Vec::new();
    let mut trail_rows = Vec::new();
    for kind in SceneKind::ALL {
        let dataset = scene_dataset(kind);
        let mut thr_row = vec![kind.to_string()];
        let mut trail_row = vec![kind.to_string()];
        for strategy in OrderingStrategy::ALL {
            let scene = SceneProfile::measure(&dataset, strategy, 7);
            let n = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene);
            let stats = synthetic_microbatch_stats(&scene, n, true);
            let sim = simulate_batch(SystemKind::Clm, &device, &scene, n, &stats);
            thr_row.push(format!("{:.1}", sim.throughput));
            trail_row.push(format!("{:.1}", sim.adam_trailing_time * 1e3));
        }
        thr_rows.push(thr_row);
        trail_rows.push(trail_row);
    }
    let mut out = format_table(
        "Table 5a: CLM training throughput per ordering strategy (images/s, RTX 4090)",
        &["Scene", "Random", "Camera", "GS Count", "TSP"],
        &thr_rows,
    );
    out.push('\n');
    out.push_str(&format_table(
        "Table 5b: CPU Adam trailing time per ordering strategy (ms)",
        &["Scene", "Random", "Camera", "GS Count", "TSP"],
        &trail_rows,
    ));
    out
}

/// Figure 15: GPU idle-rate CDF summary (mean GPU utilisation and idle-rate
/// quartiles) for CLM vs naive offloading.
pub fn report_figure15_gpu_idle_cdf() -> String {
    let device = DeviceProfile::rtx4090();
    let mut rows = Vec::new();
    for kind in SceneKind::ALL {
        let scene = SceneProfile::paper_reference(kind);
        let n = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene);
        let stats = synthetic_microbatch_stats(&scene, n, true);
        for system in [SystemKind::NaiveOffload, SystemKind::Clm] {
            let sim = simulate_batch(system, &device, &scene, n, &stats);
            let window = (sim.timeline.makespan() / 100.0).max(1e-6);
            let cdf = gpu_idle_rate_cdf(&sim.timeline, window);
            let util = sim_device::mean_gpu_utilization(&sim.timeline, window);
            rows.push(vec![
                kind.to_string(),
                system.to_string(),
                format!("{:.1}", util),
                format!("{:.0}", cdf_quantile(&cdf, 0.5)),
                format!("{:.0}", cdf_quantile(&cdf, 0.9)),
            ]);
        }
    }
    format_table(
        "Figure 15: GPU idle rate (mean SMs-active %, idle-rate p50/p90) on RTX 4090",
        &[
            "Scene",
            "System",
            "Mean GPU util (%)",
            "Idle rate p50 (%)",
            "Idle rate p90 (%)",
        ],
        &rows,
    )
}

/// Table 6: pinned host memory CLM uses at the maximum model size of each
/// testbed/scene.
pub fn report_table6_pinned_memory() -> String {
    let mut rows = Vec::new();
    let profiles = paper_profiles();
    for device in [DeviceProfile::rtx2080ti(), DeviceProfile::rtx4090()] {
        let mut row = vec![device.name.clone()];
        for (_, scene) in &profiles {
            let n = max_trainable_gaussians(SystemKind::Clm, &device, scene);
            row.push(gib(pinned_memory_required(n)));
        }
        rows.push(row);
    }
    format_table(
        "Table 6: pinned memory usage of CLM at max model size (GB)",
        &[
            "Testbed", "Bicycle", "Rubble", "Alameda", "Ithaca", "BigCity",
        ],
        &rows,
    )
}

/// Table 7: hardware utilisation of CLM vs naive offloading.
pub fn report_table7_hardware_utilization() -> String {
    let device = DeviceProfile::rtx4090();
    let mut rows = Vec::new();
    for kind in SceneKind::ALL {
        let scene = SceneProfile::paper_reference(kind);
        let n = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene);
        let stats = synthetic_microbatch_stats(&scene, n, true);
        for system in [SystemKind::NaiveOffload, SystemKind::Clm] {
            let sim = simulate_batch(system, &device, &scene, n, &stats);
            let util = hardware_utilization(&sim.timeline, &device);
            rows.push(vec![
                kind.to_string(),
                system.to_string(),
                format!("{:.1}", util.cpu_util),
                format!("{:.1}", util.dram_read),
                format!("{:.1}", util.dram_write),
                format!("{:.1}", util.pcie_rx),
                format!("{:.1}", util.pcie_tx),
            ]);
        }
    }
    format_table(
        "Table 7: hardware utilisation (%), CLM vs naive offloading on RTX 4090",
        &[
            "Scene",
            "System",
            "CPU util",
            "DRAM read",
            "DRAM write",
            "PCIe RX",
            "PCIe TX",
        ],
        &rows,
    )
}

/// Every experiment in paper order: `(id, table-form generator, one-line
/// JSON summary generator)`.  The JSON form exists for the artefacts
/// measured by executing the trainers on the runtime.
pub fn all_reports() -> Vec<(&'static str, fn() -> String, Option<fn() -> String>)> {
    type Gen = fn() -> String;
    vec![
        ("table2", report_table2_memory_demand as Gen, None),
        ("figure5", report_figure5_sparsity_cdf, None),
        ("figure8", report_figure8_max_model_size, None),
        ("figure9", report_figure9_quality_scaling, None),
        ("figure10", report_figure10_memory_breakdown, None),
        (
            "figure11",
            report_figure11_throughput_vs_naive,
            Some(runtime_summary_figure11 as Gen),
        ),
        (
            "figure12",
            report_figure12_throughput_vs_baseline,
            Some(runtime_summary_figure12),
        ),
        (
            "figure13",
            report_figure13_runtime_breakdown,
            Some(runtime_summary_figure13),
        ),
        (
            "figure14",
            report_figure14_comm_volume,
            Some(runtime_summary_figure14),
        ),
        ("table5", report_table5_ordering_strategies, None),
        (
            "figure15",
            report_figure15_gpu_idle_cdf,
            Some(runtime_summary_figure15),
        ),
        ("table6", report_table6_pinned_memory, None),
        (
            "table7",
            report_table7_hardware_utilization,
            Some(runtime_summary_table7),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let t = format_table(
            "demo",
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        assert!(t.contains("# demo"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn report_registry_is_complete() {
        let ids: Vec<&str> = all_reports().iter().map(|(id, ..)| *id).collect();
        for expected in [
            "table2", "figure5", "figure8", "figure9", "figure10", "figure11", "figure12",
            "figure13", "figure14", "table5", "figure15", "table6", "table7",
        ] {
            assert!(ids.contains(&expected), "missing report {expected}");
        }
    }

    #[test]
    fn fast_reports_produce_output() {
        // Smoke-test the cheap reports (the expensive ones run in the
        // binaries and integration tests).
        for report in [
            report_table2_memory_demand(),
            report_figure8_max_model_size(),
        ] {
            assert!(report.len() > 100);
            assert!(report.contains("BigCity"));
        }
    }
}
