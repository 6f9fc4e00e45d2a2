//! From a run's samples to named metrics, the one-line result the driver
//! reads, and the raw log and provenance written beside it.

use crate::json::Json;
use crate::run::{rep_rates, Metric, Outcome, Timed};
use crate::stats;
use crate::workload::{Invariant, Workload};
use std::path::Path;
use std::process::Command;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Whether the value is an exact function of `(workload, seed)`.
    pub count: bool,
}

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        count: true,
    }
}

/// `run_seconds` of `BENCHMARK.json`: what `run` and `selfcheck` pass on as
/// `--seconds` unless told otherwise.
pub const RUN_SECONDS: f64 = 42.0;

/// The eleven end-to-end metrics, identical on every workload.  A unit test
/// holds `BENCHMARK.json` to this table.
pub const END_TO_END: [EndToEnd; 11] = [
    wall("setup_s", "s", Better::Lower, 0.25),
    wall("images_per_s", "images/s", Better::Higher, 0.25),
    wall("batch_p50_ms", "ms", Better::Lower, 0.25),
    wall("sync_images_per_s", "images/s", Better::Higher, 0.25),
    wall("cpu_ms_per_image", "ms", Better::Lower, 0.25),
    wall("peak_rss_mb", "MiB", Better::Lower, 0.25),
    count("sim_images_per_s", "images/s", Better::Higher, 0.12),
    count("sim_gpu_idle_frac", "fraction", Better::Lower, 0.10),
    count("comm_bytes_per_image", "bytes", Better::Lower, 0.15),
    count("device_mem_mb", "MiB", Better::Lower, 0.25),
    count("final_psnr_db", "dB", Better::Higher, 0.25),
];

/// Every per-layer metric a traced run prints, with its unit and direction.
/// A workload that never exercises a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str, Better); 78] = [
    ("gs-core.cull_rows_per_s", "rows/s", Better::Higher),
    ("gs-core.visible_frac", "fraction", Better::Lower),
    ("gs-render.self_frac", "fraction", Better::Lower),
    ("gs-render.forward_rows_per_s", "rows/s", Better::Higher),
    ("gs-render.backward_rows_per_s", "rows/s", Better::Higher),
    ("gs-render.microbatch_p50_ms", "ms", Better::Lower),
    ("gs-render.gt_render_s", "s", Better::Lower),
    ("gs-render.band2_speedup", "x", Better::Higher),
    ("gs-optim.self_frac", "fraction", Better::Lower),
    ("gs-optim.adam_inplace_rows_per_s", "rows/s", Better::Higher),
    ("gs-optim.adam_packed_rows_per_s", "rows/s", Better::Higher),
    ("gs-optim.pack_rows_per_s", "rows/s", Better::Higher),
    ("gs-scene.resize_p50_ms", "ms", Better::Lower),
    ("gs-scene.resize_rows_per_s", "rows/s", Better::Higher),
    ("gs-scene.resize_events", "count", Better::Higher),
    ("gs-scene.model_growth", "x", Better::Higher),
    ("gs-scene.dataset_gen_s", "s", Better::Lower),
    ("gs-scene.init_model_s", "s", Better::Lower),
    ("clm-core.plan_p50_ms", "ms", Better::Lower),
    ("clm-core.plan_frac", "fraction", Better::Lower),
    ("clm-core.order_p50_ms", "ms", Better::Lower),
    ("clm-core.gather_rows_per_s", "rows/s", Better::Higher),
    ("clm-core.scatter_rows_per_s", "rows/s", Better::Higher),
    ("clm-core.finish_p50_ms", "ms", Better::Lower),
    ("clm-core.trainer_resize_p50_ms", "ms", Better::Lower),
    ("clm-core.offload_init_s", "s", Better::Lower),
    ("clm-core.cache_hit_frac", "fraction", Better::Higher),
    ("clm-core.early_final_frac", "fraction", Better::Higher),
    ("clm-runtime.compute_busy_frac", "fraction", Better::Higher),
    ("clm-runtime.comm_busy_frac", "fraction", Better::Lower),
    ("clm-runtime.adam_busy_frac", "fraction", Better::Lower),
    ("clm-runtime.sched_busy_frac", "fraction", Better::Lower),
    ("clm-runtime.compute_stall_frac", "fraction", Better::Lower),
    ("clm-runtime.overlap_gain", "x", Better::Higher),
    ("clm-runtime.batch_tail_ms", "ms", Better::Lower),
    ("clm-runtime.backend_build_ms", "ms", Better::Lower),
    ("clm-runtime.autotune_s", "s", Better::Lower),
    ("clm-runtime.pool_high_water", "bytes", Better::Lower),
    ("clm-runtime.pool_recycle_frac", "fraction", Better::Higher),
    ("clm-runtime.pool_denied", "count", Better::Lower),
    ("clm-runtime.lane_retries", "count", Better::Lower),
    ("sim-device.compute_busy_frac", "fraction", Better::Higher),
    ("sim-device.comm_busy_frac", "fraction", Better::Lower),
    ("sim-device.adam_busy_frac", "fraction", Better::Lower),
    ("sim-device.h2d_bytes_per_image", "bytes", Better::Lower),
    ("sim-device.d2h_bytes_per_image", "bytes", Better::Lower),
    ("sim-device.ops_per_batch", "count", Better::Lower),
    ("sim-device.timeline_ops_per_s", "ops/s", Better::Higher),
    ("clm-trace.ckpt_roundtrip_ms", "ms", Better::Lower),
    ("clm-trace.ckpt_encode_mb_per_s", "MiB/s", Better::Higher),
    ("clm-trace.ckpt_decode_mb_per_s", "MiB/s", Better::Higher),
    ("clm-trace.ckpt_bytes_per_row", "bytes", Better::Lower),
    ("clm-serve.overhead_frac", "fraction", Better::Lower),
    ("clm-serve.evict_p50_ms", "ms", Better::Lower),
    ("clm-serve.resume_p50_ms", "ms", Better::Lower),
    ("clm-serve.admit_p50_us", "us", Better::Lower),
    ("clm-serve.step_p50_ms", "ms", Better::Lower),
    ("clm-serve.heavy_step_ratio", "x", Better::Lower),
    ("clm-serve.share_err", "fraction", Better::Lower),
    ("clm-serve.queue_wait_steps_p50", "count", Better::Lower),
    ("clm-serve.rejected", "count", Better::Lower),
    ("clm-serve.budget_violations", "count", Better::Lower),
    ("clm-serve.evict_resume_pairs", "count", Better::Higher),
    (
        "clm-serve.virtual_clock_residual",
        "fraction",
        Better::Lower,
    ),
    ("bench.span_coverage_frac", "fraction", Better::Higher),
    ("bench.trace_overhead_frac", "fraction", Better::Lower),
    ("bench.rep_spread", "fraction", Better::Lower),
    ("bench.repetitions", "count", Better::Higher),
    ("bench.batch_samples", "count", Better::Higher),
    ("bench.tail_percentile", "%", Better::Higher),
    ("bench.images_per_s_rep_iqr", "fraction", Better::Lower),
    ("bench.sync_images_per_s_rep_iqr", "fraction", Better::Lower),
    ("bench.batch_p50_ms_rep_iqr", "fraction", Better::Lower),
    ("bench.cpu_ms_per_image_rep_iqr", "fraction", Better::Lower),
    ("bench.setup_s_rep_iqr", "fraction", Better::Lower),
    ("bench.peak_rss_mb_rep_iqr", "fraction", Better::Lower),
    ("bench.attempted_batches", "count", Better::Higher),
    ("bench.failed_batches", "count", Better::Lower),
];

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The six wall-clock end-to-end values and the spread of the
/// per-repetition values each was estimated from.
struct WallClock {
    values: [f64; 6],
    rep_iqr: [(&'static str, f64); 6],
}

fn wall_clock(t: &Timed) -> WallClock {
    let images = t.images_per_pass;
    let per_rep_p50: Vec<f64> = t.product_batch.iter().map(|r| stats::median(r)).collect();
    let per_rep_cpu: Vec<f64> = t
        .product_cpu
        .iter()
        .map(|r| 1e3 * r.iter().sum::<f64>() / images)
        .collect();
    WallClock {
        values: [
            stats::min(&t.setup_s),
            stats::trajectory_rate(images, &t.product),
            1e3 * stats::median(&stats::best_trajectory(&t.product_batch)),
            stats::trajectory_rate(images, &t.sync),
            1e3 / stats::trajectory_rate(images, &t.product_cpu),
            stats::median(&t.peak_rss_mib),
        ],
        rep_iqr: [
            ("bench.setup_s_rep_iqr", stats::iqr_over_median(&t.setup_s)),
            (
                "bench.images_per_s_rep_iqr",
                stats::iqr_over_median(&rep_rates(images, &t.product)),
            ),
            (
                "bench.batch_p50_ms_rep_iqr",
                stats::iqr_over_median(&per_rep_p50),
            ),
            (
                "bench.sync_images_per_s_rep_iqr",
                stats::iqr_over_median(&rep_rates(images, &t.sync)),
            ),
            (
                "bench.cpu_ms_per_image_rep_iqr",
                stats::iqr_over_median(&per_rep_cpu),
            ),
            (
                "bench.peak_rss_mb_rep_iqr",
                stats::iqr_over_median(&t.peak_rss_mib),
            ),
        ],
    }
}

/// Every metric of a finished run.
#[derive(Debug)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    /// All of [`PER_LAYER`], in table order; 0 where the run did not measure.
    pub per_layer: Vec<Metric>,
    /// The per-layer names this run did not measure.
    pub unmeasured: Vec<&'static str>,
}

pub fn build(outcome: &Outcome, attempted: u64, failed: u64) -> Result<Report, String> {
    let t = &outcome.timed;
    let c = &outcome.counts;
    let wall = wall_clock(t);
    let values = wall.values.into_iter().chain([
        c.sim_images_per_s,
        c.sim_gpu_idle_frac,
        c.comm_bytes_per_image,
        c.device_mem_mb,
        c.final_psnr_db,
    ]);
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| metric(m.name, m.unit, v))
        .collect();

    let mut layers = outcome.layers.clone();
    let overlap = wall.values[1] / wall.values[3];
    layers.put("clm-runtime.overlap_gain", "x", overlap);
    layers.put("clm-serve.overhead_frac", "fraction", 1.0 - overlap);
    layers.put("clm-runtime.autotune_s", "s", stats::min(&t.autotune_s));
    let pooled: Vec<f64> = t.product_batch.iter().flatten().copied().collect();
    let (percentile, tail_s) = stats::tail(&pooled);
    layers.put("clm-runtime.batch_tail_ms", "ms", 1e3 * tail_s);
    layers.put("bench.tail_percentile", "%", percentile);
    layers.put("bench.batch_samples", "count", pooled.len() as f64);
    layers.put("bench.repetitions", "count", t.product.len() as f64);
    for (name, iqr) in wall.rep_iqr {
        layers.put(name, "fraction", iqr);
    }
    layers.put(
        "bench.rep_spread",
        "fraction",
        wall.rep_iqr.iter().map(|(_, v)| *v).fold(0.0, f64::max),
    );
    layers.put("bench.attempted_batches", "count", attempted as f64);
    layers.put("bench.failed_batches", "count", failed as f64);
    if let Some(stray) = layers
        .0
        .iter()
        .find(|m| !PER_LAYER.iter().any(|(n, _, _)| *n == m.name))
    {
        return Err(format!(
            "layer metric {} is not in the PER_LAYER table",
            stray.name
        ));
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, _)| metric(name, unit, layers.get(name).unwrap_or(0.0)))
        .collect();
    let unmeasured = PER_LAYER
        .iter()
        .map(|(name, _, _)| *name)
        .filter(|name| layers.get(name).is_none())
        .collect();
    Ok(Report {
        end_to_end,
        per_layer,
        unmeasured,
    })
}

/// Checks the workload's invariants against whatever this run measured: an
/// untraced run skips the invariants on metrics only a traced run measures,
/// a traced run must have measured every metric an invariant names.
pub fn check_invariants(report: &Report, invariants: &[Invariant], traced: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for inv in invariants {
        let found = report
            .end_to_end
            .iter()
            .chain(&report.per_layer)
            .find(|m| m.name == inv.metric);
        let Some(m) = found else {
            problems.push(format!("invariant names unknown metric {}", inv.metric));
            continue;
        };
        if report.unmeasured.contains(&inv.metric.as_str()) {
            if traced {
                problems.push(format!(
                    "invariant names {}, which this workload does not measure",
                    inv.metric
                ));
            }
            continue;
        }
        if inv.min.is_some_and(|min| m.value < min) || inv.max.is_some_and(|max| m.value > max) {
            problems.push(format!(
                "invariant broken: {} = {} outside [{}, {}]",
                inv.metric,
                m.value,
                inv.min.map_or("-inf".to_string(), |v| v.to_string()),
                inv.max.map_or("+inf".to_string(), |v| v.to_string()),
            ));
        }
    }
    problems
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj().with("value", m.value).with("unit", m.unit),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: exactly the keys the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics_json(metrics))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What was measured, on what, built how.
pub fn provenance(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_cpus: usize,
    pinned_cpu: usize,
) -> Json {
    let topology = sim_device::HostTopology::cached();
    let tuned = clm_runtime::tuned();
    Json::obj()
        .with("workload", w.name.as_str())
        .with("seed", seed.to_string())
        .with("trace", trace)
        .with("seconds_argument", seconds)
        .with("repetitions", w.repetitions)
        .with("batches_per_pass", w.batches_per_pass())
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["--version"]))
        .with(
            "harness_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("host_fingerprint", topology.fingerprint())
        .with("host_model", topology.model_name.as_str())
        .with("nproc", host_cpus)
        .with("effective_cores_as_probed", topology.effective_cores())
        .with("pinned_to_cpu", pinned_cpu)
        .with("resolved_knobs", w.knobs.to_json())
        .with(
            "autotuned_knobs_not_used",
            Json::obj()
                .with("compute_threads", tuned.knobs.compute_threads)
                .with("adam_threads", tuned.knobs.adam_threads)
                .with("adam_chunk_rows", tuned.knobs.adam_chunk_rows)
                .with("band_height", u64::from(tuned.knobs.band_height))
                .with("prefetch_window", tuned.knobs.prefetch_window),
        )
}

/// Writes `result.json` (every metric, the per-repetition raw log, the
/// provenance) and, for a traced run, `spans.json`.
pub fn write_files(
    dir: &Path,
    provenance: Json,
    line: &Json,
    report: &Report,
    outcome: &Outcome,
    problems: &[String],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = Json::obj()
        .with("provenance", provenance)
        .with("result", line.clone())
        .with("end_to_end", metrics_json(&report.end_to_end))
        .with("per_layer", metrics_json(&report.per_layer))
        .with("initial_psnr_db", outcome.counts.initial_psnr_db)
        .with(
            "final_model_checksum",
            format!("{:016x}", outcome.counts.checksum),
        )
        .with("problems", problems.to_vec())
        .with("cold_autotune_s", outcome.timed.cold_autotune_s)
        .with("repetitions", Json::Arr(outcome.timed.rep_log.clone()));
    std::fs::write(dir.join("result.json"), doc.to_line() + "\n")?;
    if !outcome.spans.is_empty() {
        std::fs::write(
            dir.join("spans.json"),
            crate::spans::chrome_trace(&outcome.spans).to_line() + "\n",
        )?;
    }
    Ok(())
}

/// Human-readable table on standard error (standard output carries only the
/// result line, so the driver's "last line" is unambiguous).
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = manifest();
        let declared: Vec<(String, String, String, Option<f64>)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|key| doc.get(key).and_then(Json::arr).expect(key).iter())
            .map(|m| {
                (
                    m.get("name").and_then(Json::str).expect("name").to_string(),
                    m.get("unit").and_then(Json::str).expect("unit").to_string(),
                    m.get("better")
                        .and_then(Json::str)
                        .expect("better")
                        .to_string(),
                    m.get("bound").and_then(Json::num),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, Option<f64>)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .chain(
                PER_LAYER
                    .iter()
                    .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string(), None)),
            )
            .collect();
        assert_eq!(declared, expected);
    }

    #[test]
    fn benchmark_json_names_the_committed_workloads_and_this_package() {
        let doc = manifest();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::str).expect("name"))
            .collect();
        // The driver's time allows three workloads of 42 seconds; the fourth
        // committed workload, `render_bound`, is run by hand.
        assert_eq!(names, &crate::workload::WORKLOAD_NAMES[1..]);
        for (entry, name) in doc
            .get("workloads")
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .zip(names)
        {
            let why = entry.get("why").and_then(Json::str).expect("why");
            assert_eq!(
                why,
                crate::workload::load(name).expect("loads").why,
                "{name}"
            );
        }
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::arr)
            .expect("command")
            .iter()
            .map(|c| c.str().expect("string"))
            .collect();
        assert!(
            command.contains(&"benchmarks/harness/Cargo.toml"),
            "{command:?}"
        );
        assert_eq!(
            doc.get("paths").and_then(Json::arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::num),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        assert!(PER_LAYER.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(
            END_TO_END
                .iter()
                .all(|m| m.name == "setup_s" || m.bound <= END_TO_END[0].bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn invariants_are_checked_against_measured_values_only() {
        let report = Report {
            end_to_end: vec![metric("images_per_s", "images/s", 10.0)],
            per_layer: vec![
                metric("gs-render.self_frac", "fraction", 0.0),
                metric("gs-scene.resize_events", "count", 2.0),
            ],
            unmeasured: vec!["gs-render.self_frac"],
        };
        let invariants = vec![
            Invariant {
                metric: "gs-render.self_frac".to_string(),
                min: Some(0.9),
                max: None,
            },
            Invariant {
                metric: "gs-scene.resize_events".to_string(),
                min: Some(3.0),
                max: None,
            },
            Invariant {
                metric: "no.such.metric".to_string(),
                min: None,
                max: Some(1.0),
            },
        ];
        // Untraced: self_frac was not measured, so only the count and the
        // unknown name are reported.
        let untraced = check_invariants(&report, &invariants, false);
        assert_eq!(untraced.len(), 2, "{untraced:?}");
        assert_eq!(check_invariants(&report, &invariants, true).len(), 3);
    }
}
