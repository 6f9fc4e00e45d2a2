//! Performance reports over recorded traces.
//!
//! A [`TraceReport`] aggregates a trace into the quantities the paper's
//! evaluation leans on: per-lane utilisation against the summed batch
//! makespans, a per-device rollup for sharded schedules, per-op-kind
//! duration histograms (count / total / p50 / p99 / bytes) and — for
//! replayable traces — the critical-path decomposition.  Reports serialise
//! to the workspace's hand-rolled single-line JSON, and the raw schedule
//! exports to Chrome-trace JSON loadable in Perfetto / `chrome://tracing`.

use crate::format::Trace;
use crate::replay::{critical_path, CriticalPath};
use sim_device::{Lane, OpKind};

/// Busy/utilisation summary for one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStat {
    /// The lane.
    pub lane: Lane,
    /// Ops that ran on the lane.
    pub ops: usize,
    /// Total busy seconds across all batches.
    pub busy_s: f64,
    /// `busy_s` over the summed batch makespans — in `[0, 1]` for a lane
    /// whose spans never overlap (every scheduled lane, and a measured
    /// lane one thread timed); a threaded recording's Adam lane is charged
    /// by the worker and the coordinator concurrently and can exceed 1.
    pub utilization: f64,
}

/// Per-device rollup of the three lane classes.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStat {
    /// Simulated device index.
    pub device: usize,
    /// Busy seconds on the device's compute lane.
    pub compute_s: f64,
    /// Busy seconds on the device's communication lane.
    pub comm_s: f64,
    /// Busy seconds on the device's CPU Adam lane.
    pub adam_s: f64,
    /// Compute-lane utilisation against the summed batch makespans.
    pub compute_utilization: f64,
}

/// Duration histogram for one op kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStat {
    /// The op kind.
    pub kind: OpKind,
    /// Number of ops of this kind.
    pub count: usize,
    /// Total seconds across all ops of this kind.
    pub total_s: f64,
    /// Median single-op duration (nearest-rank).
    pub p50_s: f64,
    /// 99th-percentile single-op duration (nearest-rank).
    pub p99_s: f64,
    /// Total bytes moved by ops of this kind.
    pub bytes: u64,
}

/// Aggregated performance report over one trace.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Backend that produced the trace.
    pub backend: String,
    /// Scene the run trained.
    pub scene: String,
    /// Simulated device count of the recording.
    pub devices: u32,
    /// Prefetch window of the recording.
    pub prefetch_window: u32,
    /// Batches in the trace.
    pub batches: usize,
    /// Ops in the trace.
    pub events: usize,
    /// Sum of per-batch makespans — the report's utilisation denominator.
    pub total_makespan_s: f64,
    /// Per-lane stats, lane-code order.
    pub lanes: Vec<LaneStat>,
    /// Per-device rollup, device order (scheduler lane excluded: it is
    /// shared by every device).
    pub device_stats: Vec<DeviceStat>,
    /// Per-kind histograms, wire-code order, kinds with zero ops omitted.
    pub kinds: Vec<KindStat>,
    /// The batches' critical paths summed (the length is the summed
    /// makespans by construction); `None` for measured traces (no
    /// dependency edges to walk).
    pub critical: Option<CriticalPath>,
}

impl TraceReport {
    /// Builds the report from the recorded timelines: a scheduled
    /// trace's are the schedule itself ([`crate::verify_exact`] proves a
    /// replay reproduces them bit for bit), a measured trace's are its spans.
    pub fn build(trace: &Trace) -> TraceReport {
        let timelines = || trace.batches.iter().map(|b| &b.timeline);
        let total_makespan_s: f64 = timelines().map(|t| t.makespan()).sum();

        // Every lane that carries at least one op, in wire-code order.
        let mut lane_codes: Vec<u32> = trace.ops().map(|op| op.lane.code()).collect();
        lane_codes.sort_unstable();
        lane_codes.dedup();
        let lanes: Vec<LaneStat> = lane_codes
            .iter()
            .map(|&code| {
                let lane = Lane::from_code(code).expect("recorded lanes decode");
                let busy_s: f64 = timelines().map(|t| t.busy_time(lane)).sum();
                let ops = trace.ops().filter(|op| op.lane == lane).count();
                LaneStat {
                    lane,
                    ops,
                    busy_s,
                    utilization: fraction(busy_s, total_makespan_s),
                }
            })
            .collect();

        let max_device = lanes
            .iter()
            .filter_map(|l| l.lane.device())
            .max()
            .unwrap_or(0);
        let lane_busy = |lane: Lane| -> f64 {
            lanes
                .iter()
                .find(|l| l.lane == lane)
                .map_or(0.0, |l| l.busy_s)
        };
        let device_stats: Vec<DeviceStat> = (0..=max_device)
            .map(|d| {
                let compute_s = lane_busy(Lane::compute_of(d));
                DeviceStat {
                    device: d,
                    compute_s,
                    comm_s: lane_busy(Lane::comm_of(d)),
                    adam_s: lane_busy(Lane::adam_of(d)),
                    compute_utilization: fraction(compute_s, total_makespan_s),
                }
            })
            .collect();

        let kinds: Vec<KindStat> = OpKind::ALL
            .iter()
            .filter_map(|&kind| {
                let mut durs: Vec<f64> = trace
                    .ops()
                    .filter(|op| op.kind == kind)
                    .map(|op| op.dur)
                    .collect();
                if durs.is_empty() {
                    return None;
                }
                durs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let bytes = trace
                    .ops()
                    .filter(|op| op.kind == kind)
                    .map(|op| op.bytes)
                    .sum();
                Some(KindStat {
                    kind,
                    count: durs.len(),
                    total_s: durs.iter().sum(),
                    p50_s: percentile(&durs, 0.50),
                    p99_s: percentile(&durs, 0.99),
                    bytes,
                })
            })
            .collect();

        let critical = trace.has_deps().then(|| {
            let mut length_s = 0.0;
            let mut ops = 0usize;
            let mut by_kind = [0.0f64; OpKind::ALL.len()];
            for t in timelines() {
                let cp = critical_path(t);
                length_s += cp.length_s;
                ops += cp.ops;
                for (kind, s) in cp.time_by_kind {
                    by_kind[kind.code() as usize] += s;
                }
            }
            CriticalPath {
                length_s,
                ops,
                time_by_kind: OpKind::ALL
                    .iter()
                    .filter(|k| by_kind[k.code() as usize] > 0.0)
                    .map(|&k| (k, by_kind[k.code() as usize]))
                    .collect(),
            }
        });

        TraceReport {
            backend: trace.meta.backend.clone(),
            scene: trace.meta.scene.clone(),
            devices: trace.meta.devices,
            prefetch_window: trace.meta.prefetch_window,
            batches: trace.batches.len(),
            events: trace.ops().count(),
            total_makespan_s,
            lanes,
            device_stats,
            kinds,
            critical,
        }
    }

    /// Serialises the report as single-line JSON in the workspace's
    /// hand-rolled house style.
    pub fn to_json(&self) -> String {
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                format!(
                    "{{\"lane\":\"{}\",\"ops\":{},\"busy_s\":{:.9},\"utilization\":{:.6}}}",
                    lane_label(l.lane),
                    l.ops,
                    l.busy_s,
                    l.utilization
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let devices = self
            .device_stats
            .iter()
            .map(|d| {
                format!(
                    "{{\"device\":{},\"compute_s\":{:.9},\"comm_s\":{:.9},\"adam_s\":{:.9},\"compute_utilization\":{:.6}}}",
                    d.device, d.compute_s, d.comm_s, d.adam_s, d.compute_utilization
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                format!(
                    "{{\"kind\":\"{}\",\"count\":{},\"total_s\":{:.9},\"p50_s\":{:.9},\"p99_s\":{:.9},\"bytes\":{}}}",
                    k.kind.name(),
                    k.count,
                    k.total_s,
                    k.p50_s,
                    k.p99_s,
                    k.bytes
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let critical = match &self.critical {
            None => "null".to_string(),
            Some(c) => {
                let by_kind = c
                    .time_by_kind
                    .iter()
                    .map(|(k, s)| format!("\"{}\":{:.9}", k.name(), s))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"length_s\":{:.9},\"ops\":{},\"time_by_kind\":{{{}}}}}",
                    c.length_s, c.ops, by_kind
                )
            }
        };
        format!(
            "{{\"schema\":\"clm_trace_report_v1\",\"backend\":\"{}\",\"scene\":\"{}\",\"devices\":{},\"prefetch_window\":{},\"batches\":{},\"events\":{},\"total_makespan_s\":{:.9},\"lanes\":[{}],\"device_stats\":[{}],\"kinds\":[{}],\"critical_path\":{}}}",
            json_escape(&self.backend),
            json_escape(&self.scene),
            self.devices,
            self.prefetch_window,
            self.batches,
            self.events,
            self.total_makespan_s,
            lanes,
            devices,
            kinds,
            critical
        )
    }
}

/// Cheap structural check for report JSON: `trace_report` validates the
/// artefact's shape without a JSON parser in the dependency tree.
pub fn looks_like_report_json(s: &str) -> bool {
    let s = s.trim();
    s.starts_with('{')
        && s.ends_with('}')
        && s.contains("\"schema\":\"clm_trace_report_v1\"")
        && s.contains("\"backend\":")
        && s.contains("\"total_makespan_s\":")
        && s.contains("\"lanes\":[")
        && s.contains("\"device_stats\":[")
        && s.contains("\"kinds\":[")
        && s.contains("\"critical_path\":")
}

/// Escapes `s` for use inside a JSON string literal: the quote, the
/// backslash and every control character.  Trace metadata is decoded from
/// whatever file a tool is given, so any string of it may hold these.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Exports the raw schedule as Chrome-trace JSON (the `traceEvents` array
/// format Perfetto and `chrome://tracing` load).  Batches are laid end to
/// end on the time axis — batch `n` is offset by the summed makespans of
/// batches before it — `pid` is the simulated device (scheduler work on
/// its own track), `tid` the lane wire code, timestamps in microseconds.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut offset_s = 0.0f64;
    let mut first = true;
    for b in &trace.batches {
        for e in b.timeline.ops() {
            if !first {
                out.push(',');
            }
            first = false;
            let pid = e.lane.device().map_or(9999, |d| d);
            let mb = e.microbatch.map_or("null".to_string(), |mb| mb.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"epoch\":{},\"batch\":{},\"microbatch\":{},\"rows\":{},\"bytes\":{}}}}}",
                e.kind.name(),
                lane_label(e.lane),
                pid,
                e.lane.code(),
                (offset_s + e.start) * 1e6,
                e.dur * 1e6,
                b.epoch,
                b.batch,
                mb,
                e.rows,
                e.bytes
            ));
        }
        offset_s += b.timeline.makespan();
    }
    out.push_str("]}");
    out
}

/// Stable human-readable label for a lane.
pub fn lane_label(lane: Lane) -> String {
    match lane {
        Lane::GpuCompute => "gpu_compute".to_string(),
        Lane::GpuComm => "gpu_comm".to_string(),
        Lane::CpuAdam => "cpu_adam".to_string(),
        Lane::CpuScheduler => "cpu_scheduler".to_string(),
        Lane::DeviceCompute(d) => format!("dev{d}_compute"),
        Lane::DeviceComm(d) => format!("dev{d}_comm"),
        Lane::DeviceAdam(d) => format!("dev{d}_adam"),
    }
}

fn fraction(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{CostParams, TraceMeta};
    use sim_device::Timeline;

    fn meta() -> TraceMeta {
        TraceMeta {
            backend: "simulated".into(),
            scene: "unit".into(),
            devices: 1,
            prefetch_window: 1,
            seed: 0,
            cost: CostParams::default(),
        }
    }

    fn two_batch_trace() -> Trace {
        let mut trace = Trace::new(meta());
        for batch in 0..2u64 {
            let mut t = Timeline::new();
            let load = t.push_traced(
                OpKind::LoadParams,
                Lane::GpuComm,
                1.0,
                800,
                10,
                Some(0),
                &[],
            );
            let fwd = t.push_traced(
                OpKind::Forward,
                Lane::GpuCompute,
                2.0,
                0,
                10,
                Some(0),
                &[load],
            );
            t.push_traced(
                OpKind::Backward,
                Lane::GpuCompute,
                3.0,
                0,
                10,
                Some(0),
                &[fwd],
            );
            trace.record(0, batch, t);
        }
        trace
    }

    #[test]
    fn report_totals_and_utilisation_add_up() {
        let report = TraceReport::build(&two_batch_trace());
        assert_eq!(report.batches, 2);
        assert_eq!(report.events, 6);
        // Each batch's makespan is 1 + 2 + 3 = 6.
        assert_eq!(report.total_makespan_s, 12.0);
        let compute = report
            .lanes
            .iter()
            .find(|l| l.lane == Lane::GpuCompute)
            .unwrap();
        assert_eq!(compute.busy_s, 10.0);
        assert!((compute.utilization - 10.0 / 12.0).abs() < 1e-12);
        let comm = report
            .lanes
            .iter()
            .find(|l| l.lane == Lane::GpuComm)
            .unwrap();
        assert_eq!(comm.ops, 2);
        assert_eq!(report.device_stats.len(), 1);
        assert_eq!(report.device_stats[0].compute_s, 10.0);
    }

    #[test]
    fn kind_histograms_count_and_rank() {
        let report = TraceReport::build(&two_batch_trace());
        let fwd = report
            .kinds
            .iter()
            .find(|k| k.kind == OpKind::Forward)
            .unwrap();
        assert_eq!(fwd.count, 2);
        assert_eq!(fwd.total_s, 4.0);
        assert_eq!(fwd.p50_s, 2.0);
        assert_eq!(fwd.p99_s, 2.0);
        let load = report
            .kinds
            .iter()
            .find(|k| k.kind == OpKind::LoadParams)
            .unwrap();
        assert_eq!(load.bytes, 1600);
        // Kinds that never ran are omitted, not zero-filled.
        assert!(report.kinds.iter().all(|k| k.kind != OpKind::AllReduce));
    }

    #[test]
    fn critical_path_spans_the_makespan_of_replayable_traces() {
        let report = TraceReport::build(&two_batch_trace());
        let critical = report.critical.expect("dep-bearing trace is replayable");
        assert_eq!(critical.length_s, report.total_makespan_s);
        let path_total: f64 = critical.time_by_kind.iter().map(|(_, s)| s).sum();
        assert_eq!(path_total, critical.length_s);
    }

    #[test]
    fn measured_trace_reports_without_critical_path() {
        let mut t = Timeline::new();
        t.push_span(OpKind::Forward, Lane::GpuCompute, 0.0, 2.0, 0, 10, Some(0));
        t.push_span(OpKind::CpuAdamUpdate, Lane::CpuAdam, 0.5, 1.5, 0, 10, None);
        let mut trace = Trace::new(meta());
        trace.record(0, 0, t);
        let report = TraceReport::build(&trace);
        assert!(report.critical.is_none());
        assert_eq!(report.total_makespan_s, 2.0);
        let adam = report
            .lanes
            .iter()
            .find(|l| l.lane == Lane::CpuAdam)
            .unwrap();
        assert_eq!(adam.busy_s, 1.0);
    }

    #[test]
    fn report_json_shape_is_recognised() {
        let json = TraceReport::build(&two_batch_trace()).to_json();
        assert!(looks_like_report_json(&json), "{json}");
        assert!(!looks_like_report_json("{}"));
        assert!(!looks_like_report_json(&json[1..]));
    }

    #[test]
    fn report_json_escapes_the_recorded_strings() {
        let mut trace = two_batch_trace();
        trace.meta.scene = "a\"b\\c".into();
        let json = TraceReport::build(&trace).to_json();
        assert!(json.contains(r#""scene":"a\"b\\c","#), "{json}");
        assert_eq!(json_escape("x\ny\u{1}"), r"x\u000ay\u0001");
    }

    #[test]
    fn chrome_trace_offsets_batches_end_to_end() {
        let json = chrome_trace_json(&two_batch_trace());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Batch 1's first load starts at the 6-second offset (6e6 µs).
        assert!(json.contains("\"ts\":6000000.000"), "{json}");
        assert_eq!(json.matches("\"name\":\"Forward\"").count(), 2);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&sorted, 0.01), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
