//! Deterministically re-simulates a recorded `.clmtrace` offline.
//!
//! With no knobs the replay re-executes the recorded schedule through a
//! fresh discrete-event timeline and **verifies** it reproduces the
//! recording bit for bit — per-op start/end, per-lane busy totals and the
//! critical path — exiting non-zero on any divergence.  With knobs it
//! answers what-if questions against the same trace without re-running any
//! numerics:
//!
//! * `--window <w>` — re-pipeline under a different prefetch window;
//! * `--devices <n>` — re-shard across `n` simulated devices (priced by
//!   the trace header's cost model);
//! * `--scale-compute/--scale-comm/--scale-adam/--scale-scheduling <x>` —
//!   stretch one op class (e.g. `--scale-comm 0.5` for a link twice as
//!   fast).
//!
//! Prints a single-line JSON summary either way.

use clm_bench::Args;
use clm_trace::{
    critical_path, json_escape, replay_with_knobs, verify_exact, BatchTimeline, KindScale,
    ReplayKnobs, Trace,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let path = match args.positional() {
        Some(p) => p,
        None => {
            eprintln!(
                "usage: trace_replay <trace.clmtrace> [--window w] [--devices n] [--scale-* x]"
            );
            return ExitCode::FAILURE;
        }
    };
    let parse_usize = |name: &str| -> Result<Option<usize>, String> {
        match args.flag(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("{name} needs a non-negative integer, got {v}")),
        }
    };
    let parse_scale = |name: &str| -> Result<f64, String> {
        match args.flag(name) {
            None => Ok(1.0),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x > 0.0 && x.is_finite() => Ok(x),
                _ => Err(format!("{name} needs a positive number, got {v}")),
            },
        }
    };

    let knobs = match (|| -> Result<ReplayKnobs, String> {
        Ok(ReplayKnobs {
            window: parse_usize("--window")?,
            devices: parse_usize("--devices")?,
            scale: KindScale {
                compute: parse_scale("--scale-compute")?,
                comm: parse_scale("--scale-comm")?,
                adam: parse_scale("--scale-adam")?,
                scheduling: parse_scale("--scale-scheduling")?,
            },
        })
    })() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("trace_replay: {e}");
            return ExitCode::FAILURE;
        }
    };

    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trace_replay: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::decode(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_replay: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let altered = knobs.window.is_some() || knobs.devices.is_some() || !knobs.scale.is_identity();

    let (mode, replays) = if altered {
        match replay_with_knobs(&trace, &knobs) {
            Ok(r) => ("knobs", r),
            Err(e) => {
                eprintln!("trace_replay: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // Unchanged knobs: the replay must reproduce the recording exactly,
        // op for op — verify_exact fails loudly if it does not.
        match verify_exact(&trace) {
            Ok(r) => ("verify", r),
            Err(e) => {
                eprintln!("trace_replay: {path}: replay diverged: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    println!("{}", summary_json(&trace, mode, &replays));
    ExitCode::SUCCESS
}

fn summary_json(trace: &Trace, mode: &str, replays: &[BatchTimeline]) -> String {
    let makespan =
        |batches: &[BatchTimeline]| -> f64 { batches.iter().map(|b| b.timeline.makespan()).sum() };
    let (recorded_makespan, replayed_makespan) = (makespan(&trace.batches), makespan(replays));
    let (critical_s, critical_ops) = replays
        .iter()
        .map(|b| critical_path(&b.timeline))
        .fold((0.0, 0usize), |(s, n), cp| (s + cp.length_s, n + cp.ops));
    format!(
        "{{\"schema\":\"clm_trace_replay_v1\",\"mode\":\"{mode}\",\
         \"backend\":\"{}\",\"batches\":{},\"events\":{},\
         \"recorded_makespan_s\":{recorded_makespan:.9},\
         \"replayed_makespan_s\":{replayed_makespan:.9},\
         \"speedup_vs_recorded\":{:.4},\
         \"critical_path_s\":{critical_s:.9},\"critical_path_ops\":{critical_ops}}}",
        json_escape(&trace.meta.backend),
        replays.len(),
        trace.ops().count(),
        if replayed_makespan > 0.0 {
            recorded_makespan / replayed_makespan
        } else {
            0.0
        },
    )
}
