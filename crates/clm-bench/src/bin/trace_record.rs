//! Records an op trace of one training run to a `.clmtrace` file.
//!
//! Flags:
//!
//! * `--backend <name>` — `synchronous` / `simulated` / `threaded` /
//!   `sharded` (default `simulated`; the scheduled backends produce
//!   replayable traces, the others measured spans).
//! * `--scale <smoke|full|test>` — workload size (default `smoke`).
//! * `--devices <n>` — simulated devices for the `sharded` backend.
//! * `--out <path>` — output file (default `TRACE_<backend>.clmtrace`).

use clm_bench::trace::{describe, record_trace, span_capture_note, TraceScale, TRACE_BACKENDS};
use clm_bench::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let backend = args.flag("--backend").unwrap_or("simulated");
    if !TRACE_BACKENDS.contains(&backend) {
        eprintln!("trace_record: unknown backend {backend:?} (expected one of {TRACE_BACKENDS:?})");
        return ExitCode::FAILURE;
    }
    let mut scale = match args.flag("--scale") {
        None | Some("smoke") => TraceScale::smoke(),
        Some("full") => TraceScale::full(),
        Some("test") => TraceScale::test(),
        Some(other) => {
            eprintln!("trace_record: unknown scale {other:?} (expected smoke, full or test)");
            return ExitCode::FAILURE;
        }
    };
    if let Some(d) = args.flag("--devices") {
        match d.parse::<usize>() {
            Ok(n) if n >= 1 => scale.devices = n,
            _ => {
                eprintln!("trace_record: --devices needs a positive integer, got {d}");
                return ExitCode::FAILURE;
            }
        }
    }
    let default_out = format!("TRACE_{backend}.clmtrace");
    let out_path = args.flag("--out").unwrap_or(&default_out);

    let trace = match record_trace(backend, &scale) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_record: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(note) = span_capture_note() {
        if !trace.has_deps() {
            eprintln!("trace_record: {note}");
        }
    }
    let bytes = trace.encode();
    if let Err(e) = std::fs::write(out_path, &bytes) {
        eprintln!("trace_record: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "trace_record: {} -> {out_path} ({} bytes)",
        describe(&trace),
        bytes.len(),
    );
    ExitCode::SUCCESS
}
