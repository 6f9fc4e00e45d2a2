//! Renders a recorded `.clmtrace` into a perf report.
//!
//! Prints a single-line JSON report (per-lane and per-device utilisation,
//! op-kind histograms with p50/p99, critical-path summary when the trace is
//! replayable) to stdout and self-checks its shape before exiting.
//!
//! Flags:
//!
//! * `--out <path>` — also write the report JSON to a file;
//! * `--chrome <path>` — write a Chrome-trace JSON (load it in
//!   `chrome://tracing` or Perfetto to see the lanes as tracks).

use clm_bench::Args;
use clm_trace::{chrome_trace_json, looks_like_report_json, Trace, TraceReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let path = match args.positional() {
        Some(p) => p,
        None => {
            eprintln!(
                "usage: trace_report <trace.clmtrace> [--out report.json] [--chrome trace.json]"
            );
            return ExitCode::FAILURE;
        }
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trace_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::decode(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_report: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let json = TraceReport::build(&trace).to_json();
    if !looks_like_report_json(&json) {
        eprintln!("trace_report: FAIL — generated report is malformed: {json}");
        return ExitCode::FAILURE;
    }
    println!("{json}");

    if let Some(out) = args.flag("--out") {
        if let Err(e) = std::fs::write(out, format!("{json}\n")) {
            eprintln!("trace_report: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(chrome) = args.flag("--chrome") {
        if let Err(e) = std::fs::write(chrome, chrome_trace_json(&trace)) {
            eprintln!("trace_report: cannot write {chrome}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace_report: Chrome trace written to {chrome}");
    }
    ExitCode::SUCCESS
}
