//! Fault-recovery benchmark binary: runs the chaos matrix and gates on
//! bit-identity.
//!
//! Replays one seeded densifying run through every execution backend under
//! a seeded fault schedule (transient op failures, a straggling comm lane,
//! staging-pool exhaustion), through a permanent 4 → 2 device loss on the
//! simulated engine, and through the kill → `.clmckpt` → restore protocol
//! on the simulated engine at one and two devices and the threaded backend.  Emits a single-line `clm_chaos_bench_v1`
//! JSON to stdout and to `BENCH_chaos.json`, writes the kill-boundary
//! checkpoint to `CHAOS.clmckpt`, and exits non-zero if any leg diverged
//! from the fault-free reference, any lane aborted instead of recovering,
//! or the fault matrix turned out vacuous (nothing injected).
//!
//! Flags:
//!
//! * `--out <path>` — where to write the JSON artefact
//!   (default `BENCH_chaos.json`);
//! * `--ckpt <path>` — where to write the checkpoint artefact
//!   (default `CHAOS.clmckpt`).

use clm_bench::chaos::{looks_like_chaos_json, run_chaos_bench, ChaosScale};
use clm_bench::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let out_path = args.flag("--out").unwrap_or("BENCH_chaos.json");
    let ckpt_path = args.flag("--ckpt").unwrap_or("CHAOS.clmckpt");

    let bench = run_chaos_bench(ChaosScale::smoke());
    let json = bench.to_json();
    println!("{json}");

    if let Err(e) = std::fs::write(out_path, format!("{json}\n")) {
        eprintln!("chaos_bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(ckpt_path, &bench.checkpoint) {
        eprintln!("chaos_bench: cannot write {ckpt_path}: {e}");
        return ExitCode::FAILURE;
    }

    // Gate 1: the artefact on disk must be a well-formed single-line JSON
    // object.
    let written = match std::fs::read_to_string(out_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chaos_bench: cannot re-read {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !looks_like_chaos_json(&written) {
        eprintln!("chaos_bench: FAIL — {out_path} is malformed: {written}");
        return ExitCode::FAILURE;
    }
    // Gate 2: every leg must have recovered to the fault-free bits.
    for leg in &bench.legs {
        if !leg.bit_identical {
            eprintln!(
                "chaos_bench: FAIL — leg {} diverged from the fault-free reference \
                 (recovery must never change numerics): {:?}",
                leg.name, leg.stats,
            );
            return ExitCode::FAILURE;
        }
    }
    // Gate 3: recovery, not abortion.
    if bench.any_aborts() {
        eprintln!("chaos_bench: FAIL — a lane aborted instead of recovering");
        return ExitCode::FAILURE;
    }
    // Gate 4: the matrix must actually have injected faults, and the
    // workload must have crossed densification boundaries while recovering.
    if bench.total_transients() == 0 {
        eprintln!("chaos_bench: FAIL — no transient faults injected; the matrix is vacuous");
        return ExitCode::FAILURE;
    }
    if bench.resize_events < 2 {
        eprintln!(
            "chaos_bench: FAIL — the chaos workload crossed only {} densify boundaries",
            bench.resize_events,
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "chaos_bench: chaos gate passed ({} legs bit-identical, {} transients injected, \
         checkpoint artefact {} bytes at batch {}, {} resize boundaries)",
        bench.legs.len(),
        bench.total_transients(),
        bench.checkpoint.len(),
        bench.kill_at,
        bench.resize_events,
    );
    ExitCode::SUCCESS
}
