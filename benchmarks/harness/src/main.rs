//! The CLM benchmark.  See `benchmarks/README.md`.
//!
//! ```text
//! clm-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! clm-benchmark run [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <set dir>]
//! clm-benchmark compare <set A> <set B>
//! clm-benchmark selfcheck [--runs <n>] [--seed <u64>] [--seconds <n>] [--out <dir>]
//! ```
//!
//! One process runs one workload: peak memory and process CPU time are
//! per-process numbers.  `run` and `selfcheck` start one child process of
//! this executable per workload run and wait for each.

mod compare;
mod jobs;
mod json;
mod probes;
mod procfs;
mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod sys;
mod training;
mod watchdog;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// What a run still has to do once its last repetition has ended: build the
/// report and write the raw log.
const REPORT_RESERVE: Duration = Duration::from_millis(500);

/// Exit code of a run whose outputs were wrong or whose invariants broke.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a command line the harness cannot act on.
const EXIT_USAGE: u8 = 2;

const USAGE: &str = "usage:
  clm-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
  clm-benchmark run [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <set dir>]
  clm-benchmark compare <set A> <set B>
  clm-benchmark selfcheck [--runs <n>] [--seed <u64>] [--seconds <n>] [--out <dir>]";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v:?} is not a valid number")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace must be 0 or 1, got {v:?}")),
        }
    }
}

fn results_dir() -> PathBuf {
    workload::workloads_dir().join("../results")
}

fn run_dir_name(workload: &str, seed: u64, trace: bool) -> String {
    format!("{workload}-seed{seed}-trace{}", u8::from(trace))
}

/// Runs one workload in this process and prints the result line.
fn run_workload(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let seed: u64 = flags.number("seed", 1)?;
    // The trajectory is fixed by the workload file, not by the clock: the
    // counts would otherwise depend on how fast the host happens to be.  The
    // clock decides one thing, how many timed repetitions of that trajectory
    // follow the workload's minimum.  A traced run spends the time on the
    // traced pass and the probes instead and stays at the minimum, like a
    // run without `--seconds`.
    let seconds: f64 = flags.number("seconds", 0.0)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a length of time"));
    }
    let trace = flags.trace()?;
    let w = workload::load(name)?;
    let out = flags.get("out").map_or_else(
        || results_dir().join(run_dir_name(name, seed, trace)),
        PathBuf::from,
    );

    let started = Instant::now();
    let deadline = (!trace)
        .then(|| (started + Duration::from_secs_f64(seconds)).checked_sub(REPORT_RESERVE))
        .flatten();
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    // Before anything probes the host or spawns a thread.
    let pinned_cpu = sys::pin_to_one_cpu()?;
    // The process's one cold start-up calibration, timed for the raw log; its
    // knobs are not used.  Set-up time takes its samples of the calibration
    // from `run::startup_calibration`, once per repetition.
    let t = Instant::now();
    clm_runtime::tuned();
    let cold_autotune_s = t.elapsed().as_secs_f64();

    let mut guard = run::Guard::new().with_deadline(deadline);
    let outcome = match &w.kind {
        workload::Kind::Training(t) => training::run(&w, t, seed, trace, &mut guard),
        workload::Kind::Serve(s) => serve::run(&w, s, seed, trace, &mut guard),
    };
    let (attempted, failed, mut problems) = guard.finish();
    let Some(mut outcome) = outcome else {
        for p in &problems {
            eprintln!("FAILED: {p}");
        }
        eprintln!("attempted {attempted} batches, {failed} failed; no result");
        return Ok(ExitCode::from(EXIT_INCORRECT));
    };
    outcome.timed.cold_autotune_s = cold_autotune_s;

    let report = report::build(&outcome, attempted, failed)?;
    problems.extend(report::check_invariants(&report, &w.invariants, trace));
    if outcome.counts.final_psnr_db <= outcome.counts.initial_psnr_db {
        problems.push(format!(
            "training did not improve the model: PSNR {} dB → {} dB",
            outcome.counts.initial_psnr_db, outcome.counts.final_psnr_db
        ));
    }
    let printed = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    if let Some(m) = printed.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not finite", m.name));
    }
    let correct = problems.is_empty() && failed == 0;
    let line = report::result_line(correct, attempted, failed, printed);

    eprintln!(
        "{name} seed {seed} trace {}: {attempted} batches attempted, {failed} failed, {:.1} s",
        u8::from(trace),
        started.elapsed().as_secs_f64()
    );
    report::print_table(&report.end_to_end);
    if trace {
        report::print_table(&report.per_layer);
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    report::write_files(
        &out,
        report::provenance(&w, seed, seconds, trace, host_cpus, pinned_cpu),
        &line,
        &report,
        &outcome,
        &problems,
    )
    .map_err(|e| format!("{}: {e}", out.display()))?;
    if !correct {
        return Ok(ExitCode::from(EXIT_INCORRECT));
    }
    println!("{}", line.to_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload once, each in a child process, into
/// `<set>/<run dir name><suffix>`.
fn run_set(set: &Path, seed: u64, seconds: f64, trace: bool, suffix: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for name in workload::WORKLOAD_NAMES {
        let out = set.join(run_dir_name(name, seed, trace) + suffix);
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {name} ended with {status}"));
        }
    }
    Ok(())
}

fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let set = flags
        .get("out")
        .map_or_else(|| results_dir().join("run"), PathBuf::from);
    let seconds = flags.number("seconds", report::RUN_SECONDS)?;
    run_set(&set, seed, seconds, flags.trace()?, "")?;
    eprintln!("results in {}", set.display());
    Ok(ExitCode::SUCCESS)
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two set directories".to_string());
    };
    let regressed = compare::compare(
        &compare::load_set(Path::new(a))?,
        &compare::load_set(Path::new(b))?,
    );
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{regressed} (workload, metric) pairs regressed");
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Two sets of `--runs` runs of the working tree, same seed, judged by
/// [`compare::selfcheck`].
fn selfcheck(flags: &Flags) -> Result<ExitCode, String> {
    let runs: usize = flags.number("runs", 5)?;
    if runs < 5 {
        return Err("selfcheck needs at least 5 runs per set".to_string());
    }
    let seed: u64 = flags.number("seed", 1)?;
    let seconds = flags.number("seconds", report::RUN_SECONDS)?;
    let root = flags
        .get("out")
        .map_or_else(|| results_dir().join("selfcheck"), PathBuf::from);
    let mut sets = Vec::new();
    for label in ["A", "B"] {
        let dir = root.join(label);
        // A stale set from an earlier selfcheck would be judged as this one's.
        if dir.exists() {
            return Err(format!(
                "{} already exists; remove it or pass another --out",
                dir.display()
            ));
        }
        for i in 0..runs {
            // Runs of one workload share a seed, so the run index names them.
            run_set(&dir, seed, seconds, false, &format!("-run{i}"))?;
        }
        sets.push(compare::load_set(&dir)?);
    }
    compare::compare(&sets[0], &sets[1]);
    let problems = compare::selfcheck(&sets[0], &sets[1]);
    for p in &problems {
        eprintln!("DISAGREE: {p}");
    }
    Ok(if problems.is_empty() {
        eprintln!("selfcheck: two sets of {runs} runs agree within every bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&Flags::parse(
            &args[1..],
            &["seed", "seconds", "trace", "out"],
        )?),
        Some("compare") => compare_sets(&args[1..]),
        Some("selfcheck") => selfcheck(&Flags::parse(
            &args[1..],
            &["runs", "seed", "seconds", "out"],
        )?),
        Some(flag) if flag.starts_with("--") => run_workload(&Flags::parse(
            args,
            &["workload", "seed", "seconds", "trace", "out"],
        )?),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("clm-benchmark: {message}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_the_drivers_command_line() {
        let args = strings(&[
            "--workload",
            "render_bound",
            "--seed",
            "7",
            "--seconds",
            "42",
            "--trace",
            "1",
        ]);
        let flags =
            Flags::parse(&args, &["workload", "seed", "seconds", "trace", "out"]).expect("parses");
        assert_eq!(flags.get("workload"), Some("render_bound"));
        assert_eq!(flags.number::<u64>("seed", 1), Ok(7));
        assert_eq!(flags.trace(), Ok(true));
        assert!(Flags::parse(&strings(&["--bogus", "1"]), &["seed"]).is_err());
        assert!(Flags::parse(&strings(&["--seed"]), &["seed"]).is_err());
        assert!(Flags::parse(&strings(&["--seed", "x"]), &["seed"])
            .expect("parses")
            .number::<u64>("seed", 1)
            .is_err());
    }

    /// Every workload, shrunk to `R = 1`, `B = 2` and 1.5 k rows, produces all eleven
    /// end-to-end metrics, finite, with no failed batch — traced, so the
    /// whole per-layer ladder is exercised too.
    #[test]
    fn every_workload_runs_shrunk_and_reports_every_metric() {
        for name in workload::WORKLOAD_NAMES {
            let w = workload::load(name).expect("loads").shrunk(1, 2, 1500);
            let mut guard = run::Guard::new();
            let outcome = match &w.kind {
                workload::Kind::Training(t) => training::run(&w, t, 11, true, &mut guard),
                workload::Kind::Serve(s) => serve::run(&w, s, 11, true, &mut guard),
            };
            let (attempted, failed, problems) = guard.finish();
            assert!(problems.is_empty(), "{name}: {problems:?}");
            assert_eq!(failed, 0, "{name}");
            let outcome = outcome.unwrap_or_else(|| panic!("{name}: no outcome"));
            // sim + (warm-up + R) × 2 passes + traced, B batches each.
            assert_eq!(
                attempted as usize,
                (2 + 3 + 1) * w.batches_per_pass(),
                "{name}"
            );
            let report = report::build(&outcome, attempted, failed).expect("report");
            let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, report::END_TO_END.map(|m| m.name), "{name}");
            for m in report.end_to_end.iter().chain(&report.per_layer) {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            for m in &report.end_to_end {
                assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
            }
            assert!(
                !outcome.spans.is_empty(),
                "{name}: traced run kept no spans"
            );
        }
    }
}
