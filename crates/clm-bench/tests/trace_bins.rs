//! Robustness contract of the trace binaries: every I/O or decode
//! failure must be a diagnostic on stderr plus a non-zero exit code — never
//! a panic, never a silent success.  Exercised end-to-end against the built
//! binaries (Cargo exposes their paths via `CARGO_BIN_EXE_*`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary spawns")
}

fn assert_clean_failure(out: &Output, what: &str) {
    assert!(
        !out.status.success(),
        "{what}: must exit non-zero, got {:?}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.trim().is_empty(),
        "{what}: a failure must carry a stderr diagnostic"
    );
    // A panic would print the "thread 'main' panicked" banner; the contract
    // is a clean diagnostic instead.
    assert!(
        !stderr.contains("panicked"),
        "{what}: binary panicked instead of failing cleanly:\n{stderr}"
    );
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clm_trace_bins_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Records the test-scale simulated trace into `dir`.
fn record_test_trace(dir: &std::path::Path) -> PathBuf {
    let trace_path = dir.join("real.clmtrace");
    let out = run(
        env!("CARGO_BIN_EXE_trace_record"),
        &[
            "--scale",
            "test",
            "--out",
            trace_path.to_str().expect("utf-8 path"),
        ],
        dir,
    );
    assert!(
        out.status.success(),
        "trace_record must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    trace_path
}

#[test]
fn trace_binaries_fail_cleanly_without_arguments() {
    let dir = scratch_dir("noargs");
    for bin in [
        env!("CARGO_BIN_EXE_trace_replay"),
        env!("CARGO_BIN_EXE_trace_report"),
    ] {
        let out = run(bin, &[], &dir);
        assert_clean_failure(&out, &format!("{bin} with no arguments"));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "missing-path failure should print usage"
        );
    }
}

#[test]
fn trace_binaries_fail_cleanly_on_missing_files() {
    let dir = scratch_dir("missing");
    for bin in [
        env!("CARGO_BIN_EXE_trace_replay"),
        env!("CARGO_BIN_EXE_trace_report"),
    ] {
        let out = run(bin, &["does_not_exist.clmtrace"], &dir);
        assert_clean_failure(&out, &format!("{bin} on a missing file"));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot read"),
            "I/O failure should name the unreadable path"
        );
    }
}

#[test]
fn trace_binaries_reject_corrupt_and_truncated_input() {
    let dir = scratch_dir("corrupt");

    // Record a real trace so the truncation test corrupts genuine bytes,
    // not a synthetic stand-in.
    let trace_path = record_test_trace(&dir);
    let bytes = std::fs::read(&trace_path).expect("recorded trace exists");
    assert!(bytes.len() > 64, "recorded trace is implausibly small");

    // Truncated at every interesting depth: inside the magic, inside the
    // header, inside the event stream.
    for cut in [3, 16, bytes.len() / 2] {
        let cut_path = dir.join(format!("cut_{cut}.clmtrace"));
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncated");
        for bin in [
            env!("CARGO_BIN_EXE_trace_replay"),
            env!("CARGO_BIN_EXE_trace_report"),
        ] {
            let out = run(bin, &[cut_path.to_str().expect("utf-8 path")], &dir);
            assert_clean_failure(&out, &format!("{bin} on a trace truncated at {cut}"));
        }
    }

    // Corrupt magic: right length, wrong container.
    let garbage_path = dir.join("garbage.clmtrace");
    let mut garbage = bytes.clone();
    garbage[0] ^= 0xFF;
    std::fs::write(&garbage_path, &garbage).expect("write corrupt");
    for bin in [
        env!("CARGO_BIN_EXE_trace_replay"),
        env!("CARGO_BIN_EXE_trace_report"),
    ] {
        let out = run(bin, &[garbage_path.to_str().expect("utf-8 path")], &dir);
        assert_clean_failure(&out, &format!("{bin} on a corrupt magic"));
    }

    // Bad knob values fail before any file I/O.
    let out = run(
        env!("CARGO_BIN_EXE_trace_replay"),
        &[trace_path.to_str().expect("utf-8 path"), "--window", "lots"],
        &dir,
    );
    assert_clean_failure(&out, "trace_replay with a non-numeric --window");

    // The largest window is a valid one: the "window ≥ batch" schedule
    // (this overflowed the replay's own window arithmetic before it shared
    // the emitter's saturating `PrefetchWindow`).
    let out = run(
        env!("CARGO_BIN_EXE_trace_replay"),
        &[
            trace_path.to_str().expect("utf-8 path"),
            "--window",
            &usize::MAX.to_string(),
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "trace_replay --window usize::MAX must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(
        summary.starts_with("{\"schema\":\"clm_trace_replay_v1\",\"mode\":\"knobs\""),
        "{summary}"
    );
    assert!(summary.trim_end().ends_with('}'), "{summary}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The trace path is the positional argument wherever it stands: a flag's
/// value in front of it used to be taken for the path (`trace_replay
/// --window 2 T` tried to read a file called `2`, `trace_report --out r.json
/// T` decoded `r.json`).
#[test]
fn flags_may_precede_the_trace_path() {
    let dir = scratch_dir("flag_order");
    let trace_path = record_test_trace(&dir);
    let trace = trace_path.to_str().expect("utf-8 path");
    let stdout_of = |bin: &str, args: &[&str]| {
        let out = run(bin, args, &dir);
        assert!(
            out.status.success(),
            "{bin} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let replay = env!("CARGO_BIN_EXE_trace_replay");
    let path_first = stdout_of(replay, &[trace, "--window", "2"]);
    assert!(path_first.contains("\"mode\":\"knobs\""), "{path_first}");
    assert_eq!(stdout_of(replay, &["--window", "2", trace]), path_first);

    let report = env!("CARGO_BIN_EXE_trace_report");
    let path_first = stdout_of(report, &[trace, "--out", "after.json"]);
    assert_eq!(
        stdout_of(report, &["--out", "before.json", trace]),
        path_first
    );
    for written in ["after.json", "before.json"] {
        let json = std::fs::read_to_string(dir.join(written)).expect("--out file written");
        assert_eq!(json, path_first, "{written}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_record_rejects_unknown_backend_and_scale() {
    let dir = scratch_dir("record_args");
    let out = run(
        env!("CARGO_BIN_EXE_trace_record"),
        &["--backend", "quantum"],
        &dir,
    );
    assert_clean_failure(&out, "trace_record with an unknown backend");
    let out = run(
        env!("CARGO_BIN_EXE_trace_record"),
        &["--scale", "galactic"],
        &dir,
    );
    assert_clean_failure(&out, "trace_record with an unknown scale");
    std::fs::remove_dir_all(&dir).ok();
}
