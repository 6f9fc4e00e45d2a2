//! What the harness reads from `/proc`: the peak resident set and — for the
//! watchdog's diagnosis — what every thread of this process is doing.  Linux
//! only; elsewhere the readers return `None` and the run reports the metric
//! as failed rather than inventing a value.

use std::fs;

/// The fields of a `/proc/.../stat` line after the `(comm)` field, which may
/// itself contain spaces and parentheses.
fn stat_fields_after_comm(stat: &str) -> Option<Vec<&str>> {
    let close = stat.rfind(')')?;
    Some(stat[close + 1..].split_whitespace().collect())
}

/// Resets the kernel's peak-resident-set mark to the current resident set, so
/// the next [`peak_rss_mib`] covers only what ran in between.  Returns whether
/// the kernel took it (it needs `CONFIG_PROC_PAGE_MONITOR`); where it does
/// not, every repetition reads the process-wide peak instead.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` (peak resident set since the last reset) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One line per thread of this process: tid, name, scheduler state and the
/// syscall it sits in (when the kernel lets us read it).
pub fn thread_states() -> Vec<String> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return vec!["(no /proc/self/task on this host)".to_string()];
    };
    let mut lines: Vec<String> = tasks
        .flatten()
        .map(|entry| {
            let dir = entry.path();
            let read = |f: &str| fs::read_to_string(dir.join(f)).unwrap_or_default();
            let stat = read("stat");
            let state = stat_fields_after_comm(&stat)
                .and_then(|f| f.first().map(|s| s.to_string()))
                .unwrap_or_else(|| "?".to_string());
            format!(
                "tid {} name {:?} state {} wchan {:?} syscall {:?}",
                entry.file_name().to_string_lossy(),
                read("comm").trim(),
                state,
                read("wchan").trim(),
                read("syscall").trim(),
            )
        })
        .collect();
    lines.sort();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_parentheses_in_comm() {
        let stat = "42 (a (weird) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        let fields = stat_fields_after_comm(stat).expect("parses");
        assert_eq!(fields[0], "S");
    }

    #[test]
    fn proc_readers_return_plausible_values_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_mib().expect("VmHWM") > 0.5);
        assert!(!thread_states().is_empty());
    }
}
