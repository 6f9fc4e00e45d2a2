//! Host CPU topology probe: the `host-topo` half of hardware-aware
//! autotuning.
//!
//! Every execution knob that decides CLM's overlap quality
//! (`compute_threads`, `band_height`, the prefetch window, the Adam
//! chunk size) depends on what the *host* actually offers: how many cores
//! the scheduler may really use (which is **not**
//! `available_parallelism()` inside a cgroup-throttled container), how big
//! the caches the banded kernels block for are, and whether "16 CPUs" means
//! 16 physical cores or 8 cores with SMT.  This module answers those
//! questions once per process:
//!
//! * [`CpuVendor`] — CPUID-style vendor classification via a match table
//!   over `/proc/cpuinfo`'s `vendor_id` / `CPU implementer` fields;
//! * [`HostTopology`] — the typed probe result: physical/logical cores,
//!   SMT, cache line and L2/L3 sizes, and the cgroup CPU quota (v1
//!   `cpu.cfs_quota_us`/`cpu.cfs_period_us` and v2 `cpu.max` are both
//!   understood);
//! * [`HostTopology::effective_cores`] — the core count schedulers should
//!   size worker lanes by: logical CPUs capped by the cgroup quota;
//! * [`HostTopology::fingerprint`] — a stable key for per-(host, scene)
//!   tuning records.
//!
//! Everything is probed through **pure string parsers** over file contents
//! (`/proc/cpuinfo`, `/sys/devices/system/cpu/.../cache`, the cgroup
//! files), so the detection logic is unit-testable with mocked inputs, and
//! the portable fallback (`std::thread::available_parallelism`, default
//! cache geometry) kicks in field by field on any platform where a probe
//! file is missing.

use std::fmt;
use std::sync::OnceLock;

/// Default cache line size assumed when the probe cannot read one.
pub const DEFAULT_CACHE_LINE_BYTES: usize = 64;

/// Default per-core L2 size (bytes) assumed when the probe cannot read one.
pub const DEFAULT_L2_BYTES: u64 = 512 * 1024;

/// Default shared L3 size (bytes) assumed when the probe cannot read one.
pub const DEFAULT_L3_BYTES: u64 = 8 * 1024 * 1024;

/// CPU vendor, classified from CPUID-style identification strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CpuVendor {
    /// `GenuineIntel`.
    Intel,
    /// `AuthenticAMD`.
    Amd,
    /// ARM implementers (`CPU implementer: 0x41` and relatives), including
    /// Apple silicon exposed through Linux.
    Arm,
    /// Anything the match table does not recognise.
    #[default]
    Unknown,
}

impl CpuVendor {
    /// Classifies a `/proc/cpuinfo` `vendor_id` (x86) or `CPU implementer`
    /// (ARM) value.  The match table mirrors the CPUID vendor strings; an
    /// unrecognised value maps to [`CpuVendor::Unknown`] rather than
    /// failing.
    pub fn from_id(id: &str) -> Self {
        match id.trim() {
            "GenuineIntel" => CpuVendor::Intel,
            "AuthenticAMD" | "HygonGenuine" => CpuVendor::Amd,
            // ARM implementer codes: ARM Ltd, Apple, Ampere, Qualcomm.
            "0x41" | "0x61" | "0xc0" | "0x51" => CpuVendor::Arm,
            _ => CpuVendor::Unknown,
        }
    }
}

impl fmt::Display for CpuVendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CpuVendor::Intel => "intel",
            CpuVendor::Amd => "amd",
            CpuVendor::Arm => "arm",
            CpuVendor::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

/// The probed host topology.
///
/// Construct with [`HostTopology::detect`] (or the process-cached
/// [`HostTopology::cached`]); every field falls back to a safe default when
/// its probe source is unavailable, so detection never fails.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTopology {
    /// CPU vendor from the CPUID match table.
    pub vendor: CpuVendor,
    /// The `model name` string from `/proc/cpuinfo` (empty when unknown).
    pub model_name: String,
    /// Physical cores (unique `(physical id, core id)` pairs; falls back to
    /// the logical count when the topology fields are absent).
    pub physical_cores: usize,
    /// Logical CPUs the OS exposes (`available_parallelism` fallback).
    pub logical_cpus: usize,
    /// Whether SMT is active (`logical_cpus > physical_cores`).
    pub smt: bool,
    /// Cache line size in bytes.
    pub cache_line_bytes: usize,
    /// Per-core L2 size in bytes.
    pub l2_bytes: u64,
    /// Shared L3 size in bytes (0 when the host genuinely has none).
    pub l3_bytes: u64,
    /// cgroup CPU quota in cores (v1 `cfs_quota/cfs_period` or v2
    /// `cpu.max`), `None` when unthrottled or undetectable.
    pub cpu_quota: Option<f64>,
}

impl Default for HostTopology {
    fn default() -> Self {
        HostTopology::fallback()
    }
}

impl HostTopology {
    /// The portable fallback topology: `available_parallelism` logical
    /// CPUs, no SMT/vendor/cache information beyond the defaults.
    pub fn fallback() -> Self {
        let logical = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        HostTopology {
            vendor: CpuVendor::Unknown,
            model_name: String::new(),
            physical_cores: logical,
            logical_cpus: logical,
            smt: false,
            cache_line_bytes: DEFAULT_CACHE_LINE_BYTES,
            l2_bytes: DEFAULT_L2_BYTES,
            l3_bytes: DEFAULT_L3_BYTES,
            cpu_quota: None,
        }
    }

    /// Probes the host: `/proc/cpuinfo`, the sysfs cache hierarchy and the
    /// cgroup quota files, falling back field by field where a source is
    /// missing (non-Linux hosts get the pure fallback).
    pub fn detect() -> Self {
        let mut topo = HostTopology::fallback();
        if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
            apply_cpuinfo(&mut topo, &cpuinfo);
        }
        // available_parallelism already honours CPU affinity masks; keep
        // whichever logical count is smaller so a taskset-restricted
        // process does not oversubscribe either.
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(topo.logical_cpus);
        if avail < topo.logical_cpus {
            topo.logical_cpus = avail.max(1);
            topo.physical_cores = topo.physical_cores.min(topo.logical_cpus);
        }
        topo.smt = topo.logical_cpus > topo.physical_cores;
        apply_sysfs_caches(&mut topo);
        topo.cpu_quota = detect_cpu_quota();
        topo
    }

    /// The process-cached probe result; the filesystem is touched once.
    pub fn cached() -> &'static HostTopology {
        static TOPO: OnceLock<HostTopology> = OnceLock::new();
        TOPO.get_or_init(HostTopology::detect)
    }

    /// The core count worker lanes should be sized by: logical CPUs capped
    /// by the cgroup quota (rounded up — a 1.5-core quota still deserves 2
    /// workers), never below 1.
    ///
    /// This is the cgroup-aware replacement for raw
    /// `available_parallelism()`: in a container limited to 2 CPUs on a
    /// 64-core host, `available_parallelism` reports 64 and oversubscribed
    /// worker lanes time-slice against each other; `effective_cores`
    /// reports 2.
    pub fn effective_cores(&self) -> usize {
        let quota_cores = match self.cpu_quota {
            Some(q) if q > 0.0 => q.ceil() as usize,
            _ => usize::MAX,
        };
        self.logical_cpus.min(quota_cores).max(1)
    }

    /// A stable identity for per-(host, scene) tuning records: vendor, core
    /// topology, cache sizes and the effective core count (so a quota
    /// change re-tunes rather than replaying knobs sized for more cores).
    pub fn fingerprint(&self) -> String {
        format!(
            "{}-{}c{}t-l2:{}k-l3:{}k-e{}",
            self.vendor,
            self.physical_cores,
            self.logical_cpus,
            self.l2_bytes / 1024,
            self.l3_bytes / 1024,
            self.effective_cores(),
        )
    }
}

/// Applies the parseable fields of a `/proc/cpuinfo` dump onto `topo`.
/// Pure with respect to the filesystem, so tests can feed mocked content.
pub fn apply_cpuinfo(topo: &mut HostTopology, cpuinfo: &str) {
    let mut logical = 0usize;
    let mut cores_per_package = 0usize;
    let mut physical_pairs = std::collections::HashSet::new();
    let mut physical_id = None;
    let mut core_id = None;
    for line in cpuinfo.lines() {
        let Some((key, value)) = line.split_once(':') else {
            // Blank line: one processor block ends.  Flush the pair so the
            // ids of the next block do not bleed into this one.
            if let (Some(p), Some(c)) = (physical_id.take(), core_id.take()) {
                physical_pairs.insert((p, c));
            }
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "processor" => logical += 1,
            "vendor_id" | "CPU implementer" if topo.vendor == CpuVendor::Unknown => {
                topo.vendor = CpuVendor::from_id(value);
            }
            "model name" | "Processor" if topo.model_name.is_empty() => {
                topo.model_name = value.to_string();
            }
            "cpu cores" => cores_per_package = value.parse().unwrap_or(cores_per_package),
            "physical id" => physical_id = value.parse::<usize>().ok(),
            "core id" => core_id = value.parse::<usize>().ok(),
            "cache_alignment" => {
                topo.cache_line_bytes = value.parse().unwrap_or(topo.cache_line_bytes)
            }
            _ => {}
        }
    }
    if let (Some(p), Some(c)) = (physical_id, core_id) {
        physical_pairs.insert((p, c));
    }
    if logical > 0 {
        topo.logical_cpus = logical;
    }
    topo.physical_cores = if !physical_pairs.is_empty() {
        physical_pairs.len()
    } else if cores_per_package > 0 {
        cores_per_package
    } else {
        topo.logical_cpus
    };
    topo.smt = topo.logical_cpus > topo.physical_cores;
}

/// Parses a sysfs cache size string (`"512K"`, `"8192K"`, `"1M"`, or plain
/// bytes) into bytes.
pub fn parse_cache_size(s: &str) -> Option<u64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    let (digits, mult) = match t.as_bytes()[t.len() - 1].to_ascii_uppercase() {
        b'K' => (&t[..t.len() - 1], 1024u64),
        b'M' => (&t[..t.len() - 1], 1024 * 1024),
        b'G' => (&t[..t.len() - 1], 1024 * 1024 * 1024),
        _ => (t, 1),
    };
    digits.trim().parse::<u64>().ok().map(|n| n * mult)
}

/// Parses a cgroup **v2** `cpu.max` file (`"max 100000"` = unthrottled,
/// `"200000 100000"` = 2.0 cores) into a quota in cores.
pub fn parse_cgroup_v2_max(content: &str) -> Option<f64> {
    let mut parts = content.split_whitespace();
    let quota = parts.next()?;
    if quota == "max" {
        return None;
    }
    let quota: f64 = quota.parse().ok()?;
    let period: f64 = parts.next().unwrap_or("100000").parse().ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// Parses the cgroup **v1** pair `cpu.cfs_quota_us` / `cpu.cfs_period_us`
/// (`quota = -1` = unthrottled) into a quota in cores.
pub fn parse_cgroup_v1(quota_us: &str, period_us: &str) -> Option<f64> {
    let quota: f64 = quota_us.trim().parse().ok()?;
    let period: f64 = period_us.trim().parse().ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// Reads the cgroup CPU quota from the standard v2 then v1 mount points.
fn detect_cpu_quota() -> Option<f64> {
    if let Ok(content) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        if let Some(q) = parse_cgroup_v2_max(&content) {
            return Some(q);
        }
        // A readable cpu.max saying "max" means cgroup v2 without a quota;
        // do not fall through to stale v1 paths.
        return None;
    }
    for dir in ["/sys/fs/cgroup/cpu", "/sys/fs/cgroup/cpu,cpuacct"] {
        let quota = std::fs::read_to_string(format!("{dir}/cpu.cfs_quota_us"));
        let period = std::fs::read_to_string(format!("{dir}/cpu.cfs_period_us"));
        if let (Ok(q), Ok(p)) = (quota, period) {
            if let Some(cores) = parse_cgroup_v1(&q, &p) {
                return Some(cores);
            }
        }
    }
    None
}

/// Reads the L2/L3/line sizes from `/sys/devices/system/cpu/cpu0/cache`.
fn apply_sysfs_caches(topo: &mut HostTopology) {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for index in 0..=4usize {
        let read = |file: &str| std::fs::read_to_string(format!("{base}/index{index}/{file}"));
        let Ok(level) = read("level") else { continue };
        let cache_type = read("type").unwrap_or_default();
        let t = cache_type.trim();
        if t == "Instruction" {
            continue;
        }
        let size = read("size").ok().and_then(|s| parse_cache_size(&s));
        match level.trim() {
            "2" => topo.l2_bytes = size.unwrap_or(topo.l2_bytes),
            "3" => topo.l3_bytes = size.unwrap_or(topo.l3_bytes),
            _ => {}
        }
        if let Ok(line) = read("coherency_line_size") {
            if let Ok(bytes) = line.trim().parse::<usize>() {
                if bytes > 0 {
                    topo.cache_line_bytes = bytes;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPUINFO_2S_SMT: &str = "\
processor\t: 0
vendor_id\t: AuthenticAMD
model name\t: AMD EPYC 7B13 64-Core Processor
physical id\t: 0
core id\t: 0
cpu cores\t: 2
cache_alignment\t: 64

processor\t: 1
vendor_id\t: AuthenticAMD
model name\t: AMD EPYC 7B13 64-Core Processor
physical id\t: 0
core id\t: 0
cpu cores\t: 2

processor\t: 2
vendor_id\t: AuthenticAMD
model name\t: AMD EPYC 7B13 64-Core Processor
physical id\t: 0
core id\t: 1
cpu cores\t: 2

processor\t: 3
vendor_id\t: AuthenticAMD
model name\t: AMD EPYC 7B13 64-Core Processor
physical id\t: 0
core id\t: 1
cpu cores\t: 2
";

    #[test]
    fn vendor_match_table_classifies_the_usual_suspects() {
        assert_eq!(CpuVendor::from_id("GenuineIntel"), CpuVendor::Intel);
        assert_eq!(CpuVendor::from_id(" AuthenticAMD "), CpuVendor::Amd);
        assert_eq!(CpuVendor::from_id("0x41"), CpuVendor::Arm);
        assert_eq!(CpuVendor::from_id("0x61"), CpuVendor::Arm);
        assert_eq!(CpuVendor::from_id("TransmetaCPU"), CpuVendor::Unknown);
        assert_eq!(CpuVendor::Amd.to_string(), "amd");
        assert_eq!(CpuVendor::Unknown.to_string(), "unknown");
    }

    #[test]
    fn cpuinfo_parse_counts_physical_and_logical_cores() {
        let mut topo = HostTopology::fallback();
        apply_cpuinfo(&mut topo, CPUINFO_2S_SMT);
        assert_eq!(topo.vendor, CpuVendor::Amd);
        assert_eq!(topo.model_name, "AMD EPYC 7B13 64-Core Processor");
        assert_eq!(topo.logical_cpus, 4);
        assert_eq!(topo.physical_cores, 2, "2 cores x 2 SMT threads");
        assert!(topo.smt);
        assert_eq!(topo.cache_line_bytes, 64);
    }

    #[test]
    fn cpuinfo_without_topology_fields_falls_back_to_logical() {
        let mut topo = HostTopology::fallback();
        apply_cpuinfo(
            &mut topo,
            "processor\t: 0\nvendor_id\t: GenuineIntel\n\nprocessor\t: 1\n",
        );
        assert_eq!(topo.vendor, CpuVendor::Intel);
        assert_eq!(topo.logical_cpus, 2);
        assert_eq!(topo.physical_cores, 2);
        assert!(!topo.smt);
    }

    #[test]
    fn cache_size_strings_parse_in_sysfs_units() {
        assert_eq!(parse_cache_size("512K"), Some(512 * 1024));
        assert_eq!(parse_cache_size("32768K\n"), Some(32768 * 1024));
        assert_eq!(parse_cache_size("8M"), Some(8 * 1024 * 1024));
        assert_eq!(parse_cache_size("1024"), Some(1024));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("junk"), None);
    }

    #[test]
    fn cgroup_v2_quota_parses_cores_and_max() {
        assert_eq!(parse_cgroup_v2_max("max 100000\n"), None);
        assert_eq!(parse_cgroup_v2_max("200000 100000\n"), Some(2.0));
        assert_eq!(parse_cgroup_v2_max("150000 100000"), Some(1.5));
        // Missing period defaults to the kernel's 100ms.
        assert_eq!(parse_cgroup_v2_max("50000"), Some(0.5));
        assert_eq!(parse_cgroup_v2_max(""), None);
        assert_eq!(parse_cgroup_v2_max("garbage here"), None);
    }

    #[test]
    fn cgroup_v1_quota_parses_cores_and_unlimited() {
        assert_eq!(parse_cgroup_v1("-1\n", "100000\n"), None);
        assert_eq!(parse_cgroup_v1("400000", "100000"), Some(4.0));
        assert_eq!(parse_cgroup_v1("junk", "100000"), None);
        assert_eq!(parse_cgroup_v1("100000", "0"), None);
    }

    /// The satellite regression: a mocked 2-core quota on a big SMT host
    /// must cap the effective core count at 2, not report 64.
    #[test]
    fn effective_cores_respects_a_mocked_quota() {
        let mut topo = HostTopology::fallback();
        topo.logical_cpus = 64;
        topo.physical_cores = 32;
        topo.cpu_quota = parse_cgroup_v2_max("200000 100000");
        assert_eq!(topo.effective_cores(), 2);
        // Fractional quotas round up: 1.5 cores still deserves 2 workers.
        topo.cpu_quota = parse_cgroup_v1("150000", "100000");
        assert_eq!(topo.effective_cores(), 2);
        // Unthrottled: the logical count stands.
        topo.cpu_quota = None;
        assert_eq!(topo.effective_cores(), 64);
        // A quota wider than the host never inflates the count.
        topo.cpu_quota = Some(128.0);
        assert_eq!(topo.effective_cores(), 64);
        // Degenerate quotas cannot zero the count.
        topo.cpu_quota = Some(0.0);
        assert_eq!(topo.effective_cores(), 64);
        topo.logical_cpus = 1;
        topo.cpu_quota = Some(0.25);
        assert_eq!(topo.effective_cores(), 1);
    }

    #[test]
    fn fingerprint_tracks_the_effective_core_count() {
        let mut topo = HostTopology::fallback();
        topo.vendor = CpuVendor::Amd;
        topo.physical_cores = 8;
        topo.logical_cpus = 16;
        topo.l2_bytes = 512 * 1024;
        topo.l3_bytes = 32 * 1024 * 1024;
        topo.cpu_quota = None;
        let unthrottled = topo.fingerprint();
        assert_eq!(unthrottled, "amd-8c16t-l2:512k-l3:32768k-e16");
        topo.cpu_quota = Some(2.0);
        let throttled = topo.fingerprint();
        assert_eq!(throttled, "amd-8c16t-l2:512k-l3:32768k-e2");
        assert_ne!(unthrottled, throttled, "quota changes re-key the tuning");
    }

    #[test]
    fn detect_never_fails_and_caches() {
        let topo = HostTopology::detect();
        assert!(topo.logical_cpus >= 1);
        assert!(topo.physical_cores >= 1);
        assert!(topo.physical_cores <= topo.logical_cpus);
        assert!(topo.effective_cores() >= 1);
        assert!(topo.effective_cores() <= topo.logical_cpus);
        assert!(topo.cache_line_bytes > 0);
        assert!(topo.l2_bytes > 0);
        let cached = HostTopology::cached();
        assert_eq!(cached, HostTopology::cached(), "stable across calls");
    }
}
