//! `compare <setA> <setB>` and the rule `selfcheck` applies.
//!
//! A *set* is a directory of run directories, each holding the `result.json`
//! one run wrote.  `compare` groups them by workload and applies the
//! choosing-metrics §8 rule to every end-to-end metric.

use crate::json::Json;
use crate::report::{Better, EndToEnd, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// `workload → metric → one value per run`, runs in directory-name order.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn load_set(dir: &Path) -> Result<Set, String> {
    let mut runs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path().join("result.json"))
        .filter(|p| p.is_file())
        .collect();
    runs.sort();
    if runs.is_empty() {
        return Err(format!("{}: no <run>/result.json inside", dir.display()));
    }
    let mut set = Set::new();
    for path in runs {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(Json::str)
            .ok_or_else(|| format!("{}: no provenance.workload", path.display()))?;
        let metrics = doc
            .get("end_to_end")
            .and_then(Json::members)
            .ok_or_else(|| format!("{}: no end_to_end object", path.display()))?;
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("{}: {name} has no numeric value", path.display()))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The choosing-metrics §8 rule for one metric on one workload, `a` the
/// parent's runs and `b` the change's, paired by position:
///
/// * *regressed* — `b`'s median is worse than `a`'s by more than the bound;
/// * *improved* — `b` wins at least nine tenths of the pairs (ties count for
///   neither side) and the medians differ by more than `a`'s own
///   interquartile range;
/// * *unresolved* — neither, and the run-to-run spread of either side is
///   wider than the bound, so "no change" cannot be told from "change";
/// * *unchanged* — otherwise.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
    if worse_by(metric.better, qa[1], qb[1]) > metric.bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| worse_by(metric.better, **x, **y) < 0.0)
        .count();
    let beyond_own_spread = (qb[1] - qa[1]).abs() > qa[2] - qa[0];
    if pairs > 0 && wins * 10 >= pairs * 9 && beyond_own_spread {
        return Verdict::Improved;
    }
    if stats::iqr_over_median(a).max(stats::iqr_over_median(b)) > metric.bound {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Prints the comparison table; returns how many rows regressed.
pub fn compare(a: &Set, b: &Set) -> usize {
    let mut regressed = 0;
    println!(
        "{:<15} {:<21} {:>12} {:>25} {:>12} {:>25} {:>16}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A (base A)"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload:<15} (absent from set B)");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(metric.name), metrics_b.get(metric.name))
            else {
                println!("{workload:<15} {:<21} (absent from one set)", metric.name);
                continue;
            };
            let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
            let v = verdict(metric, va, vb);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<15} {:<21} {:>12.5} {:>25} {:>12.5} {:>25} {:>7.4} of {:<7.5} {}",
                metric.name,
                qa[1],
                format!("[{:.5}, {:.5}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.5}, {:.5}]", qb[0], qb[2]),
                if qa[1] == 0.0 { 0.0 } else { qb[1] / qa[1] },
                qa[1],
                v.as_str(),
            );
        }
    }
    regressed
}

/// The acceptance rule of two sets of runs of the *same* code and seed: for
/// every (workload, end-to-end metric) the set medians differ by less than
/// the metric's bound, within each set `(max − min) ÷ median` is below the
/// bound, and the count metrics are identical in every run of both sets.
/// Returns the disagreements.
pub fn selfcheck(a: &Set, b: &Set) -> Vec<String> {
    let mut problems = Vec::new();
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            problems.push(format!("{workload}: absent from the second set"));
            continue;
        };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(metric.name), metrics_b.get(metric.name))
            else {
                problems.push(format!("{workload}/{}: absent from a set", metric.name));
                continue;
            };
            let tag = format!("{workload}/{}", metric.name);
            if metric.count {
                if va.iter().chain(vb).any(|v| v.to_bits() != va[0].to_bits()) {
                    problems.push(format!(
                        "{tag}: a count differs between runs: {va:?} {vb:?}"
                    ));
                }
                continue;
            }
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let between = (ma - mb).abs() / ma.abs();
            if between >= metric.bound {
                problems.push(format!(
                    "{tag}: set medians {ma} and {mb} differ by {between:.4} (bound {})",
                    metric.bound
                ));
            }
            for (set, values) in [("A", va), ("B", vb)] {
                let (min, max) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                let range = (max - min) / stats::median(values).abs();
                if range >= metric.bound {
                    problems.push(format!(
                        "{tag}: set {set} ranges over {range:.4} of its median (bound {})",
                        metric.bound
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A higher-is-better rate with a 10 % bound, whatever the table says.
    fn rate_metric() -> EndToEnd {
        EndToEnd {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
            count: false,
        }
    }

    #[test]
    fn verdicts_follow_the_section_8_rule() {
        let m = rate_metric();
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Higher is better: 20 % lower is a regression.
        let slower: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&m, &base, &slower), Verdict::Regressed);
        // 5 % higher in every pair, far beyond A's own spread: improved.
        let faster: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&m, &base, &faster), Verdict::Improved);
        // Same distribution: unchanged.
        assert_eq!(verdict(&m, &base, &base), Verdict::Unchanged);
        // Spread wider than the bound and no clear winner: unresolved, never
        // unchanged.
        let noisy = [
            100.0, 140.0, 70.0, 120.0, 85.0, 130.0, 75.0, 110.0, 90.0, 100.0,
        ];
        assert_eq!(verdict(&m, &noisy, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&m, &base, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn direction_is_respected() {
        let lower = *END_TO_END
            .iter()
            .find(|m| m.name == "batch_p50_ms")
            .unwrap();
        assert!(worse_by(lower.better, 10.0, 12.0) > 0.19);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < -0.19);
    }

    #[test]
    fn selfcheck_flags_counts_that_move_and_medians_that_drift() {
        let mut a = Set::new();
        let mut b = Set::new();
        for (set, rate, bytes) in [(&mut a, 100.0, 5000.0), (&mut b, 100.5, 5000.0)] {
            let metrics = set.entry("w".to_string()).or_default();
            for m in &END_TO_END {
                let v = if m.name == "comm_bytes_per_image" {
                    bytes
                } else {
                    rate
                };
                metrics.insert(m.name.to_string(), vec![v; 5]);
            }
        }
        assert!(selfcheck(&a, &a).is_empty());
        // Wall-clock medians 0.5 % apart pass; the same gap on a count fails.
        let problems = selfcheck(&a, &b);
        assert!(!problems.is_empty());
        assert!(
            problems.iter().all(|p| p.contains("a count differs")),
            "{problems:?}"
        );
        b.get_mut("w")
            .unwrap()
            .insert("images_per_s".to_string(), vec![70.0; 5]);
        assert!(selfcheck(&a, &b)
            .iter()
            .any(|p| p.contains("w/images_per_s: set medians")));
    }
}
