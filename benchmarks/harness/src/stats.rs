//! The estimators.  Everything the benchmark reports as a wall-clock number
//! goes through one of these, so "how was this computed" has one answer.

/// Median of a sample (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty sample — every caller sizes its sample from the
/// repetition count, which is at least 1.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Smallest value of a sample: the estimator of everything disturbance can
/// only add to (see [`best_trajectory`]).
///
/// # Panics
/// Panics on an empty sample.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First, second and third quartile by the *exclusive* method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so `compare` and
/// `selfcheck` judge spread exactly the way the driver does.  A sample of
/// one has no spread: all three are that value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let at = |q: usize| {
        // Position q·(n+1)/4 on a 1-based axis, clamped to the sample.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Per-batch-index minimum across repetitions: `t[r][b]` → `m[b]` — the
/// *best trajectory*.
///
/// Disturbance on a shared host is one-sided (it only ever adds time) and
/// comes in bursts of seconds to a minute.  The minimum over repetitions of
/// one batch index is clean as soon as *one* repetition of that index was
/// undisturbed, where the median needs half of them; over ten runs on the
/// reference host the best trajectory spread 2–4× less than the median
/// trajectory.  It is only as good as the time the repetitions span, which
/// is why a run keeps repeating until `--seconds` is up.  Costs tied to an index (a densify boundary, an evict/resume
/// before a step) are in every repetition and stay counted, and a real
/// regression slows every repetition, so the minimum moves with it.
///
/// # Panics
/// Panics if the repetitions differ in length or there are none.
pub fn best_trajectory(reps: &[Vec<f64>]) -> Vec<f64> {
    assert!(!reps.is_empty(), "a trajectory needs a repetition");
    let b = reps[0].len();
    assert!(
        reps.iter().all(|r| r.len() == b),
        "repetitions ran different trajectories"
    );
    (0..b)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Work per second over the best trajectory.
pub fn trajectory_rate(work: f64, reps: &[Vec<f64>]) -> f64 {
    work / best_trajectory(reps).iter().sum::<f64>()
}

/// Tail value by the choosing-metrics rule: the highest percentile that
/// still has at least ten samples beyond it.  Returns `(percentile, value)`;
/// with fewer than eleven samples no percentile qualifies and the median is
/// returned as percentile 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let n = values.len();
    if n < 11 {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // v[n - 11] has exactly ten samples after it.
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(iqr_over_median(&v), 1.0);
    }

    /// Hand-computed case: five reps of four batches at 10 ms each, with a
    /// 10× burst injected into four of the five reps of batch 1, into rep 2
    /// of batch 2, and a real index-aligned cost (batch 3 takes 30 ms in
    /// every rep).
    #[test]
    fn best_trajectory_ignores_bursts_but_keeps_aligned_costs() {
        let mut reps = vec![vec![0.010, 0.010, 0.010, 0.030]; 5];
        for r in [0, 1, 2, 4] {
            reps[r][1] = 0.100;
        }
        reps[2][2] = 0.100;
        assert_eq!(best_trajectory(&reps), vec![0.010, 0.010, 0.010, 0.030]);
        // 16 images over 60 ms of best trajectory.
        let rate = trajectory_rate(16.0, &reps);
        assert!((rate - 16.0 / 0.060).abs() < 1e-9, "{rate}");
        // The mean-of-reps estimator would have been dragged by the bursts:
        let mean_wall: f64 = reps.iter().map(|r| r.iter().sum::<f64>()).sum::<f64>() / 5.0;
        assert!((mean_wall - 0.150).abs() < 1e-12);
        assert!(16.0 / mean_wall < 0.45 * rate);
        // A slowdown that is in every repetition is not noise: it counts.
        for rep in &mut reps {
            rep[0] = 0.020;
        }
        assert_eq!(best_trajectory(&reps)[0], 0.020);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value) = tail(&v);
        assert_eq!((p, value), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);

        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        let (p, value) = tail(&v);
        assert!((p - 100.0 * 50.0 / 60.0).abs() < 1e-12);
        assert_eq!(value, 50.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);

        // Too few samples: no tail percentile qualifies.
        assert_eq!(tail(&[1.0, 2.0, 9.0]), (50.0, 2.0));
    }
}
