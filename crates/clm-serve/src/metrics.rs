//! Mergeable latency histograms with fixed geometric buckets.
//!
//! The serving layer measures per-session batch latency.  Merging
//! histograms is only exact when every one buckets against the **same
//! fixed boundaries**, so the bucket geometry here is a compile-time
//! constant, never data-dependent: bucket `i` covers
//! `[BASE·2^(i/4), BASE·2^((i+1)/4))` seconds — four buckets per octave
//! from 0.1 µs up past 10⁴ s, which keeps the worst-case quantile error
//! under ≈ 19 % while the exact `min`/`max`/`sum` ride alongside for the
//! tails.

/// Number of fixed buckets (≈ 40 octaves at 4 buckets per octave).
pub const HISTOGRAM_BUCKETS: usize = 160;

/// Lower bound of bucket 0 in seconds (values at or below land in bucket 0).
pub const HISTOGRAM_BASE_SECONDS: f64 = 1e-7;

/// Buckets per factor-of-two of latency.
pub const BUCKETS_PER_OCTAVE: f64 = 4.0;

/// A latency histogram over the fixed geometric bucket grid, mergeable
/// across sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the fixed bucket a latency (in seconds) falls into.
pub fn bucket_index(seconds: f64) -> usize {
    // NaN routes into bucket 0 alongside everything at or below the base.
    if seconds.is_nan() || seconds <= HISTOGRAM_BASE_SECONDS {
        return 0;
    }
    let i = (BUCKETS_PER_OCTAVE * (seconds / HISTOGRAM_BASE_SECONDS).log2()).floor();
    (i as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// `[lo, hi)` bounds of fixed bucket `i` in seconds.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    let lo = HISTOGRAM_BASE_SECONDS * 2f64.powf(i as f64 / BUCKETS_PER_OCTAVE);
    let hi = HISTOGRAM_BASE_SECONDS * 2f64.powf((i + 1) as f64 / BUCKETS_PER_OCTAVE);
    (lo, hi)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one latency sample in seconds.  Negative or NaN samples are
    /// clamped into bucket 0 (they can only arise from clock anomalies and
    /// must not poison the distribution).
    pub fn record(&mut self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        self.counts[bucket_index(s)] += 1;
        self.count += 1;
        self.sum += s;
        self.min = self.min.min(s);
        self.max = self.max.max(s);
    }

    /// Merges another histogram into this one (exact: both share the fixed
    /// bucket grid).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean sample in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`: the geometric midpoint of the bucket
    /// holding the `ceil(q·count)`-th sample, clamped into the exact
    /// observed `[min, max]` range (so `quantile(1.0) == max` and low
    /// quantiles never undershoot the fastest sample).  Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = (lo * hi).sqrt();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_grid_is_monotone_and_covers_the_range() {
        let mut prev_hi = 0.0;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi);
            assert!(lo >= prev_hi * 0.999_999);
            prev_hi = hi;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e9), HISTOGRAM_BUCKETS - 1);
        // Every positive value lands in the bucket whose bounds contain it.
        for &v in &[1e-7, 3e-6, 0.004, 1.0, 17.5, 900.0] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(v <= hi && (v >= lo || bucket_index(v) == 0), "{v}");
        }
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 0.5).abs() / 0.5 < 0.2, "p50 ≈ 0.5 s, got {p50}");
        assert!((p99 - 0.99).abs() / 0.99 < 0.2, "p99 ≈ 0.99 s, got {p99}");
        assert!(p50 <= p99);
        assert_eq!(h.quantile(1.0), h.max());
        assert!(h.quantile(0.0) >= h.min());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let samples_a = [1e-4, 2e-4, 5e-3, 0.7];
        let samples_b = [3e-5, 0.02, 0.02, 4.0, 11.0];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for &s in &samples_a {
            a.record(s);
            whole.record(s);
        }
        for &s in &samples_b {
            b.record(s);
            whole.record(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }
}
