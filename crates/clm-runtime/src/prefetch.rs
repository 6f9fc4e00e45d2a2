//! Choosing the prefetch window, batch by batch.
//!
//! CLM hides parameter gathers behind compute by issuing them ahead of the
//! micro-batch that needs them (Figure 6).  How far ahead is the *lookahead
//! window* `W`; its index arithmetic ([`sim_device::PrefetchWindow`]) lives
//! next to the schedule emitter in `sim_device::pipeline`.  This module holds
//! what decides `W`: the per-batch [`PrefetchPolicy`], the [`WindowSelector`]
//! state both backends feed, and the per-scene [`WarmStartCache`].

/// How the runtime picks the prefetch lookahead window for each batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PrefetchPolicy {
    /// Always use the configured `prefetch_window`.
    #[default]
    Fixed,
    /// Derive the window from the measured fetch/compute ratio of the
    /// previous batch, clamped to `[min, max]`: hiding one micro-batch's
    /// gather needs roughly `fetch_time / compute_time` micro-batches of
    /// compute in flight.  The first batch (no measurement yet) uses the
    /// configured fixed window, clamped to the same range.
    Adaptive {
        /// Smallest window the policy may choose.
        min: usize,
        /// Largest window the policy may choose.
        max: usize,
    },
    /// Like [`Adaptive`](Self::Adaptive), but derives the window from an
    /// exponentially-weighted moving average of the fetch/compute ratio
    /// instead of the last batch alone: after each batch the tracked ratio
    /// becomes `alpha * measured + (1 - alpha) * previous`.  A small
    /// `alpha` makes the window robust against one-batch spikes (a stray
    /// slow gather or a preempted compute thread) that would whipsaw the
    /// staging-buffer budget under `Adaptive`.
    Ewma {
        /// Smoothing factor in `(0, 1]`; 1 degenerates to `Adaptive`.
        alpha: f64,
        /// Smallest window the policy may choose.
        min: usize,
        /// Largest window the policy may choose.
        max: usize,
    },
}

impl PrefetchPolicy {
    /// Chooses the window for the next batch.  `fixed` is the configured
    /// `prefetch_window`; `tracked_ratio` is the policy's tracked
    /// `fetch_time / compute_time` — the previous batch's measurement for
    /// [`Adaptive`](Self::Adaptive), the smoothed average for
    /// [`Ewma`](Self::Ewma) (`None` before the first batch).
    ///
    /// The choice never affects numerics — only how far ahead gathers may
    /// run (and therefore how many staging buffers are live).
    pub fn choose_window(&self, fixed: usize, tracked_ratio: Option<f64>) -> usize {
        match *self {
            PrefetchPolicy::Fixed => fixed,
            PrefetchPolicy::Adaptive { min, max } | PrefetchPolicy::Ewma { min, max, .. } => {
                let max = max.max(min);
                match tracked_ratio {
                    None => fixed.clamp(min, max),
                    Some(r) => (r.max(0.0).ceil() as usize).clamp(min, max),
                }
            }
        }
    }
}

/// Per-backend state of the window choice: remembers the previous batch's
/// fetch/compute ratio (and its EWMA) so [`PrefetchPolicy::Adaptive`] and
/// [`PrefetchPolicy::Ewma`] have a measurement to work from.  Both backends
/// (simulated and threaded) drive the same `choose → observe` cycle through
/// this one type, so a policy change cannot silently diverge between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowSelector {
    last_fetch_compute_ratio: Option<f64>,
    smoothed_fetch_compute_ratio: Option<f64>,
}

impl WindowSelector {
    /// Creates a selector with no measurement yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a selector warm-started from a previously observed
    /// fetch/compute ratio (e.g. a [`WarmStartCache`] entry recorded by an
    /// earlier run on the same scene), so [`PrefetchPolicy::Adaptive`] and
    /// [`PrefetchPolicy::Ewma`] pick an adapted window on the **first**
    /// batch instead of falling back to the configured seed window.
    ///
    /// Non-finite or negative ratios (and `None`) cold-start like
    /// [`new`](Self::new).
    pub fn warm_started(ratio: Option<f64>) -> Self {
        match ratio {
            Some(r) if r.is_finite() && r >= 0.0 => WindowSelector {
                last_fetch_compute_ratio: Some(r),
                smoothed_fetch_compute_ratio: Some(r),
            },
            _ => Self::default(),
        }
    }

    /// Chooses the window for the next batch under `policy`.
    pub fn choose(&self, policy: PrefetchPolicy, fixed: usize) -> usize {
        let tracked = match policy {
            PrefetchPolicy::Ewma { .. } => self.smoothed_fetch_compute_ratio,
            _ => self.last_fetch_compute_ratio,
        };
        policy.choose_window(fixed, tracked)
    }

    /// Records one batch's fetch and compute lane times (simulated device
    /// seconds or measured thread-busy seconds — only their ratio matters)
    /// under `policy`, updating both the raw last-batch ratio and, for
    /// [`PrefetchPolicy::Ewma`], the smoothed average.  Ignored when the
    /// batch had no measurable compute.
    pub fn observe(&mut self, policy: PrefetchPolicy, fetch_seconds: f64, compute_seconds: f64) {
        if compute_seconds <= 0.0 {
            return;
        }
        let ratio = fetch_seconds / compute_seconds;
        self.last_fetch_compute_ratio = Some(ratio);
        self.smoothed_fetch_compute_ratio = match (policy, self.smoothed_fetch_compute_ratio) {
            (PrefetchPolicy::Ewma { alpha, .. }, Some(prev)) => {
                // Clamp into the documented (0, 1] domain: alpha = 0 would
                // freeze the average at its first observation forever, so a
                // sustained regime shift could never widen the window.
                let alpha = alpha.clamp(1e-6, 1.0);
                Some(alpha * ratio + (1.0 - alpha) * prev)
            }
            // First measurement (or a non-EWMA policy): seed the average
            // with the raw ratio so switching policies mid-run stays sane.
            _ => Some(ratio),
        };
    }

    /// The most recent fetch/compute ratio, if any batch has been observed.
    pub fn last_ratio(&self) -> Option<f64> {
        self.last_fetch_compute_ratio
    }

    /// The EWMA-smoothed fetch/compute ratio, if any batch has been
    /// observed.
    pub fn smoothed_ratio(&self) -> Option<f64> {
        self.smoothed_fetch_compute_ratio
    }
}

/// One run's tuned knob values, recorded per (host fingerprint, scene) by
/// [`WarmStartCache::record_tuning`].  A later run on the **same** host and
/// scene seeds its configs from the record; a different host (new
/// fingerprint) falls back to autotuning from scratch, because cache sizes
/// and core counts — the inputs the knobs were derived from — differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningRecord {
    /// Smoothed fetch/compute ratio at the end of the run (the classic
    /// per-scene warm start).
    pub ratio: f64,
    /// Banded-render workers the run settled on.
    pub compute_threads: usize,
    /// CPU Adam lane fan-out the run settled on.
    pub adam_threads: usize,
    /// Accumulation band height the run used.
    pub band_height: u32,
    /// Prefetch window the run converged to.
    pub prefetch_window: usize,
}

/// Per-scene warm starts for the tracked prefetch ratio, plus per-(host,
/// scene) tuning records.
///
/// `PrefetchPolicy::Ewma` used to cold-start every run: the first batch of a
/// scene always fell back to the configured seed window, even when the same
/// scene had just been trained and its steady-state fetch/compute ratio was
/// known.  The cache closes that loop: after a run, record the backend's
/// [`WindowSelector`] under the scene's label; before the next run on that
/// scene, seed the backend with the stored ratio
/// (`RuntimeConfig::warm_start_ratio` / `ThreadedConfig::warm_start_ratio`),
/// and the first batch starts from the smoothed steady state instead of the
/// seed window.  Warm starts never change numerics — only the first batch's
/// staging-buffer budget.
///
/// Tuning records extend the same idea to the autotuned knobs: keyed by
/// `(HostTopology::fingerprint(), scene)`, so a cache file copied to a
/// different machine is silently ignored (fingerprint mismatch → autotune
/// from scratch) instead of applying another host's thread counts.
///
/// The cache persists as a versioned tab-separated text file
/// ([`save_to_string`](Self::save_to_string) /
/// [`load_from_str`](Self::load_from_str)); malformed lines are skipped
/// rather than failing the load — a corrupt cache degrades to a cold start,
/// never an error.
#[derive(Debug, Clone, Default)]
pub struct WarmStartCache {
    ratios: std::collections::HashMap<String, f64>,
    records: std::collections::HashMap<(String, String), TuningRecord>,
}

/// Header line of the current cache file format.
const WARM_CACHE_HEADER_V2: &str = "clmwarm v2";

impl WarmStartCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `selector`'s smoothed fetch/compute ratio under `scene`.
    /// Returns `false` (leaving any previous entry in place) when the
    /// selector has not observed a batch yet.
    pub fn record(&mut self, scene: &str, selector: &WindowSelector) -> bool {
        match selector.smoothed_ratio() {
            Some(r) if r.is_finite() => {
                self.ratios.insert(scene.to_string(), r);
                true
            }
            _ => false,
        }
    }

    /// The stored warm-start ratio for `scene`, if any — pass it to the
    /// backend config's `warm_start_ratio`.  Falls back to the freshest
    /// source available: a per-(host, scene) tuning record's ratio wins over
    /// the plain per-scene entry when `host` has one.
    pub fn ratio(&self, scene: &str) -> Option<f64> {
        self.ratios.get(scene).copied()
    }

    /// Records a full tuning record under `(host, scene)` — `host` should
    /// be `HostTopology::fingerprint()`.  Returns `false` (leaving any
    /// previous entry in place) when the record is degenerate: a non-finite
    /// or negative ratio, or zero thread/band values.
    pub fn record_tuning(&mut self, host: &str, scene: &str, record: TuningRecord) -> bool {
        let sane = record.ratio.is_finite()
            && record.ratio >= 0.0
            && record.compute_threads > 0
            && record.adam_threads > 0
            && record.band_height > 0
            && record.prefetch_window > 0;
        if !sane {
            return false;
        }
        self.records
            .insert((host.to_string(), scene.to_string()), record);
        true
    }

    /// The tuning record for `(host, scene)`, if one was recorded **on this
    /// host** — a record from a different fingerprint is never returned, so
    /// stale thread counts cannot leak across machines.  Callers fall back
    /// to [`ratio`](Self::ratio) (and from there to autotuning) on `None`.
    pub fn tuning(&self, host: &str, scene: &str) -> Option<TuningRecord> {
        self.records
            .get(&(host.to_string(), scene.to_string()))
            .copied()
    }

    /// Number of entries (per-scene ratios plus per-(host, scene) tuning
    /// records).
    pub fn len(&self) -> usize {
        self.ratios.len() + self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty() && self.records.is_empty()
    }

    /// Serialises the cache into the versioned tab-separated text format.
    /// Entries are emitted in sorted key order so the output is stable.
    pub fn save_to_string(&self) -> String {
        let mut out = String::from(WARM_CACHE_HEADER_V2);
        out.push('\n');
        let mut scenes: Vec<_> = self.ratios.iter().collect();
        scenes.sort_by(|a, b| a.0.cmp(b.0));
        for (scene, ratio) in scenes {
            out.push_str(&format!("ratio\t{}\t{}\n", sanitize(scene), ratio));
        }
        let mut tuned: Vec<_> = self.records.iter().collect();
        tuned.sort_by(|a, b| a.0.cmp(b.0));
        for ((host, scene), r) in tuned {
            out.push_str(&format!(
                "tuned\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                sanitize(host),
                sanitize(scene),
                r.ratio,
                r.compute_threads,
                r.adam_threads,
                r.band_height,
                r.prefetch_window,
            ));
        }
        out
    }

    /// Parses a cache from its `clmwarm v2` text form; lines that fail to
    /// parse (truncated writes, corruption, unknown record kinds) are
    /// skipped, so the worst case is a partially warm — never broken —
    /// cache.
    pub fn load_from_str(text: &str) -> Self {
        let mut cache = WarmStartCache::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line == WARM_CACHE_HEADER_V2 || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["ratio", scene, value] => {
                    if let Ok(r) = value.parse::<f64>() {
                        if r.is_finite() && r >= 0.0 {
                            cache.ratios.insert((*scene).to_string(), r);
                        }
                    }
                }
                ["tuned", host, scene, ratio, ct, at, bh, pw] => {
                    let parsed = (
                        ratio.parse::<f64>(),
                        ct.parse::<usize>(),
                        at.parse::<usize>(),
                        bh.parse::<u32>(),
                        pw.parse::<usize>(),
                    );
                    if let (
                        Ok(ratio),
                        Ok(compute_threads),
                        Ok(adam_threads),
                        Ok(band_height),
                        Ok(prefetch_window),
                    ) = parsed
                    {
                        cache.record_tuning(
                            host,
                            scene,
                            TuningRecord {
                                ratio,
                                compute_threads,
                                adam_threads,
                                band_height,
                                prefetch_window,
                            },
                        );
                    }
                }
                _ => {}
            }
        }
        cache
    }

    /// Writes the cache to `path` (see [`save_to_string`](Self::save_to_string)).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.save_to_string())
    }

    /// Loads a cache from `path`; a missing or unreadable file yields an
    /// empty cache (cold start), matching the corruption policy of
    /// [`load_from_str`](Self::load_from_str).
    pub fn load(path: &std::path::Path) -> Self {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::load_from_str(&text),
            Err(_) => WarmStartCache::new(),
        }
    }
}

/// Keeps keys single-field in the tab-separated format.
fn sanitize(key: &str) -> String {
    key.replace(['\t', '\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_policy_tracks_the_fetch_compute_ratio() {
        let p = PrefetchPolicy::Adaptive { min: 1, max: 6 };
        // No measurement yet: fall back to the configured window, clamped.
        assert_eq!(p.choose_window(2, None), 2);
        assert_eq!(p.choose_window(0, None), 1);
        assert_eq!(p.choose_window(64, None), 6);
        // Compute-bound batches need almost no lookahead…
        assert_eq!(p.choose_window(2, Some(0.05)), 1);
        // …balanced batches need ~1, bandwidth-bound batches need more.
        assert_eq!(p.choose_window(2, Some(1.0)), 1);
        assert_eq!(p.choose_window(2, Some(2.3)), 3);
        assert_eq!(p.choose_window(2, Some(50.0)), 6);
        // Degenerate ratios stay in range.
        assert_eq!(p.choose_window(2, Some(-3.0)), 1);
        // Fixed policy ignores measurements entirely.
        assert_eq!(PrefetchPolicy::Fixed.choose_window(4, Some(9.0)), 4);
    }

    #[test]
    fn window_selector_drives_the_choose_observe_cycle() {
        let policy = PrefetchPolicy::Adaptive { min: 1, max: 6 };
        let mut sel = WindowSelector::new();
        assert_eq!(sel.last_ratio(), None);
        assert_eq!(sel.choose(policy, 2), 2, "seed window before measurements");
        sel.observe(policy, 3.0, 1.0);
        assert_eq!(sel.last_ratio(), Some(3.0));
        assert_eq!(sel.choose(policy, 2), 3);
        // Zero compute leaves the previous measurement in place.
        sel.observe(policy, 5.0, 0.0);
        assert_eq!(sel.last_ratio(), Some(3.0));
    }

    #[test]
    fn ewma_policy_smooths_a_one_batch_spike_away() {
        // The satellite claim: under EWMA a single anomalous batch must not
        // flip the chosen window, while the purely reactive policy jumps.
        let ewma = PrefetchPolicy::Ewma {
            alpha: 0.1,
            min: 1,
            max: 8,
        };
        let adaptive = PrefetchPolicy::Adaptive { min: 1, max: 8 };
        let mut sel = WindowSelector::new();
        // A steady compute-bound phase: ratio 0.5 → window 1.
        for _ in 0..4 {
            sel.observe(ewma, 0.5, 1.0);
        }
        assert_eq!(sel.choose(ewma, 2), 1);
        // One-batch spike (gather 4× slower than compute).
        sel.observe(ewma, 4.0, 1.0);
        assert_eq!(sel.last_ratio(), Some(4.0));
        assert_eq!(
            sel.choose(adaptive, 2),
            4,
            "the reactive policy whipsaws on the spike"
        );
        assert_eq!(
            sel.choose(ewma, 2),
            1,
            "the smoothed policy must not flip the window on one batch"
        );
        // Back to steady state: the average keeps tracking.
        sel.observe(ewma, 0.5, 1.0);
        assert_eq!(sel.choose(ewma, 2), 1);
        // A *sustained* shift does eventually move the window.
        for _ in 0..40 {
            sel.observe(ewma, 4.0, 1.0);
        }
        assert!(
            sel.choose(ewma, 2) >= 3,
            "sustained shifts must get through"
        );
    }

    #[test]
    fn ewma_choose_window_clamps_like_adaptive() {
        let p = PrefetchPolicy::Ewma {
            alpha: 0.3,
            min: 1,
            max: 6,
        };
        assert_eq!(p.choose_window(2, None), 2);
        assert_eq!(p.choose_window(0, None), 1);
        assert_eq!(p.choose_window(64, None), 6);
        assert_eq!(p.choose_window(2, Some(0.05)), 1);
        assert_eq!(p.choose_window(2, Some(2.3)), 3);
        assert_eq!(p.choose_window(2, Some(50.0)), 6);
        assert_eq!(p.choose_window(2, Some(-3.0)), 1);
    }

    #[test]
    fn warm_started_selector_adapts_on_the_first_batch() {
        let ewma = PrefetchPolicy::Ewma {
            alpha: 0.2,
            min: 1,
            max: 8,
        };
        // Cold start: the first choice is the seed window.
        assert_eq!(WindowSelector::new().choose(ewma, 2), 2);
        // Warm start: the first choice already reflects the stored ratio.
        let warm = WindowSelector::warm_started(Some(3.4));
        assert_eq!(warm.choose(ewma, 2), 4);
        assert_eq!(warm.smoothed_ratio(), Some(3.4));
        assert_eq!(
            warm.choose(PrefetchPolicy::Adaptive { min: 1, max: 8 }, 2),
            4
        );
        // Degenerate seeds cold-start instead of poisoning the average.
        for bad in [None, Some(f64::NAN), Some(-1.0), Some(f64::INFINITY)] {
            assert_eq!(WindowSelector::warm_started(bad).choose(ewma, 2), 2);
        }
    }

    #[test]
    fn warm_start_cache_round_trips_per_scene() {
        let ewma = PrefetchPolicy::Ewma {
            alpha: 0.5,
            min: 1,
            max: 8,
        };
        let mut cache = WarmStartCache::new();
        assert!(cache.is_empty());
        // An unobserved selector must not create an entry.
        assert!(!cache.record("bicycle", &WindowSelector::new()));
        assert_eq!(cache.ratio("bicycle"), None);

        let mut sel = WindowSelector::new();
        sel.observe(ewma, 4.0, 1.0);
        sel.observe(ewma, 2.0, 1.0);
        assert!(cache.record("bicycle", &sel));
        assert_eq!(cache.len(), 1);
        let stored = cache.ratio("bicycle").expect("recorded");
        assert_eq!(Some(stored), sel.smoothed_ratio());
        // Seeding a fresh selector from the cache reproduces the choice the
        // trained selector would make — scenes warm-start independently.
        let warm = WindowSelector::warm_started(cache.ratio("bicycle"));
        assert_eq!(warm.choose(ewma, 1), sel.choose(ewma, 1));
        assert_eq!(cache.ratio("rubble"), None);
    }

    fn sample_record() -> TuningRecord {
        TuningRecord {
            ratio: 2.25,
            compute_threads: 8,
            adam_threads: 4,
            band_height: 32,
            prefetch_window: 3,
        }
    }

    #[test]
    fn tuning_records_round_trip_per_host_and_scene() {
        let mut cache = WarmStartCache::new();
        assert!(cache.record_tuning("amd-8c16t-l2:512k-l3:32768k-e8", "bicycle", sample_record()));
        let mut other = sample_record();
        other.compute_threads = 2;
        assert!(cache.record_tuning("intel-2c2t-l2:256k-l3:4096k-e2", "bicycle", other));
        assert_eq!(cache.len(), 2);

        // Same (host, scene) → the record comes back verbatim.
        assert_eq!(
            cache.tuning("amd-8c16t-l2:512k-l3:32768k-e8", "bicycle"),
            Some(sample_record())
        );
        // Hosts keep distinct records for the same scene.
        assert_eq!(
            cache
                .tuning("intel-2c2t-l2:256k-l3:4096k-e2", "bicycle")
                .map(|r| r.compute_threads),
            Some(2)
        );
        // Degenerate records are refused.
        for bad in [
            TuningRecord {
                ratio: f64::NAN,
                ..sample_record()
            },
            TuningRecord {
                ratio: -1.0,
                ..sample_record()
            },
            TuningRecord {
                compute_threads: 0,
                ..sample_record()
            },
            TuningRecord {
                band_height: 0,
                ..sample_record()
            },
        ] {
            assert!(!cache.record_tuning("h", "s", bad), "{bad:?}");
        }
    }

    #[test]
    fn tuning_lookup_falls_back_on_fingerprint_mismatch() {
        // The point of keying by fingerprint: a cache file carried to a
        // machine with different cores/caches must NOT apply the old thread
        // counts — the lookup misses and the caller autotunes from scratch.
        let mut cache = WarmStartCache::new();
        cache.record_tuning(
            "amd-64c128t-l2:1024k-l3:262144k-e64",
            "rubble",
            sample_record(),
        );
        assert_eq!(
            cache.tuning("intel-4c8t-l2:512k-l3:12288k-e4", "rubble"),
            None
        );
        assert_eq!(
            cache.tuning("amd-64c128t-l2:1024k-l3:262144k-e64", "garden"),
            None
        );
        // The per-scene ratio entry (host-independent scheduling hint) still
        // warm-starts the window even when the knobs cannot transfer.
        let mut sel = WindowSelector::new();
        sel.observe(PrefetchPolicy::Fixed, 3.0, 1.0);
        cache.record("rubble", &sel);
        assert_eq!(cache.ratio("rubble"), Some(3.0));
    }

    #[test]
    fn cache_files_round_trip_both_entry_kinds() {
        let mut cache = WarmStartCache::new();
        let mut sel = WindowSelector::new();
        sel.observe(PrefetchPolicy::Fixed, 1.5, 1.0);
        cache.record("bicycle", &sel);
        cache.record_tuning("amd-8c16t-l2:512k-l3:32768k-e8", "bicycle", sample_record());
        cache.record_tuning("amd-8c16t-l2:512k-l3:32768k-e8", "garden", sample_record());

        let text = cache.save_to_string();
        assert!(text.starts_with("clmwarm v2\n"), "{text}");
        let loaded = WarmStartCache::load_from_str(&text);
        assert_eq!(loaded.len(), cache.len());
        assert_eq!(loaded.ratio("bicycle"), Some(1.5));
        assert_eq!(
            loaded.tuning("amd-8c16t-l2:512k-l3:32768k-e8", "garden"),
            Some(sample_record())
        );
        // Serialisation is stable: saving the loaded cache reproduces the
        // text byte for byte.
        assert_eq!(loaded.save_to_string(), text);
    }

    #[test]
    fn corrupt_cache_files_degrade_to_partial_warm_starts() {
        // Corruption — truncated records, junk, non-numeric fields, bad
        // ratios, untagged two-field lines — skips the bad lines and keeps
        // the good ones.
        let corrupt = "clmwarm v2\n\
                       ratio\tbicycle\t1.25\n\
                       rubble\t0.75\n\
                       ratio\tgarden\tnot-a-number\n\
                       ratio\tnan-scene\tNaN\n\
                       tuned\thost-a\tbicycle\t2.0\t8\t4\t32\t3\n\
                       tuned\thost-a\ttruncated\t2.0\t8\n\
                       tuned\thost-a\tgarden\t2.0\teight\t4\t32\t3\n\
                       complete garbage line with spaces\n\
                       \n";
        let cache = WarmStartCache::load_from_str(corrupt);
        assert_eq!(cache.ratio("bicycle"), Some(1.25));
        assert_eq!(cache.ratio("rubble"), None, "untagged line skipped");
        assert_eq!(cache.ratio("garden"), None, "unparseable ratio skipped");
        assert_eq!(cache.ratio("nan-scene"), None, "non-finite ratio refused");
        assert_eq!(
            cache.tuning("host-a", "bicycle"),
            Some(TuningRecord {
                ratio: 2.0,
                compute_threads: 8,
                adam_threads: 4,
                band_height: 32,
                prefetch_window: 3,
            })
        );
        assert_eq!(cache.tuning("host-a", "truncated"), None);
        assert_eq!(cache.tuning("host-a", "garden"), None);
        assert_eq!(cache.len(), 2);

        // Total garbage yields an empty cache, not an error.
        assert!(WarmStartCache::load_from_str("\0\0\0garbage").is_empty());
        assert!(WarmStartCache::load_from_str("").is_empty());
    }

    #[test]
    fn cache_file_io_round_trips_and_missing_files_cold_start() {
        let dir = std::env::temp_dir().join(format!("clm-warm-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.tsv");
        let mut cache = WarmStartCache::new();
        cache.record_tuning("host-x", "bicycle", sample_record());
        cache.save(&path).unwrap();
        let loaded = WarmStartCache::load(&path);
        assert_eq!(loaded.tuning("host-x", "bicycle"), Some(sample_record()));
        assert!(WarmStartCache::load(&dir.join("missing.tsv")).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
