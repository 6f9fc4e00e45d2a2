//! Host-derived defaults for the scheduling knobs.
//!
//! CLM fixes its pipeline by construction — double buffering, a fixed
//! order, early-finalised CPU Adam — so nothing here is measured.  The
//! knobs are a pure function of the probed [`sim_device::HostTopology`]:
//!
//! * the render and CPU Adam fan-out is the host's effective
//!   (cgroup-quota-aware) core count;
//! * the Adam rows per shard follow from the L2 size alone — the row
//!   kernel streams [`WORK_ITEM_BYTES`]-sized rows (parameters, gradient and
//!   both moments) one after another.
//!
//! This module is the one place a host default is chosen:
//! `ThreadedConfig::default()` takes its CPU Adam lane's `adam_threads` and
//! `adam_chunk_rows` from [`tuned`], and no other product code reads the
//! topology to choose a value.  The render width and the band height are
//! not host defaults: both come from `TrainConfig` alone.  None of this
//! touches numerics: thread counts and chunk sizes are pure scheduling, and
//! the band height (which *is* part of the numeric contract) is configured,
//! never derived.

use gs_optim::WORK_ITEM_BYTES;
use gs_render::DEFAULT_BAND_HEIGHT;
use sim_device::HostTopology;
use std::sync::OnceLock;

/// Placeholder: no start-up calibration runs, so this measures nothing.
/// The frozen benchmark harness spells `Calibration::run()` and passes it to
/// [`derive_knobs`].  Leaves with ROADMAP item 5(a).
#[derive(Debug, Clone, Copy)]
pub struct Calibration;

impl Calibration {
    /// Returns the placeholder; times and renders nothing.
    pub fn run() -> Self {
        Calibration
    }
}

/// The knob values derived for this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedKnobs {
    /// The host's effective core count, capped at 64: a width a caller may
    /// put in `TrainConfig::compute_threads`.  No config default reads it;
    /// the frozen benchmark harness prints it.
    pub compute_threads: usize,
    /// CPU Adam lane fan-out: the same effective core count.
    /// `ThreadedConfig::default()` adopts it.
    pub adam_threads: usize,
    /// Target rows per Adam shard so one shard's working set stays
    /// L2-resident.  `ThreadedConfig::default()` adopts it.
    pub adam_chunk_rows: usize,
    /// Placeholder, always [`DEFAULT_BAND_HEIGHT`]: the band height is part
    /// of the numeric contract and comes from `TrainConfig` alone.  The
    /// frozen benchmark harness prints it.  Leaves with ROADMAP item 5(a).
    pub band_height: u32,
    /// Placeholder, always 2 (the `RuntimeConfig` default): the window is
    /// configured, never measured.  The frozen benchmark harness prints it.
    /// Leaves with ROADMAP item 5(a).
    pub prefetch_window: usize,
}

/// Derives the knob values from a probed topology.  Pure, so tests can feed
/// mocked topologies (e.g. a cgroup-throttled 64-core host); the
/// [`Calibration`] placeholder is ignored.
pub fn derive_knobs(topo: &HostTopology, _: &Calibration) -> TunedKnobs {
    let cores = topo.effective_cores().min(64);
    // Half the L2 for the chunk (the other half keeps the streamed
    // gradients and lane temporaries resident).
    let l2 = topo.l2_bytes.max(64 * 1024);
    let adam_chunk_rows = ((l2 / 2) as usize / WORK_ITEM_BYTES.max(1)).clamp(256, 16_384);
    TunedKnobs {
        compute_threads: cores,
        adam_threads: cores,
        adam_chunk_rows,
        band_height: DEFAULT_BAND_HEIGHT,
        prefetch_window: 2,
    }
}

/// The cached per-process result: topology probe and the derived knobs.
#[derive(Debug, Clone)]
pub struct Autotune {
    /// The probed host topology.
    pub topology: HostTopology,
    /// The derived knob defaults.
    pub knobs: TunedKnobs,
}

/// Probes and derives once per process; subsequent calls are free.
pub fn tuned() -> &'static Autotune {
    static TUNED: OnceLock<Autotune> = OnceLock::new();
    TUNED.get_or_init(|| {
        let topology = HostTopology::cached().clone();
        let knobs = derive_knobs(&topology, &Calibration::run());
        Autotune { topology, knobs }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mock_topology(logical: usize, physical: usize, l2: u64, quota: Option<f64>) -> HostTopology {
        let mut topo = HostTopology::fallback();
        topo.logical_cpus = logical;
        topo.physical_cores = physical;
        topo.smt = logical > physical;
        topo.l2_bytes = l2;
        topo.cpu_quota = quota;
        topo
    }

    #[test]
    fn knobs_scale_with_effective_cores_not_raw_parallelism() {
        // The satellite regression at the autotuner level: a 2-core cgroup
        // quota on a 64-thread host must size the worker knobs at 2.
        let throttled = derive_knobs(
            &mock_topology(64, 32, 512 * 1024, Some(2.0)),
            &Calibration::run(),
        );
        assert_eq!(throttled.compute_threads, 2);
        assert_eq!(throttled.adam_threads, 2);
        let unthrottled = derive_knobs(
            &mock_topology(64, 32, 512 * 1024, None),
            &Calibration::run(),
        );
        assert_eq!(unthrottled.compute_threads, 64);
        assert_eq!(unthrottled.adam_threads, 64);
    }

    #[test]
    fn adam_chunks_fit_half_the_l2() {
        let cal = Calibration::run();
        let knobs = derive_knobs(&mock_topology(8, 8, 512 * 1024, None), &cal);
        assert!(knobs.adam_chunk_rows >= 256);
        assert!(knobs.adam_chunk_rows * WORK_ITEM_BYTES <= 512 * 1024 / 2 + WORK_ITEM_BYTES);
        // A tiny (or unreadable) L2 still yields a workable chunk.
        let small = derive_knobs(&mock_topology(8, 8, 0, None), &cal);
        assert_eq!(small.adam_chunk_rows, 256);
        // A huge L3-class value clamps at the top.
        let big = derive_knobs(&mock_topology(8, 8, 64 * 1024 * 1024, None), &cal);
        assert_eq!(big.adam_chunk_rows, 16_384);
    }

    #[test]
    fn tuned_knobs_are_a_pure_function_of_the_topology() {
        // Nothing is timed: deriving again from the cached topology gives
        // the cached knobs, every time.
        for _ in 0..2 {
            assert_eq!(
                derive_knobs(&tuned().topology, &Calibration::run()),
                tuned().knobs
            );
        }
    }

    #[test]
    fn tuned_is_cached_and_lands_in_range() {
        let first = tuned();
        // On the real host every derived knob lands in its documented range;
        // in particular a cgroup CPU quota caps the worker counts.
        let k = &first.knobs;
        let effective = first.topology.effective_cores();
        assert!((1..=effective).contains(&k.compute_threads), "{k:?}");
        assert!((1..=effective).contains(&k.adam_threads), "{k:?}");
        assert!((256..=16_384).contains(&k.adam_chunk_rows), "{k:?}");
        assert_eq!(k.band_height, DEFAULT_BAND_HEIGHT, "{k:?}");
        assert_eq!(k.prefetch_window, 2, "{k:?}");
        let fingerprint = first.topology.fingerprint();
        assert!(
            fingerprint.ends_with(&format!("-e{effective}")),
            "{fingerprint}"
        );
        assert!(std::ptr::eq(first, tuned()), "one probe per process");
    }
}
