//! Attribute-wise offloaded parameter store (§4.1, §5.2).
//!
//! CLM splits every Gaussian's 59 parameters into the **selection-critical**
//! attributes (position, scale, rotation, opacity — 11 floats) that stay
//! resident in GPU memory, and the **non-critical** attributes (the 48 SH
//! floats) that live in pinned CPU memory and are gathered on demand by the
//! *selective loading kernel*.  [`OffloadedModel`] is the pinned half of that
//! store: it performs the gather/scatter the kernel would do and accounts for
//! every byte that crosses the (simulated) PCIe link.  The selection-critical
//! half is not copied anywhere — culling and rendering read the trainer's
//! [`GaussianModel`] arrays directly — so the store only accounts for its
//! size ([`OffloadedModel::gpu_resident_bytes`]).
//!
//! # What a fetch carries
//!
//! Everything that decides *which* rows a view needs runs on resident data,
//! before any fetch: frustum culling reads the geometry, and the renderer's
//! coverage pass (`gs_render::coverage`, run at plan time) projects the
//! frustum set S_i, depth-sorts it and walks every pixel's compositing
//! order, which needs the geometry and the opacity.  Its output, the
//! *reached* set R_i ⊆ S_i (the splats some pixel's walk reaches — about
//! 250 of a view's ≈ 12.8 k frustum rows on `offload_bound`), is what the
//! cache plan fetches, so a fetch carries only the SH rows of reached
//! Gaussians: colour is needed only where a pixel composites it.

use gs_core::gaussian::{GaussianModel, NON_CRITICAL_FLOATS, SELECTION_CRITICAL_FLOATS};
use gs_core::BYTES_PER_PARAM;
use gs_scene::{remove_rows_in_place, ResizeEvent};

/// Bytes of non-critical attributes per Gaussian (what a parameter fetch
/// moves over PCIe).
pub const NON_CRITICAL_BYTES: usize = NON_CRITICAL_FLOATS * BYTES_PER_PARAM;

/// Bytes of selection-critical attributes per Gaussian (GPU resident).
pub const SELECTION_CRITICAL_BYTES: usize = SELECTION_CRITICAL_FLOATS * BYTES_PER_PARAM;

/// Bytes of one Gaussian's gradient row sent back to the CPU (all 59
/// parameters).
pub const GRADIENT_BYTES: usize = gs_optim::GRADIENT_ROW_BYTES;

/// The pinned-host half of a Gaussian model stored attribute-wise across the
/// two memory spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadedModel {
    /// Non-critical attributes in pinned host memory, one padded row per
    /// Gaussian so a fetch is a single contiguous read (§5.2).
    non_critical: Vec<[f32; NON_CRITICAL_FLOATS]>,
    /// Cumulative bytes gathered from host memory (CPU→GPU).
    bytes_gathered: u64,
    /// Cumulative bytes scattered back to host memory (GPU→CPU).
    bytes_scattered: u64,
}

impl OffloadedModel {
    /// Splits a dense [`GaussianModel`] into the offloaded layout.
    pub fn from_model(model: &GaussianModel) -> Self {
        let non_critical = (0..model.len())
            .map(|i| model.non_critical_row(i))
            .collect();
        OffloadedModel {
            non_critical,
            bytes_gathered: 0,
            bytes_scattered: 0,
        }
    }

    /// Number of Gaussians.
    pub fn len(&self) -> usize {
        self.non_critical.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.non_critical.is_empty()
    }

    /// Bytes of GPU-resident parameter data
    /// ([`SELECTION_CRITICAL_FLOATS`] per Gaussian).
    pub fn gpu_resident_bytes(&self) -> u64 {
        (self.len() * SELECTION_CRITICAL_BYTES) as u64
    }

    /// Bytes of pinned host memory holding the non-critical attributes.
    pub fn pinned_bytes(&self) -> u64 {
        (self.len() * NON_CRITICAL_BYTES) as u64
    }

    /// Cumulative CPU→GPU parameter traffic generated by gathers.
    pub fn bytes_gathered(&self) -> u64 {
        self.bytes_gathered
    }

    /// Cumulative GPU→CPU traffic generated by scatters.
    pub fn bytes_scattered(&self) -> u64 {
        self.bytes_scattered
    }

    /// Restores the cumulative traffic counters from a checkpoint, so a
    /// restored run's communication accounting continues where the
    /// interrupted one left off.
    pub fn restore_traffic_counters(&mut self, bytes_gathered: u64, bytes_scattered: u64) {
        self.bytes_gathered = bytes_gathered;
        self.bytes_scattered = bytes_scattered;
    }

    /// The pinned host rows of non-critical attributes, one per Gaussian.
    ///
    /// A threaded runtime hands this slice to its gather worker so the
    /// copies into staging buffers run off the main thread with **no**
    /// intermediate clone of the store (see [`gather_rows_into`]).
    pub fn non_critical_rows(&self) -> &[[f32; NON_CRITICAL_FLOATS]] {
        &self.non_critical
    }

    /// The selective loading kernel: gathers the non-critical rows of the
    /// given (sorted or unsorted) Gaussian indices into a contiguous
    /// working-set buffer, counting the transferred bytes.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather_non_critical(&mut self, indices: &[u32]) -> Vec<[f32; NON_CRITICAL_FLOATS]> {
        let mut out = Vec::with_capacity(indices.len());
        self.gather_non_critical_into(indices, &mut out);
        out
    }

    /// Like [`gather_non_critical`](Self::gather_non_critical) but reuses the
    /// caller's buffer (cleared first), so a pipelined runtime can recycle
    /// pinned staging buffers instead of allocating per micro-batch.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather_non_critical_into(
        &mut self,
        indices: &[u32],
        out: &mut Vec<[f32; NON_CRITICAL_FLOATS]>,
    ) {
        gather_rows_into(&self.non_critical, indices, out);
        self.note_gathered_rows(indices.len());
    }

    /// Records `rows` non-critical rows as gathered over the link without
    /// performing the copies — the accounting half of [`gather_rows_into`],
    /// used when a worker thread did the copies from a shared borrow.
    pub fn note_gathered_rows(&mut self, rows: usize) {
        self.bytes_gathered += (rows * NON_CRITICAL_BYTES) as u64;
    }

    /// The gradient-offload / parameter-writeback kernel: scatters updated
    /// non-critical rows back to pinned host memory.
    ///
    /// # Panics
    /// Panics if the slices differ in length or an index is out of bounds.
    pub fn scatter_non_critical(&mut self, indices: &[u32], rows: &[[f32; NON_CRITICAL_FLOATS]]) {
        assert_eq!(indices.len(), rows.len(), "index/row length mismatch");
        for (&idx, row) in indices.iter().zip(rows) {
            let i = idx as usize;
            assert!(i < self.len(), "gaussian index {i} out of bounds");
            self.non_critical[i] = *row;
        }
        self.bytes_scattered += (indices.len() * NON_CRITICAL_BYTES) as u64;
    }

    /// Resizes the store in place for a densification boundary: pruned rows
    /// are compacted out order-preserving, split-shrunk survivors are
    /// re-copied from the model, and the appended rows are read from the
    /// model's tail — **surviving rows are never re-cloned**, so a resize
    /// costs O(rows changed), not O(model).  The traffic counters are
    /// untouched (a resize is host-side work, not PCIe traffic).
    ///
    /// `model` must already be the post-resize model the event was applied
    /// to.
    ///
    /// # Panics
    /// Panics if the store does not match the event's planned `old_len` or
    /// the model does not match its `new_len`.
    pub fn apply_resize(&mut self, event: &ResizeEvent, model: &GaussianModel) {
        assert_eq!(
            self.len(),
            event.old_len,
            "store not aligned with the resize plan"
        );
        assert_eq!(
            model.len(),
            event.new_len(),
            "model does not match the applied resize"
        );
        remove_rows_in_place(&mut self.non_critical, &event.pruned);
        // Splits rewrite their (surviving) source row in place.
        for source in event.split_sources() {
            let i = source as usize;
            self.non_critical[i] = model.non_critical_row(i);
        }
        // Appended rows come from the model's tail, in append order.
        for i in self.len()..model.len() {
            self.non_critical.push(model.non_critical_row(i));
        }
        debug_assert_eq!(self.len(), model.len());
    }

    /// Synchronises the whole store from a dense model (at every batch end,
    /// and after densification changes the model size).
    ///
    /// Runs in place: the existing row buffer is resized and overwritten
    /// rather than reallocated, so the per-batch re-sync of the training
    /// loop causes no allocation churn once the store has reached its
    /// working size.
    pub fn sync_from_model(&mut self, model: &GaussianModel) {
        self.non_critical
            .resize(model.len(), [0.0; NON_CRITICAL_FLOATS]);
        for (i, row) in self.non_critical.iter_mut().enumerate() {
            *row = model.non_critical_row(i);
        }
    }
}

/// Copies the rows at `indices` from a pinned host store into the caller's
/// staging buffer (cleared first, allocation reused).  This is the data half
/// of the selective loading kernel, split out so a gather worker thread can
/// run it from a shared borrow of the store while byte accounting
/// ([`OffloadedModel::note_gathered_rows`]) stays with the owner.
///
/// # Panics
/// Panics if an index is out of bounds.
pub fn gather_rows_into(
    rows: &[[f32; NON_CRITICAL_FLOATS]],
    indices: &[u32],
    out: &mut Vec<[f32; NON_CRITICAL_FLOATS]>,
) {
    out.clear();
    out.reserve(indices.len());
    for &idx in indices {
        let i = idx as usize;
        assert!(i < rows.len(), "gaussian index {i} out of bounds");
        out.push(rows[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;
    use gs_core::Gaussian;

    fn test_model(n: usize) -> GaussianModel {
        (0..n)
            .map(|i| {
                let mut g = Gaussian::isotropic(
                    Vec3::new(i as f32, 0.5, 2.0),
                    0.2 + i as f32 * 0.01,
                    [0.1 * i as f32 % 1.0, 0.5, 0.7],
                    0.6,
                );
                g.sh[5] = i as f32;
                g
            })
            .collect()
    }

    #[test]
    fn byte_accounting_matches_paper_fractions() {
        let model = test_model(100);
        let offloaded = OffloadedModel::from_model(&model);
        assert_eq!(offloaded.len(), 100);
        // Selection-critical attributes are < 20% of a Gaussian's footprint.
        let total = offloaded.gpu_resident_bytes() + offloaded.pinned_bytes();
        assert_eq!(total, 100 * 59 * 4);
        assert!((offloaded.gpu_resident_bytes() as f64) / (total as f64) < 0.20);
        assert_eq!(offloaded.gpu_resident_bytes(), 100 * 44);
        assert_eq!(offloaded.pinned_bytes(), 100 * 192);
    }

    #[test]
    fn gather_returns_requested_rows_and_counts_bytes() {
        let model = test_model(10);
        let mut offloaded = OffloadedModel::from_model(&model);
        let rows = offloaded.gather_non_critical(&[2, 7]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], model.non_critical_row(2));
        assert_eq!(rows[1], model.non_critical_row(7));
        assert_eq!(offloaded.bytes_gathered(), 2 * NON_CRITICAL_BYTES as u64);
        assert_eq!(offloaded.bytes_scattered(), 0);
    }

    #[test]
    fn scatter_updates_host_rows() {
        let model = test_model(4);
        let mut offloaded = OffloadedModel::from_model(&model);
        let mut row = model.non_critical_row(1);
        row[0] = 99.0;
        offloaded.scatter_non_critical(&[1], &[row]);
        assert_eq!(offloaded.gather_non_critical(&[1])[0][0], 99.0);
        assert_eq!(offloaded.bytes_scattered(), NON_CRITICAL_BYTES as u64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_out_of_bounds_panics() {
        let mut offloaded = OffloadedModel::from_model(&test_model(2));
        let _ = offloaded.gather_non_critical(&[5]);
    }

    #[test]
    fn sync_from_model_preserves_traffic_counters() {
        let model = test_model(3);
        let mut offloaded = OffloadedModel::from_model(&model);
        let _ = offloaded.gather_non_critical(&[0, 1]);
        let grown = test_model(6);
        offloaded.sync_from_model(&grown);
        assert_eq!(offloaded.len(), 6);
        assert_eq!(offloaded.bytes_gathered(), 2 * NON_CRITICAL_BYTES as u64);
    }

    #[test]
    fn sync_from_model_is_in_place_and_exact() {
        let mut offloaded = OffloadedModel::from_model(&test_model(8));
        let rows_ptr = offloaded.non_critical_rows().as_ptr();
        let shrunk = test_model(5);
        offloaded.sync_from_model(&shrunk);
        // Same backing allocation (capacity 8 covers 5 rows), same contents
        // as a fresh split.
        assert_eq!(offloaded.non_critical_rows().as_ptr(), rows_ptr);
        assert_eq!(offloaded, {
            let mut fresh = OffloadedModel::from_model(&shrunk);
            fresh.bytes_gathered = offloaded.bytes_gathered;
            fresh.bytes_scattered = offloaded.bytes_scattered;
            fresh
        });
    }

    #[test]
    fn apply_resize_matches_a_fresh_split_without_recloning_survivors() {
        use gs_scene::{plan_resize, DensifyConfig};

        // A model with prunable, clonable and splittable rows.
        let mut model: GaussianModel = (0..8)
            .map(|i| {
                let sigma = if i % 3 == 1 { 0.5 } else { 0.02 };
                let opacity = if i % 4 == 3 { 0.001 } else { 0.7 };
                let mut g = Gaussian::isotropic(
                    Vec3::new(i as f32, 1.0, 3.0),
                    sigma,
                    [0.3, 0.5, 0.7],
                    opacity,
                );
                g.sh[7] = 10.0 + i as f32;
                g
            })
            .collect();
        let mut offloaded = OffloadedModel::from_model(&model);
        let _ = offloaded.gather_non_critical(&[0, 1]);

        let norms = vec![1.0f32; model.len()];
        let event = plan_resize(&model, &norms, &DensifyConfig::default());
        let report = event.report();
        assert!(report.pruned > 0 && report.cloned > 0 && report.split > 0);
        gs_scene::apply_resize(&mut model, &event);
        offloaded.apply_resize(&event, &model);

        // Content-identical to a fresh split of the resized model, traffic
        // counters preserved.
        assert_eq!(offloaded, {
            let mut fresh = OffloadedModel::from_model(&model);
            fresh.bytes_gathered = offloaded.bytes_gathered;
            fresh.bytes_scattered = offloaded.bytes_scattered;
            fresh
        });
        assert_eq!(offloaded.bytes_gathered(), 2 * NON_CRITICAL_BYTES as u64);
    }

    #[test]
    #[should_panic(expected = "not aligned with the resize plan")]
    fn apply_resize_rejects_mismatched_store() {
        use gs_scene::{plan_resize, DensifyConfig};
        let model = test_model(4);
        let event = plan_resize(&model, &[0.0; 4], &DensifyConfig::default());
        let mut offloaded = OffloadedModel::from_model(&test_model(3));
        offloaded.apply_resize(&event, &model);
    }

    #[test]
    fn gather_rows_into_matches_owned_gather_without_accounting() {
        let model = test_model(10);
        let mut offloaded = OffloadedModel::from_model(&model);
        let mut staged = Vec::new();
        gather_rows_into(offloaded.non_critical_rows(), &[1, 4, 9], &mut staged);
        assert_eq!(staged, offloaded.gather_non_critical(&[1, 4, 9]));
        // The free-function copy itself moves no accounted bytes…
        assert_eq!(offloaded.bytes_gathered(), 3 * NON_CRITICAL_BYTES as u64);
        // …until the owner records them.
        offloaded.note_gathered_rows(3);
        assert_eq!(offloaded.bytes_gathered(), 6 * NON_CRITICAL_BYTES as u64);
    }
}
