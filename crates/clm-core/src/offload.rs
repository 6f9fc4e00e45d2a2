//! Attribute-wise offloaded parameter store (§4.1, §5.2).
//!
//! CLM splits every Gaussian's 59 parameters into the **selection-critical**
//! attributes (position, scale, rotation, opacity — 11 floats) that stay
//! resident in GPU memory, and the **non-critical** attributes (the 48 SH
//! floats) that live in pinned CPU memory and are gathered on demand by the
//! *selective loading kernel*.  Each SH row has exactly one owner: the
//! trainer's [`GaussianModel`], whose SH column
//! ([`GaussianModel::sh_rows`]) *is* the pinned host store.  A gather copies
//! rows out of it ([`gather_rows_into`]), CPU Adam updates them in place (or,
//! on the threaded backend, in a second model swapped in at batch end), and
//! nothing is ever re-synchronised.  What the trainer keeps besides the rows
//! is the byte accounting ([`OffloadAccounting`], `Trainer::offloaded`).
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

/// Bytes of non-critical attributes per Gaussian (what a parameter fetch
/// moves over PCIe).
pub const NON_CRITICAL_BYTES: usize = NON_CRITICAL_FLOATS * BYTES_PER_PARAM;

/// Bytes of selection-critical attributes per Gaussian (GPU resident).
pub const SELECTION_CRITICAL_BYTES: usize = SELECTION_CRITICAL_FLOATS * BYTES_PER_PARAM;

/// Bytes of one Gaussian's gradient row sent back to the CPU (all 59
/// parameters).
pub const GRADIENT_BYTES: usize = gs_optim::GRADIENT_ROW_BYTES;

/// The byte accounting of one model's attribute-wise offload: how much of
/// it is GPU-resident and pinned, and the traffic it has generated so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadAccounting {
    pub(crate) rows: usize,
    pub(crate) bytes_gathered: u64,
}

impl OffloadAccounting {
    /// Bytes of GPU-resident parameter data
    /// ([`SELECTION_CRITICAL_FLOATS`] per Gaussian).
    pub fn gpu_resident_bytes(&self) -> u64 {
        (self.rows * SELECTION_CRITICAL_BYTES) as u64
    }

    /// Bytes of pinned host memory holding the non-critical attributes.
    pub fn pinned_bytes(&self) -> u64 {
        (self.rows * NON_CRITICAL_BYTES) as u64
    }

    /// Cumulative CPU→GPU parameter traffic generated by gathers.
    pub fn bytes_gathered(&self) -> u64 {
        self.bytes_gathered
    }
}

/// A detached copy of a model's non-critical rows, one per Gaussian.
/// Training never builds one — the model's SH column is the store — so this
/// only measures what splitting a model and scattering into a separate
/// pinned buffer cost.
#[derive(Debug, Clone)]
pub struct OffloadedModel {
    non_critical: Vec<[f32; NON_CRITICAL_FLOATS]>,
}

impl OffloadedModel {
    /// Copies a dense [`GaussianModel`]'s non-critical rows.
    pub fn from_model(model: &GaussianModel) -> Self {
        OffloadedModel {
            non_critical: model.sh_rows().to_vec(),
        }
    }

    /// The copied rows, one per Gaussian.
    pub fn non_critical_rows(&self) -> &[[f32; NON_CRITICAL_FLOATS]] {
        &self.non_critical
    }

    /// Overwrites the rows at `indices` with `rows`.
    ///
    /// # Panics
    /// Panics if the slices differ in length or an index is out of bounds.
    pub fn scatter_non_critical(&mut self, indices: &[u32], rows: &[[f32; NON_CRITICAL_FLOATS]]) {
        assert_eq!(indices.len(), rows.len(), "index/row length mismatch");
        for (&idx, row) in indices.iter().zip(rows) {
            self.non_critical[idx as usize] = *row;
        }
    }
}

/// The selective loading kernel's data half: copies the rows at `indices`
/// from a pinned host store — the model's [`GaussianModel::sh_rows`] — into
/// the caller's staging buffer (cleared first, allocation reused).  A gather
/// worker thread runs it from a shared borrow of the model while the byte
/// accounting (`Trainer::note_gathered_rows`) stays with the trainer.
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
        let accounting = OffloadAccounting {
            rows: 100,
            ..Default::default()
        };
        // Selection-critical attributes are < 20% of a Gaussian's footprint.
        let total = accounting.gpu_resident_bytes() + accounting.pinned_bytes();
        assert_eq!(total, 100 * 59 * 4);
        assert!((accounting.gpu_resident_bytes() as f64) / (total as f64) < 0.20);
        assert_eq!(accounting.gpu_resident_bytes(), 100 * 44);
        assert_eq!(accounting.pinned_bytes(), 100 * 192);
    }

    #[test]
    fn gather_copies_the_requested_sh_rows() {
        let model = test_model(10);
        let mut staged = vec![[7.0; NON_CRITICAL_FLOATS]; 4];
        gather_rows_into(model.sh_rows(), &[2, 7], &mut staged);
        assert_eq!(staged, [model.sh_rows()[2], model.sh_rows()[7]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_out_of_bounds_panics() {
        gather_rows_into(test_model(2).sh_rows(), &[5], &mut Vec::new());
    }

    #[test]
    fn a_detached_copy_scatters_without_touching_the_model() {
        let model = test_model(4);
        let mut store = OffloadedModel::from_model(&model);
        assert_eq!(store.non_critical_rows(), model.sh_rows());
        let mut row = model.sh_rows()[1];
        row[0] = 99.0;
        store.scatter_non_critical(&[1], &[row]);
        assert_eq!(store.non_critical_rows()[1], row);
        assert_ne!(model.sh_rows()[1][0], 99.0);
    }
}
