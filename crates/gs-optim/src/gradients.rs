//! Gradient accumulation buffers.
//!
//! CLM processes a batch as a sequence of single-image micro-batches and
//! accumulates their gradients before the optimiser step (§4.2).  The
//! [`GradientBuffer`] is the CPU-side accumulator: dense storage shaped like
//! the model plus a record of which Gaussians were actually touched, so that
//! sparse (subset) Adam and the finalisation analysis of overlapped CPU Adam
//! can work directly from it.

use gs_core::gaussian::{GaussianModel, SH_FLOATS};
use gs_core::math::Vec3;
use gs_core::visibility::VisibilitySet;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_render::{GaussianGradients, RenderGradients};

/// Dense per-Gaussian gradient accumulator.
///
/// An executor keeps **one** buffer for its lifetime instead of allocating
/// and zeroing `236 B × N` every batch: a batch leaves exactly the rows it
/// accumulated into non-zero, so [`clear_indices`](Self::clear_indices) over
/// those rows returns the buffer to the state [`new`](Self::new) produces,
/// and [`resize`](Self::resize) follows the model across densification
/// boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GradientBuffer {
    d_positions: Vec<Vec3>,
    d_log_scales: Vec<Vec3>,
    d_rotations: Vec<[f32; 4]>,
    d_sh: Vec<f32>,
    d_opacity_logits: Vec<f32>,
    touched: Vec<bool>,
}

impl GradientBuffer {
    /// Creates a zeroed buffer for `len` Gaussians.
    pub fn new(len: usize) -> Self {
        GradientBuffer {
            d_positions: vec![Vec3::ZERO; len],
            d_log_scales: vec![Vec3::ZERO; len],
            d_rotations: vec![[0.0; 4]; len],
            d_sh: vec![0.0; len * SH_FLOATS],
            d_opacity_logits: vec![0.0; len],
            touched: vec![false; len],
        }
    }

    /// Creates a buffer sized for `model`.
    pub fn for_model(model: &GaussianModel) -> Self {
        Self::new(model.len())
    }

    /// Grows (with zero rows) or shrinks the buffer to cover `len`
    /// Gaussians, keeping the rows below `len` as they are.  Growth reserves
    /// exactly what is needed — the buffer tracks a model that grows at
    /// densification boundaries, and amortised doubling would hold up to
    /// twice its size.
    pub fn resize(&mut self, len: usize) {
        fn fit<T: Clone>(v: &mut Vec<T>, len: usize, zero: T) {
            v.reserve_exact(len.saturating_sub(v.len()));
            v.resize(len, zero);
        }
        fit(&mut self.d_positions, len, Vec3::ZERO);
        fit(&mut self.d_log_scales, len, Vec3::ZERO);
        fit(&mut self.d_rotations, len, [0.0; 4]);
        fit(&mut self.d_sh, len * SH_FLOATS, 0.0);
        fit(&mut self.d_opacity_logits, len, 0.0);
        fit(&mut self.touched, len, false);
    }

    /// Number of Gaussians the buffer covers.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether the buffer covers zero Gaussians.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Accumulates `grad` into Gaussian `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn add(&mut self, index: u32, grad: &GaussianGradients) {
        let i = index as usize;
        assert!(
            i < self.len(),
            "gaussian index {i} out of bounds for buffer of length {}",
            self.len()
        );
        self.d_positions[i] += grad.d_position;
        self.d_log_scales[i] += grad.d_log_scale;
        for k in 0..4 {
            self.d_rotations[i][k] += grad.d_rotation[k];
        }
        let off = i * SH_FLOATS;
        for k in 0..SH_FLOATS {
            self.d_sh[off + k] += grad.d_sh[k];
        }
        self.d_opacity_logits[i] += grad.d_opacity_logit;
        self.touched[i] = true;
    }

    /// Accumulates every entry of a renderer gradient result.
    pub fn accumulate_render(&mut self, grads: &RenderGradients) {
        for (index, grad) in grads.iter() {
            self.add(*index, grad);
        }
    }

    /// Reads the accumulated gradient of Gaussian `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn row(&self, index: u32) -> GaussianGradients {
        let i = index as usize;
        assert!(i < self.len(), "gaussian index {i} out of bounds");
        let mut d_sh = [0.0f32; SH_FLOATS];
        d_sh.copy_from_slice(&self.d_sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]);
        GaussianGradients {
            d_position: self.d_positions[i],
            d_log_scale: self.d_log_scales[i],
            d_rotation: self.d_rotations[i],
            d_sh,
            d_opacity_logit: self.d_opacity_logits[i],
        }
    }

    /// Packs the accumulated gradients of `indices` as flat
    /// [`param_row`](GaussianModel::param_row)-layout rows — `out[j]` is the
    /// gradient of `indices[j]` — straight from the accumulator's arrays.
    /// This is what a finalisation group ships to the CPU Adam lane
    /// ([`GaussianAdam::step_detached`](crate::GaussianAdam::step_detached)):
    /// the rows are final, so the copy is the only thing the lane ever needs
    /// from the buffer the coordinator keeps accumulating into.
    ///
    /// # Panics
    /// Panics if `out` and `indices` differ in length or an index is out of
    /// bounds.
    pub fn read_rows_into(&self, indices: &[u32], out: &mut [[f32; PARAMS_PER_GAUSSIAN]]) {
        assert_eq!(out.len(), indices.len(), "one output row per index");
        for (&idx, row) in indices.iter().zip(out) {
            let i = idx as usize;
            assert!(i < self.len(), "gaussian index {i} out of bounds");
            row[0..3].copy_from_slice(&self.d_positions[i].to_array());
            row[3..6].copy_from_slice(&self.d_log_scales[i].to_array());
            row[6..10].copy_from_slice(&self.d_rotations[i]);
            row[10..10 + SH_FLOATS].copy_from_slice(&self.d_sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]);
            row[PARAMS_PER_GAUSSIAN - 1] = self.d_opacity_logits[i];
        }
    }

    /// Whether Gaussian `index` has received any gradient.
    pub fn is_touched(&self, index: u32) -> bool {
        self.touched.get(index as usize).copied().unwrap_or(false)
    }

    /// The set of Gaussians that received gradients.
    pub fn touched_set(&self) -> VisibilitySet {
        VisibilitySet::from_sorted(
            self.touched
                .iter()
                .enumerate()
                .filter(|(_, &t)| t)
                .map(|(i, _)| i as u32)
                .collect(),
        )
    }

    /// Number of touched Gaussians.
    pub fn touched_count(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// Resets every gradient to zero (keeps the allocation).
    pub fn clear(&mut self) {
        self.d_positions.fill(Vec3::ZERO);
        self.d_log_scales.fill(Vec3::ZERO);
        self.d_rotations.fill([0.0; 4]);
        self.d_sh.fill(0.0);
        self.d_opacity_logits.fill(0.0);
        self.touched.fill(false);
    }

    /// Resets only the Gaussians in `indices` (used after CLM finalises and
    /// applies their updates early).
    pub fn clear_indices(&mut self, indices: &[u32]) {
        for &idx in indices {
            let i = idx as usize;
            if i >= self.len() {
                continue;
            }
            self.d_positions[i] = Vec3::ZERO;
            self.d_log_scales[i] = Vec3::ZERO;
            self.d_rotations[i] = [0.0; 4];
            self.d_sh[i * SH_FLOATS..(i + 1) * SH_FLOATS].fill(0.0);
            self.d_opacity_logits[i] = 0.0;
            self.touched[i] = false;
        }
    }

    /// Sum of the L2 norms of every touched Gaussian's gradient (a cheap
    /// global magnitude measure used in tests and densification heuristics).
    pub fn total_norm(&self) -> f32 {
        (0..self.len() as u32)
            .filter(|&i| self.is_touched(i))
            .map(|i| self.row(i).norm().powi(2))
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad(px: f32, opacity: f32) -> GaussianGradients {
        GaussianGradients {
            d_position: Vec3::new(px, 0.0, 0.0),
            d_opacity_logit: opacity,
            ..Default::default()
        }
    }

    #[test]
    fn add_accumulates_and_marks_touched() {
        let mut buf = GradientBuffer::new(3);
        assert_eq!(buf.touched_count(), 0);
        buf.add(1, &grad(1.0, 0.5));
        buf.add(1, &grad(2.0, -0.25));
        assert!(buf.is_touched(1));
        assert!(!buf.is_touched(0));
        let row = buf.row(1);
        assert_eq!(row.d_position.x, 3.0);
        assert_eq!(row.d_opacity_logit, 0.25);
        assert_eq!(buf.touched_set().indices(), &[1]);
    }

    #[test]
    fn accumulation_order_does_not_matter() {
        // The paper's §4.2.3 correctness argument: gradients accumulated over
        // a batch are identical regardless of micro-batch order.
        let grads = [
            (0u32, grad(0.3, 0.1)),
            (2, grad(-0.5, 0.2)),
            (0, grad(0.7, -0.4)),
        ];
        let mut forward = GradientBuffer::new(3);
        for (i, g) in &grads {
            forward.add(*i, g);
        }
        let mut reversed = GradientBuffer::new(3);
        for (i, g) in grads.iter().rev() {
            reversed.add(*i, g);
        }
        for i in 0..3 {
            assert_eq!(forward.row(i), reversed.row(i));
        }
    }

    #[test]
    fn clear_and_clear_indices() {
        let mut buf = GradientBuffer::new(4);
        for i in 0..4 {
            buf.add(i, &grad(1.0, 1.0));
        }
        buf.clear_indices(&[1, 3, 9]);
        assert!(buf.is_touched(0));
        assert!(!buf.is_touched(1));
        assert!(buf.is_touched(2));
        assert!(!buf.is_touched(3));
        assert_eq!(buf.row(1).d_position, Vec3::ZERO);
        buf.clear();
        assert_eq!(buf.touched_count(), 0);
        assert_eq!(buf.total_norm(), 0.0);
    }

    /// Every stored float of `buf` is `+0.0` down to the sign bit (`==`
    /// alone would accept `-0.0`).
    fn assert_all_bits_zero(buf: &GradientBuffer) {
        let indices: Vec<u32> = (0..buf.len() as u32).collect();
        let mut rows = vec![[1.0f32; PARAMS_PER_GAUSSIAN]; buf.len()];
        buf.read_rows_into(&indices, &mut rows);
        assert!(rows.iter().flatten().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn a_reused_buffer_equals_a_fresh_one_across_batches_and_resizes() {
        let full = GaussianGradients {
            d_position: Vec3::new(1.0, -2.0, 3.0),
            d_log_scale: Vec3::new(-0.5, 0.25, -0.125),
            d_rotation: [0.1, -0.2, 0.3, -0.4],
            d_sh: [-0.75; SH_FLOATS],
            d_opacity_logit: -9.0,
        };
        let mut buf = GradientBuffer::default();
        assert_eq!(buf, GradientBuffer::new(0));
        buf.resize(6);
        assert_eq!(buf, GradientBuffer::new(6));

        // One "batch": some rows accumulate twice, one cancels to zero but
        // stays marked, most stay untouched.
        let mut negated = full.clone();
        negated.d_position = Vec3::new(-1.0, 2.0, -3.0);
        for (i, g) in [
            (4u32, &full),
            (1, &full),
            (4, &negated),
            (5, &grad(0.0, 0.0)),
        ] {
            buf.add(i, g);
        }
        let touched = buf.touched_set();
        assert_eq!(touched.indices(), &[1, 4, 5]);
        buf.clear_indices(touched.indices());
        assert_eq!(buf, GradientBuffer::new(6));
        assert_all_bits_zero(&buf);

        // Densification grows the model, a later prune shrinks it: the
        // all-zero buffer follows and stays equal to a fresh one.
        buf.resize(9);
        assert_eq!(buf, GradientBuffer::new(9));
        buf.add(8, &full);
        buf.add(2, &full);
        buf.clear_indices(&[2, 8]);
        buf.resize(4);
        assert_eq!(buf, GradientBuffer::new(4));
        assert_all_bits_zero(&buf);

        // `resize` itself never rewrites a surviving row.
        buf.add(1, &full);
        buf.resize(7);
        buf.resize(2);
        assert_eq!(buf.row(1), full);
        assert_eq!(buf.touched_set().indices(), &[1]);
        assert_ne!(buf, GradientBuffer::new(2));
    }

    #[test]
    fn read_rows_into_matches_the_row_view_in_param_layout() {
        let mut buf = GradientBuffer::new(5);
        let mut d_sh = [0.0f32; SH_FLOATS];
        for (k, c) in d_sh.iter_mut().enumerate() {
            *c = 0.5 - k as f32;
        }
        buf.add(
            3,
            &GaussianGradients {
                d_position: Vec3::new(1.0, 2.0, 3.0),
                d_log_scale: Vec3::new(-1.0, -2.0, -3.0),
                d_rotation: [0.1, 0.2, 0.3, 0.4],
                d_sh,
                d_opacity_logit: 9.0,
            },
        );
        let mut rows = [[7.0f32; PARAMS_PER_GAUSSIAN]; 2];
        buf.read_rows_into(&[1, 3], &mut rows);
        assert_eq!(rows[0], [0.0; PARAMS_PER_GAUSSIAN], "untouched row is zero");
        assert_eq!(rows[1][0..3], [1.0, 2.0, 3.0]);
        assert_eq!(rows[1][3..6], [-1.0, -2.0, -3.0]);
        assert_eq!(rows[1][6..10], [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(rows[1][10..10 + SH_FLOATS], d_sh);
        assert_eq!(rows[1][PARAMS_PER_GAUSSIAN - 1], 9.0);
    }

    #[test]
    fn touched_set_is_sorted() {
        let mut buf = GradientBuffer::new(10);
        for i in [7u32, 2, 5] {
            buf.add(i, &grad(1.0, 0.0));
        }
        assert_eq!(buf.touched_set().indices(), &[2, 5, 7]);
        assert_eq!(buf.touched_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_out_of_bounds_panics() {
        let mut buf = GradientBuffer::new(2);
        buf.add(2, &grad(1.0, 0.0));
    }

    #[test]
    fn total_norm_of_known_gradients() {
        let mut buf = GradientBuffer::new(2);
        buf.add(0, &grad(3.0, 0.0));
        buf.add(1, &grad(0.0, 4.0));
        assert!((buf.total_norm() - 5.0).abs() < 1e-6);
    }
}
