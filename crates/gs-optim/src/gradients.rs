//! Gradient accumulation buffers.
//!
//! CLM processes a batch as a sequence of single-image micro-batches and
//! accumulates their gradients before the optimiser step (§4.2).  The
//! [`GradientBuffer`] is the CPU-side accumulator: dense storage shaped like
//! the model plus a record of which Gaussians actually **received**
//! gradient, so that sparse (subset) Adam, the finalisation analysis of
//! overlapped CPU Adam and the gradient stores can work directly from it.
//!
//! Receipt is the fact everything downstream keys on.  A frustum-visible
//! Gaussian the renderer never reached (occluded, sub-threshold alpha)
//! holds `+0.0` in every slot, so nothing needs to carry its row: a
//! gradient store ([`GradientBuffer::store`]) ships only the retiring rows
//! that received gradient since they were last stored, and the optimiser
//! stages a zero lane for every row without receipt.

use gs_core::gaussian::{GaussianModel, SH_FLOATS};
use gs_core::math::Vec3;
use gs_core::visibility::VisibilitySet;
use gs_core::{BYTES_PER_PARAM, PARAMS_PER_GAUSSIAN};
use gs_render::{GaussianGradients, RenderGradients};

/// Bytes of one dense gradient row (all 59 parameters).
pub const GRADIENT_ROW_BYTES: usize = PARAMS_PER_GAUSSIAN * BYTES_PER_PARAM;

/// Bytes of one gradient row in a sparse store: the row plus its `u32`
/// Gaussian index.
pub const SPARSE_GRADIENT_ROW_BYTES: usize = GRADIENT_ROW_BYTES + std::mem::size_of::<u32>();

/// What one gradient store moves device→host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorePayload {
    /// Gradient rows sent: the retiring rows that received gradient since
    /// they were last stored.
    pub rows: u64,
    /// Bytes on the wire.
    pub bytes: u64,
}

impl StorePayload {
    /// The payload of a store retiring `rows_retiring` rows of which
    /// `rows_sent` carry gradient: the cheaper of the dense block (every
    /// retiring row, no indices) and the sparse list (only the rows sent,
    /// each with its index) — so a fully-dense store never gets dearer.
    pub fn new(rows_retiring: usize, rows_sent: usize) -> Self {
        let dense = rows_retiring * GRADIENT_ROW_BYTES;
        let sparse = rows_sent * SPARSE_GRADIENT_ROW_BYTES;
        StorePayload {
            rows: rows_sent as u64,
            bytes: dense.min(sparse) as u64,
        }
    }
}

/// Dense per-Gaussian gradient accumulator.
///
/// An executor keeps **one** buffer for its lifetime instead of allocating
/// and zeroing `236 B × N` every batch: a batch leaves exactly the rows that
/// received gradient non-zero, so [`clear`](Self::clear)
/// returns the buffer to the state [`new`](Self::new) produces in
/// O(receivers), and [`resize`](Self::resize) follows the model across
/// densification boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GradientBuffer {
    d_positions: Vec<Vec3>,
    d_log_scales: Vec<Vec3>,
    d_rotations: Vec<[f32; 4]>,
    d_sh: Vec<f32>,
    d_opacity_logits: Vec<f32>,
    /// Per row: received gradient since the row was last cleared.
    touched: Vec<bool>,
    /// Per row: received gradient since the row was last stored.
    unsent: Vec<bool>,
    /// The rows with `touched` set, in first-touch order.
    received: Vec<u32>,
    /// Bytes every [`store`](Self::store) since the last full clear moved.
    stored_bytes: u64,
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
            unsent: vec![false; len],
            received: Vec::new(),
            stored_bytes: 0,
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
        fit(&mut self.unsent, len, false);
        self.received.retain(|&i| (i as usize) < len);
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
        if !self.touched[i] {
            self.touched[i] = true;
            self.received.push(index);
        }
        self.unsent[i] = true;
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

    /// Appends the accumulated gradients of the Gaussians of `indices` that
    /// **received** gradient to `out`, as `(index, row)` pairs in `indices`
    /// order with the row in flat
    /// [`param_row`](GaussianModel::param_row) layout, straight from the
    /// accumulator's arrays.  This is what a finalisation group ships to the
    /// CPU Adam lane
    /// ([`GaussianAdam::step_detached`](crate::GaussianAdam::step_detached)):
    /// the rows are final, so the copy is the only thing the lane ever needs
    /// from the buffer the coordinator keeps accumulating into, and a row
    /// without receipt is all `+0.0` — the lane stages that itself.
    pub fn pack_received_into(
        &self,
        indices: &[u32],
        out: &mut Vec<(u32, [f32; PARAMS_PER_GAUSSIAN])>,
    ) {
        for &idx in indices.iter().filter(|&&idx| self.is_touched(idx)) {
            let i = idx as usize;
            let mut row = [0.0; PARAMS_PER_GAUSSIAN];
            row[0..3].copy_from_slice(&self.d_positions[i].to_array());
            row[3..6].copy_from_slice(&self.d_log_scales[i].to_array());
            row[6..10].copy_from_slice(&self.d_rotations[i]);
            row[10..10 + SH_FLOATS].copy_from_slice(&self.d_sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]);
            row[PARAMS_PER_GAUSSIAN - 1] = self.d_opacity_logits[i];
            out.push((idx, row));
        }
    }

    /// Whether Gaussian `index` has received any gradient.
    pub fn is_touched(&self, index: u32) -> bool {
        self.touched.get(index as usize).copied().unwrap_or(false)
    }

    /// The set of Gaussians that received gradients.
    pub fn touched_set(&self) -> VisibilitySet {
        let mut rows = self.received.clone();
        rows.sort_unstable();
        VisibilitySet::from_sorted(rows)
    }

    /// Number of Gaussians that received gradients.
    pub fn touched_count(&self) -> usize {
        self.received.len()
    }

    /// How many of `indices` received gradient.
    pub fn count_received(&self, indices: &[u32]) -> usize {
        indices.iter().filter(|&&i| self.is_touched(i)).count()
    }

    /// Stores the gradients of the rows `retiring` from the device to the
    /// host: the payload is the retiring rows that received gradient since
    /// they were last stored (a row evicted, re-fetched and evicted again
    /// ships once per residency, each time with what it accumulated while
    /// resident), priced by [`StorePayload::new`].  Clears those rows'
    /// unsent marks; the accumulated values stay, as the host-side sum.
    ///
    /// This is the **one** place a retirement set becomes a store payload:
    /// every executor calls it once per micro-batch, after the micro-batch's
    /// gradients are accumulated and before the next one's.
    pub fn store(&mut self, retiring: &[u32]) -> StorePayload {
        let mut sent = 0;
        for &idx in retiring {
            if let Some(unsent) = self.unsent.get_mut(idx as usize) {
                sent += usize::from(std::mem::take(unsent));
            }
        }
        let payload = StorePayload::new(retiring.len(), sent);
        self.stored_bytes += payload.bytes;
        payload
    }

    /// Bytes every [`store`](Self::store) moved since the buffer was last
    /// all-zero.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Resets every gradient to zero (keeps the allocation) — O(receivers),
    /// not O(model).
    pub fn clear(&mut self) {
        for idx in std::mem::take(&mut self.received) {
            let i = idx as usize;
            self.d_positions[i] = Vec3::ZERO;
            self.d_log_scales[i] = Vec3::ZERO;
            self.d_rotations[i] = [0.0; 4];
            self.d_sh[i * SH_FLOATS..(i + 1) * SH_FLOATS].fill(0.0);
            self.d_opacity_logits[i] = 0.0;
            self.touched[i] = false;
            self.unsent[i] = false;
        }
        self.stored_bytes = 0;
    }

    /// Sum of the L2 norms of every touched Gaussian's gradient (a cheap
    /// global magnitude measure used in tests and densification heuristics).
    pub fn total_norm(&self) -> f32 {
        self.touched_set()
            .indices()
            .iter()
            .map(|&i| self.row(i).norm().powi(2))
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
    fn clear_resets_exactly_the_receivers() {
        let mut buf = GradientBuffer::new(4);
        for i in [0, 2] {
            buf.add(i, &grad(1.0, 1.0));
        }
        assert!(buf.is_touched(2) && !buf.is_touched(1));
        buf.clear();
        assert_eq!(buf.row(2).d_position, Vec3::ZERO);
        assert_eq!(buf.touched_count(), 0);
        assert_eq!(buf.total_norm(), 0.0);
        assert_eq!(buf, GradientBuffer::new(4));
    }

    /// Every stored float of `buf` is `+0.0` down to the sign bit (`==`
    /// alone would accept `-0.0`).
    fn assert_all_bits_zero(buf: &GradientBuffer) {
        let floats = buf
            .d_positions
            .iter()
            .chain(&buf.d_log_scales)
            .flat_map(|v| v.to_array())
            .chain(buf.d_rotations.iter().flatten().copied())
            .chain(buf.d_sh.iter().copied())
            .chain(buf.d_opacity_logits.iter().copied());
        assert!(floats.map(f32::to_bits).all(|bits| bits == 0));
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
        buf.clear();
        assert_eq!(buf, GradientBuffer::new(6));
        assert_all_bits_zero(&buf);

        // Densification grows the model, a later prune shrinks it: the
        // all-zero buffer follows and stays equal to a fresh one.
        buf.resize(9);
        assert_eq!(buf, GradientBuffer::new(9));
        buf.add(8, &full);
        buf.add(2, &full);
        buf.clear();
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
    fn pack_received_into_ships_only_received_rows_in_param_layout() {
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
        buf.add(4, &grad(0.0, 0.0));
        let mut rows = vec![(9u32, [7.0f32; PARAMS_PER_GAUSSIAN])];
        buf.pack_received_into(&[1, 3, 4], &mut rows);
        assert_eq!(rows.len(), 3, "appends; row 1 never received gradient");
        let (index, row) = rows[1];
        assert_eq!(index, 3);
        assert_eq!(row[0..3], [1.0, 2.0, 3.0]);
        assert_eq!(row[3..6], [-1.0, -2.0, -3.0]);
        assert_eq!(row[6..10], [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(row[10..10 + SH_FLOATS], d_sh);
        assert_eq!(row[PARAMS_PER_GAUSSIAN - 1], 9.0);
        // Receipt, not value, decides: an all-zero gradient still ships.
        assert_eq!(rows[2], (4, [0.0; PARAMS_PER_GAUSSIAN]));
        assert_eq!(buf.count_received(&[0, 1, 3, 4]), 2);
    }

    #[test]
    fn a_store_ships_each_row_once_per_residency() {
        let mut buf = GradientBuffer::new(8);
        for i in [1u32, 2, 5] {
            buf.add(i, &grad(1.0, 0.0));
        }
        // Rows 1..=4 retire; 1 and 2 carry gradient, 3 and 4 never received.
        let first = buf.store(&[1, 2, 3, 4]);
        assert_eq!(first, StorePayload::new(4, 2));
        assert_eq!(first.bytes, 2 * SPARSE_GRADIENT_ROW_BYTES as u64);
        // Retiring again without new gradient sends nothing — no duplicate.
        assert_eq!(buf.store(&[1, 2]), StorePayload::default());
        // Row 2 is re-fetched, receives gradient again and retires with row
        // 5, which has been resident all along.
        buf.add(2, &grad(0.5, 0.0));
        let second = buf.store(&[2, 5, 6]);
        assert_eq!(second.rows, 2);
        assert_eq!(buf.row(2).d_position.x, 1.5, "the host-side sum stays");
        assert_eq!(buf.stored_bytes(), first.bytes + second.bytes);
        assert_eq!(buf.touched_count(), 3, "stores never forget receipt");
        buf.clear();
        assert_eq!(buf, GradientBuffer::new(8));
    }

    #[test]
    fn a_store_payload_is_never_dearer_than_the_dense_block() {
        // Sparse rows carry a 4-byte index each, so a (nearly) dense store
        // falls back to the index-free block.
        assert_eq!(StorePayload::new(10, 0).bytes, 0);
        assert_eq!(StorePayload::new(10, 1).bytes, 240);
        assert_eq!(StorePayload::new(60, 59).bytes, 59 * 240);
        assert_eq!(StorePayload::new(60, 60).bytes, 60 * 236);
        assert_eq!(StorePayload::new(10, 10).rows, 10);
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
