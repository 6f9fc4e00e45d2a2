//! Gradient accumulation buffers.
//!
//! CLM processes a batch as a sequence of single-image micro-batches and
//! accumulates their gradients before the optimiser step (§4.2).  The
//! [`GradientBuffer`] is the CPU-side accumulator.  It stores a gradient
//! only for the Gaussians that actually **received** one: a row→slot index
//! over the model (4 B per Gaussian) points each receiver at one compact
//! [`ParamRow`], and the compact rows sit in first-touch order, parallel to
//! the receiver list.  Sparse (subset) Adam and the finalisation analysis
//! of overlapped CPU Adam work directly from it, and the buffer costs one
//! batch's receivers, not the model: `offload_bound` sends gradient to
//! about 1 k of its 100 k rows per batch.
//!
//! A Gaussian without receipt reads `+0.0` in every slot, so the optimiser
//! lane is shipped the received rows only and steps the rest with a zero
//! row.  (Gradient stores need no receipt: they retire reached rows only,
//! and a reached row receives gradient unless every pixel it reaches has
//! zero loss gradient.)
//!
//! # Why the compact store reads the bits a dense one would
//!
//! A dense store shaped like the model starts every element at `+0.0` and
//! applies each [`add`](GradientBuffer::add) with one `+=` per element.  The
//! compact store gives a row its slot on first touch, zero-filled with
//! `+0.0`, and applies that same `+=` to the same element in the same order
//! — so a received row holds the bits the dense row would.  Every other row
//! reads `+0.0`, which is what the dense row holds when nothing was added.
//! The receiver order is first touch in both layouts, and receipt, not
//! value, marks a row: a row that only received `-0.0` reads `+0.0`
//! (`+0.0 + -0.0` is `+0.0`) and still counts as received.

use crate::adam::ParamRow;
use gs_core::gaussian::{GaussianModel, SH_FLOATS};
use gs_core::math::Vec3;
use gs_core::visibility::VisibilitySet;
use gs_core::{BYTES_PER_PARAM, PARAMS_PER_GAUSSIAN};
use gs_render::{GaussianGradients, RenderGradients};

/// Bytes of one dense gradient row (all 59 parameters).
pub const GRADIENT_ROW_BYTES: usize = PARAMS_PER_GAUSSIAN * BYTES_PER_PARAM;

/// The index entry of a row that has received no gradient.
const NO_SLOT: u32 = u32::MAX;

/// `+0.0` in every slot: a new receiver's row, and what a row without
/// receipt reads.
const ZERO_ROW: ParamRow = [0.0; PARAMS_PER_GAUSSIAN];

/// Per-Gaussian gradient accumulator, sized by its receivers (module docs).
///
/// An executor keeps **one** buffer for its lifetime instead of allocating
/// one per batch: [`clear`](Self::clear) returns the buffer to the state
/// [`new`](Self::new) produces in O(receivers), keeping the compact rows'
/// allocation for the next batch, and [`resize`](Self::resize) follows the
/// model across densification boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GradientBuffer {
    /// Per row: its index into `rows`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The received rows' gradients, parallel to `received`.
    rows: Vec<ParamRow>,
    /// The rows that received gradient since the last clear, in first-touch
    /// order.
    received: Vec<u32>,
}

impl GradientBuffer {
    /// Creates a zeroed buffer for `len` Gaussians.
    pub fn new(len: usize) -> Self {
        GradientBuffer {
            slot: vec![NO_SLOT; len],
            rows: Vec::new(),
            received: Vec::new(),
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
        if len < self.slot.len() {
            let mut kept = 0;
            for k in 0..self.received.len() {
                let idx = self.received[k];
                if (idx as usize) < len {
                    self.received[kept] = idx;
                    self.rows[kept] = self.rows[k];
                    self.slot[idx as usize] = kept as u32;
                    kept += 1;
                }
            }
            self.received.truncate(kept);
            self.rows.truncate(kept);
        }
        self.slot.reserve_exact(len.saturating_sub(self.slot.len()));
        self.slot.resize(len, NO_SLOT);
    }

    /// Number of Gaussians the buffer covers.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Whether the buffer covers zero Gaussians.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Heap bytes the buffer holds, by capacity: 4 B per row of the index
    /// plus one [`GRADIENT_ROW_BYTES`] row and one 4 B receiver entry per
    /// compact slot.
    pub fn heap_bytes(&self) -> usize {
        self.slot.capacity() * std::mem::size_of::<u32>()
            + self.rows.capacity() * std::mem::size_of::<ParamRow>()
            + self.received.capacity() * std::mem::size_of::<u32>()
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
        if self.slot[i] == NO_SLOT {
            self.slot[i] = self.rows.len() as u32;
            self.rows.push(ZERO_ROW);
            self.received.push(index);
        }
        let row = &mut self.rows[self.slot[i] as usize];
        let mut flat = ZERO_ROW;
        flat[0..3].copy_from_slice(&grad.d_position.to_array());
        flat[3..6].copy_from_slice(&grad.d_log_scale.to_array());
        flat[6..10].copy_from_slice(&grad.d_rotation);
        flat[10..10 + SH_FLOATS].copy_from_slice(&grad.d_sh);
        flat[PARAMS_PER_GAUSSIAN - 1] = grad.d_opacity_logit;
        for (acc, g) in row.iter_mut().zip(flat) {
            *acc += g;
        }
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
        let mut row = ZERO_ROW;
        self.read_row_into(index, &mut row);
        let mut d_sh = [0.0f32; SH_FLOATS];
        d_sh.copy_from_slice(&row[10..10 + SH_FLOATS]);
        GaussianGradients {
            d_position: Vec3::new(row[0], row[1], row[2]),
            d_log_scale: Vec3::new(row[3], row[4], row[5]),
            d_rotation: [row[6], row[7], row[8], row[9]],
            d_sh,
            d_opacity_logit: row[PARAMS_PER_GAUSSIAN - 1],
        }
    }

    /// Appends the accumulated gradients of the Gaussians of `indices` that
    /// **received** gradient to `out`, as `(index, row)` pairs in `indices`
    /// order with the row in flat
    /// [`param_row`](GaussianModel::param_row) layout, straight from the
    /// compact rows.  This is what a finalisation group ships to the
    /// CPU Adam lane
    /// ([`GaussianAdam::step_detached`](crate::GaussianAdam::step_detached)):
    /// the rows are final, so the copy is the only thing the lane ever needs
    /// from the buffer the coordinator keeps accumulating into, and a row
    /// without receipt is all `+0.0` — the lane steps it with its own zero
    /// row.
    pub fn pack_received_into(&self, indices: &[u32], out: &mut Vec<(u32, ParamRow)>) {
        for &idx in indices {
            if let Some(row) = self.received_row(idx) {
                out.push((idx, *row));
            }
        }
    }

    /// Writes the accumulated gradient of Gaussian `index` into `row`, in
    /// flat [`param_row`](GaussianModel::param_row) layout: one row copy.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    pub(crate) fn read_row_into(&self, index: u32, row: &mut ParamRow) {
        let slot = self.slot[index as usize];
        *row = if slot == NO_SLOT {
            ZERO_ROW
        } else {
            self.rows[slot as usize]
        };
    }

    /// The compact row of Gaussian `index`, if it received gradient.
    fn received_row(&self, index: u32) -> Option<&ParamRow> {
        match self.slot.get(index as usize) {
            Some(&slot) if slot != NO_SLOT => Some(&self.rows[slot as usize]),
            _ => None,
        }
    }

    /// Whether Gaussian `index` has received any gradient.
    pub fn is_touched(&self, index: u32) -> bool {
        self.received_row(index).is_some()
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

    /// Resets every gradient to zero (keeps the allocation) — O(receivers),
    /// not O(model).
    pub fn clear(&mut self) {
        for &idx in &self.received {
            self.slot[idx as usize] = NO_SLOT;
        }
        self.received.clear();
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(buf, GradientBuffer::new(4));
    }

    /// `buf` holds no compact row, and every row it reads is `+0.0` down to
    /// the sign bit (`==` alone would accept `-0.0`).
    fn assert_all_bits_zero(buf: &GradientBuffer) {
        assert!(buf.rows.is_empty() && buf.received.is_empty());
        assert!(buf.slot.iter().all(|&slot| slot == NO_SLOT));
        let mut row = [1.0; PARAMS_PER_GAUSSIAN];
        for i in 0..buf.len() as u32 {
            buf.read_row_into(i, &mut row);
            assert!(row.iter().all(|x| x.to_bits() == 0), "row {i}");
        }
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
    fn gradient_store_is_sized_by_receivers() {
        const ROWS: usize = 1_000_000;
        const RECEIVERS: usize = 1_000;
        // The index, plus each receiver's row and list entry with the slack
        // of amortised doubling.
        let bound = 4 * ROWS + RECEIVERS.next_power_of_two() * (GRADIENT_ROW_BYTES + 4);
        let mut buf = GradientBuffer::new(ROWS);
        assert_eq!(buf.heap_bytes(), 4 * ROWS);
        for batch in 0..2 {
            for k in 0..RECEIVERS as u32 {
                buf.add(k * 997 % ROWS as u32, &grad(1.0, -1.0));
            }
            assert_eq!(buf.touched_count(), RECEIVERS, "batch {batch}");
            assert!(buf.heap_bytes() <= bound, "{} > {bound}", buf.heap_bytes());
            buf.clear();
            assert!(buf.heap_bytes() <= bound, "{} > {bound}", buf.heap_bytes());
        }
    }

    /// The layout the compact store replaced: five gradient columns shaped
    /// like the model and a receipt flag per row.
    #[derive(Default)]
    struct DenseOracle {
        position: Vec<Vec3>,
        log_scale: Vec<Vec3>,
        rotation: Vec<[f32; 4]>,
        sh: Vec<f32>,
        opacity_logit: Vec<f32>,
        receipt: Vec<bool>,
        received: Vec<u32>,
    }

    impl DenseOracle {
        fn resize(&mut self, len: usize) {
            self.position.resize(len, Vec3::ZERO);
            self.log_scale.resize(len, Vec3::ZERO);
            self.rotation.resize(len, [0.0; 4]);
            self.sh.resize(len * SH_FLOATS, 0.0);
            self.opacity_logit.resize(len, 0.0);
            self.receipt.resize(len, false);
            self.received.retain(|&i| (i as usize) < len);
        }

        fn add(&mut self, index: u32, grad: &GaussianGradients) {
            let i = index as usize;
            self.position[i] += grad.d_position;
            self.log_scale[i] += grad.d_log_scale;
            for k in 0..4 {
                self.rotation[i][k] += grad.d_rotation[k];
            }
            for k in 0..SH_FLOATS {
                self.sh[i * SH_FLOATS + k] += grad.d_sh[k];
            }
            self.opacity_logit[i] += grad.d_opacity_logit;
            if !self.receipt[i] {
                self.receipt[i] = true;
                self.received.push(index);
            }
        }

        fn clear(&mut self) {
            for idx in std::mem::take(&mut self.received) {
                let i = idx as usize;
                self.position[i] = Vec3::ZERO;
                self.log_scale[i] = Vec3::ZERO;
                self.rotation[i] = [0.0; 4];
                self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS].fill(0.0);
                self.opacity_logit[i] = 0.0;
                self.receipt[i] = false;
            }
        }

        fn row(&self, i: usize) -> ParamRow {
            let mut row = ZERO_ROW;
            row[0..3].copy_from_slice(&self.position[i].to_array());
            row[3..6].copy_from_slice(&self.log_scale[i].to_array());
            row[6..10].copy_from_slice(&self.rotation[i]);
            row[10..10 + SH_FLOATS].copy_from_slice(&self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]);
            row[PARAMS_PER_GAUSSIAN - 1] = self.opacity_logit[i];
            row
        }
    }

    /// SplitMix64: the op sequence and the gradient values of one case.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// `±0.0`, a subnormal, NaN or an ordinary value.
        fn float(&mut self) -> f32 {
            const SPECIAL: [f32; 6] = [0.0, -0.0, 1.0e-40, -1.0e-45, f32::NAN, -f32::NAN];
            match SPECIAL.get(self.below(2 * SPECIAL.len())) {
                Some(&x) => x,
                None => (self.next() >> 40) as f32 / (1u64 << 20) as f32 - 8.0,
            }
        }

        fn grad(&mut self) -> GaussianGradients {
            GaussianGradients {
                d_position: Vec3::new(self.float(), self.float(), self.float()),
                d_log_scale: Vec3::new(self.float(), self.float(), self.float()),
                d_rotation: std::array::from_fn(|_| self.float()),
                d_sh: std::array::from_fn(|_| self.float()),
                d_opacity_logit: self.float(),
            }
        }
    }

    /// The bits of `row`, with every NaN as one value: Rust leaves the sign
    /// and payload of a NaN *result* unspecified (the compiler may swap the
    /// operands of `NaN + NaN`), so neither layout pins them.
    fn row_bits(row: &ParamRow) -> [u32; PARAMS_PER_GAUSSIAN] {
        row.map(|x| if x.is_nan() { f32::NAN } else { x }.to_bits())
    }

    /// Every reader of `buf` sees what the dense layout would show it.
    fn assert_matches_oracle(buf: &GradientBuffer, oracle: &DenseOracle) {
        assert_eq!(buf.len(), oracle.receipt.len());
        assert_eq!(buf.received, oracle.received, "receiver order");
        assert_eq!(buf.touched_count(), oracle.received.len());
        let mut sorted = oracle.received.clone();
        sorted.sort_unstable();
        assert_eq!(buf.touched_set().indices(), &sorted[..]);
        let mut row = [1.0; PARAMS_PER_GAUSSIAN];
        for i in 0..buf.len() {
            buf.read_row_into(i as u32, &mut row);
            assert_eq!(row_bits(&row), row_bits(&oracle.row(i)), "row {i}");
            assert_eq!(buf.is_touched(i as u32), oracle.receipt[i], "row {i}");
        }
        let all: Vec<u32> = (0..buf.len() as u32 + 2).rev().collect();
        let mut packed = Vec::new();
        buf.pack_received_into(&all, &mut packed);
        let expected: Vec<_> = all
            .iter()
            .filter(|&&i| oracle.receipt.get(i as usize) == Some(&true))
            .map(|&i| (i, row_bits(&oracle.row(i as usize))))
            .collect();
        let packed: Vec<_> = packed.iter().map(|(i, r)| (*i, row_bits(r))).collect();
        assert_eq!(packed, expected);
    }

    proptest! {
        #[test]
        fn the_compact_store_reads_the_bits_of_the_dense_layout(
            seed in 0u64..u64::MAX,
            len in 0usize..24,
            ops in 1usize..80,
        ) {
            let mut draws = Draws(seed);
            let mut buf = GradientBuffer::new(len);
            let mut oracle = DenseOracle::default();
            oracle.resize(len);
            for _ in 0..ops {
                match draws.below(10) {
                    0 => {
                        buf.clear();
                        oracle.clear();
                    }
                    1 | 2 => {
                        // Both directions: a prune shrinks, densification grows.
                        let len = draws.below(32);
                        buf.resize(len);
                        oracle.resize(len);
                    }
                    _ if buf.is_empty() => {}
                    _ => {
                        let index = draws.below(buf.len()) as u32;
                        let grad = draws.grad();
                        buf.add(index, &grad);
                        oracle.add(index, &grad);
                    }
                }
                assert_matches_oracle(&buf, &oracle);
            }

            // Receipt, not value: a row that only ever received `-0.0`
            // reads `+0.0` and still counts as received.
            let neg_zero = GaussianGradients {
                d_position: Vec3::new(-0.0, -0.0, -0.0),
                d_log_scale: Vec3::new(-0.0, -0.0, -0.0),
                d_rotation: [-0.0; 4],
                d_sh: [-0.0; SH_FLOATS],
                d_opacity_logit: -0.0,
            };
            let mut buf = GradientBuffer::new(len + 1);
            let index = draws.below(len + 1) as u32;
            for _ in 0..1 + draws.below(3) {
                buf.add(index, &neg_zero);
            }
            let mut row = [1.0; PARAMS_PER_GAUSSIAN];
            buf.read_row_into(index, &mut row);
            prop_assert!(row.iter().all(|x| x.to_bits() == 0));
            prop_assert!(buf.is_touched(index));
            prop_assert_eq!(buf.touched_count(), 1);
        }
    }
}
