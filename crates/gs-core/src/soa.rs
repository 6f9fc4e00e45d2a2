//! Lane-chunked (AoSoA) parameter storage for SIMD-friendly kernels.
//!
//! The flat 59-float [`param_row`](GaussianModel::param_row) layout (PR 2)
//! made every optimiser row a single `memcpy`, but the kernels that walk
//! those rows — the Adam update and the rasteriser inner loops — still
//! process one scalar at a time.  This module provides the layout step that
//! lets them vectorise: Gaussians are grouped into **chunks of
//! [`LANE_WIDTH`] rows**, and within a chunk the storage is parameter-major
//! (`block[param][lane]`), so a kernel that walks a chunk touches
//! [`LANE_WIDTH`] consecutive `f32`s of the *same* parameter at once —
//! exactly the shape the autovectoriser lowers to SIMD loads/stores, and
//! mechanical to port to `std::simd` when it stabilises.
//!
//! The chunk width is **fixed at 8** rather than derived from the host SIMD
//! width: the layout is part of the numeric state that checkpoints and
//! traces round-trip through [`param_row`](GaussianModel::param_row), so it
//! must not vary across machines.  8 lanes of `f32` is one AVX2 register,
//! two NEON/SSE registers, half an AVX-512 register — a good fixed point.
//!
//! # Determinism contract
//!
//! The layout never changes *what* is computed.  Conversions to and from
//! row form are pure copies (bit-identical per attribute), and the lane
//! kernels built on top perform the same elementwise operations as their
//! scalar references — each row's update is independent, so grouping rows
//! into lanes is pure scheduling.  Padding lanes (rows past
//! [`len`](SoaParams::len) in the last chunk) are **kept at zero** as a
//! store invariant, so full-width kernels may process them freely: a zero
//! row through any of the kernels in this workspace stays zero.

use crate::gaussian::{GaussianModel, PARAMS_PER_GAUSSIAN, SH_FLOATS};
use crate::math::{Quat, Vec3};

/// Rows per AoSoA chunk.  Fixed (never derived from the host SIMD width) so
/// the layout — and therefore every bit-identity contract — is portable.
pub const LANE_WIDTH: usize = 8;

/// One lane group: [`LANE_WIDTH`] parameter rows in parameter-major order
/// (`block[param][lane]`).  This is both the unit of storage inside
/// [`SoaParams`] and the unit of work the lane kernels consume.
pub type LaneBlock = [[f32; LANE_WIDTH]; PARAMS_PER_GAUSSIAN];

/// Returns a zeroed [`LaneBlock`].
#[inline]
pub fn zero_lane_block() -> LaneBlock {
    [[0.0; LANE_WIDTH]; PARAMS_PER_GAUSSIAN]
}

/// AoSoA storage of per-Gaussian 59-float parameter rows (chunk width
/// [`LANE_WIDTH`], parameter-major within a chunk).
///
/// Invariant: padding lanes — lanes of the last chunk at row indices `>=`
/// [`len`](Self::len) — are always zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SoaParams {
    chunks: Vec<LaneBlock>,
    len: usize,
}

impl SoaParams {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store of `len` all-zero rows.
    pub fn zeros(len: usize) -> Self {
        SoaParams {
            chunks: vec![zero_lane_block(); len.div_ceil(LANE_WIDTH)],
            len,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lane chunks (the last may be partially filled).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Rows stored in chunk `c` (always [`LANE_WIDTH`] except possibly the
    /// last chunk).
    pub fn lanes_in_chunk(&self, c: usize) -> usize {
        (self.len - c * LANE_WIDTH).min(LANE_WIDTH)
    }

    /// Chunk `c`, parameter-major.
    pub fn chunk(&self, c: usize) -> &LaneBlock {
        &self.chunks[c]
    }

    /// Mutable chunk `c`.  Callers must preserve the zero-padding
    /// invariant for lanes past [`len`](Self::len).
    pub fn chunk_mut(&mut self, c: usize) -> &mut LaneBlock {
        &mut self.chunks[c]
    }

    /// Every chunk, mutably — the seam that lets a caller shard the store
    /// across threads with `split_at_mut` (chunk `c` holds rows
    /// `c * LANE_WIDTH ..`) and address each shard through
    /// [`gather_chunk_lane`] / [`scatter_chunk_lane`].  Callers must
    /// preserve the zero-padding invariant for lanes past
    /// [`len`](Self::len).
    pub fn chunks_mut(&mut self) -> &mut [LaneBlock] {
        &mut self.chunks
    }

    /// Reads row `i` into `out`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn read_row_into(&self, i: usize, out: &mut [f32; PARAMS_PER_GAUSSIAN]) {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        let (c, l) = (i / LANE_WIDTH, i % LANE_WIDTH);
        let chunk = &self.chunks[c];
        for k in 0..PARAMS_PER_GAUSSIAN {
            out[k] = chunk[k][l];
        }
    }

    /// Row `i` as a flat array.
    pub fn row(&self, i: usize) -> [f32; PARAMS_PER_GAUSSIAN] {
        let mut out = [0.0; PARAMS_PER_GAUSSIAN];
        self.read_row_into(i, &mut out);
        out
    }

    /// Overwrites row `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set_row(&mut self, i: usize, row: &[f32; PARAMS_PER_GAUSSIAN]) {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        let (c, l) = (i / LANE_WIDTH, i % LANE_WIDTH);
        let chunk = &mut self.chunks[c];
        for k in 0..PARAMS_PER_GAUSSIAN {
            chunk[k][l] = row[k];
        }
    }

    /// Copies row `i` into lane `lane` of a staging block
    /// (`block[k][lane] = row[k]`): the gather half of running a lane
    /// kernel over rows that are not chunk-aligned.
    #[inline]
    pub fn gather_lane(&self, i: usize, lane: usize, block: &mut LaneBlock) {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        gather_chunk_lane(&self.chunks, i, lane, block);
    }

    /// Writes lane `lane` of a staging block back into row `i`: the scatter
    /// half of [`gather_lane`](Self::gather_lane).
    #[inline]
    pub fn scatter_lane(&mut self, i: usize, lane: usize, block: &LaneBlock) {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        scatter_chunk_lane(&mut self.chunks, i, lane, block);
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: &[f32; PARAMS_PER_GAUSSIAN]) {
        if self.len == self.chunks.len() * LANE_WIDTH {
            self.chunks.push(zero_lane_block());
        }
        self.len += 1;
        self.set_row(self.len - 1, row);
    }

    /// Resizes to `new_len` rows.  Grown rows are zero; shrinking zeroes the
    /// vacated lanes so the padding invariant holds.
    pub fn resize(&mut self, new_len: usize) {
        if new_len < self.len {
            // Zero vacated lanes of the surviving chunks, drop whole chunks.
            let keep_chunks = new_len.div_ceil(LANE_WIDTH);
            self.chunks.truncate(keep_chunks);
            if let Some(last) = self.chunks.last_mut() {
                for lane in new_len - (keep_chunks - 1) * LANE_WIDTH..LANE_WIDTH {
                    for k in 0..PARAMS_PER_GAUSSIAN {
                        last[k][lane] = 0.0;
                    }
                }
            }
        } else {
            self.chunks
                .resize(new_len.div_ceil(LANE_WIDTH), zero_lane_block());
        }
        self.len = new_len;
    }

    /// Densification-boundary resize, mirroring
    /// [`GaussianModel::remove_indices`] renumbering: the rows at the
    /// (possibly unsorted, possibly duplicated) `pruned` pre-resize indices
    /// are dropped, survivors slide down preserving order, and the store is
    /// then resized to `new_len` (appended rows zero).
    ///
    /// # Panics
    /// Panics if a pruned index is out of bounds.
    pub fn apply_resize(&mut self, pruned: &[u32], new_len: usize) {
        if !pruned.is_empty() {
            let mut remove = vec![false; self.len];
            for &i in pruned {
                let i = i as usize;
                assert!(i < self.len, "pruned index {i} out of bounds");
                remove[i] = true;
            }
            // In-place forward compaction: the destination row never passes
            // the source row, so each copy reads not-yet-overwritten data.
            let mut dst = 0usize;
            let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
            for src in 0..self.len {
                if remove[src] {
                    continue;
                }
                if dst != src {
                    self.read_row_into(src, &mut row);
                    self.set_row(dst, &row);
                }
                dst += 1;
            }
            self.resize(dst);
        }
        self.resize(new_len);
    }

    /// Builds a store from row form.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32; PARAMS_PER_GAUSSIAN]>,
    {
        let mut store = SoaParams::new();
        for row in rows {
            store.push_row(row);
        }
        store
    }

    /// Converts every row of `model` into lane-chunked form (pure copies:
    /// bit-identical per attribute).
    pub fn from_model(model: &GaussianModel) -> Self {
        let mut store = SoaParams::zeros(model.len());
        let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
        for i in 0..model.len() {
            model.read_param_row_into(i, &mut row);
            store.set_row(i, &row);
        }
        store
    }

    /// Writes every row back into `model` through the
    /// [`set_param_row`](GaussianModel::set_param_row) compatibility seam.
    ///
    /// # Panics
    /// Panics if the model's length differs from the store's.
    pub fn write_to_model(&self, model: &mut GaussianModel) {
        assert_eq!(model.len(), self.len, "model / store length mismatch");
        let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
        for i in 0..self.len {
            self.read_row_into(i, &mut row);
            model.set_param_row(i, &row);
        }
    }
}

/// [`SoaParams::gather_lane`] over a bare chunk slice: copies row `i` of
/// `chunks` (row 0 = lane 0 of `chunks[0]`) into lane `lane` of `block`.
///
/// # Panics
/// Panics if row `i` lies beyond the slice.
#[inline]
pub fn gather_chunk_lane(chunks: &[LaneBlock], i: usize, lane: usize, block: &mut LaneBlock) {
    let chunk = &chunks[i / LANE_WIDTH];
    let l = i % LANE_WIDTH;
    for k in 0..PARAMS_PER_GAUSSIAN {
        block[k][lane] = chunk[k][l];
    }
}

/// [`SoaParams::scatter_lane`] over a bare chunk slice: writes lane `lane`
/// of `block` into row `i` of `chunks`.
///
/// # Panics
/// Panics if row `i` lies beyond the slice.
#[inline]
pub fn scatter_chunk_lane(chunks: &mut [LaneBlock], i: usize, lane: usize, block: &LaneBlock) {
    let chunk = &mut chunks[i / LANE_WIDTH];
    let l = i % LANE_WIDTH;
    for k in 0..PARAMS_PER_GAUSSIAN {
        chunk[k][l] = block[k][lane];
    }
}

impl GaussianModel {
    /// Stages the parameters of Gaussian `i` into lane `lane` of a
    /// parameter-major staging block (`block[k][lane] = param k`), with no
    /// intermediate row materialisation — the transposed twin of
    /// [`param_row`](Self::param_row), byte-for-byte the same values.
    ///
    /// # Panics
    /// Panics if `i >= len()` or `lane >= LANE_WIDTH`.
    #[inline]
    pub fn param_lane_into(&self, i: usize, lane: usize, block: &mut LaneBlock) {
        let p = self.positions()[i];
        let s = self.log_scales()[i];
        let q = self.rotations()[i].to_array();
        block[0][lane] = p.x;
        block[1][lane] = p.y;
        block[2][lane] = p.z;
        block[3][lane] = s.x;
        block[4][lane] = s.y;
        block[5][lane] = s.z;
        for (k, qk) in q.iter().enumerate() {
            block[6 + k][lane] = *qk;
        }
        for (k, c) in self.sh_of(i).iter().enumerate() {
            block[10 + k][lane] = *c;
        }
        block[PARAMS_PER_GAUSSIAN - 1][lane] = self.opacity_logits()[i];
    }

    /// Writes lane `lane` of a parameter-major staging block back into
    /// Gaussian `i`: the inverse of [`param_lane_into`](Self::param_lane_into)
    /// and the transposed twin of [`set_param_row`](Self::set_param_row).
    ///
    /// # Panics
    /// Panics if `i >= len()` or `lane >= LANE_WIDTH`.
    #[inline]
    pub fn set_param_lane(&mut self, i: usize, lane: usize, block: &LaneBlock) {
        self.positions_mut()[i] = Vec3::new(block[0][lane], block[1][lane], block[2][lane]);
        self.log_scales_mut()[i] = Vec3::new(block[3][lane], block[4][lane], block[5][lane]);
        self.rotations_mut()[i] = Quat::from([
            block[6][lane],
            block[7][lane],
            block[8][lane],
            block[9][lane],
        ]);
        let sh = &mut self.sh_mut()[i * SH_FLOATS..(i + 1) * SH_FLOATS];
        for (k, c) in sh.iter_mut().enumerate() {
            *c = block[10 + k][lane];
        }
        self.opacity_logits_mut()[i] = block[PARAMS_PER_GAUSSIAN - 1][lane];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;

    fn row_of(seed: f32) -> [f32; PARAMS_PER_GAUSSIAN] {
        let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
        for (k, v) in row.iter_mut().enumerate() {
            *v = seed + 0.25 * k as f32;
        }
        row
    }

    fn model_of(n: usize) -> GaussianModel {
        (0..n)
            .map(|i| {
                let mut g = Gaussian::isotropic(
                    Vec3::new(i as f32, -(i as f32), 2.0 + i as f32),
                    0.2 + 0.01 * i as f32,
                    [0.2, 0.5, 0.8],
                    0.6,
                );
                for (k, c) in g.sh.iter_mut().enumerate() {
                    *c = 0.01 * (i * 48 + k) as f32 - 0.3;
                }
                g
            })
            .collect()
    }

    #[test]
    fn row_round_trip_across_chunk_boundaries() {
        // 19 rows: two full chunks plus a 3-lane tail.
        let rows: Vec<_> = (0..19).map(|i| row_of(i as f32)).collect();
        let store = SoaParams::from_rows(rows.iter());
        assert_eq!(store.len(), 19);
        assert_eq!(store.num_chunks(), 3);
        assert_eq!(store.lanes_in_chunk(0), 8);
        assert_eq!(store.lanes_in_chunk(2), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(store.row(i), *row, "row {i}");
        }
    }

    #[test]
    fn padding_lanes_stay_zero() {
        let mut store =
            SoaParams::from_rows((0..5).map(|i| row_of(i as f32)).collect::<Vec<_>>().iter());
        for lane in 5..LANE_WIDTH {
            for k in 0..PARAMS_PER_GAUSSIAN {
                assert_eq!(store.chunk(0)[k][lane], 0.0);
            }
        }
        // Shrinking re-zeroes the vacated lanes.
        store.set_row(4, &row_of(9.0));
        store.resize(2);
        for lane in 2..LANE_WIDTH {
            for k in 0..PARAMS_PER_GAUSSIAN {
                assert_eq!(store.chunk(0)[k][lane], 0.0, "lane {lane} param {k}");
            }
        }
        // Growing back exposes zero rows, not stale data.
        store.resize(6);
        assert_eq!(store.row(4), [0.0; PARAMS_PER_GAUSSIAN]);
    }

    #[test]
    fn model_conversion_is_bit_identical() {
        let model = model_of(11);
        let store = SoaParams::from_model(&model);
        for i in 0..model.len() {
            assert_eq!(store.row(i), model.param_row(i), "row {i}");
        }
        let mut back = model_of(11);
        // Scramble, then restore from the store.
        back.positions_mut()[3] = Vec3::splat(99.0);
        back.sh_mut()[100] = -42.0;
        store.write_to_model(&mut back);
        assert_eq!(back, model);
    }

    #[test]
    fn gather_scatter_lane_round_trip() {
        let store_rows: Vec<_> = (0..10).map(|i| row_of(i as f32 * 1.5)).collect();
        let mut store = SoaParams::from_rows(store_rows.iter());
        let mut block = zero_lane_block();
        // Gather rows {9, 2, 5} into lanes {0, 1, 2} (deliberately not
        // chunk-aligned), scatter them back swapped.
        store.gather_lane(9, 0, &mut block);
        store.gather_lane(2, 1, &mut block);
        store.gather_lane(5, 2, &mut block);
        for k in 0..PARAMS_PER_GAUSSIAN {
            assert_eq!(block[k][0], store_rows[9][k]);
            assert_eq!(block[k][1], store_rows[2][k]);
        }
        store.scatter_lane(2, 0, &block); // row 2 := old row 9
        assert_eq!(store.row(2), store_rows[9]);
        assert_eq!(store.row(5), store_rows[5], "untouched rows unchanged");
    }

    #[test]
    fn model_lane_staging_matches_param_row() {
        let mut model = model_of(4);
        let mut block = zero_lane_block();
        model.param_lane_into(2, 3, &mut block);
        let row = model.param_row(2);
        for k in 0..PARAMS_PER_GAUSSIAN {
            assert_eq!(block[k][3], row[k], "param {k}");
        }
        // Scatter into another Gaussian: equivalent to set_param_row.
        model.set_param_lane(0, 3, &block);
        assert_eq!(model.param_row(0), row);
        assert_eq!(model.get(0), model.get(2));
    }

    #[test]
    fn apply_resize_compacts_like_remove_indices() {
        let rows: Vec<_> = (0..12).map(|i| row_of(i as f32)).collect();
        let mut store = SoaParams::from_rows(rows.iter());
        // Prune {1, 4, 9} (unsorted, with a duplicate), grow to 12.
        store.apply_resize(&[9, 1, 4, 4], 12);
        assert_eq!(store.len(), 12);
        let survivors: Vec<usize> = (0..12).filter(|i| ![1, 4, 9].contains(i)).collect();
        for (new_i, &old_i) in survivors.iter().enumerate() {
            assert_eq!(store.row(new_i), rows[old_i], "survivor {old_i}");
        }
        for i in survivors.len()..12 {
            assert_eq!(store.row(i), [0.0; PARAMS_PER_GAUSSIAN], "appended {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn apply_resize_rejects_out_of_range() {
        let mut store = SoaParams::zeros(3);
        store.apply_resize(&[3], 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_read_out_of_bounds_panics() {
        let store = SoaParams::zeros(2);
        let _ = store.row(2);
    }
}
