//! The 3D Gaussian scene representation.
//!
//! A scene is a (potentially very large) collection of anisotropic 3D
//! Gaussians, each with **59 learnable parameters** (Table 1 of the paper):
//!
//! | attribute                      | floats |
//! |--------------------------------|--------|
//! | 3D position                    | 3      |
//! | covariance (log-scale + quat)  | 3 + 4  |
//! | spherical harmonics (colour)   | 48     |
//! | opacity (logit)                | 1      |
//!
//! CLM partitions these into **selection-critical** attributes (position,
//! scale, rotation — needed for frustum culling, 10 floats) which stay
//! resident in GPU memory, and **non-critical** attributes (SH + opacity,
//! 49 floats) which are offloaded to CPU memory.  This module defines that
//! split and a structure-of-arrays container for the whole model.

use crate::math::{sigmoid, Mat3, Quat, Vec3};
use crate::sh::NUM_SH_COEFFS;

/// Total learnable floats per Gaussian (59).
pub const PARAMS_PER_GAUSSIAN: usize = 59;
/// Floats needed by frustum culling: position (3) + scale (3) + rotation (4).
pub const SELECTION_CRITICAL_FLOATS: usize = 10;
/// Floats offloadable to CPU memory: SH (48) + opacity (1).
pub const NON_CRITICAL_FLOATS: usize = PARAMS_PER_GAUSSIAN - SELECTION_CRITICAL_FLOATS;
/// SH coefficients per colour channel (degree 3).
pub const SH_COEFFS_PER_CHANNEL: usize = NUM_SH_COEFFS;
/// Total SH floats per Gaussian (3 channels × 16 coefficients).
pub const SH_FLOATS: usize = 3 * NUM_SH_COEFFS;
/// Copies of each parameter kept during training: the parameter itself, its
/// gradient and the two Adam moment estimates.
pub const TRAINING_STATE_COPIES: usize = 4;

/// The four attribute groups of a Gaussian, matching Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// 3D position (3 floats). Selection-critical.
    Position,
    /// Anisotropic covariance: log-scale (3 floats) + rotation quaternion
    /// (4 floats). Selection-critical.
    Covariance,
    /// Spherical-harmonics colour coefficients (48 floats). Non-critical.
    SphericalHarmonics,
    /// Opacity logit (1 float). Non-critical.
    Opacity,
}

impl AttributeKind {
    /// All attribute kinds in canonical order.
    pub const ALL: [AttributeKind; 4] = [
        AttributeKind::Position,
        AttributeKind::Covariance,
        AttributeKind::SphericalHarmonics,
        AttributeKind::Opacity,
    ];

    /// Number of floats this attribute occupies per Gaussian.
    pub fn float_count(self) -> usize {
        match self {
            AttributeKind::Position => 3,
            AttributeKind::Covariance => 7,
            AttributeKind::SphericalHarmonics => SH_FLOATS,
            AttributeKind::Opacity => 1,
        }
    }

    /// Whether the attribute is needed by frustum culling and therefore kept
    /// resident in GPU memory by CLM.
    pub fn is_selection_critical(self) -> bool {
        matches!(self, AttributeKind::Position | AttributeKind::Covariance)
    }
}

/// A single Gaussian in array-of-structs form, convenient for construction
/// and for the renderer's per-splat processing.
#[derive(Debug, Clone, PartialEq)]
pub struct Gaussian {
    /// World-space centre.
    pub position: Vec3,
    /// Per-axis log-scale; the actual standard deviation along each local
    /// axis is `exp(log_scale)`.
    pub log_scale: Vec3,
    /// Orientation quaternion `(w, x, y, z)`; need not be normalised.
    pub rotation: Quat,
    /// Spherical-harmonics coefficients, channel-major (48 floats).
    pub sh: [f32; SH_FLOATS],
    /// Opacity logit; the effective opacity is `sigmoid(opacity_logit)`.
    pub opacity_logit: f32,
}

impl Default for Gaussian {
    fn default() -> Self {
        Gaussian {
            position: Vec3::ZERO,
            log_scale: Vec3::splat(-3.0),
            rotation: Quat::IDENTITY,
            sh: [0.0; SH_FLOATS],
            opacity_logit: 0.0,
        }
    }
}

impl Gaussian {
    /// Creates an isotropic Gaussian with standard deviation `sigma`, a
    /// constant colour `rgb` and effective opacity `opacity` in `(0, 1)`.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive.
    pub fn isotropic(position: Vec3, sigma: f32, rgb: [f32; 3], opacity: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        Gaussian {
            position,
            log_scale: Vec3::splat(sigma.ln()),
            rotation: Quat::IDENTITY,
            sh: crate::sh::constant_color_coeffs(rgb),
            opacity_logit: crate::math::inverse_sigmoid(opacity),
        }
    }

    /// World-space standard deviations along the local axes.
    pub fn scale(&self) -> Vec3 {
        self.log_scale.map(f32::exp)
    }

    /// Effective opacity in `[0, 1]`.
    pub fn opacity(&self) -> f32 {
        sigmoid(self.opacity_logit)
    }

    /// Radius of the bounding sphere at `k` standard deviations
    /// (`k = 3` is the culling convention used by 3DGS).
    pub fn bounding_radius(&self, k: f32) -> f32 {
        k * self.scale().max_component()
    }

    /// 3D covariance matrix `Σ = R S Sᵀ Rᵀ`.
    pub fn covariance(&self) -> Mat3 {
        covariance(self.log_scale, self.rotation)
    }
}

/// 3D covariance matrix `Σ = R S Sᵀ Rᵀ` of a Gaussian with the given
/// log-scale and (not necessarily normalised) rotation — the one expression
/// behind [`Gaussian::covariance`], callable on attributes borrowed from a
/// [`GaussianModel`] without assembling a [`Gaussian`].
pub fn covariance(log_scale: Vec3, rotation: Quat) -> Mat3 {
    let r = rotation.to_rotation_matrix();
    let s = Mat3::from_diagonal(log_scale.map(f32::exp));
    let rs = r * s;
    rs * rs.transpose()
}

/// Structure-of-arrays container for all Gaussians of a scene.
///
/// This layout matches how real 3DGS implementations store the model (one
/// tensor per attribute) and is what CLM's attribute-wise offloading
/// operates on.
///
/// ```
/// use gs_core::{GaussianModel, Gaussian};
/// use gs_core::math::Vec3;
///
/// let mut model = GaussianModel::new();
/// model.push(Gaussian::isotropic(Vec3::ZERO, 0.5, [1.0, 0.0, 0.0], 0.8));
/// assert_eq!(model.len(), 1);
/// assert_eq!(model.parameter_count(), 59);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianModel {
    positions: Vec<Vec3>,
    log_scales: Vec<Vec3>,
    rotations: Vec<Quat>,
    sh: Vec<f32>,
    opacity_logits: Vec<f32>,
}

impl GaussianModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty model with capacity for `n` Gaussians.
    pub fn with_capacity(n: usize) -> Self {
        GaussianModel {
            positions: Vec::with_capacity(n),
            log_scales: Vec::with_capacity(n),
            rotations: Vec::with_capacity(n),
            sh: Vec::with_capacity(n * SH_FLOATS),
            opacity_logits: Vec::with_capacity(n),
        }
    }

    /// Number of Gaussians in the model.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the model contains no Gaussians.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Total number of learnable parameters (`len() × 59`).
    pub fn parameter_count(&self) -> usize {
        self.len() * PARAMS_PER_GAUSSIAN
    }

    /// Bytes of raw parameters (no gradients / optimizer state).
    pub fn parameter_bytes(&self) -> usize {
        self.parameter_count() * crate::BYTES_PER_PARAM
    }

    /// Bytes of full training state (parameters, gradients, two Adam
    /// moments), as used for the paper's memory-demand estimates.
    pub fn training_state_bytes(&self) -> usize {
        self.len() * crate::training_bytes_per_gaussian()
    }

    /// Appends one Gaussian, returning its index.
    pub fn push(&mut self, g: Gaussian) -> usize {
        let idx = self.len();
        self.positions.push(g.position);
        self.log_scales.push(g.log_scale);
        self.rotations.push(g.rotation);
        self.sh.extend_from_slice(&g.sh);
        self.opacity_logits.push(g.opacity_logit);
        idx
    }

    /// Reads Gaussian `i` back into array-of-structs form.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Gaussian {
        let mut sh = [0.0f32; SH_FLOATS];
        sh.copy_from_slice(&self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]);
        Gaussian {
            position: self.positions[i],
            log_scale: self.log_scales[i],
            rotation: self.rotations[i],
            sh,
            opacity_logit: self.opacity_logits[i],
        }
    }

    /// Overwrites Gaussian `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, g: Gaussian) {
        self.positions[i] = g.position;
        self.log_scales[i] = g.log_scale;
        self.rotations[i] = g.rotation;
        self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS].copy_from_slice(&g.sh);
        self.opacity_logits[i] = g.opacity_logit;
    }

    /// Removes the Gaussians at the given (sorted or unsorted, possibly
    /// duplicated) indices, preserving the relative order of the survivors.
    /// Returns the number of Gaussians removed.
    pub fn remove_indices(&mut self, indices: &[u32]) -> usize {
        if indices.is_empty() {
            return 0;
        }
        let mut remove = vec![false; self.len()];
        let mut count = 0;
        for &i in indices {
            let i = i as usize;
            if i < remove.len() && !remove[i] {
                remove[i] = true;
                count += 1;
            }
        }
        let mut keep_iter = remove.iter();
        self.positions.retain(|_| !*keep_iter.next().unwrap());
        let mut keep_iter = remove.iter();
        self.log_scales.retain(|_| !*keep_iter.next().unwrap());
        let mut keep_iter = remove.iter();
        self.rotations.retain(|_| !*keep_iter.next().unwrap());
        let mut keep_iter = remove.iter();
        self.opacity_logits.retain(|_| !*keep_iter.next().unwrap());
        let mut new_sh = Vec::with_capacity(self.sh.len() - count * SH_FLOATS);
        for (i, keep) in remove.iter().map(|r| !r).enumerate() {
            if keep {
                new_sh.extend_from_slice(&self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]);
            }
        }
        self.sh = new_sh;
        count
    }

    /// World-space positions of all Gaussians.
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Mutable world-space positions.
    pub fn positions_mut(&mut self) -> &mut [Vec3] {
        &mut self.positions
    }

    /// Per-axis log-scales of all Gaussians.
    pub fn log_scales(&self) -> &[Vec3] {
        &self.log_scales
    }

    /// Mutable log-scales.
    pub fn log_scales_mut(&mut self) -> &mut [Vec3] {
        &mut self.log_scales
    }

    /// Rotation quaternions of all Gaussians.
    pub fn rotations(&self) -> &[Quat] {
        &self.rotations
    }

    /// Mutable rotation quaternions.
    pub fn rotations_mut(&mut self) -> &mut [Quat] {
        &mut self.rotations
    }

    /// Flat SH coefficient storage (`len() × 48` floats).
    pub fn sh(&self) -> &[f32] {
        &self.sh
    }

    /// Mutable flat SH coefficient storage.
    pub fn sh_mut(&mut self) -> &mut [f32] {
        &mut self.sh
    }

    /// SH coefficients of Gaussian `i` (48 floats).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn sh_of(&self, i: usize) -> &[f32] {
        &self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS]
    }

    /// Opacity logits of all Gaussians.
    pub fn opacity_logits(&self) -> &[f32] {
        &self.opacity_logits
    }

    /// Mutable opacity logits.
    pub fn opacity_logits_mut(&mut self) -> &mut [f32] {
        &mut self.opacity_logits
    }

    /// Iterator over all Gaussians in array-of-structs form.
    pub fn iter(&self) -> impl Iterator<Item = Gaussian> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Axis-aligned bounding box of all Gaussian centres, or `None` for an
    /// empty model.
    pub fn bounding_box(&self) -> Option<(Vec3, Vec3)> {
        let first = *self.positions.first()?;
        let mut min = first;
        let mut max = first;
        for &p in &self.positions[1..] {
            min = min.min_elem(p);
            max = max.max_elem(p);
        }
        Some((min, max))
    }

    /// Packs the selection-critical attributes of Gaussian `i` into 10
    /// floats (`position ‖ log_scale ‖ rotation`), the layout CLM keeps
    /// resident on the GPU.
    pub fn selection_critical_row(&self, i: usize) -> [f32; SELECTION_CRITICAL_FLOATS] {
        let p = self.positions[i];
        let s = self.log_scales[i];
        let q = self.rotations[i];
        [p.x, p.y, p.z, s.x, s.y, s.z, q.w, q.x, q.y, q.z]
    }

    /// Packs the non-critical attributes of Gaussian `i` into 49 floats
    /// (`sh ‖ opacity`), the layout CLM offloads to pinned CPU memory.
    pub fn non_critical_row(&self, i: usize) -> [f32; NON_CRITICAL_FLOATS] {
        let mut row = [0.0f32; NON_CRITICAL_FLOATS];
        row[..SH_FLOATS].copy_from_slice(self.sh_of(i));
        row[SH_FLOATS] = self.opacity_logits[i];
        row
    }

    /// Writes a 49-float non-critical row back into Gaussian `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn set_non_critical_row(&mut self, i: usize, row: &[f32; NON_CRITICAL_FLOATS]) {
        self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS].copy_from_slice(&row[..SH_FLOATS]);
        self.opacity_logits[i] = row[SH_FLOATS];
    }

    /// Packs **all 59** learnable parameters of Gaussian `i` into one flat
    /// row: `position ‖ log_scale ‖ rotation(w,x,y,z) ‖ sh ‖ opacity`.
    ///
    /// This is the canonical layout the optimiser kernels operate on: one
    /// contiguous row per Gaussian lets the CPU Adam lane ship work between
    /// threads as plain memcpys.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn param_row(&self, i: usize) -> [f32; PARAMS_PER_GAUSSIAN] {
        let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
        self.read_param_row_into(i, &mut row);
        row
    }

    /// Writes the [`param_row`](Self::param_row) of Gaussian `i` into a
    /// caller-provided buffer, avoiding a return-value copy on staging
    /// paths that reuse one scratch row.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn read_param_row_into(&self, i: usize, row: &mut [f32; PARAMS_PER_GAUSSIAN]) {
        let p = self.positions[i];
        let s = self.log_scales[i];
        row[0..3].copy_from_slice(&p.to_array());
        row[3..6].copy_from_slice(&s.to_array());
        row[6..10].copy_from_slice(&self.rotations[i].to_array());
        row[10..10 + SH_FLOATS].copy_from_slice(self.sh_of(i));
        row[PARAMS_PER_GAUSSIAN - 1] = self.opacity_logits[i];
    }

    /// Writes a flat 59-float parameter row (the [`param_row`](Self::param_row)
    /// layout) back into Gaussian `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn set_param_row(&mut self, i: usize, row: &[f32; PARAMS_PER_GAUSSIAN]) {
        self.positions[i] = Vec3::new(row[0], row[1], row[2]);
        self.log_scales[i] = Vec3::new(row[3], row[4], row[5]);
        self.rotations[i] = Quat::from([row[6], row[7], row[8], row[9]]);
        self.sh[i * SH_FLOATS..(i + 1) * SH_FLOATS].copy_from_slice(&row[10..10 + SH_FLOATS]);
        self.opacity_logits[i] = row[PARAMS_PER_GAUSSIAN - 1];
    }
}

impl FromIterator<Gaussian> for GaussianModel {
    fn from_iter<T: IntoIterator<Item = Gaussian>>(iter: T) -> Self {
        let mut model = GaussianModel::new();
        for g in iter {
            model.push(g);
        }
        model
    }
}

impl Extend<Gaussian> for GaussianModel {
    fn extend<T: IntoIterator<Item = Gaussian>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_layout_matches_table1() {
        let total: usize = AttributeKind::ALL.iter().map(|a| a.float_count()).sum();
        assert_eq!(total, PARAMS_PER_GAUSSIAN);
        assert_eq!(AttributeKind::Position.float_count(), 3);
        assert_eq!(AttributeKind::Covariance.float_count(), 7);
        assert_eq!(AttributeKind::SphericalHarmonics.float_count(), 48);
        assert_eq!(AttributeKind::Opacity.float_count(), 1);
        let critical: usize = AttributeKind::ALL
            .iter()
            .filter(|a| a.is_selection_critical())
            .map(|a| a.float_count())
            .sum();
        assert_eq!(critical, SELECTION_CRITICAL_FLOATS);
        assert_eq!(PARAMS_PER_GAUSSIAN - critical, NON_CRITICAL_FLOATS);
        // The paper notes selection-critical attributes are < 20% of a
        // Gaussian's footprint (10 / 59).
        assert!((critical as f64) / (PARAMS_PER_GAUSSIAN as f64) < 0.20);
    }

    #[test]
    fn push_get_round_trip() {
        let mut model = GaussianModel::new();
        let g = Gaussian::isotropic(Vec3::new(1.0, 2.0, 3.0), 0.25, [0.1, 0.5, 0.9], 0.7);
        let idx = model.push(g.clone());
        assert_eq!(idx, 0);
        assert_eq!(model.get(0), g);
        assert_eq!(model.len(), 1);
        assert!(!model.is_empty());
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut model = GaussianModel::new();
        model.push(Gaussian::default());
        model.push(Gaussian::default());
        let g = Gaussian::isotropic(Vec3::X, 1.0, [1.0, 1.0, 1.0], 0.5);
        model.set(1, g.clone());
        assert_eq!(model.get(0), Gaussian::default());
        assert_eq!(model.get(1), g);
    }

    #[test]
    fn isotropic_accessors() {
        let g = Gaussian::isotropic(Vec3::ZERO, 0.5, [0.2, 0.4, 0.6], 0.75);
        let s = g.scale();
        assert!((s.x - 0.5).abs() < 1e-6);
        assert!((g.opacity() - 0.75).abs() < 1e-5);
        assert!((g.bounding_radius(3.0) - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn isotropic_rejects_nonpositive_sigma() {
        let _ = Gaussian::isotropic(Vec3::ZERO, 0.0, [0.0; 3], 0.5);
    }

    #[test]
    fn covariance_of_isotropic_is_diagonal() {
        let g = Gaussian::isotropic(Vec3::ZERO, 2.0, [0.0; 3], 0.5);
        let cov = g.covariance();
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 4.0 } else { 0.0 };
                assert!((cov.m[r][c] - expected).abs() < 1e-4, "cov {cov:?}");
            }
        }
    }

    #[test]
    fn covariance_rotation_invariance_of_isotropic() {
        let mut g = Gaussian::isotropic(Vec3::ZERO, 1.5, [0.0; 3], 0.5);
        g.rotation = Quat::from_axis_angle(Vec3::new(1.0, 2.0, 0.5), 1.1);
        let cov = g.covariance();
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 2.25 } else { 0.0 };
                assert!((cov.m[r][c] - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn split_rows_cover_all_parameters() {
        let mut model = GaussianModel::new();
        let mut g = Gaussian::isotropic(Vec3::new(1.0, -2.0, 3.0), 0.3, [0.9, 0.1, 0.4], 0.6);
        for (i, c) in g.sh.iter_mut().enumerate() {
            *c = i as f32 * 0.01;
        }
        model.push(g);
        let critical = model.selection_critical_row(0);
        let non_critical = model.non_critical_row(0);
        assert_eq!(critical.len() + non_critical.len(), PARAMS_PER_GAUSSIAN);
        assert_eq!(critical[0], 1.0);
        assert_eq!(critical[1], -2.0);
        assert_eq!(non_critical[SH_FLOATS], model.opacity_logits()[0]);
    }

    #[test]
    fn non_critical_row_round_trip() {
        let mut model = GaussianModel::new();
        model.push(Gaussian::default());
        let mut row = [0.0f32; NON_CRITICAL_FLOATS];
        for (i, v) in row.iter_mut().enumerate() {
            *v = i as f32;
        }
        model.set_non_critical_row(0, &row);
        assert_eq!(model.non_critical_row(0), row);
    }

    #[test]
    fn param_row_round_trip_and_layout() {
        let mut model = GaussianModel::new();
        let mut g = Gaussian::isotropic(Vec3::new(1.0, -2.0, 3.0), 0.3, [0.9, 0.1, 0.4], 0.6);
        g.rotation = Quat::from_axis_angle(Vec3::new(0.2, 1.0, -0.5), 0.7);
        for (i, c) in g.sh.iter_mut().enumerate() {
            *c = 0.01 * i as f32 - 0.2;
        }
        model.push(g);
        model.push(Gaussian::default());

        let row = model.param_row(0);
        // Layout: position ‖ log_scale ‖ rotation ‖ sh ‖ opacity, matching
        // the selection-critical/non-critical split end to end.
        assert_eq!(
            &row[..SELECTION_CRITICAL_FLOATS],
            &model.selection_critical_row(0)[..]
        );
        assert_eq!(
            &row[SELECTION_CRITICAL_FLOATS..],
            &model.non_critical_row(0)[..]
        );

        model.set_param_row(1, &row);
        assert_eq!(model.get(1), model.get(0));
    }

    #[test]
    fn remove_indices_keeps_survivors_in_order() {
        let mut model = GaussianModel::new();
        for i in 0..5 {
            model.push(Gaussian::isotropic(
                Vec3::new(i as f32, 0.0, 0.0),
                0.1,
                [0.0; 3],
                0.5,
            ));
        }
        let removed = model.remove_indices(&[1, 3, 3]);
        assert_eq!(removed, 2);
        assert_eq!(model.len(), 3);
        assert_eq!(model.positions()[0].x, 0.0);
        assert_eq!(model.positions()[1].x, 2.0);
        assert_eq!(model.positions()[2].x, 4.0);
        // SH storage stays consistent.
        assert_eq!(model.sh().len(), 3 * SH_FLOATS);
    }

    #[test]
    fn remove_indices_ignores_out_of_range() {
        let mut model = GaussianModel::new();
        model.push(Gaussian::default());
        assert_eq!(model.remove_indices(&[5]), 0);
        assert_eq!(model.len(), 1);
    }

    #[test]
    fn memory_accounting() {
        let mut model = GaussianModel::new();
        for _ in 0..100 {
            model.push(Gaussian::default());
        }
        assert_eq!(model.parameter_count(), 5900);
        assert_eq!(model.parameter_bytes(), 5900 * 4);
        assert_eq!(model.training_state_bytes(), 100 * 944);
    }

    #[test]
    fn bounding_box() {
        let mut model = GaussianModel::new();
        assert!(model.bounding_box().is_none());
        model.push(Gaussian::isotropic(
            Vec3::new(-1.0, 2.0, 0.0),
            0.1,
            [0.0; 3],
            0.5,
        ));
        model.push(Gaussian::isotropic(
            Vec3::new(3.0, -4.0, 5.0),
            0.1,
            [0.0; 3],
            0.5,
        ));
        let (min, max) = model.bounding_box().unwrap();
        assert_eq!(min, Vec3::new(-1.0, -4.0, 0.0));
        assert_eq!(max, Vec3::new(3.0, 2.0, 5.0));
    }

    #[test]
    fn from_iterator_collects() {
        let model: GaussianModel = (0..4)
            .map(|i| Gaussian::isotropic(Vec3::new(i as f32, 0.0, 0.0), 0.1, [0.0; 3], 0.5))
            .collect();
        assert_eq!(model.len(), 4);
    }
}
