//! Training losses for 3DGS.
//!
//! The reference 3DGS recipe uses `0.8·L1 + 0.2·(1 − SSIM)`.  In this
//! reproduction the differentiable part of the loss is L1 (whose gradient is
//! trivial and exact); PSNR, in [`crate::image`], is the evaluation metric.
//! The training dynamics relevant to CLM (which Gaussians receive gradients,
//! and how large those gradients are) are unaffected by this simplification
//! because the gradient *sparsity pattern* is identical.

use crate::image::Image;

/// Result of a differentiable loss evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Scalar loss value.
    pub value: f32,
    /// Gradient of the loss with respect to every rendered pixel
    /// (row-major, same layout as [`Image::pixels`]).
    pub d_image: Vec<[f32; 3]>,
}

/// Mean absolute error loss with its gradient.
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn l1_loss(rendered: &Image, ground_truth: &Image) -> LossOutput {
    assert!(
        rendered.width() == ground_truth.width() && rendered.height() == ground_truth.height(),
        "image size mismatch"
    );
    let n = (rendered.pixel_count() * 3) as f32;
    let mut value = 0.0;
    let mut d_image = vec![[0.0f32; 3]; rendered.pixel_count()];
    for (i, (pr, pg)) in rendered
        .pixels()
        .iter()
        .zip(ground_truth.pixels())
        .enumerate()
    {
        for c in 0..3 {
            let diff = pr[c] - pg[c];
            value += diff.abs();
            d_image[i][c] = if diff > 0.0 {
                1.0 / n
            } else if diff < 0.0 {
                -1.0 / n
            } else {
                0.0
            };
        }
    }
    LossOutput {
        value: value / n,
        d_image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_loss_of_identical_images_is_zero() {
        let img = Image::filled(8, 8, [0.4, 0.5, 0.6]);
        let out = l1_loss(&img, &img);
        assert_eq!(out.value, 0.0);
        assert!(out.d_image.iter().all(|p| *p == [0.0; 3]));
    }

    #[test]
    fn l1_loss_value_and_gradient() {
        let a = Image::filled(2, 2, [0.6; 3]);
        let b = Image::filled(2, 2, [0.5; 3]);
        let out = l1_loss(&a, &b);
        assert!((out.value - 0.1).abs() < 1e-6);
        // Gradient of mean |a-b| wrt a is sign/N with N = 4 pixels × 3 channels.
        for p in &out.d_image {
            for c in 0..3 {
                assert!((p[c] - 1.0 / 12.0).abs() < 1e-7);
            }
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn loss_rejects_mismatched_sizes() {
        let a = Image::new(2, 2);
        let b = Image::new(3, 2);
        let _ = l1_loss(&a, &b);
    }
}
