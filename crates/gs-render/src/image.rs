//! RGB float images and the image-quality metrics MSE and PSNR.

/// A dense RGB image with `f32` channels in `[0, 1]` (values outside the
/// range are permitted but clipped by the metrics where appropriate).
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<[f32; 3]>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        Self::filled(width, height, [0.0; 3])
    }

    /// Creates an image filled with a constant colour.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn filled(width: u32, height: u32, color: [f32; 3]) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Image {
            width,
            height,
            pixels: vec![color; width as usize * height as usize],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// Row-major pixel slice.
    pub fn pixels(&self) -> &[[f32; 3]] {
        &self.pixels
    }

    /// Mutable row-major pixel slice.
    pub fn pixels_mut(&mut self) -> &mut [[f32; 3]] {
        &mut self.pixels
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> [f32; 3] {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[(y * self.width + x) as usize]
    }
}

/// Mean squared error between two images.
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn mse(a: &Image, b: &Image) -> f32 {
    assert_same_size(a, b);
    let mut sum = 0.0;
    for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
        for c in 0..3 {
            let d = pa[c] - pb[c];
            sum += d * d;
        }
    }
    sum / (a.pixel_count() as f32 * 3.0)
}

/// Peak signal-to-noise ratio in dB between a rendered image and the ground
/// truth, assuming a peak value of 1.0.  Identical images yield
/// `f32::INFINITY`.
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn psnr(rendered: &Image, ground_truth: &Image) -> f32 {
    let err = mse(rendered, ground_truth);
    if err <= 0.0 {
        f32::INFINITY
    } else {
        -10.0 * err.log10()
    }
}

fn assert_same_size(a: &Image, b: &Image) {
    assert!(
        a.width() == b.width() && a.height() == b.height(),
        "image size mismatch: {}x{} vs {}x{}",
        a.width(),
        a.height(),
        b.width(),
        b.height()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel_count(), 12);
        assert_eq!(img.pixel(0, 0), [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_out_of_bounds_panics() {
        let img = Image::new(2, 2);
        let _ = img.pixel(2, 0);
    }

    #[test]
    fn identical_images_have_zero_error_and_infinite_psnr() {
        let img = Image::filled(8, 8, [0.3, 0.6, 0.9]);
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), f32::INFINITY);
    }

    #[test]
    fn psnr_of_known_error() {
        let a = Image::filled(8, 8, [0.0; 3]);
        let b = Image::filled(8, 8, [0.1; 3]);
        // MSE = 0.01, PSNR = -10 log10(0.01) = 20 dB.
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn psnr_decreases_with_larger_error() {
        let gt = Image::filled(8, 8, [0.5; 3]);
        let close = Image::filled(8, 8, [0.52; 3]);
        let far = Image::filled(8, 8, [0.8; 3]);
        assert!(psnr(&close, &gt) > psnr(&far, &gt));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn metrics_reject_size_mismatch() {
        let a = Image::new(4, 4);
        let b = Image::new(5, 4);
        let _ = psnr(&a, &b);
    }
}
