//! Grayscale raster images.
//!
//! Camera frames in the CoIC pipeline are synthetic: the scene generator
//! draws them, the feature extractor consumes them, and their byte size is
//! what the network simulation charges for uploads. Grayscale is sufficient
//! because the recognition substrate only needs controllable *similarity
//! structure*, not photorealism.

use serde::{Deserialize, Serialize};

/// An owned 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
}

impl Image {
    /// Create an image filled with `fill`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32, fill: u8) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            pixels: vec![fill; (width * height) as usize],
        }
    }

    /// Reassemble an image from raw row-major bytes (e.g. received over
    /// the wire).
    ///
    /// # Panics
    /// Panics if the buffer length does not match the dimensions.
    pub fn from_raw(width: u32, height: u32, pixels: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(
            pixels.len(),
            (width * height) as usize,
            "pixel buffer length mismatch"
        );
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Create an image by evaluating `f(x, y)` for every pixel, in row-major
    /// order (a stateful `f` may rely on it).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> u8) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let mut pixels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            pixels.extend((0..width).map(|x| f(x, y)));
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw pixel bytes, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Size in bytes when shipped over the network (raw, uncompressed —
    /// a conservative stand-in for a camera JPEG of similar magnitude).
    pub fn byte_size(&self) -> u64 {
        self.pixels.len() as u64
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y * self.width + x) as usize]
    }

    /// Set pixel value at `(x, y)`.
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y * self.width + x) as usize] = v;
    }

    /// Pixel value with clamped coordinates (edge extension), usable with
    /// signed sample positions from geometric transforms.
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Bilinear sample at fractional coordinates, clamped at edges.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let x0 = x0 as i64;
        let y0 = y0 as i64;
        let p00 = self.get_clamped(x0, y0) as f64;
        let p10 = self.get_clamped(x0 + 1, y0) as f64;
        let p01 = self.get_clamped(x0, y0 + 1) as f64;
        let p11 = self.get_clamped(x0 + 1, y0 + 1) as f64;
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }

    /// Mean pixel intensity.
    pub fn mean(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Box-filtered downsample by integer factor `k` (each output pixel is
    /// the mean of a k×k block).
    ///
    /// # Panics
    /// Panics if `k` is zero or does not divide both dimensions.
    pub fn downsample(&self, k: u32) -> Image {
        assert!(k > 0, "downsample factor must be positive");
        assert!(
            self.width.is_multiple_of(k) && self.height.is_multiple_of(k),
            "downsample factor must divide image dimensions"
        );
        let w = self.width / k;
        let h = self.height / k;
        Image::from_fn(w, h, |ox, oy| {
            let mut acc = 0u32;
            for dy in 0..k {
                for dx in 0..k {
                    acc += self.get(ox * k + dx, oy * k + dy) as u32;
                }
            }
            (acc / (k * k)) as u8
        })
    }

    /// Crop the rectangle at `(x, y)` of size `w × h`.
    ///
    /// # Panics
    /// Panics if the rectangle exceeds the image bounds.
    pub fn crop(&self, x: u32, y: u32, w: u32, h: u32) -> Image {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "crop exceeds image bounds"
        );
        Image::from_fn(w, h, |ox, oy| self.get(x + ox, y + oy))
    }

    /// Scale all intensities by `gain`, saturating to `[0, 255]`.
    pub fn scaled(&self, gain: f64) -> Image {
        Image::from_fn(self.width, self.height, |x, y| {
            (self.get(x, y) as f64 * gain).round().clamp(0.0, 255.0) as u8
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let img = Image::from_fn(4, 3, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(3, 2), 23);
        assert_eq!(img.byte_size(), 12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = Image::new(2, 2, 0);
        let _ = img.get(2, 0);
    }

    #[test]
    fn clamped_access_extends_edges() {
        let img = Image::from_fn(2, 2, |x, y| (x + 2 * y) as u8 * 10);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(99, 99), img.get(1, 1));
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let img = Image::from_fn(2, 1, |x, _| if x == 0 { 0 } else { 100 });
        assert!((img.sample_bilinear(0.5, 0.0) - 50.0).abs() < 1e-9);
        assert!((img.sample_bilinear(0.0, 0.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn mean_intensity() {
        let img = Image::from_fn(2, 2, |x, y| ((x + y) * 100) as u8);
        // pixels: 0, 100, 100, 200
        assert!((img.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn downsample_averages_blocks() {
        let img = Image::from_fn(4, 4, |x, _| if x < 2 { 0 } else { 200 });
        let d = img.downsample(2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.get(0, 0), 0);
        assert_eq!(d.get(1, 1), 200);
    }

    #[test]
    #[should_panic(expected = "divide image dimensions")]
    fn downsample_requires_divisibility() {
        let _ = Image::new(5, 4, 0).downsample(2);
    }

    #[test]
    fn crop_extracts_rect() {
        let img = Image::from_fn(4, 4, |x, y| (y * 4 + x) as u8);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.get(0, 0), 9);
        assert_eq!(c.get(1, 1), 14);
    }

    #[test]
    fn scaled_saturates() {
        let img = Image::new(1, 1, 200);
        assert_eq!(img.scaled(2.0).get(0, 0), 255);
        assert_eq!(img.scaled(0.5).get(0, 0), 100);
    }
}
