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

    /// Mean pixel intensity.
    pub fn mean(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
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
    fn mean_intensity() {
        let img = Image::from_fn(2, 2, |x, y| ((x + y) * 100) as u8);
        // pixels: 0, 100, 100, 200
        assert!((img.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_saturates() {
        let img = Image::new(1, 1, 200);
        assert_eq!(img.scaled(2.0).get(0, 0), 255);
        assert_eq!(img.scaled(0.5).get(0, 0), 100);
    }
}
