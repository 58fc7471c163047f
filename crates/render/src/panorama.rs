//! Equirectangular panoramas and viewport cropping.
//!
//! The paper's third task family: "current cloud-based VR applications
//! leverage panoramic frames ... the server sends a panoramic frame to the
//! client, and then the client crops the panorama to generate the final
//! frame for display. Multiple users playing the same VR applications or
//! watching the same VR video might use the same panorama." CoIC caches
//! panoramas at the edge keyed by content hash; this module supplies the
//! panoramas and the cropping math.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// An 8-bit grayscale equirectangular panorama (width = 2 × height;
/// azimuth spans 360°, elevation 180°).
///
/// # Examples
/// ```
/// use coic_render::Panorama;
///
/// // The server synthesizes a frame; the client crops its viewport.
/// let frame = Panorama::synthesize(7, 64);
/// assert_eq!((frame.width(), frame.height()), (128, 64));
/// let viewport = frame.crop_viewport(0.5, 0.0, 1.4, 32, 18);
/// assert_eq!(viewport.len(), 32 * 18);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Panorama {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
}

impl Panorama {
    /// Synthesize a deterministic panorama for `frame_id` of a given
    /// `height` (width is `2 × height`). Distinct frame ids produce
    /// distinct content; the same id always produces identical bytes, so
    /// hashes agree across nodes.
    ///
    /// # Panics
    /// Panics if `height < 8`.
    pub fn synthesize(frame_id: u64, height: u32) -> Panorama {
        assert!(height >= 8, "panorama too small");
        let width = height * 2;
        let mut rng = StdRng::seed_from_u64(0x9A70_0000 ^ frame_id);
        // Spherical-harmonic-ish bands: low-frequency waves over the sphere
        // so the panorama wraps seamlessly in azimuth.
        let bands: Vec<(f64, f64, f64)> = (0..8)
            .map(|_| {
                (
                    rng.random_range(1.0..4.0f64).round(),
                    rng.random_range(0.5..3.0),
                    rng.random_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        let base: f64 = rng.random_range(100.0..150.0);
        // A band's azimuthal factor depends only on the column and its
        // elevation factor only on the row, so each is evaluated once per
        // column or row instead of once per pixel. The per-pixel sum keeps
        // the association `base + (18·sin(az))·sin(el) + …` band by band, so
        // the bytes are the ones the per-pixel form produces.
        let columns: Vec<Vec<f64>> = bands
            .iter()
            .map(|&(fa, _, phase)| {
                (0..width)
                    .map(|x| {
                        let azim = (x as f64 + 0.5) / width as f64 * std::f64::consts::TAU;
                        // Integer azimuthal frequency keeps the seam invisible.
                        18.0 * (fa * azim + phase).sin()
                    })
                    .collect()
            })
            .collect();
        let mut pixels = Vec::with_capacity((width * height) as usize);
        let mut row = vec![0.0; width as usize];
        for y in 0..height {
            let elev = (y as f64 + 0.5) / height as f64 * std::f64::consts::PI;
            row.fill(base);
            for (&(_, fe, _), column) in bands.iter().zip(&columns) {
                let rise = (fe * elev).sin();
                for (v, &turn) in row.iter_mut().zip(column) {
                    *v += turn * rise;
                }
            }
            pixels.extend(row.iter().map(|v| v.clamp(0.0, 255.0) as u8));
        }
        Panorama {
            width,
            height,
            pixels,
        }
    }

    /// Wrap raw equirectangular pixels (e.g. produced by
    /// [`crate::cubemap::cubemap_to_equirect`]).
    ///
    /// # Panics
    /// Panics unless `width == 2 * height` and the buffer length matches.
    pub fn from_raw(width: u32, height: u32, pixels: Vec<u8>) -> Panorama {
        assert_eq!(width, height * 2, "equirect panoramas are 2:1");
        assert_eq!(
            pixels.len(),
            (width * height) as usize,
            "pixel buffer length mismatch"
        );
        Panorama {
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

    /// Raw bytes (row-major) — the content the descriptor hash is taken of.
    pub fn bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// The pixel bytes, row-major, without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.pixels
    }

    /// Size on the wire.
    pub fn byte_size(&self) -> u64 {
        self.pixels.len() as u64
    }

    fn sample(&self, azim: f64, elev: f64) -> u8 {
        // Wrap azimuth, clamp elevation.
        let tau = std::f64::consts::TAU;
        let a = azim.rem_euclid(tau);
        let e = elev.clamp(0.0, std::f64::consts::PI - 1e-9);
        let x = (a / tau * self.width as f64) as u32 % self.width;
        let y = ((e / std::f64::consts::PI) * self.height as f64) as u32;
        let y = y.min(self.height - 1);
        self.pixels[(y * self.width + x) as usize]
    }

    /// Crop the viewport a user looking along (`yaw`, `pitch`) with the
    /// given horizontal field of view sees, as a `out_w × out_h` image
    /// (returned as raw bytes, row-major). This is the client-side step of
    /// the paper's panoramic VR pipeline.
    ///
    /// `yaw` is radians clockwise from the panorama seam; `pitch` is
    /// radians above the horizon; `fov` is the horizontal field of view.
    pub fn crop_viewport(&self, yaw: f64, pitch: f64, fov: f64, out_w: u32, out_h: u32) -> Vec<u8> {
        assert!(
            out_w > 0 && out_h > 0,
            "viewport dimensions must be positive"
        );
        assert!(fov > 0.0 && fov < std::f64::consts::PI, "fov out of range");
        let mut out = Vec::with_capacity((out_w * out_h) as usize);
        // Pinhole viewport on the unit sphere.
        let half_w = (fov / 2.0).tan();
        let half_h = half_w * out_h as f64 / out_w as f64;
        let (sy, cy) = yaw.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        // Camera basis: forward, right, up.
        let fwd = [cp * cy, sp, cp * sy];
        let right = [-sy, 0.0, cy];
        let up = [
            fwd[1] * right[2] - fwd[2] * right[1],
            fwd[2] * right[0] - fwd[0] * right[2],
            fwd[0] * right[1] - fwd[1] * right[0],
        ];
        for py in 0..out_h {
            let v = (0.5 - (py as f64 + 0.5) / out_h as f64) * 2.0 * half_h;
            for px in 0..out_w {
                let u = ((px as f64 + 0.5) / out_w as f64 - 0.5) * 2.0 * half_w;
                let dir = [
                    fwd[0] + right[0] * u + up[0] * v,
                    fwd[1] + right[1] * u + up[1] * v,
                    fwd[2] + right[2] * u + up[2] * v,
                ];
                let len = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
                let d = [dir[0] / len, dir[1] / len, dir[2] / len];
                let azim = d[2].atan2(d[0]);
                let elev = std::f64::consts::FRAC_PI_2 - d[1].asin();
                out.push(self.sample(azim, elev));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel form `synthesize` must reproduce byte for byte.
    fn synthesize_reference(frame_id: u64, height: u32) -> Vec<u8> {
        let width = height * 2;
        let mut rng = StdRng::seed_from_u64(0x9A70_0000 ^ frame_id);
        let bands: Vec<(f64, f64, f64)> = (0..8)
            .map(|_| {
                (
                    rng.random_range(1.0..4.0f64).round(),
                    rng.random_range(0.5..3.0),
                    rng.random_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        let base: f64 = rng.random_range(100.0..150.0);
        let mut pixels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            let elev = (y as f64 + 0.5) / height as f64 * std::f64::consts::PI;
            for x in 0..width {
                let azim = (x as f64 + 0.5) / width as f64 * std::f64::consts::TAU;
                let mut v = base;
                for &(fa, fe, phase) in &bands {
                    v += 18.0 * (fa * azim + phase).sin() * (fe * elev).sin();
                }
                pixels.push(v.clamp(0.0, 255.0) as u8);
            }
        }
        pixels
    }

    fn assert_identical(frame_id: u64, height: u32) {
        let pano = Panorama::synthesize(frame_id, height);
        let oracle = synthesize_reference(frame_id, height);
        assert_eq!(pano.bytes().len(), oracle.len());
        if let Some(i) = (0..oracle.len()).find(|&i| pano.bytes()[i] != oracle[i]) {
            panic!(
                "frame {frame_id}, height {height}: pixel ({}, {}) is {} but the oracle says {}",
                i as u32 % pano.width(),
                i as u32 / pano.width(),
                pano.bytes()[i],
                oracle[i],
            );
        }
    }

    #[test]
    fn synthesis_is_byte_identical_to_the_per_pixel_oracle() {
        for height in [8, 64, 128] {
            for frame_id in 0..200 {
                assert_identical(frame_id, height);
            }
        }
    }

    /// 2 000 panoramas; CI's `experiments` job runs it beside the camera
    /// frame soak in `coic-vision`.
    #[test]
    #[ignore = "long identity soak; run with --release -- --ignored"]
    fn soak_synthesis_is_byte_identical_over_2k_panoramas() {
        for frame_id in 0..2_000u64 {
            let id = frame_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_identical(id, if frame_id % 2 == 0 { 64 } else { 128 });
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        assert_eq!(Panorama::synthesize(1, 64), Panorama::synthesize(1, 64));
        assert_ne!(
            Panorama::synthesize(1, 64).bytes(),
            Panorama::synthesize(2, 64).bytes()
        );
    }

    #[test]
    fn from_raw_validates_shape() {
        let p = Panorama::from_raw(16, 8, vec![7; 128]);
        assert_eq!(p.byte_size(), 128);
        assert_eq!(p.bytes()[0], 7);
    }

    #[test]
    #[should_panic(expected = "2:1")]
    fn from_raw_rejects_bad_aspect() {
        let _ = Panorama::from_raw(16, 16, vec![0; 256]);
    }

    #[test]
    fn equirect_aspect() {
        let p = Panorama::synthesize(0, 64);
        assert_eq!(p.width(), 128);
        assert_eq!(p.height(), 64);
        assert_eq!(p.byte_size(), 128 * 64);
    }

    #[test]
    fn seam_is_continuous() {
        // Azimuthal frequencies are integers, so column 0 and the last
        // column must be near-identical.
        let p = Panorama::synthesize(5, 128);
        let mut max_diff = 0i32;
        for y in 0..p.height() {
            let a = p.bytes()[(y * p.width()) as usize] as i32;
            let b = p.bytes()[(y * p.width() + p.width() - 1) as usize] as i32;
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff <= 6, "seam discontinuity {max_diff}");
    }

    #[test]
    fn viewport_changes_with_yaw() {
        let p = Panorama::synthesize(9, 128);
        let front = p.crop_viewport(0.0, 0.0, 1.2, 32, 32);
        let back = p.crop_viewport(std::f64::consts::PI, 0.0, 1.2, 32, 32);
        assert_eq!(front.len(), 32 * 32);
        assert_ne!(front, back);
    }

    #[test]
    fn nearby_viewports_overlap() {
        let p = Panorama::synthesize(9, 128);
        let a = p.crop_viewport(0.50, 0.0, 1.2, 32, 32);
        let b = p.crop_viewport(0.55, 0.0, 1.2, 32, 32);
        let mean_diff: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .sum::<f64>()
            / a.len() as f64;
        assert!(
            mean_diff < 12.0,
            "nearby views differ too much: {mean_diff}"
        );
    }

    #[test]
    fn zenith_crop_does_not_panic() {
        let p = Panorama::synthesize(2, 64);
        let top = p.crop_viewport(0.3, std::f64::consts::FRAC_PI_2 - 0.01, 1.0, 16, 16);
        assert_eq!(top.len(), 256);
    }

    #[test]
    #[should_panic(expected = "fov out of range")]
    fn silly_fov_rejected() {
        let p = Panorama::synthesize(2, 64);
        let _ = p.crop_viewport(0.0, 0.0, 4.0, 8, 8);
    }
}
