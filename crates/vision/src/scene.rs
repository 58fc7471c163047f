//! Synthetic observation generator.
//!
//! The paper's redundancy insight is that *co-located users photograph the
//! same objects from slightly different angles* (two safe-driving apps both
//! see the stop sign at a crossroads). This module reproduces exactly that
//! statistical structure: each [`ObjectClass`] has a deterministic
//! procedural appearance, and an observation renders it under a
//! [`ViewParams`] perturbation (viewing angle, scale, illumination, sensor
//! noise). Small perturbations of the same class produce images whose
//! SimNet embeddings stay close; different classes land far apart — which
//! is the property CoIC's distance-threshold cache lookup relies on.

use crate::image::Image;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Identity of a recognizable object (e.g. "the stop sign at crossroads 7").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectClass(pub u32);

/// Rendering-time perturbation of an observation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ViewParams {
    /// In-plane viewing angle in radians.
    pub angle: f64,
    /// Zoom factor (1.0 = canonical framing).
    pub scale: f64,
    /// Illumination gain (1.0 = canonical lighting).
    pub illumination: f64,
    /// Standard deviation of additive Gaussian sensor noise, in intensity
    /// levels (0–255 scale).
    pub noise_sigma: f64,
    /// Horizontal translation, in pixels of the canonical frame.
    pub dx: f64,
    /// Vertical translation, in pixels of the canonical frame.
    pub dy: f64,
}

impl Default for ViewParams {
    fn default() -> Self {
        ViewParams {
            angle: 0.0,
            scale: 1.0,
            illumination: 1.0,
            noise_sigma: 0.0,
            dx: 0.0,
            dy: 0.0,
        }
    }
}

impl ViewParams {
    /// Draw a random small perturbation, modelling two nearby users looking
    /// at the same object: up to ±`angle_spread` rad rotation, ±10% scale,
    /// ±15% illumination, and a couple of pixels of translation.
    pub fn jittered(rng: &mut StdRng, angle_spread: f64, noise_sigma: f64) -> Self {
        ViewParams {
            angle: rng.random_range(-angle_spread..=angle_spread),
            scale: rng.random_range(0.9..=1.1),
            illumination: rng.random_range(0.85..=1.15),
            noise_sigma,
            dx: rng.random_range(-2.0..=2.0),
            dy: rng.random_range(-2.0..=2.0),
        }
    }
}

/// Fourier components per class.
const WAVES: usize = 8;

/// Upper end of the spatial-frequency range [`Appearance::for_class`] draws
/// from; the phase bound of [`SceneGenerator::observe`] is derived from it.
const MAX_FREQ: f64 = 1.6;

/// Procedural appearance parameters for one class, derived from its id.
struct Appearance {
    /// Fourier components: (fx, fy, phase, amplitude).
    waves: [(f64, f64, f64, f64); WAVES],
    /// Base brightness.
    base: f64,
}

impl Appearance {
    fn for_class(class: ObjectClass) -> Self {
        // Seed the appearance entirely from the class id so the same class
        // looks the same in every process, run, and node.
        let mut rng = StdRng::seed_from_u64(0xC01C_0000 ^ class.0 as u64);
        // Low spatial frequencies: real-world objects photographed from a
        // couple of metres are dominated by coarse structure, and coarse
        // structure is what survives small viewpoint changes — exactly the
        // invariance the descriptor cache needs.
        let waves = std::array::from_fn(|_| {
            (
                rng.random_range(0.3..MAX_FREQ),
                rng.random_range(0.3..MAX_FREQ),
                rng.random_range(0.0..std::f64::consts::TAU),
                rng.random_range(0.3..1.0),
            )
        });
        Appearance {
            waves,
            base: rng.random_range(90.0..160.0),
        }
    }

    /// Evaluate the canonical pattern at normalized coordinates in [-1, 1].
    /// This expression *defines* every pixel; `observe` reaches it only
    /// through its exactness guard.
    fn eval(&self, u: f64, v: f64) -> f64 {
        let mut acc = self.base;
        for &(fx, fy, phase, amp) in &self.waves {
            acc += amp * 40.0 * (std::f64::consts::PI * (fx * u + fy * v) + phase).sin();
        }
        acc.clamp(0.0, 255.0)
    }
}

/// Half-width of the band around a `.round()` boundary inside which
/// [`SceneGenerator::observe`] does not trust its separable sum and fast
/// noise, and recomputes the pixel through [`Appearance::eval`] and
/// [`box_muller`]. DESIGN.md §3.2 bounds the difference between the two
/// below 1.3e-7 while the view stays inside [`MAX_PHASE`], [`MAX_GAIN`] and
/// [`MAX_SIGMA`]; a uniformly distributed fraction lands in the band 2e-6 of
/// the time, about one pixel in 120 frames of 64 × 64.
const GUARD_EPS: f64 = 1e-6;

/// Largest sinusoid argument (radians, over all pixels and waves, every
/// intermediate included) the error bound behind [`GUARD_EPS`] assumes. A
/// canonical view reaches ≈ 26; scale 0.01 reaches ≈ 2 000.
const MAX_PHASE: f64 = 4096.0;

/// Largest |illumination| that bound assumes.
const MAX_GAIN: f64 = 64.0;

/// Largest noise σ that bound assumes. The fast and exact noise of a pixel
/// differ by at most σ · √(−2 ln 1e-12) · ([`COS_2PI_ERR`] + 4 · 2⁻⁵³), which
/// is below 2e-11 here; beyond four times the intensity range a frame is
/// nothing but noise anyway.
const MAX_SIGMA: f64 = 1024.0;

/// Largest |[`cos_2pi`]`(u) − (τ·u).cos()|` over u in [0, 1) that the bound
/// assumes; the kernel test holds the kernel to it (measured: 6.7e-16).
const COS_2PI_ERR: f64 = 2e-15;

// 7.44 > √(−2 ln 1e-12), the largest Box–Muller radius;
// 2 · f64::EPSILON = 4 · 2⁻⁵³.
const _: () = assert!(MAX_SIGMA * 7.44 * (COS_2PI_ERR + 2.0 * f64::EPSILON) < 2e-11);

/// Generates observations of object classes.
pub struct SceneGenerator {
    side: u32,
}

impl SceneGenerator {
    /// Observations will be `side × side` pixels.
    pub fn new(side: u32) -> Self {
        assert!(side >= 8, "observations smaller than 8px are meaningless");
        SceneGenerator { side }
    }

    /// Render an observation of `class` under `view`, using `rng` only for
    /// the sensor noise (geometry and appearance are deterministic).
    pub fn observe(&self, class: ObjectClass, view: &ViewParams, rng: &mut StdRng) -> Image {
        self.render(class, view, rng, GUARD_EPS).0
    }

    /// [`observe`](Self::observe) with the guard band as a parameter, also
    /// returning how many pixels the guard recomputed (tests force and count
    /// it; the output does not depend on `eps`).
    ///
    /// A pixel is `round(clamp(eval(ru, rv)) · illumination + noise)`, where
    /// (ru, rv) is the pixel mapped to normalized [-1, 1] coords and taken
    /// through the inverse view transform (translate, rotate, scale) to where
    /// in the canonical pattern it looks. Every wave's phase is affine in the
    /// pixel's (x, y), `a·nx + (b·ny + phase)`, so by angle addition its sine
    /// is `sin(a·nx)·cos(b·ny + phase) + cos(a·nx)·sin(b·ny + phase)`: one
    /// `sin_cos` per wave per column and per row, not one `sin` per wave per
    /// pixel. The noise is drawn a row at a time in [`gaussian`]'s order and
    /// then shaped in one branch-free pass through [`cos_2pi`]. Both differ
    /// from the definition in the last bits, so wherever a pixel lands
    /// within `eps` of a rounding boundary it is recomputed through `eval`
    /// and [`box_muller`] on the same uniforms; everywhere else both round to
    /// the same byte.
    fn render(
        &self,
        class: ObjectClass,
        view: &ViewParams,
        rng: &mut StdRng,
        eps: f64,
    ) -> (Image, usize) {
        let app = Appearance::for_class(class);
        let n = self.side as usize;
        let side = self.side as f64;
        let (sin_a, cos_a) = view.angle.sin_cos();
        let coord = |i: usize, shift: f64| (i as f64 + 0.5) / side * 2.0 - 1.0 - shift * 2.0 / side;
        let nx: Vec<f64> = (0..n).map(|x| coord(x, view.dx)).collect();
        let ny: Vec<f64> = (0..n).map(|y| coord(y, view.dy)).collect();
        let pattern_coords = |x: usize, y: usize| {
            (
                (nx[x] * cos_a + ny[y] * sin_a) / view.scale,
                (-nx[x] * sin_a + ny[y] * cos_a) / view.scale,
            )
        };

        // The error bound holds while no sinusoid argument (or intermediate
        // of one) exceeds MAX_PHASE: |ru|, |rv| <= reach. Outside it — or
        // with anything non-finite, which fails the comparison — the band
        // covers everything and every pixel is `eval`'s.
        let span = |c: &[f64]| c[0].abs().max(c[n - 1].abs());
        let reach = (span(&nx) + span(&ny)) / view.scale.abs();
        let max_phase = std::f64::consts::PI * 2.0 * MAX_FREQ * reach + std::f64::consts::TAU;
        let bounded = max_phase <= MAX_PHASE
            && view.illumination.abs() <= MAX_GAIN
            && view.noise_sigma <= MAX_SIGMA;
        let eps = if bounded { eps } else { f64::INFINITY };

        // Wave k lives at [k * n..][..n] of each table; the row tables carry
        // the wave's amplitude.
        let mut sin_x = vec![0.0; WAVES * n];
        let mut cos_x = vec![0.0; WAVES * n];
        let mut sin_y = vec![0.0; WAVES * n];
        let mut cos_y = vec![0.0; WAVES * n];
        let pi_over_scale = std::f64::consts::PI / view.scale;
        for (k, &(fx, fy, phase, amp)) in app.waves.iter().enumerate() {
            let a = pi_over_scale * (fx * cos_a - fy * sin_a);
            let b = pi_over_scale * (fx * sin_a + fy * cos_a);
            let gain = amp * 40.0;
            for i in 0..n {
                (sin_x[k * n + i], cos_x[k * n + i]) = (a * nx[i]).sin_cos();
                let (s, c) = (b * ny[i] + phase).sin_cos();
                (sin_y[k * n + i], cos_y[k * n + i]) = (gain * s, gain * c);
            }
        }

        let mut pixels = Vec::with_capacity(n * n);
        let mut row = vec![0.0; n];
        // A noiseless view adds 0.0, which moves no byte (it only turns a
        // -0.0 into +0.0).
        let sigma = view.noise_sigma;
        let noisy = sigma > 0.0;
        let (mut u1, mut u2, mut noise) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut guarded = 0;
        for y in 0..n {
            row.fill(app.base);
            for k in 0..WAVES {
                let (sy, cy) = (sin_y[k * n + y], cos_y[k * n + y]);
                let columns = sin_x[k * n..][..n].iter().zip(&cos_x[k * n..][..n]);
                for (acc, (&sx, &cx)) in row.iter_mut().zip(columns) {
                    *acc += sx * cy + cx * sy;
                }
            }
            if noisy {
                for (a, b) in u1.iter_mut().zip(&mut u2) {
                    (*a, *b) = uniforms(rng);
                }
                for (z, (&a, &b)) in noise.iter_mut().zip(u1.iter().zip(&u2)) {
                    *z = (-2.0 * a.ln()).sqrt() * cos_2pi(b) * sigma;
                }
            }
            for (x, (&acc, &z)) in row.iter().zip(&noise).enumerate() {
                let val = acc.clamp(0.0, 255.0) * view.illumination + z;
                let mut level = val.round();
                let trusted = (val - level).abs() <= 0.5 - eps;
                if !trusted {
                    guarded += 1;
                    let (ru, rv) = pattern_coords(x, y);
                    let z = if noisy {
                        box_muller(u1[x], u2[x]) * sigma
                    } else {
                        0.0
                    };
                    level = (app.eval(ru, rv) * view.illumination + z).round();
                }
                pixels.push(level.clamp(0.0, 255.0) as u8);
            }
        }
        (Image::from_raw(self.side, self.side, pixels), guarded)
    }

    /// Render the canonical (unperturbed, noise-free) view of a class.
    pub fn canonical(&self, class: ObjectClass) -> Image {
        let mut rng = StdRng::seed_from_u64(0);
        self.observe(class, &ViewParams::default(), &mut rng)
    }
}

/// Standard normal sample via Box–Muller (rand_distr is not a sanctioned
/// dependency). This is the definition of every noise sample. Taken per
/// pixel, its `ln`, `sqrt` and `cos` would be ≈ 70 % of a 64 × 64 frame, so
/// [`SceneGenerator::observe`] draws the same uniforms a row at a time and
/// replaces libm's `cos` with a branch-free kernel under its exactness
/// guard.
pub fn gaussian(rng: &mut StdRng) -> f64 {
    let (u1, u2) = uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`gaussian`] sample consumes, in the order it draws
/// them; `u1` is kept off zero so its logarithm is finite.
fn uniforms(rng: &mut StdRng) -> (f64, f64) {
    (rng.random::<f64>().max(1e-12), rng.random())
}

/// Box–Muller on drawn uniforms: the exact formula behind [`gaussian`].
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `cos(2π·u)` for `u` in [0, 1], without a branch, within [`COS_2PI_ERR`]
/// of `(τ·u).cos()`. libm's `cos` reduces by quadrant through branches that
/// a uniform `u` mispredicts half the time. Here `cos(2πu) = sin(2πs)` with
/// `s = 1/4 − min(u, 1 − u)` in [−1/4, 1/4] (exact for every `u` the
/// generator draws, a multiple of 2⁻⁵³), and `sin(2πs) = s · P(s²)` with P
/// the degree-8 Chebyshev interpolant of `sin(2π√t)/√t` on [0, 1/16]
/// (approximation error 3e-17; the rest is rounding).
fn cos_2pi(u: f64) -> f64 {
    const P: [f64; 9] = [
        std::f64::consts::TAU,
        -41.341702240399755,
        81.60524927607362,
        -76.70585975282492,
        42.058693925428685,
        -15.0946416761179,
        3.8199280942271643,
        -0.7177337921413454,
        0.10089695501646812,
    ];
    let s = 0.25 - u.min(1.0 - u);
    let t = s * s;
    s * P[..8].iter().rev().fold(P[8], |p, &c| p * t + c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    /// The definition `observe` must reproduce byte for byte: `eval` at every
    /// pixel, noise drawn pixel by pixel in row-major order.
    fn observe_reference(
        side: u32,
        class: ObjectClass,
        view: &ViewParams,
        rng: &mut StdRng,
    ) -> Image {
        let app = Appearance::for_class(class);
        let (sin_a, cos_a) = view.angle.sin_cos();
        let side_f = side as f64;
        Image::from_fn(side, side, |x, y| {
            let nx = (x as f64 + 0.5) / side_f * 2.0 - 1.0 - view.dx * 2.0 / side_f;
            let ny = (y as f64 + 0.5) / side_f * 2.0 - 1.0 - view.dy * 2.0 / side_f;
            let ru = (nx * cos_a + ny * sin_a) / view.scale;
            let rv = (-nx * sin_a + ny * cos_a) / view.scale;
            let mut val = app.eval(ru, rv) * view.illumination;
            if view.noise_sigma > 0.0 {
                val += gaussian(rng) * view.noise_sigma;
            }
            val.round().clamp(0.0, 255.0) as u8
        })
    }

    /// Render `case` both ways from the same seed and demand the same pixels
    /// and the same generator state afterwards; returns the guard count.
    fn assert_identical(
        case: &str,
        side: u32,
        class: ObjectClass,
        view: &ViewParams,
        eps: f64,
    ) -> usize {
        let seed = 0x5EED ^ class.0 as u64;
        let (mut fast_rng, mut ref_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (fast, guarded) = SceneGenerator::new(side).render(class, view, &mut fast_rng, eps);
        let oracle = observe_reference(side, class, view, &mut ref_rng);
        if let Some(i) = (0..fast.pixels().len()).find(|&i| fast.pixels()[i] != oracle.pixels()[i])
        {
            panic!(
                "{case}: pixel ({}, {}) is {} but the oracle says {} ({view:?}, side {side})",
                i as u32 % side,
                i as u32 / side,
                fast.pixels()[i],
                oracle.pixels()[i],
            );
        }
        assert_eq!(
            fast_rng.random::<u64>(),
            ref_rng.random::<u64>(),
            "{case}: noise stream left in a different state"
        );
        guarded
    }

    /// The `i`-th seeded (class, jittered view, side, σ) case.
    fn seeded_case(i: u32, views: &mut StdRng) -> (u32, ObjectClass, ViewParams) {
        let side = [8, 32, 64, 96][i as usize % 4];
        let sigma = [0.0, 4.0, 6.0, 0.5, 16.0, 64.0, MAX_SIGMA][i as usize / 4 % 7];
        let view = ViewParams::jittered(views, 0.35, sigma);
        (
            side,
            ObjectClass(i.wrapping_mul(2_654_435_761) % 5_000),
            view,
        )
    }

    #[test]
    fn observe_is_pixel_identical_to_the_per_pixel_oracle() {
        let mut views = rng();
        let (mut hits, mut pixels) = (0, 0);
        for i in 0..360 {
            let (side, class, view) = seeded_case(i, &mut views);
            hits += assert_identical(&format!("case {i}"), side, class, &view, GUARD_EPS);
            pixels += side * side;
        }
        // The band is 2·ε of the unit interval: ≈ 3 pixels expected here.
        println!("guard hits at eps {GUARD_EPS:e}: {hits} of {pixels} pixels");
        assert!(
            hits <= 30,
            "{hits} guard hits: the band is wider than it should be"
        );
    }

    #[test]
    fn extreme_views_match_on_either_side_of_the_phase_bound() {
        use std::f64::consts::PI;
        // A noisy canonical view with one or two fields replaced.
        let view = |edit: fn(&mut ViewParams)| {
            let mut v = ViewParams {
                noise_sigma: 4.0,
                ..ViewParams::default()
            };
            edit(&mut v);
            v
        };
        // (view, whether the whole frame must take the guard's path)
        let cases = [
            (view(|v| v.scale = 0.01), false),
            (view(|v| v.scale = 100.0), false),
            (view(|v| v.angle = PI), false),
            (view(|v| v.angle = -PI), false),
            (view(|v| v.illumination = MAX_GAIN), false),
            (view(|v| v.noise_sigma = MAX_SIGMA), false),
            (
                view(|v| (v.illumination, v.noise_sigma) = (-3.0, 0.0)),
                false,
            ),
            (view(|v| v.dx = 1e6), true),
            (view(|v| (v.dx, v.dy) = (-1e6, 1e6)), true),
            (view(|v| v.scale = 1e-3), true),
            (view(|v| v.scale = 0.0), true),
            (view(|v| v.illumination = 65.0), true),
            (view(|v| v.illumination = f64::NAN), true),
            (view(|v| v.illumination = f64::INFINITY), true),
            (view(|v| v.angle = f64::NAN), true),
            (view(|v| (v.dy, v.noise_sigma) = (f64::NAN, 0.0)), true),
            (view(|v| v.noise_sigma = 2.0 * MAX_SIGMA), true),
            (view(|v| v.noise_sigma = f64::INFINITY), true),
            (view(|v| v.noise_sigma = f64::NAN), true),
        ];
        for (i, (view, whole_frame)) in cases.iter().enumerate() {
            for side in [8, 64] {
                let guarded = assert_identical(
                    &format!("extreme {i}"),
                    side,
                    ObjectClass(i as u32),
                    view,
                    GUARD_EPS,
                );
                assert_eq!(
                    guarded == (side * side) as usize,
                    *whole_frame,
                    "extreme {i} ({view:?}, side {side}): {guarded} pixels guarded"
                );
            }
        }
    }

    #[test]
    fn cos_2pi_stays_within_its_bound() {
        let mut worst = (0.0f64, 0.0);
        let mut check = |u: f64| {
            let err = (cos_2pi(u) - (std::f64::consts::TAU * u).cos()).abs();
            if err > worst.0 {
                worst = (err, u);
            }
        };
        // Every quadrant boundary ± 1 ulp, 0 and 1 − 2⁻⁵³ among them.
        for quarter in [0.0, 0.25, 0.5, 0.75, 1.0f64] {
            for u in [quarter.next_down(), quarter, quarter.next_up()] {
                if (0.0..1.0).contains(&u) {
                    check(u);
                }
            }
        }
        let mut r = rng();
        for _ in 0..1_000_000 {
            check(r.random());
        }
        let (err, u) = worst;
        assert!(err <= COS_2PI_ERR, "cos_2pi({u}) is off by {err:e}");
    }

    #[test]
    fn forced_guard_sends_every_pixel_through_eval() {
        let mut views = rng();
        for i in 0..12 {
            let (side, class, view) = seeded_case(i, &mut views);
            let guarded = assert_identical(&format!("forced {i}"), side, class, &view, 1.0);
            assert_eq!(guarded, (side * side) as usize);
        }
    }

    /// 20 000 frames, ≈ 15 s in release; CI's `experiments` job runs it so
    /// that a flipped pixel is reported by frame and position rather than as
    /// a diff in an `ext_*` table. σ is drawn over [0, `MAX_SIGMA`] as
    /// `MAX_SIGMA · w⁴`: a quarter of the frames below the client's 4, half
    /// below 64.
    #[test]
    #[ignore = "long identity soak; run with --release -- --ignored"]
    fn soak_observe_is_pixel_identical_over_20k_frames() {
        let mut views = rng();
        let mut hits = 0;
        for i in 0..20_000 {
            let (side, class, mut view) = seeded_case(i, &mut views);
            view.noise_sigma = MAX_SIGMA * views.random::<f64>().powi(4);
            hits += assert_identical(&format!("frame {i}"), side, class, &view, GUARD_EPS);
        }
        println!("20000 frames identical, {hits} guard hits");
    }

    #[test]
    fn canonical_views_are_deterministic() {
        let g = SceneGenerator::new(32);
        let a = g.canonical(ObjectClass(7));
        let b = g.canonical(ObjectClass(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_classes_look_different() {
        let g = SceneGenerator::new(32);
        let a = g.canonical(ObjectClass(1));
        let b = g.canonical(ObjectClass(2));
        let diff: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(&p, &q)| (p as f64 - q as f64).abs())
            .sum::<f64>()
            / a.pixels().len() as f64;
        assert!(diff > 10.0, "mean abs pixel diff {diff} too small");
    }

    #[test]
    fn small_perturbation_small_pixel_change() {
        let g = SceneGenerator::new(32);
        let a = g.canonical(ObjectClass(3));
        let view = ViewParams {
            angle: 0.03,
            scale: 1.02,
            illumination: 1.02,
            noise_sigma: 0.0,
            dx: 0.5,
            dy: 0.5,
        };
        let b = g.observe(ObjectClass(3), &view, &mut rng());
        let diff: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(&p, &q)| (p as f64 - q as f64).abs())
            .sum::<f64>()
            / a.pixels().len() as f64;
        // Same object, slightly moved: images stay similar.
        assert!(diff < 20.0, "mean abs pixel diff {diff} too large");
    }

    #[test]
    fn noise_changes_pixels_but_preserves_mean() {
        let g = SceneGenerator::new(32);
        let clean = g.canonical(ObjectClass(4));
        let view = ViewParams {
            noise_sigma: 8.0,
            ..ViewParams::default()
        };
        let noisy = g.observe(ObjectClass(4), &view, &mut rng());
        assert_ne!(clean, noisy);
        assert!((clean.mean() - noisy.mean()).abs() < 3.0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn jittered_views_within_bounds() {
        let mut r = rng();
        for _ in 0..100 {
            let v = ViewParams::jittered(&mut r, 0.1, 4.0);
            assert!(v.angle.abs() <= 0.1);
            assert!((0.9..=1.1).contains(&v.scale));
            assert!((0.85..=1.15).contains(&v.illumination));
            assert_eq!(v.noise_sigma, 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn tiny_generator_rejected() {
        let _ = SceneGenerator::new(4);
    }
}
