//! **Ext F** — descriptor privacy vs cache utility (paper §4 ongoing work).
//!
//! "We will also study on the security/privacy protection issues in the
//! cooperative system." A shared edge cache leaks information: feature
//! descriptors reveal what a user is looking at, and exact content hashes
//! let the edge link users requesting the same asset. The standard
//! mitigations coarsen or randomize descriptors — at some cost in hit
//! ratio and accuracy:
//!
//! * `quantize` — coarsen descriptor precision (less information per
//!   component, bounded distance distortion),
//! * `perturb` — calibrated Gaussian noise (randomized-response-style:
//!   plausible deniability about the exact view),
//! * `salted_digest` — re-key exact descriptors under a salt; users in
//!   the same trust domain (same salt) still share, others cannot even
//!   test for equality.
//!
//! This experiment quantifies the utility cost of quantization and noise
//! on the recognition cache, and of per-domain salting on the exact cache.

use crate::{linear_cache, serve, World};
use coic_cache::{sha256, Digest};
use coic_vision::{gaussian, FeatureVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

enum Transform {
    None,
    Quantize(u32),
    Noise(f32),
}

impl Transform {
    fn apply(&self, v: &FeatureVec, rng: &mut StdRng) -> FeatureVec {
        match self {
            Transform::None => v.clone(),
            Transform::Quantize(bits) => quantize(v, *bits),
            Transform::Noise(sigma) => perturb(v, *sigma, rng),
        }
    }

    fn label(&self) -> String {
        match self {
            Transform::None => "none".into(),
            Transform::Quantize(bits) => format!("quantize {bits}b"),
            Transform::Noise(sigma) => format!("noise σ={sigma}"),
        }
    }
}

pub fn print() {
    let mut rng = StdRng::seed_from_u64(23);
    let world = World::train(10, 0.08, 4.0, &mut rng);
    let observations: Vec<_> = (0..250).map(|_| world.sight(0.08, 4.0, &mut rng)).collect();

    println!("Ext F — privacy transforms on recognition descriptors\n");
    println!("{:>14} | {:>6} {:>9}", "transform", "hit%", "accuracy");
    crate::rule(34);
    let transforms = [
        Transform::None,
        Transform::Quantize(8),
        Transform::Quantize(4),
        Transform::Quantize(2),
        Transform::Noise(0.02),
        Transform::Noise(0.10),
        Transform::Noise(0.30),
    ];
    for t in &transforms {
        let cache = linear_cache(64 << 20, 0.45, 32);
        let mut trng = StdRng::seed_from_u64(101);
        let mut correct = 0u64;
        for (i, (truth, img)) in observations.iter().enumerate() {
            let descriptor = t.apply(&world.net.extract(img), &mut trng);
            // The cloud recognizes the *clean* embedding (the client uploads
            // the frame on a miss), but the transformed descriptor keys the
            // cache entry.
            let (label, _) = serve(&cache, &descriptor, i as u64, |_| {
                world.clf.predict(&world.net.extract(img))
            });
            if label == truth.0 {
                correct += 1;
            }
        }
        let stats = cache.metrics();
        println!(
            "{:>14} | {:>5.1}% {:>8.1}%",
            t.label(),
            stats.hit_ratio() * 100.0,
            correct as f64 / observations.len() as f64 * 100.0
        );
    }
    crate::rule(34);
    println!("\nsalting exact descriptors (model/panorama hashes):");
    let content = Digest::of(b"shared avatar model");
    let same_a = salted_digest(&content, b"domain-A");
    let same_a2 = salted_digest(&content, b"domain-A");
    let other_b = salted_digest(&content, b"domain-B");
    println!("  same salt  → keys equal: {}", same_a == same_a2);
    println!(
        "  cross salt → keys equal: {}  (sharing blocked across domains)",
        same_a == other_b
    );
    println!("\nModerate quantization (8–4 bits) is nearly free; heavy noise");
    println!("destroys the neighbourhood structure the cache depends on.");
}

/// Quantize each component to `bits` bits over `[-1, 1]`, re-normalizing
/// afterwards. Coarser grids leak less about the exact observation while
/// keeping nearby descriptors nearby.
///
/// # Panics
/// Panics unless `1 <= bits <= 16`.
fn quantize(v: &FeatureVec, bits: u32) -> FeatureVec {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16");
    let levels = (1u32 << bits) as f32;
    let step = 2.0 / levels;
    let q: Vec<f32> = v
        .as_slice()
        .iter()
        .map(|&x| {
            let clamped = x.clamp(-1.0, 1.0);
            // Mid-rise quantizer over [-1, 1].
            let idx = ((clamped + 1.0) / step).floor().min(levels - 1.0);
            -1.0 + (idx + 0.5) * step
        })
        .collect();
    FeatureVec::new(q).normalized()
}

/// Add isotropic Gaussian noise of standard deviation `sigma` per
/// component, then re-normalize. `sigma = 0` is the identity.
fn perturb(v: &FeatureVec, sigma: f32, rng: &mut StdRng) -> FeatureVec {
    if sigma == 0.0 {
        return v.clone();
    }
    let noisy: Vec<f32> = v
        .as_slice()
        .iter()
        .map(|&x| x + gaussian(rng) as f32 * sigma)
        .collect();
    FeatureVec::new(noisy).normalized()
}

/// Re-key an exact content digest under `salt`: `SHA-256(salt || digest)`.
/// Identical salts preserve cache sharing; distinct salts make keys
/// unlinkable across trust domains.
fn salted_digest(digest: &Digest, salt: &[u8]) -> Digest {
    let mut input = Vec::with_capacity(salt.len() + 32);
    input.extend_from_slice(salt);
    input.extend_from_slice(digest.as_bytes());
    Digest(sha256(&input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_vision::distance::l2;
    use rand::SeedableRng;

    fn unit(seed: u64, dim: usize) -> FeatureVec {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        FeatureVec::new((0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()).normalized()
    }

    #[test]
    fn quantize_bounded_distortion() {
        for seed in 0..20 {
            let v = unit(seed, 32);
            let q = quantize(&v, 8);
            assert!(l2(&v, &q) < 0.05, "8-bit quantization moved vector too far");
            let q4 = quantize(&v, 4);
            assert!(l2(&v, &q4) < 0.35);
        }
    }

    #[test]
    fn coarser_quantization_distorts_more() {
        let v = unit(1, 32);
        let d8 = l2(&v, &quantize(&v, 8));
        let d2 = l2(&v, &quantize(&v, 2));
        assert!(d2 > d8);
    }

    #[test]
    fn quantize_is_idempotent() {
        let v = unit(2, 16);
        let q1 = quantize(&v, 6);
        let q2 = quantize(&q1, 6);
        // Re-quantizing a quantized (then normalized) vector stays close.
        assert!(l2(&q1, &q2) < 0.05);
    }

    #[test]
    fn quantize_preserves_neighborhoods() {
        // Two nearby descriptors stay nearby after quantization; two far
        // ones stay far. That is why the cache still works.
        let a = unit(3, 32);
        let near = FeatureVec::new(a.as_slice().iter().map(|&x| x + 0.02).collect()).normalized();
        let far = unit(4, 32);
        let (qa, qn, qf) = (quantize(&a, 6), quantize(&near, 6), quantize(&far, 6));
        assert!(l2(&qa, &qn) < 0.3);
        assert!(l2(&qa, &qf) > 0.8);
    }

    #[test]
    fn perturb_scales_with_sigma() {
        let v = unit(5, 32);
        let mut rng = StdRng::seed_from_u64(7);
        let small = perturb(&v, 0.01, &mut rng);
        let big = perturb(&v, 0.5, &mut rng);
        assert!(l2(&v, &small) < l2(&v, &big));
        assert_eq!(perturb(&v, 0.0, &mut rng), v);
        // Output stays unit-norm.
        assert!((big.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn salted_digests_share_within_domain_only() {
        let d = Digest::of(b"avatar-model");
        let a1 = salted_digest(&d, b"edge-domain-A");
        let a2 = salted_digest(&d, b"edge-domain-A");
        let b = salted_digest(&d, b"edge-domain-B");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, d);
    }

    #[test]
    fn salted_digest_hides_original() {
        // Different content, same salt: still distinct (no collapsing).
        let s = b"salt";
        assert_ne!(
            salted_digest(&Digest::of(b"x"), s),
            salted_digest(&Digest::of(b"y"), s)
        );
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_rejected() {
        let _ = quantize(&unit(0, 4), 0);
    }
}
