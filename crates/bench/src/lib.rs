//! The paper's figures and the extension experiments, one registry.
//!
//! Each module of [`experiments`] regenerates one paper figure or one
//! extension table (see DESIGN.md §5 and EXPERIMENTS.md), and the
//! `coic-bench <name>` binary prints it. This crate also holds what they
//! share: the standard workloads, the recognition [`World`] with its
//! [`serve`] step, and table formatting.

#![forbid(unsafe_code)]

pub mod experiments;

use coic_cache::{AnnFamily, Lookup, SnapshotApproxCache, DEFAULT_REBUILD_BATCH};
use coic_core::simrun::{Mode, SimConfig};
use coic_core::RecognitionResult;
use coic_vision::{
    FeatureVec, Image, ObjectClass, PrototypeClassifier, SceneGenerator, SimNet, ViewParams,
};
use coic_workload::{Population, Request, SafeDrivingAr, VrVideo, ZoneId, ZoneModel};
use rand::rngs::StdRng;
use rand::RngExt;

/// The standard recognition workload behind Fig. 2a and several ablations:
/// co-located safe-driving users over a shared landmark pool.
///
/// Calibration: 4 users, 100 landmarks, Zipf(0.5) — moderate redundancy.
/// This puts the simulated hit ratio near 50%, which lands the peak
/// latency reduction in the neighbourhood the paper reports (52.28%);
/// smaller pools / heavier skew push the reduction well past the paper's
/// numbers (see the `ext_sharing` ablation).
pub fn fig2a_trace(requests: usize, seed: u64) -> Vec<Request> {
    SafeDrivingAr {
        population: Population::colocated(4, ZoneId(0)),
        zones: ZoneModel::new(1, 100, 1.0, 3),
        rate_per_sec: 4.0,
        zipf_s: 0.5,
        total_requests: requests,
    }
    .generate(seed)
}

/// A render-load trace where `users` co-located players repeatedly load a
/// palette of `num_models` models of `size_bytes` each.
pub fn render_trace(
    users: u32,
    num_models: u64,
    size_bytes: u64,
    requests: usize,
    seed: u64,
) -> Vec<Request> {
    let models: Vec<(u64, u64)> = (0..num_models).map(|i| (i, size_bytes)).collect();
    coic_workload::ArenaMultiplayer {
        population: Population::colocated(users, ZoneId(0)),
        models,
        zipf_s: 0.9,
        rate_per_sec: 0.5,
        total_requests: requests,
    }
    .generate(seed)
}

/// The synchronized co-watching panorama trace (experiment Ext D).
pub fn vr_trace(viewers: u32, frames: usize, stagger_ms: u64, seed: u64) -> Vec<Request> {
    VrVideo {
        population: Population::colocated(viewers, ZoneId(0)),
        frame_interval_ns: 100_000_000,
        max_start_skew_frames: 0,
        user_stagger_ns: stagger_ms * 1_000_000,
        frames_per_user: frames,
    }
    .generate(seed)
}

/// The recognition world the service-level experiments share: a scene
/// generator, the embedding network, `classes` objects and a prototype
/// classifier trained on five views of each.
pub struct World {
    pub gen: SceneGenerator,
    pub net: SimNet,
    pub classes: Vec<ObjectClass>,
    pub clf: PrototypeClassifier,
}

impl World {
    /// Objects `0..classes`, the classifier trained on views jittered by
    /// `spread` / `noise` and drawn from `rng`, which the experiment then
    /// goes on to draw its sightings from.
    pub fn train(classes: u32, spread: f64, noise: f64, rng: &mut StdRng) -> World {
        let gen = SceneGenerator::new(64);
        let net = SimNet::default_net();
        let classes: Vec<_> = (0..classes).map(ObjectClass).collect();
        let clf = PrototypeClassifier::train(&net, &gen, &classes, 5, spread, noise, rng);
        World {
            gen,
            net,
            classes,
            clf,
        }
    }

    /// One sighting: an object drawn with popularity skewed toward low
    /// ranks (a squared uniform draw), seen from a view jittered by
    /// `spread` / `noise`.
    pub fn sight(&self, spread: f64, noise: f64, rng: &mut StdRng) -> (ObjectClass, Image) {
        let rank = (rng.random::<f64>().powi(2) * self.classes.len() as f64) as usize;
        let class = self.classes[rank.min(self.classes.len() - 1)];
        let view = ViewParams::jittered(rng, spread, noise);
        (class, self.gen.observe(class, &view, rng))
    }
}

/// A recognition cache searched by linear scan.
pub fn linear_cache(
    bytes: u64,
    threshold: f32,
    dim: usize,
) -> SnapshotApproxCache<RecognitionResult> {
    SnapshotApproxCache::new(
        bytes,
        threshold,
        AnnFamily::Linear,
        dim,
        DEFAULT_REBUILD_BATCH,
    )
}

/// Serve one recognition from `cache`: a hit returns the cached label; a
/// miss runs `recognise` on `key` and caches its answer under `key` at
/// 20 000 bytes. Returns the label and whether it was a hit.
pub fn serve(
    cache: &SnapshotApproxCache<RecognitionResult>,
    key: &FeatureVec,
    now_ns: u64,
    recognise: impl FnOnce(&FeatureVec) -> (ObjectClass, f32),
) -> (u32, bool) {
    if let Lookup::ApproxHit { value, .. } = cache.lookup(key, now_ns) {
        return (value.label, true);
    }
    let (label, distance) = recognise(key);
    let result = RecognitionResult {
        label: label.0,
        distance,
    };
    cache.insert(key.clone(), result, 20_000, now_ns);
    (label.0, false)
}

/// Default experiment config: the paper testbed, 4 clients.
pub fn base_config() -> SimConfig {
    SimConfig {
        mode: Mode::CoIc,
        num_clients: 4,
        ..SimConfig::default()
    }
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "─".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn traces_are_nonempty_and_deterministic() {
        assert_eq!(fig2a_trace(50, 1), fig2a_trace(50, 1));
        assert_eq!(fig2a_trace(50, 1).len(), 50);
        assert_eq!(render_trace(4, 4, 100_000, 32, 2).len(), 32);
        assert_eq!(vr_trace(4, 10, 25, 3).len(), 40);
    }

    #[test]
    fn serve_misses_then_hits_with_the_same_label() {
        let mut rng = StdRng::seed_from_u64(3);
        let world = World::train(4, 0.08, 4.0, &mut rng);
        let (_, img) = world.sight(0.08, 4.0, &mut rng);
        let key = world.net.extract(&img);
        let cache = linear_cache(1 << 20, 0.45, key.dim());
        let (first, hit) = serve(&cache, &key, 0, |d| world.clf.predict(d));
        assert!(!hit, "the first sight of a key misses");
        assert_eq!(cache.len(), 1, "the miss inserts");
        let second = serve(&cache, &key, 1, |_| {
            unreachable!("a hit recognises nothing")
        });
        assert_eq!(second, (first, true));
    }

    #[test]
    fn sightings_are_deterministic_for_a_seed() {
        let world = World::train(8, 0.08, 4.0, &mut StdRng::seed_from_u64(1));
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5)
                .map(|_| world.sight(0.1, 5.0, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
    }
}
