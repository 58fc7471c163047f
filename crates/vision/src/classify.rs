//! Prototype (nearest-centroid) classifier over SimNet embeddings.
//!
//! This plays the role of the paper's cloud-side recognition model: given a
//! feature vector, produce a label (the "annotation" the AR app renders).
//! It also measures recognition *accuracy*, which the threshold-sweep
//! extension experiment trades off against cache hit rate.

use crate::distance::l2;
use crate::features::{FeatureVec, SimNet};
use crate::scene::{ObjectClass, SceneGenerator, ViewParams};
use rand::rngs::StdRng;

/// A trained nearest-centroid classifier.
pub struct PrototypeClassifier {
    centroids: Vec<(ObjectClass, FeatureVec)>,
}

impl PrototypeClassifier {
    /// Train one centroid per class from `samples_per_class` jittered
    /// observations each, rendered on every available processor. The
    /// centroids, and the caller's `rng` afterwards, are bit-identical to a
    /// one-thread loop that draws and renders each view in turn.
    #[allow(clippy::too_many_arguments)] // experiment knobs read clearest flat
    pub fn train(
        net: &SimNet,
        gen: &SceneGenerator,
        classes: &[ObjectClass],
        samples_per_class: usize,
        angle_spread: f64,
        noise_sigma: f64,
        rng: &mut StdRng,
    ) -> Self {
        // Asking reads the cgroup files (≈ 12 µs); with fewer than two
        // classes there is nothing to split.
        let workers = if classes.len() < 2 {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let knobs = (samples_per_class, angle_spread, noise_sigma);
        Self::train_with(net, gen, classes, knobs, rng, workers)
    }

    /// [`train`](Self::train) on at most `workers` threads. Each trains a
    /// contiguous run of classes with the one-thread loop, from a clone of
    /// `rng` taken where the run starts; this thread finds each start by
    /// drawing the views before it and skipping their noise, and trains the
    /// last run itself, so `rng` ends where the loop leaves it.
    fn train_with(
        net: &SimNet,
        gen: &SceneGenerator,
        classes: &[ObjectClass],
        (samples_per_class, angle_spread, noise_sigma): (usize, f64, f64),
        rng: &mut StdRng,
        workers: usize,
    ) -> Self {
        assert!(samples_per_class > 0, "need at least one training sample");
        let train_run = |classes: &[ObjectClass], rng: &mut StdRng| -> Vec<_> {
            let centroid = |&class: &ObjectClass| {
                let mut acc = vec![0.0f32; net.embedding_dim()];
                for _ in 0..samples_per_class {
                    let view = ViewParams::jittered(rng, angle_spread, noise_sigma);
                    let e = net.extract(&gen.observe(class, &view, rng));
                    for (a, x) in acc.iter_mut().zip(e.as_slice()) {
                        *a += x;
                    }
                }
                let mean = acc.into_iter().map(|x| x / samples_per_class as f32);
                (class, FeatureVec::new(mean.collect()).normalized())
            };
            classes.iter().map(centroid).collect()
        };
        let (runs, last) = runs(classes, workers);
        let centroids = std::thread::scope(|s| {
            let train_run = &train_run;
            let spawned: Vec<_> = runs
                .iter()
                .map(|&run| {
                    let mut start = rng.clone();
                    let handle = s.spawn(move || train_run(run, &mut start));
                    for _ in 0..run.len() * samples_per_class {
                        let view = ViewParams::jittered(rng, angle_spread, noise_sigma);
                        gen.skip_noise(&view, rng);
                    }
                    handle
                })
                .collect();
            let last = train_run(last, rng);
            let joined = spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            joined.flatten().chain(last).collect()
        });
        PrototypeClassifier { centroids }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Predict the class of an embedding, returning the label and the
    /// distance to its centroid.
    ///
    /// # Panics
    /// Panics if the classifier has no classes.
    pub fn predict(&self, embedding: &FeatureVec) -> (ObjectClass, f32) {
        assert!(!self.centroids.is_empty(), "classifier has no classes");
        let mut best = (self.centroids[0].0, f32::INFINITY);
        for (class, centroid) in &self.centroids {
            let d = l2(embedding, centroid);
            if d < best.1 {
                best = (*class, d);
            }
        }
        best
    }
}

/// `classes` split into contiguous runs for at most `workers` threads: the
/// runs a worker thread trains, and the last run, which the calling thread
/// trains itself.
fn runs(classes: &[ObjectClass], workers: usize) -> (Vec<&[ObjectClass]>, &[ObjectClass]) {
    let run_len = classes.len().div_ceil(workers.max(1)).max(1);
    let mut runs: Vec<&[ObjectClass]> = classes.chunks(run_len).collect();
    let last = runs.pop().unwrap_or_default();
    (runs, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn setup() -> (SimNet, SceneGenerator, Vec<ObjectClass>, StdRng) {
        let net = SimNet::default_net();
        let gen = SceneGenerator::new(64);
        let classes: Vec<_> = (0..10).map(ObjectClass).collect();
        (net, gen, classes, StdRng::seed_from_u64(21))
    }

    /// The one-thread loop `train` must reproduce bit for bit: draw a view,
    /// render it from the caller's generator, add its embedding.
    fn train_reference(
        (net, gen, classes): (&SimNet, &SceneGenerator, &[ObjectClass]),
        samples_per_class: usize,
        angle_spread: f64,
        noise_sigma: f64,
        rng: &mut StdRng,
    ) -> PrototypeClassifier {
        let mut centroids = Vec::with_capacity(classes.len());
        for &class in classes {
            let mut acc = vec![0.0f32; net.embedding_dim()];
            for _ in 0..samples_per_class {
                let view = ViewParams::jittered(rng, angle_spread, noise_sigma);
                let e = net.extract(&gen.observe(class, &view, rng));
                for (a, x) in acc.iter_mut().zip(e.as_slice()) {
                    *a += x;
                }
            }
            let mean = acc.into_iter().map(|x| x / samples_per_class as f32);
            centroids.push((class, FeatureVec::new(mean.collect()).normalized()));
        }
        PrototypeClassifier { centroids }
    }

    /// Train `classes` from `seed` on each worker count and demand the
    /// reference's centroids, bit for bit, and its final generator state.
    fn assert_trains_identically(
        (net, gen, classes): (&SimNet, &SceneGenerator, &[ObjectClass]),
        samples_per_class: usize,
        seed: u64,
        workers: &[usize],
    ) {
        let bits = |clf: &PrototypeClassifier| -> Vec<(ObjectClass, Vec<u32>)> {
            let bits = |c: &FeatureVec| c.as_slice().iter().map(|x| x.to_bits()).collect();
            clf.centroids.iter().map(|(k, c)| (*k, bits(c))).collect()
        };
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let world = (net, gen, classes);
        let reference = train_reference(world, samples_per_class, 0.08, 4.0, &mut ref_rng);
        let next = ref_rng.random::<u64>();
        for &w in workers {
            let case = format!(
                "seed {seed}, {} classes × {samples_per_class}, {w} workers",
                classes.len()
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let knobs = (samples_per_class, 0.08, 4.0);
            let clf = PrototypeClassifier::train_with(net, gen, classes, knobs, &mut rng, w);
            assert_eq!(bits(&clf), bits(&reference), "{case}: centroids differ");
            assert_eq!(
                rng.random::<u64>(),
                next,
                "{case}: generator left elsewhere"
            );
        }
    }

    #[test]
    fn training_is_bit_identical_to_the_one_thread_loop_for_any_worker_count() {
        let net = SimNet::default_net();
        let gen = SceneGenerator::new(32);
        let class_sets: [Vec<ObjectClass>; 4] = [
            vec![],
            vec![ObjectClass(7)],
            (0..3).map(ObjectClass).collect(),
            [40, 2, 911, 5, 13, 77, 3, 600].map(ObjectClass).to_vec(),
        ];
        for seed in [1, 0xC0FFEE] {
            for classes in &class_sets {
                for samples in [1, 5, 7] {
                    assert_trains_identically((&net, &gen, classes), samples, seed, &[1, 2, 3, 8]);
                }
            }
        }
    }

    #[test]
    fn fewer_than_two_classes_spawn_no_worker() {
        let net = SimNet::default_net();
        let gen = SceneGenerator::new(32);
        for classes in [vec![], vec![ObjectClass(7)]] {
            for workers in [1, 2, 8] {
                assert!(runs(&classes, workers).0.is_empty(), "{classes:?} spawned");
            }
            for seed in [1, 0xC0FFEE] {
                let mut ref_rng = StdRng::seed_from_u64(seed);
                let world = (&net, &gen, &classes[..]);
                let reference = train_reference(world, 3, 0.08, 4.0, &mut ref_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let clf = PrototypeClassifier::train(&net, &gen, &classes, 3, 0.08, 4.0, &mut rng);
                assert_eq!(clf.centroids, reference.centroids, "{classes:?}");
                assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>(), "{classes:?}");
            }
        }
    }

    /// 200 seeds × 20 classes × 5 samples on 1–4 and 8 workers, ≈ 7 s in
    /// release; CI's identity soak runs it.
    #[test]
    #[ignore = "long identity soak; run with --release -- --ignored"]
    fn soak_training_is_bit_identical_over_200_seeds() {
        let net = SimNet::default_net();
        let gen = SceneGenerator::new(64);
        for seed in 0..200u64 {
            let classes: Vec<_> = (0..20)
                .map(|i| ObjectClass((seed as u32) * 20 + i))
                .collect();
            let workers = [1, 2, 3, 4, 8][seed as usize % 5];
            assert_trains_identically((&net, &gen, &classes), 5, seed, &[workers]);
        }
        println!("200 seeds trained identically");
    }

    /// Top-1 accuracy over ten fresh observations per class.
    fn accuracy(
        clf: &PrototypeClassifier,
        (net, gen, classes): (&SimNet, &SceneGenerator, &[ObjectClass]),
        angle_spread: f64,
        noise_sigma: f64,
        rng: &mut StdRng,
    ) -> f64 {
        let mut correct = 0u64;
        let mut total = 0u64;
        for &class in classes {
            for _ in 0..10 {
                let view = ViewParams::jittered(rng, angle_spread, noise_sigma);
                let e = net.extract(&gen.observe(class, &view, rng));
                if clf.predict(&e).0 == class {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn high_accuracy_under_mild_perturbation() {
        let (net, gen, classes, mut rng) = setup();
        let clf = PrototypeClassifier::train(&net, &gen, &classes, 5, 0.08, 4.0, &mut rng);
        let acc = accuracy(&clf, (&net, &gen, &classes), 0.08, 4.0, &mut rng);
        assert!(acc > 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn accuracy_degrades_with_heavy_perturbation() {
        let (net, gen, classes, mut rng) = setup();
        let clf = PrototypeClassifier::train(&net, &gen, &classes, 5, 0.08, 4.0, &mut rng);
        let mild = accuracy(&clf, (&net, &gen, &classes), 0.05, 2.0, &mut rng);
        let harsh = accuracy(&clf, (&net, &gen, &classes), 0.8, 60.0, &mut rng);
        assert!(
            mild >= harsh,
            "mild {mild} should be at least as accurate as harsh {harsh}"
        );
    }

    #[test]
    fn predict_returns_training_class_on_canonical_view() {
        let (net, gen, classes, mut rng) = setup();
        let clf = PrototypeClassifier::train(&net, &gen, &classes, 5, 0.08, 4.0, &mut rng);
        for &c in &classes {
            let e = net.extract(&gen.canonical(c));
            assert_eq!(clf.predict(&e).0, c);
        }
    }

    #[test]
    #[should_panic(expected = "no classes")]
    fn empty_classifier_panics() {
        let clf = PrototypeClassifier { centroids: vec![] };
        let _ = clf.predict(&FeatureVec::new(vec![0.0]));
    }
}
