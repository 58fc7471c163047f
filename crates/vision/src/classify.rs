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
    /// observations each.
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
        assert!(samples_per_class > 0, "need at least one training sample");
        let mut centroids = Vec::with_capacity(classes.len());
        for &class in classes {
            let dim = net.embedding_dim();
            let mut acc = vec![0.0f32; dim];
            for _ in 0..samples_per_class {
                let view = ViewParams::jittered(rng, angle_spread, noise_sigma);
                let e = net.extract(&gen.observe(class, &view, rng));
                for (a, x) in acc.iter_mut().zip(e.as_slice()) {
                    *a += x;
                }
            }
            let centroid = FeatureVec::new(
                acc.into_iter()
                    .map(|x| x / samples_per_class as f32)
                    .collect(),
            )
            .normalized();
            centroids.push((class, centroid));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SimNet, SceneGenerator, Vec<ObjectClass>, StdRng) {
        let net = SimNet::default_net();
        let gen = SceneGenerator::new(64);
        let classes: Vec<_> = (0..10).map(ObjectClass).collect();
        (net, gen, classes, StdRng::seed_from_u64(21))
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
