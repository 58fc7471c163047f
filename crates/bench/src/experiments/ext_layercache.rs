//! **Ext E** — fine-grained layer-level reuse (paper §4 ongoing work).
//!
//! "Since the current CoIC can only identify coarse-grained IC tasks ...
//! we are exploring the improvement that can efficiently and accurately
//! identify reusable IC workload in fine-grained (e.g., the result of a
//! specific DNN layer)."
//!
//! Here the client runs the DNN only up to layer `k`, ships the layer-`k`
//! activation as the descriptor, and the edge caches final results keyed by
//! that activation. On a miss the cloud *resumes* inference from layer `k`
//! instead of starting over. Lower `k` means less client compute but a less
//! invariant descriptor (lower hit rate); higher `k` approaches the
//! coarse-grained CoIC behaviour.
//!
//! The sweep runs every layer as the key — layer 0 is the cheap pooled
//! front end (client does almost no work, descriptor least invariant), the
//! last layer is classic CoIC (client pays the full descriptor cost, best
//! matching) — and reports the client/cloud compute split, descriptor
//! size, hit ratio and accuracy per layer.

use crate::{linear_cache, World};
use coic_cache::{Lookup, SnapshotApproxCache};
use coic_core::{ComputeConfig, RecognitionResult, ANNOTATION_BYTES};
use coic_vision::{Image, PrototypeClassifier, SimNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn print() {
    let mut rng = StdRng::seed_from_u64(17);
    let world = World::train(24, 0.15, 6.0, &mut rng);

    // The observation stream: co-located users re-sighting a Zipf-ish set
    // of objects under viewpoint jitter.
    let observations: Vec<_> = (0..300).map(|_| world.sight(0.15, 6.0, &mut rng)).collect();

    println!("Ext E — layer-cache sweep (300 observations, 24 objects, wide jitter)\n");
    println!(
        "{:>6} | {:>10} {:>10} {:>7} | {:>6} {:>9}",
        "layer", "client-ms", "cloud-ms", "descr", "hit%", "accuracy"
    );
    crate::rule(60);
    for layer in 0..=world.net.num_layers() {
        let mut lc = LayerCache::new(layer, 0.35, 64 << 20, ComputeConfig::default());
        let mut client_ns = 0u64;
        let mut cloud_ns = 0u64;
        let mut correct = 0u64;
        let mut descr = 0u64;
        let mut hits = 0u64;
        for (i, (truth, img)) in observations.iter().enumerate() {
            let out = lc.process(img, &world.clf, i as u64);
            client_ns += out.client_ns;
            cloud_ns += out.cloud_ns;
            descr = out.descriptor_bytes;
            hits += u64::from(out.hit);
            if out.result.label == truth.0 {
                correct += 1;
            }
        }
        let n = observations.len() as f64;
        println!(
            "{:>6} | {:>7.1} ms {:>7.1} ms {:>5} B | {:>5.1}% {:>8.1}%",
            layer,
            client_ns as f64 / n / 1e6,
            cloud_ns as f64 / n / 1e6,
            descr,
            hits as f64 / n * 100.0,
            correct as f64 / n * 100.0
        );
    }
    crate::rule(60);
    println!("layer 0 = pooled front end … last layer = classic CoIC descriptor");
    println!("\nShipping an earlier layer saves client compute and shifts work to");
    println!("the cloud on misses; the hit ratio (and the compute saved per hit)");
    println!("determines the sweet spot.");
}

/// Per-request outcome of the layer-cache pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LayerOutcome {
    /// Served from the edge cache?
    hit: bool,
    /// The recognition result delivered.
    result: RecognitionResult,
    /// Client-side compute, ns (prefix through layer `k`).
    client_ns: u64,
    /// Cloud-side compute, ns (resume from layer `k`; zero on a hit).
    cloud_ns: u64,
    /// Descriptor size on the wire, bytes.
    descriptor_bytes: u64,
}

/// A CoIC edge cache keyed by the activation of one specific DNN layer.
struct LayerCache {
    net: SimNet,
    cache: SnapshotApproxCache<RecognitionResult>,
    layer: usize,
    compute: ComputeConfig,
}

impl LayerCache {
    /// Cache keyed by layer `layer` (0 = pooled front end, up to
    /// `net.num_layers()` = the final embedding, i.e. classic CoIC),
    /// searched by linear scan.
    ///
    /// # Panics
    /// Panics if `layer` is out of range.
    fn new(layer: usize, threshold: f32, cache_bytes: u64, compute: ComputeConfig) -> Self {
        let net = SimNet::default_net();
        assert!(layer <= net.num_layers(), "layer {layer} out of range");
        let dim = if layer == 0 {
            (net.config().grid * net.config().grid) as usize
        } else {
            net.config().layer_dims[layer - 1]
        };
        LayerCache {
            net,
            cache: linear_cache(cache_bytes, threshold, dim),
            layer,
            compute,
        }
    }

    /// Fraction of total DNN work contained in the prefix through `layer`.
    fn prefix_fraction(&self, image: &Image) -> f64 {
        let total = self.net.total_flops(image) as f64;
        let mut prefix = self.net.pool_flops(image) as f64;
        for l in 0..self.layer {
            prefix += self.net.layer_flops(l) as f64;
        }
        prefix / total
    }

    /// Process one observation end to end.
    ///
    /// The cost model scales the paper-scale DNN (`compute.full_dnn_macs`)
    /// by the prefix/suffix fractions of the SimNet architecture, so the
    /// client/cloud split is architecture-faithful while staying at the
    /// calibrated absolute magnitude.
    fn process(
        &mut self,
        image: &Image,
        classifier: &PrototypeClassifier,
        now_ns: u64,
    ) -> LayerOutcome {
        let acts = self.net.extract_layers(image);
        // Normalize the key so one threshold works across layers.
        let key = acts[self.layer].normalized();
        let frac = self.prefix_fraction(image);
        let client_macs = (self.compute.full_dnn_macs as f64 * frac) as u64;
        let client_ns = self.compute.mobile.time_ns(client_macs);
        let descriptor_bytes = key.byte_size();

        match self.cache.lookup(&key, now_ns) {
            Lookup::ApproxHit { value, .. } => LayerOutcome {
                hit: true,
                result: *value,
                client_ns,
                cloud_ns: 0,
                descriptor_bytes,
            },
            _ => {
                // Cloud resumes from layer k: it received the activation,
                // runs the remaining layers, classifies.
                let embedding = self.net.extract_from_layer(self.layer, &acts[self.layer]);
                let (label, distance) = classifier.predict(&embedding);
                let result = RecognitionResult {
                    label: label.0,
                    distance,
                };
                let suffix_macs = (self.compute.full_dnn_macs as f64 * (1.0 - frac)) as u64;
                let cloud_ns = self.compute.cloud.time_ns(suffix_macs);
                let size = key.byte_size() + ANNOTATION_BYTES;
                self.cache.insert(key, result, size, now_ns);
                LayerOutcome {
                    hit: false,
                    result,
                    client_ns,
                    cloud_ns,
                    descriptor_bytes,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_vision::{ObjectClass, SceneGenerator, ViewParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn classifier(gen: &SceneGenerator) -> PrototypeClassifier {
        let net = SimNet::default_net();
        let classes: Vec<_> = (0..6).map(ObjectClass).collect();
        let mut rng = StdRng::seed_from_u64(5);
        PrototypeClassifier::train(&net, gen, &classes, 5, 0.08, 4.0, &mut rng)
    }

    #[test]
    fn repeat_observation_hits_at_every_layer() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let img = gen.canonical(ObjectClass(2));
        for layer in 0..=SimNet::default_net().num_layers() {
            let mut lc = LayerCache::new(layer, 0.3, 1 << 20, ComputeConfig::default());
            let first = lc.process(&img, &clf, 0);
            assert!(!first.hit, "layer {layer}: first must miss");
            assert_eq!(first.result.label, 2);
            let second = lc.process(&img, &clf, 1);
            assert!(second.hit, "layer {layer}: identical input must hit");
            assert_eq!(second.result, first.result);
        }
    }

    #[test]
    fn client_compute_grows_with_layer() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let img = gen.canonical(ObjectClass(1));
        let cost_at = |layer| {
            let mut lc = LayerCache::new(layer, 0.3, 1 << 20, ComputeConfig::default());
            lc.process(&img, &clf, 0).client_ns
        };
        let max_layer = SimNet::default_net().num_layers();
        for l in 0..max_layer {
            assert!(
                cost_at(l) < cost_at(l + 1),
                "client cost must grow with layer ({l} vs {})",
                l + 1
            );
        }
    }

    #[test]
    fn cloud_resume_cost_shrinks_with_layer() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let img = gen.canonical(ObjectClass(1));
        let cloud_at = |layer| {
            let mut lc = LayerCache::new(layer, 0.3, 1 << 20, ComputeConfig::default());
            lc.process(&img, &clf, 0).cloud_ns
        };
        let max_layer = SimNet::default_net().num_layers();
        assert!(cloud_at(0) > cloud_at(max_layer));
    }

    #[test]
    fn resumed_inference_matches_full_inference() {
        // Correctness of the split computation: the label via resume equals
        // the label of a full pass.
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let net = SimNet::default_net();
        let mut rng = StdRng::seed_from_u64(9);
        for c in 0..6 {
            let v = ViewParams::jittered(&mut rng, 0.05, 2.0);
            let img = gen.observe(ObjectClass(c), &v, &mut rng);
            let full = clf.predict(&net.extract(&img)).0;
            let mut lc = LayerCache::new(1, 0.3, 1 << 20, ComputeConfig::default());
            let out = lc.process(&img, &clf, 0);
            assert_eq!(out.result.label, full.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_layer_rejected() {
        let _ = LayerCache::new(99, 0.3, 1024, ComputeConfig::default());
    }
}
