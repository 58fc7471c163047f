//! **Ext J** — descriptor-design ablation.
//!
//! The paper uses "the feature vector generated from the input image" as
//! the recognition descriptor without committing to a particular feature
//! family. This ablation compares three extractors behind one cache:
//!
//! * **simnet** — the learned-embedding stand-in (viewpoint-robust),
//! * **hog**    — classical gradient histograms (contrast-robust but
//!   orientation-sensitive),
//! * **pool**   — raw contrast-normalized intensity pooling (cheapest).
//!
//! For each, the threshold is swept to its best operating point and the
//! resulting hit-ratio/accuracy frontier is reported.

use crate::{linear_cache, serve, World};
use coic_vision::{Extractor, HogExtractor, PoolExtractor, SimNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn print() {
    let mut rng = StdRng::seed_from_u64(29);
    let world = World::train(16, 0.08, 4.0, &mut rng);

    // One shared observation stream (Zipf-skewed classes, jittered views).
    let observations: Vec<_> = (0..400).map(|_| world.sight(0.08, 4.0, &mut rng)).collect();

    let extractors: Vec<Box<dyn Extractor>> = vec![
        Box::new(SimNet::default_net()),
        Box::new(HogExtractor::default()),
        Box::new(PoolExtractor::default()),
    ];

    println!("Ext J — descriptor ablation (400 observations, 16 objects)\n");
    println!(
        "{:>7} {:>9} | {:>6} {:>6} {:>9} | {:>7} {:>7}",
        "descr", "threshold", "dim", "hit%", "accuracy", "kMACs", "bytes"
    );
    crate::rule(66);
    for e in &extractors {
        // Sweep thresholds; report the best point by (accuracy ≥ 90%) hit
        // ratio, falling back to max accuracy if none qualifies.
        let mut best: Option<(f32, f64, f64)> = None;
        for t in [0.15f32, 0.25, 0.35, 0.45, 0.55, 0.70, 0.85] {
            let cache = linear_cache(256 << 20, t, e.dim());
            let mut correct = 0u64;
            for (i, (truth, img)) in observations.iter().enumerate() {
                let (label, _) = serve(&cache, &e.extract(img), i as u64, |_| {
                    world.clf.predict(&world.net.extract(img))
                });
                if label == truth.0 {
                    correct += 1;
                }
            }
            let hit = cache.metrics().hit_ratio();
            let acc = correct as f64 / observations.len() as f64;
            let better = match best {
                None => true,
                Some((_, bh, ba)) => {
                    if acc >= 0.90 && ba >= 0.90 {
                        hit > bh
                    } else {
                        acc > ba
                    }
                }
            };
            if better {
                best = Some((t, hit, acc));
            }
        }
        let (t, hit, acc) = best.expect("swept at least one threshold");
        let sample = &observations[0].1;
        println!(
            "{:>7} {:>9.2} | {:>6} {:>5.1}% {:>8.1}% | {:>7} {:>7}",
            e.name(),
            t,
            e.dim(),
            hit * 100.0,
            acc * 100.0,
            e.macs(sample) / 1_000,
            e.dim() * 4 + 16,
        );
    }
    crate::rule(66);
    println!("best threshold per extractor (max hit ratio at ≥90% accuracy)");
    println!("\nViewpoint robustness is what earns hits: rotation scatters HOG");
    println!("descriptors (few hits even at loose thresholds), while the pooled");
    println!("and learned descriptors ride it out. On these smooth synthetic");
    println!("scenes cheap pooling is competitive with the learned embedding —");
    println!("textured real imagery is where projection layers earn their keep.");
}
