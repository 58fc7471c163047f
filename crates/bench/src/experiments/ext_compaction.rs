//! **Ext N** — recognition-cache compaction.
//!
//! When the edge runs a *tight* similarity threshold (e.g. after the
//! adaptive controller clamps down during a hard phase), co-located users
//! pack the cache with near-duplicate descriptors. If the threshold later
//! relaxes, that redundancy stays — every stop-sign sighting is cached
//! five times. Compaction merges entries whose descriptors sit within a
//! merge radius and whose labels agree. This experiment fills a cache at
//! a tight threshold (0.15), operates it at the default (0.45), compacts
//! at several radii, and measures space reclaimed vs hit ratio retained.

use crate::{linear_cache, serve, World};
use coic_cache::SnapshotApproxCache;
use coic_core::RecognitionResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FILL_THRESHOLD: f32 = 0.15;
const OPERATING_THRESHOLD: f32 = 0.45;

fn fill(cache: &SnapshotApproxCache<RecognitionResult>, world: &World) {
    let mut rng = StdRng::seed_from_u64(61);
    for i in 0..600 {
        let (_, img) = world.sight(0.08, 4.0, &mut rng);
        serve(cache, &world.net.extract(&img), i, |d| world.clf.predict(d));
    }
}

fn probe_hit_ratio(cache: &SnapshotApproxCache<RecognitionResult>, world: &World) -> f64 {
    let mut rng = StdRng::seed_from_u64(62);
    let mut hits = 0;
    let n = 300;
    for i in 0..n {
        let (_, img) = world.sight(0.08, 4.0, &mut rng);
        if cache.lookup(&world.net.extract(&img), 10_000 + i).is_hit() {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

pub fn print() {
    let world = World::train(10, 0.08, 4.0, &mut StdRng::seed_from_u64(60));

    println!("Ext N — cache compaction (600-request fill at threshold 0.15,");
    println!("operated at 0.45; 10 objects)\n");
    println!(
        "{:>13} | {:>8} {:>9} | {:>10} | {:>6}",
        "merge radius", "entries", "bytes", "reclaimed", "hit%"
    );
    crate::rule(56);
    for radius in [0.0f32, 0.10, 0.20, 0.30, 0.40] {
        let cache = linear_cache(256 << 20, FILL_THRESHOLD, 32);
        fill(&cache, &world);
        cache.set_threshold(OPERATING_THRESHOLD);
        let before = cache.used_bytes();
        if radius > 0.0 {
            cache.compact_with(radius, |a, b| a.label == b.label, 10_000);
        }
        let hit = probe_hit_ratio(&cache, &world);
        println!(
            "{:>13} | {:>8} {:>8}k | {:>9.1}% | {:>5.1}%",
            if radius == 0.0 {
                "none".to_string()
            } else {
                format!("{radius:.2}")
            },
            cache.len(),
            cache.used_bytes() / 1000,
            (before - cache.used_bytes()) as f64 / before as f64 * 100.0,
            hit * 100.0,
        );
    }
    crate::rule(56);
    println!("Merging same-label entries within a modest radius reclaims a large");
    println!("share of the cache while the probe hit ratio barely moves; past");
    println!("~threshold/2 the survivors' coverage starts to erode.");
}
