//! Recall parity tests.
//!
//! Drive [`SnapshotApproxCache`] with descriptor sets and query mixes —
//! randomly generated, and one seeded Zipf-skewed cluster stream — and
//! pin each approximate family's *hit ratio* to a linear scan over the
//! same entries. The acceptance band is 0.5%: the snapshot families may
//! satisfice (answer with any in-radius entry instead of the true
//! nearest), but they may not flip hit/miss decisions beyond that band.
//!
//! This is intentionally a *decision* test, not a nearest-neighbour test:
//! the threshold-cache contract in `approx.rs` only cares whether some
//! cached descriptor sits within the radius, so that is what we compare.

use coic_cache::{AnnFamily, SnapshotApproxCache, DEFAULT_REBUILD_BATCH};
use coic_vision::features::FeatureVec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const HIT_RATIO_TOLERANCE: f64 = 0.005;
const DIM: usize = 16;
const THRESHOLD: f32 = 0.3;

fn unit_vec(seed: &[f32]) -> FeatureVec {
    let norm = seed.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    FeatureVec::new(seed.iter().map(|x| x / norm).collect())
}

/// A cluster centre plus a small per-query perturbation, mirroring how
/// real descriptors of the same object differ across frames.
fn perturbed(centre: &[f32], delta: &[f32], scale: f32) -> FeatureVec {
    let v: Vec<f32> = centre
        .iter()
        .zip(delta)
        .map(|(c, d)| c + d * scale)
        .collect();
    unit_vec(&v)
}

fn l2(a: &FeatureVec, b: &FeatureVec) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

fn build_cache(family: AnnFamily, entries: &[FeatureVec]) -> SnapshotApproxCache<u64> {
    let cache = SnapshotApproxCache::new(64 << 20, THRESHOLD, family, DIM, 16);
    for (i, desc) in entries.iter().enumerate() {
        cache.insert(desc.clone(), i as u64, 256, i as u64);
        // Fold mid-stream so queries exercise both the snapshot and the
        // journal suffix, not just a fully-folded index.
        if i % 23 == 11 {
            cache.maintain(i as u64);
        }
    }
    cache
}

fn centre_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, DIM)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For every random corpus + query mix, each snapshot family's hit
    /// ratio stays within 0.5% of the exact linear scan's.
    #[test]
    fn snapshot_families_match_brute_force_hit_ratio(
        centres in prop::collection::vec(centre_strategy(), 4..12),
        deltas in prop::collection::vec(centre_strategy(), 64),
        // Which cluster each stored entry / query belongs to, and how far
        // each query strays from its centre. `stray` spans the threshold
        // so the mix contains both hits and misses.
        entry_picks in prop::collection::vec(0usize..12, 24..96),
        query_picks in prop::collection::vec((0usize..12, 0usize..64, 0.0f32..0.6), 128),
    ) {
        let entries: Vec<FeatureVec> = entry_picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let centre = &centres[pick % centres.len()];
                perturbed(centre, &deltas[i % deltas.len()], 0.05)
            })
            .collect();
        let queries: Vec<FeatureVec> = query_picks
            .iter()
            .map(|&(pick, d, stray)| {
                let centre = &centres[pick % centres.len()];
                perturbed(centre, &deltas[d], stray)
            })
            .collect();

        // Ground truth: brute-force threshold decision per query.
        let exact_hits = queries
            .iter()
            .filter(|q| entries.iter().any(|e| l2(q, e) <= THRESHOLD))
            .count();
        let exact_ratio = exact_hits as f64 / queries.len() as f64;

        for family in [AnnFamily::DEFAULT_MPLSH, AnnFamily::DEFAULT_HNSW] {
            let cache = build_cache(family, &entries);
            let hits = queries
                .iter()
                .enumerate()
                .filter(|(i, q)| cache.lookup(q, 1_000 + *i as u64).is_hit())
                .count();
            let ratio = hits as f64 / queries.len() as f64;
            prop_assert!(
                (ratio - exact_ratio).abs() <= HIT_RATIO_TOLERANCE,
                "{family:?}: hit ratio {ratio:.4} vs exact {exact_ratio:.4} \
                 ({hits} vs {exact_hits} of {} queries)",
                queries.len()
            );
        }
    }
}

/// A descriptor modelling a dense DNN embedding: one deterministic unit
/// direction per cluster plus a small single-coordinate jitter standing in
/// for sensor noise between co-located queries. Random unit directions sit
/// ~√2 apart — far outside the hit threshold — while jitter stays well
/// inside it, so cluster identity decides hit/miss.
fn cluster_descriptor(cluster: usize, jitter: f32) -> FeatureVec {
    let mut rng = StdRng::seed_from_u64(0xDE5C_0000 ^ cluster as u64);
    let direction: Vec<f32> = (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    let mut v = unit_vec(&direction).as_slice().to_vec();
    v[cluster % DIM] += jitter;
    FeatureVec::new(v)
}

/// Every ANN family makes the linear scan's hit/miss decisions on a
/// seeded, skewed query stream over a folded snapshot (~1 in 9 queries
/// targets a cluster that was never cached, so misses are exercised).
#[test]
fn every_family_matches_the_linear_scan_on_a_skewed_stream() {
    const CACHED: usize = 48;
    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<FeatureVec> = (0..800)
        .map(|_| {
            let u: f64 = rng.random();
            let cluster = ((u * u) * (CACHED + CACHED / 8) as f64) as usize;
            cluster_descriptor(cluster, rng.random_range(-0.05f32..0.05))
        })
        .collect();
    let hit_ratio = |family: AnnFamily| {
        let cache: SnapshotApproxCache<u64> =
            SnapshotApproxCache::new(16 << 20, THRESHOLD, family, DIM, DEFAULT_REBUILD_BATCH);
        for i in 0..CACHED {
            cache.insert(cluster_descriptor(i, 0.0), i as u64, 256, 0);
        }
        cache.maintain(0);
        let hits = queries
            .iter()
            .filter(|q| cache.lookup(q, 1).is_hit())
            .count();
        hits as f64 / queries.len() as f64
    };
    let linear = hit_ratio(AnnFamily::Linear);
    assert!(
        linear > 0.5 && linear < 1.0,
        "stream must mostly hit and sometimes miss, got {linear}"
    );
    for family in [AnnFamily::DEFAULT_MPLSH, AnnFamily::DEFAULT_HNSW] {
        let ratio = hit_ratio(family);
        assert!(
            (ratio - linear).abs() <= HIT_RATIO_TOLERANCE,
            "{} hit ratio {ratio} deviates from linear {linear}",
            family.label()
        );
    }
}
