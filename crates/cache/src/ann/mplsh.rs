//! Multi-probe random-hyperplane LSH.
//!
//! Classic random-hyperplane LSH answers a query from the bucket its
//! signature selects in each table; a near-duplicate that flips one
//! low-margin bit lands one bucket over and is missed (or found only by
//! adding more tables). The descriptor-space-*sharded* cache this
//! replaces made that worse: it split every bucket's contents across
//! shards, so a hit had to probe up to N shard indexes and p95 latency
//! tripled (DESIGN.md §14). Multi-probe keeps one
//! bucket array per table and instead *widens the probe set*: after the
//! base bucket, it probes the buckets reached by flipping the query's
//! lowest-|margin| signature bits — exactly the bits most likely to have
//! flipped for a true near neighbour.
//!
//! Determinism: hyperplanes derive from `splitmix64` of a fixed seed
//! (no RNG state), buckets are dense signature-indexed arrays filled in
//! ascending-slot order, candidates dedupe through a slot bitmask, and
//! ties break by id. If every probed bucket is empty, lookup falls back
//! to a full scan rather than reporting a false miss.

use super::{better, canonical_items, mix64, unit_f32, AnnIndex, ProbeStats};
use coic_vision::distance::l2;
use coic_vision::features::FeatureVec;

/// Fixed hyperplane seed: rebuilds of the same family over different
/// entry sets keep identical hash geometry, so probe behavior is stable
/// across snapshot generations.
const PLANE_SEED: u64 = 0xC01C_ABB1_5EED_0001;

/// Cap on how many low-margin bits the perturbation subsets draw from;
/// 2^cap candidate masks are scored per table, so this bounds per-lookup
/// probe-sequence work regardless of the `probes` setting. Four bits give
/// 16 candidate masks — double the default probe budget — while keeping
/// sequence generation a sub-microsecond affair; this matters because the
/// snapshot read path must beat an uncontended mutex on absolute cost,
/// not just on scalability.
const MAX_FLIP_BITS: usize = 4;

/// An immutable multi-probe LSH index (see the module docs).
pub struct MultiProbeLsh {
    dim: usize,
    bits: usize,
    probes: usize,
    /// `planes[t][b]` is the normal of table `t`'s bit-`b` hyperplane.
    planes: Vec<Vec<Vec<f32>>>,
    /// Per table: a dense `2^bits` array, signature → slots into `items`.
    /// Direct indexing keeps a probe at one pointer chase; the `bits`
    /// cap bounds the array to 64Ki buckets per table.
    buckets: Vec<Vec<Vec<u32>>>,
    /// Entries sorted by id; a "slot" is a position in this array.
    items: Vec<(u64, FeatureVec)>,
}

impl MultiProbeLsh {
    /// Build over `items` (sorted internally; ids unique).
    ///
    /// # Panics
    /// Panics if `dim`, `tables`, `bits` or `probes` is zero, `bits > 63`,
    /// or an item's dimensionality disagrees with `dim`.
    pub fn new(
        dim: usize,
        tables: usize,
        bits: usize,
        probes: usize,
        items: Vec<(u64, FeatureVec)>,
    ) -> MultiProbeLsh {
        assert!(
            tables > 0 && bits > 0 && probes > 0,
            "LSH parameters must be positive"
        );
        assert!(bits <= 16, "at most 16 bits per signature");
        let items = canonical_items(dim, items);
        let planes: Vec<Vec<Vec<f32>>> = (0..tables)
            .map(|t| {
                (0..bits)
                    .map(|b| {
                        (0..dim)
                            .map(|d| {
                                unit_f32(PLANE_SEED ^ mix64(((t * bits + b) * dim + d) as u64))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut buckets = vec![vec![Vec::<u32>::new(); 1 << bits]; tables];
        let mut margins = Vec::with_capacity(bits);
        for (slot, (_, v)) in items.iter().enumerate() {
            for (t, table_buckets) in buckets.iter_mut().enumerate() {
                let sig = project(&planes[t], v, &mut margins);
                table_buckets[sig as usize].push(slot as u32);
            }
        }
        MultiProbeLsh {
            dim,
            bits,
            probes,
            planes,
            buckets,
            items,
        }
    }

    /// The probe sequence for one table, written into `scored`:
    /// signatures ordered by perturbation cost (sum of flipped-bit
    /// margins), starting with the base bucket. Buffers are caller-owned
    /// so a multi-table lookup allocates nothing per table.
    fn probe_sequence(
        &self,
        sig: u64,
        margins: &[f32],
        order: &mut Vec<usize>,
        scored: &mut Vec<(f32, u64)>,
    ) {
        // Rank bits by how close the query came to the hyperplane: the
        // lowest-margin bits are the likeliest to differ for a true
        // neighbour, so flipping them first maximizes recall per probe.
        order.clear();
        order.extend(0..self.bits);
        order.sort_unstable_by(|&a, &b| margins[a].total_cmp(&margins[b]).then_with(|| a.cmp(&b)));
        let flip_bits = self.bits.min(MAX_FLIP_BITS);
        let subsets = 1usize << flip_bits;
        scored.clear();
        for mask in 0..subsets {
            let mut cost = 0.0f32;
            let mut flipped = sig;
            for (i, &bit) in order.iter().take(flip_bits).enumerate() {
                if mask & (1 << i) != 0 {
                    cost += margins[bit];
                    flipped ^= 1 << bit;
                }
            }
            scored.push((cost, flipped));
        }
        scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(self.probes);
    }
}

/// Signature of `v` against one table's planes; per-bit |margin|s are
/// written into the caller's reusable `margins` buffer.
fn project(planes: &[Vec<f32>], v: &FeatureVec, margins: &mut Vec<f32>) -> u64 {
    let mut sig = 0u64;
    margins.clear();
    for (b, plane) in planes.iter().enumerate() {
        let s: f32 = plane.iter().zip(v.as_slice()).map(|(p, x)| p * x).sum();
        if s >= 0.0 {
            sig |= 1 << b;
        }
        margins.push(s.abs());
    }
    sig
}

impl AnnIndex for MultiProbeLsh {
    fn nearest(&self, q: &FeatureVec, within: f32, stats: &mut ProbeStats) -> Option<(u64, f32)> {
        if self.items.is_empty() {
            return None;
        }
        assert_eq!(q.dim(), self.dim, "query dim mismatch");
        let mut seen = vec![false; self.items.len()];
        let mut best: Option<(u64, f32)> = None;
        let mut margins = Vec::with_capacity(self.bits);
        let mut order = Vec::with_capacity(self.bits);
        let mut scored = Vec::with_capacity(1 << self.bits.min(MAX_FLIP_BITS));
        // A finite `within` arms the per-table satisficing exit: once a
        // table surfaces a candidate inside the caller's hit
        // radius, later tables can only refine *which* in-radius entry is
        // returned, never the hit/miss decision — so skip them. Infinity
        // must not arm it (every distance is ≤ ∞).
        let satisficed =
            |b: &Option<(u64, f32)>| within.is_finite() && b.is_some_and(|(_, d)| d <= within);
        for (t, table_buckets) in self.buckets.iter().enumerate() {
            if satisficed(&best) {
                break;
            }
            let sig = project(&self.planes[t], q, &mut margins);
            self.probe_sequence(sig, &margins, &mut order, &mut scored);
            for &(_, probe_sig) in scored.iter() {
                stats.buckets += 1;
                for &slot in &table_buckets[probe_sig as usize] {
                    let slot = slot as usize;
                    if seen[slot] {
                        continue;
                    }
                    seen[slot] = true;
                    let (id, v) = &self.items[slot];
                    stats.distance_evals += 1;
                    let d = l2(q, v);
                    if better((*id, d), best) {
                        best = Some((*id, d));
                    }
                }
            }
        }
        if best.is_none() {
            // Every probed bucket was empty — the tables told us
            // nothing. Exact scan rather than a false miss.
            stats.fallback_scans += 1;
            for (id, v) in &self.items {
                stats.distance_evals += 1;
                let d = l2(q, v);
                if better((*id, d), best) {
                    best = Some((*id, d));
                }
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn family(&self) -> &'static str {
        "mp-lsh"
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnnFamily, LinearAnn};
    use super::*;

    fn v(data: &[f32]) -> FeatureVec {
        FeatureVec::new(data.to_vec())
    }

    /// Deterministic clustered unit vectors (cluster centers on mixed
    /// hash directions, members perturbed slightly).
    fn clustered(dim: usize, clusters: usize, per: usize) -> Vec<(u64, FeatureVec)> {
        let mut out = Vec::new();
        let mut id = 0u64;
        for c in 0..clusters {
            let center: Vec<f32> = (0..dim)
                .map(|d| unit_f32(0xBEEF ^ mix64((c * dim + d) as u64)))
                .collect();
            for m in 0..per {
                let vec: Vec<f32> = center
                    .iter()
                    .enumerate()
                    .map(|(d, &x)| x + 0.03 * unit_f32(mix64((id as usize * dim + d + m) as u64)))
                    .collect();
                out.push((id, FeatureVec::new(vec).normalized()));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn finds_stored_vectors_exactly() {
        let items = clustered(16, 6, 8);
        let idx = MultiProbeLsh::new(16, 4, 8, 8, items.clone());
        for (id, vec) in &items {
            let mut stats = ProbeStats::default();
            let (got, d) = idx
                .nearest(vec, f32::INFINITY, &mut stats)
                .expect("index is non-empty");
            assert_eq!(got, *id);
            assert!(d < 1e-6);
        }
    }

    #[test]
    fn agrees_with_linear_on_clustered_queries() {
        let dim = 32;
        let items = clustered(dim, 10, 12);
        let mp = MultiProbeLsh::new(dim, 4, 8, 8, items.clone());
        let lin = LinearAnn::new(dim, items.clone());
        let mut agree = 0;
        let n = items.len();
        for (id, stored) in &items {
            // Perturb the stored vector slightly: the canonical
            // "another user's view of the same object" query.
            let q: Vec<f32> = stored
                .as_slice()
                .iter()
                .enumerate()
                .map(|(d, &x)| x + 0.01 * unit_f32(mix64(*id ^ d as u64)))
                .collect();
            let q = FeatureVec::new(q).normalized();
            let mut s1 = ProbeStats::default();
            let mut s2 = ProbeStats::default();
            let a = mp.nearest(&q, f32::INFINITY, &mut s1).map(|(_, d)| d);
            let b = lin.nearest(&q, f32::INFINITY, &mut s2).map(|(_, d)| d);
            // Compare the *distances* (hit decision), not ids: co-located
            // cluster members can be both acceptable.
            if let (Some(da), Some(db)) = (a, b) {
                if (da - db).abs() < 0.05 {
                    agree += 1;
                }
            }
        }
        assert!(agree * 100 >= n * 95, "recall too low: {agree}/{n}");
    }

    #[test]
    fn probes_fewer_candidates_than_linear() {
        let dim = 32;
        let items = clustered(dim, 16, 16);
        let n = items.len() as u64;
        let idx = MultiProbeLsh::new(dim, 4, 8, 8, items.clone());
        let mut stats = ProbeStats::default();
        let mut lookups = 0u64;
        for (_, q) in items.iter().step_by(7) {
            let _ = idx.nearest(q, f32::INFINITY, &mut stats);
            lookups += 1;
        }
        assert!(
            stats.distance_evals < lookups * n / 2,
            "multi-probe evaluated {} distances over {lookups} lookups on {n} items",
            stats.distance_evals
        );
    }

    #[test]
    fn empty_bucket_falls_back_to_full_scan() {
        // A single stored vector with a query pointing the opposite way:
        // every probed bucket is likely empty, the fallback must find it.
        let idx = MultiProbeLsh::new(4, 1, 8, 2, vec![(7, v(&[1.0, 0.0, 0.0, 0.0]))]);
        let mut stats = ProbeStats::default();
        let (id, _) = idx
            .nearest(&v(&[-1.0, 0.0, 0.0, 0.0]), f32::INFINITY, &mut stats)
            .expect("fallback must find the only entry");
        assert_eq!(id, 7);
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = MultiProbeLsh::new(4, 2, 4, 4, Vec::new());
        let mut stats = ProbeStats::default();
        assert_eq!(idx.nearest(&v(&[0.0; 4]), f32::INFINITY, &mut stats), None);
    }

    #[test]
    fn rebuild_is_deterministic() {
        let items = clustered(16, 4, 8);
        let a = MultiProbeLsh::new(16, 4, 8, 8, items.clone());
        let b = MultiProbeLsh::new(16, 4, 8, 8, items.clone());
        for (_, q) in &items {
            let mut s1 = ProbeStats::default();
            let mut s2 = ProbeStats::default();
            assert_eq!(
                a.nearest(q, f32::INFINITY, &mut s1),
                b.nearest(q, f32::INFINITY, &mut s2)
            );
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn builds_through_family_config() {
        let fam = AnnFamily::MultiProbeLsh {
            tables: 2,
            bits: 4,
            probes: 4,
        };
        let idx = fam.build(4, vec![(1, v(&[1.0, 0.0, 0.0, 0.0]))]);
        assert_eq!(idx.family(), "mp-lsh");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    #[should_panic(expected = "LSH parameters must be positive")]
    fn zero_probes_rejected() {
        let _ = MultiProbeLsh::new(4, 1, 4, 0, Vec::new());
    }
}
