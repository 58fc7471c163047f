//! HNSW-style layered proximity graph.
//!
//! A hierarchical navigable-small-world graph: every entry lives at
//! level 0; a geometrically-thinning subset also appears on higher
//! levels, which act as express lanes. A lookup greedily descends from
//! the top-level entry point, then runs a bounded best-first beam
//! (`ef_search`) on the dense level-0 graph.
//!
//! The usual HNSW ingredient this build *omits* is randomness: the level
//! of a node is a deterministic function of its id (FNV hash, geometric
//! with p = 1/4), and the graph is built by inserting slots in ascending
//! id order, so rebuilding the same entry set always yields the same
//! graph — which the snapshot rebuild path and the sim's determinism
//! guarantees require. Ties everywhere break by slot (= ascending id).

use super::{better, canonical_items, AnnIndex, ProbeStats};
use crate::digest::fnv1a64;
use coic_vision::distance::l2;
use coic_vision::features::FeatureVec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Hard cap on graph levels (a geometric(1/4) level beyond this has
/// probability < 4^-12; the cap just bounds the `links` allocation).
const MAX_LEVEL: usize = 12;

/// Salt for the level hash so levels decorrelate from other id-keyed
/// hashes in the tree.
const LEVEL_SALT: u64 = 0xC01C_4E5F_0000_0002;

/// Total-ordered f32 distance for heap use (`total_cmp` semantics).
#[derive(PartialEq, Clone, Copy)]
struct D(f32);

impl Eq for D {}

impl PartialOrd for D {
    fn partial_cmp(&self, other: &D) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for D {
    fn cmp(&self, other: &D) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Deterministic level for an id: geometric with p = 1/4.
fn level_of(id: u64) -> usize {
    let mut h = fnv1a64(&(id ^ LEVEL_SALT).to_le_bytes());
    let mut lvl = 0;
    while h & 3 == 3 && lvl < MAX_LEVEL {
        lvl += 1;
        h >>= 2;
    }
    lvl
}

/// An immutable HNSW-style index (see the module docs).
pub struct HnswIndex {
    dim: usize,
    max_links: usize,
    ef_search: usize,
    /// Entries sorted by id; a "slot" is a position in this array.
    items: Vec<(u64, FeatureVec)>,
    /// `links[level][slot]` → neighbour slots (empty above a node's level).
    links: Vec<Vec<Vec<u32>>>,
    /// Slot of the top-level entry point (0 when empty).
    entry: u32,
    /// Highest level any node reached.
    top_level: usize,
}

impl HnswIndex {
    /// Build over `items` (sorted internally; ids unique).
    ///
    /// # Panics
    /// Panics if `dim`, `max_links` or `ef_search` is zero, or an item's
    /// dimensionality disagrees with `dim`.
    pub fn new(
        dim: usize,
        max_links: usize,
        ef_search: usize,
        items: Vec<(u64, FeatureVec)>,
    ) -> HnswIndex {
        assert!(
            max_links > 0 && ef_search > 0,
            "HNSW parameters must be positive"
        );
        let items = canonical_items(dim, items);
        let n = items.len();
        let levels: Vec<usize> = items.iter().map(|(id, _)| level_of(*id)).collect();
        let top = levels.iter().copied().max().unwrap_or(0);
        let mut index = HnswIndex {
            dim,
            max_links,
            ef_search,
            items,
            links: (0..=top).map(|_| vec![Vec::new(); n]).collect(),
            entry: 0,
            top_level: 0,
        };
        // Insert in ascending-slot (= ascending-id) order: determinism.
        let ef_build = ef_search.max(2 * max_links).max(16);
        let mut build_stats = ProbeStats::default();
        let mut first = true;
        for (slot, &lvl) in levels.iter().enumerate() {
            if first {
                index.entry = slot as u32;
                index.top_level = lvl;
                first = false;
                continue;
            }
            index.insert_node(slot as u32, lvl, ef_build, &mut build_stats);
            if lvl > index.top_level {
                index.top_level = lvl;
                index.entry = slot as u32;
            }
        }
        index
    }

    /// Max neighbours per node at a level (level 0 keeps twice as many —
    /// the standard M0 = 2M rule).
    fn max_conn(&self, level: usize) -> usize {
        if level == 0 {
            self.max_links * 2
        } else {
            self.max_links
        }
    }

    fn dist(&self, q: &FeatureVec, slot: u32, stats: &mut ProbeStats) -> f32 {
        stats.distance_evals += 1;
        l2(q, &self.items[slot as usize].1)
    }

    /// Greedy closest-neighbour walk on one level, starting at `ep`.
    fn greedy(
        &self,
        q: &FeatureVec,
        mut ep: u32,
        mut ep_d: f32,
        level: usize,
        stats: &mut ProbeStats,
    ) -> (u32, f32) {
        loop {
            let mut improved = false;
            stats.buckets += 1;
            for &nb in &self.links[level][ep as usize] {
                let d = self.dist(q, nb, stats);
                if d < ep_d || (d == ep_d && nb < ep) {
                    ep = nb;
                    ep_d = d;
                    improved = true;
                }
            }
            if !improved {
                return (ep, ep_d);
            }
        }
    }

    /// Bounded best-first beam on one level; returns up to `ef`
    /// candidates sorted ascending by (distance, slot).
    ///
    /// `stop_at` is the satisficing radius: the first node found at or
    /// under it is returned alone, immediately — for a threshold cache
    /// any in-radius entry is a valid hit, so the beam needn't prove it
    /// found the nearest one. Pass `f32::NEG_INFINITY` to disable (no
    /// distance is below it).
    #[allow(clippy::too_many_arguments)]
    fn search_layer(
        &self,
        q: &FeatureVec,
        ep: u32,
        ep_d: f32,
        ef: usize,
        level: usize,
        stop_at: f32,
        visited: &mut [bool],
        stats: &mut ProbeStats,
    ) -> Vec<(f32, u32)> {
        let mut candidates: BinaryHeap<Reverse<(D, u32)>> = BinaryHeap::new();
        let mut results: BinaryHeap<(D, u32)> = BinaryHeap::new();
        visited[ep as usize] = true;
        candidates.push(Reverse((D(ep_d), ep)));
        results.push((D(ep_d), ep));
        if ep_d <= stop_at {
            return vec![(ep_d, ep)];
        }
        while let Some(Reverse((D(cd), c))) = candidates.pop() {
            if let Some(&(D(worst), _)) = results.peek() {
                if results.len() >= ef && cd > worst {
                    break;
                }
            }
            stats.buckets += 1;
            for &nb in &self.links[level][c as usize] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = self.dist(q, nb, stats);
                let keep = match results.peek() {
                    Some(&(D(worst), _)) => results.len() < ef || d < worst,
                    None => true,
                };
                if d <= stop_at {
                    return vec![(d, nb)];
                }
                if keep {
                    candidates.push(Reverse((D(d), nb)));
                    results.push((D(d), nb));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<(f32, u32)> = results.into_iter().map(|(D(d), s)| (d, s)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// Build-time insertion of one node at `lvl`.
    fn insert_node(&mut self, slot: u32, lvl: usize, ef_build: usize, stats: &mut ProbeStats) {
        let q = self.items[slot as usize].1.clone();
        let mut ep = self.entry;
        let mut ep_d = self.dist(&q, ep, stats);
        // Express descent through levels above the new node's.
        for level in (lvl + 1..=self.top_level).rev() {
            let (e, d) = self.greedy(&q, ep, ep_d, level, stats);
            ep = e;
            ep_d = d;
        }
        // Link on every level the node occupies.
        for level in (0..=lvl.min(self.top_level)).rev() {
            let mut visited = vec![false; self.items.len()];
            let found = self.search_layer(
                &q,
                ep,
                ep_d,
                ef_build,
                level,
                f32::NEG_INFINITY,
                &mut visited,
                stats,
            );
            let cap = self.max_conn(level);
            let neighbours = self.select_neighbours(&found, cap, stats);
            self.links[level][slot as usize] = neighbours.clone();
            for nb in neighbours {
                self.links[level][nb as usize].push(slot);
                if self.links[level][nb as usize].len() > cap {
                    self.prune(nb, level, stats);
                }
            }
            if let Some(&(d, s)) = found.first() {
                ep = s;
                ep_d = d;
            }
        }
    }

    /// Heuristic neighbour selection (the HNSW paper's Algorithm 4):
    /// walk candidates in ascending distance and keep one only if it is
    /// closer to the query node than to every neighbour already kept,
    /// then backfill with the nearest rejects up to `cap`.
    ///
    /// Pure closest-`cap` selection wires a node exclusively into its own
    /// descriptor cluster; with no bridges between clusters the greedy
    /// beam cannot cross them and recall collapses on exactly the
    /// clustered near-duplicate streams the edge cache serves. Diversity
    /// selection keeps inter-cluster edges.
    fn select_neighbours(
        &self,
        found: &[(f32, u32)],
        cap: usize,
        stats: &mut ProbeStats,
    ) -> Vec<u32> {
        let mut kept: Vec<(f32, u32)> = Vec::with_capacity(cap);
        let mut rejected: Vec<u32> = Vec::new();
        for &(d, c) in found {
            if kept.len() >= cap {
                break;
            }
            let diverse = kept.iter().all(|&(_, k)| {
                let between = l2(&self.items[c as usize].1, &self.items[k as usize].1);
                stats.distance_evals += 1;
                between > d
            });
            if diverse {
                kept.push((d, c));
            } else {
                rejected.push(c);
            }
        }
        let mut out: Vec<u32> = kept.into_iter().map(|(_, s)| s).collect();
        // Backfill with the closest rejects: dropping them entirely can
        // leave near-duplicate nodes under-linked.
        for c in rejected {
            if out.len() >= cap {
                break;
            }
            out.push(c);
        }
        out
    }

    /// Trim a node's neighbour list back to the cap with the same
    /// diversity heuristic used at insert time (ties by slot —
    /// deterministic).
    fn prune(&mut self, slot: u32, level: usize, stats: &mut ProbeStats) {
        let center = self.items[slot as usize].1.clone();
        let mut scored: Vec<(f32, u32)> = self.links[level][slot as usize]
            .iter()
            .map(|&nb| (self.dist(&center, nb, stats), nb))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        self.links[level][slot as usize] =
            self.select_neighbours(&scored, self.max_conn(level), stats);
    }
}

impl AnnIndex for HnswIndex {
    fn nearest(&self, q: &FeatureVec, within: f32, stats: &mut ProbeStats) -> Option<(u64, f32)> {
        if self.items.is_empty() {
            return None;
        }
        assert_eq!(q.dim(), self.dim, "query dim mismatch");
        let mut ep = self.entry;
        let mut ep_d = self.dist(q, ep, stats);
        for level in (1..=self.top_level).rev() {
            let (e, d) = self.greedy(q, ep, ep_d, level, stats);
            ep = e;
            ep_d = d;
        }
        // A finite `within` arms the satisficing early exit; infinity
        // must not (every distance is ≤ ∞, which would stop the beam at
        // the first node and ruin the unbounded-nearest answer).
        let stop_at = if within.is_finite() {
            within
        } else {
            f32::NEG_INFINITY
        };
        let mut visited = vec![false; self.items.len()];
        let found = self.search_layer(q, ep, ep_d, self.ef_search, 0, stop_at, &mut visited, stats);
        // `found` ascends by (distance, slot) and slots ascend by id, so
        // its first entry is the best with smallest-id ties.
        let mut best: Option<(u64, f32)> = found
            .first()
            .map(|&(d, slot)| (self.items[slot as usize].0, d));
        if best.is_none_or(|(_, d)| d > within) {
            // Verify-on-far: unlike multi-probe LSH — whose probe set
            // provably covers the low-margin bit flips a near-duplicate
            // can cause — a beam that stopped short proves nothing about
            // the rest of the graph. When it surfaced no candidate inside
            // the caller's radius, confirm the miss by exact scan so the
            // hit/miss decision matches brute force. (With `within = ∞`
            // this never triggers.)
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
        "hnsw"
    }
}

#[cfg(test)]
mod tests {
    use super::super::{mix64, unit_f32, AnnFamily, LinearAnn};
    use super::*;

    fn v(data: &[f32]) -> FeatureVec {
        FeatureVec::new(data.to_vec())
    }

    fn clustered(dim: usize, clusters: usize, per: usize) -> Vec<(u64, FeatureVec)> {
        let mut out = Vec::new();
        let mut id = 0u64;
        for c in 0..clusters {
            let center: Vec<f32> = (0..dim)
                .map(|d| unit_f32(0xFACE ^ mix64((c * dim + d) as u64)))
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
        let idx = HnswIndex::new(16, 8, 24, items.clone());
        for (id, vec) in &items {
            let mut stats = ProbeStats::default();
            let (got, d) = idx
                .nearest(vec, f32::INFINITY, &mut stats)
                .expect("index is non-empty");
            assert_eq!(got, *id, "stored vector {id} not found");
            assert!(d < 1e-6);
        }
    }

    #[test]
    fn agrees_with_linear_on_clustered_queries() {
        let dim = 32;
        let items = clustered(dim, 10, 12);
        let hnsw = HnswIndex::new(dim, 8, 24, items.clone());
        let lin = LinearAnn::new(dim, items.clone());
        let mut agree = 0;
        let n = items.len();
        for (id, stored) in &items {
            let q: Vec<f32> = stored
                .as_slice()
                .iter()
                .enumerate()
                .map(|(d, &x)| x + 0.01 * unit_f32(mix64(*id ^ d as u64)))
                .collect();
            let q = FeatureVec::new(q).normalized();
            let mut s1 = ProbeStats::default();
            let mut s2 = ProbeStats::default();
            let a = hnsw.nearest(&q, f32::INFINITY, &mut s1).map(|(_, d)| d);
            let b = lin.nearest(&q, f32::INFINITY, &mut s2).map(|(_, d)| d);
            if let (Some(da), Some(db)) = (a, b) {
                if (da - db).abs() < 0.05 {
                    agree += 1;
                }
            }
        }
        assert!(agree * 100 >= n * 95, "recall too low: {agree}/{n}");
    }

    #[test]
    fn beam_probes_fewer_candidates_than_linear() {
        let dim = 32;
        let items = clustered(dim, 16, 16);
        let n = items.len() as u64;
        let idx = HnswIndex::new(dim, 8, 24, items.clone());
        let mut stats = ProbeStats::default();
        let mut lookups = 0u64;
        for (_, q) in items.iter().step_by(7) {
            let _ = idx.nearest(q, f32::INFINITY, &mut stats);
            lookups += 1;
        }
        assert!(
            stats.distance_evals < lookups * n / 2,
            "beam evaluated {} distances over {lookups} lookups on {n} items",
            stats.distance_evals
        );
    }

    #[test]
    fn single_entry_and_empty_cases() {
        let empty = HnswIndex::new(4, 4, 8, Vec::new());
        let mut stats = ProbeStats::default();
        assert_eq!(
            empty.nearest(&v(&[0.0; 4]), f32::INFINITY, &mut stats),
            None
        );
        let one = HnswIndex::new(4, 4, 8, vec![(3, v(&[1.0, 0.0, 0.0, 0.0]))]);
        let (id, _) = one
            .nearest(&v(&[0.9, 0.1, 0.0, 0.0]), f32::INFINITY, &mut stats)
            .expect("single entry must be found");
        assert_eq!(id, 3);
    }

    #[test]
    fn far_beam_verifies_by_scan() {
        let items = clustered(8, 2, 6);
        let idx = HnswIndex::new(8, 4, 8, items.clone());
        let truth = LinearAnn::new(8, items);
        let q = v(&[-3.0; 8]);
        let mut stats = ProbeStats::default();
        // Nothing lies within 0.1 of the query: the beam's answer must be
        // confirmed by an exact scan, which returns the true nearest.
        let got = idx.nearest(&q, 0.1, &mut stats);
        assert_eq!(stats.fallback_scans, 1);
        assert_eq!(got, truth.nearest(&q, f32::INFINITY, &mut stats));
    }

    #[test]
    fn rebuild_is_deterministic() {
        let items = clustered(16, 4, 8);
        let a = HnswIndex::new(16, 8, 16, items.clone());
        let b = HnswIndex::new(16, 8, 16, items.clone());
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
    fn levels_are_deterministic_and_geometric() {
        let mut counts = [0usize; 4];
        for id in 0..4096u64 {
            let l = level_of(id).min(3);
            assert_eq!(level_of(id), level_of(id));
            counts[l] += 1;
        }
        // p = 1/4: roughly 3/4 of nodes at level 0, a thinning tail above.
        assert!(counts[0] > 2500, "level-0 share too small: {counts:?}");
        assert!(counts[1] < counts[0] && counts[2] < counts[1]);
    }

    #[test]
    fn builds_through_family_config() {
        let fam = AnnFamily::Hnsw {
            max_links: 4,
            ef_search: 8,
        };
        let idx = fam.build(4, vec![(1, v(&[1.0, 0.0, 0.0, 0.0]))]);
        assert_eq!(idx.family(), "hnsw");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    #[should_panic(expected = "HNSW parameters must be positive")]
    fn zero_ef_rejected() {
        let _ = HnswIndex::new(4, 4, 0, Vec::new());
    }
}
