//! Approximate-match cache over feature descriptors.
//!
//! The recognition half of CoIC's edge lookup: "If the distance between the
//! new feature descriptor and another one in the cache is under a certain
//! threshold, CoIC determines that the computation result is already in the
//! cache." Lookups go through a nearest-neighbour index (exact linear scan
//! or one of the batch-built [`crate::ann`] families behind the
//! [`crate::ann::DynamicAnn`] adapter), eviction and byte accounting
//! through the shared [`Store`].
//!
//! This is the single-threaded *research* cache: the threshold, adaptive,
//! descriptor, privacy and compaction experiments and the layer cache need
//! its mutable knobs ([`ApproxCache::set_threshold`],
//! [`ApproxCache::compact_with`]). The edge service — simulated and live —
//! serves recognition from [`crate::snapshot::SnapshotApproxCache`].

use crate::ann::{AnnFamily, DynamicAnn};
use crate::policy::PolicyKind;
use crate::stats::CacheStats;
use crate::store::Store;
use coic_vision::features::FeatureVec;
use coic_vision::index::{LinearIndex, NnIndex};
use coic_vision::Metric;

/// Which nearest-neighbour structure backs the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact linear scan (small caches, ground truth).
    Linear,
    /// Multi-probe LSH ([`crate::ann::MultiProbeLsh`]): batch-built,
    /// probes margin-ranked neighbouring buckets instead of piling on
    /// tables.
    MultiProbeLsh {
        /// Number of independent hash tables.
        tables: usize,
        /// Signature bits per table.
        bits: usize,
        /// Buckets probed per table per lookup.
        probes: usize,
    },
    /// HNSW-style layered graph ([`crate::ann::HnswIndex`]): batch-built,
    /// greedy upper-level descent plus a beam search at the base layer.
    Hnsw {
        /// Maximum links per node above the base layer.
        max_links: usize,
        /// Beam width at the base layer.
        ef_search: usize,
    },
}

impl IndexKind {
    /// Default multi-probe LSH configuration (mirrors
    /// [`AnnFamily::DEFAULT_MPLSH`]).
    pub const DEFAULT_MPLSH: IndexKind = IndexKind::MultiProbeLsh {
        tables: 4,
        bits: 8,
        probes: 8,
    };

    /// Default HNSW configuration (mirrors [`AnnFamily::DEFAULT_HNSW`]).
    pub const DEFAULT_HNSW: IndexKind = IndexKind::Hnsw {
        max_links: 8,
        ef_search: 24,
    };

    /// Stable label for configs and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::Linear => "linear",
            IndexKind::MultiProbeLsh { .. } => "mp-lsh",
            IndexKind::Hnsw { .. } => "hnsw",
        }
    }

    /// Parse a label back into a kind with default parameters
    /// (`linear`, `mp-lsh`, `hnsw`).
    pub fn parse(name: &str) -> Option<IndexKind> {
        match name {
            "linear" => Some(IndexKind::Linear),
            "mp-lsh" | "mplsh" => Some(IndexKind::DEFAULT_MPLSH),
            "hnsw" => Some(IndexKind::DEFAULT_HNSW),
            _ => None,
        }
    }

    /// The batch-built [`AnnFamily`] equivalent of this kind, used by the
    /// snapshot cache.
    pub fn ann_family(&self) -> AnnFamily {
        match *self {
            IndexKind::Linear => AnnFamily::Linear,
            IndexKind::MultiProbeLsh {
                tables,
                bits,
                probes,
            } => AnnFamily::MultiProbeLsh {
                tables,
                bits,
                probes,
            },
            IndexKind::Hnsw {
                max_links,
                ef_search,
            } => AnnFamily::Hnsw {
                max_links,
                ef_search,
            },
        }
    }
}

/// Outcome of an approximate lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxLookup {
    /// A cached descriptor was within threshold, at this distance.
    Hit {
        /// Internal id of the matched entry.
        id: u64,
        /// Distance between query and the matched descriptor.
        distance: f32,
    },
    /// Nothing within threshold (closest distance reported if any).
    Miss {
        /// Distance to the nearest cached descriptor, if the cache was
        /// non-empty.
        nearest: Option<f32>,
    },
}

/// A feature-descriptor-keyed approximate cache.
///
/// # Examples
/// ```
/// use coic_cache::{ApproxCache, ApproxLookup, IndexKind, PolicyKind};
/// use coic_vision::FeatureVec;
///
/// let mut cache: ApproxCache<&str> =
///     ApproxCache::new(1024, PolicyKind::Lru, 0.5, IndexKind::Linear, 2);
/// cache.insert(FeatureVec::new(vec![1.0, 0.0]), "stop sign", 64, 0);
/// // A nearby descriptor (another user's view of the same sign) hits.
/// match cache.lookup(&FeatureVec::new(vec![0.95, 0.05]), 1) {
///     ApproxLookup::Hit { id, .. } => assert_eq!(cache.value(id), Some(&"stop sign")),
///     miss => panic!("expected a hit, got {miss:?}"),
/// }
/// ```
pub struct ApproxCache<V> {
    store: Store<u64, (FeatureVec, V)>,
    index: Box<dyn NnIndex + Send + Sync>,
    threshold: f32,
    next_id: u64,
    stats: CacheStats,
}

impl<V> ApproxCache<V> {
    /// Create a cache: hits require distance ≤ `threshold` (L2 over the
    /// descriptor embedding).
    ///
    /// # Panics
    /// Panics if `threshold` is not positive and finite, or `dim == 0` for
    /// an ANN-backed index.
    pub fn new(
        capacity_bytes: u64,
        policy: PolicyKind,
        threshold: f32,
        index: IndexKind,
        dim: usize,
    ) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        let index: Box<dyn NnIndex + Send + Sync> = match index {
            IndexKind::Linear => Box::new(LinearIndex::new(Metric::L2)),
            kind @ (IndexKind::MultiProbeLsh { .. } | IndexKind::Hnsw { .. }) => Box::new(
                DynamicAnn::new(kind.ann_family(), dim, crate::ann::DEFAULT_REBUILD_BATCH)
                    .with_radius(threshold),
            ),
        };
        ApproxCache {
            store: Store::new(capacity_bytes, policy, None),
            index,
            threshold,
            next_id: 0,
            stats: CacheStats::default(),
        }
    }

    /// The hit threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Change the hit threshold (the threshold-sweep ablation).
    pub fn set_threshold(&mut self, threshold: f32) {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        self.threshold = threshold;
    }

    /// Look up the nearest cached descriptor; a hit requires distance ≤
    /// threshold. Hits update recency.
    pub fn lookup(&mut self, query: &FeatureVec, now_ns: u64) -> ApproxLookup {
        match self.index.nearest(query) {
            Some((id, distance)) if distance <= self.threshold => {
                // Touch the entry for the eviction policy.
                let touched = self.store.get(&id, now_ns).is_some();
                debug_assert!(touched, "index and store out of sync for id {id}");
                self.stats.hits += 1;
                ApproxLookup::Hit { id, distance }
            }
            Some((_, distance)) => {
                self.stats.misses += 1;
                ApproxLookup::Miss {
                    nearest: Some(distance),
                }
            }
            None => {
                self.stats.misses += 1;
                ApproxLookup::Miss { nearest: None }
            }
        }
    }

    /// Fetch the value of a previously returned hit id.
    pub fn value(&self, id: u64) -> Option<&V> {
        self.store.peek(&id).map(|(_, v)| v)
    }

    /// Insert a descriptor/result pair of `size` bytes. Evicted entries are
    /// removed from the index; returns how many were evicted.
    pub fn insert(&mut self, descriptor: FeatureVec, value: V, size: u64, now_ns: u64) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.index.insert(id, descriptor.clone());
        let evicted = self.store.insert(id, (descriptor, value), size, now_ns);
        // An oversized rejection leaves the index entry dangling: undo it.
        if self.store.peek(&id).is_none() {
            self.index.remove(id);
        }
        for (eid, _) in &evicted {
            self.index.remove(*eid);
        }
        self.stats.insertions += 1;
        self.stats.evictions += evicted.len() as u64;
        evicted.len()
    }

    /// Compact the cache: greedily merge entries whose descriptors lie
    /// within `merge_radius` of an earlier entry *and* whose values the
    /// caller deems equivalent (e.g. same recognition label). Co-located
    /// users inserting near-identical observations bloat the cache with
    /// redundant entries; compaction reclaims that space at a bounded
    /// coverage cost: by the triangle inequality, any query that would
    /// have hit a removed entry at distance `d` hits its survivor at
    /// `≤ d + merge_radius`, so choosing `merge_radius` well under the
    /// threshold keeps nearly all hits.
    ///
    /// Returns the number of entries removed. O(n²) in cache entries —
    /// intended as periodic housekeeping, not a per-request operation.
    pub fn compact_with<F>(&mut self, merge_radius: f32, mergeable: F) -> usize
    where
        F: Fn(&V, &V) -> bool,
    {
        use coic_vision::distance::l2;
        let mut ids: Vec<u64> = self.store.iter().map(|(&k, _)| k).collect();
        ids.sort_unstable();
        let mut dead: Vec<u64> = Vec::new();
        let mut dead_set = std::collections::HashSet::new();
        for i in 0..ids.len() {
            let a = ids[i];
            if dead_set.contains(&a) {
                continue;
            }
            let (va, vala) = self.store.peek(&a).expect("live id");
            let va = va.clone();
            let vala_owned: &V = vala;
            for &b in &ids[i + 1..] {
                if dead_set.contains(&b) {
                    continue;
                }
                let (vb, valb) = self.store.peek(&b).expect("live id");
                if l2(&va, vb) <= merge_radius && mergeable(vala_owned, valb) {
                    dead.push(b);
                    dead_set.insert(b);
                }
            }
        }
        for b in &dead {
            self.store.remove(b);
            self.index.remove(*b);
        }
        dead.len()
    }

    /// Fold any journaled index maintenance (batch rebuilds for the ANN
    /// families; a no-op for the incremental indexes). The engine tick
    /// drives this so rebuild cost lands at deterministic points instead
    /// of mid-lookup. Returns how many journaled mutations were folded.
    pub fn maintain(&mut self) -> usize {
        self.index.maintain()
    }

    /// Lookup counters (hits/misses counted at this layer).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of cached descriptors.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.store.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f32]) -> FeatureVec {
        FeatureVec::new(data.to_vec())
    }

    fn cache(threshold: f32) -> ApproxCache<&'static str> {
        ApproxCache::new(10_000, PolicyKind::Lru, threshold, IndexKind::Linear, 2)
    }

    #[test]
    fn within_threshold_hits() {
        let mut c = cache(0.5);
        c.insert(v(&[1.0, 0.0]), "stop sign", 100, 0);
        match c.lookup(&v(&[1.1, 0.1]), 0) {
            ApproxLookup::Hit { id, distance } => {
                assert!(distance < 0.2);
                assert_eq!(c.value(id), Some(&"stop sign"));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn outside_threshold_misses_with_nearest() {
        let mut c = cache(0.1);
        c.insert(v(&[1.0, 0.0]), "a", 100, 0);
        match c.lookup(&v(&[0.0, 1.0]), 0) {
            ApproxLookup::Miss { nearest: Some(d) } => assert!(d > 1.0),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn empty_cache_misses_without_nearest() {
        let mut c = cache(0.5);
        assert_eq!(
            c.lookup(&v(&[0.0, 0.0]), 0),
            ApproxLookup::Miss { nearest: None }
        );
    }

    #[test]
    fn eviction_keeps_index_in_sync() {
        let mut c: ApproxCache<u32> =
            ApproxCache::new(250, PolicyKind::Lru, 0.5, IndexKind::Linear, 2);
        // 100 B each: only two fit.
        c.insert(v(&[0.0, 0.0]), 0, 100, 0);
        c.insert(v(&[10.0, 0.0]), 1, 100, 0);
        c.insert(v(&[20.0, 0.0]), 2, 100, 0); // evicts the first
        assert_eq!(c.len(), 2);
        // The evicted descriptor must not be findable anymore.
        match c.lookup(&v(&[0.0, 0.0]), 0) {
            ApproxLookup::Miss { nearest: Some(d) } => assert!(d > 5.0),
            other => panic!("expected miss, got {other:?}"),
        }
        // The survivors still hit.
        assert!(matches!(
            c.lookup(&v(&[10.0, 0.0]), 0),
            ApproxLookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup(&v(&[20.0, 0.0]), 0),
            ApproxLookup::Hit { .. }
        ));
    }

    #[test]
    fn oversized_insert_leaves_no_ghost_in_index() {
        let mut c: ApproxCache<u32> =
            ApproxCache::new(50, PolicyKind::Lru, 0.5, IndexKind::Linear, 2);
        c.insert(v(&[1.0, 1.0]), 9, 1_000, 0); // larger than capacity
        assert_eq!(c.len(), 0);
        assert_eq!(
            c.lookup(&v(&[1.0, 1.0]), 0),
            ApproxLookup::Miss { nearest: None }
        );
    }

    #[test]
    fn threshold_sweep_changes_hit_boundary() {
        let mut c = cache(0.05);
        c.insert(v(&[1.0, 0.0]), "x", 100, 0);
        let probe = v(&[1.3, 0.0]);
        assert!(matches!(c.lookup(&probe, 0), ApproxLookup::Miss { .. }));
        c.set_threshold(0.5);
        assert!(matches!(c.lookup(&probe, 0), ApproxLookup::Hit { .. }));
    }

    #[test]
    fn compaction_merges_near_duplicates() {
        let mut c: ApproxCache<u32> =
            ApproxCache::new(1 << 20, PolicyKind::Lru, 0.5, IndexKind::Linear, 2);
        // Three near-identical descriptors with the same label, one distant.
        c.insert(v(&[1.0, 0.0]), 7, 100, 0);
        c.insert(v(&[1.01, 0.0]), 7, 100, 1);
        c.insert(v(&[0.99, 0.01]), 7, 100, 2);
        c.insert(v(&[0.0, 1.0]), 9, 100, 3);
        let removed = c.compact_with(0.1, |a, b| a == b);
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 2);
        // Coverage preserved: queries near the merged cluster still hit.
        assert!(matches!(
            c.lookup(&v(&[1.0, 0.05]), 4),
            ApproxLookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup(&v(&[0.0, 1.0]), 5),
            ApproxLookup::Hit { .. }
        ));
    }

    #[test]
    fn compaction_respects_value_equivalence() {
        let mut c: ApproxCache<u32> =
            ApproxCache::new(1 << 20, PolicyKind::Lru, 0.5, IndexKind::Linear, 2);
        // Near-identical descriptors but *different* labels must survive.
        c.insert(v(&[1.0, 0.0]), 1, 100, 0);
        c.insert(v(&[1.01, 0.0]), 2, 100, 1);
        assert_eq!(c.compact_with(0.1, |a, b| a == b), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn compaction_on_empty_cache_is_noop() {
        let mut c: ApproxCache<u32> =
            ApproxCache::new(1 << 20, PolicyKind::Lru, 0.5, IndexKind::Linear, 2);
        assert_eq!(c.compact_with(0.2, |_, _| true), 0);
    }

    #[test]
    fn ann_backends_behave_like_linear_for_hits() {
        let mut caches: Vec<ApproxCache<&'static str>> = vec![
            cache(0.3),
            ApproxCache::new(10_000, PolicyKind::Lru, 0.3, IndexKind::DEFAULT_MPLSH, 2),
            ApproxCache::new(10_000, PolicyKind::Lru, 0.3, IndexKind::DEFAULT_HNSW, 2),
        ];
        let stored = [
            ([1.0f32, 0.0], "east"),
            ([0.0, 1.0], "north"),
            ([-1.0, 0.0], "west"),
            ([0.0, -1.0], "south"),
        ];
        for c in &mut caches {
            for (d, name) in stored {
                c.insert(v(&d), name, 10, 0);
            }
            c.maintain();
        }
        for q in [[0.99f32, 0.05], [-0.03, 0.98], [-1.02, 0.02], [0.6, 0.6]] {
            let truth = matches!(caches[0].lookup(&v(&q), 0), ApproxLookup::Hit { .. });
            for c in &mut caches[1..] {
                let got = matches!(c.lookup(&v(&q), 0), ApproxLookup::Hit { .. });
                assert_eq!(truth, got, "disagreement at {q:?}");
            }
        }
    }

    #[test]
    fn maintain_is_noop_for_incremental_indexes() {
        let mut c = cache(0.5);
        c.insert(v(&[1.0, 0.0]), "x", 100, 0);
        assert_eq!(c.maintain(), 0);
    }

    #[test]
    fn index_kind_labels_roundtrip() {
        for kind in [
            IndexKind::Linear,
            IndexKind::DEFAULT_MPLSH,
            IndexKind::DEFAULT_HNSW,
        ] {
            assert_eq!(IndexKind::parse(kind.label()), Some(kind));
            // Every kind maps onto a buildable ANN family.
            let built = kind.ann_family().build(2, vec![(0, v(&[1.0, 0.0]))]);
            assert_eq!(built.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn bad_threshold_rejected() {
        let _ = cache(-1.0);
    }
}
