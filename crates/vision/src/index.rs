//! Nearest-neighbour indexes over feature vectors.
//!
//! The edge cache must answer "is any cached descriptor within threshold of
//! this query?" — [`LinearIndex`] answers exactly; the sublinear
//! approximate families (multi-probe LSH, HNSW) live in `coic-cache`'s
//! `ann` module and plug in through the same [`NnIndex`] trait.

use crate::distance::Metric;
use crate::features::FeatureVec;
use std::collections::HashMap;

/// A nearest-neighbour index keyed by caller-chosen u64 ids.
pub trait NnIndex {
    /// Insert a vector under `id`. Inserting an existing id replaces it.
    fn insert(&mut self, id: u64, v: FeatureVec);
    /// Remove `id`, returning whether it was present.
    fn remove(&mut self, id: u64) -> bool;
    /// The closest stored vector to `q` (by the index's metric), with its
    /// distance. `None` when empty.
    fn nearest(&self, q: &FeatureVec) -> Option<(u64, f32)>;
    /// Number of stored vectors.
    fn len(&self) -> usize;
    /// True when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Fold any deferred maintenance (batch rebuilds) into the index,
    /// returning how many journaled mutations were folded. Purely
    /// incremental indexes have nothing to fold and return 0.
    fn maintain(&mut self) -> usize {
        0
    }
}

/// Exact nearest neighbour by linear scan.
pub struct LinearIndex {
    metric: Metric,
    items: HashMap<u64, FeatureVec>,
}

impl LinearIndex {
    /// Create an empty index with the given metric.
    pub fn new(metric: Metric) -> Self {
        LinearIndex {
            metric,
            items: HashMap::new(),
        }
    }
}

impl NnIndex for LinearIndex {
    fn insert(&mut self, id: u64, v: FeatureVec) {
        self.items.insert(id, v);
    }

    fn remove(&mut self, id: u64) -> bool {
        self.items.remove(&id).is_some()
    }

    fn nearest(&self, q: &FeatureVec) -> Option<(u64, f32)> {
        let mut best: Option<(u64, f32)> = None;
        // Deterministic tie-breaking: iterate ids in sorted order.
        let mut ids: Vec<_> = self.items.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let d = self.metric.eval(q, &self.items[&id]);
            if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                best = Some((id, d));
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_finds_exact_nearest() {
        let mut idx = LinearIndex::new(Metric::L2);
        idx.insert(1, FeatureVec::new(vec![0.0, 0.0]));
        idx.insert(2, FeatureVec::new(vec![1.0, 0.0]));
        idx.insert(3, FeatureVec::new(vec![0.0, 2.0]));
        let (id, d) = idx.nearest(&FeatureVec::new(vec![0.9, 0.1])).unwrap();
        assert_eq!(id, 2);
        assert!(d < 0.2);
    }

    #[test]
    fn linear_empty_returns_none() {
        let idx = LinearIndex::new(Metric::L2);
        assert_eq!(idx.nearest(&FeatureVec::new(vec![0.0])), None);
    }

    #[test]
    fn linear_replace_and_remove() {
        let mut idx = LinearIndex::new(Metric::L2);
        idx.insert(1, FeatureVec::new(vec![0.0]));
        idx.insert(1, FeatureVec::new(vec![5.0]));
        assert_eq!(idx.len(), 1);
        let (_, d) = idx.nearest(&FeatureVec::new(vec![5.0])).unwrap();
        assert_eq!(d, 0.0);
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert!(idx.is_empty());
    }

    #[test]
    fn maintain_defaults_to_noop() {
        let mut idx = LinearIndex::new(Metric::L2);
        idx.insert(1, FeatureVec::new(vec![0.0]));
        assert_eq!(idx.maintain(), 0);
        assert_eq!(idx.len(), 1);
    }
}
