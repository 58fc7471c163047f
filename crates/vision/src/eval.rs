//! Classifier evaluation: confusion matrices and per-class metrics.
//!
//! The ablations report a single top-1 accuracy; this module provides the
//! detail underneath — which objects get confused with which (relevant to
//! CoIC because a cache hit on a *confusable* pair returns a plausible but
//! wrong annotation, the silent failure the threshold guards against).

use crate::scene::ObjectClass;
use std::collections::BTreeMap;

/// A confusion matrix over a dynamic set of classes.
#[derive(Debug, Clone, Default)]
pub struct ConfusionMatrix {
    /// counts[(truth, predicted)] = occurrences.
    counts: BTreeMap<(u32, u32), u64>,
    total: u64,
}

impl ConfusionMatrix {
    /// Create an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `(truth, predicted)` outcome.
    pub fn record(&mut self, truth: ObjectClass, predicted: ObjectClass) {
        *self.counts.entry((truth.0, predicted.0)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Count for one `(truth, predicted)` cell.
    pub fn count(&self, truth: ObjectClass, predicted: ObjectClass) -> u64 {
        self.counts
            .get(&(truth.0, predicted.0))
            .copied()
            .unwrap_or(0)
    }

    /// Overall top-1 accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let correct: u64 = self
            .counts
            .iter()
            .filter(|(&(t, p), _)| t == p)
            .map(|(_, &n)| n)
            .sum();
        correct as f64 / self.total as f64
    }

    /// The most frequently confused `(truth, predicted, count)` pairs
    /// (off-diagonal), most common first, at most `k`.
    pub fn top_confusions(&self, k: usize) -> Vec<(ObjectClass, ObjectClass, u64)> {
        let mut off: Vec<_> = self
            .counts
            .iter()
            .filter(|(&(t, p), _)| t != p)
            .map(|(&(t, p), &n)| (ObjectClass(t), ObjectClass(p), n))
            .collect();
        off.sort_by(|a, b| b.2.cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)));
        off.truncate(k);
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        // Class 0: 3 correct, 1 confused as 1.
        for _ in 0..3 {
            m.record(ObjectClass(0), ObjectClass(0));
        }
        m.record(ObjectClass(0), ObjectClass(1));
        // Class 1: 2 correct.
        for _ in 0..2 {
            m.record(ObjectClass(1), ObjectClass(1));
        }
        m
    }

    #[test]
    fn accuracy_and_counts() {
        let m = matrix();
        assert_eq!(m.total, 6);
        assert_eq!(m.count(ObjectClass(0), ObjectClass(1)), 1);
        assert!((m.accuracy() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn top_confusions_ordering() {
        let mut m = matrix();
        m.record(ObjectClass(1), ObjectClass(0));
        m.record(ObjectClass(1), ObjectClass(0));
        let top = m.top_confusions(5);
        assert_eq!(top[0], (ObjectClass(1), ObjectClass(0), 2));
        assert_eq!(top[1], (ObjectClass(0), ObjectClass(1), 1));
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.accuracy(), 0.0);
        assert!(m.counts.is_empty());
        assert!(m.top_confusions(3).is_empty());
    }
}
