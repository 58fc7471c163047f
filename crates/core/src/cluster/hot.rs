//! Per-digest request counters driving hot-entry replication.

use coic_cache::Digest;
use std::collections::BTreeMap;

/// Counts where requests *land* (not where inserts happened) so the
/// cluster replicates content toward its demand: a non-owner edge keeps a
/// local replica once enough of its own misses asked for a digest, and an
/// owner pushes a failover copy to its ring successor once enough peer
/// probes did.
///
/// The map is a `BTreeMap` so iteration (the aging sweep) is
/// deterministic, and it is bounded: past [`HotTracker::MAX_TRACKED`]
/// digests every count is halved and zeroes dropped — classic aging that
/// forgets cold content without ever reshuffling hot ranks.
pub struct HotTracker {
    counts: BTreeMap<Digest, u32>,
    threshold: u32,
}

impl HotTracker {
    /// Aging bound on distinct tracked digests.
    pub const MAX_TRACKED: usize = 65_536;

    /// Track crossings of `threshold`; zero disables tracking entirely.
    pub fn new(threshold: u32) -> Self {
        HotTracker {
            counts: BTreeMap::new(),
            threshold,
        }
    }

    /// Count one request landing for `d`. Returns `true` exactly when the
    /// count *reaches* the threshold — the single moment the caller
    /// should act (replicate), so repeated requests do not re-replicate.
    pub fn note(&mut self, d: &Digest) -> bool {
        if self.threshold == 0 {
            return false;
        }
        if self.counts.len() >= Self::MAX_TRACKED && !self.counts.contains_key(d) {
            self.age();
        }
        let c = self.counts.entry(*d).or_insert(0);
        *c = c.saturating_add(1);
        *c == self.threshold
    }

    /// Has `d` crossed the threshold?
    pub fn is_hot(&self, d: &Digest) -> bool {
        self.threshold > 0 && self.counts.get(d).is_some_and(|&c| c >= self.threshold)
    }

    /// Halve every count and drop the zeroes.
    fn age(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u64) -> Digest {
        Digest::of(&i.to_le_bytes())
    }

    #[test]
    fn crossing_fires_exactly_once() {
        let mut h = HotTracker::new(3);
        assert!(!h.note(&d(1)));
        assert!(!h.note(&d(1)));
        assert!(!h.is_hot(&d(1)));
        assert!(h.note(&d(1)), "third request crosses");
        assert!(h.is_hot(&d(1)));
        assert!(!h.note(&d(1)), "already hot: no re-fire");
        assert!(h.is_hot(&d(1)));
    }

    #[test]
    fn zero_threshold_disables() {
        let mut h = HotTracker::new(0);
        for _ in 0..10 {
            assert!(!h.note(&d(7)));
        }
        assert!(!h.is_hot(&d(7)));
        assert_eq!(h.counts.len(), 0);
    }

    #[test]
    fn threshold_one_fires_immediately() {
        let mut h = HotTracker::new(1);
        assert!(h.note(&d(9)));
        assert!(!h.note(&d(9)));
    }

    #[test]
    fn aging_forgets_cold_digests_but_keeps_hot_ones() {
        let mut h = HotTracker::new(2);
        for _ in 0..8 {
            h.note(&d(0)); // hot: count 8
        }
        h.note(&d(1)); // cold: count 1
        h.age();
        assert!(h.is_hot(&d(0)), "8/2 = 4 still over threshold");
        assert_eq!(h.counts.len(), 1, "count 1 aged to zero and dropped");
    }
}
