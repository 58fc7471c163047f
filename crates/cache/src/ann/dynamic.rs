//! Mutable adapter: a batch-built [`AnnIndex`] behind the incremental
//! [`coic_vision::NnIndex`] interface.
//!
//! The single-threaded research caches ([`crate::approx::ApproxCache`],
//! the layer cache) mutate their index entry by entry. The ANN families here are immutable batch builds — so this
//! adapter journals mutations and periodically folds them into a fresh
//! build, mirroring in miniature what [`crate::snapshot`] does across
//! threads:
//!
//! * inserts land in a `pending` set and are answered by a linear scan
//!   of that set until the next rebuild;
//! * removals and replacements mark the built index's copy `dirty`, and
//!   lookups filter dirty ids out (falling back to a scan when a probe
//!   surfaces only dirty candidates — never a false miss);
//! * once `pending + dirty` reaches `rebuild_batch`, the index is
//!   rebuilt from the live set — also forceable via
//!   [`coic_vision::NnIndex::maintain`], which the engine tick drives.
//!
//! Everything is deterministic: the live set is a `BTreeMap`, rebuilds
//! are a pure function of it, and the rebuild trigger depends only on
//! the mutation sequence. Answers are always exact with respect to the
//! live set's membership (the *nearest* choice is approximate per family,
//! the hit/miss decision matches brute force within family recall).

use super::{better, AnnFamily, AnnIndex, ProbeStats};
use coic_vision::distance::l2;
use coic_vision::features::FeatureVec;
use coic_vision::index::NnIndex;
use std::collections::{BTreeMap, BTreeSet};

/// Default mutation count that triggers a fold (shared with the
/// concurrent snapshot cache).
pub const DEFAULT_REBUILD_BATCH: usize = 64;

/// A mutable ANN index: immutable family builds + a journaled delta.
pub struct DynamicAnn {
    family: AnnFamily,
    dim: usize,
    rebuild_batch: usize,
    /// No-false-miss radius forwarded to [`AnnIndex::nearest`]; callers
    /// with a hit threshold set it via [`DynamicAnn::with_radius`] so the
    /// hit/miss decision matches brute force exactly, not just within
    /// family recall.
    within: f32,
    /// Ground truth: every live id and its current vector.
    live: BTreeMap<u64, FeatureVec>,
    /// The last batch build (over `live` at build time).
    built: Box<dyn AnnIndex>,
    /// Ids added or replaced since the build (vectors read from `live`).
    pending: BTreeSet<u64>,
    /// Ids removed or replaced since the build (stale inside `built`).
    dirty: BTreeSet<u64>,
    /// Folds performed (telemetry).
    rebuilds: u64,
}

impl DynamicAnn {
    /// Create an empty adapter; folds every `rebuild_batch` mutations.
    ///
    /// # Panics
    /// Panics if `rebuild_batch` is zero or the family parameters are
    /// invalid (see [`AnnFamily::build`]).
    pub fn new(family: AnnFamily, dim: usize, rebuild_batch: usize) -> DynamicAnn {
        assert!(rebuild_batch > 0, "rebuild batch must be positive");
        DynamicAnn {
            family,
            dim,
            rebuild_batch,
            within: f32::INFINITY,
            live: BTreeMap::new(),
            built: family.build(dim, Vec::new()),
            pending: BTreeSet::new(),
            dirty: BTreeSet::new(),
            rebuilds: 0,
        }
    }

    /// The family this adapter builds.
    pub fn family(&self) -> AnnFamily {
        self.family
    }

    /// Set the caller's hit threshold as the satisficing radius (see
    /// [`AnnIndex::nearest`]): the built index may stop at the first
    /// in-radius candidate instead of hunting for the true nearest.
    /// Defaults to `f32::INFINITY` (raw best-effort nearest).
    #[must_use]
    pub fn with_radius(mut self, within: f32) -> DynamicAnn {
        self.within = within;
        self
    }

    /// Mutations journaled since the last fold.
    pub fn journal_depth(&self) -> usize {
        self.pending.len() + self.dirty.len()
    }

    /// Folds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    fn fold(&mut self) -> usize {
        let folded = self.journal_depth();
        let items: Vec<(u64, FeatureVec)> =
            self.live.iter().map(|(id, v)| (*id, v.clone())).collect();
        self.built = self.family.build(self.dim, items);
        self.pending.clear();
        self.dirty.clear();
        self.rebuilds += 1;
        folded
    }

    fn maybe_fold(&mut self) {
        if self.journal_depth() >= self.rebuild_batch {
            self.fold();
        }
    }
}

impl NnIndex for DynamicAnn {
    fn insert(&mut self, id: u64, v: FeatureVec) {
        assert_eq!(v.dim(), self.dim, "vector dim mismatch");
        if self.live.insert(id, v).is_some() {
            // Replacement: the built copy (if any) is now stale.
            self.dirty.insert(id);
        }
        self.pending.insert(id);
        self.maybe_fold();
    }

    fn remove(&mut self, id: u64) -> bool {
        let present = self.live.remove(&id).is_some();
        if present {
            self.pending.remove(&id);
            self.dirty.insert(id);
            self.maybe_fold();
        }
        present
    }

    fn nearest(&self, q: &FeatureVec) -> Option<(u64, f32)> {
        let mut stats = ProbeStats::default();
        let dirty = &self.dirty;
        let mut best = self
            .built
            .nearest(q, self.within, &|id| !dirty.contains(&id), &mut stats);
        // The pending delta is scanned exactly (bounded by rebuild_batch).
        for id in &self.pending {
            if let Some(v) = self.live.get(id) {
                let d = l2(q, v);
                if better((*id, d), best) {
                    best = Some((*id, d));
                }
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn maintain(&mut self) -> usize {
        if self.journal_depth() == 0 {
            return 0;
        }
        self.fold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f32]) -> FeatureVec {
        FeatureVec::new(data.to_vec())
    }

    fn adapters() -> Vec<DynamicAnn> {
        vec![
            DynamicAnn::new(AnnFamily::Linear, 2, 4),
            DynamicAnn::new(
                AnnFamily::MultiProbeLsh {
                    tables: 2,
                    bits: 4,
                    probes: 4,
                },
                2,
                4,
            ),
            DynamicAnn::new(
                AnnFamily::Hnsw {
                    max_links: 4,
                    ef_search: 8,
                },
                2,
                4,
            ),
        ]
    }

    #[test]
    fn pending_entries_are_visible_before_fold() {
        for mut idx in adapters() {
            idx.insert(1, v(&[1.0, 0.0]));
            // journal depth 1 < batch 4: not folded yet, still findable.
            assert!(idx.journal_depth() >= 1 || idx.rebuilds() > 0);
            let (id, d) = idx.nearest(&v(&[0.9, 0.1])).expect("pending entry visible");
            assert_eq!(id, 1);
            assert!(d < 0.2);
        }
    }

    #[test]
    fn removal_is_visible_before_fold() {
        for mut idx in adapters() {
            idx.insert(1, v(&[1.0, 0.0]));
            idx.insert(2, v(&[0.0, 1.0]));
            let _ = idx.maintain(); // both in the built index
            assert!(idx.remove(1));
            assert!(!idx.remove(1));
            let (id, _) = idx.nearest(&v(&[1.0, 0.0])).expect("one entry left");
            assert_eq!(id, 2, "removed id leaked from the built index");
            assert_eq!(idx.len(), 1);
        }
    }

    #[test]
    fn replacement_supersedes_built_vector() {
        for mut idx in adapters() {
            idx.insert(1, v(&[1.0, 0.0]));
            let _ = idx.maintain();
            idx.insert(1, v(&[0.0, 1.0])); // replace, not yet folded
            let (id, d) = idx.nearest(&v(&[0.0, 1.0])).expect("entry live");
            assert_eq!(id, 1);
            assert!(d < 1e-6, "stale built vector answered: d = {d}");
            assert_eq!(idx.len(), 1);
        }
    }

    #[test]
    fn auto_fold_fires_at_batch_and_maintain_forces_it() {
        let mut idx = DynamicAnn::new(AnnFamily::Linear, 2, 4);
        for i in 0..3u64 {
            idx.insert(i, v(&[i as f32, 0.0]));
        }
        assert_eq!(idx.rebuilds(), 0);
        idx.insert(3, v(&[3.0, 0.0])); // 4th mutation: auto-fold
        assert_eq!(idx.rebuilds(), 1);
        assert_eq!(idx.journal_depth(), 0);
        assert_eq!(idx.maintain(), 0); // nothing journaled
        idx.insert(4, v(&[4.0, 0.0]));
        assert_eq!(idx.maintain(), 1);
        assert_eq!(idx.rebuilds(), 2);
    }

    #[test]
    fn matches_brute_force_across_churn() {
        for mut idx in adapters() {
            let mut truth: BTreeMap<u64, FeatureVec> = BTreeMap::new();
            for i in 0..40u64 {
                let angle = i as f32 * 0.37;
                let vec = v(&[angle.cos(), angle.sin()]);
                idx.insert(i, vec.clone());
                truth.insert(i, vec);
                if i % 5 == 4 {
                    idx.remove(i - 2);
                    truth.remove(&(i - 2));
                }
                let q = v(&[(angle + 0.01).cos(), (angle + 0.01).sin()]);
                let got = idx.nearest(&q).map(|(_, d)| d).expect("non-empty");
                let want = truth
                    .values()
                    .map(|t| l2(&q, t))
                    .fold(f32::INFINITY, f32::min);
                assert!(
                    (got - want).abs() < 0.05,
                    "family diverged from brute force: got {got}, want {want}"
                );
            }
            assert_eq!(idx.len(), truth.len());
        }
    }
}
