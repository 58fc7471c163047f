//! Snapshot/epoch concurrent approximate cache — the descriptor hot path.
//!
//! The edge answers "is any cached descriptor within threshold of this
//! query?" — from many connection threads at once when live, from the
//! simulator's one thread otherwise; both run this cache. An earlier
//! design sharded the descriptor space, which fragmented LSH buckets and
//! made p95 *worse* than a single mutex (DESIGN.md §14). This cache takes
//! the opposite approach — RCU-style snapshots:
//!
//! * **Lookups walk an immutable snapshot with zero locks.** The shared
//!   state is a pair of `Arc`s (snapshot + journal) behind a `RwLock`
//!   that is held only long enough to clone the two `Arc`s — never
//!   during the ANN search itself. The snapshot owns a batch-built
//!   [`AnnIndex`] (multi-probe LSH, HNSW, or linear scan) that is never
//!   mutated after construction, so any number of threads walk it
//!   concurrently without coordination.
//! * **Inserts append to a write-side journal.** New entries go into a
//!   bounded copy-on-write journal; lookups scan it linearly (it is at
//!   most `rebuild_batch` deep), so an insert is visible to every
//!   subsequent lookup immediately — no lost inserts while waiting for
//!   a rebuild.
//! * **An explicit [`SnapshotApproxCache::maintain`] tick folds the
//!   journal** into a freshly built snapshot: merge entries, apply
//!   batched-LRU eviction, batch-build the index *outside* the state
//!   lock, then swap the snapshot `Arc` and trim the folded journal
//!   prefix. No background threads — the engine tick (netrun's insert
//!   path, the sim loop) drives folding deterministically, preserving
//!   the sans-IO rules. Inserts also self-fold when the journal reaches
//!   `rebuild_batch`, bounding the journal scan.
//!
//! Recency without write-locking: every snapshot entry carries an
//! `Arc<AtomicU64>` last-used tick that hits bump with a relaxed
//! `fetch_max`; eviction at fold time orders by `(last_used, id)` —
//! approximate LRU, exact enough for the workloads measured in
//! EXPERIMENTS.md. The loom model in `tests/model.rs` explores the
//! swap/handoff protocol (no lost inserts, no torn reads), and the
//! recall property test pins the hit/miss decision to brute force.

use crate::ann::{AnnFamily, AnnIndex, ProbeStats};
use crate::metrics::{Lookup, Metrics};
use crate::sync::{AtomicU64, Mutex, Ordering, RwLock};
use coic_obs::MetricsRegistry;
use coic_vision::distance::l2;
use coic_vision::features::FeatureVec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default journal depth that triggers a self-fold on insert.
pub const DEFAULT_REBUILD_BATCH: usize = 64;

/// One committed entry inside an immutable snapshot.
struct SnapEntry<V> {
    vec: FeatureVec,
    value: Arc<V>,
    size: u64,
    /// Last-used tick (ns), bumped by lookups with a relaxed `fetch_max`;
    /// shared across snapshot generations so recency survives rebuilds.
    last_used: Arc<AtomicU64>,
}

impl<V> Clone for SnapEntry<V> {
    fn clone(&self) -> Self {
        SnapEntry {
            vec: self.vec.clone(),
            value: Arc::clone(&self.value),
            size: self.size,
            last_used: Arc::clone(&self.last_used),
        }
    }
}

/// A not-yet-folded insert, visible to lookups via the journal scan.
struct JournalEntry<V> {
    id: u64,
    vec: FeatureVec,
    value: Arc<V>,
    size: u64,
}

impl<V> Clone for JournalEntry<V> {
    fn clone(&self) -> Self {
        JournalEntry {
            id: self.id,
            vec: self.vec.clone(),
            value: Arc::clone(&self.value),
            size: self.size,
        }
    }
}

/// An immutable generation: entries + the batch-built index over them.
struct Snapshot<V> {
    index: Box<dyn AnnIndex>,
    entries: BTreeMap<u64, SnapEntry<V>>,
    used_bytes: u64,
    version: u64,
}

/// The two `Arc`s lookups clone under the (briefly held) read lock.
struct Shared<V> {
    snapshot: Arc<Snapshot<V>>,
    journal: Arc<Vec<JournalEntry<V>>>,
}

/// Hot-path counters (relaxed atomics; snapshotted by telemetry).
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    rejected: AtomicU64,
    evictions: AtomicU64,
    rebuilds: AtomicU64,
    folded: AtomicU64,
    distance_evals: AtomicU64,
    buckets_probed: AtomicU64,
    fallback_scans: AtomicU64,
    lookups_since_rebuild: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            folded: AtomicU64::new(0),
            distance_evals: AtomicU64::new(0),
            buckets_probed: AtomicU64::new(0),
            fallback_scans: AtomicU64::new(0),
            lookups_since_rebuild: AtomicU64::new(0),
        }
    }
}

struct Inner<V> {
    state: RwLock<Shared<V>>,
    /// Serializes folds: concurrent `maintain` calls queue here, so the
    /// journal prefix captured by a fold can only *grow* (by appends)
    /// before its swap — never shrink or reorder.
    fold_lock: Mutex<()>,
    threshold: f32,
    capacity_bytes: u64,
    family: AnnFamily,
    dim: usize,
    rebuild_batch: usize,
    next_id: AtomicU64,
    counters: Counters,
}

/// Telemetry snapshot of the index hot path, published under `index.*`
/// (see [`IndexTelemetry::publish`]). `coic obs report` renders these.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct IndexTelemetry {
    /// Lookups served.
    pub lookups: u64,
    /// Exact distance evaluations across all lookups (the classic ANN
    /// "probe count" — lower is better at equal recall).
    pub probe_count: u64,
    /// Buckets (LSH) or graph nodes (HNSW) expanded.
    pub buckets_probed: u64,
    /// Conservative full-scan fallbacks (no candidates surfaced).
    pub fallback_scans: u64,
    /// Snapshot rebuilds (journal folds) performed.
    pub rebuilds: u64,
    /// Journal entries folded across all rebuilds.
    pub folded: u64,
    /// Entries currently waiting in the journal.
    pub journal_depth: u64,
    /// Lookups served from the current snapshot since its build — how
    /// stale the read structure is, in units of traffic.
    pub snapshot_age: u64,
    /// Entries in the current snapshot.
    pub snapshot_len: u64,
    /// Entries evicted at fold time.
    pub evictions: u64,
}

impl IndexTelemetry {
    /// Mean distance evaluations per lookup (zero when no lookups ran).
    pub fn probes_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probe_count as f64 / self.lookups as f64
        }
    }

    /// Publish into `reg`: counters `index.lookup`, `index.probe_count`,
    /// `index.bucket_probe`, `index.fallback_scan`, `index.rebuild`,
    /// `index.folded`, `index.eviction`; gauges `index.journal_depth`,
    /// `index.snapshot_age`, `index.snapshot_len`.
    pub fn publish(&self, reg: &MetricsRegistry) {
        reg.counter_add("index.lookup", self.lookups);
        reg.counter_add("index.probe_count", self.probe_count);
        reg.counter_add("index.bucket_probe", self.buckets_probed);
        reg.counter_add("index.fallback_scan", self.fallback_scans);
        reg.counter_add("index.rebuild", self.rebuilds);
        reg.counter_add("index.folded", self.folded);
        reg.counter_add("index.eviction", self.evictions);
        reg.gauge_set("index.journal_depth", self.journal_depth as i64);
        reg.gauge_set("index.snapshot_age", self.snapshot_age as i64);
        reg.gauge_set("index.snapshot_len", self.snapshot_len as i64);
    }
}

/// Where a lookup's best candidate came from.
enum Found {
    Snap(u64),
    Journal(usize),
}

/// A concurrently shareable approximate cache built on immutable
/// `Arc`-swapped snapshots (see the module docs).
pub struct SnapshotApproxCache<V> {
    inner: Arc<Inner<V>>,
}

impl<V> Clone for SnapshotApproxCache<V> {
    fn clone(&self) -> Self {
        SnapshotApproxCache {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> SnapshotApproxCache<V> {
    /// Create a cache: hits require L2 distance ≤ `threshold`; the
    /// journal self-folds at `rebuild_batch` entries.
    ///
    /// # Panics
    /// Panics if `threshold` is not positive and finite, `capacity_bytes`
    /// or `rebuild_batch` is zero, or the family parameters are invalid.
    pub fn new(
        capacity_bytes: u64,
        threshold: f32,
        family: AnnFamily,
        dim: usize,
        rebuild_batch: usize,
    ) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        assert!(capacity_bytes > 0, "capacity must be positive");
        assert!(rebuild_batch > 0, "rebuild batch must be positive");
        let snapshot = Snapshot {
            index: family.build(dim, Vec::new()),
            entries: BTreeMap::new(),
            used_bytes: 0,
            version: 0,
        };
        SnapshotApproxCache {
            inner: Arc::new(Inner {
                state: RwLock::new(Shared {
                    snapshot: Arc::new(snapshot),
                    journal: Arc::new(Vec::new()),
                }),
                fold_lock: Mutex::new(()),
                threshold,
                capacity_bytes,
                family,
                dim,
                rebuild_batch,
                next_id: AtomicU64::new(0),
                counters: Counters::new(),
            }),
        }
    }

    /// Clone the two shared `Arc`s; the read guard lives only for the
    /// two reference-count bumps — never across a search.
    fn load(&self) -> (Arc<Snapshot<V>>, Arc<Vec<JournalEntry<V>>>) {
        let st = self.inner.state.read();
        (Arc::clone(&st.snapshot), Arc::clone(&st.journal))
    }

    /// Threshold lookup. Walks the immutable snapshot index lock-free,
    /// scans the (bounded) journal so fresh inserts are visible, and
    /// bumps the winner's recency tick on a hit.
    pub fn lookup(&self, query: &FeatureVec, now_ns: u64) -> Lookup<Arc<V>> {
        let (snapshot, journal) = self.load();
        let mut stats = ProbeStats::default();
        let mut best: Option<(f32, Found)> = snapshot
            .index
            .nearest(query, self.inner.threshold, &|_| true, &mut stats)
            .map(|(id, d)| (d, Found::Snap(id)));
        for (pos, entry) in journal.iter().enumerate() {
            stats.distance_evals += 1;
            let d = l2(query, &entry.vec);
            // Strict `<`: on exact ties the snapshot (smaller id) wins,
            // and within the journal the earliest entry wins.
            if best.as_ref().map(|(bd, _)| d < *bd).unwrap_or(true) {
                best = Some((d, Found::Journal(pos)));
            }
        }
        let c = &self.inner.counters;
        c.lookups.fetch_add(1, Ordering::Relaxed);
        c.lookups_since_rebuild.fetch_add(1, Ordering::Relaxed);
        c.distance_evals
            .fetch_add(stats.distance_evals, Ordering::Relaxed);
        c.buckets_probed.fetch_add(stats.buckets, Ordering::Relaxed);
        c.fallback_scans
            .fetch_add(stats.fallback_scans, Ordering::Relaxed);
        let value = match best {
            Some((distance, found)) if distance <= self.inner.threshold => match found {
                Found::Snap(id) => snapshot.entries.get(&id).map(|e| {
                    e.last_used.fetch_max(now_ns, Ordering::Relaxed);
                    (Arc::clone(&e.value), distance)
                }),
                Found::Journal(pos) => journal.get(pos).map(|e| (Arc::clone(&e.value), distance)),
            },
            _ => None,
        };
        match value {
            Some((value, distance)) => {
                c.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::ApproxHit { value, distance }
            }
            None => {
                c.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Insert a descriptor/result pair of `size` bytes. The entry is
    /// journaled (visible to lookups immediately) and folded into the
    /// next snapshot; when the journal reaches `rebuild_batch` the fold
    /// runs inline. Returns how many journal entries were folded (zero
    /// when no fold ran).
    pub fn insert(&self, descriptor: FeatureVec, value: V, size: u64, now_ns: u64) -> usize {
        assert_eq!(descriptor.dim(), self.inner.dim, "descriptor dim mismatch");
        if size > self.inner.capacity_bytes {
            self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = JournalEntry {
            id,
            vec: descriptor,
            value: Arc::new(value),
            size,
        };
        let depth = {
            let mut st = self.inner.state.write();
            // Copy-on-write append: the vector is bounded by
            // rebuild_batch, so the clone is O(batch), not O(cache).
            let mut journal: Vec<JournalEntry<V>> = (*st.journal).clone();
            journal.push(entry);
            let depth = journal.len();
            st.journal = Arc::new(journal);
            depth
        };
        self.inner
            .counters
            .insertions
            .fetch_add(1, Ordering::Relaxed);
        if depth >= self.inner.rebuild_batch {
            self.maintain(now_ns)
        } else {
            0
        }
    }

    /// Fold the journal into a freshly built snapshot: merge entries,
    /// evict by `(last_used, id)` until within capacity, batch-build the
    /// ANN index *outside* the state lock, then swap. Deterministic given
    /// the operation sequence; no background threads — callers (the
    /// engine tick, the insert self-fold) decide when this runs.
    ///
    /// Returns how many journal entries were folded.
    pub fn maintain(&self, now_ns: u64) -> usize {
        let _fold = self.inner.fold_lock.lock();
        let (snapshot, journal) = self.load();
        if journal.is_empty() {
            return 0;
        }
        let folded = journal.len();
        let mut entries = snapshot.entries.clone();
        let mut used = snapshot.used_bytes;
        for je in journal.iter() {
            let fresh = SnapEntry {
                vec: je.vec.clone(),
                value: Arc::clone(&je.value),
                size: je.size,
                last_used: Arc::new(AtomicU64::new(now_ns)),
            };
            if let Some(old) = entries.insert(je.id, fresh) {
                used = used.saturating_sub(old.size);
            }
            used += je.size;
        }
        let mut evicted = 0u64;
        if used > self.inner.capacity_bytes {
            let mut order: Vec<(u64, u64, u64)> = entries
                .iter()
                .map(|(id, e)| (e.last_used.load(Ordering::Relaxed), *id, e.size))
                .collect();
            order.sort_unstable();
            for (_, id, size) in order {
                if used <= self.inner.capacity_bytes {
                    break;
                }
                entries.remove(&id);
                used = used.saturating_sub(size);
                evicted += 1;
            }
        }
        // The expensive part — the batch build — runs with no lock held
        // but the fold mutex: readers keep serving the old snapshot.
        let items: Vec<(u64, FeatureVec)> =
            entries.iter().map(|(id, e)| (*id, e.vec.clone())).collect();
        let index = self.inner.family.build(self.inner.dim, items);
        let fresh = Arc::new(Snapshot {
            index,
            entries,
            used_bytes: used,
            version: snapshot.version + 1,
        });
        {
            let mut st = self.inner.state.write();
            // Only appends can have happened since our capture (folds are
            // serialized by fold_lock), so the first `folded` entries are
            // exactly the ones baked into `fresh`; keep the suffix.
            let suffix: Vec<JournalEntry<V>> = st
                .journal
                .get(folded..)
                .map(|rest| rest.to_vec())
                .unwrap_or_default();
            st.snapshot = fresh;
            st.journal = Arc::new(suffix);
        }
        let c = &self.inner.counters;
        c.rebuilds.fetch_add(1, Ordering::Relaxed);
        c.folded.fetch_add(folded as u64, Ordering::Relaxed);
        c.evictions.fetch_add(evicted, Ordering::Relaxed);
        c.lookups_since_rebuild.store(0, Ordering::Relaxed);
        folded
    }

    /// The hit threshold.
    pub fn threshold(&self) -> f32 {
        self.inner.threshold
    }

    /// The configured index family's label (`mp-lsh`, `hnsw`, `linear`).
    pub fn family_label(&self) -> &'static str {
        self.inner.family.label()
    }

    /// Live entries (snapshot + journal; journal ids are always fresh).
    pub fn len(&self) -> usize {
        let (snapshot, journal) = self.load();
        snapshot.entries.len() + journal.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes in use (snapshot accounting + journaled entries).
    pub fn used_bytes(&self) -> u64 {
        let (snapshot, journal) = self.load();
        snapshot.used_bytes + journal.iter().map(|e| e.size).sum::<u64>()
    }

    /// Entries currently waiting in the journal.
    pub fn journal_depth(&self) -> usize {
        self.load().1.len()
    }

    /// Generation counter of the current snapshot (0 = initial empty).
    pub fn snapshot_version(&self) -> u64 {
        self.load().0.version
    }

    /// The unified cache counter view (hits/misses/insertions/evictions/
    /// rejections), publishable under `cache.<name>.*` like every other
    /// cache in the tree.
    pub fn metrics(&self) -> Metrics {
        let c = &self.inner.counters;
        Metrics {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            insertions: c.insertions.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            ..Metrics::default()
        }
    }

    /// The index hot-path telemetry snapshot (probe counts, rebuilds,
    /// journal depth, snapshot age).
    pub fn index_telemetry(&self) -> IndexTelemetry {
        let c = &self.inner.counters;
        let (snapshot, journal) = self.load();
        IndexTelemetry {
            lookups: c.lookups.load(Ordering::Relaxed),
            probe_count: c.distance_evals.load(Ordering::Relaxed),
            buckets_probed: c.buckets_probed.load(Ordering::Relaxed),
            fallback_scans: c.fallback_scans.load(Ordering::Relaxed),
            rebuilds: c.rebuilds.load(Ordering::Relaxed),
            folded: c.folded.load(Ordering::Relaxed),
            journal_depth: journal.len() as u64,
            snapshot_age: c.lookups_since_rebuild.load(Ordering::Relaxed),
            snapshot_len: snapshot.entries.len() as u64,
            evictions: c.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(all(test, not(feature = "model-check")))]
mod tests {
    use super::*;

    fn v(data: &[f32]) -> FeatureVec {
        FeatureVec::new(data.to_vec())
    }

    fn cache(capacity: u64, batch: usize) -> SnapshotApproxCache<u64> {
        SnapshotApproxCache::new(capacity, 0.3, AnnFamily::DEFAULT_MPLSH, 2, batch)
    }

    #[test]
    fn insert_is_visible_before_any_fold() {
        let c = cache(1 << 20, 64);
        c.insert(v(&[1.0, 0.0]), 7, 100, 0);
        assert_eq!(c.journal_depth(), 1);
        assert_eq!(c.snapshot_version(), 0);
        match c.lookup(&v(&[0.98, 0.02]), 1) {
            Lookup::ApproxHit { value, distance } => {
                assert_eq!(*value, 7);
                assert!(distance < 0.1);
            }
            other => panic!("journaled insert invisible: {other:?}"),
        }
    }

    #[test]
    fn maintain_folds_journal_into_snapshot() {
        let c = cache(1 << 20, 64);
        for i in 0..8u64 {
            let a = i as f32;
            c.insert(v(&[a.cos(), a.sin()]), i, 50, i);
        }
        assert_eq!(c.journal_depth(), 8);
        assert_eq!(c.maintain(100), 8);
        assert_eq!(c.journal_depth(), 0);
        assert_eq!(c.snapshot_version(), 1);
        assert_eq!(c.len(), 8);
        for i in 0..8u64 {
            let a = i as f32 + 0.01;
            let hit = c.lookup(&v(&[a.cos(), a.sin()]), 200);
            assert_eq!(
                hit.into_value().as_deref(),
                Some(&i),
                "entry {i} lost by fold"
            );
        }
        assert_eq!(c.maintain(300), 0, "empty journal folds nothing");
        let t = c.index_telemetry();
        assert_eq!((t.rebuilds, t.folded), (1, 8));
        assert!(t.probe_count > 0);
    }

    #[test]
    fn journal_self_folds_at_batch() {
        let c = cache(1 << 20, 4);
        for i in 0..3u64 {
            assert_eq!(c.insert(v(&[i as f32, 0.0]), i, 10, i), 0);
        }
        assert_eq!(c.insert(v(&[3.0, 0.0]), 3, 10, 3), 4);
        assert_eq!(c.journal_depth(), 0);
        assert_eq!(c.snapshot_version(), 1);
    }

    #[test]
    fn far_query_misses_and_counts() {
        let c = cache(1 << 20, 64);
        c.insert(v(&[1.0, 0.0]), 1, 10, 0);
        assert!(!c.lookup(&v(&[-5.0, 5.0]), 1).is_hit());
        let m = c.metrics();
        assert_eq!((m.hits, m.misses, m.insertions), (0, 1, 1));
    }

    #[test]
    fn eviction_at_fold_respects_recency() {
        let c = cache(250, 64);
        c.insert(v(&[0.0, 1.0]), 0, 100, 0);
        c.insert(v(&[1.0, 0.0]), 1, 100, 1);
        c.maintain(2);
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(c.lookup(&v(&[0.0, 1.0]), 10).is_hit());
        c.insert(v(&[0.0, -1.0]), 2, 100, 20);
        c.maintain(21); // 300 bytes > 250: one eviction
        assert_eq!(c.len(), 2);
        assert!(
            c.lookup(&v(&[0.0, 1.0]), 30).is_hit(),
            "recently used entry evicted"
        );
        assert!(
            !c.lookup(&v(&[1.0, 0.0]), 31).is_hit(),
            "LRU victim survived"
        );
        assert!(c.lookup(&v(&[0.0, -1.0]), 32).is_hit());
        assert_eq!(c.metrics().evictions, 1);
        assert!(c.used_bytes() <= 250);
    }

    #[test]
    fn oversized_insert_is_rejected() {
        let c = cache(100, 64);
        assert_eq!(c.insert(v(&[1.0, 0.0]), 9, 1_000, 0), 0);
        assert!(c.is_empty());
        assert_eq!(c.metrics().rejected, 1);
    }

    #[test]
    fn telemetry_tracks_journal_and_age() {
        let c = cache(1 << 20, 64);
        c.insert(v(&[1.0, 0.0]), 1, 10, 0);
        c.insert(v(&[0.0, 1.0]), 2, 10, 1);
        let _ = c.lookup(&v(&[1.0, 0.0]), 2);
        let t = c.index_telemetry();
        assert_eq!(t.journal_depth, 2);
        assert_eq!(t.snapshot_age, 1);
        assert_eq!(t.snapshot_len, 0);
        c.maintain(3);
        let t = c.index_telemetry();
        assert_eq!((t.journal_depth, t.snapshot_age, t.snapshot_len), (0, 0, 2));
        assert!(t.probes_per_lookup() > 0.0);
        // Publish lands under the index.* keys.
        let reg = MetricsRegistry::new();
        t.publish(&reg);
        assert_eq!(reg.counter("index.rebuild"), 1);
        assert_eq!(reg.gauge("index.snapshot_len"), 2);
    }

    #[test]
    fn all_families_roundtrip() {
        for family in [
            AnnFamily::Linear,
            AnnFamily::DEFAULT_MPLSH,
            AnnFamily::DEFAULT_HNSW,
        ] {
            let c: SnapshotApproxCache<u64> = SnapshotApproxCache::new(1 << 20, 0.3, family, 2, 8);
            for i in 0..12u64 {
                let a = i as f32 * 0.5;
                c.insert(v(&[a.cos(), a.sin()]), i, 50, i);
            }
            c.maintain(100);
            for i in 0..12u64 {
                let a = i as f32 * 0.5 + 0.01;
                let hit = c.lookup(&v(&[a.cos(), a.sin()]), 200);
                assert_eq!(
                    hit.into_value().as_deref(),
                    Some(&i),
                    "{} lost entry {i}",
                    family.label()
                );
            }
        }
    }

    #[test]
    fn concurrent_lookups_and_inserts_smoke() {
        let c: SnapshotApproxCache<u64> =
            SnapshotApproxCache::new(1 << 20, 0.3, AnnFamily::DEFAULT_MPLSH, 2, 16);
        for i in 0..32u64 {
            let a = i as f32 * 0.19;
            c.insert(v(&[a.cos(), a.sin()]), i, 50, i);
        }
        c.maintain(50);
        let readers: Vec<_> = (0..4u64)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..2_000u64 {
                        let a = ((t + i) % 32) as f32 * 0.19 + 0.005;
                        if c.lookup(&v(&[a.cos(), a.sin()]), i).is_hit() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    let a = (i as f32) * 0.31 + 40.0;
                    c.insert(v(&[a.cos(), a.sin()]), 1000 + i, 50, 1000 + i);
                }
            })
        };
        let total: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
        writer.join().expect("writer");
        assert_eq!(total, 8_000, "stored descriptors must always hit");
        c.maintain(10_000);
        assert_eq!(c.len(), 232);
        let m = c.metrics();
        assert_eq!(m.insertions, 232);
        assert!(m.hits >= 8_000);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn bad_threshold_rejected() {
        let _: SnapshotApproxCache<u64> =
            SnapshotApproxCache::new(1024, f32::NAN, AnnFamily::Linear, 2, 8);
    }
}
