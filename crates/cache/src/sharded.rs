//! Sharded concurrent *exact* cache.
//!
//! [`ShardedExactCache`] splits the digest key space across N independent
//! [`ExactCache`] shards (shard = digest bytes mod N), each behind its own
//! mutex, so lookups of keys on different shards never wait for one
//! another. A lookup is one [`crate::store::Store::get`] under its
//! shard's lock: the TinyLFU sketch, recency, TTL expiry and the hit/miss
//! counters are all recorded inline, exactly as the bare cache records
//! them. Values are stored as `Arc<V>`, so a hit clones a reference count
//! under the lock and the guard is dropped **before** any deep clone of
//! the payload (3D model bytes never copy inside the lock — see
//! [`ShardedExactCache::lookup_owned`]). With one shard it makes exactly
//! the decisions of a bare [`ExactCache`] on the same operation stream
//! (`tests/equiv.rs`).
//!
//! A lookup takes the same lock as an insert, so readers of one shard do
//! not run in parallel. The edge builds it with one shard, in the
//! simulator and live alike: its engine makes every exact lookup and
//! insert under its own lock, so more shards would serve no parallel
//! traffic — and the shards split the byte budget, so an entry larger than
//! one shard's share would be rejected where one shard caches it.
//!
//! Digest keys shard cleanly because equality is exact. Descriptor keys do
//! not: sharding the *descriptor space* fragments LSH buckets and forces a
//! miss to probe every shard, which measured worse than a single mutex
//! (DESIGN.md §14). The approximate hot path therefore lives in
//! [`crate::snapshot`] — immutable snapshots with lock-free lookups — not
//! here.

use crate::admission::TinyLfuConfig;
use crate::digest::Digest;
use crate::exact::ExactCache;
use crate::metrics::Metrics;
use crate::policy::PolicyKind;
use crate::sync::Mutex;
use std::sync::Arc;

/// A shard count for callers that lock per key from many threads: enough
/// to make same-shard collisions rare at a few dozen threads. (The edge
/// uses one shard.)
pub const DEFAULT_SHARDS: usize = 8;

/// A shareable exact cache split into N independently locked shards.
pub struct ShardedExactCache<V> {
    shards: Arc<Vec<Mutex<ExactCache<Arc<V>>>>>,
}

impl<V> Clone for ShardedExactCache<V> {
    fn clone(&self) -> Self {
        ShardedExactCache {
            shards: Arc::clone(&self.shards),
        }
    }
}

impl<V> ShardedExactCache<V> {
    /// Create a sharded cache: `capacity_bytes` is the *total* budget,
    /// split evenly across `shards` shards (each at least 1 byte).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(
        capacity_bytes: u64,
        policy: PolicyKind,
        ttl_ns: Option<u64>,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let per_shard = (capacity_bytes / shards as u64).max(1);
        let shards = (0..shards)
            .map(|_| Mutex::new(ExactCache::new(per_shard, policy, ttl_ns)))
            .collect();
        ShardedExactCache {
            shards: Arc::new(shards),
        }
    }

    /// Enable TinyLFU admission on every shard.
    pub fn with_admission(self, cfg: TinyLfuConfig) -> Self {
        for shard in self.shards.iter() {
            let mut guard = shard.lock();
            let plain = std::mem::replace(&mut *guard, ExactCache::new(1, PolicyKind::Lru, None));
            *guard = plain.with_admission(cfg);
        }
        self
    }

    fn shard_of(&self, key: &Digest) -> &Mutex<ExactCache<Arc<V>>> {
        &self.shards[(key.short() as usize) % self.shards.len()]
    }

    /// Look a digest up at `now_ns`, recording the hit or miss, recency,
    /// expiry and the admission sketch under the shard's lock. The
    /// returned `Arc` is cloned under the lock (a reference-count bump,
    /// never a payload copy); the guard is released before this function
    /// returns.
    pub fn lookup(&self, key: &Digest, now_ns: u64) -> Option<Arc<V>> {
        self.shard_of(key).lock().lookup(key, now_ns).cloned()
    }

    /// Presence check without stats or recency side effects (TTL-aware).
    pub fn contains(&self, key: &Digest, now_ns: u64) -> bool {
        self.shard_of(key).lock().peek_valid(key, now_ns).is_some()
    }

    /// Insert a value.
    pub fn insert(&self, key: Digest, value: V, size: u64, now_ns: u64) {
        self.shard_of(&key)
            .lock()
            .insert(key, Arc::new(value), size, now_ns);
    }

    /// The unified counter snapshot: every shard's store counters merged
    /// into one [`Metrics`] view.
    pub fn metrics(&self) -> Metrics {
        let mut total = Metrics::default();
        for shard in self.shards.iter() {
            let s = *shard.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.expired += s.expired;
            total.rejected += s.rejected;
            total.admission_rejects += s.admission_rejects;
        }
        total
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Bytes in use across shards.
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used_bytes()).sum()
    }

    /// Total capacity across shards.
    pub fn capacity_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().capacity_bytes()).sum()
    }
}

impl<V: Clone> ShardedExactCache<V> {
    /// Clone-out lookup. The deep clone of the payload happens **after**
    /// the shard guard is dropped (inside [`ShardedExactCache::lookup`]
    /// only the `Arc` is cloned), so a large 3D-model payload — or a
    /// payload whose `Clone` is pathologically slow — never stalls other
    /// threads on this shard.
    pub fn lookup_owned(&self, key: &Digest, now_ns: u64) -> Option<V> {
        self.lookup(key, now_ns).map(|arc| V::clone(&arc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn exact_roundtrip_across_threads() {
        let cache: ShardedExactCache<String> =
            ShardedExactCache::new(1 << 20, PolicyKind::Lru, None, 4);
        let key = Digest::of(b"model");
        cache.insert(key, "loaded".into(), 100, 0);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = cache.clone();
                std::thread::spawn(move || c.lookup_owned(&key, 0).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), "loaded");
        }
        assert_eq!(cache.metrics().hits, 8);
        assert_eq!(cache.metrics().insertions, 1);
    }

    #[test]
    fn merged_stats_equal_per_thread_observation_sums() {
        let cache: ShardedExactCache<u64> =
            ShardedExactCache::new(1 << 20, PolicyKind::Lru, None, 8);
        for i in 0..16u64 {
            cache.insert(Digest::of(&i.to_le_bytes()), i, 64, 0);
        }
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let c = cache.clone();
                std::thread::spawn(move || {
                    let (mut hits, mut misses) = (0u64, 0u64);
                    for i in 0..400u64 {
                        // Present keys 0..16, absent keys 16..32.
                        let k = (t * 131 + i * 7) % 32;
                        match c.lookup(&Digest::of(&k.to_le_bytes()), 0) {
                            Some(v) => {
                                assert_eq!(*v, k);
                                hits += 1;
                            }
                            None => misses += 1,
                        }
                    }
                    (hits, misses)
                })
            })
            .collect();
        let (mut hits, mut misses) = (0u64, 0u64);
        for h in handles {
            let (a, b) = h.join().unwrap();
            hits += a;
            misses += b;
        }
        let merged = cache.metrics();
        assert_eq!(merged.hits, hits, "merged hits must equal observed sum");
        assert_eq!(merged.misses, misses);
        assert_eq!(merged.lookups(), 8 * 400);
    }

    #[test]
    fn read_path_respects_ttl() {
        let cache: ShardedExactCache<u32> =
            ShardedExactCache::new(1 << 10, PolicyKind::Lru, Some(1_000), 2);
        let key = Digest::of(b"frame");
        cache.insert(key, 7, 10, 0);
        assert_eq!(cache.lookup_owned(&key, 999), Some(7));
        assert_eq!(cache.lookup_owned(&key, 1_000), None);
        let s = cache.metrics();
        assert_eq!((s.hits, s.misses, s.expired), (1, 1, 1));
        assert!(
            cache.is_empty(),
            "the expired entry is removed by its lookup"
        );
    }

    #[test]
    fn capacity_splits_across_shards_and_evicts() {
        let cache: ShardedExactCache<u32> = ShardedExactCache::new(400, PolicyKind::Lru, None, 4);
        assert_eq!(cache.capacity_bytes(), 400);
        for i in 0..40u32 {
            cache.insert(Digest::of(&i.to_le_bytes()), i, 30, 0);
        }
        assert!(cache.used_bytes() <= 400);
        assert!(cache.metrics().evictions > 0);
        assert!(!cache.is_empty());
    }

    /// A stand-in for a huge 3D-model payload whose deep clone is
    /// expensive: cloning sleeps, making it obvious (via timing) whether
    /// the clone ran inside or outside the shard lock.
    #[derive(Debug)]
    struct PoisonedSizePayload {
        label: u32,
    }

    impl Clone for PoisonedSizePayload {
        fn clone(&self) -> Self {
            std::thread::sleep(Duration::from_millis(400));
            PoisonedSizePayload { label: self.label }
        }
    }

    #[test]
    fn deep_clone_happens_outside_the_shard_lock() {
        // Single shard: if lookup_owned deep-cloned under the lock, the
        // concurrent insert below would stall for the whole 400 ms clone.
        let cache: ShardedExactCache<PoisonedSizePayload> =
            ShardedExactCache::new(1 << 20, PolicyKind::Lru, None, 1);
        let key = Digest::of(b"huge model");
        cache.insert(key, PoisonedSizePayload { label: 1 }, 1 << 19, 0);

        let reader = {
            let c = cache.clone();
            std::thread::spawn(move || c.lookup_owned(&key, 0).unwrap())
        };
        // Give the reader time to take and release the shard's lock (the
        // slow clone runs after release).
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        cache.insert(
            Digest::of(b"other"),
            PoisonedSizePayload { label: 2 },
            16,
            0,
        );
        let insert_elapsed = start.elapsed();
        assert_eq!(reader.join().unwrap().label, 1);
        assert!(
            insert_elapsed < Duration::from_millis(250),
            "insert blocked behind a payload clone: {insert_elapsed:?}"
        );
    }

    #[derive(Debug)]
    struct PanickingClone;

    impl Clone for PanickingClone {
        fn clone(&self) -> Self {
            panic!("poisoned payload clone");
        }
    }

    #[test]
    fn panicking_payload_clone_does_not_wedge_the_shard() {
        let cache: ShardedExactCache<PanickingClone> =
            ShardedExactCache::new(1 << 10, PolicyKind::Lru, None, 1);
        let key = Digest::of(b"k");
        cache.insert(key, PanickingClone, 10, 0);
        let c = cache.clone();
        let r = std::thread::spawn(move || {
            let _ = c.lookup_owned(&key, 0); // panics in the clone
        })
        .join();
        assert!(r.is_err(), "clone should have panicked");
        // The shard must still be fully usable: the panic happened after
        // the guard was released (Arc-level lookup still works).
        assert!(cache.lookup(&key, 0).is_some());
        cache.insert(Digest::of(b"k2"), PanickingClone, 10, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = ShardedExactCache::<u32>::new(1024, PolicyKind::Lru, None, 0);
    }
}
