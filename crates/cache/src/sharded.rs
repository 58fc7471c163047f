//! Sharded, read-optimized concurrent *exact* cache for the live edge.
//!
//! One mutex around a whole cache makes every client connection thread
//! serialize behind every other — lookups included. [`ShardedExactCache`]
//! splits the digest key space across N independent [`ExactCache`] shards
//! (shard = digest bytes mod N), each behind its own `RwLock`, so the hot
//! path (a cache *hit*) takes only a shared read lock on one shard. Values
//! are stored as `Arc<V>`, so a hit clones a reference count under the
//! read lock and the guard is dropped **before** any deep clone of the
//! payload (3D model bytes never copy inside the lock — see
//! [`ShardedExactCache::lookup_owned`]). With one shard it makes exactly
//! the decisions of a bare [`ExactCache`] on the same operation stream —
//! which is how the single-threaded simulator uses it (`tests/equiv.rs`).
//!
//! Digest keys shard cleanly because equality is exact. Descriptor keys do
//! not: sharding the *descriptor space* fragments LSH buckets and forces a
//! miss to probe every shard, which measured worse than a single mutex
//! (DESIGN.md §14). The approximate hot path therefore lives in
//! [`crate::snapshot`] — immutable snapshots with lock-free lookups — not
//! here.
//!
//! Read-path hit/miss counters accumulate in per-shard relaxed atomics and
//! are merged with the write-path store counters on [`stats`] snapshots.
//! Recency is preserved without write-locking on reads: each shard keeps a
//! small pending-touch queue that the next writer drains and replays, so
//! LRU order still tracks access order (batched, slightly delayed). The
//! replay also feeds the shard's TinyLFU sketch, and a shard that has one
//! queues its read-path *misses* too, so the filter sees every lookup in
//! order — a missed key can become popular enough to be admitted — just
//! as [`crate::store::Store::get`] shows them to it inline.
//!
//! The touch protocol is deliberately ordered so a drained hit always
//! refers to a key that is still present:
//!
//! * readers queue the touch **while holding the shard's read guard**, so
//!   no writer can evict the key between the hit and the queue push;
//! * writers drain the queue **after acquiring the shard's write lock**,
//!   so no other writer can evict a queued key between drain and replay.
//!
//! Lock order is `cache` before `touches` on both paths (the lint's
//! lock-order rule pins this); the reader uses `try_lock`, which can only
//! contend with other readers — a writer is excluded by the read guard —
//! so a failed try drops the touch instead of deadlocking. The model
//! checker in `tests/model.rs` explores this protocol's interleavings
//! exhaustively and asserts [`Metrics::touch_dead`] stays zero.
//!
//! [`stats`]: ShardedExactCache::stats

use crate::admission::TinyLfuConfig;
use crate::digest::Digest;
use crate::exact::ExactCache;
use crate::metrics::Metrics;
use crate::policy::PolicyKind;
use crate::sync::{AtomicU64, Mutex, Ordering, RwLock};
use std::sync::Arc;

/// Default shard count for the live edge: enough to make same-shard
/// collisions rare at realistic connection counts without bloating
/// per-shard capacity fragmentation.
pub const DEFAULT_SHARDS: usize = 8;

/// Bound on queued read-path lookups per shard (hits, plus misses when
/// the shard has an admission filter, waiting for the next writer to
/// replay them). Beyond this, further records are dropped — recency and
/// the frequency sketch become approximate, correctness is unaffected.
const MAX_PENDING_TOUCHES: usize = 1024;

/// Per-shard counters for the deferred-touch protocol, published as
/// [`Metrics`]`::touch_*`: hits queued, hits dropped (queue full, or
/// another reader held the queue), queued hits replayed against a
/// still-present key, and queued hits whose key was gone at replay time.
/// The drain protocol makes the last impossible (see the module docs), so
/// `dead` staying zero is the protocol's observable invariant — the model
/// checker and the concurrent regression tests assert on it.
struct TouchCounters {
    queued: AtomicU64,
    dropped: AtomicU64,
    replayed: AtomicU64,
    dead: AtomicU64,
}

impl TouchCounters {
    fn new() -> TouchCounters {
        TouchCounters {
            queued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            dead: AtomicU64::new(0),
        }
    }

    fn merge_into(&self, total: &mut Metrics) {
        total.touch_queued += self.queued.load(Ordering::Relaxed);
        total.touch_dropped += self.dropped.load(Ordering::Relaxed);
        total.touch_replayed += self.replayed.load(Ordering::Relaxed);
        total.touch_dead += self.dead.load(Ordering::Relaxed);
    }

    fn count_replay(&self, live: bool) {
        if live {
            self.replayed.fetch_add(1, Ordering::Relaxed);
        } else {
            debug_assert!(false, "deferred touch replayed against a dead key");
            self.dead.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ------------------------------------------------------------------ exact --

struct ExactShard<V> {
    cache: RwLock<ExactCache<Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Read-path lookups awaiting replay: the key and whether it hit.
    touches: Mutex<Vec<(Digest, bool)>>,
    touch_counters: TouchCounters,
}

/// A shareable exact cache split into N independently locked shards.
pub struct ShardedExactCache<V> {
    shards: Arc<Vec<ExactShard<V>>>,
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
            .map(|_| ExactShard {
                cache: RwLock::new(ExactCache::new(per_shard, policy, ttl_ns)),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                touches: Mutex::new(Vec::new()),
                touch_counters: TouchCounters::new(),
            })
            .collect();
        ShardedExactCache {
            shards: Arc::new(shards),
        }
    }

    /// Enable TinyLFU admission on every shard.
    pub fn with_admission(self, cfg: TinyLfuConfig) -> Self {
        for shard in self.shards.iter() {
            let mut guard = shard.cache.write();
            let plain = std::mem::replace(&mut *guard, ExactCache::new(1, PolicyKind::Lru, None));
            *guard = plain.with_admission(cfg);
        }
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard serving `key` (telemetry: the `shard` field of
    /// `edge.lookup` trace events).
    pub fn shard_of_key(&self, key: &Digest) -> usize {
        (key.short() as usize) % self.shards.len()
    }

    fn shard_of(&self, key: &Digest) -> &ExactShard<V> {
        &self.shards[self.shard_of_key(key)]
    }

    /// Look a digest up at `now_ns`. The returned `Arc` is cloned under a
    /// *read* lock (a reference-count bump, never a payload copy); the
    /// guard is released before this function returns.
    pub fn lookup(&self, key: &Digest, now_ns: u64) -> Option<Arc<V>> {
        let shard = self.shard_of(key);
        let found = {
            let guard = shard.cache.read();
            let found = guard.peek_valid(key, now_ns).cloned();
            let hit = found.is_some();
            if hit || guard.has_admission() {
                // Queue the lookup while still holding the read guard:
                // writers drain the queue only under the write lock, so
                // the key cannot be evicted between a hit and the push.
                // The try_lock can only contend with other readers (the
                // read guard excludes writers), so a failed try drops the
                // record — it never deadlocks.
                let counter = match shard.touches.try_lock() {
                    Some(mut queue) if queue.len() < MAX_PENDING_TOUCHES => {
                        queue.push((*key, hit));
                        &shard.touch_counters.queued
                    }
                    _ => &shard.touch_counters.dropped,
                };
                if hit {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
            found
        };
        // Guard dropped: only the hit/miss atomics remain.
        match found {
            Some(value) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Presence check without stats or recency side effects (TTL-aware).
    pub fn contains(&self, key: &Digest, now_ns: u64) -> bool {
        self.shard_of(key)
            .cache
            .read()
            .peek_valid(key, now_ns)
            .is_some()
    }

    /// Insert a value. The writer first replays queued read-path lookups,
    /// so eviction order keeps tracking access order and the admission
    /// filter has seen every request that preceded this insert.
    pub fn insert(&self, key: Digest, value: V, size: u64, now_ns: u64) {
        let shard = self.shard_of(&key);
        let mut guard = shard.cache.write();
        // Drain only after the write lock is held: touches are queued
        // under the read guard, so every drained touch refers to a key
        // that is still present (evictions happen only under this lock).
        // Draining before locking let a concurrent writer evict a queued
        // key between our drain and our replay, losing the touch — the
        // model checker in tests/model.rs finds that schedule in seconds.
        for (looked_up, hit) in shard.touches.lock().drain(..) {
            let live = guard.touch(&looked_up, now_ns);
            if hit {
                shard.touch_counters.count_replay(live);
            }
        }
        guard.insert(key, Arc::new(value), size, now_ns);
    }

    /// The unified counter snapshot: per-shard read-path atomics, each
    /// shard's write-path store counters, and the deferred-touch protocol
    /// counters, merged into one [`Metrics`] view. [`Metrics::touch_dead`]
    /// must be zero (see the module docs).
    pub fn metrics(&self) -> Metrics {
        let mut total = Metrics::default();
        for shard in self.shards.iter() {
            let s = *shard.cache.read().stats();
            total.hits += s.hits + shard.hits.load(Ordering::Relaxed);
            total.misses += s.misses + shard.misses.load(Ordering::Relaxed);
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.expired += s.expired;
            total.rejected += s.rejected;
            total.admission_rejects += s.admission_rejects;
            shard.touch_counters.merge_into(&mut total);
        }
        total
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.read().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.cache.read().is_empty())
    }

    /// Bytes in use across shards.
    pub fn used_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cache.read().used_bytes())
            .sum()
    }

    /// Total capacity across shards.
    pub fn capacity_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cache.read().capacity_bytes())
            .sum()
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
        assert_eq!((s.hits, s.misses), (1, 1));
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
        // Give the reader time to take and release the read guard (the
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

    #[test]
    fn deferred_touches_never_replay_dead_keys_under_churn() {
        // Regression for the drain-before-lock race: a writer used to
        // drain the touch queue *before* taking the write lock, so a
        // second writer could evict a queued key in between and the
        // drained touch replayed against a dead entry. Tiny capacity +
        // one shard maximizes eviction pressure on the race window.
        let cache: ShardedExactCache<u64> = ShardedExactCache::new(200, PolicyKind::Lru, None, 1);
        let keys: Vec<Digest> = (0..8u64).map(|i| Digest::of(&i.to_le_bytes())).collect();
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let c = cache.clone();
                let keys = keys.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let k = keys[((t * 3 + i) % 8) as usize];
                        c.insert(k, i, 100, i);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let c = cache.clone();
                let keys = keys.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let _ = c.lookup(&keys[((t + i) % 8) as usize], i);
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        // Drain whatever is still queued.
        cache.insert(Digest::of(b"final"), 0, 100, u64::MAX);
        let m = cache.metrics();
        assert_eq!(
            m.touch_dead, 0,
            "touch replayed against an evicted key: {m:?}"
        );
        assert_eq!(
            m.touch_queued, m.touch_replayed,
            "every queued touch must replay"
        );
    }
}
