//! Exact-match result cache keyed by content digest.
//!
//! This is CoIC's lookup structure for 3D-model and panorama tasks: "For 3D
//! object rendering and VR video streaming tasks, CoIC uses the hash value
//! of the required 3D model or panoramic frames as the feature descriptor."

use crate::admission::TinyLfuConfig;
use crate::digest::Digest;
use crate::policy::PolicyKind;
use crate::stats::CacheStats;
use crate::store::Store;

/// A digest-keyed cache of task results.
///
/// # Examples
/// ```
/// use coic_cache::{Digest, ExactCache, PolicyKind};
///
/// let mut cache: ExactCache<&str> = ExactCache::new(1024, PolicyKind::Lru, None);
/// let key = Digest::of(b"panorama frame 7");
/// cache.insert(key, "frame bytes", 100, 0);
/// assert_eq!(cache.lookup(&key, 1), Some(&"frame bytes"));
/// assert_eq!(cache.lookup(&Digest::of(b"other"), 1), None);
/// ```
pub struct ExactCache<V> {
    store: Store<Digest, V>,
}

impl<V> ExactCache<V> {
    /// Create a cache with `capacity_bytes` and the given policy; `ttl_ns`
    /// optionally expires entries.
    pub fn new(capacity_bytes: u64, policy: PolicyKind, ttl_ns: Option<u64>) -> Self {
        ExactCache {
            store: Store::new(capacity_bytes, policy, ttl_ns),
        }
    }

    /// Enable TinyLFU admission on the underlying store.
    pub fn with_admission(self, cfg: TinyLfuConfig) -> Self {
        ExactCache {
            store: self.store.with_admission(cfg),
        }
    }

    /// Look a digest up at virtual time `now_ns`.
    pub fn lookup(&mut self, key: &Digest, now_ns: u64) -> Option<&V> {
        self.store.get(key, now_ns)
    }

    /// TTL-aware read-only lookup: no stats, no recency, no removal
    /// ([`crate::sharded::ShardedExactCache::contains`]).
    pub fn peek_valid(&self, key: &Digest, now_ns: u64) -> Option<&V> {
        self.store.peek_valid(key, now_ns)
    }

    /// Insert a result of `size` bytes; returns evicted values.
    pub fn insert(&mut self, key: Digest, value: V, size: u64, now_ns: u64) -> Vec<(Digest, V)> {
        self.store.insert(key, value, size, now_ns)
    }

    /// Remove a digest.
    pub fn remove(&mut self, key: &Digest) -> Option<V> {
        self.store.remove(key)
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        self.store.stats()
    }

    /// Number of cached results.
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

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.store.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_keyed_roundtrip() {
        let mut c: ExactCache<String> = ExactCache::new(1024, PolicyKind::Lru, None);
        let model = b"some 3d model bytes";
        let key = Digest::of(model);
        c.insert(key, "loaded".into(), 100, 0);
        assert_eq!(c.lookup(&key, 0), Some(&"loaded".to_string()));
        assert_eq!(c.lookup(&Digest::of(b"other"), 0), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_content_same_key_across_instances() {
        // Two nodes hashing the same model must agree on the cache key.
        let a = Digest::of(b"panorama frame 7");
        let b = Digest::of(b"panorama frame 7");
        assert_eq!(a, b);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut c: ExactCache<u32> = ExactCache::new(100, PolicyKind::Lru, None);
        for i in 0..20u32 {
            c.insert(Digest::of(&i.to_le_bytes()), i, 30, 0);
        }
        assert!(c.used_bytes() <= 100);
        assert!(c.len() <= 3);
        assert!(c.stats().evictions >= 17);
    }
}
