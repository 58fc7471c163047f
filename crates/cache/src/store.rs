//! Size-aware entry store with pluggable eviction and optional TTL.
//!
//! The store is the mechanical half of the edge cache: it accounts bytes,
//! expires entries, and asks the [`crate::policy`] for victims when
//! capacity runs out. Key typing (exact digest vs. approximate descriptor)
//! is layered on top in [`crate::exact`] and [`crate::approx`].

use crate::admission::{TinyLfu, TinyLfuConfig};
use crate::policy::{EvictionPolicy, PolicyKind};
use crate::stats::CacheStats;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

struct Entry<K, V> {
    key: K,
    value: V,
    size: u64,
    expires_at_ns: Option<u64>,
}

impl<K, V> Entry<K, V> {
    fn expired(&self, now_ns: u64) -> bool {
        self.expires_at_ns.is_some_and(|t| now_ns >= t)
    }
}

/// A bounded, size-aware key-value store.
///
/// # Examples
/// ```
/// use coic_cache::{PolicyKind, Store};
///
/// let mut store: Store<&str, u32> = Store::new(25, PolicyKind::Lru, None);
/// store.insert("a", 1, 10, 0);
/// store.insert("b", 2, 10, 0);
/// let _ = store.get(&"a", 0);            // touch "a" so "b" is coldest
/// let evicted = store.insert("c", 3, 10, 0);
/// assert_eq!(evicted, vec![("b", 2)]);   // LRU victim
/// assert!(store.used_bytes() <= 25);
/// ```
pub struct Store<K, V> {
    capacity_bytes: u64,
    ttl_ns: Option<u64>,
    policy: Box<dyn EvictionPolicy>,
    admission: Option<TinyLfu>,
    by_key: HashMap<K, u64>,
    entries: HashMap<u64, Entry<K, V>>,
    next_id: u64,
    used_bytes: u64,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V> Store<K, V> {
    /// Create a store holding at most `capacity_bytes` of values under the
    /// given eviction policy. `ttl_ns` (if set) expires entries that many
    /// virtual nanoseconds after insertion.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: u64, policy: PolicyKind, ttl_ns: Option<u64>) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        Store {
            capacity_bytes,
            ttl_ns,
            policy: policy.build(),
            admission: None,
            by_key: HashMap::new(),
            entries: HashMap::new(),
            next_id: 0,
            used_bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Enable TinyLFU admission: when full, a new entry must have a higher
    /// estimated request frequency than the eviction victim to get in.
    pub fn with_admission(mut self, cfg: TinyLfuConfig) -> Self {
        self.admission = Some(TinyLfu::new(cfg));
        self
    }

    /// Is a TinyLFU admission filter installed?
    pub fn has_admission(&self) -> bool {
        self.admission.is_some()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently accounted to stored values.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn remove_id(&mut self, id: u64) -> Option<(K, V)> {
        let entry = self.entries.remove(&id)?;
        self.by_key.remove(&entry.key);
        self.policy.on_remove(id);
        self.used_bytes -= entry.size;
        Some((entry.key, entry.value))
    }

    /// Look `key` up at virtual time `now_ns`, recording hit/miss and
    /// recency. Expired entries count as misses and are removed.
    pub fn get(&mut self, key: &K, now_ns: u64) -> Option<&V> {
        if let Some(adm) = &mut self.admission {
            adm.record(key_hash(key));
        }
        let Some(&id) = self.by_key.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.entries[&id].expired(now_ns) {
            self.remove_id(id);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.policy.on_access(id);
        Some(&self.entries[&id].value)
    }

    /// Check presence without touching stats or recency (diagnostics).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let id = self.by_key.get(key)?;
        Some(&self.entries[id].value)
    }

    /// TTL-aware presence check through a shared reference: like
    /// [`Store::peek`] but an entry whose TTL has elapsed at `now_ns` is
    /// reported absent (it stays in place until a mutating call removes
    /// it). This is the read path of the sharded concurrent wrappers,
    /// where lookups hold only a read lock and must not mutate anything.
    pub fn peek_valid(&self, key: &K, now_ns: u64) -> Option<&V> {
        let entry = &self.entries[self.by_key.get(key)?];
        (!entry.expired(now_ns)).then_some(&entry.value)
    }

    /// Replay a lookup of `key` without recording a hit or a miss: every
    /// side effect of [`Store::get`] (admission sketch, recency, removal
    /// of an expired entry) minus the stats. The sharded wrapper counts
    /// hits and misses on its read path and replays them here under the
    /// next write lock, so eviction order and the TinyLFU filter still
    /// track the request stream without double-counting. Returns `false`
    /// when the key is absent — for a replayed *hit* the wrapper's drain
    /// protocol guarantees that never happens, and model/regression tests
    /// pin that invariant on the return value.
    pub fn touch(&mut self, key: &K, now_ns: u64) -> bool {
        if let Some(adm) = &mut self.admission {
            adm.record(key_hash(key));
        }
        let Some(&id) = self.by_key.get(key) else {
            return false;
        };
        if self.entries[&id].expired(now_ns) {
            self.remove_id(id);
            self.stats.expired += 1;
            return true;
        }
        self.policy.on_access(id);
        true
    }

    /// Insert `value` of `size` bytes under `key`, evicting as needed.
    /// Returns the evicted `(key, value)` pairs (empty when none). A value
    /// larger than the whole cache is rejected and counted.
    pub fn insert(&mut self, key: K, value: V, size: u64, now_ns: u64) -> Vec<(K, V)> {
        if size > self.capacity_bytes {
            self.stats.rejected += 1;
            return Vec::new();
        }
        let mut evicted = Vec::new();
        // Only the TinyLFU filter reads the key's hash: without one, the
        // key is never hashed.
        let candidate_hash = self.admission.as_mut().map(|adm| {
            let hash = key_hash(&key);
            adm.record(hash);
            hash
        });
        // Replace an existing entry under the same key.
        if let Some(&old) = self.by_key.get(&key) {
            self.remove_id(old);
        }
        while self.used_bytes + size > self.capacity_bytes {
            let victim = self
                .policy
                .victim()
                .expect("store over capacity but policy has no victim");
            if let (Some(adm), Some(candidate_hash)) = (&self.admission, candidate_hash) {
                // TinyLFU gate: the newcomer must be warmer than the entry
                // it would displace, else it is turned away at the door.
                let victim_hash = key_hash(&self.entries.get(&victim).expect("victim exists").key);
                if !adm.admit(candidate_hash, victim_hash) {
                    self.stats.admission_rejects += 1;
                    return evicted;
                }
            }
            let pair = self
                .remove_id(victim)
                .expect("policy returned unknown victim");
            self.stats.evictions += 1;
            evicted.push(pair);
        }
        let id = self.next_id;
        self.next_id += 1;
        let expires_at_ns = self.ttl_ns.map(|ttl| now_ns + ttl);
        self.entries.insert(
            id,
            Entry {
                key: key.clone(),
                value,
                size,
                expires_at_ns,
            },
        );
        self.by_key.insert(key, id);
        self.policy.on_insert(id, size);
        self.used_bytes += size;
        self.stats.insertions += 1;
        evicted
    }

    /// Iterate over all live `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.values().map(|e| (&e.key, &e.value))
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let id = *self.by_key.get(key)?;
        self.remove_id(id).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(cap: u64) -> Store<String, u32> {
        Store::new(cap, PolicyKind::Lru, None)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut s = store(100);
        s.insert("a".into(), 1, 10, 0);
        assert_eq!(s.get(&"a".into(), 0), Some(&1));
        assert_eq!(s.get(&"b".into(), 0), None);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.used_bytes(), 10);
    }

    #[test]
    fn capacity_is_enforced_by_eviction() {
        let mut s = store(25);
        s.insert("a".into(), 1, 10, 0);
        s.insert("b".into(), 2, 10, 0);
        let evicted = s.insert("c".into(), 3, 10, 0);
        assert_eq!(evicted, vec![("a".into(), 1)]);
        assert!(s.used_bytes() <= 25);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn lru_access_protects_entry() {
        let mut s = store(25);
        s.insert("a".into(), 1, 10, 0);
        s.insert("b".into(), 2, 10, 0);
        let _ = s.get(&"a".into(), 0); // a is now hotter than b
        let evicted = s.insert("c".into(), 3, 10, 0);
        assert_eq!(evicted, vec![("b".into(), 2)]);
    }

    #[test]
    fn replacement_under_same_key_keeps_one_entry() {
        let mut s = store(100);
        s.insert("a".into(), 1, 10, 0);
        s.insert("a".into(), 2, 30, 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 30);
        assert_eq!(s.get(&"a".into(), 0), Some(&2));
    }

    #[test]
    fn oversized_value_rejected() {
        let mut s = store(10);
        let evicted = s.insert("big".into(), 1, 11, 0);
        assert!(evicted.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.stats().rejected, 1);
    }

    #[test]
    fn ttl_expires_on_get() {
        let mut s: Store<String, u32> = Store::new(100, PolicyKind::Lru, Some(1_000));
        s.insert("a".into(), 1, 10, 0);
        assert_eq!(s.get(&"a".into(), 999), Some(&1));
        assert_eq!(s.get(&"a".into(), 1_000), None);
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn remove_returns_value() {
        let mut s = store(100);
        s.insert("a".into(), 7, 10, 0);
        assert_eq!(s.remove(&"a".into()), Some(7));
        assert_eq!(s.remove(&"a".into()), None);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn peek_does_not_affect_stats_or_order() {
        let mut s = store(25);
        s.insert("a".into(), 1, 10, 0);
        s.insert("b".into(), 2, 10, 0);
        assert_eq!(s.peek(&"a".into()), Some(&1));
        assert_eq!(s.stats().hits, 0);
        // a was peeked, not touched: it is still the LRU victim.
        let evicted = s.insert("c".into(), 3, 10, 0);
        assert_eq!(evicted, vec![("a".into(), 1)]);
    }

    #[test]
    fn multi_eviction_for_large_insert() {
        let mut s = store(30);
        s.insert("a".into(), 1, 10, 0);
        s.insert("b".into(), 2, 10, 0);
        s.insert("c".into(), 3, 10, 0);
        let evicted = s.insert("d".into(), 4, 25, 0);
        assert_eq!(evicted.len(), 3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn admission_protects_hot_entries() {
        use crate::admission::TinyLfuConfig;
        let mut s: Store<u32, u32> =
            Store::new(30, PolicyKind::Lru, None).with_admission(TinyLfuConfig::default());
        // Warm three entries with repeated gets.
        for k in 0..3u32 {
            s.insert(k, k, 10, 0);
        }
        for _ in 0..5 {
            for k in 0..3u32 {
                let _ = s.get(&k, 0);
            }
        }
        // A cold scan of new keys must bounce off the filter.
        for k in 100..120u32 {
            s.insert(k, k, 10, 0);
        }
        for k in 0..3u32 {
            assert!(s.get(&k, 0).is_some(), "hot key {k} was displaced");
        }
        assert!(s.stats().admission_rejects >= 19);
    }

    #[test]
    fn admission_lets_warmer_newcomers_in() {
        use crate::admission::TinyLfuConfig;
        let mut s: Store<u32, u32> =
            Store::new(20, PolicyKind::Lru, None).with_admission(TinyLfuConfig::default());
        s.insert(1, 1, 10, 0);
        s.insert(2, 2, 10, 0);
        // Key 9 becomes genuinely popular (misses recorded via get).
        for _ in 0..8 {
            let _ = s.get(&9, 0);
        }
        s.insert(9, 9, 10, 0);
        assert!(s.get(&9, 0).is_some(), "popular newcomer must be admitted");
    }

    #[test]
    fn works_with_every_policy() {
        for kind in PolicyKind::ALL {
            let mut s: Store<u32, u32> = Store::new(100, kind, None);
            for i in 0..50u32 {
                s.insert(i, i, 7, 0);
                if i % 2 == 0 {
                    let _ = s.get(&i, 0);
                }
            }
            assert!(s.used_bytes() <= 100, "{kind} exceeded capacity");
            assert!(s.len() <= 14);
            assert!(!s.is_empty());
        }
    }
}
