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
/// Entries sit still in a slab of slots (`None` marks a slot on the free
/// list, which is refilled before the slab grows); `by_key` maps a key to
/// its slot and is the only hashed structure, and the eviction policy
/// keeps its per-entry state in vectors indexed by slot. A hit is one key
/// hash, one slab index and the policy's O(1) update.
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
    by_key: HashMap<K, usize>,
    slots: Vec<Option<Entry<K, V>>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<usize>,
    /// The next entry's insertion sequence, handed to the policy: unique
    /// over the store's life, where a slot is reused.
    next_seq: u64,
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
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
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
        self.by_key.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn entry(&self, slot: usize) -> &Entry<K, V> {
        self.slots[slot]
            .as_ref()
            .expect("a mapped slot holds an entry")
    }

    /// Take the entry out of `slot`, put the slot on the free list and
    /// tell the policy. The caller removes the key from `by_key`.
    fn release(&mut self, slot: usize) -> Entry<K, V> {
        let entry = self.slots[slot]
            .take()
            .expect("a released slot holds an entry");
        self.free.push(slot);
        self.policy.on_remove(slot);
        self.used_bytes -= entry.size;
        entry
    }

    /// Look `key` up at virtual time `now_ns`, recording hit/miss and
    /// recency. Expired entries count as misses and are removed.
    pub fn get(&mut self, key: &K, now_ns: u64) -> Option<&V> {
        if let Some(adm) = &mut self.admission {
            adm.record(key_hash(key));
        }
        let Some(&slot) = self.by_key.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.entry(slot).expired(now_ns) {
            self.by_key.remove(key);
            self.release(slot);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.policy.on_access(slot);
        Some(&self.entry(slot).value)
    }

    /// Presence check through a shared reference that records nothing: no
    /// counters, no recency, no admission-sketch count, no removal. An
    /// entry whose TTL has elapsed at `now_ns` is reported absent (it
    /// stays in place until a mutating call removes it). Its one caller is
    /// the sharded exact cache's `contains`.
    pub fn peek_valid(&self, key: &K, now_ns: u64) -> Option<&V> {
        let entry = self.entry(*self.by_key.get(key)?);
        (!entry.expired(now_ns)).then_some(&entry.value)
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
        if let Some(old) = self.by_key.remove(&key) {
            self.release(old);
        }
        while self.used_bytes + size > self.capacity_bytes {
            let victim = self
                .policy
                .victim()
                .expect("store over capacity but policy has no victim");
            if let (Some(adm), Some(candidate_hash)) = (&self.admission, candidate_hash) {
                // TinyLFU gate: the newcomer must be warmer than the entry
                // it would displace, else it is turned away at the door.
                let victim_hash = key_hash(&self.entry(victim).key);
                if !adm.admit(candidate_hash, victim_hash) {
                    self.stats.admission_rejects += 1;
                    return evicted;
                }
            }
            let entry = self.release(victim);
            self.by_key.remove(&entry.key);
            self.stats.evictions += 1;
            evicted.push((entry.key, entry.value));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            key: key.clone(),
            value,
            size,
            expires_at_ns: self.ttl_ns.map(|ttl| now_ns + ttl),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.by_key.insert(key, slot);
        self.policy.on_insert(slot, seq, size);
        self.used_bytes += size;
        self.stats.insertions += 1;
        evicted
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.by_key.remove(key)?;
        Some(self.release(slot).value)
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
        let mut s: Store<String, u32> = Store::new(25, PolicyKind::Lru, Some(1_000));
        s.insert("a".into(), 1, 10, 0);
        s.insert("b".into(), 2, 10, 0);
        assert_eq!(s.peek_valid(&"a".into(), 0), Some(&1));
        assert_eq!(s.peek_valid(&"z".into(), 0), None);
        // Past its TTL an entry reads absent, and stays in place.
        assert_eq!(s.peek_valid(&"a".into(), 1_000), None);
        assert_eq!(s.len(), 2);
        assert_eq!(
            *s.stats(),
            CacheStats {
                insertions: 2,
                ..CacheStats::default()
            }
        );
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
