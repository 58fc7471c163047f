//! The exact store as it was before the slab: a `HashMap` from entry id
//! to entry beside the key map, and policies that keep their per-entry
//! state in `HashMap`s and ordered trees keyed by a never-reused id. It
//! is the oracle the slab store and its slot-indexed policies are
//! checked against, step by step: equal hits and misses, equal evicted
//! `(key, value)` sequences, equal counters, for every policy, with and
//! without TinyLFU and a TTL.

use crate::admission::{TinyLfu, TinyLfuConfig};
use crate::policy::PolicyKind;
use crate::stats::CacheStats;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// The policy interface over never-reused entry ids.
trait EvictionPolicy {
    fn on_insert(&mut self, id: u64, size: u64);
    fn on_access(&mut self, id: u64);
    fn on_remove(&mut self, id: u64);
    fn victim(&self) -> Option<u64>;
}

fn build(kind: PolicyKind) -> Box<dyn EvictionPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::default()),
        PolicyKind::Fifo => Box::new(Fifo::default()),
        PolicyKind::Lfu => Box::new(Lfu::default()),
        PolicyKind::Slru => Box::new(Slru::default()),
        PolicyKind::Gdsf => Box::new(Gdsf::default()),
    }
}

/// Least-recently-used ordering.
#[derive(Default)]
struct Lru {
    tick: u64,
    by_id: HashMap<u64, u64>,
    by_tick: BTreeMap<u64, u64>,
}

impl Lru {
    fn touch(&mut self, id: u64) {
        if let Some(old) = self.by_id.get(&id).copied() {
            self.by_tick.remove(&old);
        }
        self.tick += 1;
        self.by_id.insert(id, self.tick);
        self.by_tick.insert(self.tick, id);
    }
}

impl EvictionPolicy for Lru {
    fn on_insert(&mut self, id: u64, _size: u64) {
        self.touch(id);
    }
    fn on_access(&mut self, id: u64) {
        self.touch(id);
    }
    fn on_remove(&mut self, id: u64) {
        if let Some(t) = self.by_id.remove(&id) {
            self.by_tick.remove(&t);
        }
    }
    fn victim(&self) -> Option<u64> {
        self.by_tick.values().next().copied()
    }
}

/// Insertion-order (FIFO) eviction.
#[derive(Default)]
struct Fifo {
    tick: u64,
    by_id: HashMap<u64, u64>,
    by_tick: BTreeMap<u64, u64>,
}

impl EvictionPolicy for Fifo {
    fn on_insert(&mut self, id: u64, _size: u64) {
        self.tick += 1;
        self.by_id.insert(id, self.tick);
        self.by_tick.insert(self.tick, id);
    }
    fn on_access(&mut self, _id: u64) {}
    fn on_remove(&mut self, id: u64) {
        if let Some(t) = self.by_id.remove(&id) {
            self.by_tick.remove(&t);
        }
    }
    fn victim(&self) -> Option<u64> {
        self.by_tick.values().next().copied()
    }
}

/// Least-frequently-used with LRU tie-breaking.
#[derive(Default)]
struct Lfu {
    tick: u64,
    by_id: HashMap<u64, (u64, u64)>,    // id -> (count, tick)
    ordered: BTreeSet<(u64, u64, u64)>, // (count, tick, id)
}

impl Lfu {
    fn bump(&mut self, id: u64, reset: bool) {
        self.tick += 1;
        let (count, old_tick) = self.by_id.get(&id).copied().unwrap_or((0, 0));
        if count > 0 || old_tick > 0 {
            self.ordered.remove(&(count, old_tick, id));
        }
        let new_count = if reset { 1 } else { count + 1 };
        self.by_id.insert(id, (new_count, self.tick));
        self.ordered.insert((new_count, self.tick, id));
    }
}

impl EvictionPolicy for Lfu {
    fn on_insert(&mut self, id: u64, _size: u64) {
        self.bump(id, true);
    }
    fn on_access(&mut self, id: u64) {
        self.bump(id, false);
    }
    fn on_remove(&mut self, id: u64) {
        if let Some((c, t)) = self.by_id.remove(&id) {
            self.ordered.remove(&(c, t, id));
        }
    }
    fn victim(&self) -> Option<u64> {
        self.ordered.iter().next().map(|&(_, _, id)| id)
    }
}

/// Segmented LRU: entries start on probation; a hit promotes them to the
/// protected segment. Victims come from probation first. The protected
/// segment is bounded to 4× the probation population to guarantee victims
/// keep flowing.
#[derive(Default)]
struct Slru {
    probation: Lru,
    protected: Lru,
    seg: HashMap<u64, bool>, // id -> is_protected
}

impl EvictionPolicy for Slru {
    fn on_insert(&mut self, id: u64, size: u64) {
        self.probation.on_insert(id, size);
        self.seg.insert(id, false);
    }
    fn on_access(&mut self, id: u64) {
        match self.seg.get(&id).copied() {
            Some(false) => {
                self.probation.on_remove(id);
                self.protected.on_insert(id, 0);
                self.seg.insert(id, true);
                // Keep the protected segment from starving probation.
                while self.protected.by_id.len() > 4 * (self.probation.by_id.len() + 1) {
                    if let Some(demote) = self.protected.victim() {
                        self.protected.on_remove(demote);
                        self.probation.on_insert(demote, 0);
                        self.seg.insert(demote, false);
                    } else {
                        break;
                    }
                }
            }
            Some(true) => self.protected.on_access(id),
            None => {}
        }
    }
    fn on_remove(&mut self, id: u64) {
        match self.seg.remove(&id) {
            Some(false) => self.probation.on_remove(id),
            Some(true) => self.protected.on_remove(id),
            None => {}
        }
    }
    fn victim(&self) -> Option<u64> {
        self.probation.victim().or_else(|| self.protected.victim())
    }
}

/// Totally ordered f64 for use in sorted containers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Greedy-Dual-Size-Frequency: priority `L + freq / size`; evicting an
/// entry raises the global ageing level `L` to its priority, so cold small
/// entries eventually lose to fresh large ones.
#[derive(Default)]
struct Gdsf {
    level: f64,
    by_id: HashMap<u64, (u64, u64, f64)>, // id -> (freq, size, priority)
    ordered: BTreeSet<(OrdF64, u64)>,
}

impl Gdsf {
    fn set(&mut self, id: u64, freq: u64, size: u64) {
        if let Some((_, _, p)) = self.by_id.get(&id) {
            self.ordered.remove(&(OrdF64(*p), id));
        }
        let size = size.max(1);
        let priority = self.level + freq as f64 / size as f64;
        self.by_id.insert(id, (freq, size, priority));
        self.ordered.insert((OrdF64(priority), id));
    }
}

impl EvictionPolicy for Gdsf {
    fn on_insert(&mut self, id: u64, size: u64) {
        self.set(id, 1, size);
    }
    fn on_access(&mut self, id: u64) {
        if let Some((freq, size, _)) = self.by_id.get(&id).copied() {
            self.set(id, freq + 1, size);
        }
    }
    fn on_remove(&mut self, id: u64) {
        if let Some((_, _, p)) = self.by_id.remove(&id) {
            self.ordered.remove(&(OrdF64(p), id));
            // Ageing: future priorities start from the evicted level.
            if p > self.level {
                self.level = p;
            }
        }
    }
    fn victim(&self) -> Option<u64> {
        self.ordered.iter().next().map(|&(_, id)| id)
    }
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

/// The map-and-tree store.
pub(crate) struct Store<K, V> {
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
    pub(crate) fn new(capacity_bytes: u64, policy: PolicyKind, ttl_ns: Option<u64>) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        Store {
            capacity_bytes,
            ttl_ns,
            policy: build(policy),
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
    pub(crate) fn with_admission(mut self, cfg: TinyLfuConfig) -> Self {
        self.admission = Some(TinyLfu::new(cfg));
        self
    }

    /// Bytes currently accounted to stored values.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Counters.
    pub(crate) fn stats(&self) -> &CacheStats {
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
    pub(crate) fn get(&mut self, key: &K, now_ns: u64) -> Option<&V> {
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

    /// Insert `value` of `size` bytes under `key`, evicting as needed.
    /// Returns the evicted `(key, value)` pairs (empty when none). A value
    /// larger than the whole cache is rejected and counted.
    pub(crate) fn insert(&mut self, key: K, value: V, size: u64, now_ns: u64) -> Vec<(K, V)> {
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

    /// Remove `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let id = *self.by_key.get(key)?;
        self.remove_id(id).map(|(_, v)| v)
    }
}

mod tests {
    use super::Store as Reference;
    use crate::store::Store;
    use crate::{PolicyKind, TinyLfuConfig};
    use proptest::prelude::*;

    /// About five entries fit, so eviction and the admission gate decide
    /// on most inserts over the 24-key working set.
    const CAPACITY: u64 = 100;

    /// Short against the streams (one step is one virtual nanosecond), so
    /// entries expire while the stream still looks them up.
    const TTL_NS: u64 = 40;

    /// Three size classes, so GDSF sees both ties and distinct
    /// priorities.
    const SIZES: [u64; 3] = [10, 20, 30];

    /// One step: `(op, key, size)`. `op` 0 – 3 looks the key up, 4 – 8
    /// inserts it and 9 removes it. `size` 0 – 6 picks a size class and 7
    /// a value larger than the whole cache, which is rejected.
    type Step = (u8, u32, u8);

    fn steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..10, 0u32..24, 0u8..8), len)
    }

    /// Run `steps` through the slab store and the reference under every
    /// policy, with and without TinyLFU and a TTL, asserting after every
    /// step that both answered alike and count alike.
    fn replay(steps: &[Step]) {
        for policy in PolicyKind::ALL {
            for admission in [None, Some(TinyLfuConfig::default())] {
                for ttl in [None, Some(TTL_NS)] {
                    let mut slab: Store<u32, u64> = Store::new(CAPACITY, policy, ttl);
                    let mut reference: Reference<u32, u64> = Reference::new(CAPACITY, policy, ttl);
                    if let Some(cfg) = admission {
                        slab = slab.with_admission(cfg);
                        reference = reference.with_admission(cfg);
                    }
                    for (step, &(op, key, size)) in steps.iter().enumerate() {
                        let now = step as u64;
                        let at = || {
                            format!(
                                "{policy} admission={} ttl={ttl:?} step {step}",
                                admission.is_some()
                            )
                        };
                        match op {
                            0..=3 => prop_assert_eq!(
                                slab.get(&key, now),
                                reference.get(&key, now),
                                "{}: lookup of {}",
                                at(),
                                key
                            ),
                            4..=8 => {
                                let size = match size {
                                    7 => CAPACITY + 1,
                                    class => SIZES[usize::from(class) % SIZES.len()],
                                };
                                prop_assert_eq!(
                                    slab.insert(key, now, size, now),
                                    reference.insert(key, now, size, now),
                                    "{}: evictions inserting {}",
                                    at(),
                                    key
                                );
                            }
                            _ => prop_assert_eq!(
                                slab.remove(&key),
                                reference.remove(&key),
                                "{}: removal of {}",
                                at(),
                                key
                            ),
                        }
                        prop_assert_eq!(slab.stats(), reference.stats(), "{}", at());
                        prop_assert_eq!(
                            (slab.len(), slab.used_bytes()),
                            (reference.len(), reference.used_bytes()),
                            "{}",
                            at()
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]

        #[test]
        fn the_slab_store_decides_as_the_map_store_did(steps in steps(100..400)) {
            replay(&steps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2_000 })]

        /// The same identity over longer streams and more cases.
        #[test]
        #[ignore = "soak: run with --release -- --ignored"]
        fn the_slab_store_decides_as_the_map_store_did_soak(steps in steps(100..1_500)) {
            replay(&steps);
        }
    }
}
