//! Single-flight miss coalescing.
//!
//! The first miss on a key becomes the *leader* and drives the upstream
//! fetch; concurrent misses on the same key are *queued* as waiters and
//! share the leader's answer. [`super::EdgeEngine`] queues `(connection,
//! request)` pairs and answers them with the leader's result; the sharded
//! table stays for callers that coalesce across threads without one lock.

use super::sync::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// What [`SingleFlight::claim`] decided for a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightClaim {
    /// No fetch is in flight for this key: the caller must perform it and
    /// then call [`SingleFlight::complete`].
    Leader,
    /// A fetch is already in flight; the caller's waiter was queued and
    /// will be returned to the leader by [`SingleFlight::complete`].
    Queued,
}

/// Coalesces concurrent misses on the same key into one upstream fetch.
#[derive(Debug)]
pub struct SingleFlight<K, W> {
    inflight: HashMap<K, Vec<W>, FnvBuildHasher>,
}

impl<K: Eq + Hash + Clone, W> SingleFlight<K, W> {
    /// An empty table.
    pub fn new() -> SingleFlight<K, W> {
        SingleFlight {
            inflight: HashMap::with_hasher(FnvBuildHasher),
        }
    }

    /// Claim the fetch for `key`. The leader's own waiter is *not* queued —
    /// it answers itself from the fetch result.
    pub fn claim(&mut self, key: K, waiter: W) -> FlightClaim {
        match self.inflight.get_mut(&key) {
            Some(waiters) => {
                waiters.push(waiter);
                FlightClaim::Queued
            }
            None => {
                self.inflight.insert(key, Vec::new());
                FlightClaim::Leader
            }
        }
    }

    /// Finish the flight for `key`, returning every queued waiter for the
    /// leader to answer. Unknown keys return no waiters.
    pub fn complete(&mut self, key: &K) -> Vec<W> {
        self.inflight.remove(key).unwrap_or_default()
    }

    /// Is a fetch currently in flight for `key`?
    pub fn is_inflight(&self, key: &K) -> bool {
        self.inflight.contains_key(key)
    }

    /// Drop every queued waiter `keep` rejects, leaving the flights (and
    /// their leaders) in place.
    pub(crate) fn retain_waiters(&mut self, mut keep: impl FnMut(&W) -> bool) {
        for waiters in self.inflight.values_mut() {
            waiters.retain(&mut keep);
        }
    }

    /// Queued waiters over all flights.
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        self.inflight.values().map(Vec::len).sum()
    }
}

impl<K: Eq + Hash + Clone, W> Default for SingleFlight<K, W> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

/// FNV-1a hashing for the flight tables: shard routing in
/// [`ShardedSingleFlight`] and the waiter maps themselves. `RandomState`
/// would re-randomize key→shard assignment (and map iteration order)
/// every process start, which breaks schedule replay under the model
/// checker and makes contention profiles unreproducible; coalescing
/// correctness only needs same key ⇒ same shard, which any fixed hash
/// provides.
#[derive(Debug, Default, Clone, Copy)]
struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = Fnv1a64;

    fn build_hasher(&self) -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

#[derive(Debug)]
struct Fnv1a64(u64);

impl Hasher for Fnv1a64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A [`SingleFlight`] table split across independently locked shards, so
/// misses on *different* content never contend on one flight mutex — for
/// callers that coalesce across threads without one lock (the edge engine
/// runs a plain table under its own). Coalescing only has to hold for
/// misses on the *same* key, and same key ⇒ same shard.
pub struct ShardedSingleFlight<K, W> {
    shards: Vec<Mutex<SingleFlight<K, W>>>,
    hasher: FnvBuildHasher,
}

impl<K: Eq + Hash + Clone, W> ShardedSingleFlight<K, W> {
    /// An empty table with `shards` independent locks.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> ShardedSingleFlight<K, W> {
        assert!(shards > 0, "shard count must be positive");
        ShardedSingleFlight {
            shards: (0..shards)
                .map(|_| Mutex::new(SingleFlight::new()))
                .collect(),
            hasher: FnvBuildHasher,
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<SingleFlight<K, W>> {
        // lint: allow(no-index-hot-path, index is taken modulo len and the constructor asserts shards > 0)
        &self.shards[(self.hasher.hash_one(key) as usize) % self.shards.len()]
    }

    /// Claim the fetch for `key` (see [`SingleFlight::claim`]).
    pub fn claim(&self, key: K, waiter: W) -> FlightClaim {
        let shard = self.shard_of(&key);
        shard.lock().claim(key, waiter)
    }

    /// Finish the flight for `key`, returning queued waiters.
    pub fn complete(&self, key: &K) -> Vec<W> {
        self.shard_of(key).lock().complete(key)
    }

    /// Is a fetch currently in flight for `key`?
    pub fn is_inflight(&self, key: &K) -> bool {
        self.shard_of(key).lock().is_inflight(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_leads_rest_queue() {
        let mut f: SingleFlight<u32, &str> = SingleFlight::new();
        assert_eq!(f.claim(7, "a"), FlightClaim::Leader);
        assert_eq!(f.claim(7, "b"), FlightClaim::Queued);
        assert_eq!(f.claim(7, "c"), FlightClaim::Queued);
        assert!(f.is_inflight(&7));
        assert_eq!(f.complete(&7), vec!["b", "c"]);
        assert!(!f.is_inflight(&7));
        // After completion the next miss leads again.
        assert_eq!(f.claim(7, "d"), FlightClaim::Leader);
    }

    #[test]
    fn keys_are_independent() {
        let mut f: SingleFlight<u32, u32> = SingleFlight::new();
        assert_eq!(f.claim(1, 10), FlightClaim::Leader);
        assert_eq!(f.claim(2, 20), FlightClaim::Leader);
        assert_eq!(f.claim(1, 11), FlightClaim::Queued);
        assert_eq!(f.complete(&2), Vec::<u32>::new());
        assert_eq!(f.complete(&1), vec![11]);
    }

    #[test]
    fn sharded_table_coalesces_same_key_across_threads() {
        use std::sync::Arc;
        let f: Arc<ShardedSingleFlight<u32, u32>> = Arc::new(ShardedSingleFlight::new(4));
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f.claim(42, i))
            })
            .collect();
        let leaders = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|c| matches!(c, FlightClaim::Leader))
            .count();
        assert_eq!(leaders, 1, "exactly one thread must lead per key");
        assert_eq!(f.complete(&42).len(), 7);
        assert!(!f.is_inflight(&42));
    }
}
