//! Users, zones and content locality.
//!
//! The paper's redundancy argument is *spatial*: "computation-intensive
//! tasks of mobile IC applications can be similar or redundant, especially
//! when applications/users are in the close location". This module models
//! that: users live in zones, each zone has a pool of locally relevant
//! content (the stop signs at those crossroads, the avatars in that arena),
//! and pools of different zones overlap by a controllable fraction.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A user of some IC application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UserId(pub u32);

/// A geographic zone served by one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ZoneId(pub u32);

/// Content identifier (object class, model id or video id depending on the
/// task family).
pub type ContentId = u64;

/// Zone-to-content mapping with controllable cross-zone overlap.
#[derive(Debug, Clone)]
pub struct ZoneModel {
    pools: Vec<Vec<ContentId>>,
}

impl ZoneModel {
    /// Build `zones` pools of `pool_size` content ids each. A fraction
    /// `shared` (in `[0, 1]`) of each pool is drawn from a global shared
    /// set (content popular everywhere); the rest is zone-exclusive.
    ///
    /// # Panics
    /// Panics on zero zones/pool size or `shared` outside `[0, 1]`.
    pub fn new(zones: u32, pool_size: u32, shared: f64, seed: u64) -> Self {
        assert!(
            zones > 0 && pool_size > 0,
            "zones and pools must be non-empty"
        );
        assert!((0.0..=1.0).contains(&shared), "shared fraction in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let shared_count = (pool_size as f64 * shared).round() as u32;
        let exclusive = pool_size - shared_count;
        // The shared portion is literally the same content everywhere (ids
        // 0..shared_count — the globally popular stop signs / avatars);
        // exclusive ids are partitioned by zone so they never collide.
        // Each pool is then shuffled per-zone so popularity rank (Zipf is
        // applied over pool order) mixes shared and local content.
        let mut pools = Vec::with_capacity(zones as usize);
        for z in 0..zones {
            let mut pool: Vec<ContentId> = (0..shared_count as ContentId).collect();
            for e in 0..exclusive {
                pool.push(1_000_000 + (z as ContentId) * 1_000_000 + e as ContentId);
            }
            // Fisher–Yates with the zone model's own RNG.
            for i in (1..pool.len()).rev() {
                let j = rng.random_range(0..=i);
                pool.swap(i, j);
            }
            pools.push(pool);
        }
        ZoneModel { pools }
    }

    /// The content pool of a zone (rank order = popularity order, ready for
    /// Zipf sampling).
    ///
    /// # Panics
    /// Panics for an unknown zone.
    pub fn pool(&self, zone: ZoneId) -> &[ContentId] {
        &self.pools[zone.0 as usize]
    }
}

/// A static population: users assigned round-robin to zones.
#[derive(Debug, Clone)]
pub struct Population {
    assignments: Vec<ZoneId>,
}

impl Population {
    /// Assign `users` round-robin over `zones`.
    ///
    /// # Panics
    /// Panics if either is zero.
    pub fn round_robin(users: u32, zones: u32) -> Self {
        assert!(users > 0 && zones > 0, "population must be non-empty");
        Population {
            assignments: (0..users).map(|u| ZoneId(u % zones)).collect(),
        }
    }

    /// Place every user in one zone (maximum co-location — the paper's
    /// "users in the same place" scenario).
    pub fn colocated(users: u32, zone: ZoneId) -> Self {
        assert!(users > 0, "population must be non-empty");
        Population {
            assignments: (0..users).map(|_| zone).collect(),
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Zone of `user`.
    pub fn zone_of(&self, user: UserId) -> ZoneId {
        self.assignments[user.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of zone `a`'s pool that also appears in zone `b`'s pool.
    fn overlap(zm: &ZoneModel, a: u32, b: u32) -> f64 {
        let pa = zm.pool(ZoneId(a));
        let pb = zm.pool(ZoneId(b));
        let common = pa.iter().filter(|c| pb.contains(c)).count();
        common as f64 / pa.len() as f64
    }

    /// Number of users in a zone.
    fn users_in(p: &Population, zone: u32) -> usize {
        p.assignments.iter().filter(|z| z.0 == zone).count()
    }

    #[test]
    fn pools_have_requested_size() {
        let zm = ZoneModel::new(4, 20, 0.5, 1);
        assert_eq!(zm.pools.len(), 4);
        for z in 0..4 {
            assert_eq!(zm.pool(ZoneId(z)).len(), 20);
        }
    }

    #[test]
    fn zero_shared_means_disjoint_pools() {
        let zm = ZoneModel::new(4, 20, 0.0, 1);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(overlap(&zm, a, b), 0.0);
                }
            }
        }
    }

    #[test]
    fn full_shared_means_identical_content() {
        let zm = ZoneModel::new(2, 50, 1.0, 1);
        assert_eq!(overlap(&zm, 0, 1), 1.0);
    }

    #[test]
    fn overlap_equals_shared_fraction() {
        let zm = ZoneModel::new(3, 40, 0.25, 7);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert!((overlap(&zm, a, b) - 0.25).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn overlap_monotone_in_shared_fraction() {
        let lo = ZoneModel::new(2, 40, 0.2, 9);
        let hi = ZoneModel::new(2, 40, 0.9, 9);
        assert!(overlap(&hi, 0, 1) >= overlap(&lo, 0, 1));
    }

    #[test]
    fn round_robin_spreads_users() {
        let p = Population::round_robin(10, 3);
        assert_eq!(p.len(), 10);
        assert_eq!(p.zone_of(UserId(0)), ZoneId(0));
        assert_eq!(p.zone_of(UserId(4)), ZoneId(1));
        assert_eq!(users_in(&p, 0), 4); // users 0,3,6,9
    }

    #[test]
    fn colocated_puts_everyone_together() {
        let p = Population::colocated(5, ZoneId(2));
        assert_eq!(users_in(&p, 2), 5);
        assert_eq!(users_in(&p, 0), 0);
    }

    #[test]
    #[should_panic(expected = "shared fraction")]
    fn bad_shared_fraction_rejected() {
        let _ = ZoneModel::new(2, 10, 1.5, 0);
    }
}
