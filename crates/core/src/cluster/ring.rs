//! Deterministic consistent-hash ring over the digest space.

use coic_cache::{fnv1a64, Digest};
use std::collections::BTreeMap;

/// Index of an edge within its cluster (dense, `0..num_edges`).
pub type EdgeId = u32;

/// A consistent-hash ring with deterministic virtual-node placement.
///
/// Every edge derives the identical ring from `(edges, vnodes)` alone —
/// vnode points are FNV-1a hashes of the `(edge, vnode)` pair, and a
/// digest maps to the first vnode at or after its own FNV-1a point
/// (wrapping). No randomness, no gossip: two processes that agree on the
/// member count agree on every owner.
///
/// # Examples
/// ```
/// use coic_core::cluster::HashRing;
/// use coic_cache::Digest;
///
/// let ring = HashRing::new(4, 16);
/// let d = Digest::of(b"frame-9");
/// let walk = ring.walk(&d);
/// assert_eq!(walk[0], ring.owner(&d));
/// assert_eq!(walk.len(), 4); // every edge appears exactly once
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    /// vnode point → owning edge, sorted by point.
    points: BTreeMap<u64, EdgeId>,
    edges: u32,
}

/// Finalizer (splitmix64 mix) on top of FNV-1a: FNV alone has weak
/// avalanche in the high bits on short structured keys, which skews the
/// vnode spread across the `u64` ring badly. The mix restores uniformity
/// while staying a pure deterministic function of the input.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl HashRing {
    /// Build the ring for `edges` members with `vnodes` virtual nodes
    /// each.
    ///
    /// # Panics
    /// Panics when either count is zero.
    pub fn new(edges: u32, vnodes: u32) -> Self {
        assert!(edges > 0, "a ring needs at least one edge");
        assert!(vnodes > 0, "a ring needs at least one vnode per edge");
        let mut points = BTreeMap::new();
        for e in 0..edges {
            for v in 0..vnodes {
                // 0x2f separator: (e=1,v=2) must differ from (e=12,v=..).
                let ([e0, e1, e2, e3], [v0, v1, v2, v3]) = (e.to_le_bytes(), v.to_le_bytes());
                let key = [e0, e1, e2, e3, 0x2f, v0, v1, v2, v3];
                // First writer wins on the (astronomically unlikely) point
                // collision so the ring stays identical on every edge.
                points.entry(mix(fnv1a64(&key))).or_insert(e);
            }
        }
        HashRing { points, edges }
    }

    /// Number of member edges.
    pub fn edges(&self) -> u32 {
        self.edges
    }

    /// The ring coordinate of a digest.
    fn point_of(d: &Digest) -> u64 {
        mix(fnv1a64(d.as_bytes()))
    }

    /// The edge owning `d`'s partition.
    pub fn owner(&self, d: &Digest) -> EdgeId {
        self.walk_points(Self::point_of(d))
            .next()
            // lint: allow(no-unwrap, the constructor asserts edges*vnodes > 0 so the point map is never empty)
            .expect("ring is non-empty by construction")
    }

    /// Every distinct edge in ring order starting at `d`'s owner — the
    /// failover order: `walk[0]` owns the digest, `walk[1]` is the ring
    /// successor that inherits the keyspace when the owner dies, and so
    /// on. Each member appears exactly once.
    pub fn walk(&self, d: &Digest) -> Vec<EdgeId> {
        let mut seen = vec![false; self.edges as usize];
        let mut order = Vec::with_capacity(self.edges as usize);
        for e in self.walk_points(Self::point_of(d)) {
            // Every ring point maps to an edge in 0..edges by
            // construction; `get_mut` keeps that free of panic paths.
            if let Some(s) = seen.get_mut(e as usize) {
                if !*s {
                    *s = true;
                    order.push(e);
                    if order.len() == self.edges as usize {
                        break;
                    }
                }
            }
        }
        order
    }

    /// All vnode owners from `point` onward, wrapping.
    fn walk_points(&self, point: u64) -> impl Iterator<Item = EdgeId> + '_ {
        self.points
            .range(point..)
            .chain(self.points.range(..point))
            .map(|(_, &e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(n: u64) -> impl Iterator<Item = Digest> {
        (0..n).map(|i| Digest::of(&i.to_le_bytes()))
    }

    #[test]
    fn identical_across_constructions() {
        let a = HashRing::new(16, 16);
        let b = HashRing::new(16, 16);
        for d in digests(500) {
            assert_eq!(a.owner(&d), b.owner(&d));
            assert_eq!(a.walk(&d), b.walk(&d));
        }
    }

    /// The ring is an agreement between processes — every edge derives it
    /// alone and all must derive the same one, across versions — so its
    /// placement is pinned: the failover order of
    /// `Digest::of(&i.to_le_bytes())`, `i` in `0..8`, on a (16, 16) ring.
    #[test]
    fn placement_is_pinned() {
        const WALK_PREFIXES: [[EdgeId; 4]; 8] = [
            [3, 15, 12, 6],
            [8, 6, 9, 10],
            [6, 15, 4, 0],
            [0, 12, 5, 1],
            [12, 5, 1, 2],
            [14, 5, 1, 6],
            [9, 4, 1, 3],
            [1, 12, 5, 15],
        ];
        let ring = HashRing::new(16, 16);
        for (d, want) in digests(8).zip(WALK_PREFIXES) {
            assert_eq!(ring.owner(&d), want[0]);
            assert_eq!(ring.walk(&d)[..4], want);
        }
    }

    #[test]
    fn walk_covers_every_edge_once() {
        let ring = HashRing::new(8, 16);
        for d in digests(100) {
            let mut w = ring.walk(&d);
            assert_eq!(w[0], ring.owner(&d));
            w.sort_unstable();
            assert_eq!(w, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let ring = HashRing::new(10, 32);
        let mut counts = vec![0u64; 10];
        for d in digests(10_000) {
            counts[ring.owner(&d) as usize] += 1;
        }
        let (min, max) = (
            *counts.iter().min().expect("non-empty"),
            *counts.iter().max().expect("non-empty"),
        );
        assert!(min > 0, "some edge owns nothing: {counts:?}");
        assert!(
            max < min * 4,
            "partition skew too high (min {min}, max {max}): {counts:?}"
        );
    }

    #[test]
    fn single_edge_owns_everything() {
        let ring = HashRing::new(1, 4);
        for d in digests(50) {
            assert_eq!(ring.owner(&d), 0);
            assert_eq!(ring.walk(&d), vec![0]);
        }
    }

    #[test]
    fn growing_the_ring_moves_a_bounded_fraction() {
        // The consistent-hashing property: adding one edge to N should
        // re-own roughly 1/(N+1) of the keyspace, not reshuffle it all.
        let small = HashRing::new(8, 32);
        let big = HashRing::new(9, 32);
        let total = 4_000u64;
        let moved = digests(total)
            .filter(|d| small.owner(d) != big.owner(d))
            .count() as u64;
        assert!(
            moved * 2 < total,
            "adding one edge moved {moved}/{total} digests"
        );
    }
}
