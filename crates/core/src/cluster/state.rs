//! The composed cluster policy one edge runs.

use super::hot::HotTracker;
use super::membership::Membership;
use super::ring::{EdgeId, HashRing};
use super::stats::ClusterStats;
use super::ClusterConfig;
use crate::engine::BreakerState;
use coic_cache::Digest;
use std::sync::Arc;
use std::time::Duration;

/// The bounded probe plan for one miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePlan {
    /// Peers to probe, ring-walk order from the owner, at most
    /// `peer_fanout` entries, self and breaker-open peers skipped. Empty
    /// means go straight to the cloud.
    pub peers: Vec<EdgeId>,
    /// True when the digest's owner was skipped as dead and the plan
    /// re-routes to ring successors instead.
    pub failover: bool,
}

/// Sans-IO cluster policy from the viewpoint of one edge: where a digest
/// lives ([`HashRing`]), which peers are alive ([`Membership`]), and what
/// is hot enough to replicate ([`HotTracker`] ×2 — one counting this
/// edge's own miss demand, one counting peer-probe demand on entries it
/// owns). Drivers feed it `now_ns` and realize its plans as messages.
pub struct ClusterState {
    cfg: ClusterConfig,
    me: EdgeId,
    /// Every edge of a run derives the same ring, so a simulated cluster
    /// builds it once and shares it.
    ring: Arc<HashRing>,
    membership: Membership,
    /// Miss-path requests landing on *this* edge, per digest: crossing
    /// the threshold keeps a local replica of a non-owned entry.
    local_hot: HotTracker,
    /// Peer probes answered from this edge's cache, per digest: crossing
    /// the threshold pushes a failover copy to the ring successor.
    owner_hot: HotTracker,
    stats: ClusterStats,
}

impl ClusterState {
    /// Build the policy for edge `me` of a `num_edges` cluster.
    ///
    /// # Panics
    /// Panics when `me` is out of range or the cluster is empty.
    pub fn new(me: EdgeId, num_edges: u32, cfg: ClusterConfig) -> Self {
        let ring = Arc::new(HashRing::new(num_edges, cfg.vnodes));
        ClusterState::on_ring(me, ring, cfg)
    }

    /// [`ClusterState::new`] over a ring already built — the one
    /// `HashRing::new(num_edges, cfg.vnodes)` every member derives.
    ///
    /// # Panics
    /// Panics when `me` is not on the ring.
    pub fn on_ring(me: EdgeId, ring: Arc<HashRing>, cfg: ClusterConfig) -> Self {
        let num_edges = ring.edges();
        assert!(me < num_edges, "edge {me} outside cluster of {num_edges}");
        ClusterState {
            me,
            ring,
            membership: Membership::new(
                me,
                num_edges,
                cfg.breaker_threshold,
                Duration::from_millis(cfg.breaker_cooldown_ms),
            ),
            local_hot: HotTracker::new(cfg.replicate_hot),
            owner_hot: HotTracker::new(cfg.replicate_hot),
            stats: ClusterStats::default(),
            cfg,
        }
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The ring (owner/walk queries for tests and tools).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The edge owning `d`'s partition.
    pub fn owner(&self, d: &Digest) -> EdgeId {
        self.ring.owner(d)
    }

    /// Does this edge own `d`?
    pub fn is_owner(&self, d: &Digest) -> bool {
        self.owner(d) == self.me
    }

    /// Shareable counter handle.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Breaker state of a peer as seen from this edge; `None` when the
    /// id is outside the cluster.
    pub fn peer_state(&self, peer: EdgeId) -> Option<BreakerState> {
        self.membership.peer_state(peer)
    }

    /// Build the probe plan for a miss on `d`: walk the ring from the
    /// owner, skip self and peers whose breaker refuses, stop at
    /// `peer_fanout`. Every planned peer consumes a breaker probe grant,
    /// so the driver must settle each one: report the probe's outcome via
    /// [`ClusterState::record_probe`], or hand an unused grant back via
    /// [`ClusterState::cancel_probe`] when the plan resolves before that
    /// peer's probe is sent. The driver also counts
    /// [`ClusterStats::count_probe`] at send time, so the `cluster.
    /// peer_probe` counter reflects probes actually sent, not planned.
    pub fn plan(&mut self, d: &Digest, now_ns: u64) -> ProbePlan {
        // The walk starts at the owner and goes no further than the plan.
        let mut walk = self.ring.walk_iter(d).peekable();
        let owner = walk.peek().copied();
        let mut peers = Vec::new();
        for e in walk {
            if peers.len() as u32 >= self.cfg.peer_fanout {
                break;
            }
            if e == self.me {
                continue;
            }
            // lint: allow(settle-probe-grants, every grant is returned in ProbePlan.peers and the driver settles each via record_probe or cancel_probe — the contract this fn's docs pin)
            if self.membership.allow_probe(e, now_ns) {
                peers.push(e);
            }
        }
        let failover =
            owner.is_some_and(|o| o != self.me && !peers.is_empty() && !peers.contains(&o));
        if failover {
            self.stats.count_failover();
        }
        ProbePlan { peers, failover }
    }

    /// Hand back the probe grant of a planned peer that will not be
    /// probed after all (an earlier peer in the plan already answered).
    /// Without this a half-open peer's single rejoin probe is consumed
    /// by a probe that never happens and the peer can never rejoin.
    pub fn cancel_probe(&mut self, peer: EdgeId) {
        self.membership.cancel_probe(peer);
    }

    /// Report a probe outcome (reply received = `ok`, even a content
    /// miss; timeout / connect failure = `!ok`). Feeds the peer's
    /// breaker, counts a ring rebuild on trip or rejoin, and returns the
    /// breaker's `(from, to)` transition when its state changed so the
    /// driver can emit a `cluster.peer_state` trace event.
    pub fn record_probe(
        &mut self,
        peer: EdgeId,
        ok: bool,
        now_ns: u64,
    ) -> Option<(BreakerState, BreakerState)> {
        let transition = self.membership.record(peer, ok, now_ns);
        if let Some((from, to)) = transition {
            // Trip and rejoin reshape the effective ring; a HalfOpen→Open
            // re-trip routes exactly as before.
            if to == BreakerState::Closed || from == BreakerState::Closed {
                self.stats.count_ring_rebuild();
            }
        }
        transition
    }

    /// Count a miss-path request landing on this edge for `d`. Returns
    /// `true` when the demand just crossed the hot threshold — keep a
    /// local replica of the next result even though we do not own `d`.
    pub fn note_local_request(&mut self, d: &Digest) -> bool {
        self.local_hot.note(d)
    }

    /// Has this edge's own demand for `d` crossed the hot threshold?
    pub fn is_locally_hot(&self, d: &Digest) -> bool {
        self.local_hot.is_hot(d)
    }

    /// Count a peer probe answered from this edge's cache. Returns `true`
    /// when cluster-wide demand for this owned entry just crossed the hot
    /// threshold — push a failover copy to the ring successor.
    pub fn note_owner_request(&mut self, d: &Digest) -> bool {
        self.owner_hot.note(d)
    }

    /// Where a non-owner should push the copy it fetched from the cloud:
    /// the owner, when it is alive. `None` when this edge *is* the owner
    /// or the owner is not safely reachable.
    pub fn placement_target(&self, d: &Digest) -> Option<EdgeId> {
        let owner = self.ring.owner(d);
        (owner != self.me && self.membership.is_closed(owner)).then_some(owner)
    }

    /// Where an owner should push a hot entry's failover copy: the first
    /// alive edge after it on `d`'s ring walk. `None` when no peer is
    /// safely reachable.
    pub fn successor_target(&self, d: &Digest) -> Option<EdgeId> {
        self.ring
            .walk_iter(d)
            .find(|&e| e != self.me && self.membership.is_closed(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dig(i: u64) -> Digest {
        Digest::of(&i.to_le_bytes())
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            peer_fanout: 2,
            replicate_hot: 2,
            breaker_threshold: 1,
            ..ClusterConfig::default()
        }
    }

    /// A digest owned by neither edge 0 nor the walk's second entry being 0.
    fn owned_elsewhere(cl: &ClusterState) -> Digest {
        (0..)
            .map(dig)
            .find(|d| cl.owner(d) != cl.me)
            .expect("some digest is owned elsewhere")
    }

    #[test]
    fn plan_probes_owner_first_and_respects_fanout() {
        let mut cl = ClusterState::new(0, 8, cfg());
        let d = owned_elsewhere(&cl);
        let plan = cl.plan(&d, 0);
        assert_eq!(plan.peers.len(), 2, "fanout bound");
        assert_eq!(plan.peers[0], cl.owner(&d), "owner probed first");
        assert!(!plan.failover);
        assert_eq!(
            cl.stats().snapshot().peer_probes,
            0,
            "probes are counted by the driver at send time, not planned"
        );
    }

    #[test]
    fn dead_owner_reroutes_to_ring_successor() {
        let mut cl = ClusterState::new(0, 4, cfg());
        let d = owned_elsewhere(&cl);
        let owner = cl.owner(&d);
        let walk = cl.ring().walk(&d);
        cl.record_probe(owner, false, 0); // threshold 1: trips immediately
        assert_eq!(cl.stats().snapshot().ring_rebuilds, 1);
        let plan = cl.plan(&d, 1_000_000);
        assert!(plan.failover, "owner skipped as dead");
        assert!(!plan.peers.contains(&owner));
        let successor = walk
            .iter()
            .copied()
            .find(|&e| e != owner && e != cl.me)
            .expect("4-edge walk has a successor");
        assert_eq!(plan.peers[0], successor, "keyspace re-routes in ring order");
        assert_eq!(cl.stats().snapshot().peer_failovers, 1);
    }

    #[test]
    fn plan_excludes_self_and_single_edge_goes_to_cloud() {
        let mut cl = ClusterState::new(0, 1, cfg());
        let plan = cl.plan(&dig(1), 0);
        assert!(plan.peers.is_empty());
        assert!(!plan.failover);
    }

    #[test]
    fn placement_and_successor_targets_track_liveness() {
        let cl0 = ClusterState::new(0, 3, cfg());
        let d = owned_elsewhere(&cl0);
        let owner = cl0.owner(&d);
        assert_eq!(cl0.placement_target(&d), Some(owner));
        // From the owner's own viewpoint there is no placement push…
        let mut at_owner = ClusterState::new(owner, 3, cfg());
        assert_eq!(at_owner.placement_target(&d), None);
        // …and the successor target is the next alive edge on the walk.
        let succ = at_owner.successor_target(&d).expect("3 edges: successor");
        assert_ne!(succ, owner);
        at_owner.record_probe(succ, false, 0);
        let next = at_owner.successor_target(&d);
        assert_ne!(next, Some(succ), "dead successor skipped");
    }

    #[test]
    fn hot_counters_fire_once_per_crossing() {
        let mut cl = ClusterState::new(0, 2, cfg());
        let d = dig(5);
        assert!(!cl.note_local_request(&d));
        assert!(cl.note_local_request(&d), "threshold 2 crossing");
        assert!(!cl.note_local_request(&d));
        assert!(cl.is_locally_hot(&d));
        assert!(!cl.note_owner_request(&d));
        assert!(cl.note_owner_request(&d));
    }

    #[test]
    fn rejoin_after_cooldown_closes_the_breaker() {
        let mut cl = ClusterState::new(0, 2, cfg());
        cl.record_probe(1, false, 0);
        assert_eq!(cl.peer_state(1), Some(BreakerState::Open));
        let after = cl.config().breaker_cooldown_ms * 2 * 1_000_000;
        let plan = cl.plan(&dig(0), after);
        assert_eq!(plan.peers, vec![1], "half-open grants the rejoin probe");
        cl.record_probe(1, true, after + 1);
        assert_eq!(cl.peer_state(1), Some(BreakerState::Closed));
        assert_eq!(cl.stats().snapshot().ring_rebuilds, 2);
    }

    #[test]
    fn cancelled_plan_entry_keeps_the_rejoin_probe_available() {
        let mut cl = ClusterState::new(0, 4, cfg());
        let d = owned_elsewhere(&cl);
        let dead = cl.owner(&d);
        cl.record_probe(dead, false, 0); // threshold 1: trips immediately
        let after = cl.config().breaker_cooldown_ms * 2 * 1_000_000;
        // The plan half-opens `dead` and grants its single rejoin probe,
        // but an earlier peer answers first and the driver never probes
        // it. Cancelling the grant must leave the rejoin path open.
        let plan = cl.plan(&d, after);
        assert!(plan.peers.contains(&dead), "half-open peer is planned");
        cl.cancel_probe(dead);
        let replan = cl.plan(&d, after + 1);
        assert!(
            replan.peers.contains(&dead),
            "rejoin probe still granted after a cancelled plan entry"
        );
        cl.record_probe(dead, true, after + 2);
        assert_eq!(cl.peer_state(dead), Some(BreakerState::Closed));
    }

    #[test]
    fn out_of_range_peer_state_is_none() {
        let cl = ClusterState::new(0, 2, cfg());
        assert_eq!(cl.peer_state(9), None);
    }
}
