//! Cooperative multi-edge cluster tier.
//!
//! The paper deploys exactly one edge; production deploys fleets. This
//! module adds the cooperative tier ROADMAP item 2 calls for, grounded in
//! "Cooperative Service Caching and Workload Scheduling in Mobile Edge
//! Computing" (arXiv 2002.01358): co-located edges partition the exact
//! (digest-keyed) descriptor space over a consistent-hash ring and answer
//! each other's misses before paying the WAN round trip to the cloud.
//!
//! The tier is sans-IO like the rest of the engine: [`ClusterState`] is a
//! plain state machine fed `now_ns` by its driver, so the simulator drives
//! 10–100 virtual edges deterministically from one seed and `netrun` runs
//! a real TCP cluster through the identical policy code. Four pieces:
//!
//! * [`HashRing`] — deterministic virtual-node placement of N edges over
//!   the digest space (FNV-1a points, `vnodes` per edge). Every edge
//!   computes the identical ring from `(num_edges, vnodes)` alone, so
//!   there is no membership gossip to converge.
//! * [`Membership`] — one [`CircuitBreaker`](crate::engine::CircuitBreaker)
//!   per peer (PR 1's breaker, reused verbatim): probe failures trip a
//!   peer out of the ring, the cooldown half-open lets a restarted edge
//!   rejoin, and every trip/rejoin counts as a ring rebuild.
//! * [`HotTracker`] — per-digest request counters driving replication
//!   *where requests land, not where inserts happened*: an edge that keeps
//!   seeing misses for a digest it does not own keeps a local replica once
//!   the counter crosses the threshold, and an owner that keeps answering
//!   peer probes for a digest pushes a failover copy to its ring
//!   successor.
//! * [`ClusterState`] — composes the three into the probe plan a miss
//!   follows: walk the ring from the digest's owner, skip self and
//!   breaker-open peers, probe at most `peer_fanout` peers, then fall back
//!   to the cloud. A dead owner is skipped, so its keyspace re-routes to
//!   the next ring successor *before* any cloud fallback.
//!
//! Drivers surface the tier through `cluster.*` counters
//! ([`ClusterStats`]) and `decision.peer_*` trace events. See DESIGN.md
//! §15.

mod hot;
mod membership;
mod ring;
mod state;
mod stats;

pub use hot::HotTracker;
pub use membership::Membership;
pub use ring::{EdgeId, HashRing};
pub use state::{ClusterState, ProbePlan};
pub use stats::{ClusterSnapshot, ClusterStats};

/// Configuration of the cooperative cluster tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Virtual nodes per edge on the consistent-hash ring. More vnodes
    /// smooth the partition sizes; 16 keeps the max/min keyspace ratio
    /// under ~2 for fleets up to 100 edges.
    pub vnodes: u32,
    /// Bounded peer fan-out: a miss probes at most this many peers
    /// (ring walk order from the owner) before forwarding to the cloud.
    pub peer_fanout: u32,
    /// Hot-entry replication threshold: once this many miss-path requests
    /// for one digest land on an edge, that edge keeps a local replica
    /// (and an owner seeing this many peer probes pushes a failover copy
    /// to its ring successor). Zero disables hot replication entirely —
    /// pure partitioning, where only the owner caches each digest.
    pub replicate_hot: u32,
    /// How long the simulator waits for a peer probe before counting it
    /// as a failure against that peer's breaker. (The live driver uses
    /// its socket deadlines instead.)
    pub peer_timeout_ms: u64,
    /// Consecutive probe failures before a peer is tripped out of the
    /// ring.
    pub breaker_threshold: u32,
    /// Cooldown before a tripped peer is half-opened for a rejoin probe.
    pub breaker_cooldown_ms: u64,
    /// Shared cluster secret mixed into the replication-push token every
    /// [`Msg::Replicate`](crate::protocol::Msg) carries: an edge installs
    /// a pushed entry only when the token matches its own, so a stray or
    /// hostile connection that merely reaches the edge port cannot poison
    /// the cache. The live driver additionally folds the member address
    /// list into the token, binding pushes to the joined membership; set
    /// a random value here for deployments where the member list is
    /// guessable. Zero (the default) keeps the membership binding alone.
    pub auth_token: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            vnodes: 16,
            peer_fanout: 2,
            replicate_hot: 3,
            peer_timeout_ms: 50,
            breaker_threshold: 3,
            breaker_cooldown_ms: 500,
            auth_token: 0,
        }
    }
}
