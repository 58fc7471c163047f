//! Peer liveness: one circuit breaker per cluster member.

use super::ring::EdgeId;
use crate::engine::{BreakerState, CircuitBreaker};
use std::time::Duration;

/// Liveness view of the cluster, built on PR 1's [`CircuitBreaker`]: a
/// peer whose probes keep failing trips Open and drops out of every probe
/// plan; after the cooldown the breaker half-opens and grants a single
/// rejoin probe, exactly the failover behavior the client↔edge path
/// already has. Each Closed→Open trip and each rejoin back to Closed
/// counts as one ring rebuild (the effective ring changed shape).
pub struct Membership {
    breakers: Vec<CircuitBreaker>,
    me: EdgeId,
    rebuilds: u64,
}

impl Membership {
    /// Track `edges` members from the viewpoint of edge `me`.
    pub fn new(me: EdgeId, edges: u32, threshold: u32, cooldown: Duration) -> Self {
        Membership {
            breakers: (0..edges)
                .map(|_| CircuitBreaker::new(threshold, cooldown))
                .collect(),
            me,
            rebuilds: 0,
        }
    }

    /// May `peer` be probed right now? Consults (and, for a cooled-down
    /// Open breaker, half-opens) its breaker — callers must follow every
    /// granted probe with a [`Membership::record`] so the half-open
    /// single-probe accounting stays balanced.
    pub fn allow_probe(&mut self, peer: EdgeId, now_ns: u64) -> bool {
        peer != self.me
            && self
                .breakers
                .get(peer as usize)
                .is_some_and(|b| b.allow(now_ns))
    }

    /// Hand back a probe grant that will not be used (the caller's batch
    /// resolved before this peer's turn). Keeps the half-open
    /// single-probe accounting balanced without inventing an outcome.
    pub fn cancel_probe(&mut self, peer: EdgeId) {
        if peer == self.me {
            return;
        }
        if let Some(b) = self.breakers.get(peer as usize) {
            b.cancel_probe();
        }
    }

    /// Non-mutating liveness check: is `peer` fully Closed? Used for
    /// replication targets, where a probing half-open peer is not yet a
    /// safe place to put a failover copy.
    pub fn is_closed(&self, peer: EdgeId) -> bool {
        peer != self.me
            && self
                .breakers
                .get(peer as usize)
                .is_some_and(|b| b.state() == BreakerState::Closed)
    }

    /// Breaker state of a peer; `None` when the id is outside the
    /// cluster (self reports Closed).
    pub fn peer_state(&self, peer: EdgeId) -> Option<BreakerState> {
        self.breakers.get(peer as usize).map(|b| b.state())
    }

    /// Record a probe outcome. Returns the breaker's `(from, to)` state
    /// transition when it changed state, `None` otherwise (including for
    /// self and out-of-range ids). The effective ring changed shape —
    /// and a rebuild is counted — when the peer tripped out
    /// (Closed→Open) or rejoined (HalfOpen→Closed); a HalfOpen→Open
    /// re-trip changes nothing the ring already routed around.
    pub fn record(
        &mut self,
        peer: EdgeId,
        ok: bool,
        now_ns: u64,
    ) -> Option<(BreakerState, BreakerState)> {
        if peer == self.me {
            return None;
        }
        let b = self.breakers.get(peer as usize)?;
        let before = b.state();
        b.record(ok, now_ns);
        let after = b.state();
        if before == after {
            return None;
        }
        let tripped = before == BreakerState::Closed && after == BreakerState::Open;
        let rejoined = after == BreakerState::Closed;
        if tripped || rejoined {
            self.rebuilds += 1;
        }
        Some((before, after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn failures_trip_a_peer_and_count_a_rebuild() {
        let mut m = Membership::new(0, 3, 2, Duration::from_millis(100));
        assert!(m.allow_probe(1, 0));
        assert!(m.record(1, false, MS).is_none());
        assert!(m.allow_probe(1, 2 * MS));
        assert_eq!(
            m.record(1, false, 3 * MS),
            Some((BreakerState::Closed, BreakerState::Open)),
            "threshold trip rebuilds"
        );
        assert_eq!(m.rebuilds, 1);
        assert!(!m.allow_probe(1, 4 * MS), "open peer is skipped");
        assert!(!m.is_closed(1));
    }

    #[test]
    fn cooldown_rejoin_counts_a_second_rebuild() {
        let mut m = Membership::new(0, 2, 1, Duration::from_millis(10));
        m.allow_probe(1, 0);
        m.record(1, false, 0);
        assert_eq!(m.rebuilds, 1);
        // Cooldown passed: half-open grants exactly one probe.
        assert!(m.allow_probe(1, 20 * MS));
        assert!(!m.allow_probe(1, 20 * MS), "single half-open probe");
        assert_eq!(
            m.record(1, true, 21 * MS),
            Some((BreakerState::HalfOpen, BreakerState::Closed)),
            "rejoin rebuilds"
        );
        assert_eq!(m.rebuilds, 2);
        assert!(m.is_closed(1));
    }

    #[test]
    fn cancelled_grant_leaves_the_rejoin_probe_available() {
        let mut m = Membership::new(0, 2, 1, Duration::from_millis(10));
        m.allow_probe(1, 0);
        m.record(1, false, 0);
        // Half-open slot granted, then the caller resolves early without
        // probing: the grant must come back so the peer can still rejoin.
        assert!(m.allow_probe(1, 20 * MS));
        m.cancel_probe(1);
        assert!(m.allow_probe(1, 21 * MS), "grant reissued after cancel");
        assert!(
            m.record(1, true, 22 * MS).is_some(),
            "rejoin still possible"
        );
        assert!(m.is_closed(1));
    }

    #[test]
    fn out_of_range_peer_is_harmless() {
        let mut m = Membership::new(0, 2, 1, Duration::from_millis(10));
        assert!(!m.allow_probe(7, 0));
        assert!(!m.is_closed(7));
        assert_eq!(m.peer_state(7), None);
        assert!(m.record(7, false, 0).is_none());
        m.cancel_probe(7);
        assert_eq!(m.rebuilds, 0);
    }

    #[test]
    fn self_is_never_probed() {
        let mut m = Membership::new(1, 3, 1, Duration::from_millis(10));
        assert!(!m.allow_probe(1, 0));
        assert!(!m.is_closed(1));
        assert!(m.record(1, false, 0).is_none());
        assert_eq!(m.rebuilds, 0);
    }
}
