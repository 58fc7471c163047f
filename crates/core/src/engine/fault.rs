//! Deterministic fault schedules for chaos and determinism tests.
//!
//! A schedule names attempts to kill by `(seq, attempt)`, where `seq` is
//! the engine's per-client logical request index (0-based issue order) and
//! `attempt` the 0-based try on a path. Drivers consult the schedule at
//! their IO boundary: the simulator suppresses the send so the virtual
//! deadline fires; the live driver synthesizes an immediate transport
//! failure. Either way the engine sees the same `AttemptFailed` decision,
//! which is what makes sim and live traces byte-identical under faults.

use std::collections::BTreeSet;

/// A deterministic set of injected transport faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    edge: BTreeSet<(u64, u32)>,
    edge_all: BTreeSet<u64>,
}

impl FaultSchedule {
    /// An empty schedule (no injected faults).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Kill one edge-path attempt of logical request `seq`.
    pub fn drop_edge_attempt(mut self, seq: u64, attempt: u32) -> FaultSchedule {
        self.edge.insert((seq, attempt));
        self
    }

    /// Kill every edge-path attempt of logical request `seq`, forcing it
    /// through retry exhaustion into degrade-to-origin (or failure).
    pub fn drop_edge_request(mut self, seq: u64) -> FaultSchedule {
        self.edge_all.insert(seq);
        self
    }

    /// Should this edge-path attempt be killed?
    pub fn edge_dropped(&self, seq: u64, attempt: u32) -> bool {
        self.edge_all.contains(&seq) || self.edge.contains(&(seq, attempt))
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.edge.is_empty() && self.edge_all.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_target_specific_attempts() {
        let f = FaultSchedule::new()
            .drop_edge_attempt(3, 1)
            .drop_edge_request(5);
        assert!(!f.edge_dropped(3, 0));
        assert!(f.edge_dropped(3, 1));
        assert!(f.edge_dropped(5, 0) && f.edge_dropped(5, 7));
        assert!(!f.is_empty());
        assert!(FaultSchedule::new().is_empty());
    }
}
