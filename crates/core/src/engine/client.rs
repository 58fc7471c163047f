//! The sans-IO client request state machine.
//!
//! One request's lifecycle — prepare → descriptor query → hit/miss →
//! retry with backoff → deadline expiry → degrade-to-origin → edge
//! re-probe — lives here as a pure state machine. The engine performs no
//! IO and arms no real timers: drivers feed it events (timer fired, reply
//! arrived, transport failed) and it returns [`Effect`]s describing what
//! to do next. The simulator realizes effects with virtual timers and
//! simulated links; the live driver with sockets and sleeps. Both traverse
//! the same [`Decision`] trace for the same workload and fault schedule.
//!
//! The engine's memory is bounded by the requests in flight: a request's
//! state is dropped when it emits [`Effect::Complete`] (which carries the
//! only copy of its QoE record) or [`Effect::GiveUp`], and a later timer or
//! reply for it finds nothing and is a no-op. Decisions wait in a buffer
//! until the driver takes them with [`ClientEngine::drain_decisions`].

use super::clock::Clock;
use super::retry::RetryPolicy;
use super::stats::RobustnessStats;
use crate::qoe::{Path, Record};
use std::collections::HashMap;

/// Parameters of the client orchestration engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-path retry/backoff budget. The engine is the *only* consumer of
    /// [`RetryPolicy`]; drivers never compute backoffs.
    pub retry: RetryPolicy,
    /// Per-attempt reply deadline, ns. Zero disables deadline timers (only
    /// safe when the transport itself reports failures).
    pub deadline_ns: u64,
    /// While degraded, minimum spacing between edge re-probes, ns.
    pub probe_interval_ns: u64,
    /// Route requests through the cooperative edge path. `false` is the
    /// origin baseline: every request goes straight to the cloud.
    pub use_edge: bool,
    /// When the edge path is exhausted (retries spent or the edge answered
    /// `Unavailable`), degrade to the origin path instead of failing.
    pub origin_fallback: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            retry: RetryPolicy::default(),
            deadline_ns: 5_000_000_000,
            probe_interval_ns: 100_000_000,
            use_edge: true,
            origin_fallback: false,
        }
    }
}

/// Timer classes the engine arms. Drivers realize them: the simulator as
/// virtual timers, the live driver as socket read deadlines (`Deadline`),
/// sleeps (`Backoff`) or synchronous preprocessing (`Prep`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Client-side preprocessing finishes, the request can transmit.
    Prep,
    /// Reply deadline for the current attempt.
    Deadline,
    /// Backoff before the next attempt.
    Backoff,
}

/// Reply classes a driver feeds into [`ClientEngine::on_reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// Edge cache hit.
    Hit,
    /// Miss answered through the cloud by the edge.
    Result,
    /// Miss answered by a cooperating peer edge.
    PeerResult,
    /// Origin-path (cloud-direct) reply.
    Baseline,
    /// The edge needs the full payload before it can execute.
    NeedPayload,
    /// The edge refused (its upstream leg is unavailable).
    Unavailable,
    /// The edge shed the request under overload, with a retry-after hint.
    Overloaded {
        /// Milliseconds the edge asked us to wait before retrying it.
        retry_after_ms: u32,
    },
}

/// A transport effect: what the driver must do next. The engine never
/// performs IO; it returns these instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send the descriptor query for this attempt to the edge.
    SendQuery {
        /// Wire request id.
        req_id: u64,
        /// Logical per-client request index (fault-schedule key).
        seq: u64,
        /// 0-based attempt on the edge path.
        attempt: u32,
    },
    /// Send the full task payload to the edge (answering `NeedPayload`).
    SendUpload {
        /// Wire request id.
        req_id: u64,
    },
    /// Send the request directly to the cloud (origin path).
    SendOrigin {
        /// Wire request id.
        req_id: u64,
        /// Logical per-client request index.
        seq: u64,
        /// 0-based attempt on the origin path.
        attempt: u32,
    },
    /// Test whether the edge is reachable again; report the outcome via
    /// [`ClientEngine::on_probe_result`].
    ProbeEdge {
        /// Wire request id of the request waiting on the probe.
        req_id: u64,
    },
    /// Arm a timer; when it fires, call [`ClientEngine::on_timer`] with
    /// the same kind and epoch (stale timers are ignored by epoch).
    ArmTimer {
        /// Wire request id.
        req_id: u64,
        /// What the timer means.
        kind: TimerKind,
        /// Staleness tag: echo back on firing.
        epoch: u32,
        /// Delay from now, ns.
        delay_ns: u64,
    },
    /// The request completed; the engine recorded this QoE sample.
    Complete {
        /// Wire request id.
        req_id: u64,
        /// The per-request QoE record (path, latency, retries).
        record: Record,
    },
    /// The request exhausted every path and failed.
    GiveUp {
        /// Wire request id.
        req_id: u64,
    },
}

/// One entry in the engine's decision trace. Decisions carry logical
/// coordinates only — no timestamps, no wire ids — so the simulator and
/// the live driver produce byte-identical sequences for the same seed and
/// fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Edge-path attempt issued.
    Attempt {
        /// Logical request index.
        seq: u64,
        /// 0-based attempt.
        attempt: u32,
    },
    /// The in-flight attempt failed (deadline expiry or transport error).
    AttemptFailed {
        /// Logical request index.
        seq: u64,
        /// 0-based attempt.
        attempt: u32,
    },
    /// A retry was scheduled.
    Retry {
        /// Logical request index.
        seq: u64,
        /// The attempt about to run.
        attempt: u32,
    },
    /// The edge asked for the payload; an upload was issued.
    Upload {
        /// Logical request index.
        seq: u64,
    },
    /// The edge answered `Unavailable`.
    Unavailable {
        /// Logical request index.
        seq: u64,
    },
    /// The edge shed the request under overload (`Msg::Overloaded`).
    Overloaded {
        /// Logical request index.
        seq: u64,
    },
    /// Cooperative path abandoned; client degraded to origin.
    Degrade {
        /// Logical request index.
        seq: u64,
    },
    /// A degraded client probed the edge.
    Probe {
        /// Logical request index.
        seq: u64,
    },
    /// The probe succeeded; client rejoined the cooperative path.
    Rejoin {
        /// Logical request index.
        seq: u64,
    },
    /// Origin-path attempt issued.
    OriginAttempt {
        /// Logical request index.
        seq: u64,
        /// 0-based attempt.
        attempt: u32,
    },
    /// The request completed via `path`.
    Complete {
        /// Logical request index.
        seq: u64,
        /// The serving path.
        path: Path,
    },
    /// The request failed on every path.
    Fail {
        /// Logical request index.
        seq: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prep,
    EdgeInFlight,
    EdgeBackoff,
    OriginInFlight,
    OriginBackoff,
    ProbeWait,
}

#[derive(Debug)]
struct ReqState {
    seq: u64,
    kind: &'static str,
    issued_ns: u64,
    attempt: u32,
    retries: u32,
    epoch: u32,
    phase: Phase,
}

/// The client orchestration engine: a deterministic, sans-IO state machine
/// parameterized by a [`Clock`]. See the module docs for the event/effect
/// contract.
#[derive(Debug)]
pub struct ClientEngine<C: Clock> {
    cfg: EngineConfig,
    clock: C,
    stats: RobustnessStats,
    degraded: bool,
    last_probe_ns: Option<u64>,
    next_seq: u64,
    reqs: HashMap<u64, ReqState>,
    decisions: Vec<Decision>,
}

impl<C: Clock> ClientEngine<C> {
    /// An engine reading time from `clock` and counting transitions into
    /// `stats` (share the handle to observe them from outside).
    pub fn new(cfg: EngineConfig, clock: C, stats: RobustnessStats) -> ClientEngine<C> {
        ClientEngine {
            cfg,
            clock,
            stats,
            degraded: false,
            last_probe_ns: None,
            next_seq: 0,
            reqs: HashMap::new(),
            decisions: Vec::new(),
        }
    }

    /// Begin a request. `issued_ns` is when the user asked (latency is
    /// measured from here); `prep_ns` is the client-side preprocessing
    /// cost, realized as the `Prep` timer (pass 0 when the driver already
    /// ran preprocessing synchronously).
    pub fn begin(
        &mut self,
        req_id: u64,
        kind: &'static str,
        issued_ns: u64,
        prep_ns: u64,
    ) -> Vec<Effect> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.reqs.insert(
            req_id,
            ReqState {
                seq,
                kind,
                issued_ns,
                attempt: 0,
                retries: 0,
                epoch: 0,
                phase: Phase::Prep,
            },
        );
        vec![Effect::ArmTimer {
            req_id,
            kind: TimerKind::Prep,
            epoch: 0,
            delay_ns: prep_ns,
        }]
    }

    /// A timer armed by an earlier [`Effect::ArmTimer`] fired. Stale
    /// timers (superseded epoch, or the request already ended) are
    /// ignored.
    pub fn on_timer(&mut self, req_id: u64, kind: TimerKind, epoch: u32) -> Vec<Effect> {
        let mut out = Vec::new();
        let Some(st) = self.reqs.get(&req_id) else {
            return out;
        };
        let valid = match kind {
            TimerKind::Prep => st.phase == Phase::Prep,
            TimerKind::Deadline => {
                epoch == st.epoch && matches!(st.phase, Phase::EdgeInFlight | Phase::OriginInFlight)
            }
            TimerKind::Backoff => {
                epoch == st.epoch && matches!(st.phase, Phase::EdgeBackoff | Phase::OriginBackoff)
            }
        };
        if !valid {
            return out;
        }
        let phase = st.phase;
        match kind {
            TimerKind::Prep => self.start_request(req_id, &mut out),
            TimerKind::Deadline => self.fail_attempt(req_id, &mut out),
            TimerKind::Backoff => {
                if phase == Phase::EdgeBackoff {
                    self.send_edge_attempt(req_id, &mut out);
                } else {
                    self.send_origin_attempt(req_id, &mut out);
                }
            }
        }
        out
    }

    /// A reply for `req_id` arrived. `correct` is the driver's recognition
    /// verdict for result-bearing replies (it owns the ground truth).
    /// Duplicate replies after completion are ignored.
    pub fn on_reply(
        &mut self,
        req_id: u64,
        reply: ReplyKind,
        correct: Option<bool>,
    ) -> Vec<Effect> {
        let mut out = Vec::new();
        // An ended request has no entry: a duplicate reply is a no-op.
        let Some(st) = self.reqs.get(&req_id) else {
            return out;
        };
        let seq = st.seq;
        match reply {
            ReplyKind::Hit => self.complete(req_id, Path::EdgeHit, correct, &mut out),
            ReplyKind::Result => self.complete(req_id, Path::CloudMiss, correct, &mut out),
            ReplyKind::PeerResult => self.complete(req_id, Path::PeerHit, correct, &mut out),
            ReplyKind::Baseline => {
                if self.cfg.use_edge {
                    self.stats.count_fallback();
                }
                self.complete(req_id, Path::Baseline, correct, &mut out);
            }
            ReplyKind::NeedPayload => {
                self.decisions.push(Decision::Upload { seq });
                out.push(Effect::SendUpload { req_id });
            }
            ReplyKind::Unavailable => {
                self.stats.count_unavailable();
                self.decisions.push(Decision::Unavailable { seq });
                if self.cfg.use_edge && self.cfg.origin_fallback {
                    self.degrade(req_id);
                    if let Some(st) = self.req_mut(req_id) {
                        st.attempt = 0;
                    }
                    self.send_origin_attempt(req_id, &mut out);
                } else {
                    self.give_up(req_id, &mut out);
                }
            }
            ReplyKind::Overloaded { retry_after_ms } => {
                self.stats.count_overloaded();
                self.decisions.push(Decision::Overloaded { seq });
                if self.cfg.use_edge && self.cfg.origin_fallback {
                    // Shed load routes to the cloud immediately — exactly
                    // what the retry-after hint wants a loaded edge spared
                    // of. The probe/rejoin ladder brings the client back
                    // once the edge answers again.
                    self.degrade(req_id);
                    if let Some(st) = self.req_mut(req_id) {
                        st.attempt = 0;
                    }
                    self.send_origin_attempt(req_id, &mut out);
                } else {
                    // No fallback: retry the edge, but honor the server's
                    // hint instead of the local backoff schedule.
                    let hint_ns = u64::from(retry_after_ms) * 1_000_000;
                    self.fail_attempt_with_hint(req_id, Some(hint_ns), &mut out);
                }
            }
        }
        out
    }

    /// The transport failed while an attempt was in flight (send error,
    /// read timeout, decode failure, injected fault). Funnels into the
    /// same failure path as a deadline expiry, so sim and live traces
    /// agree.
    pub fn on_transport_failure(&mut self, req_id: u64) -> Vec<Effect> {
        let mut out = Vec::new();
        let Some(st) = self.reqs.get(&req_id) else {
            return out;
        };
        if !matches!(st.phase, Phase::EdgeInFlight | Phase::OriginInFlight) {
            return out;
        }
        self.fail_attempt(req_id, &mut out);
        out
    }

    /// The driver finished the [`Effect::ProbeEdge`] reachability check.
    pub fn on_probe_result(&mut self, req_id: u64, ok: bool) -> Vec<Effect> {
        let mut out = Vec::new();
        let Some(st) = self.reqs.get(&req_id) else {
            return out;
        };
        if st.phase != Phase::ProbeWait {
            return out;
        }
        let seq = st.seq;
        if ok {
            self.degraded = false;
            self.stats.count_recovered();
            self.decisions.push(Decision::Rejoin { seq });
            self.send_edge_attempt(req_id, &mut out);
        } else {
            self.send_origin_attempt(req_id, &mut out);
        }
        out
    }

    /// Is the client on the origin (cloud-direct) path?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Start degraded (the edge was unreachable at construction). Counts
    /// the transition but adds no per-request decision.
    pub fn begin_degraded(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.stats.count_degraded();
        }
    }

    /// Take the decisions made since the last drain, in event order. The
    /// buffer keeps its capacity, so draining after every event allocates
    /// nothing; a driver that never drains keeps every decision.
    pub fn drain_decisions(&mut self) -> std::vec::Drain<'_, Decision> {
        self.decisions.drain(..)
    }

    /// Requests begun and not yet completed or given up.
    pub fn in_flight(&self) -> usize {
        self.reqs.len()
    }

    /// The engine's stats handle (shared with the constructor's argument).
    pub fn stats(&self) -> &RobustnessStats {
        &self.stats
    }

    fn start_request(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        if !self.cfg.use_edge {
            return self.send_origin_attempt(req_id, out);
        }
        if !self.degraded {
            return self.send_edge_attempt(req_id, out);
        }
        let now = self.clock.now_ns();
        let due = self
            .last_probe_ns
            .map(|t| now.saturating_sub(t) >= self.cfg.probe_interval_ns)
            .unwrap_or(true);
        if due {
            self.last_probe_ns = Some(now);
            self.stats.count_probe();
            if let Some(st) = self.req_mut(req_id) {
                st.phase = Phase::ProbeWait;
                let seq = st.seq;
                self.decisions.push(Decision::Probe { seq });
                out.push(Effect::ProbeEdge { req_id });
            }
        } else {
            self.send_origin_attempt(req_id, out);
        }
    }

    /// Internal invariant: every effect and event carries a live request
    /// id. A stale or corrupt id (e.g. replayed by a misbehaving
    /// transport) must not panic the engine, so lookups degrade to a
    /// no-op outside debug builds instead of unwrapping.
    fn req_mut(&mut self, req_id: u64) -> Option<&mut ReqState> {
        let st = self.reqs.get_mut(&req_id);
        debug_assert!(st.is_some(), "unknown req_id {req_id}");
        st
    }

    /// Drop an ending request's state, under the same invariant.
    fn end(&mut self, req_id: u64) -> Option<ReqState> {
        let st = self.reqs.remove(&req_id);
        debug_assert!(st.is_some(), "unknown req_id {req_id}");
        st
    }

    fn send_edge_attempt(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        self.stats.count_attempt();
        let deadline = self.cfg.deadline_ns;
        let Some(st) = self.req_mut(req_id) else {
            return;
        };
        st.phase = Phase::EdgeInFlight;
        st.epoch += 1;
        let (seq, attempt, epoch) = (st.seq, st.attempt, st.epoch);
        self.decisions.push(Decision::Attempt { seq, attempt });
        out.push(Effect::SendQuery {
            req_id,
            seq,
            attempt,
        });
        if deadline > 0 {
            out.push(Effect::ArmTimer {
                req_id,
                kind: TimerKind::Deadline,
                epoch,
                delay_ns: deadline,
            });
        }
    }

    fn send_origin_attempt(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        self.stats.count_attempt();
        let deadline = self.cfg.deadline_ns;
        let Some(st) = self.req_mut(req_id) else {
            return;
        };
        st.phase = Phase::OriginInFlight;
        st.epoch += 1;
        let (seq, attempt, epoch) = (st.seq, st.attempt, st.epoch);
        self.decisions
            .push(Decision::OriginAttempt { seq, attempt });
        out.push(Effect::SendOrigin {
            req_id,
            seq,
            attempt,
        });
        if deadline > 0 {
            out.push(Effect::ArmTimer {
                req_id,
                kind: TimerKind::Deadline,
                epoch,
                delay_ns: deadline,
            });
        }
    }

    fn fail_attempt(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        self.fail_attempt_with_hint(req_id, None, out);
    }

    /// Like [`ClientEngine::fail_attempt`], but with an optional
    /// server-supplied retry-after hint (ns) overriding the local backoff
    /// schedule for the next attempt's delay.
    fn fail_attempt_with_hint(&mut self, req_id: u64, hint_ns: Option<u64>, out: &mut Vec<Effect>) {
        let max = self.cfg.retry.max_attempts.max(1);
        let Some(st) = self.req_mut(req_id) else {
            return;
        };
        let on_edge = st.phase == Phase::EdgeInFlight;
        let seq = st.seq;
        let attempt = st.attempt;
        self.decisions
            .push(Decision::AttemptFailed { seq, attempt });
        let next = attempt + 1;
        if next < max {
            let Some(st) = self.req_mut(req_id) else {
                return;
            };
            st.attempt = next;
            st.retries += 1;
            st.epoch += 1;
            st.phase = if on_edge {
                Phase::EdgeBackoff
            } else {
                Phase::OriginBackoff
            };
            let epoch = st.epoch;
            self.stats.count_retry();
            self.decisions.push(Decision::Retry { seq, attempt: next });
            let delay = self.cfg.retry.backoff_with_hint(seq, next - 1, hint_ns);
            out.push(Effect::ArmTimer {
                req_id,
                kind: TimerKind::Backoff,
                epoch,
                delay_ns: delay.as_nanos() as u64,
            });
        } else if on_edge && self.cfg.origin_fallback {
            self.degrade(req_id);
            if let Some(st) = self.req_mut(req_id) {
                st.attempt = 0;
            }
            self.send_origin_attempt(req_id, out);
        } else {
            self.give_up(req_id, out);
        }
    }

    fn degrade(&mut self, req_id: u64) {
        self.degraded = true;
        self.last_probe_ns = Some(self.clock.now_ns());
        self.stats.count_degraded();
        if let Some(seq) = self.reqs.get(&req_id).map(|st| st.seq) {
            self.decisions.push(Decision::Degrade { seq });
        }
    }

    fn give_up(&mut self, req_id: u64, out: &mut Vec<Effect>) {
        let Some(st) = self.end(req_id) else {
            return;
        };
        self.decisions.push(Decision::Fail { seq: st.seq });
        out.push(Effect::GiveUp { req_id });
    }

    fn complete(&mut self, req_id: u64, path: Path, correct: Option<bool>, out: &mut Vec<Effect>) {
        let now = self.clock.now_ns();
        let Some(st) = self.end(req_id) else {
            return;
        };
        let record = Record {
            req_id,
            kind: st.kind,
            issued_ns: st.issued_ns,
            completed_ns: now,
            path,
            correct,
            retries: st.retries,
        };
        self.decisions
            .push(Decision::Complete { seq: st.seq, path });
        out.push(Effect::Complete { req_id, record });
    }
}

#[cfg(test)]
mod tests {
    use super::super::clock::SimClock;
    use super::*;
    use coic_netsim::SimTime;
    use std::time::Duration;

    fn engine(cfg: EngineConfig) -> (ClientEngine<SimClock>, SimClock) {
        let clock = SimClock::new();
        let e = ClientEngine::new(cfg, clock.clone(), RobustnessStats::default());
        (e, clock)
    }

    fn fast_cfg() -> EngineConfig {
        EngineConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                jitter_frac: 0.0,
                seed: 0,
            },
            deadline_ns: 1_000_000_000,
            probe_interval_ns: 100_000_000,
            use_edge: true,
            origin_fallback: true,
        }
    }

    #[test]
    fn happy_path_hit() {
        let (mut e, _c) = engine(fast_cfg());
        let effs = e.begin(1, "model", 0, 0);
        assert!(matches!(
            effs.as_slice(),
            [Effect::ArmTimer {
                kind: TimerKind::Prep,
                ..
            }]
        ));
        let effs = e.on_timer(1, TimerKind::Prep, 0);
        assert!(matches!(effs[0], Effect::SendQuery { attempt: 0, .. }));
        assert!(matches!(
            effs[1],
            Effect::ArmTimer {
                kind: TimerKind::Deadline,
                ..
            }
        ));
        let effs = e.on_reply(1, ReplyKind::Hit, None);
        assert!(matches!(effs.as_slice(), [Effect::Complete { .. }]));
        assert_eq!(e.in_flight(), 0, "a completed request leaves nothing");
        assert_eq!(
            e.drain_decisions().collect::<Vec<_>>(),
            [
                Decision::Attempt { seq: 0, attempt: 0 },
                Decision::Complete {
                    seq: 0,
                    path: Path::EdgeHit
                }
            ]
        );
    }

    #[test]
    fn exhausted_edge_degrades_to_origin() {
        let (mut e, _c) = engine(fast_cfg());
        e.begin(1, "panorama", 0, 0);
        e.on_timer(1, TimerKind::Prep, 0);
        for attempt in 0..3u32 {
            let effs = e.on_transport_failure(1);
            if attempt < 2 {
                assert!(matches!(
                    effs.as_slice(),
                    [Effect::ArmTimer {
                        kind: TimerKind::Backoff,
                        ..
                    }]
                ));
                let Effect::ArmTimer { epoch, .. } = effs[0] else {
                    unreachable!()
                };
                let next = e.on_timer(1, TimerKind::Backoff, epoch);
                assert!(matches!(next[0], Effect::SendQuery { .. }));
            } else {
                // Third failure: degrade and go to origin in one step.
                assert!(matches!(
                    effs[0],
                    Effect::SendOrigin {
                        seq: 0,
                        attempt: 0,
                        ..
                    }
                ));
            }
        }
        assert!(e.is_degraded());
        let effs = e.on_reply(1, ReplyKind::Baseline, None);
        assert!(matches!(effs.as_slice(), [Effect::Complete { .. }]));
        let snap = e.stats().snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.degraded_transitions, 1);
        assert_eq!(snap.fallbacks, 1);
    }

    #[test]
    fn no_transitions_from_terminal_states() {
        let (mut e, _c) = engine(fast_cfg());
        e.begin(1, "model", 0, 0);
        e.on_timer(1, TimerKind::Prep, 0);
        e.on_reply(1, ReplyKind::Hit, None);
        e.drain_decisions();
        assert!(e.on_reply(1, ReplyKind::Result, None).is_empty());
        assert!(e.on_transport_failure(1).is_empty());
        assert!(e.on_timer(1, TimerKind::Deadline, 1).is_empty());
        assert!(e.on_probe_result(1, true).is_empty());
        assert_eq!(e.drain_decisions().len(), 0, "terminal state must be quiet");
    }

    #[test]
    fn stale_deadline_from_old_attempt_is_ignored() {
        let (mut e, _c) = engine(fast_cfg());
        e.begin(1, "model", 0, 0);
        e.on_timer(1, TimerKind::Prep, 0);
        // Attempt 0 (epoch 1) fails; attempt 1 (epoch 3) is in flight.
        e.on_transport_failure(1);
        let effs = e.on_timer(1, TimerKind::Backoff, 2);
        assert!(matches!(effs[0], Effect::SendQuery { attempt: 1, .. }));
        // The old attempt's deadline fires late: must not fail attempt 1.
        assert!(e.on_timer(1, TimerKind::Deadline, 1).is_empty());
        let effs = e.on_reply(1, ReplyKind::Hit, None);
        assert!(matches!(effs.as_slice(), [Effect::Complete { .. }]));
    }

    #[test]
    fn degraded_client_probes_then_rejoins() {
        let (mut e, c) = engine(fast_cfg());
        e.begin_degraded();
        assert!(e.is_degraded());
        c.set(SimTime::from_secs(1));
        e.begin(1, "model", 1_000_000_000, 0);
        let effs = e.on_timer(1, TimerKind::Prep, 0);
        assert!(matches!(effs.as_slice(), [Effect::ProbeEdge { .. }]));
        let effs = e.on_probe_result(1, true);
        assert!(!e.is_degraded());
        assert!(matches!(effs[0], Effect::SendQuery { .. }));
        assert_eq!(
            e.drain_decisions().take(2).collect::<Vec<_>>(),
            [Decision::Probe { seq: 0 }, Decision::Rejoin { seq: 0 }]
        );
    }

    #[test]
    fn probe_interval_gates_reprobing() {
        let (mut e, c) = engine(fast_cfg());
        e.begin_degraded();
        c.set(SimTime::from_millis(10));
        e.begin(1, "model", 0, 0);
        let effs = e.on_timer(1, TimerKind::Prep, 0);
        assert!(matches!(effs.as_slice(), [Effect::ProbeEdge { .. }]));
        let effs = e.on_probe_result(1, false);
        assert!(matches!(effs[0], Effect::SendOrigin { .. }));
        // 10 ms later: probe not due (interval 100 ms) → origin directly.
        c.set(SimTime::from_millis(20));
        e.begin(2, "model", 20_000_000, 0);
        let effs = e.on_timer(2, TimerKind::Prep, 0);
        assert!(matches!(effs[0], Effect::SendOrigin { .. }));
    }

    #[test]
    fn origin_only_mode_never_touches_the_edge() {
        let (mut e, _c) = engine(EngineConfig {
            use_edge: false,
            ..fast_cfg()
        });
        e.begin(1, "recognition", 0, 0);
        let effs = e.on_timer(1, TimerKind::Prep, 0);
        assert!(matches!(effs[0], Effect::SendOrigin { .. }));
        let effs = e.on_reply(1, ReplyKind::Baseline, Some(true));
        let Effect::Complete { record, .. } = &effs[0] else {
            panic!("expected completion");
        };
        assert_eq!(record.path, Path::Baseline);
        // Origin mode is the baseline, not a fallback.
        assert_eq!(e.stats().snapshot().fallbacks, 0);
    }

    #[test]
    fn give_up_without_fallback() {
        let (mut e, _c) = engine(EngineConfig {
            origin_fallback: false,
            ..fast_cfg()
        });
        e.begin(1, "model", 0, 0);
        e.on_timer(1, TimerKind::Prep, 0);
        let mut last = Vec::new();
        for _ in 0..3 {
            last = e.on_transport_failure(1);
            if let Some(&Effect::ArmTimer {
                kind: TimerKind::Backoff,
                epoch,
                ..
            }) = last.first()
            {
                last = e.on_timer(1, TimerKind::Backoff, epoch);
                assert!(matches!(last[0], Effect::SendQuery { .. }));
            }
        }
        let effs = last;
        assert!(matches!(effs.as_slice(), [Effect::GiveUp { .. }]));
        assert!(matches!(
            e.drain_decisions().next_back(),
            Some(Decision::Fail { .. })
        ));
        assert!(!e.is_degraded());
        assert_eq!(e.in_flight(), 0, "a failed request leaves nothing");
    }

    #[test]
    fn late_reply_after_retry_still_completes_once() {
        let (mut e, _c) = engine(fast_cfg());
        e.begin(1, "model", 0, 0);
        e.on_timer(1, TimerKind::Prep, 0);
        e.on_transport_failure(1); // attempt 0 failed, backoff armed
                                   // The original reply races in while we are in backoff.
        let effs = e.on_reply(1, ReplyKind::Result, None);
        let [Effect::Complete { record, .. }] = effs.as_slice() else {
            panic!("expected one completion, got {effs:?}");
        };
        assert_eq!(record.retries, 1);
        // The armed backoff timer fires afterwards: stale, no new attempt.
        assert!(e.on_timer(1, TimerKind::Backoff, 2).is_empty());
    }
}
