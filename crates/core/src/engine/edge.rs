//! The edge's decision procedure as one sans-IO state machine.
//!
//! [`EdgeEngine`] is the paper's edge box: look a request up, coalesce
//! identical misses, ask cooperating edges, fall back to the cloud and cache
//! the answer — plus admission, brownout, ring probes with their deadlines,
//! placement and hot replication, and the `Replicate` membership check.
//! Every exact lookup and insert a request causes runs inside an engine
//! call (the simulator's prefetcher keeps its own). It reads no clock,
//! opens no socket and blocks on nothing: a realiser feeds it
//! events stamped with `now_ns` and realises the [`EdgeEffect`]s each one
//! appends to a buffer the realiser owns. Two realisers exist, and they are
//! the only two edges there are: the simulator's edge node
//! ([`crate::simrun`]: virtual links, timers, service-time delays) and the
//! live edge ([`crate::netrun`]: blocking sockets on `FrameServer`
//! connection threads). A figure the simulator prints is therefore decided
//! by the code that serves sockets.
//!
//! Every in-flight entry is keyed by `(connection, request)`, because every
//! client numbers its requests from 1: two connections routinely have the
//! same request id in flight. The simulator's "connection" is the sending
//! node. [`EdgeEngine::on_conn_closed`] reaps everything a connection left.
//!
//! ```text
//!   realiser events                engine                     effects
//!   ───────────────     ─────────────────────────────     ──────────────
//!   on_query       ──▶  admit ─▶ lookup ─▶ coalesce  ──▶  Reply / Wait
//!   on_looked_up   ──▶          (looked up already)
//!   on_upload      ──▶          │ miss                ──▶  Serving(slot)
//!   on_peer_query  ──▶          ▼                     ──▶  Probe(peer, deadline)
//!   on_peer_reply  ──▶  ring probe round ─▶ cloud     ──▶  Forward(cloud)
//!   on_cloud_reply ──▶  placement / replication       ──▶  Replicate(peer)
//!   on_replicate   ──▶  membership token              ──▶  Insert(recognition)
//!   on_timer       ──▶  probe deadline, queue age     ──▶  Close(conn)
//!   on_slot_free   ──▶  AIMD release, queue drain
//!   on_conn_closed ──▶  reap the connection's entries
//! ```
//!
//! The engine is also the one place where the cloud leg's circuit-breaker
//! transitions are consumed and counted.

use super::breaker::{BreakerState, CircuitBreaker};
use super::brownout::{BrownoutState, OverloadControl, Verdict};
use super::flight::{FlightClaim, SingleFlight};
use super::stats::RobustnessStats;
use crate::cluster::{ClusterState, EdgeId};
use crate::descriptor::FeatureDescriptor;
use crate::protocol::Msg;
use crate::services::{descriptor_digest, EdgeService};
use crate::task::{Held, TaskRequest, TaskResult};
use coic_cache::{Digest, Lookup};
use coic_obs::{Telemetry, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a connection: the live edge's `FrameServer` connection id,
/// or the simulator node a message came from.
pub type ConnId = u64;

/// How many recognition misses one connection may have waiting for their
/// `Upload` at once. A client that pipelines has as many as it has
/// recognition queries in flight; far beyond any of those, and small enough
/// that a connection which never uploads pins at most ~150 kB. One more
/// closes the connection ([`EdgeEffect::Close`]).
pub const PENDING_PER_CONN_MAX: usize = 1024;

/// A reply and, when the answering node keeps the result for reuse, the
/// holder of that result — whose blob sum a live send reuses.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The message.
    pub msg: Msg,
    /// The holder of the result in `msg`, if this node keeps it.
    pub held: Option<Arc<Held>>,
}

impl Answer {
    /// Answer with `held`'s result, wrapped into a message by `wrap`.
    pub fn held(held: Arc<Held>, wrap: impl FnOnce(TaskResult) -> Msg) -> Answer {
        Answer {
            msg: wrap(held.result().clone()),
            held: Some(held),
        }
    }
}

impl From<Msg> for Answer {
    fn from(msg: Msg) -> Answer {
        Answer { msg, held: None }
    }
}

/// Which local processing time the simulator charges before an effect
/// leaves the edge. The live edge spends what it spends and ignores this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Leaves at once: sheds, refusals, the cloud-reply fan-out.
    Free,
    /// After the lookup cost: a lookup's `Hit`, `NeedPayload`, `Forward`
    /// and `PeerQuery`, and the answer to a peer's probe.
    Lookup,
}

/// A probe's deadline: if no reply came `after_ns` after the probe left,
/// the realiser fires [`EdgeTimer::Probe`] with `token` — unless the engine
/// disarmed it first ([`EdgeEffect::Disarm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Echoed back through [`EdgeEngine::on_timer`].
    pub token: u64,
    /// How long the peer has, counted from when the probe leaves.
    pub after_ns: u64,
}

/// An admission slot a served request holds. The realiser decides when
/// local service is over and returns it with [`EdgeEngine::on_slot_free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    offered_at: u64,
}

/// Timers the engine is told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeTimer {
    /// A probe's [`Deadline`] passed (or, live, the probe failed).
    Probe(u64),
    /// Age the admission queue out now. The engine never asks for it; a
    /// realiser whose queued requests wait in blocked threads ticks it
    /// while one of them waits (`EdgeEffect::Wait { queued: true, .. }`),
    /// so that an idle edge still sheds stale waiters.
    QueueAge,
}

/// What a realiser must do next. `P` names a peer edge: a simulator node
/// or a socket address.
#[derive(Debug)]
pub enum EdgeEffect<P> {
    /// Answer request `req` of connection `conn`.
    Reply {
        /// Connection to answer on.
        conn: ConnId,
        /// Request answered.
        req: u64,
        /// The message, with the holder of its result.
        answer: Answer,
        /// Local time charged before it leaves.
        charge: Charge,
    },
    /// `(conn, req)` waits — in the admission queue or behind a single
    /// flight — and is answered by a later event.
    Wait {
        /// Connection of the waiting request.
        conn: ConnId,
        /// The waiting request.
        req: u64,
        /// In the admission queue, which ages ([`EdgeTimer::QueueAge`]);
        /// otherwise behind a flight, which answers it when it lands.
        queued: bool,
    },
    /// Forward `task` to the cloud for `(conn, req)`; report the answer
    /// (or the failure) with [`EdgeEngine::on_cloud_reply`].
    Forward {
        /// Connection the fetch serves.
        conn: ConnId,
        /// Request the fetch serves (the wire id of the `Forward`).
        req: u64,
        /// What the cloud executes.
        task: TaskRequest,
        /// Local time charged before it leaves.
        charge: Charge,
    },
    /// Ask peer `to` for `digest` on behalf of `(conn, req)`; report the
    /// reply with [`EdgeEngine::on_peer_reply`], and fire the deadline when
    /// it passes unless it was disarmed (a late firing is a no-op).
    Probe {
        /// Connection the probe serves.
        conn: ConnId,
        /// Request the probe serves (the wire id of the `PeerQuery`).
        req: u64,
        /// The peer asked.
        to: P,
        /// The content asked for.
        digest: Digest,
        /// When the probe counts as a failure against the peer.
        deadline: Deadline,
        /// Local time charged before it leaves.
        charge: Charge,
    },
    /// Push a copy of `held` to peer `to` (`Msg::Replicate`).
    Replicate {
        /// The peer that should keep the copy.
        to: P,
        /// Request that caused the push.
        req: u64,
        /// The cluster's membership token.
        token: u64,
        /// Content hash the copy is installed under.
        digest: Digest,
        /// The result pushed.
        held: Arc<Held>,
    },
    /// Store the recognition result `held` under `descriptor` in the
    /// cache. (The engine inserts an exact result itself.)
    Insert {
        /// Key of the entry.
        descriptor: FeatureDescriptor,
        /// The entry.
        held: Held,
    },
    /// `(conn, req)` took an admission slot; give it back with
    /// [`EdgeEngine::on_slot_free`] once local service is over.
    Serving {
        /// Connection of the served request.
        conn: ConnId,
        /// The served request.
        req: u64,
        /// The slot.
        slot: Slot,
    },
    /// Hang up on `conn`.
    Close {
        /// The connection.
        conn: ConnId,
    },
    /// The probe deadline armed with `token` decides nothing any more: its
    /// probe was answered. A realiser with timers cancels it; one whose
    /// probes are synchronous ignores this.
    Disarm {
        /// The [`Deadline::token`] of the probe.
        token: u64,
    },
}

impl<P> EdgeEffect<P> {
    /// The connection whose request this effect belongs to, if any.
    pub fn conn(&self) -> Option<ConnId> {
        match self {
            EdgeEffect::Reply { conn, .. }
            | EdgeEffect::Wait { conn, .. }
            | EdgeEffect::Forward { conn, .. }
            | EdgeEffect::Probe { conn, .. }
            | EdgeEffect::Serving { conn, .. }
            | EdgeEffect::Close { conn } => Some(*conn),
            EdgeEffect::Replicate { .. }
            | EdgeEffect::Insert { .. }
            | EdgeEffect::Disarm { .. } => None,
        }
    }
}

/// Cooperative cluster membership: the sans-IO policy, every member's
/// address (indexed by [`EdgeId`], this edge included) and the token a
/// `Replicate` push must carry.
struct Cluster<P> {
    state: ClusterState,
    members: Vec<P>,
    token: u64,
}

/// A descriptor query, as served or as it waits for a service slot.
struct Query {
    conn: ConnId,
    req: u64,
    descriptor: FeatureDescriptor,
    hint: Option<TaskRequest>,
}

/// A query waiting in the admission queue for a service slot.
struct Queued {
    query: Query,
    offered_at: u64,
}

/// One ring round of peer probes for a miss (bounded fan-out along the
/// ring, each probe under its own deadline), resolved when every probe has
/// been answered or timed out.
struct Round<P> {
    descriptor: FeatureDescriptor,
    task: TaskRequest,
    /// Peers still owing a reply: member id, address and the token of
    /// the probe's deadline.
    outstanding: Vec<(EdgeId, P, u64)>,
    satisfied: bool,
    started_ns: u64,
}

/// The edge engine. See the module docs for the event/effect contract.
pub struct EdgeEngine<P> {
    service: Arc<EdgeService>,
    /// Guards the cloud leg: an open breaker answers `Unavailable` at once.
    breaker: CircuitBreaker,
    stats: RobustnessStats,
    overload: Option<OverloadControl>,
    cluster: Option<Cluster<P>>,
    tel: Telemetry,
    /// Edge index every trace event is tagged with (the simulator's).
    label: Option<u64>,
    flights: SingleFlight<Digest, (ConnId, u64)>,
    /// Descriptors of misses awaiting their `Upload` or their cloud reply.
    pending: BTreeMap<(ConnId, u64), FeatureDescriptor>,
    /// Admission-queue tickets → the query each holds.
    queued: BTreeMap<u64, Queued>,
    next_ticket: u64,
    rounds: BTreeMap<(ConnId, u64), Round<P>>,
    /// Armed probe deadlines: token → (round, peer member id). An entry
    /// lives until its probe is answered or its timer fires.
    deadlines: BTreeMap<u64, (ConnId, u64, EdgeId)>,
    next_timer: u64,
    overflows: u64,
}

impl<P: Copy + PartialEq> EdgeEngine<P> {
    /// An engine serving from `service`, guarding its cloud leg with
    /// `breaker`, counting into `stats` and tracing into `tel`; `overload`
    /// arms admission control (and brownout).
    pub fn new(
        service: Arc<EdgeService>,
        breaker: CircuitBreaker,
        stats: RobustnessStats,
        overload: Option<OverloadControl>,
        tel: Telemetry,
    ) -> EdgeEngine<P> {
        EdgeEngine {
            service,
            breaker,
            stats,
            overload,
            cluster: None,
            tel,
            label: None,
            flights: SingleFlight::new(),
            pending: BTreeMap::new(),
            queued: BTreeMap::new(),
            next_ticket: 0,
            rounds: BTreeMap::new(),
            deadlines: BTreeMap::new(),
            next_timer: 0,
            overflows: 0,
        }
    }

    /// Tag every trace event with `edge` (a simulator edge's index).
    pub fn with_label(mut self, edge: u64) -> EdgeEngine<P> {
        self.label = Some(edge);
        self
    }

    /// Join a cluster: `state` is this edge's policy, `members` every
    /// member's address by [`EdgeId`], `token` what a `Replicate` push
    /// must carry. Replaces any earlier membership.
    pub fn join_cluster(&mut self, state: ClusterState, members: Vec<P>, token: u64) {
        self.cluster = Some(Cluster {
            state,
            members,
            token,
        });
    }

    /// The cluster policy, once joined.
    pub fn cluster(&self) -> Option<&ClusterState> {
        self.cluster.as_ref().map(|c| &c.state)
    }

    /// State of the cloud leg's breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Current brownout rung (Healthy without admission control).
    pub fn brownout_state(&self) -> BrownoutState {
        self.overload
            .as_ref()
            .map_or(BrownoutState::Healthy, OverloadControl::state)
    }

    /// Misses waiting for their `Upload` or their cloud reply.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Connections closed for parking more than [`PENDING_PER_CONN_MAX`].
    pub fn pending_overflows(&self) -> u64 {
        self.overflows
    }

    /// Take the descriptor `(conn, req)` parked awaiting its upload, for a
    /// realiser that executes the upload itself (the simulator's edge tier).
    pub fn take_parked(&mut self, conn: ConnId, req: u64) -> Option<FeatureDescriptor> {
        self.pending.remove(&(conn, req))
    }

    /// A descriptor query arrived on `conn`.
    pub fn on_query(
        &mut self,
        conn: ConnId,
        req: u64,
        descriptor: FeatureDescriptor,
        hint: Option<TaskRequest>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let query = Query {
            conn,
            req,
            descriptor,
            hint,
        };
        let Some(ctl) = self.overload.as_mut() else {
            return self.serve(query, false, None, now_ns, fx);
        };
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        // lint: allow(release-admission-slots, a served query's slot leaves as EdgeEffect::Serving and comes back through on_slot_free; shed verdicts are counted by offer itself)
        let decision = ctl.offer(ticket, now_ns);
        let retry_after = ctl.retry_after_ms();
        if let Some(state) = decision.transition {
            self.note_brownout(now_ns, state);
        }
        for victim in decision.shed {
            self.shed_queued(victim, retry_after, "queue", now_ns, fx);
        }
        match decision.verdict {
            Verdict::Serve | Verdict::ServeCachedOnly => {
                self.start_service(query, now_ns, false, now_ns, fx);
            }
            Verdict::Queued => {
                let queued = Queued {
                    query,
                    offered_at: now_ns,
                };
                self.queued.insert(ticket, queued);
                fx.push(EdgeEffect::Wait {
                    conn,
                    req,
                    queued: true,
                });
            }
            Verdict::Shed { retry_after_ms } => {
                self.send_overloaded(conn, req, retry_after_ms, "refused", now_ns, fx);
            }
        }
    }

    /// Whether a recognition query is looked up the moment it arrives: no
    /// admission control stands in front of the lookup. A realiser serving
    /// queries on several threads then makes that lookup — an index search
    /// — before it takes the engine, and hands the outcome to
    /// [`EdgeEngine::on_looked_up`], so that searches do not wait for one
    /// another. An exact query is always looked up inside the engine: its
    /// lookup must see the same instant as its single flight and the
    /// engine's inserts, or a fetch that lands in between is fetched again.
    pub fn looks_up_on_arrival(&self) -> bool {
        self.overload.is_none()
    }

    /// [`EdgeEngine::on_query`] for a recognition query without a hint
    /// that the realiser has looked up (`outcome`); only while
    /// [`EdgeEngine::looks_up_on_arrival`].
    pub fn on_looked_up(
        &mut self,
        conn: ConnId,
        req: u64,
        descriptor: FeatureDescriptor,
        outcome: Lookup<Arc<Held>>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        debug_assert!(self.looks_up_on_arrival() && descriptor_digest(&descriptor).is_none());
        let query = Query {
            conn,
            req,
            descriptor,
            hint: None,
        };
        self.serve(query, false, Some(outcome), now_ns, fx);
    }

    /// The full task for a recognition miss arrived: relay it to the cloud
    /// (through the breaker). An upload nothing was parked for was never
    /// admitted, so it reaches no cloud: it closes the connection.
    pub fn on_upload(
        &mut self,
        conn: ConnId,
        req: u64,
        task: TaskRequest,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        if !self.pending.contains_key(&(conn, req)) {
            return fx.push(EdgeEffect::Close { conn });
        }
        if !self.breaker.allow(now_ns) {
            self.stats.count_unavailable();
            self.pending.remove(&(conn, req));
            return self.reply(conn, req, Msg::Unavailable { req_id: req }.into(), fx);
        }
        self.trace(now_ns, "cloud.forward", || [("req", Value::from(req))]);
        fx.push(EdgeEffect::Forward {
            conn,
            req,
            task,
            charge: Charge::Free,
        });
    }

    /// The cloud answered the `Forward` of `(conn, req)` — or, with `None`,
    /// the call failed. Answers the fetch's requester and every request
    /// coalesced behind it.
    pub fn on_cloud_reply(
        &mut self,
        conn: ConnId,
        req: u64,
        result: Option<Held>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        // Mirror the breaker's transitions into the stats.
        let (trips, closes) = (self.breaker.trips(), self.breaker.closes());
        self.breaker.record(result.is_some(), now_ns);
        if self.breaker.trips() > trips {
            self.stats.count_breaker_trip();
        }
        if self.breaker.closes() > closes {
            self.stats.count_breaker_close();
        }
        // Retransmissions can produce duplicate replies for a request
        // already answered; they find nothing pending.
        let Some(descriptor) = self.pending.remove(&(conn, req)) else {
            return;
        };
        let Some(held) = result else {
            return self.refuse(conn, req, &descriptor, now_ns, fx);
        };
        let digest = descriptor_digest(&descriptor);
        // Partition placement: under the cluster a non-owner does not keep
        // the exact result it fetched — it pushes the copy to the digest's
        // owner, where the ring says future probes will look — unless its
        // own demand crossed the hot threshold.
        let mut keep = true;
        let mut push = None;
        if let (Some(cl), Some(d)) = (self.cluster.as_mut(), digest) {
            if !cl.state.is_owner(&d) {
                keep = cl.state.is_locally_hot(&d);
                if keep {
                    cl.state.stats().count_replica_keep();
                }
                push = cl.state.placement_target(&d).inspect(|_| {
                    cl.state.stats().count_replication_copy();
                });
            }
        }
        let held = Arc::new(held);
        self.land(descriptor, &held, keep, now_ns, fx);
        if let (Some(owner), Some(d)) = (push, digest) {
            self.trace_peer(now_ns, "decision.peer_replicate", req, owner);
            self.replicate(owner, req, d, &held, fx);
        }
        self.resolve(conn, req, digest, &held, false, fx);
    }

    /// A peer asked whether this edge holds `digest`.
    pub fn on_peer_query(
        &mut self,
        conn: ConnId,
        req: u64,
        digest: Digest,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let held = self.service.exact_lookup(&digest, now_ns);
        // Hot-entry failover replication: enough peer demand on an entry
        // this edge keeps answering pushes a copy to the digest's ring
        // successor, so the content survives this edge dying.
        if let Some(held) = &held {
            let succ = self.cluster.as_mut().and_then(|cl| {
                if !cl.state.note_owner_request(&digest) {
                    return None;
                }
                cl.state.successor_target(&digest).inspect(|_| {
                    cl.state.stats().count_replication_copy();
                })
            });
            if let Some(succ) = succ {
                self.trace_peer(now_ns, "decision.peer_replicate", req, succ);
                self.replicate(succ, req, digest, held, fx);
            }
        }
        let result = held.as_ref().map(|held| held.result().clone());
        fx.push(EdgeEffect::Reply {
            conn,
            req,
            answer: Answer {
                msg: Msg::PeerReply {
                    req_id: req,
                    result,
                },
                held,
            },
            charge: Charge::Lookup,
        });
    }

    /// A peer pushed a copy. Installed only when it carries this cluster's
    /// token: an edge outside the cluster (or with none joined) must not be
    /// able to plant results under chosen digests. A refused push closes
    /// the connection it came on; an accepted one is in the cache when
    /// this returns.
    pub fn on_replicate(
        &mut self,
        conn: ConnId,
        token: u64,
        digest: Digest,
        held: Held,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        if self.cluster.as_ref().is_none_or(|cl| cl.token != token) {
            return fx.push(EdgeEffect::Close { conn });
        }
        // The exact store is digest-keyed; the descriptor kind is moot.
        self.service
            .insert(&FeatureDescriptor::ModelHash(digest), held, now_ns);
    }

    /// Peer `from` answered the probe of `(conn, req)` (`None`: it does not
    /// hold the content).
    pub fn on_peer_reply(
        &mut self,
        from: P,
        conn: ConnId,
        req: u64,
        result: Option<Held>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let key = (conn, req);
        let Some(round) = self.rounds.get_mut(&key) else {
            return; // round already resolved
        };
        let Some(pos) = round.outstanding.iter().position(|o| o.1 == from) else {
            return; // reply landed after its own deadline already fired
        };
        let (peer, _, token) = round.outstanding.remove(pos);
        let drained = round.outstanding.is_empty();
        // The reply settles the probe: its deadline has nothing left to do.
        self.deadlines.remove(&token);
        fx.push(EdgeEffect::Disarm { token });
        let was_satisfied = round.satisfied;
        let fresh_hit = result.is_some() && !was_satisfied;
        round.satisfied |= fresh_hit;
        let started_ns = round.started_ns;
        let done = match drained.then(|| self.rounds.remove(&key)).flatten() {
            Some(round) if !round.satisfied => {
                // Every probe missed (a reply in hand means the peer is
                // healthy — record that before falling back).
                let transition = self.record_probe(peer, true, now_ns);
                self.with_cluster(|cl| cl.stats().count_peer_miss());
                self.trace_peer(now_ns, "decision.peer_miss", req, peer);
                self.peer_state(now_ns, req, peer, transition);
                return self.cloud_fallback(key, round, now_ns, fx);
            }
            done => done,
        };
        let transition = self.record_probe(peer, true, now_ns);
        self.peer_state(now_ns, req, peer, transition);
        let Some(held) = result else {
            if !was_satisfied {
                self.with_cluster(|cl| cl.stats().count_peer_miss());
                self.trace_peer(now_ns, "decision.peer_miss", req, peer);
            }
            return;
        };
        if !fresh_hit {
            return; // late duplicate hit; the client was answered
        }
        let descriptor = match done {
            Some(round) => round.descriptor,
            None => match self.rounds.get(&key) {
                Some(round) => round.descriptor.clone(),
                None => return,
            },
        };
        let Some(digest) = descriptor_digest(&descriptor) else {
            return;
        };
        let keep = self.with_cluster(|cl| {
            cl.stats().count_peer_hit();
            let owner = cl.is_owner(&digest);
            let keep = owner || cl.is_locally_hot(&digest);
            if keep && !owner {
                cl.stats().count_replica_keep();
            }
            keep
        });
        self.trace_peer(now_ns, "decision.peer_hit", req, peer);
        self.tel
            .registry()
            .observe("cluster.peer_latency_ns", now_ns.saturating_sub(started_ns));
        let held = Arc::new(held);
        self.land(descriptor, &held, keep == Some(true), now_ns, fx);
        self.resolve(conn, req, Some(digest), &held, true, fx);
    }

    /// A timer fired.
    pub fn on_timer(&mut self, timer: EdgeTimer, now_ns: u64, fx: &mut Vec<EdgeEffect<P>>) {
        match timer {
            EdgeTimer::Probe(token) => self.probe_timed_out(token, now_ns, fx),
            EdgeTimer::QueueAge => {
                let Some(ctl) = self.overload.as_mut() else {
                    return;
                };
                let (expired, transition) = ctl.expire(now_ns);
                let retry_after = ctl.retry_after_ms();
                if let Some(state) = transition {
                    self.note_brownout(now_ns, state);
                }
                for victim in expired {
                    self.shed_queued(victim, retry_after, "aged_out", now_ns, fx);
                }
            }
        }
    }

    /// A served request's local service is over: feed the observed sojourn
    /// to the AIMD limiter, shed aged-out waiters and start the queued
    /// queries the new limit admits.
    pub fn on_slot_free(&mut self, slot: Slot, now_ns: u64, fx: &mut Vec<EdgeEffect<P>>) {
        let Some(ctl) = self.overload.as_mut() else {
            return;
        };
        let (drain, transition) = ctl.release(now_ns.saturating_sub(slot.offered_at), now_ns);
        let retry_after = ctl.retry_after_ms();
        if let Some(state) = transition {
            self.note_brownout(now_ns, state);
        }
        for victim in drain.shed {
            self.shed_queued(victim, retry_after, "aged_out", now_ns, fx);
        }
        for ticket in drain.start {
            if let Some(q) = self.queued.remove(&ticket) {
                self.start_service(q.query, q.offered_at, true, now_ns, fx);
            }
        }
    }

    /// `conn` is gone: nothing it parked will be uploaded and nobody is
    /// left to answer. Reaps its pending misses, queued tickets, flight
    /// waits and probe rounds (settling their probe grants); requests that
    /// waited behind a fetch it led are answered `Unavailable`.
    pub fn on_conn_closed(&mut self, conn: ConnId, now_ns: u64, fx: &mut Vec<EdgeEffect<P>>) {
        let mine = (conn, 0)..=(conn, u64::MAX);
        let reaped: Vec<_> = self.pending.range(mine.clone()).map(|(k, _)| *k).collect();
        for key in reaped {
            if let Some(descriptor) = self.pending.remove(&key) {
                self.abandon_flight(key.1, descriptor_digest(&descriptor), now_ns, fx);
            }
        }
        self.flights.retain_waiters(|&(c, _)| c != conn);
        if let Some(ctl) = self.overload.as_mut() {
            self.queued.retain(|&ticket, q| {
                let theirs = q.query.conn != conn;
                if !theirs {
                    ctl.withdraw(ticket);
                }
                theirs
            });
        }
        let rounds: Vec<_> = self.rounds.range(mine).map(|(k, _)| *k).collect();
        for key in rounds {
            let Some(round) = self.rounds.remove(&key) else {
                continue;
            };
            for &(peer, ..) in &round.outstanding {
                self.with_cluster(|cl| cl.cancel_probe(peer));
            }
            self.abandon_flight(key.1, descriptor_digest(&round.descriptor), now_ns, fx);
        }
        self.deadlines.retain(|_, d| d.0 != conn);
    }

    fn start_service(
        &mut self,
        query: Query,
        offered_at: u64,
        queued: bool,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let (conn, req) = (query.conn, query.req);
        self.stats.count_admitted();
        self.trace(now_ns, "edge.admitted", || {
            [("req", Value::from(req)), ("queued", Value::from(queued))]
        });
        fx.push(EdgeEffect::Serving {
            conn,
            req,
            slot: Slot { offered_at },
        });
        let cached_only = self.brownout_state() == BrownoutState::Degraded;
        self.serve(query, cached_only, None, now_ns, fx);
    }

    /// Look the query up and answer a hit, ask for the payload of a
    /// recognition miss, or fetch a hinted one. With `cached_only` (the
    /// Degraded brownout rung) misses are shed instead.
    fn serve(
        &mut self,
        query: Query,
        cached_only: bool,
        outcome: Option<Lookup<Arc<Held>>>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let Query {
            conn,
            req,
            descriptor,
            hint,
        } = query;
        let outcome = outcome.unwrap_or_else(|| self.service.lookup(&descriptor, now_ns));
        self.trace(now_ns, "edge.lookup", || {
            [
                ("req", Value::from(req)),
                ("kind", Value::from(outcome.kind_str())),
                ("hit", Value::from(outcome.is_hit())),
            ]
        });
        if let Some(held) = outcome.into_value() {
            let answer = Answer::held(held, |result| Msg::Hit {
                req_id: req,
                result,
            });
            return fx.push(EdgeEffect::Reply {
                conn,
                req,
                answer,
                charge: Charge::Lookup,
            });
        }
        if cached_only {
            let retry_after_ms = self.overload.as_mut().map_or(0, |ctl| {
                ctl.note_shed();
                ctl.retry_after_ms()
            });
            return self.send_overloaded(conn, req, retry_after_ms, "degraded_miss", now_ns, fx);
        }
        let Some(task) = hint else {
            let parked = self.pending.range((conn, 0)..=(conn, u64::MAX)).count();
            if parked >= PENDING_PER_CONN_MAX && !self.pending.contains_key(&(conn, req)) {
                // Far more unanswered `NeedPayload`s than any client keeps
                // in flight: hang up (which reaps what it parked).
                self.overflows += 1;
                return fx.push(EdgeEffect::Close { conn });
            }
            self.pending.insert((conn, req), descriptor);
            return fx.push(EdgeEffect::Reply {
                conn,
                req,
                answer: Msg::NeedPayload { req_id: req }.into(),
                charge: Charge::Lookup,
            });
        };
        self.fetch(conn, req, descriptor, task, now_ns, fx);
    }

    /// A hinted miss: coalesce, then probe peers or forward to the cloud.
    fn fetch(
        &mut self,
        conn: ConnId,
        req: u64,
        descriptor: FeatureDescriptor,
        task: TaskRequest,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let digest = descriptor_digest(&descriptor);
        if let Some(d) = digest {
            if self.flights.claim(d, (conn, req)) == FlightClaim::Queued {
                self.trace(now_ns, "flight.queued", || [("req", Value::from(req))]);
                return fx.push(EdgeEffect::Wait {
                    conn,
                    req,
                    queued: false,
                });
            }
            if let Some(cl) = self.cluster.as_mut() {
                // Cooperative cluster tier: probe at most `peer_fanout`
                // peers along the ring from the digest's owner, each under
                // its own deadline, before any cloud forward.
                cl.state.note_local_request(&d);
                let plan = cl.state.plan(&d, now_ns);
                let timeout_ns = cl.state.config().peer_timeout_ms * 1_000_000;
                if let Some(&first) = plan.peers.first() {
                    if plan.failover {
                        self.trace_peer(now_ns, "decision.peer_failover", req, first);
                    }
                    let mut outstanding = Vec::with_capacity(plan.peers.len());
                    for &peer in &plan.peers {
                        let Some(to) = self.member(peer) else {
                            self.with_cluster(|cl| cl.cancel_probe(peer));
                            continue;
                        };
                        // Counted at send time, so the counter matches the
                        // probes (and trace events) actually emitted.
                        self.with_cluster(|cl| cl.stats().count_probe());
                        self.trace_peer(now_ns, "decision.peer_probe", req, peer);
                        let token = self.next_timer;
                        self.next_timer += 1;
                        self.deadlines.insert(token, (conn, req, peer));
                        outstanding.push((peer, to, token));
                        fx.push(EdgeEffect::Probe {
                            conn,
                            req,
                            to,
                            digest: d,
                            deadline: Deadline {
                                token,
                                after_ns: timeout_ns,
                            },
                            charge: Charge::Lookup,
                        });
                    }
                    return self.open_round(conn, req, descriptor, task, outstanding, now_ns);
                }
                // An empty plan (every peer dead, or a single edge): fall
                // through to the gated cloud forward.
            }
        }
        // The client-blocking upstream fetch goes through the breaker gate.
        if !self.breaker.allow(now_ns) {
            return self.refuse(conn, req, &descriptor, now_ns, fx);
        }
        self.pending.insert((conn, req), descriptor);
        self.trace(now_ns, "cloud.forward", || [("req", Value::from(req))]);
        fx.push(EdgeEffect::Forward {
            conn,
            req,
            task,
            charge: Charge::Lookup,
        });
    }

    fn open_round(
        &mut self,
        conn: ConnId,
        req: u64,
        descriptor: FeatureDescriptor,
        task: TaskRequest,
        outstanding: Vec<(EdgeId, P, u64)>,
        now_ns: u64,
    ) {
        self.rounds.insert(
            (conn, req),
            Round {
                descriptor,
                task,
                outstanding,
                satisfied: false,
                started_ns: now_ns,
            },
        );
    }

    /// A probe deadline fired. If the peer still owes its reply, count the
    /// timeout against its breaker and, when the round is drained, resolve
    /// it (cloud fallback unless a hit already satisfied it).
    fn probe_timed_out(&mut self, token: u64, now_ns: u64, fx: &mut Vec<EdgeEffect<P>>) {
        let Some((conn, req, peer)) = self.deadlines.remove(&token) else {
            return; // answered in time, or the round is gone
        };
        let key = (conn, req);
        let Some(round) = self.rounds.get_mut(&key) else {
            return;
        };
        let Some(pos) = round.outstanding.iter().position(|o| o.2 == token) else {
            return; // the round under this key is a later one
        };
        round.outstanding.remove(pos);
        let drained = round.outstanding.is_empty();
        let transition = self.record_probe(peer, false, now_ns);
        self.with_cluster(|cl| cl.stats().count_peer_timeout());
        self.trace_peer(now_ns, "decision.peer_timeout", req, peer);
        self.peer_state(now_ns, req, peer, transition);
        if let Some(round) = drained.then(|| self.rounds.remove(&key)).flatten() {
            if !round.satisfied {
                self.cloud_fallback(key, round, now_ns, fx);
            }
        }
    }

    /// A round drained without a hit: forward to the cloud through the
    /// breaker gate, exactly like a direct miss.
    fn cloud_fallback(
        &mut self,
        key: (ConnId, u64),
        round: Round<P>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let (conn, req) = key;
        if !self.breaker.allow(now_ns) {
            return self.refuse(conn, req, &round.descriptor, now_ns, fx);
        }
        self.pending.insert(key, round.descriptor);
        self.trace(now_ns, "cloud.forward", || [("req", Value::from(req))]);
        fx.push(EdgeEffect::Forward {
            conn,
            req,
            task: round.task,
            charge: Charge::Free,
        });
    }

    /// Refuse a request whose upstream leg is unavailable: answer it and
    /// every request coalesced behind it `Unavailable`, so their engines
    /// can degrade to the origin path.
    fn refuse(
        &mut self,
        conn: ConnId,
        req: u64,
        descriptor: &FeatureDescriptor,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let waiters = descriptor_digest(descriptor).map(|d| self.flights.complete(&d));
        let refused = std::iter::once((conn, req)).chain(waiters.into_iter().flatten());
        self.unavailable(req, refused, now_ns, fx);
    }

    /// The requester of a fetch is gone: whoever waits behind it is told
    /// `Unavailable` rather than left waiting for an answer nobody fetches.
    fn abandon_flight(
        &mut self,
        req: u64,
        digest: Option<Digest>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let waiters = digest
            .map(|d| self.flights.complete(&d))
            .unwrap_or_default();
        if !waiters.is_empty() {
            self.unavailable(req, waiters, now_ns, fx);
        }
    }

    /// Answer `to` `Unavailable` — one refusal of request `req`'s leg.
    fn unavailable(
        &mut self,
        req: u64,
        to: impl IntoIterator<Item = (ConnId, u64)>,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        self.stats.count_unavailable();
        self.trace(now_ns, "edge.unavailable", || [("req", Value::from(req))]);
        for (c, r) in to {
            self.reply(c, r, Msg::Unavailable { req_id: r }.into(), fx);
        }
    }

    /// Cache a fetched result when `keep`. An exact result is inserted
    /// here, so the next lookup of its digest hits; a recognition result
    /// is left to the realiser, whose insert may fold the index journal.
    fn land(
        &mut self,
        descriptor: FeatureDescriptor,
        held: &Arc<Held>,
        keep: bool,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        if !keep {
            return;
        }
        let held = Held::clone(held);
        if let FeatureDescriptor::Dnn(_) = descriptor {
            return fx.push(EdgeEffect::Insert { descriptor, held });
        }
        self.service.insert(&descriptor, held, now_ns);
    }

    /// Answer a fetch's requester and every request coalesced behind it.
    fn resolve(
        &mut self,
        conn: ConnId,
        req: u64,
        digest: Option<Digest>,
        held: &Arc<Held>,
        from_peer: bool,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        for (c, r) in digest
            .map(|d| self.flights.complete(&d))
            .unwrap_or_default()
        {
            self.reply(c, r, fetched(held, from_peer, r), fx);
        }
        self.reply(conn, req, fetched(held, from_peer, req), fx);
    }

    fn replicate(
        &mut self,
        peer: EdgeId,
        req: u64,
        digest: Digest,
        held: &Arc<Held>,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        let Some(cl) = self.cluster.as_ref() else {
            return;
        };
        if let Some(&to) = cl.members.get(peer as usize) {
            fx.push(EdgeEffect::Replicate {
                to,
                req,
                token: cl.token,
                digest,
                held: held.clone(),
            });
        }
    }

    fn reply(&self, conn: ConnId, req: u64, answer: Answer, fx: &mut Vec<EdgeEffect<P>>) {
        fx.push(EdgeEffect::Reply {
            conn,
            req,
            answer,
            charge: Charge::Free,
        });
    }

    /// Shed one request: reply `Msg::Overloaded` with the retry-after hint.
    fn send_overloaded(
        &mut self,
        conn: ConnId,
        req: u64,
        retry_after_ms: u32,
        reason: &'static str,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        self.stats.count_shed();
        self.trace(now_ns, "edge.shed", || {
            [
                ("req", Value::from(req)),
                ("reason", Value::from(reason)),
                ("retry_after_ms", Value::from(retry_after_ms)),
            ]
        });
        let msg = Msg::Overloaded {
            req_id: req,
            retry_after_ms,
        };
        self.reply(conn, req, msg.into(), fx);
    }

    /// Shed a query the admission controller dropped from its queue.
    fn shed_queued(
        &mut self,
        ticket: u64,
        retry_after_ms: u32,
        reason: &'static str,
        now_ns: u64,
        fx: &mut Vec<EdgeEffect<P>>,
    ) {
        if let Some(Queued { query, .. }) = self.queued.remove(&ticket) {
            self.send_overloaded(query.conn, query.req, retry_after_ms, reason, now_ns, fx);
        }
    }

    /// Record a brownout transition: one trace event plus the state gauge.
    fn note_brownout(&self, now_ns: u64, state: BrownoutState) {
        self.trace(now_ns, "edge.brownout_state", || {
            [("state", Value::from(state.as_str()))]
        });
        self.tel
            .registry()
            .gauge_set("edge.brownout_state", state.as_gauge() as i64);
    }

    fn member(&self, peer: EdgeId) -> Option<P> {
        self.cluster
            .as_ref()
            .and_then(|cl| cl.members.get(peer as usize).copied())
    }

    fn with_cluster<T>(&mut self, f: impl FnOnce(&mut ClusterState) -> T) -> Option<T> {
        self.cluster.as_mut().map(|cl| f(&mut cl.state))
    }

    fn record_probe(
        &mut self,
        peer: EdgeId,
        ok: bool,
        now_ns: u64,
    ) -> Option<(BreakerState, BreakerState)> {
        self.with_cluster(|cl| cl.record_probe(peer, ok, now_ns))
            .flatten()
    }

    /// One trace event, tagged with this edge's label when it has one.
    fn trace<const N: usize>(
        &self,
        now_ns: u64,
        name: &'static str,
        fields: impl FnOnce() -> [(&'static str, Value); N],
    ) {
        let label = self.label;
        self.tel.event_with(now_ns, name, || {
            let mut v = Vec::with_capacity(N + 1);
            v.extend(label.map(|e| ("edge", Value::from(e))));
            v.extend(fields());
            v
        });
    }

    /// One `decision.peer_*` event: the request and the peer involved.
    fn trace_peer(&self, now_ns: u64, name: &'static str, req: u64, peer: EdgeId) {
        self.trace(now_ns, name, || {
            [("req", Value::from(req)), ("peer", Value::from(peer))]
        });
    }

    /// `cluster.peer_state` when a probe outcome moved a peer's breaker
    /// (trip, rejoin, half-open re-trip): the trace verifier checks these
    /// against the breaker's legal state machine.
    fn peer_state(
        &self,
        now_ns: u64,
        req: u64,
        peer: EdgeId,
        transition: Option<(BreakerState, BreakerState)>,
    ) {
        let Some((from, to)) = transition else {
            return;
        };
        self.trace(now_ns, "cluster.peer_state", || {
            [
                ("req", Value::from(req)),
                ("peer", Value::from(peer)),
                ("from", Value::from(from.as_str())),
                ("to", Value::from(to.as_str())),
            ]
        });
    }
}

/// A fetched result as the answer to request `req_id`.
fn fetched(held: &Arc<Held>, from_peer: bool, req_id: u64) -> Answer {
    Answer::held(held.clone(), |result| match from_peer {
        true => Msg::PeerResult { req_id, result },
        false => Msg::Result { req_id, result },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::engine::AdmissionConfig;
    use crate::services::EdgeConfig;
    use std::time::Duration;

    const MS: u64 = 1_000_000;

    type Fx = Vec<EdgeEffect<u8>>;

    /// An engine over a fresh cache, with admission when `slots` is set.
    fn engine(slots: Option<u32>) -> EdgeEngine<u8> {
        let stats = RobustnessStats::default();
        let breaker = CircuitBreaker::new(3, Duration::from_millis(300));
        let overload = slots.map(|n| {
            let cfg = AdmissionConfig {
                max_queue_age: Duration::from_secs(60),
                ..AdmissionConfig::fixed(n)
            };
            OverloadControl::new(cfg, None)
        });
        let service = Arc::new(EdgeService::new(&EdgeConfig::default()));
        EdgeEngine::new(service, breaker, stats, overload, Telemetry::disabled())
    }

    fn panorama(frame_id: u64) -> (FeatureDescriptor, Option<TaskRequest>) {
        let digest = Digest::of(&frame_id.to_le_bytes());
        let hint = TaskRequest::Panorama { frame_id };
        (FeatureDescriptor::PanoramaHash(digest), Some(hint))
    }

    /// A recognition descriptor nothing in the cache is near.
    fn sighting(i: usize) -> FeatureDescriptor {
        let mut v = vec![0.0f32; EdgeConfig::default().embedding_dim];
        v[i] = 1.0;
        FeatureDescriptor::Dnn(coic_vision::FeatureVec::new(v))
    }

    /// Entries in every map the engine keeps per request: parked and
    /// forwarded misses, queued tickets, flight waiters, probe rounds and
    /// probe deadlines.
    fn census(e: &EdgeEngine<u8>) -> [usize; 5] {
        [
            e.pending.len(),
            e.queued.len(),
            e.flights.waiting(),
            e.rounds.len(),
            e.deadlines.len(),
        ]
    }

    #[test]
    fn a_closed_connection_leaves_no_entry_in_any_map() {
        let mut e = engine(Some(3));
        let cluster = ClusterConfig {
            peer_fanout: 1,
            ..ClusterConfig::default()
        };
        e.join_cluster(ClusterState::new(0, 2, cluster), vec![0, 1], 9);
        let mut fx = Fx::new();
        // A recognition miss parks its descriptor for the upload; an exact
        // miss opens a probe round under a deadline and leads its digest's
        // flight; the same digest again waits behind that flight; and with
        // every slot taken a fourth query queues for admission.
        e.on_query(1, 1, sighting(0), None, 0, &mut fx);
        let (descriptor, hint) = panorama(7);
        e.on_query(1, 2, descriptor.clone(), hint.clone(), 0, &mut fx);
        e.on_query(1, 3, descriptor.clone(), hint, 0, &mut fx);
        e.on_query(1, 4, sighting(1), None, 0, &mut fx);
        assert_eq!(census(&e), [1, 1, 1, 1, 1]);
        // Another connection's queued query outlives the close.
        e.on_query(2, 1, sighting(2), None, 0, &mut fx);
        let queue = |e: &EdgeEngine<u8>| e.overload.as_ref().unwrap().admission().queue_depth();
        assert_eq!(queue(&e), 2);

        fx.clear();
        e.on_conn_closed(1, MS, &mut fx);
        assert_eq!(census(&e), [0, 1, 0, 0, 0]);
        assert!(fx.is_empty(), "nobody else waited: {fx:?}");
        let digest = descriptor_digest(&descriptor).unwrap();
        assert!(
            !e.flights.is_inflight(&digest),
            "an abandoned flight stayed"
        );
        assert_eq!(queue(&e), 1, "the closed connection's ticket stayed queued");
        e.on_conn_closed(2, MS, &mut fx);
        assert_eq!(census(&e), [0; 5]);
        assert_eq!(queue(&e), 0);
    }

    #[test]
    fn queued_requests_sharing_a_req_id_each_get_their_grant() {
        // Every client numbers its requests from 1, so two connections
        // queued behind a full gate routinely carry the same request id.
        // Both grants land back to back; each must reach its own
        // connection, or one waits forever with its slot counted in flight.
        let mut e = engine(Some(2));
        let mut fx = Fx::new();
        let slots = |fx: &mut Fx| -> Vec<(ConnId, Slot)> {
            fx.drain(..)
                .filter_map(|effect| match effect {
                    EdgeEffect::Serving { conn, slot, .. } => Some((conn, slot)),
                    _ => None,
                })
                .collect()
        };
        e.on_query(1, 1, sighting(1), None, 0, &mut fx);
        e.on_query(2, 1, sighting(2), None, 0, &mut fx);
        let holders = slots(&mut fx);
        assert_eq!(holders.len(), 2);
        for conn in [3, 4] {
            e.on_query(conn, 7, sighting(3), None, MS, &mut fx);
        }
        let waits: Vec<_> = fx.drain(..).filter_map(|f| f.conn()).collect();
        assert_eq!(waits, [3, 4], "both queue");
        for (_, slot) in holders {
            e.on_slot_free(slot, 2 * MS, &mut fx);
        }
        let replies: Vec<_> = fx
            .iter()
            .filter_map(|effect| match effect {
                EdgeEffect::Reply { conn, req, .. } => Some((*conn, *req)),
                _ => None,
            })
            .collect();
        assert_eq!(replies, [(3, 7), (4, 7)]);
        let granted = slots(&mut fx);
        assert_eq!(granted.iter().map(|g| g.0).collect::<Vec<_>>(), [3, 4]);
        for (_, slot) in granted {
            e.on_slot_free(slot, 3 * MS, &mut fx);
        }
        let ctl = e.overload.as_ref().unwrap().admission();
        assert_eq!((ctl.queue_depth(), ctl.inflight()), (0, 0));
    }

    #[test]
    fn cloud_failures_trip_the_breaker_and_a_success_after_the_cooldown_closes_it() {
        // The engine consumes the cloud leg's breaker transitions and counts
        // them; the simulated cloud never fails, so only this test sees a
        // failure-tripped breaker let its probe through and close again.
        let mut e = engine(None); // three failures trip; 300 ms cooldown
        let mut fx = Fx::new();
        for frame in 0..3 {
            let (descriptor, hint) = panorama(frame);
            e.on_query(1, frame + 1, descriptor, hint, frame * MS, &mut fx);
            assert!(matches!(fx.as_slice(), [EdgeEffect::Forward { .. }]));
            fx.clear();
            e.on_cloud_reply(1, frame + 1, None, frame * MS, &mut fx);
            fx.clear();
        }
        assert_eq!(e.breaker_state(), BreakerState::Open);
        assert_eq!(e.stats.snapshot().breaker_trips, 1);

        // Inside the cooldown a hinted miss is refused at once.
        let (descriptor, hint) = panorama(10);
        e.on_query(1, 10, descriptor.clone(), hint.clone(), 100 * MS, &mut fx);
        match fx.as_slice() {
            [EdgeEffect::Reply { answer, .. }] => {
                assert_eq!(answer.msg, Msg::Unavailable { req_id: 10 });
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        fx.clear();

        // After it, the same miss goes up as the breaker's probe, and its
        // success closes the breaker.
        e.on_query(1, 11, descriptor, hint, 400 * MS, &mut fx);
        assert!(matches!(
            fx.as_slice(),
            [EdgeEffect::Forward { req: 11, .. }]
        ));
        fx.clear();
        e.on_cloud_reply(1, 11, Some(fetched_pano(1)), 401 * MS, &mut fx);
        assert_eq!(e.breaker_state(), BreakerState::Closed);
        let snap = e.stats.snapshot();
        assert_eq!((snap.breaker_trips, snap.breaker_closes), (1, 1));
    }

    /// A panorama of 64 bytes of `fill`, as the cloud would answer it.
    fn fetched_pano(fill: u8) -> Held {
        Held::new(TaskResult::Panorama(bytes::Bytes::from(vec![fill; 64])))
    }

    #[test]
    fn a_fetched_result_is_cached_before_the_cloud_reply_returns() {
        let mut e = engine(None);
        let mut fx = Fx::new();
        let (descriptor, hint) = panorama(5);
        e.on_query(1, 1, descriptor.clone(), hint.clone(), 0, &mut fx);
        fx.clear();
        e.on_cloud_reply(1, 1, Some(fetched_pano(5)), MS, &mut fx);
        assert!(matches!(fx.as_slice(), [EdgeEffect::Reply { conn: 1, .. }]));
        assert!(e
            .service
            .exact_contains(&descriptor_digest(&descriptor).unwrap(), MS));
        // The next miss on the digest is a hit, with no second fetch.
        fx.clear();
        e.on_query(2, 1, descriptor, hint, 2 * MS, &mut fx);
        let [EdgeEffect::Reply { answer, .. }] = fx.as_slice() else {
            panic!("expected one reply, got {fx:?}");
        };
        assert!(matches!(answer.msg, Msg::Hit { .. }), "{answer:?}");
    }

    #[test]
    fn a_non_owner_does_not_cache_a_result_that_is_not_hot() {
        let mut e = engine(None);
        let cluster = ClusterConfig {
            peer_fanout: 0,
            ..ClusterConfig::default()
        };
        e.join_cluster(ClusterState::new(0, 2, cluster), vec![0, 1], 9);
        let digest = |d: &FeatureDescriptor| descriptor_digest(d).unwrap();
        let (descriptor, hint) = (0..)
            .map(panorama)
            .find(|(d, _)| !e.cluster().unwrap().is_owner(&digest(d)))
            .unwrap();
        let mut fx = Fx::new();
        e.on_query(1, 1, descriptor.clone(), hint, 0, &mut fx);
        fx.clear();
        e.on_cloud_reply(1, 1, Some(fetched_pano(3)), MS, &mut fx);
        // The copy goes to the owner; this edge keeps none.
        assert!(matches!(
            fx.as_slice(),
            [
                EdgeEffect::Replicate { to: 1, .. },
                EdgeEffect::Reply { conn: 1, .. }
            ]
        ));
        assert!(!e.service.exact_contains(&digest(&descriptor), MS));
    }

    #[test]
    fn a_replicate_push_is_installed_only_under_the_cluster_token() {
        let mut e = engine(None);
        let cluster = ClusterState::new(0, 2, ClusterConfig::default());
        e.join_cluster(cluster, vec![0, 1], 9);
        let mut fx = Fx::new();
        let (kept, forged) = (Digest::of(b"kept"), Digest::of(b"forged"));
        e.on_replicate(4, 9, kept, fetched_pano(1), MS, &mut fx);
        assert!(fx.is_empty() && e.service.exact_contains(&kept, MS));
        e.on_replicate(4, 8, forged, fetched_pano(2), MS, &mut fx);
        assert!(matches!(fx.as_slice(), [EdgeEffect::Close { conn: 4 }]));
        assert!(!e.service.exact_contains(&forged, MS));
    }
}
