//! Real-socket deployment of CoIC: a cloud process, an edge process and a
//! blocking client over framed TCP ([`coic_netsim::rt`]), with real
//! wall-clock latency (the SimNet inference, CMF parsing and panorama
//! synthesis all actually run). Used by the `live_deployment` example and
//! the loopback integration tests.
//!
//! Cloud and edge are both hosted by [`FrameServer`]: one blocking thread
//! per connection (recv → handler → send). DESIGN.md §17 records why this
//! is the only serving path.
//!
//! Nothing here decides. [`NetClient`] realises the effects of the sans-IO
//! [`crate::engine::ClientEngine`] (`SendQuery` → framed TCP exchange,
//! `ArmTimer(Backoff)` → sleep, `ArmTimer(Deadline)` → socket read
//! deadline, `ProbeEdge` → reconnect). The edge realises the effects of the [`EdgeEngine`] that
//! also decides the simulated edge ([`crate::simrun`]): each connection
//! thread feeds its frame to the engine (behind one mutex) and realises
//! what comes back — a reply, a cloud call, peer probes, an insert, a
//! replication push — with every socket call and cache insert made after
//! the lock is let go. A request the engine parks (queued for admission,
//! or coalesced behind another's fetch) waits in its connection's
//! parked-reply slot, where whichever thread decides its fate hands over
//! what it must do next. Both stacks therefore take the same decisions for
//! the same workload and [`FaultSchedule`].
//!
//! What stays here is what IO needs: socket deadlines on every call; the
//! client's reconnects and its origin path ([`NetClient::connect_with`]);
//! a small constant-bounded set of idle cloud connections per edge (each
//! client connection gets back the one it used last; drained on any
//! failure; a stale one is retried once on a fresh connect); and payloads
//! as shared buffers summed once ([`Held`], DESIGN.md §3.1: a cached model
//! is a slice of the frame it arrived in and goes to the client's socket
//! from that buffer under the checksum kept with it — a hit reads no cached
//! byte, a miss reads each once, to verify it). Every transition is counted
//! in [`RobustnessStats`] ([`NetClient::robustness`],
//! [`EdgeHandle::robustness`]); per-request QoE records aggregate via
//! [`NetClient::report`].

use crate::cluster::{ClusterConfig, ClusterSnapshot, ClusterState, EdgeId};
use crate::compute::ComputeConfig;
use crate::config::NetConfigBuilder;
use crate::content::{ModelLibrary, PanoLibrary};
use crate::descriptor::FeatureDescriptor;
use crate::engine::{
    AdmissionConfig, Answer, BreakerState, BrownoutConfig, BrownoutState, CircuitBreaker, Clock,
    ConnId, EdgeEffect, EdgeEngine, EdgeTimer, FaultSchedule, OverloadControl, RetryPolicy,
    RobustnessStats, Slot, WallClock,
};
use crate::protocol::Msg;
use crate::services::{CloudService, EdgeConfig, EdgeService};
use crate::task::Held;
use coic_cache::{Digest, Metrics};
use coic_netsim::rt::{FaultError, FrameConn, FrameError, FrameServer, Summed};
use coic_obs::{MetricsRegistry, Telemetry, Value};
use coic_vision::{ObjectClass, SceneGenerator};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

pub use crate::engine::PENDING_PER_CONN_MAX;
pub use client::{LiveOutcome, NetClient};

mod client;

/// Deadlines, retry and breaker parameters for the live deployment.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Client-side retry/backoff policy per request.
    pub retry: RetryPolicy,
    /// How long a client waits for any single reply frame.
    pub request_deadline: Duration,
    /// Bound on TCP connection establishment.
    pub connect_timeout: Duration,
    /// While degraded, how often the client probes the edge to rejoin.
    pub probe_interval: Duration,
    /// Deadline on the edge's own upstream calls (cloud, peers).
    pub edge_call_deadline: Duration,
    /// Consecutive cloud-leg failures that trip the edge's breaker.
    pub breaker_threshold: u32,
    /// How long the tripped breaker rejects before probing the cloud.
    pub breaker_cooldown: Duration,
    /// Deterministic fault injection: attempts named here fail at the
    /// client's IO boundary without touching the network, mirroring the
    /// simulator's schedule semantics for the determinism tests.
    pub faults: FaultSchedule,
    /// Edge admission control: the same sans-IO bounded-queue + AIMD
    /// controller the simulator runs, here behind a mutex with queued
    /// connection threads parked on a condvar. `None` (the default)
    /// serves every query the moment its thread picks it up.
    pub admission: Option<AdmissionConfig>,
    /// Brownout ladder watching the admission queue's pressure (only
    /// meaningful together with [`NetConfig::admission`]).
    pub brownout: Option<BrownoutConfig>,
    /// Observability handle shared by every component spawned under this
    /// config. The default ([`Telemetry::disabled`]) drops trace records
    /// (metrics still register), so existing callers pay nothing; the
    /// `coic live` CLI passes [`Telemetry::new`] to capture the same span
    /// and event vocabulary the simulator emits.
    pub telemetry: Telemetry,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            retry: RetryPolicy::default(),
            request_deadline: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(500),
            probe_interval: Duration::from_millis(100),
            edge_call_deadline: Duration::from_secs(3),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(300),
            faults: FaultSchedule::new(),
            admission: None,
            brownout: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl NetConfig {
    /// Start a typed builder (the supported construction path; see
    /// [`crate::config`]).
    pub fn builder() -> NetConfigBuilder {
        NetConfigBuilder::default()
    }
}

/// A running cloud process.
pub struct CloudHandle {
    addr: SocketAddr,
    _server: FrameServer,
}

impl CloudHandle {
    /// Address clients/edges should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Start a cloud server on an ephemeral loopback port.
pub fn spawn_cloud(
    classes: &[ObjectClass],
    image_side: u32,
    compute: ComputeConfig,
    models: Arc<ModelLibrary>,
    panos: Arc<PanoLibrary>,
    seed: u64,
) -> std::io::Result<CloudHandle> {
    let gen = SceneGenerator::new(image_side);
    let service = Arc::new(CloudService::new(
        classes, &gen, compute, models, panos, seed,
    ));
    let server = FrameServer::spawn_conn(
        "127.0.0.1:0",
        move |_conn, frame| {
            let msg = Msg::decode_frame(frame).ok()?;
            let answer = match msg {
                Msg::Forward { req_id, task } => {
                    let (held, _cost) = service.execute_held(&task);
                    Answer::held(held, |result| Msg::CloudReply { req_id, result })
                }
                Msg::BaselineRequest { req_id, task } => {
                    let (held, _cost) = service.execute_held(&task);
                    Answer::held(held, |result| Msg::BaselineReply { req_id, result })
                }
                _ => return None,
            };
            // The library's buffer goes to the socket as it is, under the
            // sum the library entry keeps from its first send.
            Some(frame_parts(&answer.msg, answer.held.as_deref(), None))
        },
        |_conn| {},
    )?;
    Ok(CloudHandle {
        addr: server.local_addr(),
        _server: server,
    })
}

/// Replication-push token of a live cluster: every member derives the
/// identical value from the member address list it joined with (folded
/// with the configured [`ClusterConfig::auth_token`] secret), and the
/// [`Msg::Replicate`] handler installs a pushed entry only when the
/// sender presented it. A connection that merely reaches the edge port —
/// without knowing the full membership (or the secret) — cannot plant
/// arbitrary results under arbitrary digests.
fn cluster_token(members: &[SocketAddr], auth_token: u64) -> u64 {
    let mut buf = Vec::with_capacity(members.len() * 24);
    for m in members {
        buf.extend_from_slice(m.to_string().as_bytes());
        buf.push(b';');
    }
    coic_cache::fnv1a64(&buf) ^ auth_token
}

/// `msg` as the head and body of one frame. A result blob it carries goes
/// out from its own buffer — cache entry, library entry or receive buffer —
/// not copied into the message first; and when `held` is the holder of that
/// result, under the sum kept with it (computed here if this is the
/// holder's first send) rather than one computed per frame. `counters`
/// record which of the two happened to a blob.
fn frame_parts(
    msg: &Msg,
    held: Option<&Held>,
    counters: Option<&EdgeCounters>,
) -> (Vec<u8>, Summed) {
    let (head, body) = msg.encode_parts();
    let known = held.is_some_and(Held::is_summed);
    // The sum goes with the buffer it was computed from, never with a
    // message that merely should contain that buffer.
    let (body, reused) = match held.and_then(Held::blob) {
        Some(blob) if blob.is_buffer(&body) => (blob.clone(), known),
        _ => (Summed::of(body), false),
    };
    if let (Some(c), false) = (counters, body.bytes().is_empty()) {
        let counter = if reused {
            &c.blob_sum_reused
        } else {
            &c.blob_summed_on_send
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    (head, body)
}

/// Send `msg` as one frame ([`frame_parts`]).
fn send_msg(conn: &mut FrameConn, msg: &Msg, held: Option<&Held>) -> Result<(), FrameError> {
    let (head, body) = frame_parts(msg, held, None);
    conn.send_summed(&head, &body)
}

/// Pull-based counters of one live edge's reply path
/// ([`EdgeHandle::publish_metrics`]).
#[derive(Default)]
struct EdgeCounters {
    /// Reply blobs sent under a sum their holder already had: no pass.
    blob_sum_reused: AtomicU64,
    /// Reply blobs summed for the send (a holder's first, or no holder).
    blob_summed_on_send: AtomicU64,
}

/// Best-effort replication push: connect, send [`Msg::Replicate`], await
/// the ack under the edge-call deadline. Any failure is dropped —
/// replication is an optimization, never a correctness dependency.
fn replicate_to(
    addr: SocketAddr,
    req_id: u64,
    token: u64,
    digest: Digest,
    held: &Held,
    net: &NetConfig,
) {
    let Ok(mut conn) = dial(&addr, net) else {
        return;
    };
    let push = Msg::Replicate {
        req_id,
        token,
        digest,
        result: held.result().clone(),
    };
    if send_msg(&mut conn, &push, Some(held)).is_ok() {
        let _ = conn.recv(); // ReplicateAck, best effort
    }
}

/// A connection for one of the edge's own calls — to the cloud, a peer or
/// a replica — under the edge-call deadline.
fn dial(addr: &SocketAddr, net: &NetConfig) -> Result<FrameConn, FrameError> {
    let conn = FrameConn::connect_timeout(addr, net.connect_timeout)?;
    conn.set_read_deadline(Some(net.edge_call_deadline))?;
    conn.set_write_deadline(Some(net.edge_call_deadline))?;
    Ok(conn)
}

/// A running edge process. Dropping the handle (or calling
/// [`EdgeHandle::shutdown`]) tears the edge down for real — its accept
/// loop stops and live client connections are severed — which is what the
/// chaos tests rely on to kill an edge mid-workload.
pub struct EdgeHandle {
    addr: SocketAddr,
    inner: Arc<LiveEdge>,
    server: FrameServer,
}

impl EdgeHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Join a consistent-hash cluster as member `me` of `members` (every
    /// member's address, this edge included at index `me`): misses probe
    /// at most `cfg.peer_fanout` peers along the ring from the digest's
    /// owner, dead peers trip out via per-peer breakers, and hot entries
    /// replicate toward their demand. Idempotent — joining again (e.g.
    /// after a restart) resets the policy state.
    pub fn join_cluster(&self, me: EdgeId, members: &[SocketAddr], cfg: ClusterConfig) {
        let token = cluster_token(members, cfg.auth_token);
        let state = ClusterState::new(me, members.len() as u32, cfg);
        self.inner
            .engine
            .lock()
            .join_cluster(state, members.to_vec(), token);
    }

    /// Snapshot of this edge's cooperative-tier counters (`None` before
    /// [`EdgeHandle::join_cluster`]).
    pub fn cluster_stats(&self) -> Option<ClusterSnapshot> {
        let engine = self.inner.engine.lock();
        engine.cluster().map(|c| c.stats().snapshot())
    }

    /// Breaker state of a cluster peer as seen from this edge (`None`
    /// before [`EdgeHandle::join_cluster`]).
    pub fn peer_state(&self, peer: EdgeId) -> Option<BreakerState> {
        let engine = self.inner.engine.lock();
        engine.cluster().and_then(|c| c.peer_state(peer))
    }

    /// Fault-handling counters for this edge (breaker trips, unavailable
    /// replies, upstream timeouts).
    pub fn robustness(&self) -> RobustnessStats {
        self.inner.stats.clone()
    }

    /// State of the edge→cloud circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.inner.engine.lock().breaker_state()
    }

    /// Current brownout rung of the admission controller (Healthy when
    /// admission control is disabled).
    pub fn brownout_state(&self) -> BrownoutState {
        self.inner.engine.lock().brownout_state()
    }

    /// Recognition-cache metrics.
    pub fn recog_cache_metrics(&self) -> Metrics {
        self.inner.service.recog_metrics()
    }

    /// Exact-cache metrics.
    pub fn exact_cache_metrics(&self) -> Metrics {
        self.inner.service.exact_metrics()
    }

    /// Publish this edge's cache metrics (`cache.recog.*`, `cache.exact.*`),
    /// robustness counters (`robustness.*`) and reply-path counters into
    /// `reg`: how many reply blobs went out under a checksum their cache
    /// entry already carried, how many were summed for the send, how many
    /// misses wait for their `Upload` or their cloud reply right now, and
    /// how many connections were closed for parking too many.
    pub fn publish_metrics(&self, reg: &MetricsRegistry) {
        let inner = &self.inner;
        inner.service.publish_metrics(reg);
        inner.stats.snapshot().publish(reg);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        reg.counter_add(
            "edge.blob_sum_reused",
            count(&inner.counters.blob_sum_reused),
        );
        reg.counter_add(
            "edge.blob_summed_on_send",
            count(&inner.counters.blob_summed_on_send),
        );
        let (pending, overflows, cluster) = {
            let engine = inner.engine.lock();
            let cluster = engine.cluster().map(|c| c.stats().snapshot());
            (engine.pending_len(), engine.pending_overflows(), cluster)
        };
        reg.counter_add("edge.pending_overflow", overflows);
        reg.gauge_set("edge.pending_uploads", pending as i64);
        if let Some(snap) = cluster {
            snap.publish(reg);
        }
    }

    /// Snapshot of the recognition index hot-path telemetry (probe
    /// counts, rebuilds, journal depth, snapshot age).
    pub fn index_telemetry(&self) -> coic_cache::IndexTelemetry {
        self.inner.service.index_telemetry()
    }

    /// Stop the edge: no new connections, live ones severed, idle cloud
    /// connections closed. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        self.inner.cloud.close();
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How many idle cloud connections one edge keeps for reuse. A miss takes
/// one (or connects), and returns it after a clean exchange; a constant,
/// because each idle connection holds a thread at the cloud.
const CLOUD_IDLE_MAX: usize = 4;

/// One edge's idle connections to its cloud. A connection is owned by one
/// call at a time (taken out, used for one request/reply, put back), so
/// replies cannot cross. `None` once the edge has shut down: connections
/// returned by calls still in flight are closed instead of parked.
///
/// Each idle connection remembers the client connection whose miss parked
/// it, and that client's next miss gets it back. Which connection a miss
/// runs on therefore does not depend on how the parking of concurrent
/// misses happened to interleave: a client's requests keep crossing the
/// same three threads (its own, its edge connection's, one cloud
/// connection's), which the scheduler can keep on one processor; a cloud
/// thread that changes clients is woken across processors (DESIGN.md §17).
/// When a client connection closes, its idle connection is released
/// (owner `None`) and goes to the next client connection that has none of
/// its own — typically the same client reconnecting — before any live
/// client's connection does.
struct CloudConns {
    cloud_addr: SocketAddr,
    idle: Mutex<Option<Vec<Parked>>>,
}

/// An idle cloud connection and the client connection it is kept for
/// (`None`: released).
type Parked = (Option<u64>, FrameConn);

impl CloudConns {
    fn new(cloud_addr: SocketAddr) -> CloudConns {
        CloudConns {
            cloud_addr,
            idle: Mutex::new(Some(Vec::with_capacity(CLOUD_IDLE_MAX))),
        }
    }

    /// The connection client connection `owner` parked, or else the most
    /// recently released one, or else the most recently parked one, if any.
    fn take(&self, owner: u64) -> Option<FrameConn> {
        let mut idle = self.idle.lock();
        let idle = idle.as_mut()?;
        let at = idle
            .iter()
            .rposition(|(parked_by, _)| *parked_by == Some(owner))
            .or_else(|| idle.iter().rposition(|(parked_by, _)| parked_by.is_none()))
            .or(idle.len().checked_sub(1))?;
        Some(idle.remove(at).1)
    }

    /// Park `conn` for `owner` after a clean exchange (dropped when the
    /// set is full or the edge has shut down).
    fn put(&self, owner: u64, conn: FrameConn) {
        if let Some(idle) = self.idle.lock().as_mut() {
            if idle.len() < CLOUD_IDLE_MAX {
                idle.push((Some(owner), conn));
            }
        }
    }

    /// Client connection `owner` has closed: release what it parked, as
    /// the most recently released connection.
    fn release(&self, owner: u64) {
        if let Some(idle) = self.idle.lock().as_mut() {
            if let Some(at) = idle
                .iter()
                .position(|(parked_by, _)| *parked_by == Some(owner))
            {
                let (_, conn) = idle.remove(at);
                idle.push((None, conn));
            }
        }
    }

    /// Close every idle connection: the cloud just failed a call or the
    /// breaker is refusing it, so none of them can be trusted.
    fn drain(&self) {
        if let Some(idle) = self.idle.lock().as_mut() {
            idle.clear();
        }
    }

    /// Close every idle connection and park no more.
    fn close(&self) {
        *self.idle.lock() = None;
    }

    #[cfg(test)]
    fn idle_len(&self) -> usize {
        self.idle.lock().as_ref().map_or(0, Vec::len)
    }

    #[cfg(test)]
    fn released_len(&self) -> usize {
        self.idle.lock().as_ref().map_or(0, |idle| {
            idle.iter().filter(|(owner, _)| owner.is_none()).count()
        })
    }
}

/// One request/reply over an open cloud connection. The result comes back
/// held with the sum of its blob, which is what the frame's verified sum
/// leaves once the bytes before the blob are taken off: the edge sends the
/// blob on, and caches it, without reading it a second time.
fn cloud_exchange(cloud: &mut FrameConn, msg: &Msg) -> Result<Held, FaultError> {
    send_msg(cloud, msg, None).map_err(|e| e.fault())?;
    let frame = cloud.recv_summed().map_err(|e| e.fault())?;
    match Msg::decode_frame(frame.bytes().clone()) {
        Ok(Msg::CloudReply { result, .. }) => Ok(Held::from_frame(result, &frame)),
        _ => Err(FaultError::Corrupt),
    }
}

/// One peer probe: `Ok` with the peer's answer when a frame came back (a
/// content miss still proves the peer alive), `Err` on a connect, deadline
/// or protocol failure.
fn probe(addr: SocketAddr, req: u64, digest: Digest, net: &NetConfig) -> Result<Option<Held>, ()> {
    let mut peer = dial(&addr, net).map_err(drop)?;
    let query = Msg::PeerQuery {
        req_id: req,
        digest,
    };
    send_msg(&mut peer, &query, None).map_err(drop)?;
    let frame = peer.recv_summed().map_err(drop)?;
    match Msg::decode_frame(frame.bytes().clone()) {
        Ok(Msg::PeerReply { result, .. }) => Ok(result.map(|r| Held::from_frame(r, &frame))),
        _ => Err(()),
    }
}

/// How often the thread of a request queued for admission wakes to age the
/// queue when nothing else arrives for it.
const PARKED_TICK: Duration = Duration::from_millis(5);

/// A connection's parked-reply slot: the effects of a request the engine
/// parked (queued for admission, or coalesced behind another's fetch),
/// handed over by whichever thread decided its fate and realised by the
/// connection's own thread. A connection has at most one request in the
/// handler, so one slot per connection serves all of its requests.
#[derive(Default)]
struct ParkedReply {
    effects: StdMutex<Vec<EdgeEffect<SocketAddr>>>,
    ready: Condvar,
}

/// One frame's passage through the edge, as its connection thread sees it.
struct Turn {
    conn: ConnId,
    req: u64,
    /// Serving a peer's probe: pushes it causes must not ride the reply.
    peer: bool,
    reply: Option<Answer>,
    close: bool,
    /// The engine parked the request: its effects arrive in the slot.
    waiting: bool,
    /// Parked in the admission queue, which this thread ages while it
    /// waits (a request behind a flight just waits for the flight).
    queued: bool,
    slot: Option<Slot>,
    /// Probes of a round that were still to go when the reply was already
    /// in hand: realised after it, off the reply path.
    late: Vec<EdgeEffect<SocketAddr>>,
}

impl Turn {
    fn new(conn: ConnId, req: u64) -> Turn {
        Turn {
            conn,
            req,
            peer: false,
            reply: None,
            close: false,
            waiting: false,
            queued: false,
            slot: None,
            late: Vec::new(),
        }
    }
}

thread_local! {
    /// A connection thread's effect buffer, reused frame after frame.
    static EFFECTS: Cell<Vec<EdgeEffect<SocketAddr>>> = const { Cell::new(Vec::new()) };
}

/// The live edge: the engine behind one mutex, and what realising its
/// effects over sockets needs. Only IO state lives here — idle cloud
/// connections, blob sums, parked-reply slots; every decision is the
/// engine's.
struct LiveEdge {
    engine: Mutex<EdgeEngine<SocketAddr>>,
    service: Arc<EdgeService>,
    clock: WallClock,
    net: NetConfig,
    cloud: CloudConns,
    counters: EdgeCounters,
    parked: Mutex<HashMap<ConnId, Arc<ParkedReply>>>,
    stats: RobustnessStats,
    /// The engine's [`EdgeEngine::looks_up_on_arrival`], fixed at spawn.
    looks_up_first: bool,
}

impl LiveEdge {
    /// Serve one frame of connection `conn`: feed it to the engine, realise
    /// what comes back, and answer (`None` hangs up).
    fn handle(self: &Arc<Self>, conn: ConnId, frame: bytes::Bytes) -> Option<(Vec<u8>, Summed)> {
        // A blob in the message (`Replicate`) stays a slice of `frame`.
        let msg = Msg::decode_frame(frame).ok()?;
        let req = match &msg {
            Msg::Query { req_id, .. }
            | Msg::Upload { req_id, .. }
            | Msg::PeerQuery { req_id, .. }
            | Msg::Replicate { req_id, .. } => *req_id,
            _ => return None,
        };
        let mut turn = Turn {
            peer: matches!(msg, Msg::PeerQuery { .. }),
            ..Turn::new(conn, req)
        };
        let push = matches!(msg, Msg::Replicate { .. });
        // A recognition query's index search runs before the engine is
        // taken, when the engine allows it.
        let looked_up = match &msg {
            Msg::Query {
                descriptor: descriptor @ FeatureDescriptor::Dnn(_),
                hint: None,
                ..
            } if self.looks_up_first => Some(self.service.lookup(descriptor, self.clock.now_ns())),
            _ => None,
        };
        self.step(&mut turn, |engine, now, fx| match msg {
            Msg::Query {
                descriptor, hint, ..
            } => match looked_up {
                Some(outcome) => engine.on_looked_up(conn, req, descriptor, outcome, now, fx),
                None => engine.on_query(conn, req, descriptor, hint, now, fx),
            },
            Msg::Upload { task, .. } => engine.on_upload(conn, req, task, now, fx),
            Msg::PeerQuery { digest, .. } => engine.on_peer_query(conn, req, digest, now, fx),
            Msg::Replicate {
                token,
                digest,
                result,
                ..
            } => engine.on_replicate(conn, token, digest, Held::new(result), now, fx),
            _ => {}
        });
        while turn.waiting && turn.reply.is_none() && !turn.close {
            self.wait(&mut turn);
        }
        // Local service is over: return the slot (upstream waits are part
        // of the observed sojourn on purpose — a slow cloud is edge
        // overload from the client's view).
        if let Some(slot) = turn.slot.take() {
            self.step(&mut turn, |engine, now, fx| {
                engine.on_slot_free(slot, now, fx)
            });
        }
        if !turn.late.is_empty() {
            self.realise_late(conn, req, std::mem::take(&mut turn.late));
        }
        let answer = match turn.reply {
            _ if turn.close => return None,
            Some(answer) => answer,
            // An accepted push is acked, so the framing stays request/reply.
            None if push => Msg::ReplicateAck { req_id: req }.into(),
            None => return None,
        };
        // A cached result reaches the socket from the cache's own buffer,
        // under the checksum its entry carries.
        let held = answer.held.as_deref();
        Some(frame_parts(&answer.msg, held, Some(&self.counters)))
    }

    /// Feed one event to the engine, then realise its effects with the
    /// lock let go.
    fn step(
        &self,
        turn: &mut Turn,
        event: impl FnOnce(&mut EdgeEngine<SocketAddr>, u64, &mut Vec<EdgeEffect<SocketAddr>>),
    ) {
        let mut fx = EFFECTS.take();
        let now = self.clock.now_ns();
        event(&mut self.engine.lock(), now, &mut fx);
        for effect in fx.drain(..) {
            self.apply(turn, effect);
        }
        EFFECTS.set(fx);
    }

    fn apply(&self, turn: &mut Turn, effect: EdgeEffect<SocketAddr>) {
        if let Some(conn) = effect.conn().filter(|&conn| conn != turn.conn) {
            return self.deliver(conn, effect);
        }
        match effect {
            EdgeEffect::Reply { req, answer, .. } => {
                if req != turn.req || turn.reply.is_some() {
                    return;
                }
                if matches!(answer.msg, Msg::Unavailable { .. }) {
                    // The upstream leg failed or is refused: no idle
                    // connection to it can be trusted.
                    self.cloud.drain();
                }
                turn.reply = Some(answer);
            }
            EdgeEffect::Wait { queued, .. } => {
                turn.waiting = true;
                turn.queued = queued;
            }
            EdgeEffect::Serving { slot, .. } => {
                turn.slot = Some(slot);
                turn.queued = false;
            }
            EdgeEffect::Close { .. } => turn.close = true,
            // A probe here is one blocking call under its socket deadline,
            // so there is no armed timer to cancel.
            EdgeEffect::Disarm { .. } => {}
            EdgeEffect::Insert { descriptor, held } => {
                let folded = self.service.insert(&descriptor, held, self.clock.now_ns());
                trace_rebuild(&self.net, &self.service, folded, self.clock.now_ns());
            }
            EdgeEffect::Replicate {
                to,
                req,
                token,
                digest,
                held,
            } => {
                if turn.peer {
                    // Detached: the probing edge waits for this reply under
                    // its own deadline, so the push (connect + ack round
                    // trip) must not ride it — a healthy owner would read as
                    // a breaker failure whenever a hot crossing coincides
                    // with a probe.
                    let net = self.net.clone();
                    let _ = std::thread::Builder::new()
                        .name("coic-replicate".into())
                        .spawn(move || replicate_to(to, req, token, digest, &held, &net));
                } else {
                    replicate_to(to, req, token, digest, &held, &self.net);
                }
            }
            EdgeEffect::Forward {
                conn, req, task, ..
            } => {
                let result = self.cloud_call(conn, &Msg::Forward { req_id: req, task });
                self.step(turn, |engine, now, fx| {
                    engine.on_cloud_reply(conn, req, result, now, fx);
                });
            }
            // A hit already answered the round: the engine still hears how
            // the other probes went, but the client does not wait for them.
            effect @ EdgeEffect::Probe { .. } if turn.reply.is_some() => turn.late.push(effect),
            EdgeEffect::Probe {
                conn,
                req,
                to,
                digest,
                deadline,
                ..
            } => {
                let outcome = probe(to, req, digest, &self.net);
                self.step(turn, |engine, now, fx| {
                    if let Ok(result) = outcome {
                        engine.on_peer_reply(to, conn, req, result, now, fx);
                    }
                    // The socket's deadline stands in for the timer: once
                    // the probe is over, it has passed.
                    engine.on_timer(EdgeTimer::Probe(deadline.token), now, fx);
                });
            }
        }
    }

    /// Hand `effect` to the thread of parked connection `conn`.
    fn deliver(&self, conn: ConnId, effect: EdgeEffect<SocketAddr>) {
        let slot = self.parked.lock().entry(conn).or_default().clone();
        slot.effects
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(effect);
        slot.ready.notify_one();
    }

    /// Realise, on a thread of their own, the probes of request `req` of
    /// `conn` that were still to go once its reply was in hand. What they
    /// lead to for a connection goes to its parked-reply slot as usual.
    fn realise_late(self: &Arc<Self>, conn: ConnId, req: u64, probes: Vec<EdgeEffect<SocketAddr>>) {
        let edge = self.clone();
        // Should the spawn fail, the round stays open until the connection
        // closes, which settles its probe grants.
        let _ = std::thread::Builder::new()
            .name("coic-probe".into())
            .spawn(move || {
                let mut turn = Turn::new(conn, req);
                for probe in probes {
                    edge.apply(&mut turn, probe);
                }
            });
    }

    /// Wait for what the parked request of this connection is handed, and
    /// realise it. A request queued for admission ages the queue (which
    /// may shed it) whenever nothing comes for a while.
    fn wait(&self, turn: &mut Turn) {
        let slot = self.parked.lock().entry(turn.conn).or_default().clone();
        let effects = {
            let handed = slot.effects.lock().unwrap_or_else(PoisonError::into_inner);
            let mut handed = if turn.queued {
                slot.ready
                    .wait_timeout_while(handed, PARKED_TICK, |h| h.is_empty())
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            } else {
                slot.ready
                    .wait_while(handed, |h| h.is_empty())
                    .unwrap_or_else(PoisonError::into_inner)
            };
            std::mem::take(&mut *handed)
        };
        if effects.is_empty() {
            self.step(turn, |engine, now, fx| {
                engine.on_timer(EdgeTimer::QueueAge, now, fx);
            });
        }
        for effect in effects {
            self.apply(turn, effect);
        }
    }

    /// Connection `conn` is gone — however it went: the engine reaps what
    /// it left (descriptors nobody will upload), its slot goes, and its
    /// idle cloud connection is released to the next connection that has
    /// none.
    fn closed(&self, conn: ConnId) {
        self.step(&mut Turn::new(conn, u64::MAX), |engine, now, fx| {
            engine.on_conn_closed(conn, now, fx);
        });
        self.parked.lock().remove(&conn);
        self.cloud.release(conn);
    }

    /// Call the cloud for client connection `client_conn` (the engine has
    /// passed the breaker; it hears the outcome). Runs on the idle
    /// connection `client_conn` parked, when there is one, and connects
    /// otherwise. A reused connection may have died while parked (the cloud
    /// restarted), which says nothing about the cloud now: unless it failed
    /// by timing out, the call is retried once on a fresh connection. Any
    /// failure drains the idle set.
    fn cloud_call(&self, client_conn: ConnId, msg: &Msg) -> Option<Held> {
        let connect = || dial(&self.cloud.cloud_addr, &self.net).ok();
        let mut parked = self.cloud.take(client_conn);
        let result = loop {
            let reused = parked.is_some();
            let Some(mut cloud) = parked.take().or_else(connect) else {
                break None;
            };
            match cloud_exchange(&mut cloud, msg) {
                Ok(result) => {
                    self.cloud.put(client_conn, cloud);
                    break Some(result);
                }
                Err(fault) if reused && fault != FaultError::Timeout => {}
                Err(fault) => {
                    if fault == FaultError::Timeout {
                        self.stats.count_timeout();
                    }
                    break None;
                }
            }
        };
        if result.is_none() {
            self.cloud.drain();
        }
        result
    }
}

/// Trace an `index.rebuild` event when an insert's self-fold rebuilt the
/// recognition snapshot (`folded` journal entries baked into the new
/// generation).
fn trace_rebuild(net: &NetConfig, service: &EdgeService, folded: usize, now_ns: u64) {
    if folded == 0 {
        return;
    }
    net.telemetry.event_with(now_ns, "index.rebuild", || {
        let t = service.index_telemetry();
        vec![
            ("folded", Value::from(folded)),
            ("index", Value::from(service.index_family())),
            ("snapshot_len", Value::from(t.snapshot_len)),
            ("rebuilds", Value::from(t.rebuilds)),
        ]
    });
}

/// Start an edge server on an ephemeral loopback port with default
/// fault-tolerance parameters, forwarding misses to `cloud_addr`.
pub fn spawn_edge(cloud_addr: SocketAddr, cfg: &EdgeConfig) -> std::io::Result<EdgeHandle> {
    spawn_edge_with(cloud_addr, cfg, NetConfig::default(), None)
}

/// Start an edge server, forwarding misses to `cloud_addr` under the given
/// [`NetConfig`]. `bind` pins the listening address (an edge restarted on
/// its old address lets degraded clients rejoin); `None` picks an
/// ephemeral loopback port.
pub fn spawn_edge_with(
    cloud_addr: SocketAddr,
    cfg: &EdgeConfig,
    net: NetConfig,
    bind: Option<SocketAddr>,
) -> std::io::Result<EdgeHandle> {
    let service = Arc::new(EdgeService::new(cfg));
    let stats = RobustnessStats::default();
    let breaker = CircuitBreaker::new(net.breaker_threshold, net.breaker_cooldown);
    let overload = net
        .admission
        .clone()
        .map(|a| OverloadControl::new(a, net.brownout.clone()));
    let engine = EdgeEngine::new(
        service.clone(),
        breaker,
        stats.clone(),
        overload,
        net.telemetry.clone(),
    );
    let inner = Arc::new(LiveEdge {
        looks_up_first: engine.looks_up_on_arrival(),
        engine: Mutex::new(engine),
        service,
        clock: WallClock::new(),
        net,
        cloud: CloudConns::new(cloud_addr),
        counters: EdgeCounters::default(),
        parked: Mutex::new(HashMap::new()),
        stats,
    });
    let bind = bind.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
    let (on_frame, on_close) = (inner.clone(), inner.clone());
    let server = FrameServer::spawn_conn(
        bind,
        move |conn, frame| on_frame.handle(conn, frame),
        move |conn| on_close.closed(conn),
    )?;
    Ok(EdgeHandle {
        addr: server.local_addr(),
        inner,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoe::Path;
    use crate::services::ClientConfig;
    use crate::task::TaskResult;
    use coic_workload::{Request, RequestKind, UserId, ZoneId};
    use std::time::Instant;

    #[test]
    fn live_peer_edges_cooperate() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let classes = vec![ObjectClass(0)];
        let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
        let edge_a = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        let edge_b = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        let members = [edge_a.addr(), edge_b.addr()];
        // Each miss asks the other edge and keeps what it fetched.
        let cluster = ClusterConfig {
            peer_fanout: 1,
            replicate_hot: 1,
            ..ClusterConfig::default()
        };
        // A model edge B owns, so the copy B fetches stays where A looks.
        let ring = crate::cluster::HashRing::new(2, cluster.vnodes);
        let model_id = (0..64)
            .find(|&m| ring.owner(&models.digest(m, 80_000)) == 1)
            .expect("edge B owns some model");
        edge_a.join_cluster(0, &members, cluster.clone());
        edge_b.join_cluster(1, &members, cluster);
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::RenderLoad {
                model_id,
                size_bytes: 80_000,
            },
        };
        // Warm edge B through its own client.
        let mut b_client = NetClient::connect(
            edge_b.addr(),
            ClientConfig::default(),
            compute,
            models.clone(),
            panos.clone(),
        )
        .unwrap();
        assert_eq!(b_client.execute(&req).unwrap().path, Path::CloudMiss);

        // Edge A's client now gets the model via the peer, not the cloud.
        let mut a_client = NetClient::connect(
            edge_a.addr(),
            ClientConfig::default(),
            compute,
            models,
            panos,
        )
        .unwrap();
        let out = a_client.execute(&req).unwrap();
        assert_eq!(out.path, Path::PeerHit);
        // And it is now cached locally at A.
        assert_eq!(a_client.execute(&req).unwrap().path, Path::EdgeHit);
    }

    #[test]
    fn breaker_makes_edge_answer_unavailable_fast() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let classes = vec![ObjectClass(0)];
        let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
        let cloud_addr = cloud.addr();
        let net = NetConfig {
            edge_call_deadline: Duration::from_millis(300),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(30),
            ..NetConfig::default()
        };
        let edge = spawn_edge_with(cloud_addr, &EdgeConfig::default(), net.clone(), None).unwrap();
        drop(cloud); // kill the cloud: the edge's forwarding leg is now dead

        let mut conn = FrameConn::connect(edge.addr()).unwrap();
        conn.set_read_deadline(Some(Duration::from_secs(5)))
            .unwrap();
        let query = |frame_id: u64, req_id: u64| {
            Msg::Query {
                req_id,
                descriptor: crate::descriptor::FeatureDescriptor::PanoramaHash(Digest::of(
                    &frame_id.to_le_bytes(),
                )),
                hint: Some(crate::task::TaskRequest::Panorama { frame_id }),
            }
            .encode()
        };
        // First misses fail against the dead cloud and trip the breaker…
        for req_id in 0..2u64 {
            conn.send(&query(req_id, req_id + 1)).unwrap();
            let resp = conn.recv().unwrap();
            assert!(matches!(
                Msg::decode(&resp).unwrap(),
                Msg::Unavailable { .. }
            ));
        }
        // …after which refusals are immediate (no upstream connect at all).
        let t = Instant::now();
        conn.send(&query(99, 100)).unwrap();
        let resp = conn.recv().unwrap();
        assert!(matches!(
            Msg::decode(&resp).unwrap(),
            Msg::Unavailable { .. }
        ));
        assert!(
            t.elapsed() < Duration::from_millis(200),
            "open breaker should refuse fast, took {:?}",
            t.elapsed()
        );
        assert_eq!(edge.breaker_state(), BreakerState::Open);
        let snap = edge.robustness().snapshot();
        assert!(snap.breaker_trips >= 1);
        assert_eq!(snap.unavailable_replies, 3);
    }

    /// The result a message carries, if it carries one.
    fn result_of(msg: &Msg) -> Option<&TaskResult> {
        match msg {
            Msg::Hit { result, .. }
            | Msg::CloudReply { result, .. }
            | Msg::Result { result, .. }
            | Msg::BaselineReply { result, .. }
            | Msg::PeerResult { result, .. }
            | Msg::Replicate { result, .. } => Some(result),
            Msg::PeerReply { result, .. } => result.as_ref(),
            _ => None,
        }
    }

    #[test]
    fn parts_send_puts_the_same_bytes_on_the_wire_as_the_copying_codec() {
        // Old and new binaries interoperate: for every message shape, what
        // a raw socket reads after `send_msg` is `encode_frame(encode())` —
        // whether the blob is summed for the send, summed by its holder's
        // first send, or sent under the sum the holder already had.
        use std::io::Read;
        const SENDS: usize = 3;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let samples = crate::protocol::tests::samples();
        let expect: Vec<Vec<u8>> = samples
            .iter()
            .map(|m| coic_netsim::rt::encode_frame(&m.encode()).unwrap())
            .collect();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for want in expect {
                for _ in 0..SENDS {
                    let mut got = vec![0u8; want.len()];
                    s.read_exact(&mut got).unwrap();
                    assert_eq!(got, want);
                }
            }
        });
        let mut conn = FrameConn::connect(addr).unwrap();
        for msg in &samples {
            send_msg(&mut conn, msg, None).unwrap();
            let held = result_of(msg).map(|result| Held::new(result.clone()));
            send_msg(&mut conn, msg, held.as_ref()).unwrap();
            let has_blob = result_of(msg).is_some_and(|r| r.blob().is_some());
            assert_eq!(held.as_ref().is_some_and(Held::is_summed), has_blob);
            send_msg(&mut conn, msg, held.as_ref()).unwrap();
        }
        reader.join().unwrap();
    }

    #[test]
    fn a_holder_of_another_result_lends_its_sum_to_no_message() {
        // The sum goes with the buffer, not with whatever message is being
        // sent while a holder is in hand: a holder of other bytes (even
        // equal bytes in another buffer) is ignored and the body is summed.
        use coic_netsim::rt::Sum;
        let blob = bytes::Bytes::from(vec![3u8; 3000]);
        let msg = Msg::Hit {
            req_id: 1,
            result: TaskResult::Model(blob.clone()),
        };
        let counters = EdgeCounters::default();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        for stranger in [vec![4u8; 3000], vec![3u8; 3000], vec![3u8; 10]] {
            let other = Held::new(TaskResult::Model(bytes::Bytes::from(stranger)));
            other.blob();
            let (_, body) = frame_parts(&msg, Some(&other), Some(&counters));
            assert!(body.is_buffer(&blob));
            assert_eq!(body.sum(), Sum::of(&blob));
        }
        assert_eq!(count(&counters.blob_sum_reused), 0);
        assert_eq!(count(&counters.blob_summed_on_send), 3);
        // Its own holder does lend it — from the second send on for free.
        let own = Held::new(TaskResult::Model(blob.clone()));
        for reused in [0, 1, 2] {
            let (_, body) = frame_parts(&msg, Some(&own), Some(&counters));
            assert!(body.is_buffer(&blob));
            assert_eq!(body.sum(), Sum::of(&blob));
            assert_eq!(count(&counters.blob_sum_reused), reused);
            assert_eq!(count(&counters.blob_summed_on_send), 4);
        }
        // A reply without a blob is neither.
        frame_parts(&Msg::NeedPayload { req_id: 2 }, None, Some(&counters));
        assert_eq!(count(&counters.blob_sum_reused), 2);
        assert_eq!(count(&counters.blob_summed_on_send), 4);
    }

    /// A scripted cloud: answers every `Forward` with a small panorama,
    /// after running `before_reply(connection id, frames seen so far)`.
    fn fake_cloud(
        bind: SocketAddr,
        before_reply: impl Fn(u64, usize) + Send + Sync + 'static,
    ) -> FrameServer {
        let seen = std::sync::atomic::AtomicUsize::new(0);
        FrameServer::spawn_conn(
            bind,
            move |conn, frame| {
                let Ok(Msg::Forward { req_id, .. }) = Msg::decode_frame(frame) else {
                    return None;
                };
                before_reply(conn, seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst));
                let result = TaskResult::Panorama(bytes::Bytes::from(vec![req_id as u8; 2000]));
                Some(frame_parts(&Msg::CloudReply { req_id, result }, None, None))
            },
            |_conn| {},
        )
        .unwrap()
    }

    fn loopback() -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], 0))
    }

    /// A raw framed connection to `edge` that cannot hang the test.
    fn raw_client(edge: SocketAddr) -> FrameConn {
        let conn = FrameConn::connect(edge).unwrap();
        conn.set_read_deadline(Some(Duration::from_secs(5)))
            .unwrap();
        conn
    }

    /// One panorama miss for `frame_id` over `conn`; the edge's reply.
    fn pano_miss(conn: &mut FrameConn, frame_id: u64) -> Msg {
        let query = Msg::Query {
            req_id: frame_id,
            descriptor: FeatureDescriptor::PanoramaHash(Digest::of(&frame_id.to_le_bytes())),
            hint: Some(crate::task::TaskRequest::Panorama { frame_id }),
        };
        send_msg(conn, &query, None).unwrap();
        Msg::decode_frame(conn.recv().unwrap()).unwrap()
    }

    /// An edge in front of `cloud_addr` whose breaker trips on the first
    /// reported failure, so "no trip" means "nothing was reported".
    fn edge_with_hair_trigger(cloud_addr: SocketAddr, call_deadline: Duration) -> EdgeHandle {
        let net = NetConfig {
            edge_call_deadline: call_deadline,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(30),
            ..NetConfig::default()
        };
        spawn_edge_with(cloud_addr, &EdgeConfig::default(), net, None).unwrap()
    }

    #[test]
    fn an_entry_that_arrives_unsummed_is_summed_by_its_first_hit_only() {
        // `EdgeService::insert` — what a replication push and the simulator
        // use — stores no sum. The hit path hands out the cache's own entry,
        // so what the first reply computes the second finds.
        let cloud = fake_cloud(loopback(), |_, _| {});
        let edge = edge_with_hair_trigger(cloud.local_addr(), Duration::from_secs(3));
        let pano = bytes::Bytes::from(vec![0xA5u8; 50_000]);
        let descriptor = FeatureDescriptor::PanoramaHash(Digest::of(&pano));
        let entry = Held::new(TaskResult::Panorama(pano.clone()));
        edge.inner.service.insert(&descriptor, entry, 0);
        let mut conn = raw_client(edge.addr());
        for (req_id, reused) in [(1, 0), (2, 1), (3, 2)] {
            let query = Msg::Query {
                req_id,
                descriptor: descriptor.clone(),
                hint: None,
            };
            send_msg(&mut conn, &query, None).unwrap();
            match Msg::decode_frame(conn.recv().unwrap()).unwrap() {
                Msg::Hit { result, .. } => assert_eq!(result, TaskResult::Panorama(pano.clone())),
                other => panic!("expected Hit, got {other:?}"),
            }
            let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
            assert_eq!(count(&edge.inner.counters.blob_sum_reused), reused);
            assert_eq!(count(&edge.inner.counters.blob_summed_on_send), 1);
        }
    }

    #[test]
    fn cloud_restart_between_misses_is_served_on_a_fresh_connection() {
        let cloud = fake_cloud(loopback(), |_, _| {});
        let cloud_addr = cloud.local_addr();
        let edge = edge_with_hair_trigger(cloud_addr, Duration::from_secs(3));
        let mut client = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut client, 1), Msg::Result { .. }));
        assert_eq!(edge.inner.cloud.idle_len(), 1, "connection not parked");

        // The cloud dies with the parked connection and comes back on the
        // same address: the stale connection is the edge's problem, not
        // the client's, and not evidence against the cloud.
        drop(cloud);
        let _cloud = fake_cloud(cloud_addr, |_, _| {});
        assert!(matches!(pano_miss(&mut client, 2), Msg::Result { .. }));
        let snap = edge.robustness().snapshot();
        assert_eq!(snap.unavailable_replies, 0);
        assert_eq!(
            snap.breaker_trips, 0,
            "a stale-connection failure was reported"
        );
        assert_eq!(edge.breaker_state(), BreakerState::Closed);
        assert_eq!(
            edge.inner.cloud.idle_len(),
            1,
            "fresh connection not parked"
        );
    }

    #[test]
    fn reused_connection_that_times_out_is_not_retried() {
        // Second frame overall stalls past the edge-call deadline.
        let conns_seen = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let seen = conns_seen.clone();
        let cloud = fake_cloud(loopback(), move |conn, nth| {
            seen.lock().insert(conn);
            if nth == 1 {
                std::thread::sleep(Duration::from_millis(400));
            }
        });
        let edge = edge_with_hair_trigger(cloud.local_addr(), Duration::from_millis(100));
        let mut client = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut client, 1), Msg::Result { .. }));
        assert!(matches!(pano_miss(&mut client, 2), Msg::Unavailable { .. }));
        let snap = edge.robustness().snapshot();
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.breaker_trips, 1, "the timeout is the cloud's failure");
        assert_eq!(conns_seen.lock().len(), 1, "a timed-out call reconnected");
        assert_eq!(
            edge.inner.cloud.idle_len(),
            0,
            "desynchronized connection kept"
        );
    }

    #[test]
    fn idle_set_is_bounded_and_empties_when_the_cloud_fails() {
        // More misses than the bound overlap at the cloud, so that many
        // connections are open at once; only CLOUD_IDLE_MAX may be parked.
        const CALLS: usize = CLOUD_IDLE_MAX + 2;
        let barrier = Arc::new(std::sync::Barrier::new(CALLS));
        let cloud = fake_cloud(loopback(), move |_, nth| {
            if nth < CALLS {
                barrier.wait();
            }
        });
        let edge = edge_with_hair_trigger(cloud.local_addr(), Duration::from_secs(3));
        let addr = edge.addr();
        let clients: Vec<_> = (0..CALLS as u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = raw_client(addr);
                    assert!(matches!(
                        pano_miss(&mut client, 100 + i),
                        Msg::Result { .. }
                    ));
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(edge.inner.cloud.idle_len(), CLOUD_IDLE_MAX);

        // The cloud goes away for good: the stale connection fails, the
        // fresh connect fails, the call is reported, the breaker opens —
        // and nothing stays parked, then or while the gate refuses.
        drop(cloud);
        let mut client = raw_client(addr);
        assert!(matches!(pano_miss(&mut client, 1), Msg::Unavailable { .. }));
        assert_eq!(edge.breaker_state(), BreakerState::Open);
        assert_eq!(edge.inner.cloud.idle_len(), 0);
        assert!(matches!(pano_miss(&mut client, 2), Msg::Unavailable { .. }));
        assert_eq!(edge.inner.cloud.idle_len(), 0);
    }

    #[test]
    fn a_client_connection_gets_its_own_cloud_connection_back() {
        // Two clients miss at once, so two cloud connections exist; from
        // then on they take turns. Whoever parked last, each client's miss
        // must run on the connection that client parked — handing out the
        // most recently parked one would put every miss below on the same
        // cloud connection.
        let barrier = std::sync::Barrier::new(2);
        let served_by = Arc::new(Mutex::new(Vec::new()));
        let log = served_by.clone();
        let cloud = fake_cloud(loopback(), move |conn, nth| {
            if nth < 2 {
                barrier.wait();
            }
            log.lock().push(conn);
        });
        let edge = edge_with_hair_trigger(cloud.local_addr(), Duration::from_secs(3));
        let (mut a, mut b) = (raw_client(edge.addr()), raw_client(edge.addr()));
        std::thread::scope(|s| {
            s.spawn(|| assert!(matches!(pano_miss(&mut a, 1), Msg::Result { .. })));
            s.spawn(|| assert!(matches!(pano_miss(&mut b, 2), Msg::Result { .. })));
        });
        assert_eq!(edge.inner.cloud.idle_len(), 2);
        for round in 0..3 {
            assert!(matches!(
                pano_miss(&mut b, 10 + 2 * round),
                Msg::Result { .. }
            ));
            assert!(matches!(
                pano_miss(&mut a, 11 + 2 * round),
                Msg::Result { .. }
            ));
        }
        let served: Vec<u64> = served_by.lock().clone();
        let turns = |first: usize| -> std::collections::BTreeSet<u64> {
            served.iter().skip(first).step_by(2).copied().collect()
        };
        let (b_conns, a_conns) = (turns(2), turns(3));
        assert_eq!(a_conns.len(), 1, "a's misses moved: {served:?}");
        assert_eq!(b_conns.len(), 1, "b's misses moved: {served:?}");
        assert_ne!(a_conns, b_conns, "{served:?}");
        assert_eq!(edge.inner.cloud.idle_len(), 2);

        // A client that has parked nothing takes what is there rather than
        // connecting.
        let mut c = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut c, 99), Msg::Result { .. }));
        let last = served_by.lock().last().copied();
        assert!(last.is_some_and(|conn| a_conns.contains(&conn) || b_conns.contains(&conn)));
        assert_eq!(edge.inner.cloud.idle_len(), 2);
    }

    #[test]
    fn a_client_that_hangs_up_leaves_its_cloud_connection_to_the_next_newcomer() {
        // Two clients, two cloud connections. When `a` hangs up, its
        // connection is released, and a client connection with none of its
        // own gets that one even though `b` parked since — handing out the
        // most recently parked would take `b`'s, and `b`'s next miss would
        // then take another's in turn.
        let barrier = std::sync::Barrier::new(2);
        let served_by = Arc::new(Mutex::new(Vec::new()));
        let log = served_by.clone();
        let cloud = fake_cloud(loopback(), move |conn, nth| {
            if nth < 2 {
                barrier.wait();
            }
            log.lock().push(conn);
        });
        let edge = edge_with_hair_trigger(cloud.local_addr(), Duration::from_secs(3));
        let (mut a, mut b) = (raw_client(edge.addr()), raw_client(edge.addr()));
        std::thread::scope(|s| {
            s.spawn(|| assert!(matches!(pano_miss(&mut a, 1), Msg::Result { .. })));
            s.spawn(|| assert!(matches!(pano_miss(&mut b, 2), Msg::Result { .. })));
        });
        let last = || served_by.lock().last().copied();
        assert!(matches!(pano_miss(&mut a, 3), Msg::Result { .. }));
        let a_cloud = last();
        assert!(matches!(pano_miss(&mut b, 4), Msg::Result { .. }));
        let b_cloud = last();
        assert_ne!(a_cloud, b_cloud);

        // Released before the edge closed the connection, so no waiting.
        a.hang_up(Duration::from_secs(5));
        assert_eq!(edge.inner.cloud.released_len(), 1);
        assert!(matches!(pano_miss(&mut b, 5), Msg::Result { .. }));
        assert_eq!(last(), b_cloud);
        let mut c = raw_client(edge.addr());
        for frame_id in [6, 7] {
            assert!(matches!(pano_miss(&mut c, frame_id), Msg::Result { .. }));
            assert_eq!(last(), a_cloud, "frame {frame_id}");
        }
        assert!(matches!(pano_miss(&mut b, 8), Msg::Result { .. }));
        assert_eq!(last(), b_cloud);
        assert_eq!(edge.inner.cloud.released_len(), 0);
    }

    #[test]
    fn requests_coalesced_behind_a_failed_fetch_share_its_unavailable() {
        // Three connections ask for the same frame from a cloud that
        // answers only after the edge's call deadline. The requests that
        // arrive while the first one's fetch is out wait behind it and get
        // its answer — `Unavailable` — instead of each leading a fetch of
        // its own once the one before has failed: one cloud call, not
        // three in a row, and every answer within about one deadline.
        const DEADLINE: Duration = Duration::from_millis(200);
        let forwards = Arc::new(AtomicU64::new(0));
        let seen = forwards.clone();
        let cloud = fake_cloud(loopback(), move |_, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(2 * DEADLINE);
        });
        // A breaker that stays closed through three failures, so every
        // fetch the edge tries does reach the cloud.
        let net = NetConfig {
            edge_call_deadline: DEADLINE,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(30),
            ..NetConfig::default()
        };
        let edge = spawn_edge_with(cloud.local_addr(), &EdgeConfig::default(), net, None).unwrap();
        let started = Instant::now();
        let mut first = raw_client(edge.addr());
        let query = Msg::Query {
            req_id: 7,
            descriptor: FeatureDescriptor::PanoramaHash(Digest::of(&7u64.to_le_bytes())),
            hint: Some(crate::task::TaskRequest::Panorama { frame_id: 7 }),
        };
        send_msg(&mut first, &query, None).unwrap();
        std::thread::sleep(DEADLINE / 4);
        let addr = edge.addr();
        let others: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || pano_miss(&mut raw_client(addr), 7)))
            .collect();
        let mut replies = vec![Msg::decode_frame(first.recv().unwrap()).unwrap()];
        replies.extend(others.into_iter().map(|t| t.join().unwrap()));
        let elapsed = started.elapsed();
        for reply in &replies {
            assert_eq!(reply, &Msg::Unavailable { req_id: 7 });
        }
        assert_eq!(
            forwards.load(Ordering::SeqCst),
            1,
            "coalesced misses refetched"
        );
        assert!(elapsed < DEADLINE * 3 / 2, "answered after {elapsed:?}");
    }

    #[test]
    fn a_request_queued_for_admission_ages_out_while_the_slot_is_held() {
        // Nothing else happens at the edge while the one slot's holder
        // waits on a slow cloud: the queued request's own thread ages the
        // queue and sheds it, rather than waiting for the slot.
        let in_service = Arc::new(std::sync::Barrier::new(2));
        let called = in_service.clone();
        let cloud = fake_cloud(loopback(), move |_, _| {
            called.wait();
            std::thread::sleep(Duration::from_millis(400));
        });
        let net = NetConfig {
            admission: Some(AdmissionConfig {
                queue_limit: 1,
                max_queue_age: Duration::from_millis(20),
                ..AdmissionConfig::fixed(1)
            }),
            ..NetConfig::default()
        };
        let edge = spawn_edge_with(cloud.local_addr(), &EdgeConfig::default(), net, None).unwrap();
        let addr = edge.addr();
        let holder = std::thread::spawn(move || pano_miss(&mut raw_client(addr), 1));
        in_service.wait();
        let started = Instant::now();
        let reply = pano_miss(&mut raw_client(addr), 2);
        assert!(matches!(reply, Msg::Overloaded { .. }), "{reply:?}");
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "shed after {elapsed:?}"
        );
        assert!(matches!(holder.join().unwrap(), Msg::Result { .. }));
    }

    #[test]
    fn an_upload_nothing_was_parked_for_hangs_up_without_calling_the_cloud() {
        let forwards = Arc::new(AtomicU64::new(0));
        let seen = forwards.clone();
        let cloud = fake_cloud(loopback(), move |_, _| {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        let edge = edge_with_hair_trigger(cloud.local_addr(), Duration::from_secs(3));
        let mut stranger = raw_client(edge.addr());
        let upload = Msg::Upload {
            req_id: 0xDEAD_BEEF,
            task: crate::task::TaskRequest::RenderLoad {
                model_id: 1,
                size_bytes: 4 << 20,
            },
        };
        send_msg(&mut stranger, &upload, None).unwrap();
        assert!(stranger.recv().is_err(), "the edge answered an upload");
        assert_eq!(forwards.load(Ordering::SeqCst), 0, "unadmitted cloud work");
        // The edge serves on.
        let mut client = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut client, 1), Msg::Result { .. }));
        assert_eq!(forwards.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_hit_from_the_owner_is_answered_before_a_silent_peer_times_out() {
        // One probe round asks the digest's owner, which holds it, and a
        // peer that never answers. The owner's hit answers the client at
        // once; the silent peer's probe runs on off the reply path and
        // still reaches the engine, as a timeout.
        const DEADLINE: Duration = Duration::from_millis(800);
        let cloud = fake_cloud(loopback(), |_, _| {});
        let net = NetConfig {
            edge_call_deadline: DEADLINE,
            ..NetConfig::default()
        };
        let edge = spawn_edge_with(cloud.local_addr(), &EdgeConfig::default(), net, None).unwrap();
        let owner = spawn_edge(cloud.local_addr(), &EdgeConfig::default()).unwrap();
        // Connects (into the backlog), then hears nothing back.
        let silent = std::net::TcpListener::bind(loopback()).unwrap();
        let members = [edge.addr(), owner.addr(), silent.local_addr().unwrap()];
        let cfg = ClusterConfig {
            peer_fanout: 2,
            ..ClusterConfig::default()
        };
        edge.join_cluster(0, &members, cfg.clone());
        // A frame edge 1 owns: edge 0's round for it probes 1, then 2.
        let ring = ClusterState::new(0, 3, cfg);
        let frame_id = (0u64..)
            .find(|f| ring.owner(&Digest::of(&f.to_le_bytes())) == 1)
            .unwrap();
        let descriptor = FeatureDescriptor::PanoramaHash(Digest::of(&frame_id.to_le_bytes()));
        let pano = TaskResult::Panorama(bytes::Bytes::from(vec![9u8; 4000]));
        owner
            .inner
            .service
            .insert(&descriptor, Held::new(pano.clone()), 0);

        let mut client = raw_client(edge.addr());
        let started = Instant::now();
        let reply = pano_miss(&mut client, frame_id);
        let elapsed = started.elapsed();
        let want = Msg::PeerResult {
            req_id: frame_id,
            result: pano,
        };
        assert_eq!(reply, want);
        assert!(elapsed < DEADLINE / 4, "answered after {elapsed:?}");
        let timeouts = || edge.cluster_stats().unwrap().peer_timeouts;
        while timeouts() == 0 && started.elapsed() < 4 * DEADLINE {
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = edge.cluster_stats().unwrap();
        assert_eq!((snap.peer_hits, snap.peer_timeouts), (1, 1));
    }

    #[test]
    fn edge_shutdown_closes_idle_cloud_connections() {
        // A hand-rolled cloud, so the test can see its connection thread
        // exit: it serves one connection until the peer closes it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let cloud_addr = listener.local_addr().unwrap();
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let cloud = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream).unwrap();
            while let Ok(frame) = conn.recv() {
                let Ok(Msg::Forward { req_id, .. }) = Msg::decode_frame(frame) else {
                    break;
                };
                let result = TaskResult::Panorama(bytes::Bytes::from(vec![7u8; 100]));
                if send_msg(&mut conn, &Msg::CloudReply { req_id, result }, None).is_err() {
                    break;
                }
            }
            let _ = closed_tx.send(());
        });
        let mut edge = edge_with_hair_trigger(cloud_addr, Duration::from_secs(3));
        let mut client = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut client, 1), Msg::Result { .. }));
        assert_eq!(edge.inner.cloud.idle_len(), 1);
        assert!(
            closed_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "cloud connection closed while parked"
        );

        edge.shutdown();
        closed_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown left the idle cloud connection open");
        cloud.join().unwrap();
        // A call still in flight when the edge shut down parks nothing.
        let anywhere = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let late = FrameConn::connect(anywhere.local_addr().unwrap()).unwrap();
        edge.inner.cloud.put(0, late);
        assert_eq!(edge.inner.cloud.idle_len(), 0);
    }
}
