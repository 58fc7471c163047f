//! Real-socket deployment of CoIC.
//!
//! The same [`crate::services`] logic as the simulator, but deployed over
//! framed TCP ([`coic_netsim::rt`]): a cloud process, an edge process with
//! shared caches, and a blocking client. Used by the `live_deployment`
//! example and the loopback integration tests; latency here is real
//! wall-clock time (the SimNet inference, CMF parsing and panorama
//! synthesis all actually run).
//!
//! Cloud and edge are both hosted by [`FrameServer`]: one blocking thread
//! per connection (recv → handler → send). The edge's handler learns
//! which connection each frame arrived on ([`FrameServer::spawn_conn`]),
//! because a recognition miss spans two frames of one connection and
//! every client numbers its requests from 1. DESIGN.md §17 records why
//! this is the only serving path.
//!
//! Orchestration — retries, backoff, deadlines, degrade-to-origin, edge
//! re-probing — is *not* implemented here. [`NetClient`] is a thin driver
//! around the sans-IO [`ClientEngine`]: it realizes engine effects
//! (`SendQuery` → framed TCP exchange, `ArmTimer(Backoff)` → sleep,
//! `ArmTimer(Deadline)` → socket read deadline, `ProbeEdge` → reconnect)
//! and feeds IO outcomes back as events. The simulator
//! ([`crate::simrun`]) drives the identical engine under virtual time, so
//! both stacks traverse the same decision sequences for the same workload
//! and [`FaultSchedule`].
//!
//! Fault tolerance (configured by [`NetConfig`]):
//!
//! * every socket carries read/write deadlines, so no request can hang;
//! * the engine retries failed attempts under a [`RetryPolicy`]
//!   (capped exponential backoff, seeded jitter) and the driver reconnects
//!   on broken or desynchronized connections;
//! * when the edge stays unreachable (or replies [`Msg::Unavailable`]),
//!   a client constructed with [`NetClient::connect_with`] degrades to the
//!   origin path — direct [`Msg::BaselineRequest`] to the cloud — and
//!   periodically probes the edge to rejoin the cooperative path;
//! * the edge's own cloud leg sits behind an [`UpstreamGate`] (circuit
//!   breaker + stats), so a dead cloud makes the edge answer `Unavailable`
//!   fast instead of stalling every connection thread; its calls reuse a
//!   small constant-bounded set of idle cloud connections (each client
//!   connection gets back the one it used last; drained on any failure;
//!   a stale one is retried once on a fresh connect);
//! * concurrent identical misses coalesce into one upstream fetch
//!   ([`ShardedSingleFlight`]); waiting threads block on a condvar until
//!   the leader lands the result in the cache.
//!
//! The edge serves from the same [`EdgeService`] the simulator drives,
//! shared across connection threads behind an `Arc`: an exact-cache hit
//! takes one shard's read lock ([`coic_cache::sharded`]) instead of a
//! service-wide mutex, payloads are shared buffers (a cached model is a
//! slice of the frame it arrived in, and is written to the client's socket
//! from that same buffer — [`Msg::decode_frame`], [`Msg::encode_parts`])
//! that are summed once: an entry keeps its blob's checksum, derived from
//! the verified frame the blob arrived in, and a reply's frame checksum is
//! folded from it ([`Held`], DESIGN.md §3.1) — a hit reads no cached byte,
//! a miss reads each once, to verify it —
//! and recognition lookups walk an immutable snapshot lock-free.
//! [`NetConfig::cache_shards`] sets the shard count (the simulator uses
//! one shard; the count moves eviction, never a hit/miss rule).
//!
//! Every transition is counted in [`RobustnessStats`], surfaced through
//! [`NetClient::robustness`] and [`EdgeHandle::robustness`]; per-request
//! QoE records accumulate behind the engine and aggregate via
//! [`NetClient::report`].

use crate::cluster::{ClusterConfig, ClusterSnapshot, ClusterState, EdgeId};
use crate::compute::ComputeConfig;
use crate::config::NetConfigBuilder;
use crate::content::{ModelLibrary, PanoLibrary};
use crate::descriptor::FeatureDescriptor;
use crate::engine::{
    AdmissionConfig, BreakerState, BrownoutConfig, BrownoutState, ClientEngine, Clock, Decision,
    Effect, EngineConfig, FaultSchedule, FlightClaim, OverloadControl, ReplyKind, RetryPolicy,
    RobustnessStats, ShardedSingleFlight, TimerKind, UpstreamGate, Verdict, WallClock,
};
use crate::protocol::Msg;
use crate::qoe::QoeReport;
use crate::services::{ClientConfig, ClientLogic, CloudService, EdgeConfig, EdgeService};
use crate::task::{Held, TaskResult};
use crate::telemetry::{path_label, record_decision};
use coic_cache::{Digest, Metrics};
use coic_netsim::rt::{FaultError, FrameConn, FrameError, FrameServer, Summed};
use coic_obs::{MetricsRegistry, Recorder, Telemetry, Value};
use coic_vision::{ObjectClass, SceneGenerator};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

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
    /// Lock shards per edge cache (and for the single-flight table).
    /// More shards cut contention between connection threads; values are
    /// clamped to at least 1.
    pub cache_shards: usize,
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
            cache_shards: coic_cache::DEFAULT_SHARDS,
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
            Some(answer.frame_parts(None))
        },
        |_conn| {},
    )?;
    Ok(CloudHandle {
        addr: server.local_addr(),
        _server: server,
    })
}

/// Cooperative cluster membership of one live edge: the sans-IO policy
/// plus the socket address of every member (indexed by [`EdgeId`], this
/// edge included at its own id) and the replication-push token shared by
/// the membership.
struct LiveCluster {
    state: ClusterState,
    members: Vec<SocketAddr>,
    token: u64,
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

/// What a server handler answers with: the message, and the holder of the
/// result in it when this node keeps that result for reuse.
struct Answer {
    msg: Msg,
    held: Option<Arc<Held>>,
}

impl Answer {
    /// Answer with `held`'s result, wrapped into a message by `wrap`.
    fn held(held: Arc<Held>, wrap: impl FnOnce(TaskResult) -> Msg) -> Answer {
        Answer {
            msg: wrap(held.result().clone()),
            held: Some(held),
        }
    }

    fn frame_parts(&self, counters: Option<&EdgeCounters>) -> (Vec<u8>, Summed) {
        frame_parts(&self.msg, self.held.as_deref(), counters)
    }
}

impl From<Msg> for Answer {
    fn from(msg: Msg) -> Answer {
        Answer { msg, held: None }
    }
}

/// Pull-based counters of one live edge ([`EdgeHandle::publish_metrics`]).
#[derive(Default)]
struct EdgeCounters {
    /// Reply blobs sent under a sum their holder already had: no pass.
    blob_sum_reused: AtomicU64,
    /// Reply blobs summed for the send (a holder's first, or no holder).
    blob_summed_on_send: AtomicU64,
    /// Connections closed for parking more than
    /// [`PENDING_PER_CONN_MAX`] descriptors.
    pending_overflow: AtomicU64,
}

/// How many recognition misses one connection may have waiting for their
/// `Upload` at once. A client that pipelines has as many as it has
/// recognition queries in flight; far beyond any of those, and small enough
/// that a connection which never uploads pins at most ~150 kB.
pub const PENDING_PER_CONN_MAX: usize = 1024;

/// Descriptors of recognition misses awaiting their `Upload`, by
/// connection, then request: every client numbers its requests from 1, so
/// `req_id` alone would let two clients swap descriptors — one upload
/// cached under the other's descriptor, the other connection dropped. A
/// connection's descriptors go when it does ([`PendingUploads::forget`]).
struct PendingUploads {
    by_conn: Mutex<HashMap<u64, HashMap<u64, FeatureDescriptor>>>,
}

impl PendingUploads {
    fn new() -> PendingUploads {
        PendingUploads {
            by_conn: Mutex::new(HashMap::new()),
        }
    }

    /// Park `descriptor` until `conn` uploads request `req_id`. `false`,
    /// parking nothing, when `conn` already has its fill.
    fn park(&self, conn: u64, req_id: u64, descriptor: FeatureDescriptor) -> bool {
        let mut by_conn = self.by_conn.lock();
        let parked = by_conn.entry(conn).or_default();
        if parked.len() >= PENDING_PER_CONN_MAX && !parked.contains_key(&req_id) {
            return false;
        }
        parked.insert(req_id, descriptor);
        true
    }

    /// The descriptor `conn` queried request `req_id` with, if it is parked.
    fn take(&self, conn: u64, req_id: u64) -> Option<FeatureDescriptor> {
        let mut by_conn = self.by_conn.lock();
        let parked = by_conn.get_mut(&conn)?;
        let descriptor = parked.remove(&req_id);
        if parked.is_empty() {
            by_conn.remove(&conn);
        }
        descriptor
    }

    /// `conn` is gone: nothing will upload what it parked.
    fn forget(&self, conn: u64) {
        self.by_conn.lock().remove(&conn);
    }

    /// Descriptors parked right now, over all connections.
    fn len(&self) -> usize {
        self.by_conn.lock().values().map(HashMap::len).sum()
    }
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
    let Ok(mut conn) = FrameConn::connect_timeout(&addr, net.connect_timeout) else {
        return;
    };
    let _ = conn.set_read_deadline(Some(net.edge_call_deadline));
    let _ = conn.set_write_deadline(Some(net.edge_call_deadline));
    let push = Msg::Replicate {
        req_id,
        token,
        digest,
        result: held.result().clone(),
    };
    if send_msg(&mut conn, &push, Some(held)).is_err() {
        return;
    }
    let _ = conn.recv(); // ReplicateAck, best effort
}

/// A running edge process. Dropping the handle (or calling
/// [`EdgeHandle::shutdown`]) tears the edge down for real — its accept
/// loop stops and live client connections are severed — which is what the
/// chaos tests rely on to kill an edge mid-workload.
pub struct EdgeHandle {
    addr: SocketAddr,
    peers: Arc<Mutex<Vec<SocketAddr>>>,
    cluster: Arc<Mutex<Option<LiveCluster>>>,
    stats: RobustnessStats,
    gate: Arc<UpstreamGate>,
    cloud_conns: Arc<CloudConns>,
    service: Arc<EdgeService>,
    admission: Option<Arc<LiveAdmission>>,
    counters: Arc<EdgeCounters>,
    pending: Arc<PendingUploads>,
    server: FrameServer,
}

impl EdgeHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Register a cooperating peer edge: exact-task misses will ask it
    /// before going to the cloud.
    pub fn add_peer(&self, addr: SocketAddr) {
        self.peers.lock().push(addr);
    }

    /// Join a consistent-hash cluster as member `me` of `members` (every
    /// member's address, this edge included at index `me`). Replaces the
    /// broadcast [`EdgeHandle::add_peer`] list: misses probe at most
    /// `cfg.peer_fanout` peers along the ring from the digest's owner,
    /// dead peers trip out via per-peer breakers, and hot entries
    /// replicate toward their demand. Idempotent — joining again (e.g.
    /// after a restart) resets the policy state.
    pub fn join_cluster(&self, me: EdgeId, members: &[SocketAddr], cfg: ClusterConfig) {
        let token = cluster_token(members, cfg.auth_token);
        *self.cluster.lock() = Some(LiveCluster {
            state: ClusterState::new(me, members.len() as u32, cfg),
            members: members.to_vec(),
            token,
        });
    }

    /// Snapshot of this edge's cooperative-tier counters (`None` before
    /// [`EdgeHandle::join_cluster`]).
    pub fn cluster_stats(&self) -> Option<ClusterSnapshot> {
        self.cluster
            .lock()
            .as_ref()
            .map(|c| c.state.stats().snapshot())
    }

    /// Breaker state of a cluster peer as seen from this edge (`None`
    /// before [`EdgeHandle::join_cluster`]).
    pub fn peer_state(&self, peer: EdgeId) -> Option<BreakerState> {
        self.cluster
            .lock()
            .as_ref()
            .and_then(|c| c.state.peer_state(peer))
    }

    /// Fault-handling counters for this edge (breaker trips, unavailable
    /// replies, upstream timeouts).
    pub fn robustness(&self) -> RobustnessStats {
        self.stats.clone()
    }

    /// State of the edge→cloud circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.gate.state()
    }

    /// Current brownout rung of the admission controller (Healthy when
    /// admission control is disabled).
    pub fn brownout_state(&self) -> BrownoutState {
        self.admission
            .as_ref()
            .map_or(BrownoutState::Healthy, |a| a.state())
    }

    /// Recognition-cache metrics, merged across shards.
    pub fn recog_cache_metrics(&self) -> Metrics {
        self.service.recog_metrics()
    }

    /// Exact-cache metrics, merged across shards.
    pub fn exact_cache_metrics(&self) -> Metrics {
        self.service.exact_metrics()
    }

    /// Publish this edge's cache metrics (`cache.recog.*`, `cache.exact.*`),
    /// robustness counters (`robustness.*`) and reply-path counters into
    /// `reg`: how many reply blobs went out under a checksum their cache
    /// entry already carried, how many were summed for the send, how many
    /// descriptors are parked awaiting an `Upload` right now, and how many
    /// connections were closed for parking too many.
    pub fn publish_metrics(&self, reg: &MetricsRegistry) {
        self.service.publish_metrics(reg);
        self.stats.snapshot().publish(reg);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        reg.counter_add(
            "edge.blob_sum_reused",
            count(&self.counters.blob_sum_reused),
        );
        reg.counter_add(
            "edge.blob_summed_on_send",
            count(&self.counters.blob_summed_on_send),
        );
        reg.counter_add(
            "edge.pending_overflow",
            count(&self.counters.pending_overflow),
        );
        reg.gauge_set("edge.pending_uploads", self.pending.len() as i64);
        if let Some(snap) = self.cluster_stats() {
            snap.publish(reg);
        }
    }

    /// Combined hit ratio over both edge caches.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.service.hit_ratio()
    }

    /// Fold the recognition cache's journal into a fresh snapshot now
    /// (inserts also self-fold at the rebuild batch; this flushes any
    /// partial batch, e.g. at the end of a measurement window). Returns
    /// how many journal entries were folded.
    pub fn maintain_index(&self, now_ns: u64) -> usize {
        self.service.maintain(now_ns)
    }

    /// Snapshot of the recognition index hot-path telemetry (probe
    /// counts, rebuilds, journal depth, snapshot age).
    pub fn index_telemetry(&self) -> coic_cache::IndexTelemetry {
        self.service.index_telemetry()
    }

    /// Lock shards per cache on this edge.
    pub fn cache_shards(&self) -> usize {
        self.service.shard_count()
    }

    /// Stop the edge: no new connections, live ones severed, idle cloud
    /// connections closed. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        self.cloud_conns.close();
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A queued single-flight waiter: blocks its connection thread until the
/// leader completes (or the deadline passes), then re-checks the cache.
#[derive(Default)]
struct FlightWaiter {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl FlightWaiter {
    fn notify(&self) {
        // A waiter that panicked while holding the flag poisons the
        // mutex; the flag itself is still meaningful, so recover it.
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }

    /// Wait until notified or `timeout`; returns whether the leader
    /// finished.
    fn wait(&self, timeout: Duration) -> bool {
        let g = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        match self.cv.wait_timeout_while(g, timeout, |done| !*done) {
            Ok((g, _)) => *g,
            Err(poisoned) => *poisoned.into_inner().0,
        }
    }
}

/// Outcome of [`LiveAdmission::admit`] for one query.
enum LiveAdmit {
    /// Serve now. `cached_only` is the Degraded brownout rung (misses
    /// shed); the handler must call [`LiveAdmission::release`] with
    /// `offered_at` once its local service is done.
    Serve { cached_only: bool, offered_at: u64 },
    /// Refuse with `Msg::Overloaded` and this retry-after hint.
    Shed { retry_after_ms: u32 },
}

/// The live edge's admission gate: the same sans-IO [`OverloadControl`]
/// the simulator drives, here behind a mutex with queued connection
/// threads parked on a condvar. A release that grants a slot (or an age
/// expiry that sheds) moves the waiter's ticket into the `ready` / `shed`
/// set and wakes everyone; each woken thread answers its own client, so
/// shed replies never block behind service.
///
/// Waiters are keyed by a per-edge ticket, not by `req_id`: every client
/// numbers its requests from 1, so two queued connections routinely share
/// a `req_id`, and two verdicts landing in a set under one key would
/// collapse into one — leaving the other waiter parked forever (and, for
/// a grant, its service slot counted in flight and never released).
struct LiveAdmission {
    inner: StdMutex<LiveAdmissionInner>,
    cv: Condvar,
    clock: WallClock,
    stats: RobustnessStats,
    tel: Telemetry,
}

struct LiveAdmissionInner {
    ctl: OverloadControl,
    /// The id the next offered query carries through the controller.
    next_ticket: u64,
    /// Queued tickets granted a service slot by some release.
    ready: std::collections::BTreeSet<u64>,
    /// Queued tickets shed (aged out or evicted) while waiting.
    shed: std::collections::BTreeSet<u64>,
}

impl LiveAdmission {
    fn new(
        ctl: OverloadControl,
        clock: WallClock,
        stats: RobustnessStats,
        tel: Telemetry,
    ) -> LiveAdmission {
        LiveAdmission {
            inner: StdMutex::new(LiveAdmissionInner {
                ctl,
                next_ticket: 0,
                ready: std::collections::BTreeSet::new(),
                shed: std::collections::BTreeSet::new(),
            }),
            cv: Condvar::new(),
            clock,
            stats,
            tel,
        }
    }

    fn note_transition(&self, transition: Option<BrownoutState>, now: u64) {
        if let Some(state) = transition {
            self.tel.event_with(now, "edge.brownout_state", || {
                vec![("state", Value::from(state.as_str()))]
            });
            self.tel
                .registry()
                .gauge_set("edge.brownout_state", state.as_gauge() as i64);
        }
    }

    fn admitted_event(&self, req_id: u64, queued: bool, now: u64) {
        self.stats.count_admitted();
        self.tel.event_with(now, "edge.admitted", || {
            vec![
                ("req", Value::from(req_id)),
                ("queued", Value::from(queued)),
            ]
        });
    }

    fn shed_event(&self, req_id: u64, retry_after_ms: u32, reason: &'static str, now: u64) {
        self.stats.count_shed();
        self.tel.event_with(now, "edge.shed", || {
            vec![
                ("req", Value::from(req_id)),
                ("reason", Value::from(reason)),
                ("retry_after_ms", Value::from(retry_after_ms)),
            ]
        });
    }

    /// Admit one query, blocking this connection thread while the query
    /// waits in the bounded queue. Queue time is bounded by the
    /// controller's age-based shedding, which the waiter drives itself if
    /// no other admission event comes along.
    fn admit(&self, req_id: u64) -> LiveAdmit {
        let now = self.clock.now_ns();
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = g.next_ticket;
        g.next_ticket += 1;
        // lint: allow(release-admission-slots, the slot escapes as a LiveAdmit whose every variant path ends in release or note_shed — the contract serve/shed below uphold)
        let decision = g.ctl.offer(ticket, now);
        self.note_transition(decision.transition, now);
        for victim in decision.shed {
            g.shed.insert(victim);
        }
        match decision.verdict {
            Verdict::Serve | Verdict::ServeCachedOnly => {
                let cached_only = matches!(decision.verdict, Verdict::ServeCachedOnly);
                drop(g);
                self.cv.notify_all();
                self.admitted_event(req_id, false, now);
                LiveAdmit::Serve {
                    cached_only,
                    offered_at: now,
                }
            }
            Verdict::Shed { retry_after_ms } => {
                drop(g);
                self.cv.notify_all();
                self.shed_event(req_id, retry_after_ms, "refused", now);
                LiveAdmit::Shed { retry_after_ms }
            }
            Verdict::Queued => loop {
                if g.ready.remove(&ticket) {
                    let cached_only = g.ctl.state() == BrownoutState::Degraded;
                    drop(g);
                    let granted = self.clock.now_ns();
                    self.admitted_event(req_id, true, granted);
                    return LiveAdmit::Serve {
                        cached_only,
                        offered_at: now,
                    };
                }
                if g.shed.remove(&ticket) {
                    let retry_after_ms = g.ctl.retry_after_ms();
                    drop(g);
                    self.shed_event(req_id, retry_after_ms, "queue", self.clock.now_ns());
                    return LiveAdmit::Shed { retry_after_ms };
                }
                let (g2, _) = self
                    .cv
                    .wait_timeout(g, Duration::from_millis(5))
                    .unwrap_or_else(PoisonError::into_inner);
                g = g2;
                // Self-driven age expiry: an idle edge still sheds its
                // stale waiters (possibly including this one).
                let tick = self.clock.now_ns();
                let (expired, transition) = g.ctl.expire(tick);
                self.note_transition(transition, tick);
                if !expired.is_empty() {
                    for victim in expired {
                        g.shed.insert(victim);
                    }
                    self.cv.notify_all();
                }
            },
        }
    }

    /// Return one slot after serving an admitted query whose sojourn
    /// started at `offered_at`; wakes whoever the drain granted or shed.
    fn release(&self, offered_at: u64) {
        let now = self.clock.now_ns();
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let (drain, transition) = g.ctl.release(now.saturating_sub(offered_at), now);
        self.note_transition(transition, now);
        for id in drain.start {
            g.ready.insert(id);
        }
        for id in drain.shed {
            g.shed.insert(id);
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Record a degraded-mode cache miss that is being shed; returns the
    /// retry-after hint to embed in the `Msg::Overloaded` reply.
    fn shed_miss(&self, req_id: u64) -> u32 {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.ctl.note_shed();
        let retry_after_ms = g.ctl.retry_after_ms();
        drop(g);
        self.shed_event(req_id, retry_after_ms, "degraded_miss", self.clock.now_ns());
        retry_after_ms
    }

    /// Current brownout rung.
    fn state(&self) -> BrownoutState {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ctl
            .state()
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
struct CloudConns {
    cloud_addr: SocketAddr,
    idle: Mutex<Option<Vec<(u64, FrameConn)>>>,
}

impl CloudConns {
    fn new(cloud_addr: SocketAddr) -> CloudConns {
        CloudConns {
            cloud_addr,
            idle: Mutex::new(Some(Vec::with_capacity(CLOUD_IDLE_MAX))),
        }
    }

    /// The connection client connection `owner` parked, or else the most
    /// recently parked one, if any.
    fn take(&self, owner: u64) -> Option<FrameConn> {
        let mut idle = self.idle.lock();
        let idle = idle.as_mut()?;
        let own = idle.iter().rposition(|(parked_by, _)| *parked_by == owner);
        let (_, conn) = idle.remove(own.or(idle.len().checked_sub(1))?);
        Some(conn)
    }

    /// Park `conn` for `owner` after a clean exchange (dropped when the
    /// set is full or the edge has shut down).
    fn put(&self, owner: u64, conn: FrameConn) {
        if let Some(idle) = self.idle.lock().as_mut() {
            if idle.len() < CLOUD_IDLE_MAX {
                idle.push((owner, conn));
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

/// Call the cloud through the upstream gate. Returns `None` when the gate
/// is open or the call fails (the gate records the outcome and mirrors
/// breaker transitions into the shared stats).
///
/// The call runs on an idle connection from `conns` when there is one (the
/// one `client_conn` parked, for choice) and connects otherwise. A reused
/// connection may have died while parked (the cloud restarted), which says
/// nothing about the cloud now: unless it failed by timing out, the call is
/// retried once on a fresh connection before anything is reported to the
/// gate. Any failure drains `conns`.
fn guarded_cloud_call(
    msg: &Msg,
    net: &NetConfig,
    gate: &UpstreamGate,
    conns: &CloudConns,
    client_conn: u64,
    clock: &WallClock,
    stats: &RobustnessStats,
) -> Option<Held> {
    if !gate.preflight(clock.now_ns()) {
        conns.drain();
        return None;
    }
    let connect = || {
        let cloud = FrameConn::connect_timeout(&conns.cloud_addr, net.connect_timeout).ok()?;
        cloud.set_read_deadline(Some(net.edge_call_deadline)).ok()?;
        cloud
            .set_write_deadline(Some(net.edge_call_deadline))
            .ok()?;
        Some(cloud)
    };
    let mut parked = conns.take(client_conn);
    let result = loop {
        let reused = parked.is_some();
        let Some(mut cloud) = parked.take().or_else(connect) else {
            break None;
        };
        match cloud_exchange(&mut cloud, msg) {
            Ok(result) => {
                conns.put(client_conn, cloud);
                break Some(result);
            }
            Err(fault) if reused && fault != FaultError::Timeout => {}
            Err(fault) => {
                if fault == FaultError::Timeout {
                    stats.count_timeout();
                }
                break None;
            }
        }
    };
    if result.is_none() {
        conns.drain();
    }
    gate.report(result.is_some(), clock.now_ns());
    result
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
    let shards = net.cache_shards.max(1);
    let service = Arc::new(EdgeService::new(cfg, shards));
    let service_in_handle = service.clone();
    let pending = Arc::new(PendingUploads::new());
    let (pending_on_close, pending_in_handle) = (pending.clone(), pending.clone());
    let counters = Arc::new(EdgeCounters::default());
    let (counters_h, counters_on_send) = (counters.clone(), counters.clone());
    let peers: Arc<Mutex<Vec<SocketAddr>>> = Arc::new(Mutex::new(Vec::new()));
    let peers_in_handler = peers.clone();
    let cluster: Arc<Mutex<Option<LiveCluster>>> = Arc::new(Mutex::new(None));
    let cluster_h = cluster.clone();
    let stats = RobustnessStats::default();
    let gate = Arc::new(UpstreamGate::new(
        net.breaker_threshold,
        net.breaker_cooldown,
        stats.clone(),
    ));
    // Single-flight table: one upstream fetch per content digest at a
    // time; queued threads block on a condvar and re-check the cache when
    // the leader completes. Sharded like the caches so unrelated misses
    // never contend on one flight mutex.
    let flights: Arc<ShardedSingleFlight<Digest, Arc<FlightWaiter>>> =
        Arc::new(ShardedSingleFlight::new(shards));
    let cloud_conns = Arc::new(CloudConns::new(cloud_addr));
    let (stats_h, gate_h, flights_h) = (stats.clone(), gate.clone(), flights.clone());
    let conns_h = cloud_conns.clone();
    let clock = WallClock::new();
    let admission: Option<Arc<LiveAdmission>> = net.admission.clone().map(|a| {
        Arc::new(LiveAdmission::new(
            OverloadControl::new(a, net.brownout.clone()),
            clock.clone(),
            stats.clone(),
            net.telemetry.clone(),
        ))
    });
    let admission_h = admission.clone();
    let bind = bind.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
    let handle = move |conn_id: u64, frame: bytes::Bytes| -> Option<Answer> {
        let peers = &peers_in_handler;
        // A blob in the message (`Replicate`) stays a slice of `frame`.
        let msg = Msg::decode_frame(frame).ok()?;
        let now = clock.now_ns();
        let answer: Answer = match msg {
            Msg::Query {
                req_id,
                descriptor,
                hint,
            } => {
                // Admission first: a shed query is answered `Overloaded`
                // without touching the caches or upstream at all.
                let ticket = match admission_h.as_ref().map(|a| a.admit(req_id)) {
                    Some(LiveAdmit::Shed { retry_after_ms }) => {
                        return Some(
                            Msg::Overloaded {
                                req_id,
                                retry_after_ms,
                            }
                            .into(),
                        );
                    }
                    Some(LiveAdmit::Serve {
                        cached_only,
                        offered_at,
                    }) => Some((cached_only, offered_at)),
                    None => None,
                };
                // Every way out of this arm from here on returns the slot.
                let release_slot = || {
                    if let (Some((_, offered_at)), Some(a)) = (ticket, admission_h.as_ref()) {
                        a.release(offered_at);
                    }
                };
                // Queue time may have passed while waiting for the slot.
                let now = clock.now_ns();
                // One typed lookup serves both the reply decision and the
                // trace: the event records which cache answered (exact vs
                // approx vs miss) plus the path dimension — the lock
                // shard for digests, the lock-free snapshot index family
                // for descriptors.
                let outcome = service.lookup_held(&descriptor, now);
                net.telemetry.event_with(now, "edge.lookup", || {
                    vec![
                        ("req", Value::from(req_id)),
                        ("kind", Value::from(outcome.kind_str())),
                        ("hit", Value::from(outcome.is_hit())),
                        match &descriptor {
                            FeatureDescriptor::Dnn(_) => {
                                ("index", Value::from(service.index_family()))
                            }
                            FeatureDescriptor::ModelHash(d)
                            | FeatureDescriptor::PanoramaHash(d) => {
                                ("shard", Value::from(service.exact_shard_of(d)))
                            }
                        },
                    ]
                });
                let hit =
                    |held: Arc<Held>| Answer::held(held, |result| Msg::Hit { req_id, result });
                let answer: Answer = match (outcome.into_value(), hint) {
                    (Some(held), _) => hit(held),
                    (None, _) if ticket.is_some_and(|(cached_only, _)| cached_only) => {
                        // Degraded brownout: only cache hits are served;
                        // the miss is shed and the slot returned.
                        let retry_after_ms =
                            admission_h.as_ref().map_or(0, |a| a.shed_miss(req_id));
                        release_slot();
                        return Some(
                            Msg::Overloaded {
                                req_id,
                                retry_after_ms,
                            }
                            .into(),
                        );
                    }
                    (None, None) => {
                        if !pending.park(conn_id, req_id, descriptor) {
                            // Far more unanswered `NeedPayload`s than any
                            // client keeps in flight: hang up (which also
                            // drops what the connection has parked).
                            counters_h.pending_overflow.fetch_add(1, Ordering::Relaxed);
                            release_slot();
                            return None;
                        }
                        Msg::NeedPayload { req_id }.into()
                    }
                    (None, Some(task)) => {
                        let digest = crate::services::descriptor_digest(&descriptor);
                        let fetch = |task: crate::task::TaskRequest| {
                            // Cooperative lookup: ask peer edges before
                            // paying the cloud round trip (exact tasks
                            // carry their digest in the descriptor).
                            let peer_hit = digest.and_then(|digest| {
                                // One probe: Ok(reply) when a frame came
                                // back (a content miss still proves the
                                // peer alive), Err on connect/deadline
                                // failure.
                                let probe = |addr: SocketAddr| -> Result<Option<Held>, ()> {
                                    let mut peer =
                                        FrameConn::connect_timeout(&addr, net.connect_timeout)
                                            .map_err(|_| ())?;
                                    peer.set_read_deadline(Some(net.edge_call_deadline))
                                        .map_err(|_| ())?;
                                    peer.set_write_deadline(Some(net.edge_call_deadline))
                                        .map_err(|_| ())?;
                                    send_msg(&mut peer, &Msg::PeerQuery { req_id, digest }, None)
                                        .map_err(|_| ())?;
                                    let frame = peer.recv_summed().map_err(|_| ())?;
                                    match Msg::decode_frame(frame.bytes().clone()) {
                                        Ok(Msg::PeerReply { result, .. }) => {
                                            Ok(result.map(|r| Held::from_frame(r, &frame)))
                                        }
                                        _ => Err(()),
                                    }
                                };
                                let peer_field = |p: EdgeId| {
                                    vec![
                                        ("req", Value::from(req_id)),
                                        ("peer", Value::from(p as u64)),
                                    ]
                                };
                                // Cluster tier: bounded fan-out along the
                                // ring from the digest's owner, each probe
                                // outcome feeding that peer's breaker.
                                let planned = {
                                    let mut g = cluster_h.lock();
                                    g.as_mut().map(|c| {
                                        c.state.note_local_request(&digest);
                                        let plan = c.state.plan(&digest, clock.now_ns());
                                        let targets: Vec<(EdgeId, SocketAddr)> = plan
                                            .peers
                                            .iter()
                                            .filter_map(|&p| {
                                                c.members.get(p as usize).map(|&a| (p, a))
                                            })
                                            .collect();
                                        (targets, plan.failover, c.state.stats().clone())
                                    })
                                };
                                if let Some((targets, failover, cstats)) = planned {
                                    if failover {
                                        if let Some(&(peer, _)) = targets.first() {
                                            net.telemetry.event_with(
                                                clock.now_ns(),
                                                "decision.peer_failover",
                                                || peer_field(peer),
                                            );
                                        }
                                    }
                                    let started = clock.now_ns();
                                    for (i, &(peer, addr)) in targets.iter().enumerate() {
                                        // Counted at send time so the
                                        // counter matches the probes (and
                                        // decision.peer_probe events)
                                        // actually emitted — a plan that
                                        // resolves early sends fewer
                                        // probes than it planned.
                                        cstats.count_probe();
                                        net.telemetry.event_with(
                                            clock.now_ns(),
                                            "decision.peer_probe",
                                            || peer_field(peer),
                                        );
                                        let outcome = probe(addr);
                                        let now = clock.now_ns();
                                        let mut transition = None;
                                        {
                                            let mut g = cluster_h.lock();
                                            if let Some(c) = g.as_mut() {
                                                transition = c
                                                    .state
                                                    .record_probe(peer, outcome.is_ok(), now)
                                                    .map(|(from, to)| (c.state.me(), from, to));
                                                match &outcome {
                                                    Ok(Some(_)) => c.state.stats().count_peer_hit(),
                                                    Ok(None) => c.state.stats().count_peer_miss(),
                                                    Err(()) => c.state.stats().count_peer_timeout(),
                                                }
                                                if matches!(outcome, Ok(Some(_))) {
                                                    // This hit resolves the
                                                    // plan early: hand the
                                                    // unprobed peers' breaker
                                                    // grants back, or a
                                                    // half-open peer's single
                                                    // rejoin probe would be
                                                    // consumed by a probe
                                                    // that never happens.
                                                    for &(rest, _) in targets.iter().skip(i + 1) {
                                                        c.state.cancel_probe(rest);
                                                    }
                                                }
                                            }
                                        }
                                        if let Some((me, from, to)) = transition {
                                            net.telemetry.event_with(
                                                now,
                                                "cluster.peer_state",
                                                || {
                                                    vec![
                                                        ("edge", Value::from(me as u64)),
                                                        ("req", Value::from(req_id)),
                                                        ("peer", Value::from(peer as u64)),
                                                        ("from", Value::from(from.as_str())),
                                                        ("to", Value::from(to.as_str())),
                                                    ]
                                                },
                                            );
                                        }
                                        match outcome {
                                            Ok(Some(result)) => {
                                                net.telemetry.event_with(
                                                    now,
                                                    "decision.peer_hit",
                                                    || peer_field(peer),
                                                );
                                                net.telemetry.registry().observe(
                                                    "cluster.peer_latency_ns",
                                                    now.saturating_sub(started),
                                                );
                                                return Some(result);
                                            }
                                            Ok(None) => net.telemetry.event_with(
                                                now,
                                                "decision.peer_miss",
                                                || peer_field(peer),
                                            ),
                                            Err(()) => net.telemetry.event_with(
                                                now,
                                                "decision.peer_timeout",
                                                || peer_field(peer),
                                            ),
                                        }
                                    }
                                    return None;
                                }
                                // Legacy broadcast: every registered peer
                                // in list order.
                                let addrs = peers.lock().clone();
                                for addr in addrs {
                                    if let Ok(Some(result)) = probe(addr) {
                                        return Some(result);
                                    }
                                }
                                None
                            });
                            if let Some(held) = peer_hit {
                                return Some((Arc::new(held), true));
                            }
                            net.telemetry
                                .event_with(clock.now_ns(), "cloud.forward", || {
                                    vec![("req", Value::from(req_id))]
                                });
                            guarded_cloud_call(
                                &Msg::Forward { req_id, task },
                                &net,
                                &gate_h,
                                &conns_h,
                                conn_id,
                                &clock,
                                &stats_h,
                            )
                            .map(|held| (Arc::new(held), false))
                        };
                        // The fetched result goes to the client from the
                        // receive buffer it was verified in, under the sum
                        // derived there: the edge reads the blob once.
                        let fetched_answer = |held: Arc<Held>, from_peer: bool| {
                            Answer::held(held, |result| match from_peer {
                                true => Msg::PeerResult { req_id, result },
                                false => Msg::Result { req_id, result },
                            })
                        };
                        let unavailable = || -> Answer {
                            stats_h.count_unavailable();
                            net.telemetry
                                .event_with(clock.now_ns(), "edge.unavailable", || {
                                    vec![("req", Value::from(req_id))]
                                });
                            Msg::Unavailable { req_id }.into()
                        };
                        match digest {
                            Some(d) => loop {
                                let now = clock.now_ns();
                                if let Some(held) = service.exact_lookup_held(&d, now) {
                                    break hit(held);
                                }
                                let waiter = Arc::new(FlightWaiter::default());
                                match flights_h.claim(d, waiter.clone()) {
                                    FlightClaim::Leader => {
                                        let fetched = fetch(task);
                                        if let Some((held, from_peer)) = &fetched {
                                            // Partition placement: under
                                            // the cluster a non-owner
                                            // pushes cloud fetches to the
                                            // digest's owner and keeps a
                                            // local replica only once its
                                            // own demand went hot.
                                            let (keep, push) = {
                                                let mut g = cluster_h.lock();
                                                match g.as_mut() {
                                                    Some(c) if !c.state.is_owner(&d) => {
                                                        let keep = c.state.is_locally_hot(&d);
                                                        if keep {
                                                            c.state.stats().count_replica_keep();
                                                        }
                                                        let push = if *from_peer {
                                                            None
                                                        } else {
                                                            c.state
                                                                .placement_target(&d)
                                                                .and_then(|o| {
                                                                    c.members
                                                                        .get(o as usize)
                                                                        .map(|&a| (o, a))
                                                                })
                                                                .map(|(o, a)| {
                                                                    c.state
                                                                        .stats()
                                                                        .count_replication_copy();
                                                                    (o, a, c.token)
                                                                })
                                                        };
                                                        (keep, push)
                                                    }
                                                    _ => (true, None),
                                                }
                                            };
                                            if keep {
                                                let folded = service.insert_held(
                                                    &descriptor,
                                                    Held::clone(held),
                                                    now,
                                                );
                                                trace_rebuild(
                                                    &net,
                                                    &service,
                                                    folded,
                                                    clock.now_ns(),
                                                );
                                            }
                                            if let Some((owner, addr, token)) = push {
                                                net.telemetry.event_with(
                                                    clock.now_ns(),
                                                    "decision.peer_replicate",
                                                    || {
                                                        vec![
                                                            ("req", Value::from(req_id)),
                                                            ("peer", Value::from(owner as u64)),
                                                        ]
                                                    },
                                                );
                                                replicate_to(addr, req_id, token, d, held, &net);
                                            }
                                        }
                                        for w in flights_h.complete(&d) {
                                            w.notify();
                                        }
                                        break match fetched {
                                            Some((held, from_peer)) => {
                                                fetched_answer(held, from_peer)
                                            }
                                            None => unavailable(),
                                        };
                                    }
                                    FlightClaim::Queued => {
                                        net.telemetry.event_with(now, "flight.queued", || {
                                            vec![("req", Value::from(req_id))]
                                        });
                                        if !waiter.wait(net.edge_call_deadline) {
                                            break unavailable();
                                        }
                                        // Leader finished: loop to re-check
                                        // the cache (and lead ourselves if
                                        // the leader failed).
                                    }
                                }
                            },
                            None => match fetch(task) {
                                Some((held, from_peer)) => {
                                    let folded =
                                        service.insert_held(&descriptor, Held::clone(&held), now);
                                    trace_rebuild(&net, &service, folded, clock.now_ns());
                                    fetched_answer(held, from_peer)
                                }
                                None => unavailable(),
                            },
                        }
                    }
                };
                // Local service done: return the slot (upstream waits,
                // if any, are part of the observed sojourn on purpose —
                // a slow cloud is edge overload from the client's view).
                release_slot();
                answer
            }
            Msg::PeerQuery { req_id, digest } => {
                let held = service.exact_lookup_held(&digest, now);
                // Hot-entry failover replication: enough peer demand on an
                // owned entry pushes a copy to the digest's ring successor
                // so the content survives this edge dying.
                if let Some(held) = &held {
                    let push = {
                        let mut g = cluster_h.lock();
                        g.as_mut().and_then(|c| {
                            if !c.state.note_owner_request(&digest) {
                                return None;
                            }
                            c.state
                                .successor_target(&digest)
                                .and_then(|s| c.members.get(s as usize).map(|&a| (s, a)))
                                .map(|(s, a)| {
                                    c.state.stats().count_replication_copy();
                                    (s, a, c.token)
                                })
                        })
                    };
                    if let Some((succ, addr, token)) = push {
                        net.telemetry
                            .event_with(clock.now_ns(), "decision.peer_replicate", || {
                                vec![
                                    ("req", Value::from(req_id)),
                                    ("peer", Value::from(succ as u64)),
                                ]
                            });
                        // Detached: the probing edge is waiting on this
                        // reply under its own edge-call deadline, so the
                        // push (connect + ack round trip) must never ride
                        // the probe's response path — a healthy owner
                        // would read as a breaker failure whenever a hot
                        // crossing coincides with a probe.
                        let push_net = net.clone();
                        let push_held = held.clone();
                        let _ = std::thread::Builder::new()
                            .name("coic-replicate".into())
                            .spawn(move || {
                                replicate_to(addr, req_id, token, digest, &push_held, &push_net);
                            });
                    }
                }
                let result = held.as_ref().map(|held| held.result().clone());
                Answer {
                    msg: Msg::PeerReply { req_id, result },
                    held,
                }
            }
            Msg::Replicate {
                req_id,
                token,
                digest,
                result,
            } => {
                // Membership gate: install the pushed copy only when the
                // sender presented this cluster's token (derived from the
                // joined member list plus the configured secret). With no
                // cluster joined, or on a token mismatch, drop the
                // connection — an arbitrary process that reaches the edge
                // port must not be able to plant results under chosen
                // digests and have them served to peers.
                let member = cluster_h.lock().as_ref().is_some_and(|c| c.token == token);
                if !member {
                    return None;
                }
                // Install under the content hash (the exact store is
                // digest-keyed; the descriptor kind does not matter).
                let folded = service.insert(&FeatureDescriptor::ModelHash(digest), &result, now);
                trace_rebuild(&net, &service, folded, clock.now_ns());
                Msg::ReplicateAck { req_id }.into()
            }
            Msg::Upload { req_id, task } => {
                let descriptor = pending.take(conn_id, req_id)?;
                net.telemetry
                    .event_with(clock.now_ns(), "cloud.forward", || {
                        vec![("req", Value::from(req_id))]
                    });
                match guarded_cloud_call(
                    &Msg::Forward { req_id, task },
                    &net,
                    &gate_h,
                    &conns_h,
                    conn_id,
                    &clock,
                    &stats_h,
                ) {
                    Some(held) => {
                        let folded = service.insert_held(&descriptor, held.clone(), now);
                        trace_rebuild(&net, &service, folded, clock.now_ns());
                        Answer::held(Arc::new(held), |result| Msg::Result { req_id, result })
                    }
                    None => {
                        stats_h.count_unavailable();
                        net.telemetry
                            .event_with(clock.now_ns(), "edge.unavailable", || {
                                vec![("req", Value::from(req_id))]
                            });
                        Msg::Unavailable { req_id }.into()
                    }
                }
            }
            _ => return None,
        };
        Some(answer)
    };
    // A cached result reaches the socket from the cache's own buffer, under
    // the checksum its entry carries. When a connection ends — however it
    // ends — what it parked is dropped: nobody is left to upload it.
    let server = FrameServer::spawn_conn(
        bind,
        move |conn_id, frame| {
            handle(conn_id, frame).map(|answer| answer.frame_parts(Some(&counters_on_send)))
        },
        move |conn_id| pending_on_close.forget(conn_id),
    )?;
    Ok(EdgeHandle {
        addr: server.local_addr(),
        peers,
        cluster,
        stats,
        gate,
        cloud_conns,
        service: service_in_handle,
        admission,
        counters,
        pending: pending_in_handle,
        server,
    })
}

/// Outcome of one live request.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The result delivered to the client.
    pub result: TaskResult,
    /// Wall-clock latency.
    pub elapsed: std::time::Duration,
    /// Hit/miss path taken.
    pub path: crate::qoe::Path,
    /// Attempts beyond the first this request needed.
    pub retries: u32,
}

/// A blocking CoIC client over a live edge connection. All orchestration
/// (retry, backoff, deadline, degrade, probe) is decided by the embedded
/// [`ClientEngine`]; this type only realizes its effects over framed TCP.
pub struct NetClient {
    edge_addr: SocketAddr,
    cloud_addr: Option<SocketAddr>,
    conn: Option<FrameConn>,
    logic: ClientLogic,
    next_req: u64,
    net: NetConfig,
    clock: WallClock,
    engine: ClientEngine<WallClock>,
    stats: RobustnessStats,
    tel: Telemetry,
    decisions_seen: usize,
}

impl NetClient {
    /// Connect to a live edge (no origin fallback, default deadlines).
    pub fn connect(
        edge_addr: SocketAddr,
        client_cfg: ClientConfig,
        compute: ComputeConfig,
        models: Arc<ModelLibrary>,
        panos: Arc<PanoLibrary>,
    ) -> std::io::Result<NetClient> {
        let mut c = Self::connect_with(
            edge_addr,
            None,
            NetConfig::default(),
            client_cfg,
            compute,
            models,
            panos,
        )?;
        // Preserve the historical contract: fail fast if the edge is down.
        if c.conn.is_none() {
            c.reconnect_edge()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        Ok(c)
    }

    /// Connect with explicit fault-tolerance parameters. With a
    /// `cloud_addr`, the client survives edge failure: requests fall back
    /// to the origin path and the edge is re-probed every
    /// [`NetConfig::probe_interval`]. An initially-unreachable edge makes
    /// the client start degraded rather than fail construction.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_with(
        edge_addr: SocketAddr,
        cloud_addr: Option<SocketAddr>,
        net: NetConfig,
        client_cfg: ClientConfig,
        compute: ComputeConfig,
        models: Arc<ModelLibrary>,
        panos: Arc<PanoLibrary>,
    ) -> std::io::Result<NetClient> {
        let stats = RobustnessStats::default();
        let clock = WallClock::new();
        let engine = ClientEngine::new(
            EngineConfig {
                retry: net.retry.clone(),
                deadline_ns: net.request_deadline.as_nanos() as u64,
                probe_interval_ns: net.probe_interval.as_nanos() as u64,
                use_edge: true,
                origin_fallback: cloud_addr.is_some(),
            },
            clock.clone(),
            stats.clone(),
        );
        let tel = net.telemetry.clone();
        let mut client = NetClient {
            edge_addr,
            cloud_addr,
            conn: None,
            logic: ClientLogic::new(client_cfg, compute, models, panos),
            next_req: 1,
            net,
            clock,
            engine,
            stats,
            tel,
            decisions_seen: 0,
        };
        if client.reconnect_edge().is_err() && client.cloud_addr.is_some() {
            client.engine.begin_degraded();
        }
        Ok(client)
    }

    /// Fault-handling counters for this client.
    pub fn robustness(&self) -> RobustnessStats {
        self.stats.clone()
    }

    /// Is the client currently on the origin (cloud-direct) path?
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// Aggregate the engine's per-request QoE records — the same report
    /// type the simulator emits (byte counts are not populated on the
    /// live path).
    pub fn report(&self) -> QoeReport {
        QoeReport::from_records(self.engine.records())
    }

    /// Publish this client's aggregate QoE (`qoe.*`) and robustness
    /// counters (`robustness.*`) into `reg` — typically the registry of
    /// the [`Telemetry`] handle the client was configured with.
    pub fn publish_metrics(&self, reg: &MetricsRegistry) {
        self.report().publish(reg);
        self.stats.snapshot().publish(reg);
    }

    /// The engine's decision trace so far (hit/miss/retry/fallback
    /// sequence), comparable against a simulator trace.
    pub fn decisions(&self) -> &[Decision] {
        self.engine.decisions()
    }

    fn reconnect_edge(&mut self) -> Result<(), FrameError> {
        let conn = FrameConn::connect_timeout(&self.edge_addr, self.net.connect_timeout)?;
        conn.set_read_deadline(Some(self.net.request_deadline))?;
        conn.set_write_deadline(Some(self.net.request_deadline))?;
        self.conn = Some(conn);
        Ok(())
    }

    fn on_io_error(&self, e: &FrameError) {
        match e.fault() {
            FaultError::Timeout => self.stats.count_timeout(),
            FaultError::Corrupt => self.stats.count_corrupt(),
            _ => {}
        }
    }

    /// Send the descriptor query for one engine-decided attempt, then pump
    /// replies into the engine. Any IO failure is funneled back as a
    /// transport-failure event.
    fn edge_send_query(
        &mut self,
        req_id: u64,
        prepared: &crate::services::PreparedRequest,
        slot: &mut Option<TaskResult>,
    ) -> Vec<Effect> {
        if self.conn.is_none() {
            match self.reconnect_edge() {
                Ok(()) => self.stats.count_reconnect(),
                Err(_) => return self.engine.on_transport_failure(req_id),
            }
        }
        let hint = match &prepared.task {
            crate::task::TaskRequest::Recognition { .. } => None,
            t => Some(t.clone()),
        };
        let query = Msg::Query {
            req_id,
            descriptor: prepared.descriptor.clone(),
            hint,
        };
        let Some(conn) = self.conn.as_mut() else {
            // reconnect_edge succeeded above, but never panic the
            // request loop over a connection that vanished.
            return self.engine.on_transport_failure(req_id);
        };
        if let Err(e) = send_msg(conn, &query, None) {
            self.on_io_error(&e);
            self.conn = None;
            return self.engine.on_transport_failure(req_id);
        }
        self.edge_recv(req_id, slot)
    }

    /// Receive one edge reply frame and feed it to the engine.
    fn edge_recv(&mut self, req_id: u64, slot: &mut Option<TaskResult>) -> Vec<Effect> {
        let Some(conn) = self.conn.as_mut() else {
            return self.engine.on_transport_failure(req_id);
        };
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(e) => {
                self.on_io_error(&e);
                // Timeouts desynchronize the stream; all errors drop the
                // connection so the next attempt starts clean.
                self.conn = None;
                return self.engine.on_transport_failure(req_id);
            }
        };
        // The result handed to the caller is a slice of this frame.
        let msg = match Msg::decode_frame(frame) {
            Ok(m) => m,
            Err(_) => {
                self.conn = None;
                return self.engine.on_transport_failure(req_id);
            }
        };
        let (kind, result) = match msg {
            Msg::Hit { result, .. } => (ReplyKind::Hit, Some(result)),
            Msg::Result { result, .. } => (ReplyKind::Result, Some(result)),
            Msg::PeerResult { result, .. } => (ReplyKind::PeerResult, Some(result)),
            Msg::Unavailable { .. } => (ReplyKind::Unavailable, None),
            Msg::Overloaded { retry_after_ms, .. } => {
                (ReplyKind::Overloaded { retry_after_ms }, None)
            }
            Msg::NeedPayload { .. } => (ReplyKind::NeedPayload, None),
            // A stale reply to an earlier (timed-out) request id cannot
            // appear here — timeouts drop the connection — so any other
            // message is a protocol violation.
            _ => {
                self.conn = None;
                return self.engine.on_transport_failure(req_id);
            }
        };
        if let Some(r) = result {
            *slot = Some(r);
        }
        self.engine.on_reply(req_id, kind, None)
    }

    /// Answer a `NeedPayload` by uploading the full task, then keep
    /// pumping replies.
    fn edge_send_upload(
        &mut self,
        req_id: u64,
        prepared: &crate::services::PreparedRequest,
        slot: &mut Option<TaskResult>,
    ) -> Vec<Effect> {
        let upload = Msg::Upload {
            req_id,
            task: prepared.task.clone(),
        };
        let Some(conn) = self.conn.as_mut() else {
            return self.engine.on_transport_failure(req_id);
        };
        if let Err(e) = send_msg(conn, &upload, None) {
            self.on_io_error(&e);
            self.conn = None;
            return self.engine.on_transport_failure(req_id);
        }
        self.edge_recv(req_id, slot)
    }

    /// Origin path: ask the cloud directly, bypassing the edge.
    fn origin_exchange(
        &mut self,
        req_id: u64,
        prepared: &crate::services::PreparedRequest,
        slot: &mut Option<TaskResult>,
    ) -> Vec<Effect> {
        let attempt = || -> Result<TaskResult, FrameError> {
            let addr = self.cloud_addr.ok_or_else(|| {
                FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "origin path requires a cloud address",
                ))
            })?;
            let mut cloud = FrameConn::connect_timeout(&addr, self.net.connect_timeout)?;
            cloud.set_read_deadline(Some(self.net.request_deadline))?;
            cloud.set_write_deadline(Some(self.net.request_deadline))?;
            let request = Msg::BaselineRequest {
                req_id,
                task: prepared.task.clone(),
            };
            send_msg(&mut cloud, &request, None)?;
            let resp = cloud.recv()?;
            match Msg::decode_frame(resp) {
                Ok(Msg::BaselineReply { result, .. }) => Ok(result),
                _ => Err(FrameError::Closed),
            }
        };
        match attempt() {
            Ok(result) => {
                *slot = Some(result);
                self.engine.on_reply(req_id, ReplyKind::Baseline, None)
            }
            Err(e) => {
                self.on_io_error(&e);
                self.engine.on_transport_failure(req_id)
            }
        }
    }

    /// Execute one workload request end to end, returning the result, the
    /// measured wall latency and the path that served it. With a cloud
    /// fallback configured this only errors when *both* paths are dead.
    pub fn execute(
        &mut self,
        req: &coic_workload::Request,
    ) -> Result<LiveOutcome, Box<dyn std::error::Error>> {
        let issued_ns = self.clock.now_ns();
        let prepared = self.logic.prepare(req);
        let req_id = self.next_req;
        self.next_req += 1;
        // The engine numbers requests sequentially from zero, one per
        // `begin`, so this matches the `seq` in the decision events. The
        // client field mirrors the simulator's span shape; a live handle
        // drives one client, so it is always zero.
        let seq = req_id - 1;
        self.tel.span_enter_with(issued_ns, "request", || {
            vec![
                ("client", Value::from(0u64)),
                ("seq", Value::from(seq)),
                ("kind", Value::from(prepared.task.kind())),
            ]
        });
        let outcome = self.drive(req_id, issued_ns, &prepared);
        let new = self
            .engine
            .decisions()
            .get(self.decisions_seen..)
            .unwrap_or_default();
        let now = self.clock.now_ns();
        for d in new {
            record_decision(&self.tel, now, 0, d);
        }
        self.decisions_seen = self.engine.decisions().len();
        match &outcome {
            Ok(out) => {
                let elapsed_ns = out.elapsed.as_nanos() as u64;
                self.tel.observe("qoe.latency_ns", elapsed_ns);
                self.tel
                    .span_exit_with(issued_ns + elapsed_ns, "request", || {
                        vec![
                            ("client", Value::from(0u64)),
                            ("seq", Value::from(seq)),
                            ("path", Value::from(path_label(out.path))),
                        ]
                    });
            }
            Err(_) => {
                self.tel.span_exit_with(now, "request", || {
                    vec![
                        ("client", Value::from(0u64)),
                        ("seq", Value::from(seq)),
                        ("path", Value::from("failed")),
                    ]
                });
            }
        }
        outcome
    }

    /// Pump the engine's effects for one request to completion.
    fn drive(
        &mut self,
        req_id: u64,
        issued_ns: u64,
        prepared: &crate::services::PreparedRequest,
    ) -> Result<LiveOutcome, Box<dyn std::error::Error>> {
        let mut slot: Option<TaskResult> = None;
        let mut effects: VecDeque<Effect> =
            // Preprocessing already ran synchronously above: zero prep delay.
            self.engine
                .begin(req_id, prepared.task.kind(), issued_ns, 0)
                .into();
        while let Some(eff) = effects.pop_front() {
            let follow = match eff {
                Effect::ArmTimer {
                    kind: TimerKind::Prep,
                    epoch,
                    ..
                } => self.engine.on_timer(req_id, TimerKind::Prep, epoch),
                // Reply deadlines are realized by the sockets' read
                // deadlines (a timeout surfaces as a transport failure).
                Effect::ArmTimer {
                    kind: TimerKind::Deadline,
                    ..
                } => Vec::new(),
                Effect::ArmTimer {
                    kind: TimerKind::Backoff,
                    epoch,
                    delay_ns,
                    ..
                } => {
                    std::thread::sleep(Duration::from_nanos(delay_ns));
                    self.engine.on_timer(req_id, TimerKind::Backoff, epoch)
                }
                Effect::SendQuery { seq, attempt, .. } => {
                    if self.net.faults.edge_dropped(seq, attempt) {
                        self.engine.on_transport_failure(req_id)
                    } else {
                        self.edge_send_query(req_id, prepared, &mut slot)
                    }
                }
                Effect::SendUpload { .. } => self.edge_send_upload(req_id, prepared, &mut slot),
                Effect::SendOrigin { seq, attempt, .. } => {
                    if self.cloud_addr.is_none() {
                        // Unreachable by construction (origin_fallback is
                        // only set with a cloud address), but fail safe.
                        self.engine.on_transport_failure(req_id)
                    } else if self.net.faults.origin_dropped(seq, attempt) {
                        self.engine.on_transport_failure(req_id)
                    } else {
                        self.origin_exchange(req_id, prepared, &mut slot)
                    }
                }
                Effect::ProbeEdge { .. } => {
                    let ok = self.reconnect_edge().is_ok();
                    self.engine.on_probe_result(req_id, ok)
                }
                Effect::Complete { record, .. } => {
                    let Some(result) = slot.take() else {
                        return Err("request completed without a buffered result".into());
                    };
                    return Ok(LiveOutcome {
                        result,
                        elapsed: Duration::from_nanos(
                            record.completed_ns.saturating_sub(record.issued_ns),
                        ),
                        path: record.path,
                        retries: record.retries,
                    });
                }
                Effect::GiveUp { .. } => {
                    return Err(if self.cloud_addr.is_none() {
                        format!(
                            "edge at {} unreachable after {} attempts",
                            self.edge_addr,
                            self.net.retry.max_attempts.max(1)
                        )
                        .into()
                    } else {
                        format!(
                            "both edge {} and cloud {:?} unreachable",
                            self.edge_addr, self.cloud_addr
                        )
                        .into()
                    });
                }
            };
            effects.extend(follow);
        }
        Err("request ended without completing or failing".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoe::Path;
    use coic_workload::{Request, RequestKind, UserId, ZoneId};
    use std::time::Instant;

    fn stack() -> (CloudHandle, EdgeHandle, NetClient) {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let classes: Vec<_> = (0..5).map(ObjectClass).collect();
        let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
        let edge = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        let client =
            NetClient::connect(edge.addr(), ClientConfig::default(), compute, models, panos)
                .unwrap();
        (cloud, edge, client)
    }

    fn recog(class: u32, seed: u64) -> Request {
        Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Recognition {
                class,
                view_seed: seed,
            },
        }
    }

    #[test]
    fn live_recognition_miss_then_hit() {
        let (_cloud, _edge, mut client) = stack();
        let first = client.execute(&recog(2, 10)).unwrap();
        assert_eq!(first.path, Path::CloudMiss);
        match &first.result {
            TaskResult::Recognition(r) => assert_eq!(r.label, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Same viewpoint again: identical descriptor, guaranteed hit.
        let second = client.execute(&recog(2, 10)).unwrap();
        assert_eq!(second.path, Path::EdgeHit);

        // The live client populates the same QoE report the simulator
        // emits: two completions, one hit, one cloud trip, real latencies.
        let report = client.report();
        assert_eq!(report.completed, 2);
        assert_eq!(report.edge_hits, 1);
        assert_eq!(report.cloud_trips, 1);
        assert!(report.mean_latency_ms() > 0.0);
        // And the decision trace names the same path sequence.
        use crate::engine::Decision;
        assert_eq!(
            client.decisions(),
            &[
                Decision::Attempt { seq: 0, attempt: 0 },
                Decision::Upload { seq: 0 },
                Decision::Complete {
                    seq: 0,
                    path: Path::CloudMiss
                },
                Decision::Attempt { seq: 1, attempt: 0 },
                Decision::Complete {
                    seq: 1,
                    path: Path::EdgeHit
                },
            ]
        );
    }

    #[test]
    fn live_model_load_shares_across_clients() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let classes = vec![ObjectClass(0)];
        let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
        let edge = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::RenderLoad {
                model_id: 5,
                size_bytes: 60_000,
            },
        };
        let mut a = NetClient::connect(
            edge.addr(),
            ClientConfig::default(),
            compute,
            models.clone(),
            panos.clone(),
        )
        .unwrap();
        let mut b =
            NetClient::connect(edge.addr(), ClientConfig::default(), compute, models, panos)
                .unwrap();
        // Client A warms the cache; client B hits it.
        assert_eq!(a.execute(&req).unwrap().path, Path::CloudMiss);
        let out = b.execute(&req).unwrap();
        assert_eq!(out.path, Path::EdgeHit);
        match out.result {
            TaskResult::Model(bytes) => {
                coic_render::load_cmf(&bytes).unwrap();
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn live_peer_edges_cooperate() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let classes = vec![ObjectClass(0)];
        let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
        let edge_a = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        let edge_b = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        edge_a.add_peer(edge_b.addr());
        edge_b.add_peer(edge_a.addr());

        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::RenderLoad {
                model_id: 3,
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
    fn live_panorama_flow() {
        let (_cloud, _edge, mut client) = stack();
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Panorama { frame_id: 3 },
        };
        let miss = client.execute(&req).unwrap();
        assert_eq!(miss.path, Path::CloudMiss);
        let hit = client.execute(&req).unwrap();
        assert_eq!(hit.path, Path::EdgeHit);
        assert_eq!(miss.result, hit.result);
    }

    #[test]
    fn client_without_fallback_errors_when_edge_dies() {
        let (_cloud, mut edge, mut client) = stack();
        client.execute(&recog(1, 5)).unwrap();
        edge.shutdown();
        let net = NetConfig::default();
        let start = Instant::now();
        let err = client.execute(&recog(1, 6));
        assert!(err.is_err(), "edgeless client should fail");
        // It must fail by deadline/refusal, not hang forever.
        assert!(
            start.elapsed()
                < net.request_deadline * (net.retry.max_attempts + 1) + Duration::from_secs(2)
        );
    }

    #[test]
    fn injected_faults_fail_attempts_without_touching_the_network() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let classes = vec![ObjectClass(0)];
        let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
        let edge = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
        let net = NetConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                jitter_frac: 0.0,
                seed: 0,
            },
            // Kill the first attempt of the first request (seq 0).
            faults: FaultSchedule::new().drop_edge_attempt(0, 0),
            ..NetConfig::default()
        };
        let mut client = NetClient::connect_with(
            edge.addr(),
            None,
            net,
            ClientConfig::default(),
            compute,
            models,
            panos,
        )
        .unwrap();
        let out = client
            .execute(&Request {
                user: UserId(0),
                zone: ZoneId(0),
                at_ns: 0,
                kind: RequestKind::Panorama { frame_id: 1 },
            })
            .unwrap();
        assert_eq!(out.retries, 1, "first attempt injected dead, second won");
        assert_eq!(client.report().retried_requests, 1);
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
        edge.service
            .insert(&descriptor, &TaskResult::Panorama(pano.clone()), 0);
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
            assert_eq!(count(&edge.counters.blob_sum_reused), reused);
            assert_eq!(count(&edge.counters.blob_summed_on_send), 1);
        }
    }

    #[test]
    fn cloud_restart_between_misses_is_served_on_a_fresh_connection() {
        let cloud = fake_cloud(loopback(), |_, _| {});
        let cloud_addr = cloud.local_addr();
        let edge = edge_with_hair_trigger(cloud_addr, Duration::from_secs(3));
        let mut client = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut client, 1), Msg::Result { .. }));
        assert_eq!(edge.cloud_conns.idle_len(), 1, "connection not parked");

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
            edge.cloud_conns.idle_len(),
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
            edge.cloud_conns.idle_len(),
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
        assert_eq!(edge.cloud_conns.idle_len(), CLOUD_IDLE_MAX);

        // The cloud goes away for good: the stale connection fails, the
        // fresh connect fails, the call is reported, the breaker opens —
        // and nothing stays parked, then or while the gate refuses.
        drop(cloud);
        let mut client = raw_client(addr);
        assert!(matches!(pano_miss(&mut client, 1), Msg::Unavailable { .. }));
        assert_eq!(edge.breaker_state(), BreakerState::Open);
        assert_eq!(edge.cloud_conns.idle_len(), 0);
        assert!(matches!(pano_miss(&mut client, 2), Msg::Unavailable { .. }));
        assert_eq!(edge.cloud_conns.idle_len(), 0);
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
        assert_eq!(edge.cloud_conns.idle_len(), 2);
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
        assert_eq!(edge.cloud_conns.idle_len(), 2);

        // A client that has parked nothing takes what is there rather than
        // connecting.
        let mut c = raw_client(edge.addr());
        assert!(matches!(pano_miss(&mut c, 99), Msg::Result { .. }));
        let last = served_by.lock().last().copied();
        assert!(last.is_some_and(|conn| a_conns.contains(&conn) || b_conns.contains(&conn)));
        assert_eq!(edge.cloud_conns.idle_len(), 2);
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
        assert_eq!(edge.cloud_conns.idle_len(), 1);
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
        edge.cloud_conns.put(0, late);
        assert_eq!(edge.cloud_conns.idle_len(), 0);
    }

    #[test]
    fn queued_waiters_sharing_a_req_id_each_get_their_grant() {
        // Every client numbers its requests from 1, so two connections
        // queued behind a full gate routinely carry the same req_id. Both
        // grants land before either waiter runs (the releases below are
        // back to back; a woken waiter needs far longer to reacquire the
        // gate than the second release needs to take it). Keyed by req_id,
        // the two grants collapsed into one `ready` entry: one waiter was
        // served, the other parked forever with its slot counted in flight.
        let admission = Arc::new(LiveAdmission::new(
            OverloadControl::new(
                AdmissionConfig {
                    max_queue_age: Duration::from_secs(60),
                    ..AdmissionConfig::fixed(2)
                },
                None,
            ),
            WallClock::new(),
            RobustnessStats::default(),
            Telemetry::disabled(),
        ));
        let hold = |req_id| match admission.admit(req_id) {
            LiveAdmit::Serve { offered_at, .. } => offered_at,
            LiveAdmit::Shed { .. } => panic!("a free slot must serve"),
        };
        let holders = [hold(1), hold(2)];
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..2 {
            let (admission, tx) = (admission.clone(), tx.clone());
            std::thread::spawn(move || {
                let served = match admission.admit(7) {
                    LiveAdmit::Serve { offered_at, .. } => {
                        admission.release(offered_at);
                        true
                    }
                    LiveAdmit::Shed { .. } => false,
                };
                let _ = tx.send(served);
            });
        }
        // (queue depth, in flight) as the controller sees them.
        let gate = || {
            let g = admission.inner.lock().unwrap();
            let ctl = g.ctl.admission();
            (ctl.queue_depth(), ctl.inflight())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate().0 < 2 {
            assert!(Instant::now() < deadline, "waiters never queued");
            std::thread::yield_now();
        }
        for offered_at in holders {
            admission.release(offered_at);
        }
        for _ in 0..2 {
            let served = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a queued waiter never got its verdict");
            assert!(served, "a granted waiter must be served");
        }
        assert_eq!(gate(), (0, 0));
    }
}
