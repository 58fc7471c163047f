//! Discrete-event simulation driver.
//!
//! Reconstructs the paper's testbed as a simulated topology — N mobile
//! clients on an access link to one edge, one WAN link to the cloud — and
//! replays a workload trace through either the **origin** baseline (full
//! offload, no cache) or **CoIC** (descriptor query → edge cache →
//! forward-on-miss). Every run is deterministic in its seed.

use crate::cluster::{ClusterConfig, ClusterState, ClusterStats, EdgeId};
use crate::compute::ComputeConfig;
use crate::content::ContentUniverse;
use crate::descriptor::FeatureDescriptor;
use crate::engine::{
    AdmissionConfig, BreakerState, BrownoutConfig, BrownoutState, ClientEngine, Clock, Decision,
    Effect, EngineConfig, FaultSchedule, FlightClaim, OverloadControl, ReplyKind, RetryPolicy,
    RobustnessStats, SimClock, SingleFlight, TimerKind, UpstreamGate, Verdict,
};
use crate::protocol::Msg;
use crate::qoe::{QoeReport, Record};
use crate::services::{
    recognition_correct, ClientConfig, ClientLogic, CloudService, EdgeConfig, EdgeReply,
    EdgeService, PreparedRequest,
};
use crate::task::{TaskRequest, TaskResult, ANNOTATION_BYTES};
use crate::telemetry::{path_label, record_decision};
use coic_netsim::{Ctx, LinkParams, Node, NodeId, SimDuration, Simulator, Topology};
use coic_obs::{Recorder, Telemetry, Value};
use coic_vision::{ObjectClass, SceneGenerator};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Which system handles the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's baseline: offload every complete task to the cloud.
    Origin,
    /// The CoIC framework.
    CoIc,
}

/// Where recognition inference executes on the miss path (model loads and
/// panorama synthesis stay in the cloud, which holds the content).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The cloud server runs the DNN (the paper's setup).
    Cloud,
    /// The edge box runs the DNN (classic edge computing; slower silicon,
    /// but the camera frame never crosses the WAN).
    Edge,
}

/// Full configuration of one simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// Origin baseline or CoIC.
    pub mode: Mode,
    /// Where recognition inference runs on misses.
    pub exec_tier: ExecTier,
    /// Client↔edge bandwidth (the paper's `B_M->E`), Mbit/s.
    pub access_mbps: f64,
    /// Client↔edge one-way delay, ms.
    pub access_delay_ms: u64,
    /// Edge↔cloud bandwidth (the paper's `B_E->C`), Mbit/s.
    pub wan_mbps: f64,
    /// Edge↔cloud one-way delay, ms.
    pub wan_delay_ms: u64,
    /// Number of client devices.
    pub num_clients: u32,
    /// Number of edge servers. Clients attach to `zone % num_edges`; with
    /// more than one edge, enable `peer_lookup` to let edges answer each
    /// other's misses over the LAN before going to the cloud.
    pub num_edges: u32,
    /// Inter-edge LAN bandwidth, Mbit/s.
    pub lan_mbps: f64,
    /// Inter-edge LAN one-way delay, ms.
    pub lan_delay_ms: u64,
    /// Query peer edges on an exact-task miss before forwarding to cloud.
    pub peer_lookup: bool,
    /// Cooperative cluster tier: consistent-hash partitioning with bounded
    /// peer fan-out, hot-entry replication and peer-before-cloud failover.
    /// Supersedes the broadcast `peer_lookup` when set (the legacy
    /// broadcast asks *every* peer; the cluster probes at most
    /// `peer_fanout` along the ring).
    pub cluster: Option<ClusterConfig>,
    /// Deterministic edge-kill schedule: at each `(at_ms, edge_idx)` the
    /// named edge goes silent for the rest of the run — it drops every
    /// message and timer, exactly what a crashed process looks like to its
    /// peers. Empty = no failures.
    pub edge_down_ms: Vec<(u64, u32)>,
    /// Independent per-message loss probability on the access links
    /// (wireless loss; retried via the request timeout).
    pub access_loss: f64,
    /// Independent per-message loss probability on the WAN link.
    pub wan_loss: f64,
    /// Client request timeout; a request unanswered for this long is
    /// retransmitted from scratch. Zero disables timeouts (only safe on
    /// loss-free links).
    pub request_timeout_ms: u64,
    /// Retransmissions before a request is declared failed. Only consulted
    /// when [`SimConfig::retry`] is `None`.
    pub max_retries: u32,
    /// Client retry/backoff policy fed to the shared engine. `None`
    /// reproduces the classic simulator behavior: `max_retries` + 1
    /// immediate (zero-backoff) transmissions per request.
    pub retry: Option<RetryPolicy>,
    /// When the edge path is exhausted, degrade to the origin path (direct
    /// cloud request) instead of failing the request — the live client's
    /// behavior when constructed with a cloud address.
    pub origin_fallback: bool,
    /// While degraded, minimum spacing between edge re-probes, ms.
    pub probe_interval_ms: u64,
    /// Deterministic fault injection at the client's send boundary: a
    /// scheduled attempt is silently not transmitted, so its deadline
    /// fires — the same decisions the live driver derives from its
    /// schedule.
    pub faults: FaultSchedule,
    /// Edge admission control: a bounded request queue with oldest-first
    /// shedding plus an AIMD concurrency limiter at every edge. `None`
    /// (the default) disables admission entirely — each query is served
    /// the instant it arrives, exactly the classic behavior.
    pub admission: Option<AdmissionConfig>,
    /// Brownout ladder watching the admission queue's pressure (only
    /// meaningful together with [`SimConfig::admission`]). `None` keeps
    /// the edge at full service regardless of queue depth.
    pub brownout: Option<BrownoutConfig>,
    /// Optional token-bucket shaping of each client's uplink, as
    /// `(rate_mbps, burst_bytes)` — mirrors running `tc tbf` on the phone.
    /// The shaper delays when a message *starts* transmitting; the link
    /// then charges serialization as usual.
    pub client_shaper: Option<(f64, u64)>,
    /// Time-varying access bandwidth: at each `(at_ms, mbps)` step, every
    /// client↔edge link is re-shaped to `mbps` (both directions). Models
    /// wireless fading / user mobility. Empty = constant bandwidth.
    pub access_schedule: Vec<(u64, f64)>,
    /// Edge prefetch depth for sequential panorama streams: serving frame
    /// `f` proactively fetches frames `f+1..=f+depth` from the cloud.
    /// Zero disables prefetching.
    pub prefetch_depth: u32,
    /// Edge cache configuration.
    pub edge: EdgeConfig,
    /// Client preprocessing configuration.
    pub client: ClientConfig,
    /// Compute cost model.
    pub compute: ComputeConfig,
    /// Wire size charged for a camera-frame upload. The synthetic frames
    /// are small; a real phone ships a multi-hundred-kB JPEG, and that is
    /// what the network should feel.
    pub image_wire_bytes: u64,
    /// Wire size charged for a recognition descriptor query.
    pub descriptor_wire_bytes: u64,
    /// Panorama frame height (width = 2×height, 1 B/pixel).
    pub pano_height: u32,
    /// Droptail queue depth per link direction, bytes. Experiments default
    /// deep (results as large as 64 MB models queue behind each other
    /// rather than drop); droptail studies can lower it.
    pub queue_limit_bytes: u64,
    /// Closed-loop clients (the paper's sequential request/response client):
    /// each client keeps at most one request outstanding, issuing the next
    /// at its trace time or on completion of the previous one, whichever is
    /// later. Open-loop (false) issues strictly by trace timestamps.
    pub closed_loop: bool,
    /// RNG seed.
    pub seed: u64,
    /// The models and panoramas runs under this config serve — not a
    /// setting: nothing reads a value from it, and generation is a pure
    /// function of the ids, so which universe a run uses never shows in its
    /// report. `Default` / the builder make a fresh one; clones (and
    /// struct-updates of a clone) share it, so a sweep generates each model
    /// once, and the content is freed with the last clone.
    pub content: ContentUniverse,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: Mode::CoIc,
            exec_tier: ExecTier::Cloud,
            access_mbps: 400.0, // the paper's 802.11ac at up to 400 Mbps
            access_delay_ms: 2,
            wan_mbps: 50.0,
            wan_delay_ms: 20,
            num_clients: 1,
            num_edges: 1,
            lan_mbps: 1000.0,
            lan_delay_ms: 5,
            peer_lookup: false,
            cluster: None,
            edge_down_ms: Vec::new(),
            access_loss: 0.0,
            wan_loss: 0.0,
            request_timeout_ms: 10_000,
            max_retries: 3,
            retry: None,
            origin_fallback: false,
            probe_interval_ms: 100,
            faults: FaultSchedule::new(),
            admission: None,
            brownout: None,
            client_shaper: None,
            access_schedule: Vec::new(),
            prefetch_depth: 0,
            edge: EdgeConfig::default(),
            client: ClientConfig::default(),
            compute: ComputeConfig::default(),
            image_wire_bytes: 300_000,
            descriptor_wire_bytes: 4_096,
            pano_height: 256,
            queue_limit_bytes: 1 << 30, // 1 GiB
            closed_loop: true,
            seed: 1,
            content: ContentUniverse::default(),
        }
    }
}

impl SimConfig {
    /// Start a typed builder (the supported construction path; see
    /// [`crate::config`], including [`crate::config::CommonConfig`] for
    /// the knobs shared with the live stack).
    pub fn builder() -> crate::config::SimConfigBuilder {
        crate::config::SimConfigBuilder::default()
    }
}

/// Bytes a message occupies on a link. Structural messages use their real
/// encoded length; camera frames and descriptors are charged at the
/// configured realistic sizes (see [`SimConfig::image_wire_bytes`]).
fn wire_len(msg: &Msg, cfg: &SimConfig) -> u64 {
    match msg {
        Msg::Query {
            descriptor: FeatureDescriptor::Dnn(_),
            ..
        } => cfg.descriptor_wire_bytes,
        Msg::Upload {
            task: TaskRequest::Recognition { .. },
            ..
        }
        | Msg::Forward {
            task: TaskRequest::Recognition { .. },
            ..
        }
        | Msg::BaselineRequest {
            task: TaskRequest::Recognition { .. },
            ..
        } => cfg.image_wire_bytes,
        Msg::Hit {
            result: TaskResult::Recognition(_),
            ..
        }
        | Msg::Result {
            result: TaskResult::Recognition(_),
            ..
        }
        | Msg::CloudReply {
            result: TaskResult::Recognition(_),
            ..
        }
        | Msg::BaselineReply {
            result: TaskResult::Recognition(_),
            ..
        } => ANNOTATION_BYTES,
        other => other.encoded_len(),
    }
}

/// Exact-cache shards per simulated edge. The cache splits its byte
/// budget evenly across shards, so the count changes what gets evicted;
/// one shard is the bare cache the paper describes, which every figure
/// and canonical report assumes. (The live edge shards for lock
/// granularity — `NetConfig::cache_shards`.)
const SIM_CACHE_SHARDS: usize = 1;

const TOKEN_ISSUE: u64 = 1 << 62;
const TOKEN_PREP: u64 = 1 << 61;
const TOKEN_TIMEOUT: u64 = 1 << 60;
const TOKEN_SHAPED: u64 = 1 << 59;
const TOKEN_BACKOFF: u64 = 1 << 58;
const TOKEN_MASK: u64 = (1 << 32) - 1;
/// Engine timer epochs ride in token bits 32..48 (flags sit at 58+).
const EPOCH_MASK: u64 = 0xFFFF;

/// The engine configuration a [`SimConfig`] implies for its clients.
fn engine_config(cfg: &SimConfig) -> EngineConfig {
    EngineConfig {
        // `None` reproduces the classic simulator retransmit loop:
        // max_retries extra transmissions, no backoff (the resend leaves at
        // the instant the virtual deadline fires).
        retry: cfg
            .retry
            .clone()
            .unwrap_or_else(|| RetryPolicy::immediate(cfg.max_retries + 1, cfg.seed)),
        deadline_ns: cfg.request_timeout_ms * 1_000_000,
        probe_interval_ns: cfg.probe_interval_ms * 1_000_000,
        use_edge: cfg.mode == Mode::CoIc,
        origin_fallback: cfg.origin_fallback,
    }
}

/// The simulated client: a thin driver around the shared [`ClientEngine`].
/// All lifecycle decisions (retry, deadline, degrade, probe) come from the
/// engine; this node only realizes effects on the virtual network — the
/// exact counterpart of the live [`crate::netrun::NetClient`].
struct ClientNode {
    cfg: SimConfig,
    engine: ClientEngine<SimClock>,
    clock: SimClock,
    shaper: Option<coic_netsim::Shaper>,
    /// Messages held back by the shaper, released by TOKEN_SHAPED timers.
    shaped: Vec<Option<(bool, u64, Msg)>>,
    logic: Arc<ClientLogic>,
    requests: Vec<coic_workload::Request>,
    prepared: Vec<Option<PreparedRequest>>,
    edge: NodeId,
    cloud: NodeId,
    records: Rc<RefCell<Vec<Record>>>,
    failures: Rc<RefCell<u64>>,
    trace_out: Rc<RefCell<Vec<Decision>>>,
    tel: Telemetry,
    client_idx: u64,
}

impl ClientNode {
    fn req_id(&self, ctx: &Ctx<'_, Msg>, idx: usize) -> u64 {
        ((ctx.node_id().0 as u64) << 32) | idx as u64
    }

    /// Send an uplink message through the optional token-bucket shaper: it
    /// leaves now if the bucket has tokens, else when the bucket refills.
    fn shaped_send(&mut self, ctx: &mut Ctx<'_, Msg>, routed: bool, bytes: u64, msg: Msg) {
        let release = match &mut self.shaper {
            Some(sh) => sh.release_at(ctx.now(), bytes),
            None => ctx.now(),
        };
        if release <= ctx.now() {
            if routed {
                ctx.send_routed(self.cloud, bytes, msg);
            } else {
                ctx.send(self.edge, bytes, msg);
            }
        } else {
            let token = TOKEN_SHAPED | self.shaped.len() as u64;
            self.shaped.push(Some((routed, bytes, msg)));
            ctx.set_timer(release - ctx.now(), token);
        }
    }

    fn advance_closed_loop(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        if self.cfg.closed_loop {
            let next = idx + 1;
            if next < self.requests.len() {
                let due = self.requests[next].at_ns;
                let now = ctx.now().as_nanos();
                let wait = due.saturating_sub(now);
                ctx.set_timer(SimDuration::from_nanos(wait), TOKEN_ISSUE | next as u64);
            }
        }
    }

    fn send_query(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        let idx = (req_id & TOKEN_MASK) as usize;
        let prepared = self.prepared[idx].as_ref().expect("send before prepare");
        // Recognition keeps the heavy frame back; compact tasks ride along
        // as the hint.
        let hint = match &prepared.task {
            TaskRequest::Recognition { .. } => None,
            t => Some(t.clone()),
        };
        let msg = Msg::Query {
            req_id,
            descriptor: prepared.descriptor.clone(),
            hint,
        };
        let bytes = wire_len(&msg, &self.cfg);
        self.shaped_send(ctx, false, bytes, msg);
    }

    fn send_origin(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        let idx = (req_id & TOKEN_MASK) as usize;
        let prepared = self.prepared[idx].as_ref().expect("send before prepare");
        let msg = Msg::BaselineRequest {
            req_id,
            task: prepared.task.clone(),
        };
        let bytes = wire_len(&msg, &self.cfg);
        // Edge-execution baseline sends the frame only as far as the edge
        // box; otherwise offload rides through to the cloud as in the
        // paper.
        let routed = !(self.cfg.exec_tier == ExecTier::Edge
            && matches!(prepared.task, TaskRequest::Recognition { .. }));
        self.shaped_send(ctx, routed, bytes, msg);
    }

    fn send_upload(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        let idx = (req_id & TOKEN_MASK) as usize;
        let task = self.prepared[idx]
            .as_ref()
            .expect("NeedPayload before prepare")
            .task
            .clone();
        let msg = Msg::Upload { req_id, task };
        let bytes = wire_len(&msg, &self.cfg);
        self.shaped_send(ctx, false, bytes, msg);
    }

    /// Realize engine effects on the virtual network. Feedback events
    /// (probe results) loop through the engine inside the same pass.
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, effects: Vec<Effect>) {
        let mut queue: VecDeque<Effect> = effects.into();
        while let Some(eff) = queue.pop_front() {
            match eff {
                Effect::ArmTimer {
                    req_id,
                    kind,
                    epoch,
                    delay_ns,
                } => {
                    let idx = req_id & TOKEN_MASK;
                    let flag = match kind {
                        TimerKind::Prep => TOKEN_PREP,
                        TimerKind::Deadline => TOKEN_TIMEOUT,
                        TimerKind::Backoff => TOKEN_BACKOFF,
                    };
                    let token = flag | ((epoch as u64 & EPOCH_MASK) << 32) | idx;
                    ctx.set_timer(SimDuration::from_nanos(delay_ns), token);
                }
                Effect::SendQuery {
                    req_id,
                    seq,
                    attempt,
                } => {
                    // An injected fault suppresses the transmission; the
                    // engine's deadline timer turns it into AttemptFailed.
                    if !self.cfg.faults.edge_dropped(seq, attempt) {
                        self.send_query(ctx, req_id);
                    }
                }
                Effect::SendOrigin {
                    req_id,
                    seq,
                    attempt,
                } => {
                    if !self.cfg.faults.origin_dropped(seq, attempt) {
                        self.send_origin(ctx, req_id);
                    }
                }
                Effect::SendUpload { req_id } => self.send_upload(ctx, req_id),
                Effect::ProbeEdge { req_id } => {
                    // The simulated access link is always attached (loss is
                    // per-message), so an edge probe succeeds — mirroring
                    // the live driver's reconnect of a reachable edge.
                    queue.extend(self.engine.on_probe_result(req_id, true));
                }
                Effect::Complete { record, .. } => {
                    self.tel
                        .observe("qoe.latency_ns", record.completed_ns - record.issued_ns);
                    self.tel.span_exit_with(record.completed_ns, "request", || {
                        vec![
                            ("client", Value::from(self.client_idx)),
                            ("seq", Value::from(record.req_id & TOKEN_MASK)),
                            ("path", Value::from(path_label(record.path))),
                        ]
                    });
                    self.records.borrow_mut().push(record);
                    self.advance_closed_loop(ctx, (record.req_id & TOKEN_MASK) as usize);
                }
                Effect::GiveUp { req_id } => {
                    self.tel.span_exit_with(self.clock.now_ns(), "request", || {
                        vec![
                            ("client", Value::from(self.client_idx)),
                            ("seq", Value::from(req_id & TOKEN_MASK)),
                            ("path", Value::from("failed")),
                        ]
                    });
                    *self.failures.borrow_mut() += 1;
                    self.advance_closed_loop(ctx, (req_id & TOKEN_MASK) as usize);
                }
            }
        }
        let decisions = self.engine.drain_decisions();
        let now = self.clock.now_ns();
        for d in &decisions {
            record_decision(&self.tel, now, self.client_idx, d);
        }
        self.trace_out.borrow_mut().extend(decisions);
    }
}

impl Node<Msg> for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.cfg.closed_loop {
            if !self.requests.is_empty() {
                ctx.set_timer(SimDuration::from_nanos(self.requests[0].at_ns), TOKEN_ISSUE);
            }
        } else {
            for i in 0..self.requests.len() {
                let at = self.requests[i].at_ns;
                ctx.set_timer(SimDuration::from_nanos(at), TOKEN_ISSUE | i as u64);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        self.clock.set(ctx.now());
        let idx = (token & TOKEN_MASK) as usize;
        if token & TOKEN_ISSUE != 0 {
            // Capture + preprocess, then transmit when done.
            let prepared = self.logic.prepare(&self.requests[idx]);
            let req_id = self.req_id(ctx, idx);
            let issued_ns = ctx.now().as_nanos();
            let prep_ns = prepared.prep_ns;
            let kind = prepared.task.kind();
            self.prepared[idx] = Some(prepared);
            self.tel.span_enter_with(issued_ns, "request", || {
                vec![
                    ("client", Value::from(self.client_idx)),
                    ("seq", Value::from(idx as u64)),
                    ("kind", Value::from(kind)),
                ]
            });
            let effects = self.engine.begin(req_id, kind, issued_ns, prep_ns);
            self.apply(ctx, effects);
        } else if token & TOKEN_SHAPED != 0 {
            if let Some((routed, bytes, msg)) = self.shaped[idx].take() {
                if routed {
                    ctx.send_routed(self.cloud, bytes, msg);
                } else {
                    ctx.send(self.edge, bytes, msg);
                }
            }
        } else {
            let kind = if token & TOKEN_PREP != 0 {
                TimerKind::Prep
            } else if token & TOKEN_TIMEOUT != 0 {
                TimerKind::Deadline
            } else if token & TOKEN_BACKOFF != 0 {
                TimerKind::Backoff
            } else {
                panic!("unknown client timer token {token:#x}");
            };
            let epoch = ((token >> 32) & EPOCH_MASK) as u32;
            let req_id = self.req_id(ctx, idx);
            let effects = self.engine.on_timer(req_id, kind, epoch);
            self.apply(ctx, effects);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        self.clock.set(ctx.now());
        let (req_id, kind, result) = match msg {
            Msg::Hit { req_id, result } => (req_id, ReplyKind::Hit, Some(result)),
            Msg::Result { req_id, result } => (req_id, ReplyKind::Result, Some(result)),
            Msg::PeerResult { req_id, result } => (req_id, ReplyKind::PeerResult, Some(result)),
            Msg::BaselineReply { req_id, result } => (req_id, ReplyKind::Baseline, Some(result)),
            Msg::NeedPayload { req_id } => (req_id, ReplyKind::NeedPayload, None),
            Msg::Unavailable { req_id } => (req_id, ReplyKind::Unavailable, None),
            Msg::Overloaded {
                req_id,
                retry_after_ms,
            } => (req_id, ReplyKind::Overloaded { retry_after_ms }, None),
            other => panic!("client received unexpected {other:?}"),
        };
        // The simulator owns the ground truth, so it judges correctness at
        // the reply boundary and hands the verdict to the engine.
        let correct = result.as_ref().and_then(|r| {
            let idx = (req_id & TOKEN_MASK) as usize;
            let prepared = self.prepared[idx].as_ref().expect("reply before prepare");
            recognition_correct(r, prepared.truth)
        });
        let effects = self.engine.on_reply(req_id, kind, correct);
        self.apply(ctx, effects);
    }
}

struct EdgeNode {
    cfg: SimConfig,
    /// Shared handle so the driver can publish cache metrics after the
    /// run (the simulator owns the boxed node until it is dropped).
    service: Rc<EdgeService>,
    /// Executes recognition locally when `exec_tier == Edge`.
    executor: Arc<CloudService>,
    cloud: NodeId,
    /// Replies being delayed by the cache-lookup cost: token → (dest, msg).
    pending_replies: HashMap<u64, (NodeId, Msg)>,
    /// In-flight cloud executions: req_id → (client, descriptor).
    pending_cloud: HashMap<u64, (NodeId, FeatureDescriptor)>,
    /// Miss coalescing for exact (hash-keyed) tasks, via the engine's
    /// single-flight table: the first miss leads the fetch (peer or cloud);
    /// later misses on the same digest queue as waiters and share its
    /// answer, so a burst of co-watching viewers costs one WAN fetch, not
    /// N. The live edge uses the same table with condvar waiters.
    flights: SingleFlight<coic_cache::Digest, (NodeId, u64)>,
    /// Circuit breaker guarding the upstream (edge→cloud) leg, shared with
    /// the live edge. The simulated WAN reports every reply as a success,
    /// so the breaker stays closed here; it exists so both drivers route
    /// client-blocking upstream sends through the identical preflight /
    /// report funnel.
    gate: UpstreamGate,
    /// Robustness counters the gate mirrors its transitions into.
    stats: RobustnessStats,
    /// Overload control (admission + brownout), present when the run was
    /// configured with [`SimConfig::admission`]. `None` preserves the
    /// classic serve-on-arrival behavior bit for bit.
    overload: Option<OverloadControl>,
    /// Queries admitted to the bounded queue, waiting for a service slot:
    /// req_id → held query.
    queued_work: HashMap<u64, QueuedQuery>,
    /// Service-completion timers for admitted queries: token → the time
    /// the query was first offered (its sojourn feeds the AIMD limiter).
    in_service: HashMap<u64, u64>,
    /// Cooperating peer edges (empty in single-edge runs).
    peers: Vec<NodeId>,
    /// Outstanding peer queries: req_id → wait state.
    pending_peer: HashMap<u64, PeerWait>,
    /// Cooperative cluster policy (ring + breakers + hot trackers), when
    /// the run was configured with [`SimConfig::cluster`].
    cluster: Option<ClusterState>,
    /// Cluster [`EdgeId`] → simulator node, indexed by edge id (includes
    /// this edge itself at `edge_idx`).
    edge_nodes: Vec<NodeId>,
    /// Outstanding cluster probe rounds: req_id → wait state.
    pending_cluster: HashMap<u64, ClusterWait>,
    /// Armed probe deadlines: timer token → (req_id, probed peer).
    probe_timeouts: HashMap<u64, (u64, EdgeId)>,
    /// When set, the edge is dead from this virtual instant on: every
    /// message and timer is silently dropped (a crashed process).
    down_at_ns: Option<u64>,
    /// Whether the one-shot `edge.down` trace marker has been emitted.
    /// The trace verifier's `quiet-after` invariant keys off it: after
    /// the marker, no further events may carry this edge's id.
    down_noted: bool,
    /// Panorama prefetcher: learned frame→digest mapping, in-flight
    /// prefetches by synthetic req_id, and frame ids being prefetched.
    known_frames: HashMap<u64, coic_cache::Digest>,
    prefetch_inflight: HashMap<u64, u64>,
    prefetching: std::collections::HashSet<u64>,
    next_prefetch: u64,
    next_token: u64,
    tel: Telemetry,
    edge_idx: u64,
}

/// Synthetic request-id namespace for edge-initiated prefetches (client
/// req_ids keep bit 63 clear because node indexes fit in 32 bits).
const PREFETCH_REQ: u64 = 1 << 63;

struct PeerWait {
    client: NodeId,
    descriptor: FeatureDescriptor,
    task: TaskRequest,
    outstanding: usize,
    satisfied: bool,
}

/// One cluster probe round: the bounded fan-out a miss sent along the
/// ring, waiting for replies (or per-probe deadlines) before the cloud.
struct ClusterWait {
    client: NodeId,
    descriptor: FeatureDescriptor,
    task: TaskRequest,
    /// Peers still owing a reply; a reply (or timeout) removes its peer,
    /// and the empty set resolves the round.
    outstanding: Vec<EdgeId>,
    satisfied: bool,
    started_ns: u64,
}

/// A query waiting in the admission queue for a service slot.
struct QueuedQuery {
    client: NodeId,
    descriptor: FeatureDescriptor,
    hint: Option<TaskRequest>,
    offered_at: u64,
}

impl EdgeNode {
    /// Proactively fetch the frames that follow `frame_id` in the stream.
    fn maybe_prefetch(&mut self, ctx: &mut Ctx<'_, Msg>, frame_id: u64) {
        for d in 1..=self.cfg.prefetch_depth as u64 {
            let f = frame_id + d;
            if self.prefetching.contains(&f) {
                continue;
            }
            if let Some(digest) = self.known_frames.get(&f) {
                if self.service.exact_contains(digest, ctx.now().as_nanos()) {
                    continue; // already cached
                }
            }
            let req_id = PREFETCH_REQ | self.next_prefetch;
            self.next_prefetch += 1;
            self.prefetch_inflight.insert(req_id, f);
            self.prefetching.insert(f);
            let msg = Msg::Forward {
                req_id,
                task: TaskRequest::Panorama { frame_id: f },
            };
            let bytes = wire_len(&msg, &self.cfg);
            ctx.send(self.cloud, bytes, msg);
        }
    }

    fn delay_send(&mut self, ctx: &mut Ctx<'_, Msg>, after_ns: u64, dest: NodeId, msg: Msg) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending_replies.insert(token, (dest, msg));
        ctx.set_timer(SimDuration::from_nanos(after_ns), token);
    }

    /// Refuse a request whose upstream leg the breaker gate rejected:
    /// answer the leader and every coalesced waiter with `Unavailable` so
    /// their engines can degrade to the origin path.
    fn refuse(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        descriptor: &FeatureDescriptor,
        client: NodeId,
        req_id: u64,
    ) {
        self.stats.count_unavailable();
        self.tel
            .event_with(ctx.now().as_nanos(), "edge.unavailable", || {
                vec![
                    ("edge", Value::from(self.edge_idx)),
                    ("req", Value::from(req_id)),
                ]
            });
        let mut victims = vec![(client, req_id)];
        if let Some(digest) = crate::services::descriptor_digest(descriptor) {
            victims.extend(self.flights.complete(&digest));
        }
        for (dest, waiter_req) in victims {
            let msg = Msg::Unavailable { req_id: waiter_req };
            let bytes = wire_len(&msg, &self.cfg);
            ctx.send(dest, bytes, msg);
        }
    }

    /// The edge's local processing time for one query: the cache-lookup
    /// cost plus any injected slow-service fault (zero when unscheduled,
    /// so fault-free runs are byte-identical to the pre-fault simulator).
    fn service_ns(&self, req_id: u64) -> u64 {
        self.cfg.compute.lookup_ns + self.cfg.faults.edge_slow_ns(req_id & TOKEN_MASK)
    }

    /// Is the edge dead (per the kill schedule) at virtual time `now`?
    fn is_down(&self, now: u64) -> bool {
        self.down_at_ns.is_some_and(|t| now >= t)
    }

    /// One `decision.peer_*` trace event, tagged with this edge, the
    /// request, and the peer involved.
    fn cluster_event(&mut self, now: u64, name: &'static str, req_id: u64, peer: EdgeId) {
        self.tel.event_with(now, name, || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("req", Value::from(req_id)),
                ("peer", Value::from(peer as u64)),
            ]
        });
    }

    /// Emit `cluster.peer_state` when a probe outcome moved a peer's
    /// breaker (trip, rejoin, half-open re-trip). The trace verifier
    /// checks these transitions against the breaker's legal state
    /// machine and ties the ring-rebuild counter to them.
    fn peer_state_event(
        &mut self,
        now: u64,
        req_id: u64,
        peer: EdgeId,
        transition: Option<(BreakerState, BreakerState)>,
    ) {
        let Some((from, to)) = transition else {
            return;
        };
        self.tel.event_with(now, "cluster.peer_state", || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("req", Value::from(req_id)),
                ("peer", Value::from(peer as u64)),
                ("from", Value::from(from.as_str())),
                ("to", Value::from(to.as_str())),
            ]
        });
    }

    /// One-shot `edge.down` marker, emitted the first time the dead edge
    /// swallows a message or timer. Everything after it must stay silent
    /// for this edge id (`quiet-after` trace invariant).
    fn note_down(&mut self, now: u64) {
        if !self.down_noted {
            self.down_noted = true;
            self.tel.event_with(now, "edge.down", || {
                vec![("edge", Value::from(self.edge_idx))]
            });
        }
    }

    /// A cluster probe round exhausted its fan-out without a hit: forward
    /// to the cloud through the breaker gate, exactly like a direct miss.
    fn cluster_cloud_fallback(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64, wait: ClusterWait) {
        let now = ctx.now().as_nanos();
        if !self.gate.preflight(now) {
            self.refuse(ctx, &wait.descriptor, wait.client, req_id);
            return;
        }
        self.pending_cloud
            .insert(req_id, (wait.client, wait.descriptor));
        self.tel.event_with(now, "cloud.forward", || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("req", Value::from(req_id)),
            ]
        });
        let msg = Msg::Forward {
            req_id,
            task: wait.task,
        };
        let bytes = wire_len(&msg, &self.cfg);
        ctx.send(self.cloud, bytes, msg);
    }

    /// A probe deadline fired. If the peer still owes its reply, count the
    /// timeout against its breaker and, when the round is drained, resolve
    /// it (cloud fallback unless a hit already satisfied it). A deadline
    /// whose reply arrived first finds the peer gone and does nothing.
    fn probe_timed_out(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64, peer: EdgeId) {
        let now = ctx.now().as_nanos();
        let Some(wait) = self.pending_cluster.get_mut(&req_id) else {
            return; // round already resolved
        };
        let Some(pos) = wait.outstanding.iter().position(|&p| p == peer) else {
            return; // this probe already answered
        };
        wait.outstanding.remove(pos);
        let drained = wait.outstanding.is_empty();
        let cl = self.cluster.as_mut().expect("cluster wait without cluster");
        let transition = cl.record_probe(peer, false, now);
        cl.stats().count_peer_timeout();
        self.cluster_event(now, "decision.peer_timeout", req_id, peer);
        self.peer_state_event(now, req_id, peer, transition);
        if drained {
            let wait = self
                .pending_cluster
                .remove(&req_id)
                .expect("wait checked above");
            if !wait.satisfied {
                self.cluster_cloud_fallback(ctx, req_id, wait);
            }
        }
    }

    /// A peer answered a cluster probe: feed its breaker, serve the client
    /// on the first hit (keeping a local replica only when this edge owns
    /// the digest or its own demand made it hot), and fall back to the
    /// cloud when the whole round drained empty.
    fn cluster_peer_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req_id: u64,
        result: Option<TaskResult>,
    ) {
        let now = ctx.now().as_nanos();
        let peer = self
            .edge_nodes
            .iter()
            .position(|&n| n == from)
            .expect("peer reply from outside the cluster") as EdgeId;
        let Some(wait) = self.pending_cluster.get_mut(&req_id) else {
            return; // round already resolved
        };
        let Some(pos) = wait.outstanding.iter().position(|&p| p == peer) else {
            return; // reply landed after its own deadline already fired
        };
        wait.outstanding.remove(pos);
        let drained = wait.outstanding.is_empty();
        let fresh_hit = result.is_some() && !wait.satisfied;
        if fresh_hit {
            wait.satisfied = true;
        }
        let client = wait.client;
        let descriptor = wait.descriptor.clone();
        let was_satisfied = wait.satisfied;
        let started_ns = wait.started_ns;
        if drained {
            let wait = self
                .pending_cluster
                .remove(&req_id)
                .expect("wait checked above");
            if !was_satisfied {
                // Every probe missed (reply in hand means the peer is
                // healthy — record before falling back).
                let cl = self.cluster.as_mut().expect("cluster wait");
                let transition = cl.record_probe(peer, true, now);
                cl.stats().count_peer_miss();
                self.cluster_event(now, "decision.peer_miss", req_id, peer);
                self.peer_state_event(now, req_id, peer, transition);
                self.cluster_cloud_fallback(ctx, req_id, wait);
                return;
            }
        }
        let transition = self
            .cluster
            .as_mut()
            .expect("cluster wait")
            .record_probe(peer, true, now);
        self.peer_state_event(now, req_id, peer, transition);
        let cl = self.cluster.as_mut().expect("cluster wait");
        let Some(result) = result else {
            if !was_satisfied {
                cl.stats().count_peer_miss();
                self.cluster_event(now, "decision.peer_miss", req_id, peer);
            }
            return;
        };
        if !fresh_hit {
            return; // late duplicate hit; client already answered
        }
        cl.stats().count_peer_hit();
        let digest =
            crate::services::descriptor_digest(&descriptor).expect("cluster wait implies digest");
        let keep = cl.is_owner(&digest) || cl.is_locally_hot(&digest);
        if keep && !cl.is_owner(&digest) {
            cl.stats().count_replica_keep();
        }
        self.cluster_event(now, "decision.peer_hit", req_id, peer);
        self.tel
            .registry()
            .observe("cluster.peer_latency_ns", now.saturating_sub(started_ns));
        if keep {
            self.service.insert(&descriptor, &result, now);
        }
        for (waiter, waiter_req) in self.flights.complete(&digest) {
            let msg = Msg::PeerResult {
                req_id: waiter_req,
                result: result.clone(),
            };
            let bytes = wire_len(&msg, &self.cfg);
            ctx.send(waiter, bytes, msg);
        }
        let msg = Msg::PeerResult { req_id, result };
        let bytes = wire_len(&msg, &self.cfg);
        ctx.send(client, bytes, msg);
    }

    /// Shed one request: reply `Msg::Overloaded` with the retry-after
    /// hint and record the event.
    fn send_overloaded(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dest: NodeId,
        req_id: u64,
        retry_after_ms: u32,
        reason: &'static str,
    ) {
        self.stats.count_shed();
        self.tel.event_with(ctx.now().as_nanos(), "edge.shed", || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("req", Value::from(req_id)),
                ("reason", Value::from(reason)),
                ("retry_after_ms", Value::from(retry_after_ms)),
            ]
        });
        let msg = Msg::Overloaded {
            req_id,
            retry_after_ms,
        };
        let bytes = wire_len(&msg, &self.cfg);
        ctx.send(dest, bytes, msg);
    }

    /// Shed a request the admission controller dropped from its queue.
    fn shed_queued(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req_id: u64,
        retry_after_ms: u32,
        reason: &'static str,
    ) {
        if let Some(q) = self.queued_work.remove(&req_id) {
            self.send_overloaded(ctx, q.client, req_id, retry_after_ms, reason);
        }
    }

    /// Record a brownout transition: one trace event per change plus the
    /// state gauge.
    fn note_brownout(&mut self, now: u64, state: BrownoutState) {
        self.tel.event_with(now, "edge.brownout_state", || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("state", Value::from(state.as_str())),
            ]
        });
        self.tel
            .registry()
            .gauge_set("edge.brownout_state", state.as_gauge() as i64);
    }

    /// Admission-controlled entry for a query: offer it to the overload
    /// controller and realize the verdict (serve now, hold in the queue,
    /// or shed), plus any queue sheds and brownout transition the offer
    /// triggered.
    fn offer_query(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req_id: u64,
        descriptor: FeatureDescriptor,
        hint: Option<TaskRequest>,
    ) {
        let now = ctx.now().as_nanos();
        let Some(ctl) = self.overload.as_mut() else {
            return;
        };
        // lint: allow(release-admission-slots, Serve routes through start_service whose finish_service releases the slot; Shed/queue paths call note_shed)
        let decision = ctl.offer(req_id, now);
        let retry_after = ctl.retry_after_ms();
        if let Some(state) = decision.transition {
            self.note_brownout(now, state);
        }
        for victim in decision.shed {
            self.shed_queued(ctx, victim, retry_after, "queue");
        }
        match decision.verdict {
            Verdict::Serve | Verdict::ServeCachedOnly => {
                self.start_service(ctx, from, req_id, descriptor, hint, now, false);
            }
            Verdict::Queued => {
                self.queued_work.insert(
                    req_id,
                    QueuedQuery {
                        client: from,
                        descriptor,
                        hint,
                        offered_at: now,
                    },
                );
            }
            Verdict::Shed { retry_after_ms } => {
                self.send_overloaded(ctx, from, req_id, retry_after_ms, "refused");
            }
        }
    }

    /// Begin service of an admitted query: arm the completion timer that
    /// will return the slot to the controller, then run the ordinary
    /// lookup/reply/forward path (cache-hits-only while Degraded).
    #[allow(clippy::too_many_arguments)]
    fn start_service(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        req_id: u64,
        descriptor: FeatureDescriptor,
        hint: Option<TaskRequest>,
        offered_at: u64,
        queued: bool,
    ) {
        let now = ctx.now().as_nanos();
        self.stats.count_admitted();
        self.tel.event_with(now, "edge.admitted", || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("req", Value::from(req_id)),
                ("queued", Value::from(queued)),
            ]
        });
        let cached_only = self
            .overload
            .as_ref()
            .is_some_and(|c| c.state() == BrownoutState::Degraded);
        let service_ns = self.service_ns(req_id);
        let token = self.next_token;
        self.next_token += 1;
        self.in_service.insert(token, offered_at);
        ctx.set_timer(SimDuration::from_nanos(service_ns), token);
        self.serve_query(
            ctx,
            client,
            req_id,
            descriptor,
            hint,
            service_ns,
            cached_only,
        );
    }

    /// A service slot came free: feed the observed sojourn to the AIMD
    /// limiter, shed aged-out waiters, and start the queued queries the
    /// new limit admits.
    fn finish_service(&mut self, ctx: &mut Ctx<'_, Msg>, offered_at: u64) {
        let now = ctx.now().as_nanos();
        let Some(ctl) = self.overload.as_mut() else {
            return;
        };
        let (drain, transition) = ctl.release(now.saturating_sub(offered_at), now);
        let retry_after = ctl.retry_after_ms();
        if let Some(state) = transition {
            self.note_brownout(now, state);
        }
        for victim in drain.shed {
            self.shed_queued(ctx, victim, retry_after, "aged_out");
        }
        for id in drain.start {
            let Some(q) = self.queued_work.remove(&id) else {
                continue;
            };
            self.start_service(ctx, q.client, id, q.descriptor, q.hint, q.offered_at, true);
        }
    }

    /// Serve one query: cache lookup, then reply / request payload /
    /// forward upstream. `service_ns` is the edge's local processing
    /// time charged before the reply (or forward) leaves. With
    /// `cached_only` (the Degraded brownout rung) misses are shed
    /// instead of spending recognition or upstream capacity.
    #[allow(clippy::too_many_arguments)]
    fn serve_query(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req_id: u64,
        descriptor: FeatureDescriptor,
        hint: Option<TaskRequest>,
        service_ns: u64,
        cached_only: bool,
    ) {
        let now = ctx.now().as_nanos();
        // The typed lookup drives both the reply and the trace: the
        // event records *why* the cache answered (exact vs approx
        // vs miss) — the field the ad-hoc stats never captured.
        let outcome = self.service.lookup(&descriptor, now);
        self.tel.event_with(now, "edge.lookup", || {
            vec![
                ("edge", Value::from(self.edge_idx)),
                ("req", Value::from(req_id)),
                ("kind", Value::from(outcome.kind_str())),
                ("hit", Value::from(outcome.is_hit())),
            ]
        });
        let reply = match outcome.into_value() {
            Some(result) => EdgeReply::Hit(result),
            None if cached_only => {
                // Degraded brownout: only cache hits are served; the
                // slot is still returned through the service timer.
                let retry_after_ms = match self.overload.as_mut() {
                    Some(ctl) => {
                        ctl.note_shed();
                        ctl.retry_after_ms()
                    }
                    None => 0,
                };
                self.send_overloaded(ctx, from, req_id, retry_after_ms, "degraded_miss");
                return;
            }
            None => match hint.as_ref() {
                Some(task) => EdgeReply::Forward(task.clone()),
                None => EdgeReply::NeedPayload,
            },
        };
        match reply {
            EdgeReply::Hit(result) => {
                self.delay_send(ctx, service_ns, from, Msg::Hit { req_id, result });
            }
            EdgeReply::NeedPayload => {
                self.pending_cloud.insert(req_id, (from, descriptor));
                self.delay_send(ctx, service_ns, from, Msg::NeedPayload { req_id });
            }
            EdgeReply::Forward(task) => {
                // Coalesce concurrent misses on the same content.
                if let Some(digest) = crate::services::descriptor_digest(&descriptor) {
                    // Waiters queue behind the leader's fetch; note
                    // the leader itself is answered via
                    // pending_cloud/pending_peer, not the table.
                    if let FlightClaim::Queued = self.flights.claim(digest, (from, req_id)) {
                        self.tel.event_with(now, "flight.queued", || {
                            vec![
                                ("edge", Value::from(self.edge_idx)),
                                ("req", Value::from(req_id)),
                            ]
                        });
                        return;
                    }
                    // Cooperative cluster tier: probe at most
                    // `peer_fanout` peers along the ring from the
                    // digest's owner, each under its own deadline,
                    // before any cloud forward.
                    if self.cluster.is_some() {
                        let (plan, timeout_ms, stats) = {
                            let cl = self.cluster.as_mut().expect("checked above");
                            cl.note_local_request(&digest);
                            (
                                cl.plan(&digest, now),
                                cl.config().peer_timeout_ms,
                                cl.stats().clone(),
                            )
                        };
                        if !plan.peers.is_empty() {
                            if plan.failover {
                                self.cluster_event(
                                    now,
                                    "decision.peer_failover",
                                    req_id,
                                    plan.peers[0],
                                );
                            }
                            self.pending_cluster.insert(
                                req_id,
                                ClusterWait {
                                    client: from,
                                    descriptor,
                                    task,
                                    outstanding: plan.peers.clone(),
                                    satisfied: false,
                                    started_ns: now,
                                },
                            );
                            // Each probe leaves after the service time and
                            // has until `peer_timeout_ms` after that to
                            // answer before its breaker hears a failure.
                            let deadline_ns = service_ns + timeout_ms * 1_000_000;
                            for &peer in &plan.peers {
                                // Probes are counted here, at send time,
                                // so the counter matches the probes (and
                                // trace events) actually emitted.
                                stats.count_probe();
                                self.cluster_event(now, "decision.peer_probe", req_id, peer);
                                let dest = self.edge_nodes[peer as usize];
                                self.delay_send(
                                    ctx,
                                    service_ns,
                                    dest,
                                    Msg::PeerQuery { req_id, digest },
                                );
                                let token = self.next_token;
                                self.next_token += 1;
                                self.probe_timeouts.insert(token, (req_id, peer));
                                ctx.set_timer(SimDuration::from_nanos(deadline_ns), token);
                            }
                            return;
                        }
                        // Empty plan (all peers dead or single edge):
                        // fall through to the gated cloud forward.
                    } else if self.cfg.peer_lookup && !self.peers.is_empty() {
                        self.pending_peer.insert(
                            req_id,
                            PeerWait {
                                client: from,
                                descriptor,
                                task,
                                outstanding: self.peers.len(),
                                satisfied: false,
                            },
                        );
                        for peer in self.peers.clone() {
                            self.delay_send(
                                ctx,
                                service_ns,
                                peer,
                                Msg::PeerQuery { req_id, digest },
                            );
                        }
                        return;
                    }
                }
                // The client-blocking upstream fetch goes through
                // the breaker gate, exactly like the live edge.
                if !self.gate.preflight(now) {
                    self.refuse(ctx, &descriptor, from, req_id);
                    return;
                }
                self.pending_cloud.insert(req_id, (from, descriptor));
                self.tel.event_with(now, "cloud.forward", || {
                    vec![
                        ("edge", Value::from(self.edge_idx)),
                        ("req", Value::from(req_id)),
                    ]
                });
                self.delay_send(ctx, service_ns, self.cloud, Msg::Forward { req_id, task });
            }
        }
    }
}

impl Node<Msg> for EdgeNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let now = ctx.now().as_nanos();
        if self.is_down(now) {
            self.note_down(now);
            return; // dead edges answer nothing
        }
        match msg {
            Msg::Query {
                req_id,
                descriptor,
                hint,
            } => {
                // Sequential-stream prefetching: learn the frame→digest
                // mapping from the query itself and fetch ahead.
                if self.cfg.prefetch_depth > 0 {
                    if let (
                        FeatureDescriptor::PanoramaHash(d),
                        Some(TaskRequest::Panorama { frame_id }),
                    ) = (&descriptor, hint.as_ref())
                    {
                        self.known_frames.insert(*frame_id, *d);
                        let frame_id = *frame_id;
                        self.maybe_prefetch(ctx, frame_id);
                    }
                }
                if self.overload.is_some() {
                    self.offer_query(ctx, from, req_id, descriptor, hint);
                } else {
                    // Classic serve-on-arrival path (no admission control).
                    let service_ns = self.service_ns(req_id);
                    self.serve_query(ctx, from, req_id, descriptor, hint, service_ns, false);
                }
            }
            Msg::Upload { req_id, task } => {
                if self.cfg.exec_tier == ExecTier::Edge
                    && matches!(task, TaskRequest::Recognition { .. })
                {
                    // Run the DNN here on the edge box: slower silicon than
                    // the cloud, but no WAN round trip.
                    let (result, _) = self.executor.execute(&task);
                    let cost_ns = self
                        .cfg
                        .compute
                        .edge
                        .time_ns(self.cfg.compute.full_dnn_macs);
                    let (client, descriptor) = self
                        .pending_cloud
                        .remove(&req_id)
                        .expect("upload for unknown request");
                    self.service.insert(&descriptor, &result, now);
                    self.delay_send(ctx, cost_ns, client, Msg::Result { req_id, result });
                    return;
                }
                // Relay the full payload to the cloud — client-blocking, so
                // it passes through the breaker gate like any upstream leg.
                if !self.gate.preflight(now) {
                    self.stats.count_unavailable();
                    if let Some((client, _)) = self.pending_cloud.remove(&req_id) {
                        let msg = Msg::Unavailable { req_id };
                        let bytes = wire_len(&msg, &self.cfg);
                        ctx.send(client, bytes, msg);
                    }
                    return;
                }
                self.tel.event_with(now, "cloud.forward", || {
                    vec![
                        ("edge", Value::from(self.edge_idx)),
                        ("req", Value::from(req_id)),
                    ]
                });
                let msg = Msg::Forward { req_id, task };
                let bytes = wire_len(&msg, &self.cfg);
                ctx.send(self.cloud, bytes, msg);
            }
            Msg::CloudReply { req_id, result } => {
                // Every cloud reply is an upstream success signal for the
                // breaker (the simulated WAN delivers or loses messages; it
                // never returns errors, so the gate only ever sees wins).
                self.gate.report(true, now);
                if let Some(frame_id) = self.prefetch_inflight.remove(&req_id) {
                    // A prefetch came back: content-address it and cache it.
                    if let TaskResult::Panorama(bytes) = &result {
                        let digest = coic_cache::Digest::of(bytes);
                        self.known_frames.insert(frame_id, digest);
                        self.service
                            .insert(&FeatureDescriptor::PanoramaHash(digest), &result, now);
                    }
                    self.prefetching.remove(&frame_id);
                    return;
                }
                // Retransmissions can produce duplicate cloud replies for a
                // req_id whose state was already consumed; drop them.
                let Some((client, descriptor)) = self.pending_cloud.remove(&req_id) else {
                    return;
                };
                // Partition placement: under the cluster tier a non-owner
                // does not cache the exact result it fetched — it pushes
                // the copy to the digest's owner instead, so the entry
                // lives where the ring says future probes will look. The
                // fetching edge still keeps a replica once its own demand
                // crossed the hot threshold.
                let mut keep = true;
                let mut push: Option<(EdgeId, coic_cache::Digest)> = None;
                if let (Some(cl), Some(d)) = (
                    self.cluster.as_mut(),
                    crate::services::descriptor_digest(&descriptor),
                ) {
                    if !cl.is_owner(&d) {
                        keep = cl.is_locally_hot(&d);
                        if keep {
                            cl.stats().count_replica_keep();
                        }
                        push = cl.placement_target(&d).map(|owner| {
                            cl.stats().count_replication_copy();
                            (owner, d)
                        });
                    }
                }
                if keep {
                    self.service.insert(&descriptor, &result, now);
                }
                if let Some((owner, digest)) = push {
                    self.cluster_event(now, "decision.peer_replicate", req_id, owner);
                    let token = self.cluster.as_ref().map_or(0, |cl| cl.config().auth_token);
                    let msg = Msg::Replicate {
                        req_id,
                        token,
                        digest,
                        result: result.clone(),
                    };
                    let bytes = wire_len(&msg, &self.cfg);
                    ctx.send(self.edge_nodes[owner as usize], bytes, msg);
                }
                // Answer every coalesced waiter with the same result.
                if let Some(digest) = crate::services::descriptor_digest(&descriptor) {
                    for (waiter, waiter_req) in self.flights.complete(&digest) {
                        let msg = Msg::Result {
                            req_id: waiter_req,
                            result: result.clone(),
                        };
                        let bytes = wire_len(&msg, &self.cfg);
                        ctx.send(waiter, bytes, msg);
                    }
                }
                let msg = Msg::Result { req_id, result };
                let bytes = wire_len(&msg, &self.cfg);
                ctx.send(client, bytes, msg);
            }
            Msg::BaselineRequest { req_id, task } => {
                // Origin baseline with edge execution: the edge box runs
                // the task (recognition only) with no cache.
                assert_eq!(
                    self.cfg.exec_tier,
                    ExecTier::Edge,
                    "edge received BaselineRequest in cloud-exec mode"
                );
                let (result, cloud_cost) = self.executor.execute(&task);
                let cost_ns = if matches!(task, TaskRequest::Recognition { .. }) {
                    self.cfg
                        .compute
                        .edge
                        .time_ns(self.cfg.compute.full_dnn_macs)
                } else {
                    cloud_cost
                };
                let client = NodeId((req_id >> 32) as usize);
                self.delay_send(ctx, cost_ns, client, Msg::BaselineReply { req_id, result });
            }
            Msg::PeerQuery { req_id, digest } => {
                let result = self.service.exact_lookup(&digest, now);
                // Hot-entry failover replication: enough peer demand on an
                // entry this edge keeps answering pushes a copy to the
                // digest's ring successor, so the content survives this
                // edge dying.
                if result.is_some() {
                    let push = self.cluster.as_mut().and_then(|cl| {
                        if !cl.note_owner_request(&digest) {
                            return None;
                        }
                        cl.successor_target(&digest).inspect(|_| {
                            cl.stats().count_replication_copy();
                        })
                    });
                    if let Some(succ) = push {
                        self.cluster_event(now, "decision.peer_replicate", req_id, succ);
                        let token = self.cluster.as_ref().map_or(0, |cl| cl.config().auth_token);
                        let msg = Msg::Replicate {
                            req_id,
                            token,
                            digest,
                            result: result.clone().expect("checked is_some"),
                        };
                        let bytes = wire_len(&msg, &self.cfg);
                        ctx.send(self.edge_nodes[succ as usize], bytes, msg);
                    }
                }
                let lookup_ns = self.cfg.compute.lookup_ns;
                self.delay_send(ctx, lookup_ns, from, Msg::PeerReply { req_id, result });
            }
            Msg::Replicate {
                token,
                digest,
                result,
                ..
            } => {
                // Membership gate: install the pushed copy only when the
                // sender presented this cluster's token — an edge outside
                // the cluster (or with no cluster at all) must not be
                // able to plant entries.
                let member = self
                    .cluster
                    .as_ref()
                    .is_some_and(|cl| cl.config().auth_token == token);
                if !member {
                    return;
                }
                // Install under the content hash; the exact store is
                // keyed by digest, so the descriptor kind does not
                // matter.
                self.service
                    .insert(&FeatureDescriptor::ModelHash(digest), &result, now);
            }
            Msg::PeerReply { req_id, result } => {
                if self.pending_cluster.contains_key(&req_id) {
                    self.cluster_peer_reply(ctx, from, req_id, result);
                    return;
                }
                let Some(wait) = self.pending_peer.get_mut(&req_id) else {
                    return; // late reply after satisfaction and cleanup
                };
                wait.outstanding -= 1;
                match result {
                    Some(result) if !wait.satisfied => {
                        wait.satisfied = true;
                        let client = wait.client;
                        let descriptor = wait.descriptor.clone();
                        let done = wait.outstanding == 0;
                        self.service.insert(&descriptor, &result, now);
                        if let Some(digest) = crate::services::descriptor_digest(&descriptor) {
                            for (waiter, waiter_req) in self.flights.complete(&digest) {
                                let msg = Msg::PeerResult {
                                    req_id: waiter_req,
                                    result: result.clone(),
                                };
                                let bytes = wire_len(&msg, &self.cfg);
                                ctx.send(waiter, bytes, msg);
                            }
                        }
                        let msg = Msg::PeerResult { req_id, result };
                        let bytes = wire_len(&msg, &self.cfg);
                        ctx.send(client, bytes, msg);
                        if done {
                            self.pending_peer.remove(&req_id);
                        }
                    }
                    _ => {
                        if wait.outstanding == 0 {
                            let wait = self.pending_peer.remove(&req_id).expect("wait exists");
                            if wait.satisfied {
                                return;
                            }
                            // Every peer missed: fall back to the cloud
                            // (client-blocking, so breaker-gated).
                            if !self.gate.preflight(now) {
                                self.refuse(ctx, &wait.descriptor, wait.client, req_id);
                                return;
                            }
                            self.pending_cloud
                                .insert(req_id, (wait.client, wait.descriptor));
                            let msg = Msg::Forward {
                                req_id,
                                task: wait.task,
                            };
                            let bytes = wire_len(&msg, &self.cfg);
                            ctx.send(self.cloud, bytes, msg);
                        }
                    }
                }
            }
            other => panic!("edge received unexpected {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if self.is_down(ctx.now().as_nanos()) {
            self.note_down(ctx.now().as_nanos());
            // Swallow the armed work so the maps do not leak.
            self.in_service.remove(&token);
            self.probe_timeouts.remove(&token);
            self.pending_replies.remove(&token);
            return;
        }
        // Service-completion timers return their slot to the admission
        // controller; probe deadlines feed the cluster breakers;
        // everything else is a delayed reply.
        if let Some(offered_at) = self.in_service.remove(&token) {
            self.finish_service(ctx, offered_at);
            return;
        }
        if let Some((req_id, peer)) = self.probe_timeouts.remove(&token) {
            self.probe_timed_out(ctx, req_id, peer);
            return;
        }
        let (dest, msg) = self
            .pending_replies
            .remove(&token)
            .expect("timer for unknown pending reply");
        let bytes = wire_len(&msg, &self.cfg);
        ctx.send(dest, bytes, msg);
    }
}

struct CloudNode {
    cfg: SimConfig,
    service: Arc<CloudService>,
    /// Executions in progress: token → (dest, routed?, reply).
    pending: HashMap<u64, (NodeId, bool, Msg)>,
    next_token: u64,
}

impl Node<Msg> for CloudNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Forward { req_id, task } => {
                let (result, cost_ns) = self.service.execute(&task);
                let token = self.next_token;
                self.next_token += 1;
                self.pending
                    .insert(token, (from, false, Msg::CloudReply { req_id, result }));
                ctx.set_timer(SimDuration::from_nanos(cost_ns), token);
            }
            Msg::BaselineRequest { req_id, task } => {
                // The issuing client's node id is encoded in the req_id.
                let client = NodeId((req_id >> 32) as usize);
                let (result, cost_ns) = self.service.execute(&task);
                let token = self.next_token;
                self.next_token += 1;
                self.pending
                    .insert(token, (client, true, Msg::BaselineReply { req_id, result }));
                ctx.set_timer(SimDuration::from_nanos(cost_ns), token);
            }
            other => panic!("cloud received unexpected {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let (dest, routed, msg) = self
            .pending
            .remove(&token)
            .expect("timer for unknown execution");
        let bytes = wire_len(&msg, &self.cfg);
        if routed {
            ctx.send_routed(dest, bytes, msg);
        } else {
            ctx.send(dest, bytes, msg);
        }
    }
}

/// Run `trace` under `cfg`; returns the QoE report.
///
/// # Panics
/// Panics if the trace is empty or the simulation stalls before all
/// requests complete (a protocol bug, which should fail loudly).
pub fn run(trace: &[coic_workload::Request], cfg: &SimConfig) -> QoeReport {
    run_traced(trace, cfg).0
}

/// Like [`run`], but additionally returns each client's engine decision
/// trace (hit/miss/retry/degrade sequence, indexed like the clients). The
/// traces carry no timestamps, so the same seeded workload and fault
/// schedule produces byte-identical traces here and in the live TCP driver
/// — the cross-driver determinism tests diff exactly these.
pub fn run_traced(
    trace: &[coic_workload::Request],
    cfg: &SimConfig,
) -> (QoeReport, Vec<Vec<Decision>>) {
    run_instrumented(trace, cfg, &Telemetry::disabled())
}

/// Like [`run_traced`], but records the run through `tel`: structured
/// trace spans/events for the full request lifecycle (issue → edge lookup
/// → coalesce/forward → complete), per-request latency histograms, and —
/// at the end of the run — the cache, robustness, link and QoE counters
/// published into the registry. All timestamps are virtual-clock ns, so
/// two seeded runs produce byte-identical traces and snapshots.
pub fn run_instrumented(
    trace: &[coic_workload::Request],
    cfg: &SimConfig,
    tel: &Telemetry,
) -> (QoeReport, Vec<Vec<Decision>>) {
    assert!(!trace.is_empty(), "empty trace");
    assert!(cfg.num_clients > 0, "need at least one client");

    // The config's content universe: what an earlier run under this config
    // (or a clone of it) generated is served again, not regenerated.
    let models = cfg.content.models();
    let panos = cfg.content.panos(cfg.pano_height);

    // Distinct recognition classes in the trace train the cloud model; a
    // trace with none trains nothing.
    let mut classes: Vec<ObjectClass> = trace
        .iter()
        .filter_map(|r| match r.kind {
            coic_workload::RequestKind::Recognition { class, .. } => Some(ObjectClass(class)),
            _ => None,
        })
        .collect();
    classes.sort_unstable();
    classes.dedup();

    let gen = SceneGenerator::new(cfg.client.image_side);
    let client_logic = Arc::new(ClientLogic::new(
        cfg.client,
        cfg.compute,
        models.clone(),
        panos.clone(),
    ));
    let cloud_service = Arc::new(CloudService::new(
        &classes,
        &gen,
        cfg.compute,
        models.clone(),
        panos.clone(),
        cfg.seed,
    ));

    // Topology: clients 0..n-1, edges n..n+e-1, cloud last. Clients attach
    // to the edge serving their zone; edges form a LAN mesh and each has
    // its own WAN uplink.
    assert!(cfg.num_edges > 0, "need at least one edge");
    let mut topo = Topology::new();
    let client_ids: Vec<NodeId> = (0..cfg.num_clients)
        .map(|i| topo.add_node(format!("client{i}")))
        .collect();
    let edge_ids: Vec<NodeId> = (0..cfg.num_edges)
        .map(|i| topo.add_node(format!("edge{i}")))
        .collect();
    let cloud_id = topo.add_node("cloud");
    let mut access = LinkParams::mbps_ms(cfg.access_mbps, cfg.access_delay_ms);
    access.queue_limit_bytes = cfg.queue_limit_bytes;
    access.loss = cfg.access_loss;
    let mut wan = LinkParams::mbps_ms(cfg.wan_mbps, cfg.wan_delay_ms);
    wan.queue_limit_bytes = cfg.queue_limit_bytes;
    wan.loss = cfg.wan_loss;
    let mut lan = LinkParams::mbps_ms(cfg.lan_mbps, cfg.lan_delay_ms);
    lan.queue_limit_bytes = cfg.queue_limit_bytes;

    // Per-client requests and edge assignment (by the zone of the client's
    // first request; populations are static so all its requests agree).
    let per_client: Vec<Vec<coic_workload::Request>> = (0..cfg.num_clients as usize)
        .map(|i| {
            trace
                .iter()
                .filter(|r| r.user.0 as usize % cfg.num_clients as usize == i)
                .cloned()
                .collect()
        })
        .collect();
    let client_edge: Vec<NodeId> = per_client
        .iter()
        .map(|reqs| {
            let zone = reqs.first().map(|r| r.zone.0).unwrap_or(0);
            edge_ids[zone as usize % cfg.num_edges as usize]
        })
        .collect();

    for (i, &c) in client_ids.iter().enumerate() {
        topo.connect(c, client_edge[i], access);
    }
    for (i, &e) in edge_ids.iter().enumerate() {
        topo.connect(e, cloud_id, wan);
        for &f in &edge_ids[i + 1..] {
            topo.connect(e, f, lan);
        }
    }

    let mut sim: Simulator<Msg> = Simulator::new(topo, cfg.seed);
    let records: Rc<RefCell<Vec<Record>>> = Rc::new(RefCell::new(Vec::new()));
    let failures: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let traces: Vec<Rc<RefCell<Vec<Decision>>>> = (0..cfg.num_clients)
        .map(|_| Rc::new(RefCell::new(Vec::new())))
        .collect();

    // Robustness counter handles (clients and edges) for the end-of-run
    // registry publish.
    let mut robustness: Vec<RobustnessStats> = Vec::new();

    for (i, &cid) in client_ids.iter().enumerate() {
        let my_requests = per_client[i].clone();
        let n = my_requests.len();
        // One engine per client, driven by the shared virtual clock: the
        // node sets the clock from ctx.now() before every engine call.
        let clock = SimClock::new();
        let stats = RobustnessStats::default();
        robustness.push(stats.clone());
        let engine = ClientEngine::new(engine_config(cfg), clock.clone(), stats);
        sim.bind(
            cid,
            Box::new(ClientNode {
                cfg: cfg.clone(),
                engine,
                clock,
                shaper: cfg
                    .client_shaper
                    .map(|(mbps, burst)| coic_netsim::Shaper::new((mbps * 1e6) as u64, burst)),
                shaped: Vec::new(),
                logic: client_logic.clone(),
                requests: my_requests,
                prepared: vec![None; n],
                edge: client_edge[i],
                cloud: cloud_id,
                records: records.clone(),
                failures: failures.clone(),
                trace_out: traces[i].clone(),
                tel: tel.clone(),
                client_idx: i as u64,
            }),
        );
    }
    let mut edge_services: Vec<Rc<EdgeService>> = Vec::new();
    let mut cluster_stats: Vec<ClusterStats> = Vec::new();
    for (ei, &eid) in edge_ids.iter().enumerate() {
        let peers: Vec<NodeId> = edge_ids.iter().copied().filter(|&p| p != eid).collect();
        let cluster = cfg
            .cluster
            .as_ref()
            .map(|c| ClusterState::new(ei as u32, cfg.num_edges, c.clone()));
        if let Some(cl) = &cluster {
            cluster_stats.push(cl.stats().clone());
        }
        let down_at_ns = cfg
            .edge_down_ms
            .iter()
            .find(|&&(_, e)| e as usize == ei)
            .map(|&(ms, _)| ms * 1_000_000);
        // Same thresholds as the live edge's defaults; the simulated WAN
        // never reports upstream errors, so the gate is effectively
        // permissive here — it exists to keep one code path.
        let stats = RobustnessStats::default();
        robustness.push(stats.clone());
        let gate = UpstreamGate::new(3, Duration::from_millis(300), stats.clone());
        let service = Rc::new(EdgeService::new(&cfg.edge, SIM_CACHE_SHARDS));
        edge_services.push(service.clone());
        sim.bind(
            eid,
            Box::new(EdgeNode {
                cfg: cfg.clone(),
                service,
                executor: cloud_service.clone(),
                cloud: cloud_id,
                pending_replies: HashMap::new(),
                pending_cloud: HashMap::new(),
                flights: SingleFlight::new(),
                gate,
                stats,
                overload: cfg
                    .admission
                    .clone()
                    .map(|a| OverloadControl::new(a, cfg.brownout.clone())),
                queued_work: HashMap::new(),
                in_service: HashMap::new(),
                peers,
                pending_peer: HashMap::new(),
                cluster,
                edge_nodes: edge_ids.clone(),
                pending_cluster: HashMap::new(),
                probe_timeouts: HashMap::new(),
                down_at_ns,
                down_noted: false,
                known_frames: HashMap::new(),
                prefetch_inflight: HashMap::new(),
                prefetching: std::collections::HashSet::new(),
                next_prefetch: 0,
                next_token: 0,
                tel: tel.clone(),
                edge_idx: ei as u64,
            }),
        );
    }
    sim.bind(
        cloud_id,
        Box::new(CloudNode {
            cfg: cfg.clone(),
            service: cloud_service,
            pending: HashMap::new(),
            next_token: 0,
        }),
    );

    // Apply the wireless-fading schedule to every access link.
    for &(at_ms, mbps) in &cfg.access_schedule {
        let mut p = LinkParams::mbps_ms(mbps, cfg.access_delay_ms);
        p.queue_limit_bytes = cfg.queue_limit_bytes;
        p.loss = cfg.access_loss;
        for (i, &c) in client_ids.iter().enumerate() {
            let e = client_edge[i];
            sim.reshape_at(coic_netsim::SimTime::from_millis(at_ms), c, e, p);
            sim.reshape_at(coic_netsim::SimTime::from_millis(at_ms), e, c, p);
        }
    }

    let events = sim.run(50_000_000);
    assert!(events < 50_000_000, "simulation did not converge");

    let completed = records.borrow().len();
    let failed = *failures.borrow();
    assert_eq!(
        completed as u64 + failed,
        trace.len() as u64,
        "only {completed}/{} requests completed, {failed} failed (drops: {:?})",
        trace.len(),
        sim.stats()
    );

    let mut report = QoeReport::from_records(&records.borrow());
    report.failed = failed;
    let t = sim.topology();
    for (i, &c) in client_ids.iter().enumerate() {
        let e = client_edge[i];
        report.access_bytes += t.link(c, e).unwrap().stats().delivered_bytes;
        report.access_bytes += t.link(e, c).unwrap().stats().delivered_bytes;
    }
    for &e in &edge_ids {
        report.wan_bytes += t.link(e, cloud_id).unwrap().stats().delivered_bytes;
        report.wan_bytes += t.link(cloud_id, e).unwrap().stats().delivered_bytes;
    }
    for (i, &e) in edge_ids.iter().enumerate() {
        for &f in &edge_ids[i + 1..] {
            report.lan_bytes += t.link(e, f).unwrap().stats().delivered_bytes;
            report.lan_bytes += t.link(f, e).unwrap().stats().delivered_bytes;
        }
    }
    // End-of-run registry publish: every legacy stats struct in the run —
    // cache counters, robustness counters, engine counters, the QoE report
    // itself — lands in the shared registry, from which each deprecated
    // facade view is derivable.
    let end_ns = sim.now().as_nanos();
    for svc in &edge_services {
        // Flush any partial index journal so the published snapshot
        // telemetry reflects the whole run (inserts self-fold at the
        // rebuild batch; this folds the tail deterministically).
        svc.maintain(end_ns);
        svc.publish_metrics(tel.registry());
    }
    for s in &robustness {
        s.snapshot().publish(tel.registry());
    }
    for s in &cluster_stats {
        s.snapshot().publish(tel.registry());
    }
    sim.stats().publish(tel.registry());
    report.publish(tel.registry());

    let decision_traces = traces.iter().map(|t| t.borrow().clone()).collect();
    (report, decision_traces)
}

/// Run the same trace under Origin and CoIC and return
/// `(origin, coic, reduction_percent_of_mean_latency)`.
pub fn compare(trace: &[coic_workload::Request], cfg: &SimConfig) -> (QoeReport, QoeReport, f64) {
    let origin = run(
        trace,
        &SimConfig {
            mode: Mode::Origin,
            ..cfg.clone()
        },
    );
    let coic = run(
        trace,
        &SimConfig {
            mode: Mode::CoIc,
            ..cfg.clone()
        },
    );
    let red = crate::qoe::reduction_percent(origin.mean_latency_ms(), coic.mean_latency_ms());
    (origin, coic, red)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoe::Path;
    use coic_workload::{
        Population, Request, RequestKind, SafeDrivingAr, UserId, ZoneId, ZoneModel,
    };

    fn recognition_trace(n: usize) -> Vec<Request> {
        SafeDrivingAr {
            population: Population::colocated(4, ZoneId(0)),
            zones: ZoneModel::new(1, 8, 1.0, 3),
            rate_per_sec: 20.0,
            zipf_s: 0.9,
            total_requests: n,
        }
        .generate(11)
    }

    fn render_trace() -> Vec<Request> {
        // Four users loading the same two models repeatedly.
        let mut reqs = Vec::new();
        for i in 0..16u64 {
            reqs.push(Request {
                user: UserId((i % 4) as u32),
                zone: ZoneId(0),
                at_ns: i * 50_000_000,
                kind: RequestKind::RenderLoad {
                    model_id: i % 2,
                    size_bytes: 400_000,
                },
            });
        }
        reqs
    }

    fn small_cfg() -> SimConfig {
        SimConfig {
            num_clients: 4,
            ..SimConfig::default()
        }
    }

    /// The CI `cluster-smoke` shape: 32 users in 16 zones ask 16 edges for
    /// 24 Zipf-1.1 models, ring probes of fan-out 3, hot replication at 2.
    fn cluster_scenario() -> (Vec<Request>, SimConfig) {
        let trace = coic_workload::ArenaMultiplayer {
            population: Population::round_robin(32, 16),
            models: (0..24).map(|i| (i, 20 * 1024)).collect(),
            zipf_s: 1.1,
            rate_per_sec: 20.0,
            total_requests: 400,
        }
        .generate(5);
        let cfg = SimConfig::builder()
            .num_clients(32)
            .num_edges(16)
            .seed(5)
            .cluster(ClusterConfig {
                peer_fanout: 3,
                replicate_hot: 2,
                ..ClusterConfig::default()
            })
            .build();
        (trace, cfg)
    }

    #[test]
    fn runs_off_one_config_generate_each_model_once_and_replay_a_fresh_one() {
        let (trace, shared) = cluster_scenario();
        let distinct: std::collections::BTreeSet<u64> = trace
            .iter()
            .filter_map(|r| match r.kind {
                RequestKind::RenderLoad { model_id, .. } => Some(model_id),
                _ => None,
            })
            .collect();
        let outcome = |cfg: &SimConfig| {
            let (mut report, decisions) = run_traced(&trace, cfg);
            (report.canonical(), decisions)
        };
        let first = outcome(&shared);
        assert_eq!(shared.content.models().len(), distinct.len());
        // The second run — off a clone, as a sweep would — finds every model.
        let second = outcome(&shared.clone());
        assert_eq!(shared.content.models().len(), distinct.len());
        let (_, fresh_cfg) = cluster_scenario();
        let fresh = outcome(&fresh_cfg);
        assert_eq!(fresh_cfg.content.models().len(), distinct.len());
        assert_eq!(first, fresh, "a first run and a fresh config diverged");
        assert_eq!(second, fresh, "served-again content changed the run");
    }

    #[test]
    fn a_pano_height_update_of_a_shared_config_serves_the_new_height() {
        let trace: Vec<Request> = (0..6u64)
            .map(|i| Request {
                user: UserId(0),
                zone: ZoneId(0),
                at_ns: i * 100_000_000,
                kind: RequestKind::Panorama { frame_id: i % 3 },
            })
            .collect();
        let low = SimConfig {
            pano_height: 32,
            ..SimConfig::default()
        };
        let mut low_report = run(&trace, &low);
        // Shares `low`'s content universe, where frames 0..3 exist 32 high.
        let high = SimConfig {
            pano_height: 64,
            ..low.clone()
        };
        let mut high_report = run(&trace, &high);
        let mut fresh_report = run(
            &trace,
            &SimConfig {
                pano_height: 64,
                ..SimConfig::default()
            },
        );
        assert_eq!(high_report.canonical(), fresh_report.canonical());
        assert_ne!(high_report.canonical(), low_report.canonical());
        assert!(high_report.access_bytes > 3 * low_report.access_bytes);
        assert_eq!(high.content.panos(64).get(0).0.len(), 128 * 64);
        assert_eq!(low.content.panos(32).get(0).0.len(), 64 * 32);
    }

    #[test]
    fn coic_beats_origin_on_redundant_recognition() {
        let trace = recognition_trace(40);
        let (origin, coic, red) = compare(&trace, &small_cfg());
        assert_eq!(origin.completed, 40);
        assert_eq!(coic.completed, 40);
        assert!(coic.hit_ratio() > 0.3, "hit ratio {}", coic.hit_ratio());
        assert!(
            red > 10.0,
            "expected meaningful reduction, got {red:.1}% (origin {:.1}ms, coic {:.1}ms)",
            origin.mean_latency_ms(),
            coic.mean_latency_ms()
        );
    }

    #[test]
    fn origin_mode_never_hits() {
        let trace = recognition_trace(10);
        let report = run(
            &trace,
            &SimConfig {
                mode: Mode::Origin,
                ..small_cfg()
            },
        );
        assert_eq!(report.edge_hits, 0);
        assert_eq!(report.cloud_trips, 10);
    }

    #[test]
    fn render_loads_hit_after_first_fetch() {
        let trace = render_trace();
        let report = run(&trace, &small_cfg());
        // Two unique models; 16 requests; all but the first two of each
        // model can hit.
        assert!(report.edge_hits >= 10, "hits {}", report.edge_hits);
        // Hits are much faster than misses.
        let hit_misses: Vec<(f64, Path)> = Vec::new();
        drop(hit_misses);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = recognition_trace(20);
        let a = run(&trace, &small_cfg());
        let b = run(&trace, &small_cfg());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.edge_hits, b.edge_hits);
        assert_eq!(a.access_bytes, b.access_bytes);
        assert!((a.mean_latency_ms() - b.mean_latency_ms()).abs() < 1e-12);
    }

    #[test]
    fn slower_wan_widens_coic_advantage() {
        let trace = recognition_trace(30);
        let fast = SimConfig {
            wan_mbps: 100.0,
            ..small_cfg()
        };
        let slow = SimConfig {
            wan_mbps: 10.0,
            ..small_cfg()
        };
        let (_, _, red_fast) = compare(&trace, &fast);
        let (_, _, red_slow) = compare(&trace, &slow);
        assert!(
            red_slow > red_fast,
            "slow-WAN reduction {red_slow:.1}% should exceed fast-WAN {red_fast:.1}%"
        );
    }

    #[test]
    fn accuracy_reported_for_recognition() {
        let trace = recognition_trace(20);
        let report = run(&trace, &small_cfg());
        let acc = report.accuracy.expect("recognition trace has accuracy");
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn multi_edge_peer_lookup_serves_cross_zone_content() {
        // Users in two zones attach to two edges; zone 0 warms its edge,
        // then zone 1 requests the same model and must get a peer hit.
        let mut reqs = Vec::new();
        for i in 0..8u64 {
            reqs.push(Request {
                user: UserId(i as u32 % 4),
                zone: ZoneId((i % 4 % 2) as u32),
                at_ns: i * 400_000_000,
                kind: RequestKind::RenderLoad {
                    model_id: 7,
                    size_bytes: 300_000,
                },
            });
        }
        let cfg = SimConfig {
            num_clients: 4,
            num_edges: 2,
            peer_lookup: true,
            ..SimConfig::default()
        };
        let report = run(&reqs, &cfg);
        assert_eq!(report.completed, 8);
        assert!(report.peer_hits >= 1, "expected peer hits, got {report:?}");
        assert!(report.lan_bytes > 0);
        // Only one cloud fetch of the model should ever happen per edge at
        // most; with peer lookup, ideally once globally.
        assert!(
            report.cloud_trips <= 2,
            "cloud trips {}",
            report.cloud_trips
        );
    }

    #[test]
    fn multi_edge_without_peer_lookup_pays_cloud_per_edge() {
        let mut reqs = Vec::new();
        for i in 0..8u64 {
            reqs.push(Request {
                user: UserId(i as u32 % 4),
                zone: ZoneId((i % 4 % 2) as u32),
                at_ns: i * 400_000_000,
                kind: RequestKind::RenderLoad {
                    model_id: 7,
                    size_bytes: 300_000,
                },
            });
        }
        let mk = |peer_lookup| SimConfig {
            num_clients: 4,
            num_edges: 2,
            peer_lookup,
            ..SimConfig::default()
        };
        let without = run(&reqs, &mk(false));
        let with = run(&reqs, &mk(true));
        assert_eq!(without.peer_hits, 0);
        assert!(with.wan_bytes < without.wan_bytes);
        assert!(with.mean_latency_ms() <= without.mean_latency_ms());
    }

    #[test]
    fn peer_hit_latency_sits_between_local_and_cloud() {
        // One warmed peer: the home edge's first request is a peer hit,
        // its second a local hit; a fresh model is a cloud miss.
        let reqs = vec![
            // zone 1 warms edge 1
            Request {
                user: UserId(1),
                zone: ZoneId(1),
                at_ns: 0,
                kind: RequestKind::RenderLoad {
                    model_id: 3,
                    size_bytes: 500_000,
                },
            },
            // zone 0 asks for the same model → peer hit
            Request {
                user: UserId(0),
                zone: ZoneId(0),
                at_ns: 1_000_000_000,
                kind: RequestKind::RenderLoad {
                    model_id: 3,
                    size_bytes: 500_000,
                },
            },
            // zone 0 again → local hit
            Request {
                user: UserId(0),
                zone: ZoneId(0),
                at_ns: 2_000_000_000,
                kind: RequestKind::RenderLoad {
                    model_id: 3,
                    size_bytes: 500_000,
                },
            },
        ];
        let cfg = SimConfig {
            num_clients: 2,
            num_edges: 2,
            peer_lookup: true,
            ..SimConfig::default()
        };
        let report = run(&reqs, &cfg);
        assert_eq!(report.completed, 3);
        assert_eq!(report.cloud_trips, 1);
        assert_eq!(report.peer_hits, 1);
        assert_eq!(report.edge_hits, 1);
    }

    #[test]
    fn edge_execution_avoids_the_wan() {
        let trace = recognition_trace(20);
        let cloud_exec = run(&trace, &small_cfg());
        let edge_exec = run(
            &trace,
            &SimConfig {
                exec_tier: ExecTier::Edge,
                ..small_cfg()
            },
        );
        assert_eq!(edge_exec.completed, 20);
        // Recognition misses never cross the WAN under edge execution.
        assert_eq!(edge_exec.wan_bytes, 0);
        assert!(cloud_exec.wan_bytes > 0);
        // Accuracy unaffected: same model, different silicon.
        assert!(edge_exec.accuracy.unwrap() > 0.85);
    }

    #[test]
    fn origin_edge_execution_works_without_cache() {
        let trace = recognition_trace(12);
        let report = run(
            &trace,
            &SimConfig {
                mode: Mode::Origin,
                exec_tier: ExecTier::Edge,
                ..small_cfg()
            },
        );
        assert_eq!(report.completed, 12);
        assert_eq!(report.edge_hits, 0);
        assert_eq!(report.wan_bytes, 0);
    }

    #[test]
    fn client_shaper_throttles_uploads() {
        // Recognition misses upload ~300 kB frames; a 2 Mbit/s phone-side
        // shaper makes those uploads far slower than the unshaped run.
        let trace = recognition_trace(10);
        let free = run(&trace, &small_cfg());
        let shaped = run(
            &trace,
            &SimConfig {
                client_shaper: Some((2.0, 64 * 1024)),
                ..small_cfg()
            },
        );
        assert_eq!(shaped.completed, 10);
        assert!(
            shaped.mean_latency_ms() > 2.0 * free.mean_latency_ms(),
            "shaped {:.1} ms vs free {:.1} ms",
            shaped.mean_latency_ms(),
            free.mean_latency_ms()
        );
    }

    #[test]
    fn generous_shaper_changes_nothing() {
        let trace = recognition_trace(10);
        let free = run(&trace, &small_cfg());
        let shaped = run(
            &trace,
            &SimConfig {
                client_shaper: Some((1000.0, 8 << 20)),
                ..small_cfg()
            },
        );
        assert!((shaped.mean_latency_ms() - free.mean_latency_ms()).abs() < 1.0);
    }

    #[test]
    fn access_schedule_slows_transfers_after_the_step() {
        // Same trace; a mid-run bandwidth collapse must raise latencies.
        let trace = recognition_trace(20);
        let stable = run(&trace, &small_cfg());
        let fading = run(
            &trace,
            &SimConfig {
                access_schedule: vec![(200, 5.0)], // collapse to 5 Mbps at t=200ms
                ..small_cfg()
            },
        );
        assert_eq!(fading.completed, 20);
        assert!(
            fading.mean_latency_ms() > stable.mean_latency_ms(),
            "fading {:.1} ms should exceed stable {:.1} ms",
            fading.mean_latency_ms(),
            stable.mean_latency_ms()
        );
    }

    #[test]
    fn prefetch_turns_sequential_misses_into_hits() {
        // One viewer streams 12 sequential frames, spaced far enough apart
        // for prefetches to land between requests.
        let reqs: Vec<Request> = (0..12u64)
            .map(|f| Request {
                user: UserId(0),
                zone: ZoneId(0),
                at_ns: f * 500_000_000,
                kind: RequestKind::Panorama { frame_id: f },
            })
            .collect();
        let cold = run(&reqs, &SimConfig::default());
        let warm = run(
            &reqs,
            &SimConfig {
                prefetch_depth: 2,
                ..SimConfig::default()
            },
        );
        // Without prefetch every distinct frame misses; with it, only the
        // first does.
        assert_eq!(cold.edge_hits, 0);
        assert!(warm.edge_hits >= 10, "only {} hits", warm.edge_hits);
        assert!(warm.mean_latency_ms() < cold.mean_latency_ms() / 2.0);
    }

    #[test]
    fn prefetch_does_not_duplicate_wan_fetches() {
        let reqs: Vec<Request> = (0..10u64)
            .map(|f| Request {
                user: UserId(0),
                zone: ZoneId(0),
                at_ns: f * 500_000_000,
                kind: RequestKind::Panorama { frame_id: f },
            })
            .collect();
        let warm = run(
            &reqs,
            &SimConfig {
                prefetch_depth: 3,
                ..SimConfig::default()
            },
        );
        let cold = run(&reqs, &SimConfig::default());
        // Prefetching fetches each of the 10 frames (plus up to depth
        // overshoot beyond the stream end); it must not refetch frames.
        let per_frame = cold.wan_bytes / 10;
        assert!(
            warm.wan_bytes <= cold.wan_bytes + 4 * per_frame,
            "prefetch duplicated fetches: warm {} vs cold {}",
            warm.wan_bytes,
            cold.wan_bytes
        );
    }

    #[test]
    fn lossy_access_link_recovered_by_retries() {
        let trace = recognition_trace(20);
        let cfg = SimConfig {
            access_loss: 0.08,
            request_timeout_ms: 3_000,
            max_retries: 5,
            ..small_cfg()
        };
        let report = run(&trace, &cfg);
        // With 8% loss and 5 retries, effectively everything completes.
        assert_eq!(report.completed + report.failed as usize, 20);
        assert_eq!(report.failed, 0, "retries should mask 8% loss");
        // The retry counters must actually see the retransmissions.
        assert!(report.retries > 0, "8% loss must force some retransmission");
        assert!(report.retried_requests > 0);
        assert!(report.retried_requests as usize <= report.completed);
    }

    #[test]
    fn lossless_run_records_zero_retries() {
        let trace = recognition_trace(10);
        let report = run(&trace, &small_cfg());
        assert_eq!(report.retries, 0);
        assert_eq!(report.retried_requests, 0);
    }

    #[test]
    fn total_loss_fails_requests_without_hanging() {
        let trace = recognition_trace(6);
        let cfg = SimConfig {
            access_loss: 1.0, // nothing ever gets through
            request_timeout_ms: 1_000,
            max_retries: 2,
            ..small_cfg()
        };
        let report = run(&trace, &cfg);
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 6);
    }

    #[test]
    fn duplicate_replies_do_not_double_count() {
        // Moderate WAN loss causes retransmissions whose original replies
        // may still arrive; completions must equal the trace length exactly.
        let trace = recognition_trace(25);
        let cfg = SimConfig {
            wan_loss: 0.15,
            request_timeout_ms: 2_000,
            max_retries: 6,
            ..small_cfg()
        };
        let report = run(&trace, &cfg);
        assert_eq!(report.completed + report.failed as usize, 25);
    }

    #[test]
    fn wan_traffic_drops_under_coic() {
        let trace = recognition_trace(40);
        let (origin, coic, _) = compare(&trace, &small_cfg());
        assert!(
            coic.wan_bytes < origin.wan_bytes,
            "coic wan {} vs origin wan {}",
            coic.wan_bytes,
            origin.wan_bytes
        );
    }
}
