//! Discrete-event simulation driver.
//!
//! Reconstructs the paper's testbed as a simulated topology — N mobile
//! clients on an access link to one edge, one WAN link to the cloud — and
//! replays a workload trace through either the **origin** baseline (full
//! offload, no cache) or **CoIC** (descriptor query → edge cache →
//! forward-on-miss). Every run is deterministic in its seed. Clients and
//! edges decide nothing themselves: each node realises the effects of the
//! sans-IO [`ClientEngine`] or [`EdgeEngine`] the live stack runs too.

use crate::cluster::{ClusterConfig, ClusterState, ClusterStats, HashRing};
use crate::compute::ComputeConfig;
use crate::content::ContentUniverse;
use crate::descriptor::FeatureDescriptor;
use crate::engine::{
    AdmissionConfig, BrownoutConfig, Charge, CircuitBreaker, ClientEngine, Clock, Decision,
    EdgeEffect, EdgeEngine, EdgeTimer, Effect, EngineConfig, FaultSchedule, OverloadControl,
    ReplyKind, RetryPolicy, RobustnessStats, SimClock, Slot, TimerKind,
};
use crate::protocol::Msg;
use crate::qoe::{QoeReport, Record};
use crate::services::{
    recognition_correct, ClientConfig, ClientLogic, CloudService, EdgeConfig, EdgeService,
    PreparedRequest,
};
use crate::task::{Held, TaskRequest, TaskResult, ANNOTATION_BYTES};
use crate::telemetry::{path_label, record_decision};
use coic_netsim::{
    Ctx, Departure, LinkParams, Node, NodeId, SimDuration, Simulator, TimerId, Topology,
};
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
    /// Edge↔cloud bandwidth (the paper's `B_E->C`), Mbit/s.
    pub wan_mbps: f64,
    /// Number of client devices.
    pub num_clients: u32,
    /// Number of edge servers. Clients attach to `zone % num_edges`; with
    /// more than one edge, set `cluster` to let edges answer each other's
    /// misses over the LAN before going to the cloud.
    pub num_edges: u32,
    /// Cooperative cluster tier: consistent-hash partitioning with bounded
    /// peer fan-out, hot-entry replication and peer-before-cloud failover.
    /// `None` keeps every edge isolated.
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
    /// Client retry/backoff policy fed to the shared engine. The default,
    /// [`RetryPolicy::immediate`]`(4, 0)`, is the classic simulator loop:
    /// four transmissions, each resend leaving the instant the virtual
    /// deadline fires.
    pub retry: RetryPolicy,
    /// When the edge path is exhausted, degrade to the origin path (direct
    /// cloud request) instead of failing the request — the live client's
    /// behavior when constructed with a cloud address.
    pub origin_fallback: bool,
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
    /// Panorama frame height (width = 2×height, 1 B/pixel).
    pub pano_height: u32,
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
            wan_mbps: 50.0,
            num_clients: 1,
            num_edges: 1,
            cluster: None,
            edge_down_ms: Vec::new(),
            access_loss: 0.0,
            wan_loss: 0.0,
            request_timeout_ms: 10_000,
            retry: RetryPolicy::immediate(4, 0),
            origin_fallback: false,
            faults: FaultSchedule::new(),
            admission: None,
            brownout: None,
            client_shaper: None,
            access_schedule: Vec::new(),
            prefetch_depth: 0,
            edge: EdgeConfig::default(),
            client: ClientConfig::default(),
            compute: ComputeConfig::default(),
            pano_height: 256,
            closed_loop: true,
            seed: 1,
            content: ContentUniverse::default(),
        }
    }
}

impl SimConfig {
    /// Start a typed builder (the supported construction path; see
    /// [`crate::config`]).
    pub fn builder() -> crate::config::SimConfigBuilder {
        crate::config::SimConfigBuilder::default()
    }
}

/// Client↔edge one-way delay, ms.
const ACCESS_DELAY_MS: u64 = 2;
/// Edge↔cloud one-way delay, ms.
const WAN_DELAY_MS: u64 = 20;
/// Inter-edge LAN bandwidth, Mbit/s.
const LAN_MBPS: f64 = 1000.0;
/// Inter-edge LAN one-way delay, ms.
const LAN_DELAY_MS: u64 = 5;
/// While degraded, minimum spacing between a client's edge re-probes, ms.
const PROBE_INTERVAL_MS: u64 = 100;
/// Wire size charged for a camera-frame upload. The synthetic frames are
/// small; a real phone ships a multi-hundred-kB JPEG, and that is what the
/// network should feel.
const IMAGE_WIRE_BYTES: u64 = 300_000;
/// Wire size charged for a recognition descriptor query.
const DESCRIPTOR_WIRE_BYTES: u64 = 4_096;
/// Droptail queue depth per link direction, bytes: deep, so results as
/// large as 64 MB models queue behind each other rather than drop.
const QUEUE_LIMIT_BYTES: u64 = 1 << 30; // 1 GiB

/// Bytes a message occupies on a link. Structural messages use their real
/// encoded length; camera frames and descriptors are charged at realistic
/// sizes ([`IMAGE_WIRE_BYTES`], [`DESCRIPTOR_WIRE_BYTES`]).
fn wire_len(msg: &Msg) -> u64 {
    match msg {
        Msg::Query {
            descriptor: FeatureDescriptor::Dnn(_),
            ..
        } => DESCRIPTOR_WIRE_BYTES,
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
        } => IMAGE_WIRE_BYTES,
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
const TOKEN_BACKOFF: u64 = 1 << 58;
const TOKEN_MASK: u64 = (1 << 32) - 1;
/// Engine timer epochs ride in token bits 32..48 (flags sit at 58+).
const EPOCH_MASK: u64 = 0xFFFF;

/// The engine configuration a [`SimConfig`] implies for its clients.
fn engine_config(cfg: &SimConfig) -> EngineConfig {
    EngineConfig {
        retry: cfg.retry.clone(),
        deadline_ns: cfg.request_timeout_ms * 1_000_000,
        probe_interval_ns: PROBE_INTERVAL_MS * 1_000_000,
        use_edge: cfg.mode == Mode::CoIc,
        origin_fallback: cfg.origin_fallback,
    }
}

/// What a simulated client holds of one of its requests.
#[derive(Clone)]
enum ReqSlot {
    /// Not issued yet.
    Unissued,
    /// In the engine's hands, which may still send the task (a recognition
    /// task carries its whole camera frame).
    Live(PreparedRequest),
    /// Completed or given up: only the ground truth that a late duplicate
    /// reply is judged by.
    Ended(Option<u32>),
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
    logic: Arc<ClientLogic>,
    requests: Vec<coic_workload::Request>,
    slots: Vec<ReqSlot>,
    /// The armed reply deadline of each request, cancelled once it can
    /// decide nothing: the request ended, or a new attempt armed its own.
    deadlines: Vec<Option<TimerId>>,
    edge: NodeId,
    cloud: NodeId,
    records: Rc<RefCell<Vec<Record>>>,
    failures: Rc<RefCell<u64>>,
    /// Where the engine's decisions go, when the caller asked for them.
    trace_out: Option<Rc<RefCell<Vec<Decision>>>>,
    tel: Telemetry,
    client_idx: u64,
}

impl ClientNode {
    fn req_id(&self, ctx: &Ctx<'_, Msg>, idx: usize) -> u64 {
        ((ctx.node_id().0 as u64) << 32) | idx as u64
    }

    /// The prepared form of a request the engine is still working on.
    fn live(&self, req_id: u64) -> &PreparedRequest {
        match &self.slots[(req_id & TOKEN_MASK) as usize] {
            ReqSlot::Live(prepared) => prepared,
            _ => panic!("request {req_id:#x} is not in flight"),
        }
    }

    /// Send an uplink message through the optional token-bucket shaper: it
    /// leaves now if the bucket has tokens, else when the bucket refills.
    fn shaped_send(&mut self, ctx: &mut Ctx<'_, Msg>, routed: bool, bytes: u64, msg: Msg) {
        let release = match &mut self.shaper {
            Some(sh) => sh.release_at(ctx.now(), bytes),
            None => ctx.now(),
        };
        match (release > ctx.now(), routed) {
            (false, false) => ctx.send(self.edge, bytes, msg),
            (false, true) => ctx.send_routed(self.cloud, bytes, msg),
            (true, false) => ctx.send_after(release - ctx.now(), self.edge, bytes, msg),
            (true, true) => ctx.send_routed_after(release - ctx.now(), self.cloud, bytes, msg),
        }
    }

    /// Cancel the armed deadline of request `idx`, if any.
    fn disarm_deadline(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        if let Some(timer) = self.deadlines[idx].take() {
            ctx.cancel_timer(timer);
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
        let prepared = self.live(req_id);
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
        let bytes = wire_len(&msg);
        self.shaped_send(ctx, false, bytes, msg);
    }

    fn send_origin(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        let prepared = self.live(req_id);
        let msg = Msg::BaselineRequest {
            req_id,
            task: prepared.task.clone(),
        };
        let bytes = wire_len(&msg);
        // Edge-execution baseline sends the frame only as far as the edge
        // box; otherwise offload rides through to the cloud as in the
        // paper.
        let routed = !(self.cfg.exec_tier == ExecTier::Edge
            && matches!(prepared.task, TaskRequest::Recognition { .. }));
        self.shaped_send(ctx, routed, bytes, msg);
    }

    fn send_upload(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: u64) {
        let task = self.live(req_id).task.clone();
        let msg = Msg::Upload { req_id, task };
        let bytes = wire_len(&msg);
        self.shaped_send(ctx, false, bytes, msg);
    }

    /// Close the request's span at `at_ns`, taken by `path`, keep only its
    /// truth, and issue the next one of a closed loop.
    fn end_request(&mut self, ctx: &mut Ctx<'_, Msg>, at_ns: u64, req_id: u64, path: &str) {
        let seq = req_id & TOKEN_MASK;
        self.disarm_deadline(ctx, seq as usize);
        let slot = &mut self.slots[seq as usize];
        if let ReqSlot::Live(prepared) = slot {
            *slot = ReqSlot::Ended(prepared.truth);
        }
        self.tel.span_exit_with(at_ns, "request", || {
            vec![
                ("client", Value::from(self.client_idx)),
                ("seq", Value::from(seq)),
                ("path", Value::from(path)),
            ]
        });
        self.advance_closed_loop(ctx, seq as usize);
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
                    let timer = ctx.set_timer(SimDuration::from_nanos(delay_ns), token);
                    if kind == TimerKind::Deadline {
                        // A new attempt's deadline supersedes the last one.
                        self.disarm_deadline(ctx, idx as usize);
                        self.deadlines[idx as usize] = Some(timer);
                    }
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
                Effect::SendOrigin { req_id, .. } => self.send_origin(ctx, req_id),
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
                    let path = path_label(record.path);
                    self.end_request(ctx, record.completed_ns, record.req_id, path);
                    self.records.borrow_mut().push(record);
                }
                Effect::GiveUp { req_id } => {
                    *self.failures.borrow_mut() += 1;
                    self.end_request(ctx, self.clock.now_ns(), req_id, "failed");
                }
            }
        }
        let now = self.clock.now_ns();
        let mut trace_out = self.trace_out.as_ref().map(|t| t.borrow_mut());
        for d in self.engine.drain_decisions() {
            record_decision(&self.tel, now, self.client_idx, &d);
            if let Some(t) = &mut trace_out {
                t.push(d);
            }
        }
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
            self.slots[idx] = ReqSlot::Live(prepared);
            self.tel.span_enter_with(issued_ns, "request", || {
                vec![
                    ("client", Value::from(self.client_idx)),
                    ("seq", Value::from(idx as u64)),
                    ("kind", Value::from(kind)),
                ]
            });
            let effects = self.engine.begin(req_id, kind, issued_ns, prep_ns);
            self.apply(ctx, effects);
        } else {
            let kind = if token & TOKEN_PREP != 0 {
                TimerKind::Prep
            } else if token & TOKEN_TIMEOUT != 0 {
                // Fired: nothing left to cancel.
                self.deadlines[idx] = None;
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
            let truth = match &self.slots[(req_id & TOKEN_MASK) as usize] {
                ReqSlot::Live(prepared) => prepared.truth,
                ReqSlot::Ended(truth) => *truth,
                ReqSlot::Unissued => panic!("reply to unissued request {req_id:#x}"),
            };
            recognition_correct(r, truth)
        });
        let effects = self.engine.on_reply(req_id, kind, correct);
        self.apply(ctx, effects);
    }
}

/// The simulated edge: realises [`EdgeEngine`] effects over the virtual
/// network — links, timers and the edge's local service time — and models
/// what only the simulator has: sequential-stream prefetching, recognition
/// run on the edge box ([`ExecTier::Edge`]) and the crash schedule. Every
/// decision is the engine's, the same one the live edge realises.
struct EdgeNode {
    cfg: SimConfig,
    engine: EdgeEngine<NodeId>,
    /// The cache the engine decides over: the node realises its inserts
    /// (the prefetcher and the edge tier use it directly), and the driver
    /// publishes its metrics after the run.
    service: Arc<EdgeService>,
    /// Executes recognition locally when `exec_tier == Edge`.
    executor: Arc<CloudService>,
    cloud: NodeId,
    /// The engine's effect buffer, reused across events.
    fx: Vec<EdgeEffect<NodeId>>,
    /// Armed probe deadlines as (engine token, timer), until the deadline
    /// fires or the engine disarms it. A handful at most — the probes in
    /// flight — so a list that keeps its capacity beats a map that
    /// allocates whenever it turns non-empty.
    probe_timers: Vec<(u64, TimerId)>,
    /// Admission slots in service, returned when their token fires.
    slots: HashMap<u64, Slot>,
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

/// Engine probe deadlines ride in timer tokens with this bit set; the
/// node's own tokens count up from zero.
const ENGINE_TIMER: u64 = 1 << 62;

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
            let bytes = wire_len(&msg);
            ctx.send(self.cloud, bytes, msg);
        }
    }

    /// Forget the armed deadline of probe `token`, returning its timer.
    fn settle_probe_timer(&mut self, token: u64) -> Option<TimerId> {
        let i = self.probe_timers.iter().position(|&(t, _)| t == token)?;
        Some(self.probe_timers.swap_remove(i).1)
    }

    /// Send `msg` to `dest` once `after_ns` of local work is done.
    fn send_after(&mut self, ctx: &mut Ctx<'_, Msg>, after_ns: u64, dest: NodeId, msg: Msg) {
        let bytes = wire_len(&msg);
        ctx.send_after(SimDuration::from_nanos(after_ns), dest, bytes, msg);
    }

    /// The local time `charge` stands for (`None`: leaves at once).
    fn charge_ns(&self, charge: Charge) -> Option<u64> {
        match charge {
            Charge::Free => None,
            Charge::Lookup => Some(self.cfg.compute.lookup_ns),
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_, Msg>, charge: Charge, dest: NodeId, msg: Msg) {
        let bytes = wire_len(&msg);
        match self.charge_ns(charge) {
            Some(after_ns) => ctx.send_after(SimDuration::from_nanos(after_ns), dest, bytes, msg),
            None => ctx.send(dest, bytes, msg),
        }
    }

    /// Realise what the engine decided: a connection is the node a message
    /// came from, so a reply goes back to it.
    fn realise(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        let mut fx = std::mem::take(&mut self.fx);
        for effect in fx.drain(..) {
            match effect {
                EdgeEffect::Reply {
                    conn,
                    answer,
                    charge,
                    ..
                } => self.send(ctx, charge, NodeId(conn as usize), answer.msg),
                EdgeEffect::Forward {
                    req, task, charge, ..
                } => {
                    let msg = Msg::Forward { req_id: req, task };
                    self.send(ctx, charge, self.cloud, msg);
                }
                EdgeEffect::Probe {
                    req,
                    to,
                    digest,
                    deadline,
                    charge,
                    ..
                } => {
                    let msg = Msg::PeerQuery {
                        req_id: req,
                        digest,
                    };
                    self.send(ctx, charge, to, msg);
                    let after_ns = self.charge_ns(charge).unwrap_or(0) + deadline.after_ns;
                    let timer = ctx.set_timer(
                        SimDuration::from_nanos(after_ns),
                        ENGINE_TIMER | deadline.token,
                    );
                    self.probe_timers.push((deadline.token, timer));
                }
                EdgeEffect::Disarm { token } => {
                    if let Some(timer) = self.settle_probe_timer(token) {
                        ctx.cancel_timer(timer);
                    }
                }
                EdgeEffect::Replicate {
                    to,
                    req,
                    token,
                    digest,
                    held,
                } => {
                    let msg = Msg::Replicate {
                        req_id: req,
                        token,
                        digest,
                        result: held.result().clone(),
                    };
                    self.send(ctx, Charge::Free, to, msg);
                }
                EdgeEffect::Insert {
                    descriptor,
                    held,
                    landing,
                } => {
                    self.service.insert(&descriptor, held, now);
                    if let Some(digest) = landing {
                        self.engine.on_inserted(&digest);
                    }
                }
                EdgeEffect::Serving { slot, .. } => {
                    let token = self.next_token;
                    self.next_token += 1;
                    self.slots.insert(token, slot);
                    ctx.set_timer(SimDuration::from_nanos(self.cfg.compute.lookup_ns), token);
                }
                // An event-driven node waits for nothing, and the simulated
                // links are no connections to hang up.
                EdgeEffect::Wait { .. } | EdgeEffect::Close { .. } => {}
            }
        }
        self.fx = fx;
    }

    /// What recognition costs on the edge box's slower silicon.
    fn edge_dnn_ns(&self) -> u64 {
        self.cfg
            .compute
            .edge
            .time_ns(self.cfg.compute.full_dnn_macs)
    }

    /// Is the edge dead (per the kill schedule) at virtual time `now`?
    fn is_down(&self, now: u64) -> bool {
        self.down_at_ns.is_some_and(|t| now >= t)
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
}

impl Node<Msg> for EdgeNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let now = ctx.now().as_nanos();
        if self.is_down(now) {
            self.note_down(now);
            return; // dead edges answer nothing
        }
        // The node a message came from is its connection; a cloud or peer
        // reply belongs to the client whose node index tops its req_id.
        let conn = from.0 as u64;
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
                        self.maybe_prefetch(ctx, *frame_id);
                    }
                }
                self.engine
                    .on_query(conn, req_id, descriptor, hint, now, &mut self.fx);
            }
            Msg::Upload { req_id, task }
                if self.cfg.exec_tier == ExecTier::Edge
                    && matches!(task, TaskRequest::Recognition { .. }) =>
            {
                // Run the DNN here on the edge box: slower silicon than the
                // cloud, but no WAN round trip.
                let (result, _) = self.executor.execute(&task);
                let cost_ns = self.edge_dnn_ns();
                let descriptor = self
                    .engine
                    .take_parked(conn, req_id)
                    .expect("upload for unknown request");
                self.service
                    .insert(&descriptor, Held::new(result.clone()), now);
                self.send_after(ctx, cost_ns, from, Msg::Result { req_id, result });
            }
            Msg::Upload { req_id, task } => {
                self.engine.on_upload(conn, req_id, task, now, &mut self.fx);
            }
            Msg::CloudReply { req_id, result } => {
                if let Some(frame_id) = self.prefetch_inflight.remove(&req_id) {
                    // A prefetch came back: content-address it and cache it.
                    if let TaskResult::Panorama(bytes) = &result {
                        // lint: allow(hash-where-named, a prefetched frame is named by no client yet so the edge addresses it itself)
                        let digest = coic_cache::Digest::of(bytes);
                        self.known_frames.insert(frame_id, digest);
                        let descriptor = FeatureDescriptor::PanoramaHash(digest);
                        self.service.insert(&descriptor, Held::new(result), now);
                    }
                    self.prefetching.remove(&frame_id);
                    return;
                }
                // The simulated WAN delivers or loses messages; it never
                // returns errors, so the breaker only ever hears successes.
                let held = Some(Held::new(result));
                self.engine
                    .on_cloud_reply(req_id >> 32, req_id, held, now, &mut self.fx);
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
                let cost_ns = match task {
                    TaskRequest::Recognition { .. } => self.edge_dnn_ns(),
                    _ => cloud_cost,
                };
                let client = NodeId((req_id >> 32) as usize);
                self.send_after(ctx, cost_ns, client, Msg::BaselineReply { req_id, result });
                return;
            }
            Msg::PeerQuery { req_id, digest } => {
                self.engine
                    .on_peer_query(conn, req_id, digest, now, &mut self.fx);
            }
            Msg::Replicate {
                token,
                digest,
                result,
                ..
            } => {
                self.engine
                    .on_replicate(conn, token, digest, Held::new(result), &mut self.fx);
            }
            Msg::PeerReply { req_id, result } => {
                let result = result.map(Held::new);
                self.engine
                    .on_peer_reply(from, req_id >> 32, req_id, result, now, &mut self.fx);
            }
            other => panic!("edge received unexpected {other:?}"),
        }
        self.realise(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let now = ctx.now().as_nanos();
        let probe = (token & ENGINE_TIMER != 0).then_some(token & !ENGINE_TIMER);
        if let Some(probe) = probe {
            self.settle_probe_timer(probe);
        }
        if self.is_down(now) {
            self.note_down(now);
            // Swallow the armed work so the map does not leak.
            self.slots.remove(&token);
            return;
        }
        // Probe deadlines go to the engine; service-completion timers
        // return their slot to it.
        if let Some(probe) = probe {
            self.engine
                .on_timer(EdgeTimer::Probe(probe), now, &mut self.fx);
        } else {
            let slot = self
                .slots
                .remove(&token)
                .expect("timer for unknown admission slot");
            self.engine.on_slot_free(slot, now, &mut self.fx);
        }
        self.realise(ctx);
    }

    fn on_depart(&mut self, ctx: &mut Ctx<'_, Msg>, departure: Departure<Msg>) {
        let now = ctx.now().as_nanos();
        if self.is_down(now) {
            // Died while the reply was being worked on: it never leaves.
            self.note_down(now);
            return;
        }
        departure.send(ctx);
    }
}

/// The simulated cloud: executes each task and replies once its compute
/// time has passed.
struct CloudNode {
    service: Arc<CloudService>,
}

impl Node<Msg> for CloudNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Forward { req_id, task } => {
                let (result, cost_ns) = self.service.execute(&task);
                let reply = Msg::CloudReply { req_id, result };
                let bytes = wire_len(&reply);
                ctx.send_after(SimDuration::from_nanos(cost_ns), from, bytes, reply);
            }
            Msg::BaselineRequest { req_id, task } => {
                // The issuing client's node id is encoded in the req_id.
                let client = NodeId((req_id >> 32) as usize);
                let (result, cost_ns) = self.service.execute(&task);
                let reply = Msg::BaselineReply { req_id, result };
                let bytes = wire_len(&reply);
                ctx.send_routed_after(SimDuration::from_nanos(cost_ns), client, bytes, reply);
            }
            other => panic!("cloud received unexpected {other:?}"),
        }
    }
}

/// Run `trace` under `cfg`; returns the QoE report.
///
/// # Panics
/// Panics if the trace is empty or the simulation stalls before all
/// requests complete (a protocol bug, which should fail loudly).
pub fn run(trace: &[coic_workload::Request], cfg: &SimConfig) -> QoeReport {
    simulate(trace, cfg, &Telemetry::disabled(), false).0
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
    simulate(trace, cfg, tel, true)
}

/// One run; the per-client decision traces are collected only when
/// `traced` (otherwise the returned list is empty).
fn simulate(
    trace: &[coic_workload::Request],
    cfg: &SimConfig,
    tel: &Telemetry,
    traced: bool,
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
    let mut access = LinkParams::mbps_ms(cfg.access_mbps, ACCESS_DELAY_MS);
    access.queue_limit_bytes = QUEUE_LIMIT_BYTES;
    access.loss = cfg.access_loss;
    let mut wan = LinkParams::mbps_ms(cfg.wan_mbps, WAN_DELAY_MS);
    wan.queue_limit_bytes = QUEUE_LIMIT_BYTES;
    wan.loss = cfg.wan_loss;
    let mut lan = LinkParams::mbps_ms(LAN_MBPS, LAN_DELAY_MS);
    lan.queue_limit_bytes = QUEUE_LIMIT_BYTES;

    // Per-client requests and edge assignment (by the zone of the client's
    // first request; populations are static so all its requests agree).
    let mut per_client: Vec<Vec<coic_workload::Request>> =
        vec![Vec::new(); cfg.num_clients as usize];
    for r in trace {
        per_client[r.user.0 as usize % cfg.num_clients as usize].push(*r);
    }
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
        .filter(|_| traced)
        .map(|_| Rc::default())
        .collect();

    // Robustness counter handles (clients and edges) for the end-of-run
    // registry publish.
    let mut robustness: Vec<RobustnessStats> = Vec::new();

    for (i, &cid) in client_ids.iter().enumerate() {
        let my_requests = std::mem::take(&mut per_client[i]);
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
                logic: client_logic.clone(),
                requests: my_requests,
                slots: vec![ReqSlot::Unissued; n],
                deadlines: vec![None; n],
                edge: client_edge[i],
                cloud: cloud_id,
                records: records.clone(),
                failures: failures.clone(),
                trace_out: traces.get(i).cloned(),
                tel: tel.clone(),
                client_idx: i as u64,
            }),
        );
    }
    let mut edge_services: Vec<Arc<EdgeService>> = Vec::new();
    let mut cluster_stats: Vec<ClusterStats> = Vec::new();
    // Every edge derives the same ring: build it once for all of them.
    let ring = cfg
        .cluster
        .as_ref()
        .map(|c| Arc::new(HashRing::new(cfg.num_edges, c.vnodes)));
    for (ei, &eid) in edge_ids.iter().enumerate() {
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
        let breaker = CircuitBreaker::new(3, Duration::from_millis(300));
        let service = Arc::new(EdgeService::new(&cfg.edge, SIM_CACHE_SHARDS));
        edge_services.push(service.clone());
        let overload = cfg
            .admission
            .clone()
            .map(|a| OverloadControl::new(a, cfg.brownout.clone()));
        let mut engine = EdgeEngine::new(service.clone(), breaker, stats, overload, tel.clone())
            .with_label(ei as u64);
        if let (Some(c), Some(ring)) = (&cfg.cluster, &ring) {
            let cl = ClusterState::on_ring(ei as u32, ring.clone(), c.clone());
            cluster_stats.push(cl.stats().clone());
            engine.join_cluster(cl, edge_ids.clone(), c.auth_token);
        }
        sim.bind(
            eid,
            Box::new(EdgeNode {
                cfg: cfg.clone(),
                engine,
                service,
                executor: cloud_service.clone(),
                cloud: cloud_id,
                fx: Vec::new(),
                probe_timers: Vec::new(),
                slots: HashMap::new(),
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
            service: cloud_service,
        }),
    );

    // Apply the wireless-fading schedule to every access link.
    for &(at_ms, mbps) in &cfg.access_schedule {
        let mut p = LinkParams::mbps_ms(mbps, ACCESS_DELAY_MS);
        p.queue_limit_bytes = QUEUE_LIMIT_BYTES;
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

    let decision_traces = traces.iter().map(|t| t.take()).collect();
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

    /// Two edges where a miss asks the other one and keeps what it fetched.
    fn pair() -> ClusterConfig {
        ClusterConfig {
            peer_fanout: 1,
            replicate_hot: 1,
            ..ClusterConfig::default()
        }
    }

    /// A model of `size_bytes` whose digest `edge` owns on a two-edge ring:
    /// the copy that edge fetches stays where the other one probes.
    fn owned_by(edge: u32, size_bytes: u64, cfg: &SimConfig) -> u64 {
        let ring = crate::cluster::HashRing::new(2, pair().vnodes);
        let models = cfg.content.models();
        (0..64)
            .find(|&m| ring.owner(&models.digest(m, size_bytes)) == edge)
            .expect("the edge owns some model")
    }

    /// Eight loads of one model, alternating between zones 0 and 1 (so
    /// edges 0 and 1), zone 0 first.
    fn two_zone_loads(model_id: u64) -> Vec<Request> {
        (0..8u64)
            .map(|i| Request {
                user: UserId(i as u32 % 4),
                zone: ZoneId((i % 4 % 2) as u32),
                at_ns: i * 400_000_000,
                kind: RequestKind::RenderLoad {
                    model_id,
                    size_bytes: 300_000,
                },
            })
            .collect()
    }

    #[test]
    fn multi_edge_cluster_serves_cross_zone_content() {
        // Users in two zones attach to two edges; zone 0 warms its edge,
        // then zone 1 requests the same model and must get a peer hit.
        let cfg = SimConfig {
            num_clients: 4,
            num_edges: 2,
            cluster: Some(pair()),
            ..SimConfig::default()
        };
        let reqs = two_zone_loads(owned_by(0, 300_000, &cfg));
        let report = run(&reqs, &cfg);
        assert_eq!(report.completed, 8);
        assert!(report.peer_hits >= 1, "expected peer hits, got {report:?}");
        assert!(report.lan_bytes > 0);
        // Only one cloud fetch of the model should ever happen per edge at
        // most; with the cluster, ideally once globally.
        assert!(
            report.cloud_trips <= 2,
            "cloud trips {}",
            report.cloud_trips
        );
    }

    #[test]
    fn multi_edge_without_cluster_pays_cloud_per_edge() {
        let mk = |cluster| SimConfig {
            num_clients: 4,
            num_edges: 2,
            cluster,
            ..SimConfig::default()
        };
        let reqs = two_zone_loads(owned_by(0, 300_000, &mk(None)));
        let without = run(&reqs, &mk(None));
        let with = run(&reqs, &mk(Some(pair())));
        assert_eq!(without.peer_hits, 0);
        assert!(with.peer_hits >= 1);
        assert!(with.wan_bytes < without.wan_bytes);
        assert!(with.mean_latency_ms() <= without.mean_latency_ms());
    }

    #[test]
    fn peer_hit_latency_sits_between_local_and_cloud() {
        // One warmed peer: the home edge's first request is a peer hit,
        // its second a local hit; a fresh model is a cloud miss.
        let cfg = SimConfig {
            num_clients: 2,
            num_edges: 2,
            cluster: Some(pair()),
            ..SimConfig::default()
        };
        let model_id = owned_by(1, 500_000, &cfg);
        // User u sits in zone u, so on edge u; one load a second.
        let load = |user: u32, at_s: u64| Request {
            user: UserId(user),
            zone: ZoneId(user),
            at_ns: at_s * 1_000_000_000,
            kind: RequestKind::RenderLoad {
                model_id,
                size_bytes: 500_000,
            },
        };
        let reqs = vec![load(1, 0), load(0, 1), load(0, 2)];
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
            retry: RetryPolicy::immediate(6, 0),
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
            retry: RetryPolicy::immediate(3, 0),
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
            retry: RetryPolicy::immediate(7, 0),
            ..small_cfg()
        };
        let report = run(&trace, &cfg);
        assert_eq!(report.completed + report.failed as usize, 25);
    }

    thread_local! {
        /// (requests still held in full, requests ended with only their
        /// truth) over the clients this thread's runs have dropped.
        static SLOTS_AT_DROP: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    impl Drop for ClientNode {
        fn drop(&mut self) {
            let count = |f: fn(&ReqSlot) -> bool| self.slots.iter().filter(|s| f(s)).count();
            let live = count(|s| matches!(s, ReqSlot::Live(_)));
            let ended = count(|s| matches!(s, ReqSlot::Ended(_)));
            SLOTS_AT_DROP.with(|c| c.set((c.get().0 + live, c.get().1 + ended)));
        }
    }

    #[test]
    fn a_recognition_run_keeps_no_frame_of_an_ended_request() {
        // Lossy links make retries and late duplicate replies, which are
        // judged against the truth an ended request keeps.
        let trace = recognition_trace(40);
        let cfg = SimConfig {
            wan_loss: 0.15,
            request_timeout_ms: 2_000,
            retry: RetryPolicy::immediate(7, 0),
            ..small_cfg()
        };
        SLOTS_AT_DROP.with(|c| c.set((0, 0)));
        let report = run(&trace, &cfg);
        assert_eq!(report.completed + report.failed as usize, 40);
        let (live, ended) = SLOTS_AT_DROP.with(|c| c.get());
        assert_eq!(live, 0, "{live} ended requests still hold their frame");
        assert_eq!(ended, 40);
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
