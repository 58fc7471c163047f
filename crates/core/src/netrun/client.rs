//! The live client: a blocking driver realising the effects of the sans-IO
//! [`ClientEngine`] over framed TCP — `SendQuery` → an exchange with the
//! edge, `ArmTimer(Backoff)` → sleep, `ArmTimer(Deadline)` → the socket's
//! read deadline, `ProbeEdge` → reconnect — the counterpart of the
//! simulator's client node.

use super::{send_msg, NetConfig};
use crate::compute::ComputeConfig;
use crate::content::{ModelLibrary, PanoLibrary};
use crate::engine::{
    ClientEngine, Clock, Decision, Effect, EngineConfig, ReplyKind, RobustnessStats, TimerKind,
    WallClock,
};
use crate::protocol::Msg;
use crate::qoe::QoeReport;
use crate::services::{ClientConfig, ClientLogic, PreparedRequest};
use crate::task::TaskResult;
use crate::telemetry::{path_label, record_decision};
use coic_netsim::rt::{FaultError, FrameConn, FrameError};
use coic_obs::{MetricsRegistry, Telemetry, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

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
    /// Every completion so far, folded as it happens.
    report: QoeReport,
    /// The decisions of the latest `execute`, until drained or replaced.
    decisions: Vec<Decision>,
}

/// How long a dropped [`NetClient`] waits for the edge to close the
/// connection it hung up on. On loopback the edge is done in a few tens of
/// microseconds; an edge still busy with an abandoned request is left to
/// finish on its own.
const HANG_UP_WAIT: Duration = Duration::from_millis(50);

/// A dropped client hangs up and waits for the edge to close: by the time
/// the drop returns, the edge has let go of everything it kept for the
/// connection — descriptors awaiting an upload, the idle cloud connection
/// its misses ran on — so a client that reconnects finds that cloud
/// connection released for its new connection, not still held for the old
/// one (DESIGN.md §17).
impl Drop for NetClient {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.hang_up(HANG_UP_WAIT);
        }
    }
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
            report: QoeReport::default(),
            decisions: Vec::new(),
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

    /// The QoE of every request completed so far — the same report type
    /// the simulator emits (byte counts are not populated on the live
    /// path).
    pub fn report(&self) -> QoeReport {
        self.report.clone()
    }

    /// Publish this client's aggregate QoE (`qoe.*`) and robustness
    /// counters (`robustness.*`) into `reg` — typically the registry of
    /// the [`Telemetry`] handle the client was configured with.
    pub fn publish_metrics(&self, reg: &MetricsRegistry) {
        self.report().publish(reg);
        self.stats.snapshot().publish(reg);
    }

    /// Take the engine's decisions (hit/miss/retry/fallback sequence) for
    /// the latest [`NetClient::execute`]; the next `execute` replaces what
    /// was not taken. Collected after every `execute`, they are the trace
    /// a simulator run of the same workload produces.
    pub fn drain_decisions(&mut self) -> std::vec::Drain<'_, Decision> {
        self.decisions.drain(..)
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
        prepared: &PreparedRequest,
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
        self.edge_exchange(req_id, &query, slot)
    }

    /// Send `msg` to the edge, receive its reply frame and feed it to the
    /// engine.
    fn edge_exchange(
        &mut self,
        req_id: u64,
        msg: &Msg,
        slot: &mut Option<TaskResult>,
    ) -> Vec<Effect> {
        let Some(conn) = self.conn.as_mut() else {
            return self.engine.on_transport_failure(req_id);
        };
        let frame = match send_msg(conn, msg, None).and_then(|()| conn.recv()) {
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

    /// Origin path: ask the cloud directly, bypassing the edge.
    fn origin_exchange(
        &mut self,
        req_id: u64,
        prepared: &PreparedRequest,
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
        let now = self.clock.now_ns();
        self.decisions.clear();
        for d in self.engine.drain_decisions() {
            record_decision(&self.tel, now, 0, &d);
            self.decisions.push(d);
        }
        let (exit_ns, path) = match &outcome {
            Ok(out) => {
                let elapsed_ns = out.elapsed.as_nanos() as u64;
                self.tel.observe("qoe.latency_ns", elapsed_ns);
                (issued_ns + elapsed_ns, path_label(out.path))
            }
            Err(_) => (now, "failed"),
        };
        self.tel.span_exit_with(exit_ns, "request", || {
            vec![
                ("client", Value::from(0u64)),
                ("seq", Value::from(seq)),
                ("path", Value::from(path)),
            ]
        });
        outcome
    }

    /// Pump the engine's effects for one request to completion.
    fn drive(
        &mut self,
        req_id: u64,
        issued_ns: u64,
        prepared: &PreparedRequest,
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
                Effect::SendUpload { .. } => {
                    // Answer a `NeedPayload` with the full task.
                    let task = prepared.task.clone();
                    self.edge_exchange(req_id, &Msg::Upload { req_id, task }, &mut slot)
                }
                Effect::SendOrigin { .. } => {
                    if self.cloud_addr.is_none() {
                        // Unreachable by construction (origin_fallback is
                        // only set with a cloud address), but fail safe.
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
                    self.report.push(&record);
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
    use super::super::{spawn_cloud, spawn_edge, CloudHandle, EdgeHandle, FrameServer};
    use super::*;
    use crate::engine::{FaultSchedule, RetryPolicy};
    use crate::qoe::Path;
    use crate::services::EdgeConfig;
    use coic_vision::ObjectClass;
    use coic_workload::{Request, RequestKind, UserId, ZoneId};
    use std::sync::atomic::{AtomicBool, Ordering};
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
        let mut decisions: Vec<_> = client.drain_decisions().collect();
        match &first.result {
            TaskResult::Recognition(r) => assert_eq!(r.label, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Same viewpoint again: identical descriptor, guaranteed hit.
        let second = client.execute(&recog(2, 10)).unwrap();
        assert_eq!(second.path, Path::EdgeHit);
        decisions.extend(client.drain_decisions());

        // The live client populates the same QoE report the simulator
        // emits: two completions, one hit, one cloud trip, real latencies.
        let report = client.report();
        assert_eq!(report.completed, 2);
        assert_eq!(report.edge_hits, 1);
        assert_eq!(report.cloud_trips, 1);
        assert!(report.mean_latency_ms() > 0.0);
        // And the decision trace names the same path sequence.
        assert_eq!(
            decisions,
            [
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
    fn a_dropped_client_returns_only_once_the_edge_has_let_go() {
        // An edge slow to let go of a closed connection: the drop waits
        // for it instead of leaving it to happen after.
        let let_go = Arc::new(AtomicBool::new(false));
        let flag = let_go.clone();
        let edge = FrameServer::spawn_conn(
            "127.0.0.1:0",
            |_, _| None,
            move |_| {
                std::thread::sleep(Duration::from_millis(10));
                flag.store(true, Ordering::SeqCst);
            },
        )
        .unwrap();
        let client = NetClient::connect(
            edge.local_addr(),
            ClientConfig::default(),
            ComputeConfig::default(),
            Arc::new(ModelLibrary::new()),
            Arc::new(PanoLibrary::new(64)),
        )
        .unwrap();
        drop(client);
        assert!(let_go.load(Ordering::SeqCst));
    }
}
