//! The traced run (`--trace 1`): per-layer numbers for one workload.
//!
//! End-to-end metrics never come from here. A traced run does, on the same
//! generated inputs: a short untraced run, for the counters the edge keeps
//! and the latency that tracing is compared with; **(A)** a raw `FrameConn`
//! client replaying requests against the live edge inside spans; **(B)** the
//! same requests pushed in-process through the stages the edge's handler
//! performs, as spans under the same request ids; **(C)** transport alone at
//! the workload's frame sizes (in `layers`); and the per-layer call timings.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use coic_cache::{IndexTelemetry, Lookup, Metrics, ShardedExactCache, SnapshotApproxCache};
use coic_core::descriptor::FeatureDescriptor;
use coic_core::netrun::NetConfig;
use coic_core::protocol::Msg;
use coic_core::services::{ClientLogic, CloudService, EdgeConfig, PreparedRequest};
use coic_core::simrun::{self, SimConfig};
use coic_core::task::{RecognitionResult, TaskRequest, TaskResult};
use coic_netsim::rt::{encode_frame, FrameConn, FrameDecoder};
use coic_obs::Telemetry;
use coic_workload::Request;

use crate::inputs::{self, Plan};
use crate::layers::{self, Bench, Probe, Values};
use crate::live::{
    edge_caches, query, run_closed, verify, warm_up, Content, Measured, Stack, Stop, Verdict,
};
use crate::open;
use crate::run::{self, Ready};
use crate::span::{self_times, SpanId, Tracer};
use crate::spec::{MIX_OPEN_LIMIT_US, MIX_OPEN_SATURATION_RPS, PER_LAYER};
use crate::stats::{self, percentile};
use crate::{Args, Outcome};

/// Most requests replayed by (A) and (B).
const REPLAY_REQUESTS: usize = 2_000;
/// Wire ids of replayed requests, clear of every other client's.
const REPLAY_FIRST_ID: u64 = 2_000_000;

fn median_us(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5).map_or(0.0, |p| p as f64 / 1e3)
}

/// The cache counters an edge handle exposes.
#[derive(Clone, Copy, Default)]
struct EdgeCounters {
    exact: Metrics,
    recog: Metrics,
    index: IndexTelemetry,
}

impl EdgeCounters {
    fn read(stack: &Stack) -> EdgeCounters {
        EdgeCounters {
            exact: stack.edge.exact_cache_metrics(),
            recog: stack.edge.recog_cache_metrics(),
            index: stack.edge.index_telemetry(),
        }
    }
}

/// Counts of the timed part alone: after minus before.
fn counter_values(v: &mut Values, before: &EdgeCounters, after: &EdgeCounters, answered: u64) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    v.insert("cache.exact_hits", d(after.exact.hits, before.exact.hits));
    v.insert(
        "cache.exact_misses",
        d(after.exact.misses, before.exact.misses),
    );
    v.insert(
        "cache.exact_insertions",
        d(after.exact.insertions, before.exact.insertions),
    );
    v.insert(
        "cache.exact_evictions",
        d(after.exact.evictions, before.exact.evictions),
    );
    v.insert("cache.recog_hits", d(after.recog.hits, before.recog.hits));
    v.insert(
        "cache.recog_misses",
        d(after.recog.misses, before.recog.misses),
    );
    v.insert(
        "index.rebuilds",
        d(after.index.rebuilds, before.index.rebuilds),
    );
    let lookups = d(
        after.exact.lookups() + after.recog.lookups(),
        before.exact.lookups() + before.recog.lookups(),
    );
    if answered > 0 {
        v.insert("cache.lookups_per_request", lookups / answered as f64);
    }
    let index_lookups = d(after.index.lookups, before.index.lookups);
    if index_lookups > 0.0 {
        v.insert(
            "index.probes_per_lookup",
            d(after.index.probe_count, before.index.probe_count) / index_lookups,
        );
    }
}

/// Tail and count of a timed run; the percentiles an end-to-end bound would
/// be too noisy for.
fn harness_values(v: &mut Values, m: &Measured) {
    let mut lat: Vec<u64> = m.samples.iter().map(|s| s.lat_ns()).collect();
    lat.sort_unstable();
    let us = |ns: Option<u64>| ns.map_or(0.0, |n| n as f64 / 1e3);
    for (name, p) in [("harness.lat_p95_us", 0.95), ("harness.lat_p99_us", 0.99)] {
        if stats::supports(lat.len(), p) {
            v.insert(name, us(percentile(&lat, p)));
        }
    }
    v.insert("harness.lat_max_us", us(lat.last().copied()));
    v.insert("harness.samples", lat.len() as f64);
    v.insert(
        "harness.fail_share",
        m.tally.failed as f64 / m.tally.attempted.max(1) as f64,
    );
    v.insert("engine.retries", m.tally.retries as f64);
    if !m.late_ns.is_empty() {
        let mut late = m.late_ns.clone();
        late.sort_unstable();
        v.insert("harness.gen_late_p99_us", us(percentile(&late, 0.99)));
        v.insert("harness.slo_share", open::slo_share(m));
    }
}

/// One replayed request as (A) saw it.
struct Replayed {
    hit: bool,
    request_ns: u64,
    wait_ns: u64,
    ok: bool,
}

/// (A): a harness-driven raw client against the live edge, one request at
/// a time, with a span around each thing the client does.
fn replay_live(
    tr: &mut Tracer,
    stack: &Stack,
    logic: &ClientLogic,
    requests: &[Request],
    first_id: u64,
    budget: Duration,
) -> std::io::Result<Vec<Replayed>> {
    let mut conn = FrameConn::connect(stack.edge.addr())?;
    conn.set_read_deadline(Some(Duration::from_secs(5)))?;
    let mut out = Vec::with_capacity(requests.len());
    let deadline = Instant::now() + budget;
    let fail = |e: &dyn std::fmt::Display| std::io::Error::other(e.to_string());
    for (i, req) in requests.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = first_id + i as u64;
        let begun = Instant::now();
        let root = tr.start("request", None, id);
        let prepared = tr.time("client.prepare", Some(root), id, || logic.prepare(req));
        let mut outgoing = query(id, &prepared);
        let mut upload = match prepared.task {
            task @ TaskRequest::Recognition { .. } => Some(task),
            _ => None,
        };
        let mut wait_ns = 0;
        let (result, hit) = loop {
            let bytes = tr.time("protocol.encode", Some(root), id, || outgoing.encode());
            tr.time("rt.send", Some(root), id, || conn.send(&bytes))
                .map_err(|e| fail(&e))?;
            let sent = Instant::now();
            let frame = tr
                .time("netrun.wait_reply", Some(root), id, || conn.recv())
                .map_err(|e| fail(&e))?;
            wait_ns += sent.elapsed().as_nanos() as u64;
            let msg = tr.time("protocol.decode", Some(root), id, || Msg::decode(&frame));
            match (msg, upload.take()) {
                (Ok(Msg::NeedPayload { .. }), Some(task)) => {
                    outgoing = Msg::Upload { req_id: id, task };
                }
                (Ok(Msg::Hit { result, .. }), _) => break (Some(result), true),
                (Ok(Msg::Result { result, .. }), _) => break (Some(result), false),
                _ => break (None, false),
            }
        };
        let ok = tr.time("check", Some(root), id, || {
            result.is_some_and(|r| verify(&stack.content, req, &r) != Verdict::Wrong)
        });
        tr.end(root);
        out.push(Replayed {
            hit,
            request_ns: begun.elapsed().as_nanos() as u64,
            wait_ns,
            ok,
        });
    }
    Ok(out)
}

/// (B): the edge's caches and the cloud's service, built as the live edge
/// builds them, so that the handler's stages can be run and timed one by one
/// from outside the program.
struct EdgeReplica {
    exact: ShardedExactCache<TaskResult>,
    approx: SnapshotApproxCache<RecognitionResult>,
    cloud: CloudService,
    decoder: FrameDecoder,
}

impl EdgeReplica {
    fn new(edge: &EdgeConfig, content: &Content) -> EdgeReplica {
        let (exact, approx) = edge_caches(edge);
        EdgeReplica {
            exact,
            approx,
            cloud: content.cloud_service(),
            decoder: FrameDecoder::new(),
        }
    }

    /// Frame in, message out: what the IO driver and the handler do first.
    fn receive(&mut self, tr: &mut Tracer, root: SpanId, id: u64, msg: &Msg) -> Option<Msg> {
        let wire = encode_frame(&msg.encode()).ok()?;
        let frame = tr.time("rt.frame_decode", Some(root), id, || {
            self.decoder.push(&wire);
            self.decoder.next_frame()
        });
        let frame = frame.ok()??;
        tr.time("protocol.decode", Some(root), id, || {
            Msg::decode(&frame).ok()
        })
    }

    /// Message out, frame out: what the handler and the IO driver do last.
    fn send(tr: &mut Tracer, root: SpanId, id: u64, msg: &Msg) {
        let bytes = tr.time("protocol.encode", Some(root), id, || msg.encode());
        tr.time("rt.frame_encode", Some(root), id, || {
            encode_frame(&bytes).ok()
        });
    }

    /// One request through every server-side stage, each a child span of
    /// one `edge.replay` span. Returns whether the cache answered it, and
    /// that span.
    fn serve(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        prepared: &PreparedRequest,
    ) -> Option<(bool, SpanId)> {
        let now = id;
        let root = tr.start("edge.replay", None, id);
        let Msg::Query { descriptor, .. } = self.receive(tr, root, id, &query(id, prepared))?
        else {
            return None;
        };
        let cached: Option<TaskResult> =
            tr.time("cache.lookup", Some(root), id, || match &descriptor {
                FeatureDescriptor::Dnn(v) => match self.approx.lookup(v, now) {
                    Lookup::Miss => None,
                    hit => hit.value().map(|r| TaskResult::Recognition(**r)),
                },
                FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d) => {
                    self.exact.lookup(d, now).map(|r| TaskResult::clone(&r))
                }
            });
        let hit = cached.is_some();
        let reply = match cached {
            Some(result) => Msg::Hit { req_id: id, result },
            None => {
                if matches!(descriptor, FeatureDescriptor::Dnn(_)) {
                    // A recognition miss costs a second round trip: the
                    // edge asks for the frame and the client uploads it.
                    Self::send(tr, root, id, &Msg::NeedPayload { req_id: id });
                    let upload = Msg::Upload {
                        req_id: id,
                        task: prepared.task.clone(),
                    };
                    self.receive(tr, root, id, &upload)?;
                }
                // The cloud leg: forward, execute, reply.
                let forward = Msg::Forward {
                    req_id: id,
                    task: prepared.task.clone(),
                };
                Self::send(tr, root, id, &forward);
                let Msg::Forward { task, .. } = self.receive(tr, root, id, &forward)? else {
                    return None;
                };
                let (result, _) = tr.time("cloud.execute", Some(root), id, || {
                    self.cloud.execute(&task)
                });
                let cloud_reply = Msg::CloudReply {
                    req_id: id,
                    result: result.clone(),
                };
                Self::send(tr, root, id, &cloud_reply);
                self.receive(tr, root, id, &cloud_reply)?;
                tr.time("cache.insert", Some(root), id, || {
                    match (&descriptor, &result) {
                        (FeatureDescriptor::Dnn(v), TaskResult::Recognition(r)) => {
                            let size = v.byte_size() + result.byte_size();
                            self.approx.insert(v.clone(), *r, size, now);
                        }
                        (
                            FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d),
                            _,
                        ) => {
                            self.exact
                                .insert(*d, result.clone(), result.byte_size(), now);
                        }
                        _ => {}
                    }
                });
                Msg::Result { req_id: id, result }
            }
        };
        Self::send(tr, root, id, &reply);
        tr.end(root);
        Some((hit, root))
    }
}

/// (A) and (B) on the same requests, reduced per path. The identity
/// `wait_reply = stages + echo_rtt + unattributed` holds by construction.
fn replay(
    tr: &mut Tracer,
    v: &mut Values,
    ready: &Ready,
    stack: &Stack,
    requests: &[Request],
    budget: Duration,
) -> std::io::Result<(u64, u64)> {
    let logic = stack.content.client_logic();
    // The first half runs with the tracer off, the second with it on: the
    // same client code on fresh requests, so the difference is tracing.
    let (plain, requests) = requests.split_at(requests.len() / 2);
    let untraced = replay_live(
        &mut Tracer::off(),
        stack,
        &logic,
        plain,
        REPLAY_FIRST_ID,
        budget / 2,
    )?;
    let first_id = REPLAY_FIRST_ID + plain.len() as u64;
    let live = replay_live(tr, stack, &logic, requests, first_id, budget / 2)?;
    let failed = untraced.iter().chain(&live).filter(|r| !r.ok).count() as u64;

    let mut replica = EdgeReplica::new(&ready.inputs.edge, &stack.content);
    let warmup = match &ready.inputs.plan {
        Plan::Closed { warmup, .. } | Plan::Open { warmup, .. } => warmup.as_slice(),
        Plan::Sim { .. } => &[],
    };
    // The replica's caches are filled as the live edge's were, outside the
    // trace.
    let mut scratch = Tracer::off();
    for (i, req) in warmup.iter().chain(plain).enumerate() {
        replica.serve(&mut scratch, i as u64, &logic.prepare(req));
    }
    let mut served = Vec::new();
    for (i, req) in requests.iter().take(live.len()).enumerate() {
        let prepared = logic.prepare(req);
        served.extend(replica.serve(tr, first_id + i as u64, &prepared));
    }
    // A request's stage time is the self time of its stage spans; what is
    // left of `edge.replay` is the harness moving between them. Framing
    // (`rt.*`) is left out of the sum: the echo of (C) moves frames of the
    // same sizes and already pays for it.
    let self_ns = self_times(&tr.spans);
    let mut stages: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for (hit, root) in served {
        let children = tr.spans[root + 1..]
            .iter()
            .zip(&self_ns[root + 1..])
            .take_while(|(s, _)| s.parent == Some(root))
            .filter(|(s, _)| !s.name.starts_with("rt."));
        stages[usize::from(hit)].push(children.map(|(_, ns)| ns).sum());
    }
    let echo_us = v.get("rt.echo_rtt_us").copied().unwrap_or(0.0);
    for (hit, wait_name, stages_name, rest_name) in [
        (
            true,
            "netrun.wait_reply_us.hit",
            "netrun.stages_us.hit",
            "netrun.unattributed_us.hit",
        ),
        (
            false,
            "netrun.wait_reply_us.miss",
            "netrun.stages_us.miss",
            "netrun.unattributed_us.miss",
        ),
    ] {
        let waits: Vec<u64> = live
            .iter()
            .filter(|r| r.hit == hit && r.ok)
            .map(|r| r.wait_ns)
            .collect();
        if waits.is_empty() || stages[usize::from(hit)].is_empty() {
            continue;
        }
        let (wait_us, stages_us) = (median_us(&waits), median_us(&stages[usize::from(hit)]));
        v.insert(wait_name, wait_us);
        v.insert(stages_name, stages_us);
        v.insert(rest_name, wait_us - stages_us - echo_us);
    }
    let p50 = |runs: &[Replayed]| median_us(&runs.iter().map(|r| r.request_ns).collect::<Vec<_>>());
    if !untraced.is_empty() && !live.is_empty() {
        v.insert(
            "harness.trace_overhead_share",
            p50(&live) / p50(&untraced) - 1.0,
        );
    }
    Ok(((untraced.len() + live.len()) as u64, failed))
}

/// `obs.tax_share`: the closed loop against a second edge whose
/// `NetConfig.telemetry` records, over the same loop with it disabled.
fn telemetry_tax(args: &Args, untraced_p50_us: f64, stop: Stop) -> std::io::Result<Option<f64>> {
    let net = NetConfig::builder().telemetry(Telemetry::new()).build();
    let mut ready = run::set_up(&args.workload, args.seed, args.horizon(), net)?;
    let Plan::Closed { streams, .. } = &ready.inputs.plan else {
        return Ok(None);
    };
    let stack = ready.stack.as_ref().expect("closed loop has a stack");
    let m = run_closed(&mut ready.clients, stack, streams, stop);
    Ok(stats::sliced(&m.samples, m.wall_ns)
        .filter(|_| untraced_p50_us > 0.0)
        .map(|s| s.p50_us / untraced_p50_us - 1.0))
}

/// `harness.knee_rps`: `mix_open` at five fixed rates, 20 % to 100 % of the
/// seed commit's saturation rate. The knee is the highest rate whose 95th
/// percentile from due time meets the limit while the backlog does not grow
/// (the last quarter of the run is no slower than twice the first).
fn knee(args: &Args, stack: &Stack, step: Duration) -> std::io::Result<(f64, String)> {
    let logic = stack.content.client_logic();
    let mut client = stack.client()?;
    let limit_ns = (MIX_OPEN_LIMIT_US * 1e3) as u64;
    let mut knee = 0.0;
    let mut steps = String::new();
    for k in 1..=5u64 {
        let began = Instant::now();
        let rate = MIX_OPEN_SATURATION_RPS * k as f64 / 5.0;
        // Each step watches panorama frames of its own (epoch `k`), with
        // the first window loaded as the timed run's is.
        warm_up(
            &mut client,
            &stack.content,
            &inputs::mix_window(args.seed, k),
        );
        let schedule = inputs::mix_schedule(args.seed, k, rate, step.as_nanos() as u64);
        let scheduled = open::prepare(&logic, &schedule);
        let m = open::run_open(stack.edge.addr(), &stack.content, &scheduled, limit_ns)?;
        let mut lat: Vec<u64> = m.samples.iter().map(|s| s.lat_ns()).collect();
        lat.sort_unstable();
        let quarter = |from: u64, to: u64| {
            let mut q: Vec<u64> = m
                .samples
                .iter()
                .filter(|s| s.done_ns() * 4 >= from * m.wall_ns && s.done_ns() * 4 < to * m.wall_ns)
                .map(|s| s.lat_ns())
                .collect();
            q.sort_unstable();
            percentile(&q, 0.5).unwrap_or(0)
        };
        let meets = m.tally.failed == 0
            && percentile(&lat, 0.95).is_some_and(|p| p <= limit_ns)
            && quarter(3, 5) <= 2 * quarter(0, 1) + limit_ns / 10;
        if meets {
            knee = rate;
        }
        steps.push_str(&format!(
            "{rate}rps:p50={:.0}us,p95={:.0}us,slo={:.3},{},{:.1}s ",
            percentile(&lat, 0.5).unwrap_or(0) as f64 / 1e3,
            percentile(&lat, 0.95).unwrap_or(0) as f64 / 1e3,
            open::slo_share(&m),
            if meets { "meets" } else { "misses" },
            began.elapsed().as_secs_f64()
        ));
    }
    Ok((knee, steps.trim_end().to_string()))
}

/// Epoch of the `mix_open` schedule that (A) and (B) replay.
const REPLAY_EPOCH: u64 = 9;

/// The requests (A) and (B) replay: the end of client 0's stream, which the
/// untraced run has not reached (a recognition seen before would hit on its
/// own descriptor), or a fresh epoch of the open-loop mix in due order.
fn replay_requests(plan: &Plan, seed: u64, most: usize) -> Vec<Request> {
    match plan {
        Plan::Closed { streams, .. } => {
            let s = &streams[0];
            s[s.len().saturating_sub(most)..].to_vec()
        }
        Plan::Open { .. } => inputs::mix_schedule(seed, REPLAY_EPOCH, 1_000.0, 2_000_000_000)
            .into_iter()
            .map(|(_, r)| r)
            .take(most)
            .collect(),
        Plan::Sim { traces, .. } => traces[0].clone(),
    }
}

pub fn traced_run(args: &Args, ready: &mut Ready) -> std::io::Result<Outcome> {
    let mut v: Values = BTreeMap::new();
    let mut tr = Tracer::default();
    let mut info = Vec::new();
    let mut phases = String::new();
    let mut phase_began = Instant::now();
    let mut phase = |name: &str| {
        phases.push_str(&format!(
            "{name}:{:.2} ",
            phase_began.elapsed().as_secs_f64()
        ));
        phase_began = Instant::now();
    };
    let part = args.horizon() / 4;
    let stop = match args.ops {
        Some(n) => Stop::Ops(n),
        None => Stop::After(part),
    };
    if ready.inputs.generated > 0 {
        v.insert(
            "workload.gen_ns_per_req",
            ready.gen_ns as f64 / ready.inputs.generated as f64,
        );
    }

    // The untraced run: the edge's counters and the untraced latency.
    let before = ready.stack.as_ref().map(EdgeCounters::read);
    let m = run::timed_run(ready, stop)?;
    let facts = ready.sim.clone();
    harness_values(&mut v, &m);
    let untraced = stats::sliced(&m.samples, m.wall_ns);
    let (mut attempted, mut failed) = (m.tally.attempted, m.tally.failed);
    if let (Some(stack), Some(before)) = (&ready.stack, &before) {
        counter_values(
            &mut v,
            before,
            &EdgeCounters::read(stack),
            m.tally.correct(),
        );
    }

    phase("untraced");
    let most = if args.quick {
        REPLAY_REQUESTS / 10
    } else {
        REPLAY_REQUESTS
    };
    let requests = replay_requests(&ready.inputs.plan, args.seed, most);
    let probe = Probe::of(&requests, args.seed);
    let content = ready.stack.as_ref().map_or_else(
        || Content::new(ready.inputs.pano_height),
        |s| s.content.clone(),
    );
    let population = ready.stack.as_ref().map_or(0, |s| {
        let t = s.edge.index_telemetry();
        (t.snapshot_len + t.journal_depth) as usize
    });
    let mut bench = Bench {
        tracer: &mut tr,
        batches: if args.quick { 3 } else { layers::BATCHES },
    };
    v.extend(layers::measure(
        &mut bench,
        &probe,
        &content,
        &ready.inputs.edge,
        population.max(256),
    ));

    phase("layers");
    match &ready.inputs.plan {
        Plan::Sim { traces, config } => {
            let span = tr.start("simrun.run", None, 0);
            let report = simrun::run(&traces[0], config);
            tr.end(span);
            let wall_us = tr.spans[span].duration_ns() as f64 / 1e3;
            v.insert("simrun.wall_us_per_req", wall_us / traces[0].len() as f64);
            v.insert("simrun.virtual_p50_ms", facts.virtual_p50_ms);
            v.insert(
                "simrun.report_fnv",
                (facts.report_fnv[0] & 0xffff_ffff) as f64,
            );
            v.insert("cluster.peer_hits", facts.peer_hits as f64);
            v.insert("cluster.lan_bytes", facts.lan_bytes as f64);
            attempted += traces[0].len() as u64;
            failed += report.failed;
            info.push(("report_fnv", format!("{:016x}", facts.report_fnv[0])));
        }
        plan => {
            let stack = ready.stack.as_ref().expect("live workload has a stack");
            if let Plan::Open { .. } = plan {
                let window = inputs::mix_window(args.seed, REPLAY_EPOCH);
                warm_up(&mut stack.client()?, &stack.content, &window);
            }
            let (n, bad) = replay(&mut tr, &mut v, ready, stack, &requests, part)?;
            attempted += n;
            failed += bad;
        }
    }
    phase("replay");
    if args.workload == "recog_shared" {
        // The simulator's accuracy on the same recognitions, to set beside
        // the live `accuracy` (a gap above 0.01 is explained in the README).
        let config = SimConfig::builder().num_clients(2).seed(args.seed).build();
        if let Some(a) = simrun::run(&requests, &config).accuracy {
            v.insert("simrun.accuracy", a);
        }
    }
    if args.workload == "hit_small" {
        let p50 = untraced.as_ref().map_or(0.0, |u| u.p50_us);
        if let Some(tax) = telemetry_tax(args, p50, stop)? {
            v.insert("obs.tax_share", tax);
        }
    }
    if let (Plan::Open { .. }, Some(stack)) = (&ready.inputs.plan, &ready.stack) {
        let (rate, steps) = knee(args, stack, part)?;
        v.insert("harness.knee_rps", rate);
        info.push(("knee_steps", steps));
    }

    phase("extras");
    info.push(("phase_s", phases.trim_end().to_string()));
    let path = args.out_dir.join(format!("trace_{}.jsonl", args.workload));
    tr.write_jsonl(&path)?;
    info.push(("trace_file", path.display().to_string()));
    info.push(("spans", tr.spans.len().to_string()));
    failed += ready.warmup.failed;
    attempted += ready.warmup.attempted;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (*m, v.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        info,
    })
}
