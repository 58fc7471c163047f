//! Determinism tests: the engines are the single decision-makers, so (a)
//! the same seeded workload and fault schedule through the simulator twice
//! yields byte-identical QoE reports, and (b) the simulator and the live
//! TCP stack traverse byte-identical decision traces — timestamps differ
//! (virtual vs wall clock) but every hit/miss/retry/degrade choice agrees,
//! the client's and the edge's alike, and they keep the same exact cache.

use coic::cache::Metrics;
use coic::core::netrun::{spawn_cloud, spawn_edge_with, NetClient, NetConfig};
use coic::core::simrun::{run_instrumented, run_traced, Mode, SimConfig};
use coic::core::{
    ClientConfig, ComputeConfig, Decision, EdgeConfig, FaultSchedule, ModelLibrary, PanoLibrary,
    Path, QoeReport, RetryPolicy,
};
use coic::obs::Telemetry;
use coic::vision::ObjectClass;
use coic::workload::{Request, RequestKind, UserId, ZoneId};
use std::sync::Arc;
use std::time::Duration;

/// One client requesting panorama frames [0, 0, 1]: a cloud miss, an edge
/// hit, then a request whose edge leg is killed by the fault schedule.
fn pano_trace() -> Vec<Request> {
    pano_requests([0, 0, 1])
}

/// One client requesting `frames` in order, a millisecond apart.
fn pano_requests(frames: impl IntoIterator<Item = u64>) -> Vec<Request> {
    frames
        .into_iter()
        .enumerate()
        .map(|(i, frame_id)| Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: i as u64 * 1_000_000,
            kind: RequestKind::Panorama { frame_id },
        })
        .collect()
}

/// The shared retry policy: backoff jitter is seeded, so the sim and the
/// live client compute identical (if differently-realized) delays.
fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter_frac: 0.3,
        seed: 7,
    }
}

/// Every edge attempt of the third request (seq 2) fails.
fn faults() -> FaultSchedule {
    FaultSchedule::new().drop_edge_request(2)
}

/// The decision sequence both drivers must produce for this workload.
fn expected_trace() -> Vec<Decision> {
    vec![
        Decision::Attempt { seq: 0, attempt: 0 },
        Decision::Complete {
            seq: 0,
            path: Path::CloudMiss,
        },
        Decision::Attempt { seq: 1, attempt: 0 },
        Decision::Complete {
            seq: 1,
            path: Path::EdgeHit,
        },
        Decision::Attempt { seq: 2, attempt: 0 },
        Decision::AttemptFailed { seq: 2, attempt: 0 },
        Decision::Retry { seq: 2, attempt: 1 },
        Decision::Attempt { seq: 2, attempt: 1 },
        Decision::AttemptFailed { seq: 2, attempt: 1 },
        Decision::Retry { seq: 2, attempt: 2 },
        Decision::Attempt { seq: 2, attempt: 2 },
        Decision::AttemptFailed { seq: 2, attempt: 2 },
        Decision::Degrade { seq: 2 },
        Decision::OriginAttempt { seq: 2, attempt: 0 },
        Decision::Complete {
            seq: 2,
            path: Path::Baseline,
        },
    ]
}

fn sim_config() -> SimConfig {
    SimConfig {
        mode: Mode::CoIc,
        num_clients: 1,
        retry: policy(),
        origin_fallback: true,
        request_timeout_ms: 200,
        faults: faults(),
        seed: 7,
        ..SimConfig::default()
    }
}

#[test]
fn sim_twice_is_byte_identical() {
    let trace = pano_trace();
    let cfg = sim_config();
    let (mut a, traces_a) = run_traced(&trace, &cfg);
    let (mut b, traces_b) = run_traced(&trace, &cfg);
    assert_eq!(a.canonical(), b.canonical(), "QoE reports must agree");
    assert_eq!(traces_a, traces_b, "decision traces must agree");
}

/// The edge's decisions in a trace: each edge event's name with its `kind`
/// and `hit` fields — no time, request or edge id, which differ between
/// the drivers by construction.
fn edge_decisions(tel: &Telemetry) -> Vec<String> {
    let edge = ["edge.", "cloud.", "flight.", "cluster.", "decision.peer_"];
    tel.trace()
        .events()
        .into_iter()
        .filter(|e| edge.iter().any(|p| e.name.starts_with(p)))
        .map(|e| {
            let mut line = e.name.to_string();
            for (key, value) in e.fields.iter().filter(|f| ["kind", "hit"].contains(&f.0)) {
                line += &format!(" {key}={value:?}");
            }
            line
        })
        .collect()
}

/// Run the live loopback leg: same retry policy, same fault schedule as
/// the simulator leg. Returns the client's decision trace, its QoE report
/// and the edge's decisions.
fn live_leg() -> (Vec<Decision>, QoeReport, Vec<String>) {
    let trace = pano_trace();
    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes = vec![ObjectClass(0)];
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 7).unwrap();
    let tel = Telemetry::new();
    let edge_net = NetConfig::builder().telemetry(tel.clone()).build();
    let edge = spawn_edge_with(cloud.addr(), &EdgeConfig::default(), edge_net, None).unwrap();
    let net = NetConfig::builder()
        .retry(policy())
        .faults(faults())
        .build();
    let mut client = NetClient::connect_with(
        edge.addr(),
        Some(cloud.addr()),
        net,
        ClientConfig::default(),
        compute,
        models,
        panos,
    )
    .unwrap();
    let mut live_paths = Vec::new();
    let mut decisions = Vec::new();
    for req in &trace {
        live_paths.push(client.execute(req).unwrap().path);
        decisions.extend(client.drain_decisions());
    }
    assert_eq!(live_paths, [Path::CloudMiss, Path::EdgeHit, Path::Baseline]);
    assert!(client.is_degraded(), "edge leg of seq 2 was exhausted");
    (decisions, client.report(), edge_decisions(&tel))
}

#[test]
fn sim_and_live_traverse_identical_decision_traces() {
    // Simulator leg.
    let tel = Telemetry::new();
    let (sim_report, sim_traces) = run_instrumented(&pano_trace(), &sim_config(), &tel);
    assert_eq!(sim_report.completed, 3);
    assert_eq!(sim_traces.len(), 1);
    assert_eq!(sim_traces[0], expected_trace());

    // The tentpole claim: byte-identical decision sequences between the
    // simulator and the live TCP stack, including under the injected
    // fault schedule.
    let (live_decisions, live_report, live_edge) = live_leg();
    assert_eq!(live_decisions, expected_trace());
    assert_eq!(sim_traces[0], live_decisions);

    // The edge decides through one engine in both stacks: the same lookups
    // (a miss, then an exact hit) and the same cloud forward, in order.
    let sim_edge = edge_decisions(&tel);
    assert_eq!(
        sim_edge,
        [
            r#"edge.lookup kind=Str("miss") hit=Bool(false)"#,
            "cloud.forward",
            r#"edge.lookup kind=Str("exact") hit=Bool(true)"#,
        ]
    );
    assert_eq!(sim_edge, live_edge, "edge decisions diverged");

    // And both paths emit the same report type with agreeing structure
    // (latencies differ: virtual vs wall clock).
    assert_eq!(live_report.completed, sim_report.completed);
    assert_eq!(live_report.edge_hits, sim_report.edge_hits);
    assert_eq!(live_report.cloud_trips, sim_report.cloud_trips);
    assert_eq!(live_report.retries, sim_report.retries);
    assert_eq!(live_report.retried_requests, sim_report.retried_requests);
}

#[test]
fn sim_and_live_keep_the_same_exact_cache() {
    // Frames 0..6, each asked for twice in a row, over two passes, through
    // a cache four 8 KB frames fill: the frames evict one another.
    let trace = pano_requests((0..24).map(|i| i / 2 % 6));
    let panos = Arc::new(PanoLibrary::new(64));
    let edge_cfg = EdgeConfig {
        exact_cache_bytes: 4 * panos.held(0).result().byte_size(),
        ..EdgeConfig::default()
    };
    let tel = Telemetry::new();
    let sim_cfg = SimConfig {
        pano_height: 64,
        edge: edge_cfg,
        ..SimConfig::default()
    };
    assert_eq!(run_instrumented(&trace, &sim_cfg, &tel).0.completed, 24);
    let sim = Metrics::from_registry(tel.registry(), "cache.exact");

    let (models, compute) = (Arc::new(ModelLibrary::new()), ComputeConfig::default());
    let cloud = spawn_cloud(&[], 64, compute, models.clone(), panos.clone(), 7).unwrap();
    let edge = spawn_edge_with(cloud.addr(), &edge_cfg, NetConfig::default(), None).unwrap();
    let mut client = NetClient::connect_with(
        edge.addr(),
        Some(cloud.addr()),
        NetConfig::default(),
        ClientConfig::default(),
        compute,
        models,
        panos,
    )
    .unwrap();
    for req in &trace {
        client.execute(req).unwrap();
    }
    let live = edge.exact_cache_metrics();
    let counts = |m: &Metrics| (m.hits, m.misses, m.insertions, m.evictions, m.rejected);
    assert!(
        sim.hits > 0 && sim.evictions > 0 && sim.rejected == 0,
        "{sim:?}"
    );
    assert_eq!(counts(&live), counts(&sim), "live {live:?} != sim {sim:?}");
}
