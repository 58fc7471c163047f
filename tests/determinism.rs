//! Determinism tests: the engine is the single decision-maker, so (a) the
//! same seeded workload and fault schedule through the simulator twice
//! yields byte-identical QoE reports, and (b) the simulator and the live
//! TCP stack traverse byte-identical decision traces — timestamps differ
//! (virtual vs wall clock) but every hit/miss/retry/degrade choice agrees.

use coic::core::netrun::{spawn_cloud, spawn_edge, NetClient, NetConfig};
use coic::core::simrun::{run_traced, Mode, SimConfig};
use coic::core::{
    ClientConfig, ComputeConfig, Decision, EdgeConfig, FaultSchedule, ModelLibrary, PanoLibrary,
    Path, QoeReport, RetryPolicy,
};
use coic::vision::ObjectClass;
use coic::workload::{Request, RequestKind, UserId, ZoneId};
use std::sync::Arc;
use std::time::Duration;

/// One client requesting panorama frames [0, 0, 1]: a cloud miss, an edge
/// hit, then a request whose edge leg is killed by the fault schedule.
fn pano_trace() -> Vec<Request> {
    [0u64, 0, 1]
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
        retry: Some(policy()),
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

/// Run the live loopback leg: same retry policy, same fault schedule as
/// the simulator leg. Returns the client's decision trace and QoE report.
fn live_leg() -> (Vec<Decision>, QoeReport) {
    let trace = pano_trace();
    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes = vec![ObjectClass(0)];
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 7).unwrap();
    let edge = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
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
    for req in &trace {
        live_paths.push(client.execute(req).unwrap().path);
    }
    assert_eq!(live_paths, [Path::CloudMiss, Path::EdgeHit, Path::Baseline]);
    assert!(client.is_degraded(), "edge leg of seq 2 was exhausted");
    (client.decisions().to_vec(), client.report())
}

#[test]
fn sim_and_live_traverse_identical_decision_traces() {
    // Simulator leg.
    let (sim_report, sim_traces) = run_traced(&pano_trace(), &sim_config());
    assert_eq!(sim_report.completed, 3);
    assert_eq!(sim_traces.len(), 1);
    assert_eq!(sim_traces[0], expected_trace());

    // The tentpole claim: byte-identical decision sequences between the
    // simulator and the live TCP stack, including under the injected
    // fault schedule.
    let (live_decisions, live_report) = live_leg();
    assert_eq!(live_decisions, expected_trace());
    assert_eq!(sim_traces[0], live_decisions);

    // And both paths emit the same report type with agreeing structure
    // (latencies differ: virtual vs wall clock).
    assert_eq!(live_report.completed, sim_report.completed);
    assert_eq!(live_report.edge_hits, sim_report.edge_hits);
    assert_eq!(live_report.cloud_trips, sim_report.cloud_trips);
    assert_eq!(live_report.retries, sim_report.retries);
    assert_eq!(live_report.retried_requests, sim_report.retried_requests);
}
