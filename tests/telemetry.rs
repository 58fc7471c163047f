//! Unified-telemetry integration tests.
//!
//! Two properties the obs redesign promises:
//!
//! 1. **Byte-reproducibility** — two instrumented runs of the same seeded
//!    workload emit byte-identical JSONL traces and canonical metrics
//!    snapshots (timestamps are virtual, storage is ordered, nothing
//!    reads a wall clock).
//! 2. **Facade fidelity** — every legacy stats struct (`QoeReport`'s
//!    counter view, the cache counters via `cache::Metrics`,
//!    `RobustnessSnapshot`, `SimStats`) is derivable from the registry a
//!    run publishes into, on a workload that mixes exact hits, approx
//!    hits, misses, and injected faults.

use coic::core::simrun::{run_instrumented, Mode, SimConfig};
use coic::core::{FaultSchedule, QoeReport, RetryPolicy, RobustnessSnapshot};
use coic::netsim::SimStats;
use coic::obs::Telemetry;
use coic::workload::{Request, RequestKind, UserId, ZoneId};
use std::time::Duration;

/// Two users mixing the exact path (panorama frames, with repeats for
/// hits), the approximate path (recognition, with a nearby viewpoint),
/// and one request whose edge leg is killed by the fault schedule.
fn mixed_trace() -> Vec<Request> {
    let mut at_ns = 0u64;
    let mut push = |trace: &mut Vec<Request>, user: u32, kind: RequestKind| {
        at_ns += 1_000_000;
        trace.push(Request {
            user: UserId(user),
            zone: ZoneId(0),
            at_ns,
            kind,
        });
    };
    let mut trace = Vec::new();
    // Distinct frames per user: each repeat is an exact edge hit, and no
    // cross-client single-flight coalescing hides it as a cloud miss.
    for (user, frame_id) in [(0u32, 0u64), (1, 10), (0, 0), (1, 10)] {
        push(&mut trace, user, RequestKind::Panorama { frame_id });
    }
    // Same class, nearby viewpoint: the second lookup of each pair is an
    // approximate hit in the recognition cache.
    for (user, class, view_seed) in [(0u32, 1u32, 5u64), (1, 2, 7), (0, 1, 6), (1, 2, 8)] {
        push(
            &mut trace,
            user,
            RequestKind::Recognition { class, view_seed },
        );
    }
    // The faulted tail request (seq 4 for both clients).
    for (user, frame_id) in [(0u32, 2u64), (1, 12)] {
        push(&mut trace, user, RequestKind::Panorama { frame_id });
    }
    trace
}

fn config() -> SimConfig {
    SimConfig {
        mode: Mode::CoIc,
        num_clients: 2,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter_frac: 0.3,
            seed: 7,
        },
        origin_fallback: true,
        request_timeout_ms: 200,
        // Every edge attempt of each client's last request fails, so the
        // trace contains retries, a degrade, and an origin completion —
        // after the hit-path requests have already run.
        faults: FaultSchedule::new().drop_edge_request(4),
        seed: 7,
        ..SimConfig::default()
    }
}

#[test]
fn instrumented_sim_exports_are_byte_identical() {
    let trace = mixed_trace();
    let cfg = config();
    let run = || {
        let tel = Telemetry::new();
        let (mut report, _) = run_instrumented(&trace, &cfg, &tel);
        (
            tel.trace_jsonl(),
            tel.metrics_canonical(),
            report.canonical(),
        )
    };
    let (trace_a, metrics_a, report_a) = run();
    let (trace_b, metrics_b, report_b) = run();
    assert_eq!(trace_a, trace_b, "JSONL traces must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "snapshots must be byte-identical");
    assert_eq!(report_a, report_b, "canonical reports must agree");
    // The trace actually covers the lifecycle this workload exercises.
    for needle in [
        "\"n\":\"request\"",
        "\"n\":\"edge.lookup\"",
        "\"n\":\"cloud.forward\"",
        "\"n\":\"decision.retry\"",
        "\"n\":\"decision.degrade\"",
        "\"n\":\"decision.complete\"",
        "\"kind\":\"exact\"",
        "\"kind\":\"approx\"",
        "\"kind\":\"miss\"",
    ] {
        assert!(trace_a.contains(needle), "trace lacks {needle}:\n{trace_a}");
    }
}

#[test]
fn legacy_stats_facades_are_derivable_from_the_registry() {
    let trace = mixed_trace();
    let cfg = config();
    let tel = Telemetry::new();
    let (report, _) = run_instrumented(&trace, &cfg, &tel);
    let reg = tel.registry();

    // QoeReport: the counter view rebuilt from `qoe.*` must agree with
    // the aggregate the run returned, field by field.
    let rebuilt = QoeReport::from_registry(reg);
    assert_eq!(rebuilt.completed, report.completed);
    assert_eq!(rebuilt.failed, report.failed);
    assert_eq!(rebuilt.edge_hits, report.edge_hits);
    assert_eq!(rebuilt.peer_hits, report.peer_hits);
    assert_eq!(rebuilt.cloud_trips, report.cloud_trips);
    assert_eq!(rebuilt.retries, report.retries);
    assert_eq!(rebuilt.retried_requests, report.retried_requests);
    assert_eq!(rebuilt.access_bytes, report.access_bytes);
    assert_eq!(rebuilt.wan_bytes, report.wan_bytes);
    assert_eq!(rebuilt.lan_bytes, report.lan_bytes);
    assert_eq!(rebuilt.accuracy, report.accuracy);
    assert!(report.completed > 0 && report.edge_hits > 0);
    assert!(report.retries > 0, "fault schedule must force retries");

    // Cache metrics: both caches were exercised (exact + approx paths).
    // The sim edge's repeated frames/viewpoints guarantee hits.
    let exact = coic::cache::Metrics::from_registry(reg, "cache.exact");
    let recog = coic::cache::Metrics::from_registry(reg, "cache.recog");
    assert!(exact.hits > 0 && exact.misses > 0, "{exact:?}");
    assert!(recog.hits > 0 && recog.misses > 0, "{recog:?}");
    assert_eq!(exact.hits, reg.counter("cache.exact.hits"));
    assert_eq!(recog.misses, reg.counter("cache.recog.misses"));

    // Robustness: the snapshot summed over every client and edge comes
    // back out of `robustness.*`, and re-publishing it roundtrips.
    let snap = RobustnessSnapshot::from_registry(reg);
    assert!(snap.attempts >= report.completed as u64);
    assert_eq!(snap.retries, reg.counter("robustness.retries"));
    let fresh = coic::obs::MetricsRegistry::new();
    snap.publish(&fresh);
    assert_eq!(RobustnessSnapshot::from_registry(&fresh), snap);

    // Simulator transport counters land under `sim.*`.
    let sim = SimStats::from_registry(reg);
    assert!(sim.events > 0 && sim.delivered > 0, "{sim:?}");

    // The latency histogram holds one observation per completion.
    let hist = reg.histogram("qoe.latency_ns").expect("latency histogram");
    assert_eq!(hist.count(), report.completed as u64);
}
