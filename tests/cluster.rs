//! Acceptance tests for the cooperative multi-edge cluster tier:
//! determinism of seeded cluster runs, the cooperative win over isolated
//! edges on a skewed workload, and failover when an edge dies mid-run.

use coic::core::simrun::{run_instrumented, Mode, SimConfig};
use coic::core::ClusterConfig;
use coic::obs::Telemetry;
use coic::workload::{ArenaMultiplayer, Population, Request};

/// A skewed multi-zone arena workload: `users` spread round-robin over
/// `zones` zones (zone k attaches to edge k), all drawing from the same
/// global model library under a steep Zipf — the same few models are hot
/// in every zone, so isolated edges each pay their own cloud fetch while
/// a cluster pays roughly one per model.
fn arena_trace(users: u32, zones: u32, requests: usize, seed: u64) -> Vec<Request> {
    ArenaMultiplayer {
        population: Population::round_robin(users, zones),
        models: (0..24u64).map(|i| (i, 64 * 1024)).collect(),
        zipf_s: 1.1,
        rate_per_sec: 20.0,
        total_requests: requests,
    }
    .generate(seed)
}

fn cfg(edges: u32, clients: u32, cluster: Option<ClusterConfig>) -> SimConfig {
    SimConfig {
        mode: Mode::CoIc,
        num_clients: clients,
        num_edges: edges,
        cluster,
        seed: 11,
        ..SimConfig::default()
    }
}

/// Two seeded 16-edge cluster runs are byte-identical in all three
/// deterministic artifacts: the canonical QoE report, the JSONL decision
/// trace, and the canonical metrics snapshot — and all three are pinned.
#[test]
fn sixteen_edge_cluster_run_is_deterministic() {
    let trace = arena_trace(32, 16, 400, 5);
    let cluster = ClusterConfig {
        peer_fanout: 3,
        replicate_hot: 2,
        ..ClusterConfig::default()
    };
    let run = || {
        let tel = Telemetry::new();
        let (mut report, _) = run_instrumented(&trace, &cfg(16, 32, Some(cluster.clone())), &tel);
        (
            report.canonical(),
            tel.trace_jsonl(),
            tel.metrics_canonical(),
        )
    };
    let (r1, t1, m1) = run();
    let (r2, t2, m2) = run();
    assert_eq!(r1, r2, "canonical reports diverged");
    assert_eq!(t1, t2, "JSONL traces diverged");
    assert_eq!(m1, m2, "metrics snapshots diverged");
    // And identical to what the eager trace sites wrote, before records
    // were built lazily (FNV-1a 64 of each artifact, recorded at PR 23).
    let fnv = |s: &str| coic::cache::fnv1a64(s.as_bytes());
    assert_eq!(fnv(&r1), 0x7ce2_eff9_506a_51ad, "canonical report changed");
    assert_eq!(t1.lines().count(), 3420);
    assert_eq!(fnv(&t1), 0x6c25_3a46_25bd_9888, "JSONL trace changed");
    // Re-pinned when pending timers became cancellable: the snapshot
    // differs from the PR 23 one (0x361a_f4a7_1856_323f) only in a lower
    // `sim.events` and the new `sim.cancelled`. Re-pinned again when the
    // exact cache's deferred-touch queue went: the snapshot differs from
    // the previous one (0x9dd3_b8bb_fb32_d2f2) only in eight removed
    // lines, `cache.{exact,recog}.touch_{dead,dropped,queued,replayed}`.
    assert_eq!(fnv(&m1), 0xeabf_f5ab_2d56_0a90, "metrics snapshot changed");
    assert!(
        t1.contains("decision.peer_probe"),
        "cluster path never probed a peer"
    );
    assert!(
        m1.contains("cluster.peer_hit"),
        "cluster metrics missing from the snapshot"
    );
}

/// A cancelled timer is an event the run no longer dispatches, and a send
/// that carries its message departs as the one event its timer was: so the
/// events dispatched plus the timers cancelled are what the same run
/// dispatched when every timer fired — 6 000 on the 16-edge scenario.
#[test]
fn cancelled_timers_account_for_every_event_spared() {
    let trace = arena_trace(32, 16, 400, 5);
    let cluster = ClusterConfig {
        peer_fanout: 3,
        replicate_hot: 2,
        ..ClusterConfig::default()
    };
    let tel = Telemetry::new();
    run_instrumented(&trace, &cfg(16, 32, Some(cluster)), &tel);
    let (events, cancelled) = (
        tel.registry().counter("sim.events"),
        tel.registry().counter("sim.cancelled"),
    );
    assert_eq!(events + cancelled, 6_000);
    assert!(cancelled > 0, "no deadline was cancelled");
}

/// On the skewed workload, the cluster strictly beats isolated edges on
/// hit rate and strictly reduces cloud forwards — the cooperative-caching
/// claim of the paper, at cluster scale.
#[test]
fn cluster_beats_isolated_edges_on_skewed_workload() {
    let trace = arena_trace(32, 16, 600, 5);
    let tel = Telemetry::disabled();
    let (isolated, _) = run_instrumented(&trace, &cfg(16, 32, None), &tel);
    let cluster = ClusterConfig {
        peer_fanout: 3,
        replicate_hot: 2,
        ..ClusterConfig::default()
    };
    let (coop, _) = run_instrumented(&trace, &cfg(16, 32, Some(cluster)), &tel);
    assert!(
        coop.hit_ratio() > isolated.hit_ratio(),
        "cluster hit rate {:.3} not above isolated {:.3}",
        coop.hit_ratio(),
        isolated.hit_ratio()
    );
    assert!(
        coop.cloud_trips < isolated.cloud_trips,
        "cluster cloud trips {} not below isolated {}",
        coop.cloud_trips,
        isolated.cloud_trips
    );
    assert!(coop.peer_hits > 0, "cooperation never produced a peer hit");
}

/// Killing an edge mid-run re-routes its keyspace to ring successors with
/// zero hung or failed requests: probes to the dead edge time out, its
/// breaker trips (a ring rebuild), and plans fail over around it.
#[test]
fn killed_edge_reroutes_keyspace_without_hanging() {
    // Users live in zones 0..3 of an 8-edge cluster, so edge 5 serves no
    // clients but still owns a slice of the digest space — exactly the
    // peer that probes must reach, then survive losing.
    let trace = arena_trace(8, 4, 240, 9);
    let cluster = ClusterConfig {
        peer_fanout: 3,
        replicate_hot: 2,
        breaker_threshold: 1,
        ..ClusterConfig::default()
    };
    let mut config = cfg(8, 8, Some(cluster));
    config.edge_down_ms = vec![(200, 5)];
    let tel = Telemetry::new();
    let (report, _) = run_instrumented(&trace, &config, &tel);
    assert_eq!(report.failed, 0, "requests hung or failed after the kill");
    assert_eq!(report.completed, trace.len(), "not every request completed");
    let reg = tel.registry();
    assert!(
        reg.counter("cluster.peer_timeout") > 0,
        "no probe ever timed out against the dead edge"
    );
    assert!(
        reg.counter("cluster.ring_rebuild") > 0,
        "the dead edge's breaker never tripped"
    );
    assert!(
        reg.counter("cluster.peer_failover") > 0,
        "plans never failed over around the dead owner"
    );
}
