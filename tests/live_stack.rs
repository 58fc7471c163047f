//! Integration tests of the real-TCP deployment: the same services the
//! simulator drives, over loopback sockets with concurrent clients.

use coic::core::netrun::{spawn_cloud, spawn_edge, NetClient};
use coic::core::{ClientConfig, ComputeConfig, EdgeConfig, ModelLibrary, PanoLibrary, Path};
use coic::vision::ObjectClass;
use coic::workload::{Request, RequestKind, UserId, ZoneId};
use std::sync::Arc;

struct Stack {
    _cloud: coic::core::netrun::CloudHandle,
    edge: coic::core::netrun::EdgeHandle,
    models: Arc<ModelLibrary>,
    panos: Arc<PanoLibrary>,
    compute: ComputeConfig,
}

fn stack() -> Stack {
    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes: Vec<_> = (0..6).map(ObjectClass).collect();
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
    let edge = spawn_edge(cloud.addr(), &EdgeConfig::default()).unwrap();
    Stack {
        _cloud: cloud,
        edge,
        models,
        panos,
        compute,
    }
}

fn client(s: &Stack) -> NetClient {
    NetClient::connect(
        s.edge.addr(),
        ClientConfig::default(),
        s.compute,
        s.models.clone(),
        s.panos.clone(),
    )
    .unwrap()
}

fn req(kind: RequestKind) -> Request {
    Request {
        user: UserId(0),
        zone: ZoneId(0),
        at_ns: 0,
        kind,
    }
}

#[test]
fn concurrent_clients_share_the_edge_cache() {
    let s = stack();
    // Eight clients race on the same three panorama frames; after the dust
    // settles, most requests must have been edge hits and all results must
    // agree bytewise.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let mut c = client(&s);
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for frame in 0..3u64 {
                    let out = c
                        .execute(&req(RequestKind::Panorama { frame_id: frame }))
                        .unwrap();
                    outcomes.push((frame, out));
                }
                (i, outcomes)
            })
        })
        .collect();
    let mut by_frame: std::collections::HashMap<u64, Vec<coic::core::TaskResult>> =
        std::collections::HashMap::new();
    let mut hits = 0;
    let mut total = 0;
    for h in handles {
        let (_, outcomes) = h.join().unwrap();
        for (frame, out) in outcomes {
            total += 1;
            if out.path == Path::EdgeHit {
                hits += 1;
            }
            by_frame.entry(frame).or_default().push(out.result);
        }
    }
    assert_eq!(total, 24);
    assert!(hits >= 12, "only {hits}/24 hits");
    for (frame, results) in by_frame {
        for r in &results {
            assert_eq!(r, &results[0], "divergent results for frame {frame}");
        }
    }
}

#[test]
fn recognition_labels_are_consistent_between_paths() {
    let s = stack();
    let mut c = client(&s);
    let r = req(RequestKind::Recognition {
        class: 5,
        view_seed: 31,
    });
    let miss = c.execute(&r).unwrap();
    let hit = c.execute(&r).unwrap();
    assert_eq!(miss.path, Path::CloudMiss);
    assert_eq!(hit.path, Path::EdgeHit);
    match (&miss.result, &hit.result) {
        (coic::core::TaskResult::Recognition(a), coic::core::TaskResult::Recognition(b)) => {
            assert_eq!(a.label, 5);
            assert_eq!(a.label, b.label);
        }
        other => panic!("unexpected results {other:?}"),
    }
}

#[test]
fn live_model_bytes_match_library() {
    let s = stack();
    let mut c = client(&s);
    let out = c
        .execute(&req(RequestKind::RenderLoad {
            model_id: 9,
            size_bytes: 120_000,
        }))
        .unwrap();
    match out.result {
        coic::core::TaskResult::Model(bytes) => {
            let (expected, _) = s.models.get(9, 120_000);
            assert_eq!(bytes, expected);
            // And they parse into a drawable mesh.
            let loaded = coic::render::load_cmf(&bytes).unwrap();
            loaded.mesh.validate().unwrap();
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn edge_survives_garbage_frames() {
    use coic::netsim::rt::FrameConn;
    let s = stack();
    // A malicious/buggy peer sends junk: the edge must drop the connection
    // or ignore the frame, and keep serving well-behaved clients.
    let mut evil = FrameConn::connect(s.edge.addr()).unwrap();
    evil.send(b"this is not a coic message").unwrap();
    let _ = evil.recv(); // whatever happens here must not poison the server
    let mut evil2 = FrameConn::connect(s.edge.addr()).unwrap();
    evil2
        .send(&[0xC0, 0x01, 99, 0, 0, 0, 0, 0, 0, 0, 0])
        .unwrap(); // bad tag
    let _ = evil2.recv();

    let mut good = client(&s);
    let out = good
        .execute(&req(RequestKind::Panorama { frame_id: 1 }))
        .unwrap();
    assert!(matches!(out.path, Path::CloudMiss | Path::EdgeHit));
}

#[test]
fn upload_without_query_is_rejected_gracefully() {
    use coic::core::{Msg, TaskRequest};
    use coic::netsim::rt::FrameConn;
    let s = stack();
    // An Upload for a req_id the edge never saw: the pending-descriptor
    // lookup fails and the connection closes; the server stays up.
    let mut conn = FrameConn::connect(s.edge.addr()).unwrap();
    let msg = Msg::Upload {
        req_id: 0xDEAD_BEEF,
        task: TaskRequest::Panorama { frame_id: 0 },
    };
    conn.send(&msg.encode()).unwrap();
    let _ = conn.recv(); // closed or error — either is acceptable
    let mut good = client(&s);
    assert!(good
        .execute(&req(RequestKind::Panorama { frame_id: 2 }))
        .is_ok());
}

// ------------------------------------------------------------- chaos --

use coic::core::netrun::{spawn_edge_with, NetConfig};
use coic::core::RetryPolicy;
use std::time::{Duration, Instant};

/// Network policy tuned so chaos tests converge in milliseconds, not the
/// production-flavoured multi-second defaults.
fn fast_net() -> NetConfig {
    NetConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            ..RetryPolicy::default()
        },
        request_deadline: Duration::from_millis(800),
        connect_timeout: Duration::from_millis(300),
        probe_interval: Duration::from_millis(40),
        ..NetConfig::default()
    }
}

fn fallback_client(s: &Stack, net: NetConfig) -> NetClient {
    NetClient::connect_with(
        s.edge.addr(),
        Some(s._cloud.addr()),
        net,
        ClientConfig::default(),
        s.compute,
        s.models.clone(),
        s.panos.clone(),
    )
    .unwrap()
}

/// Rebind an edge on an address that was just vacated; the kernel may hold
/// the port briefly, so retry for a bounded window.
fn respawn_edge(
    cloud: std::net::SocketAddr,
    bind: std::net::SocketAddr,
) -> coic::core::netrun::EdgeHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match spawn_edge_with(
            cloud,
            &EdgeConfig::default(),
            NetConfig::default(),
            Some(bind),
        ) {
            Ok(edge) => return edge,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind edge on {bind}: {e}"),
        }
    }
}

#[test]
fn edge_death_midworkload_falls_back_to_cloud() {
    let mut s = stack();
    let mut c = fallback_client(&s, fast_net());

    // Warm-up on the cooperative path.
    for frame in 0..2u64 {
        let out = c
            .execute(&req(RequestKind::Panorama { frame_id: frame }))
            .unwrap();
        assert!(matches!(out.path, Path::CloudMiss | Path::EdgeHit));
    }
    assert!(!c.is_degraded());

    // Kill the edge mid-workload. Every remaining request must still
    // complete — via the origin path — and none may hang.
    s.edge.shutdown();
    let started = Instant::now();
    let mut baseline = 0;
    for frame in 0..6u64 {
        let out = c
            .execute(&req(RequestKind::Panorama { frame_id: frame }))
            .unwrap();
        if out.path == Path::Baseline {
            baseline += 1;
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "post-failure workload hung: {:?}",
        started.elapsed()
    );
    assert_eq!(
        baseline, 6,
        "all post-shutdown requests must use the origin path"
    );
    assert!(c.is_degraded());

    let snap = c.robustness().snapshot();
    assert!(snap.degraded_transitions >= 1, "{snap}");
    assert!(snap.fallbacks >= 6, "{snap}");
    assert!(snap.retries >= 1, "edge loss should force retries: {snap}");
}

#[test]
fn edge_restart_lets_clients_rejoin_cooperative_path() {
    let mut s = stack();
    let edge_addr = s.edge.addr();
    let mut c = fallback_client(&s, fast_net());

    c.execute(&req(RequestKind::Panorama { frame_id: 0 }))
        .unwrap();
    s.edge.shutdown();

    // Degrade: the next request falls back to the cloud.
    let out = c
        .execute(&req(RequestKind::Panorama { frame_id: 1 }))
        .unwrap();
    assert_eq!(out.path, Path::Baseline);
    assert!(c.is_degraded());

    // Restart the edge on its old address; probing must pull the client
    // back onto the cooperative path within a bounded window.
    let _edge2 = respawn_edge(s._cloud.addr(), edge_addr);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut rejoined = false;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let out = c
            .execute(&req(RequestKind::Panorama { frame_id: 2 }))
            .unwrap();
        if out.path != Path::Baseline {
            rejoined = true;
            break;
        }
    }
    assert!(rejoined, "client never rejoined the edge after restart");
    assert!(!c.is_degraded());

    let snap = c.robustness().snapshot();
    assert!(snap.degraded_transitions >= 1, "{snap}");
    assert!(snap.recovered_transitions >= 1, "{snap}");
    assert!(snap.probes >= 1, "{snap}");
}

#[test]
fn lossy_proxy_between_client_and_edge_is_survivable() {
    use coic::netsim::rt::{FaultPlan, FaultProxy};
    let s = stack();
    // Interpose a fault-injecting proxy on the access link: some frames
    // vanish, some are delayed. Timeouts + retries + cloud fallback must
    // still complete every request.
    let plan = FaultPlan {
        seed: 7,
        drop_frame: 0.15,
        delay_frame: 0.10,
        delay_ms: 20,
        ..FaultPlan::default()
    };
    let proxy = FaultProxy::spawn(s.edge.addr(), plan).unwrap();

    let mut net = fast_net();
    net.request_deadline = Duration::from_millis(400);
    let mut c = NetClient::connect_with(
        proxy.local_addr(),
        Some(s._cloud.addr()),
        net,
        ClientConfig::default(),
        s.compute,
        s.models.clone(),
        s.panos.clone(),
    )
    .unwrap();

    let started = Instant::now();
    for i in 0..12u64 {
        let out = c
            .execute(&req(RequestKind::Panorama { frame_id: i % 4 }))
            .unwrap();
        match out.result {
            coic::core::TaskResult::Panorama(bytes) => assert!(!bytes.is_empty()),
            other => panic!("unexpected result {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "lossy workload hung: {:?}",
        started.elapsed()
    );
    let stats = proxy.stats();
    assert!(stats.forwarded > 0, "proxy forwarded nothing: {stats:?}");
}

#[test]
fn sixteen_clients_hammering_one_edge_stay_coherent() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::Barrier;

    const CLIENTS: usize = 16;
    const ZIPF_REQS: usize = 24;
    const FRAME_POOL: u64 = 12;

    let s = stack();
    let barrier = Arc::new(Barrier::new(CLIENTS));

    // Phase 1: all sixteen clients release together on the *same* cold
    // frame — the sharpest duplicate-miss race the edge can see. Phase 2:
    // a Zipf-skewed stream over a small frame pool (hot head, long tail).
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let mut c = client(&s);
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut frames = Vec::new();
                let mut outcomes = Vec::new();
                barrier.wait();
                let out = c
                    .execute(&req(RequestKind::Panorama { frame_id: 0 }))
                    .unwrap();
                frames.push(0u64);
                outcomes.push((0u64, out));
                let mut rng = StdRng::seed_from_u64(0x51AB ^ i as u64);
                for _ in 0..ZIPF_REQS {
                    let u: f64 = rng.random();
                    let frame_id = ((u * u) * FRAME_POOL as f64) as u64;
                    let out = c.execute(&req(RequestKind::Panorama { frame_id })).unwrap();
                    frames.push(frame_id);
                    outcomes.push((frame_id, out));
                }
                (frames, outcomes)
            })
        })
        .collect();

    let mut by_frame: std::collections::HashMap<u64, Vec<coic::core::TaskResult>> =
        std::collections::HashMap::new();
    let mut distinct: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut edge_hits = 0u64;
    let mut cloud_misses = 0u64;
    let mut race_misses = 0u64;
    for h in handles {
        let (frames, outcomes) = h.join().unwrap();
        distinct.extend(frames);
        for (idx, (frame, out)) in outcomes.into_iter().enumerate() {
            match out.path {
                Path::EdgeHit => edge_hits += 1,
                Path::CloudMiss => {
                    cloud_misses += 1;
                    if idx == 0 {
                        race_misses += 1;
                    }
                }
                other => panic!("unexpected path {other:?} for frame {frame}"),
            }
            by_frame.entry(frame).or_default().push(out.result);
        }
    }
    let total = (CLIENTS * (1 + ZIPF_REQS)) as u64;
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "contention workload took {:?} — a lock ordering problem?",
        started.elapsed()
    );
    assert_eq!(edge_hits + cloud_misses, total);

    // Single-flight: the sixteen-way race on the cold frame coalesces to
    // exactly one cloud fetch, and *every* distinct frame is fetched from
    // the cloud exactly once across the whole run.
    assert_eq!(race_misses, 1, "duplicate misses escaped the flight table");
    assert_eq!(
        cloud_misses,
        distinct.len() as u64,
        "each distinct frame must cost exactly one cloud trip"
    );

    // Every copy of a frame, whichever path produced it, is bytewise equal.
    for (frame, results) in by_frame {
        for r in &results {
            assert_eq!(r, &results[0], "divergent results for frame {frame}");
        }
    }

    // The merged per-shard counters agree with what the clients observed:
    // each EdgeHit reply is exactly one successful shard lookup. Misses
    // are counted per cache probe, and a coalesced request probes the
    // cache once on arrival and once more after its leader completes, so
    // the shard-merged miss count brackets the client-observed cloud
    // trips without ever dropping below them.
    let stats = s.edge.exact_cache_metrics();
    assert!(s.edge.cache_shards() > 1);
    assert_eq!(
        stats.hits, edge_hits,
        "merged shard hits {} != client-observed edge hits {edge_hits}",
        stats.hits
    );
    assert!(
        stats.misses >= cloud_misses && stats.misses <= 2 * total,
        "merged shard misses {} outside [{cloud_misses}, {}]",
        stats.misses,
        2 * total
    );
    assert_eq!(stats.lookups(), stats.hits + stats.misses);
}

#[test]
fn flash_crowd_sheds_to_cloud_and_rejoins_when_the_edge_cools() {
    use coic::core::engine::AdmissionConfig;
    use std::sync::Barrier;

    const CLIENTS: usize = 8;
    const REQS_PER_CLIENT: usize = 10;

    // An edge with the tightest possible admission policy: one request in
    // service, no queue. Any concurrent arrival is answered Overloaded.
    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes: Vec<_> = (0..6).map(ObjectClass).collect();
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
    let edge_net = NetConfig {
        admission: Some(AdmissionConfig {
            queue_limit: 0,
            ..AdmissionConfig::fixed(1)
        }),
        ..NetConfig::default()
    };
    let edge = spawn_edge_with(cloud.addr(), &EdgeConfig::default(), edge_net, None).unwrap();
    let s = Stack {
        _cloud: cloud,
        edge,
        models,
        panos,
        compute,
    };

    // Flash crowd: everyone released at once, hammering the same large
    // model — the first wave races on the cold cloud fetch (the admitted
    // leader holds the single slot for the whole fetch) and later waves
    // race on multi-millisecond hit transfers, so arrivals overlap and the
    // zero-queue edge must shed. Every request must still complete —
    // admitted ones at the edge, shed ones through the cloud fallback —
    // and none may hang.
    let crowd_req = req(RequestKind::RenderLoad {
        model_id: 5,
        size_bytes: 4_000_000,
    });
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let mut c = fallback_client(&s, fast_net());
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut baseline = 0u64;
                let mut edge_served = 0u64;
                for _ in 0..REQS_PER_CLIENT {
                    let out = c.execute(&crowd_req).unwrap();
                    match out.path {
                        Path::Baseline => baseline += 1,
                        Path::EdgeHit | Path::CloudMiss | Path::PeerHit => edge_served += 1,
                    }
                }
                (c, baseline, edge_served)
            })
        })
        .collect();

    let mut clients = Vec::new();
    let mut baseline_total = 0u64;
    let mut edge_total = 0u64;
    let mut overloaded_total = 0u64;
    for h in handles {
        let (c, baseline, edge_served) = h.join().unwrap();
        baseline_total += baseline;
        edge_total += edge_served;
        overloaded_total += c.robustness().snapshot().overloaded_replies;
        clients.push(c);
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "flash crowd hung: {:?}",
        started.elapsed()
    );
    assert_eq!(
        baseline_total + edge_total,
        (CLIENTS * REQS_PER_CLIENT) as u64,
        "zero hung requests: every request completes on some path"
    );
    assert!(
        overloaded_total >= 1,
        "a barrier-released crowd against a 1-slot, 0-queue edge must shed"
    );
    assert!(
        baseline_total >= 1,
        "shed clients must complete via the cloud fallback"
    );
    let edge_snap = s.edge.robustness().snapshot();
    assert!(edge_snap.shed >= 1, "{edge_snap}");
    assert!(edge_snap.admitted >= 1, "{edge_snap}");

    // The crowd is gone: a degraded client's probes must bring it back to
    // the edge within a bounded window, and the edge serves it again.
    let mut c = clients
        .into_iter()
        .find(|c| c.is_degraded())
        .unwrap_or_else(|| fallback_client(&s, fast_net()));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut rejoined = false;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let out = c.execute(&crowd_req).unwrap();
        if out.path == Path::EdgeHit {
            rejoined = true;
            break;
        }
    }
    assert!(rejoined, "client never rejoined the edge after the burst");
    assert!(!c.is_degraded());
}

/// A real 3-edge cluster over loopback: partition placement replicates a
/// cloud fetch to the digest's owner, hot demand replicates it to the
/// requesting edge, and when the owner is killed the ring successor
/// serves its keyspace from the peer tier — before any cloud fallback —
/// until the restarted owner rejoins through its half-open breaker.
#[test]
fn cluster_edge_death_fails_over_to_ring_successor_then_rejoins() {
    use coic::core::{BreakerState, ClusterConfig, HashRing};

    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes: Vec<_> = (0..6).map(ObjectClass).collect();
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), 3).unwrap();
    let spawn = || {
        spawn_edge_with(
            cloud.addr(),
            &EdgeConfig::default(),
            NetConfig::default(),
            None,
        )
        .unwrap()
    };
    let edge_a = spawn();
    let mut edge_b = spawn();
    let edge_c = spawn();
    let members = [edge_a.addr(), edge_b.addr(), edge_c.addr()];
    let cluster = ClusterConfig {
        vnodes: 16,
        peer_fanout: 2,
        replicate_hot: 2,
        breaker_threshold: 1,
        breaker_cooldown_ms: 300,
        ..ClusterConfig::default()
    };
    edge_a.join_cluster(0, &members, cluster.clone());
    edge_b.join_cluster(1, &members, cluster.clone());
    edge_c.join_cluster(2, &members, cluster.clone());

    // Pick a frame whose digest edge B owns — the keyspace the kill must
    // re-route. The handles share the deterministic ring, so the test can
    // compute ownership offline.
    let ring = HashRing::new(3, cluster.vnodes);
    let mut b_frames = (0..64u64).filter(|&f| ring.owner(&panos.digest(f)) == 1);
    let frame = b_frames.next().expect("some frame is owned by edge B");
    let request = req(RequestKind::Panorama { frame_id: frame });
    let connect = |addr| {
        NetClient::connect(
            addr,
            ClientConfig::default(),
            compute,
            models.clone(),
            panos.clone(),
        )
        .unwrap()
    };
    let mut on_a = connect(edge_a.addr());
    let mut on_c = connect(edge_c.addr());

    // Warm-up through C (a non-owner): the first request misses the whole
    // cluster and pays the cloud, pushing a placement copy to owner B; the
    // second finds it at B via the peer tier and — crossing the hot
    // threshold — keeps a replica on C itself.
    assert_eq!(on_c.execute(&request).unwrap().path, Path::CloudMiss);
    assert_eq!(on_c.execute(&request).unwrap().path, Path::PeerHit);
    let c_stats = edge_c.cluster_stats().unwrap();
    assert!(c_stats.replication_copies >= 1, "{c_stats:?}");
    assert!(c_stats.replica_keeps >= 1, "{c_stats:?}");

    // Kill the owner. A's probe to B fails (tripping B's breaker — a ring
    // rebuild), and the ring successor's replica serves the request from
    // the peer tier: no cloud trip, no hang.
    edge_b.shutdown();
    let out = on_a.execute(&request).unwrap();
    assert_eq!(
        out.path,
        Path::PeerHit,
        "the surviving replica must serve B's keyspace"
    );
    let a_stats = edge_a.cluster_stats().unwrap();
    assert!(a_stats.peer_timeouts >= 1, "{a_stats:?}");
    assert!(a_stats.peer_hits >= 1, "{a_stats:?}");
    assert!(a_stats.ring_rebuilds >= 1, "{a_stats:?}");
    assert_eq!(edge_a.peer_state(1), Some(BreakerState::Open));

    // Restart B on its old address and re-join it to the cluster. Once
    // the cooldown lapses, A's next plans half-open B's breaker, the
    // probe finds the edge alive, and B is back in the ring.
    let b_addr = members[1];
    edge_b = respawn_edge(cloud.addr(), b_addr);
    edge_b.join_cluster(1, &members, cluster);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut rejoined = false;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        // A fresh B-owned frame each round: the miss path is what plans
        // peer probes, and only a probe can half-open B's breaker.
        let f = b_frames.next().expect("ran out of frames owned by B");
        on_a.execute(&req(RequestKind::Panorama { frame_id: f }))
            .unwrap();
        if edge_a.peer_state(1) == Some(BreakerState::Closed) {
            rejoined = true;
            break;
        }
    }
    assert!(rejoined, "restarted edge never rejoined the ring");
    let a_stats = edge_a.cluster_stats().unwrap();
    assert!(a_stats.ring_rebuilds >= 2, "{a_stats:?}");
}

/// A `Msg::Replicate` that does not carry the cluster's membership token
/// must not install anything: not before a cluster is joined, and not
/// from a sender that merely reaches the edge port and speaks the
/// protocol. The edge drops the connection without an ack, and a
/// subsequent peer query for the planted digest comes back empty.
#[test]
fn forged_replicate_push_is_rejected() {
    use bytes::Bytes;
    use coic::cache::Digest;
    use coic::core::{ClusterConfig, Msg, TaskResult};
    use coic::netsim::rt::FrameConn;
    use std::time::Duration;

    let s = stack();
    let digest = Digest::of(b"poisoned-content");
    let forged = |token: u64| Msg::Replicate {
        req_id: 1,
        token,
        digest,
        result: TaskResult::Model(Bytes::from(vec![0xAB; 16])),
    };
    let push = |msg: Msg| {
        let mut conn = FrameConn::connect(s.edge.addr()).unwrap();
        conn.set_read_deadline(Some(Duration::from_millis(500)))
            .unwrap();
        conn.send(&msg.encode()).unwrap();
        conn.recv()
    };

    // Before any cluster is joined, every push is refused.
    assert!(push(forged(0)).is_err(), "no-cluster push must be dropped");

    // With a cluster joined, a push that guesses wrong is refused too.
    s.edge
        .join_cluster(0, &[s.edge.addr()], ClusterConfig::default());
    assert!(push(forged(0)).is_err(), "zero token must be dropped");
    assert!(push(forged(42)).is_err(), "wrong token must be dropped");

    // Nothing was installed: the peer-lookup path sees no such digest.
    let reply = push(Msg::PeerQuery { req_id: 9, digest }).expect("peer query is answered");
    match Msg::decode(&reply).unwrap() {
        Msg::PeerReply { result, .. } => {
            assert!(result.is_none(), "forged content must not be served")
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

// ------------------------------------------- connections and request ids --

/// A raw framed connection to the edge whose reads cannot hang the test.
fn raw_conn(s: &Stack) -> coic::netsim::rt::FrameConn {
    let conn = coic::netsim::rt::FrameConn::connect(s.edge.addr()).unwrap();
    conn.set_read_deadline(Some(Duration::from_secs(30)))
        .unwrap();
    conn
}

/// One raw request/reply exchange under the connection's read deadline.
fn exchange(
    conn: &mut coic::netsim::rt::FrameConn,
    msg: coic::core::Msg,
) -> Result<coic::core::Msg, String> {
    conn.send(&msg.encode()).map_err(|e| e.to_string())?;
    let frame = conn.recv().map_err(|e| e.to_string())?;
    coic::core::Msg::decode(&frame).map_err(|e| e.to_string())
}

/// Every `NetClient` numbers its requests from 1, so two connections
/// routinely have the same `req_id` in flight. A recognition miss spans
/// two frames (Query → NeedPayload, Upload → Result) and the edge parks
/// the descriptor in between: it must park it per connection, or one
/// client's upload is cached under the other's descriptor (a silent
/// wrong-label insertion) and the other's connection is dropped.
#[test]
fn same_req_id_on_two_connections_keeps_pending_uploads_apart() {
    use coic::core::{ClientLogic, Msg, TaskResult};

    let s = stack();
    let logic = ClientLogic::new(
        ClientConfig::default(),
        s.compute,
        s.models.clone(),
        s.panos.clone(),
    );
    let prepare =
        |class, view_seed| logic.prepare(&req(RequestKind::Recognition { class, view_seed }));
    let (a, b) = (prepare(1, 11), prepare(4, 12));
    let (mut conn_a, mut conn_b) = (raw_conn(&s), raw_conn(&s));
    let query = |p: &coic::core::PreparedRequest| Msg::Query {
        req_id: 1,
        descriptor: p.descriptor.clone(),
        hint: None,
    };
    let upload = |p: &coic::core::PreparedRequest| Msg::Upload {
        req_id: 1,
        task: p.task.clone(),
    };
    let label = |reply: Result<Msg, String>, who: &str| match reply {
        Ok(Msg::Result {
            result: TaskResult::Recognition(r),
            ..
        })
        | Ok(Msg::Hit {
            result: TaskResult::Recognition(r),
            ..
        }) => r.label,
        other => panic!("connection {who}: expected a recognition result, got {other:?}"),
    };

    // Interleave the two misses so both descriptors are parked at once.
    for (conn, p) in [(&mut conn_a, &a), (&mut conn_b, &b)] {
        assert!(matches!(
            exchange(conn, query(p)),
            Ok(Msg::NeedPayload { req_id: 1 })
        ));
    }
    assert_eq!(label(exchange(&mut conn_a, upload(&a)), "A"), 1);
    assert_eq!(label(exchange(&mut conn_b, upload(&b)), "B"), 4);

    // Both connections are still open, and each descriptor now hits the
    // label its own upload produced.
    assert_eq!(label(exchange(&mut conn_a, query(&a)), "A"), 1);
    assert_eq!(label(exchange(&mut conn_b, query(&b)), "B"), 4);
}

/// What the edge says about its reply path and its parked descriptors.
struct EdgeCounts {
    /// Reply blobs sent under a sum the cache entry already carried.
    sums_reused: u64,
    /// Reply blobs summed for the send.
    summed_on_send: u64,
    /// Descriptors parked awaiting an `Upload` right now.
    parked: i64,
    /// Connections closed for parking too many.
    overflows: u64,
}

fn edge_counts(s: &Stack) -> EdgeCounts {
    let reg = coic::obs::MetricsRegistry::new();
    s.edge.publish_metrics(&reg);
    EdgeCounts {
        sums_reused: reg.counter("edge.blob_sum_reused"),
        summed_on_send: reg.counter("edge.blob_summed_on_send"),
        parked: reg.gauge("edge.pending_uploads"),
        overflows: reg.counter("edge.pending_overflow"),
    }
}

/// The edge reads a cached byte once — to verify the frame it arrived in —
/// however often it sends it: the miss reply goes out under the sum derived
/// from that verified frame, every hit under the sum the entry keeps, and
/// the client (whose `recv` sums every byte against the frame header, and
/// which compares the payload with the library's) accepts all of them.
#[test]
fn a_warmed_hit_makes_no_pass_over_the_blob_and_a_miss_makes_one() {
    use coic::core::{Msg, TaskRequest, TaskResult};
    let s = stack();
    let (model_id, size_bytes) = (9, 300_000);
    let (bytes, digest) = s.models.get(model_id, size_bytes);
    assert!(
        !s.models.held(model_id, size_bytes).0.is_summed(),
        "reading a library entry summed it"
    );
    let mut conn = raw_conn(&s);
    let mut ask = |req_id| {
        let query = Msg::Query {
            req_id,
            descriptor: coic::core::FeatureDescriptor::ModelHash(digest),
            hint: Some(TaskRequest::RenderLoad {
                model_id,
                size_bytes,
            }),
        };
        exchange(&mut conn, query)
    };
    match ask(1) {
        Ok(Msg::Result { result, .. }) => assert_eq!(result, TaskResult::Model(bytes.clone())),
        other => panic!("expected Result, got {other:?}"),
    }
    // The cloud summed its entry for its first send of it (and keeps the
    // sum); the edge's one pass was the verifying receive.
    assert!(s.models.held(model_id, size_bytes).0.is_summed());
    let c = edge_counts(&s);
    assert_eq!((c.sums_reused, c.summed_on_send), (1, 0), "miss reply");
    for req_id in 2..6 {
        match ask(req_id) {
            Ok(Msg::Hit { result, .. }) => assert_eq!(result, TaskResult::Model(bytes.clone())),
            other => panic!("expected Hit, got {other:?}"),
        }
        let c = edge_counts(&s);
        assert_eq!(
            (c.sums_reused, c.summed_on_send),
            (req_id, 0),
            "hit {req_id}"
        );
    }
    // A second edge missing on the same model is served from the same
    // library entry: the cloud does not sum it again (a `OnceLock`), and
    // that edge too answers without a pass of its own.
    let other = spawn_edge(s._cloud.addr(), &EdgeConfig::default()).unwrap();
    let mut c2 = NetClient::connect(
        other.addr(),
        ClientConfig::default(),
        s.compute,
        s.models.clone(),
        s.panos.clone(),
    )
    .unwrap();
    let out = c2
        .execute(&req(RequestKind::RenderLoad {
            model_id,
            size_bytes,
        }))
        .unwrap();
    assert_eq!(out.path, Path::CloudMiss);
    assert_eq!(out.result, TaskResult::Model(bytes));
    let reg = coic::obs::MetricsRegistry::new();
    other.publish_metrics(&reg);
    assert_eq!(reg.counter("edge.blob_sum_reused"), 1);
    assert_eq!(reg.counter("edge.blob_summed_on_send"), 0);
}

/// A recognition query nothing in the cache answers: the edge parks its
/// descriptor and asks for the frame.
fn hintless_query(req_id: u64) -> coic::core::Msg {
    let dim = EdgeConfig::default().embedding_dim;
    let mut v = vec![0.0f32; dim];
    v[req_id as usize % dim] = 1.0;
    coic::core::Msg::Query {
        req_id,
        descriptor: coic::core::FeatureDescriptor::Dnn(coic::vision::FeatureVec::new(v)),
        hint: None,
    }
}

/// Poll until `done()`: a connection's end is noticed by its own thread at
/// the edge, not by the test's.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// ROADMAP item 1's half-closed leak: a descriptor parked for a connection
/// that dies between `NeedPayload` and `Upload` used to stay parked for the
/// life of the edge.
#[test]
fn a_connection_that_dies_before_uploading_leaves_nothing_parked() {
    use coic::core::Msg;
    let s = stack();
    let (mut dying, mut living) = (raw_conn(&s), raw_conn(&s));
    for conn in [&mut dying, &mut living] {
        for req_id in 1..=3 {
            assert_eq!(
                exchange(conn, hintless_query(req_id)),
                Ok(Msg::NeedPayload { req_id })
            );
        }
    }
    assert_eq!(edge_counts(&s).parked, 6);
    drop(dying);
    eventually(
        "the dead connection's descriptors were never reaped",
        || edge_counts(&s).parked == 3,
    );
    // The survivor's are untouched, and go when it does.
    drop(living);
    eventually("descriptors outlived every connection", || {
        edge_counts(&s).parked == 0
    });
    assert_eq!(edge_counts(&s).overflows, 0);
}

/// …and a live connection could park without limit.
#[test]
fn a_connection_cannot_park_descriptors_without_limit() {
    use coic::core::Msg;
    const CAP: u64 = coic::core::netrun::PENDING_PER_CONN_MAX as u64;
    let s = stack();
    let mut flood = raw_conn(&s);
    let mut answered = 0;
    for req_id in 1..=CAP + 50 {
        match exchange(&mut flood, hintless_query(req_id)) {
            Ok(reply) => {
                assert_eq!(reply, Msg::NeedPayload { req_id });
                answered += 1;
                assert!(edge_counts(&s).parked <= CAP as i64);
            }
            Err(_) => break,
        }
    }
    assert_eq!(answered, CAP, "the cap is where it says");
    // Past it the edge hung up, counted it, and dropped the lot.
    eventually("the flooding connection's descriptors stayed", || {
        edge_counts(&s).parked == 0
    });
    assert_eq!(edge_counts(&s).overflows, 1);
    // Asking again for a request already parked is not one more, and the
    // edge still serves.
    let mut patient = raw_conn(&s);
    for _ in 0..3 {
        assert!(exchange(&mut patient, hintless_query(7)).is_ok());
    }
    assert_eq!(edge_counts(&s).parked, 1);
}

/// 256 concurrently open connections, each pipelining two exact-task
/// queries (every connection reusing request ids 1 and 2): every reply
/// arrives under the read deadline, in order, and the FNV fold of the
/// result payloads in request order equals the fold computed straight
/// from the content libraries. Whether a racing request is answered as
/// `Hit` or as a miss-path `Result` is not deterministic, so the variant
/// is normalized away; the payload bytes are.
#[test]
fn many_pipelined_connections_all_complete_with_the_expected_ledger() {
    use coic::cache::fnv1a64;
    use coic::core::{FeatureDescriptor, Msg, TaskRequest, TaskResult};

    const CONNS: u64 = 256;
    const MODEL_BYTES: u64 = 20_000;

    let s = stack();
    let fold = |acc: u64, payload: &[u8]| {
        fnv1a64(&[acc.to_be_bytes(), fnv1a64(payload).to_be_bytes()].concat())
    };
    let mut conns: Vec<_> = (0..CONNS).map(|_| raw_conn(&s)).collect();
    let mut expected = 0u64;
    for (i, conn) in (0..CONNS).zip(&mut conns) {
        let (frame_id, model_id) = (i % 8, i % 4);
        let pano = Msg::Query {
            req_id: 1,
            descriptor: FeatureDescriptor::PanoramaHash(s.panos.digest(frame_id)),
            hint: Some(TaskRequest::Panorama { frame_id }),
        };
        let model = Msg::Query {
            req_id: 2,
            descriptor: FeatureDescriptor::ModelHash(s.models.digest(model_id, MODEL_BYTES)),
            hint: Some(TaskRequest::RenderLoad {
                model_id,
                size_bytes: MODEL_BYTES,
            }),
        };
        conn.send(&pano.encode()).unwrap();
        conn.send(&model.encode()).unwrap();
        expected = fold(expected, &s.panos.get(frame_id).0);
        expected = fold(expected, &s.models.get(model_id, MODEL_BYTES).0);
    }
    let mut ledger = 0u64;
    for (i, conn) in conns.iter_mut().enumerate() {
        for want_id in [1u64, 2] {
            let frame = conn
                .recv()
                .unwrap_or_else(|e| panic!("connection {i} request {want_id} hung: {e}"));
            match Msg::decode(&frame).unwrap() {
                Msg::Hit { req_id, result } | Msg::Result { req_id, result } => {
                    assert_eq!(req_id, want_id, "connection {i} replied out of order");
                    match result {
                        TaskResult::Panorama(bytes) | TaskResult::Model(bytes) => {
                            ledger = fold(ledger, &bytes);
                        }
                        other => panic!("connection {i}: unexpected result {other:?}"),
                    }
                }
                other => panic!("connection {i}: unexpected reply {other:?}"),
            }
        }
    }
    assert_eq!(
        ledger, expected,
        "reply payloads diverged from the libraries"
    );
}

#[test]
fn hits_are_faster_than_misses_live() {
    let s = stack();
    let mut c = client(&s);
    // A large model makes the gap unambiguous even on loopback.
    let r = req(RequestKind::RenderLoad {
        model_id: 1,
        size_bytes: 4_000_000,
    });
    let miss = c.execute(&r).unwrap();
    let hit = c.execute(&r).unwrap();
    assert_eq!(miss.path, Path::CloudMiss);
    assert_eq!(hit.path, Path::EdgeHit);
    assert!(
        hit.elapsed < miss.elapsed,
        "hit {:?} should beat miss {:?}",
        hit.elapsed,
        miss.elapsed
    );
}
