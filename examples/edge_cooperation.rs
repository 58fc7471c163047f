//! Cooperative edges — the "C" in CoIC, fully simulated.
//!
//! Two arenas, two edge servers, one popular set of avatar models. Without
//! cooperation each edge must fetch every model from the cloud itself;
//! joined in one cluster, an edge answers its neighbour's misses over the
//! LAN (`PeerQuery` / `PeerReply`). This example also shows panorama
//! prefetching on a third, lone viewer: cooperation with one's own future.
//!
//! Run with: `cargo run --release --example edge_cooperation`

use coic::core::cluster::ClusterConfig;
use coic::core::simrun::{run, SimConfig};
use coic::workload::{ArenaMultiplayer, Population, Request, RequestKind, UserId, VrVideo, ZoneId};

fn main() {
    // --- Part 1: two edges share their model caches -----------------------
    let models: Vec<(u64, u64)> = (0..8).map(|i| (i, 2_000_000)).collect();
    let trace = ArenaMultiplayer {
        population: Population::round_robin(8, 2), // 4 players per arena
        models,
        zipf_s: 0.9,
        rate_per_sec: 1.0,
        total_requests: 80,
    }
    .generate(19);

    println!("two arenas, two edges, 8 shared avatar models (2 MB each)\n");
    for cooperate in [false, true] {
        // Each miss asks the other edge and keeps what it fetched; a 2 MB
        // reply needs ≈ 20 ms on the LAN, so the probe gets a second.
        let cluster = cooperate.then(|| ClusterConfig {
            peer_fanout: 1,
            replicate_hot: 1,
            peer_timeout_ms: 1_000,
            ..ClusterConfig::default()
        });
        let cfg = SimConfig {
            num_clients: 8,
            num_edges: 2,
            cluster,
            ..SimConfig::default()
        };
        let report = run(&trace, &cfg);
        println!(
            "cooperation {}: local hits {:>2}, peer hits {:>2}, cloud trips {:>2} \
             → mean {:>6.1} ms, WAN {:>5.1} MB",
            if cooperate { "ON " } else { "OFF" },
            report.edge_hits,
            report.peer_hits,
            report.cloud_trips,
            report.mean_latency_ms(),
            report.wan_bytes as f64 / 1e6,
        );
    }

    // --- Part 2: a lone viewer cooperates with their own future -----------
    println!("\nlone VR viewer, 30 frames, edge prefetching:\n");
    let vr: Vec<Request> = VrVideo {
        population: Population::colocated(1, ZoneId(0)),
        frame_interval_ns: 100_000_000,
        max_start_skew_frames: 0,
        user_stagger_ns: 0,
        frames_per_user: 30,
    }
    .generate(7);
    for depth in [0u32, 2] {
        let cfg = SimConfig {
            prefetch_depth: depth,
            ..SimConfig::default()
        };
        let report = run(&vr, &cfg);
        println!(
            "prefetch depth {depth}: hit ratio {:>5.1}%, mean frame latency {:>6.1} ms",
            report.hit_ratio() * 100.0,
            report.mean_latency_ms(),
        );
    }

    // --- Part 3: sanity anchor — a truly cold, solo, one-shot workload ----
    let solo = vec![Request {
        user: UserId(0),
        zone: ZoneId(0),
        at_ns: 0,
        kind: RequestKind::RenderLoad {
            model_id: 99,
            size_bytes: 2_000_000,
        },
    }];
    let report = run(&solo, &SimConfig::default());
    println!(
        "\n(for scale: a single cold 2 MB model load costs {:.1} ms)",
        report.mean_latency_ms()
    );
}
