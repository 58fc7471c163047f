//! **Ext G** — multi-edge cooperation, fully simulated.
//!
//! CoIC is a *cooperative* framework: beyond users sharing one edge, edges
//! answer each other's misses over a LAN before going to the cloud (the
//! `PeerQuery`/`PeerReply` protocol). This experiment replays a multi-zone
//! avatar workload through 1–8 simulated edges and compares outcomes with
//! and without the cluster tier. A cooperating edge asks every peer
//! (`peer_fanout = edges - 1`) and keeps every fetch where it landed
//! (`replicate_hot = 1`); its probe deadline is 1 s, because a 4 MB
//! `PeerReply` alone needs ≈ 43 ms on the 1 Gb/s LAN and the 50 ms default
//! would cut it off once it queues.

use coic_core::cluster::ClusterConfig;
use coic_core::simrun::{run, SimConfig};
use coic_workload::{ArenaMultiplayer, Population, Request};

fn trace(edges: u32, seed: u64) -> Vec<Request> {
    // Four players per zone; zones map one-to-one onto edges. Avatars are
    // globally popular, so what one zone misses another often holds.
    let models: Vec<(u64, u64)> = (0..12).map(|i| (i, 4_000_000)).collect();
    ArenaMultiplayer {
        population: Population::round_robin(4 * edges, edges),
        models,
        zipf_s: 0.9,
        rate_per_sec: 0.5,
        total_requests: (40 * edges) as usize,
    }
    .generate(seed)
}

pub fn print() {
    println!("Ext G — cooperative multi-edge lookup (4 MB avatars, simulated)\n");
    println!(
        "{:>6} {:>6} | {:>7} {:>7} {:>7} | {:>10} | {:>8}",
        "edges", "peers?", "local%", "peer%", "cloud%", "mean-lat", "WAN MB"
    );
    crate::rule(70);
    // Rows clone one config, so the 12 avatars are generated once
    // (SimConfig::content).
    let base = SimConfig::default();
    for edges in [1u32, 2, 4, 8] {
        let t = trace(edges, 41);
        for peers in [false, true] {
            if edges == 1 && peers {
                continue; // no peers to ask
            }
            let cluster = peers.then(|| ClusterConfig {
                peer_fanout: edges - 1,
                replicate_hot: 1,
                peer_timeout_ms: 1_000,
                ..ClusterConfig::default()
            });
            let cfg = SimConfig {
                num_clients: 4 * edges,
                num_edges: edges,
                cluster,
                ..base.clone()
            };
            let report = run(&t, &cfg);
            let n = report.completed as f64;
            println!(
                "{:>6} {:>6} | {:>6.1}% {:>6.1}% {:>6.1}% | {:>7.1} ms | {:>7.1}",
                edges,
                if peers { "yes" } else { "no" },
                report.edge_hits as f64 / n * 100.0,
                report.peer_hits as f64 / n * 100.0,
                report.cloud_trips as f64 / n * 100.0,
                report.mean_latency_ms(),
                report.wan_bytes as f64 / 1e6,
            );
        }
    }
    crate::rule(70);
    println!("Peer lookup converts cloud trips into LAN fetches: WAN traffic and");
    println!("mean latency both drop, and the effect grows with the group size.");
}
