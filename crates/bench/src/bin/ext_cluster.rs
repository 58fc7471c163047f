//! **Ext Q** — cooperative cluster tier: edges × fan-out sweep.
//!
//! Ext G's broadcast peer lookup asks *every* peer on every miss; the
//! cluster tier (DESIGN.md §15) partitions the digest space over a
//! consistent-hash ring and probes at most K peers in ring order from the
//! owner, with demand-driven hot replication. This experiment replays a
//! skewed arena workload (shared global catalogue, one zone per edge)
//! through isolated edges (fan-out 0) and cluster configurations, and
//! contrasts pure partitioning with hot replication.
//!
//! Run with: `cargo run --release -p coic-bench --bin ext_cluster`

use coic_core::cluster::ClusterConfig;
use coic_core::simrun::{run, SimConfig};
use coic_workload::{ArenaMultiplayer, Population, Request};

fn trace(edges: u32, seed: u64) -> Vec<Request> {
    // Two players per zone; zones map one-to-one onto edges. The 2 MB
    // models are globally popular (Zipf 1.1 over one shared catalogue),
    // so isolated edges each pay their own cloud fetch for the same head.
    let models: Vec<(u64, u64)> = (0..24).map(|i| (i, 2 * 1024 * 1024)).collect();
    ArenaMultiplayer {
        population: Population::round_robin(2 * edges, edges),
        models,
        zipf_s: 1.1,
        rate_per_sec: 20.0,
        total_requests: 600,
    }
    .generate(seed)
}

fn cluster(fanout: u32, replicate: u32) -> Option<ClusterConfig> {
    (fanout > 0).then(|| ClusterConfig {
        peer_fanout: fanout,
        replicate_hot: replicate,
        ..ClusterConfig::default()
    })
}

/// One table row. Rows clone `base`, so all twelve serve one generation of
/// the 24 models (SimConfig::content).
fn row(base: &SimConfig, edges: u32, label: &str, t: &[Request], cfg: Option<ClusterConfig>) {
    let mut report = run(
        t,
        &SimConfig {
            num_clients: 2 * edges,
            num_edges: edges,
            cluster: cfg,
            seed: 5,
            ..base.clone()
        },
    );
    println!(
        "{:>6} {:>9} | {:>6.1}% {:>6} {:>6} | {:>8.1} ms {:>8.1} ms | {:>7.1}",
        edges,
        label,
        report.hit_ratio() * 100.0,
        report.edge_hits,
        report.peer_hits,
        report.mean_latency_ms(),
        report.latency_ms.p99(),
        report.wan_bytes as f64 / 1e6,
    );
}

fn main() {
    println!("Ext Q — cluster tier on the skewed arena workload (seed 5)\n");
    println!(
        "{:>6} {:>9} | {:>7} {:>6} {:>6} | {:>11} {:>11} | {:>7}",
        "edges", "config", "hits%", "local", "peer", "mean-lat", "p99-lat", "WAN MB"
    );
    coic_bench::rule(74);
    let base = SimConfig::default();
    for edges in [4u32, 8, 16] {
        let t = trace(edges, 5);
        row(&base, edges, "isolated", &t, cluster(0, 2));
        row(&base, edges, "k=1 r=2", &t, cluster(1, 2));
        row(&base, edges, "k=3 r=2", &t, cluster(3, 2));
        row(&base, edges, "k=1 r=0", &t, cluster(1, 0));
    }
    coic_bench::rule(74);
    println!("Isolated edges decay with scale (each re-fetches the shared head from");
    println!("the cloud); the cluster holds a near-constant hit rate and WAN bill.");
    println!("On a healthy ring fan-out 1 already suffices — placement puts every");
    println!("fetch at the digest's owner — while replication (r>0) converts repeat");
    println!("peer round trips into local hits where the demand lands.");
}
