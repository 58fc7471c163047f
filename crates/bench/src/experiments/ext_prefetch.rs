//! **Ext I** — sequential prefetching for VR panorama streams.
//!
//! VR video frames arrive in playhead order, so the edge can fetch ahead:
//! serving frame `f` triggers background fetches of `f+1..=f+depth`. For a
//! *lone* viewer this manufactures the redundancy that co-located viewers
//! get for free — the "cooperation" is with the viewer's own future.

use coic_core::simrun::{run, SimConfig};
use coic_workload::{Population, VrVideo, ZoneId};

pub fn print() {
    println!("Ext I — panorama prefetching (lone viewer, 40 frames @10 fps)\n");
    let trace = VrVideo {
        population: Population::colocated(1, ZoneId(0)),
        frame_interval_ns: 100_000_000,
        max_start_skew_frames: 0,
        user_stagger_ns: 0,
        frames_per_user: 40,
    }
    .generate(3);

    println!(
        "{:>6} | {:>6} | {:>10} {:>9} | {:>8}",
        "depth", "hit%", "mean-lat", "p99-lat", "WAN MB"
    );
    crate::rule(52);
    let mut base_mean = 0.0;
    for depth in [0u32, 1, 2, 4, 8] {
        let cfg = SimConfig {
            prefetch_depth: depth,
            ..SimConfig::default()
        };
        let mut report = run(&trace, &cfg);
        if depth == 0 {
            base_mean = report.mean_latency_ms();
        }
        println!(
            "{:>6} | {:>5.1}% | {:>7.1} ms {:>6.1} ms | {:>7.2}",
            depth,
            report.hit_ratio() * 100.0,
            report.mean_latency_ms(),
            report.latency_ms.p99(),
            report.wan_bytes as f64 / 1e6,
        );
    }
    crate::rule(52);
    println!("baseline (depth 0) mean: {base_mean:.1} ms");
    println!("\nDepth 1 already converts almost every fetch into a hit once the");
    println!("pipeline fills. Deeper prefetch adds WAN traffic and — because the");
    println!("burst of speculative fetches competes with the demand fetch on the");
    println!("same uplink — actually *worsens* tail latency at this frame rate:");
    println!("prefetch depth should match the playhead rate, not exceed it.");
}
