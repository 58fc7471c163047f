//! **Ext D** — panoramic VR streaming through the edge cache.
//!
//! The third task family: co-watching viewers fetch the same panoramic
//! frames; CoIC caches frames by content hash (with miss coalescing for
//! simultaneous requests). Sweeps viewer count and playhead
//! synchronization.

use crate::{base_config, vr_trace};
use coic_core::simrun::compare;
use coic_workload::{Population, VrVideo, ZoneId};

pub fn print() {
    println!("Ext D — VR panoramic streaming (512×256 frames, 10 fps cadence)\n");

    println!("synchronized viewers (25 ms device stagger, 20 frames each):");
    println!(
        "{:>8} | {:>6} | {:>11} {:>11} | {:>10}",
        "viewers", "hit%", "origin-mean", "coic-mean", "reduction"
    );
    crate::rule(58);
    for viewers in [1u32, 2, 4, 8, 16] {
        let t = vr_trace(viewers, 20, 25, 9);
        let mut cfg = base_config();
        cfg.num_clients = viewers;
        let (origin, coic, red) = compare(&t, &cfg);
        println!(
            "{:>8} | {:>5.1}% | {:>8.1} ms {:>8.1} ms | {:>9.2}%",
            viewers,
            coic.hit_ratio() * 100.0,
            origin.mean_latency_ms(),
            coic.mean_latency_ms(),
            red
        );
    }

    println!("\nplayhead skew (8 viewers; frames shared only when playheads align):");
    println!("{:>10} | {:>6} | {:>10}", "skew", "hit%", "reduction");
    crate::rule(34);
    for skew_frames in [0u64, 5, 20, 100, 500] {
        let t = VrVideo {
            population: Population::colocated(8, ZoneId(0)),
            frame_interval_ns: 100_000_000,
            max_start_skew_frames: skew_frames,
            user_stagger_ns: 25_000_000,
            frames_per_user: 20,
        }
        .generate(9);
        let mut cfg = base_config();
        cfg.num_clients = 8;
        let (_, coic, red) = compare(&t, &cfg);
        println!(
            "{:>7} fr | {:>5.1}% | {:>9.2}%",
            skew_frames,
            coic.hit_ratio() * 100.0,
            red
        );
    }
    println!("\nSynchronized audiences turn N WAN fetches per frame into one;");
    println!("the benefit decays as playheads drift apart.");
}
