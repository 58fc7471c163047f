//! **Figure 2b** — "Load latency reduction in rendering tasks."
//!
//! Paper result: "By caching the loaded data in rendering tasks on the
//! edge, CoIC reduces the load latency by **up to 75.86%** for 3D models
//! differed in size."

use crate::{base_config, render_trace};
use coic_core::simrun::compare;

pub fn print() {
    println!("Figure 2b — load latency reduction vs 3D model size");
    println!("(sequential loads over 8 shared models per size, 48 loads)\n");
    println!(
        "{:>10} | {:>12} {:>12} {:>7} | {:>10}",
        "model size", "origin-mean", "coic-mean", "hit%", "reduction"
    );
    crate::rule(62);
    let mut max_red: f64 = 0.0;
    for size_mb in [1u64, 2, 4, 8, 16, 32, 64] {
        let trace = render_trace(1, 8, size_mb * 1_000_000, 48, 7 + size_mb);
        let mut cfg = base_config();
        cfg.num_clients = 1;
        let (origin, coic, red) = compare(&trace, &cfg);
        max_red = max_red.max(red);
        println!(
            "{:>7} MB | {:>9.1} ms {:>9.1} ms {:>6.1}% | {:>9.2}%",
            size_mb,
            origin.mean_latency_ms(),
            coic.mean_latency_ms(),
            coic.hit_ratio() * 100.0,
            red
        );
    }
    crate::rule(62);
    println!("max reduction: {max_red:.2}%   (paper: up to 75.86%)");
}
