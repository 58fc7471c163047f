//! **Figure 2a** — "Recognition latency reduction under different network
//! conditions. `B_M->E` and `B_E->C` refer to the available bandwidth
//! between mobile client and edge, edge and cloud, respectively."
//!
//! Paper result: CoIC reduces recognition latency by **up to 52.28%**
//! across conditions, with larger reductions when the edge→cloud segment
//! is slower.

use crate::{base_config, fig2a_trace};
use coic_core::simrun::{compare, SimConfig};

/// The `(B_M->E, B_E->C)` grid in Mbit/s: the paper's WiFi supports up to
/// 400 Mbps and `tc` throttles both segments.
const CONDITIONS: [(f64, f64); 8] = [
    (400.0, 100.0),
    (400.0, 50.0),
    (400.0, 20.0),
    (400.0, 10.0),
    (100.0, 50.0),
    (100.0, 10.0),
    (50.0, 10.0),
    (50.0, 5.0),
];

pub fn print() {
    let trace = fig2a_trace(200, 42);
    println!("Figure 2a — recognition latency reduction vs network condition");
    println!("(200 recognition requests, 4 co-located safe-driving users)\n");
    println!(
        "{:>10} {:>10} | {:>12} {:>12} {:>7} | {:>10}",
        "B_M->E", "B_E->C", "origin-mean", "coic-mean", "hit%", "reduction"
    );
    crate::rule(74);
    let mut max_red: f64 = 0.0;
    for (access_mbps, wan_mbps) in CONDITIONS {
        let cfg = SimConfig {
            access_mbps,
            wan_mbps,
            ..base_config()
        };
        let (origin, coic, red) = compare(&trace, &cfg);
        max_red = max_red.max(red);
        println!(
            "{:>7} Mb {:>7} Mb | {:>9.1} ms {:>9.1} ms {:>6.1}% | {:>9.2}%",
            access_mbps,
            wan_mbps,
            origin.mean_latency_ms(),
            coic.mean_latency_ms(),
            coic.hit_ratio() * 100.0,
            red
        );
    }
    crate::rule(74);
    println!("max reduction: {max_red:.2}%   (paper: up to 52.28%)");
}
