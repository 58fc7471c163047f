//! **Ext L** — where should the DNN run? Caching × execution-tier matrix.
//!
//! The paper composes with "existing offloading approaches and local
//! optimizations"; this experiment charts the whole design square for the
//! recognition workload:
//!
//! * origin/cloud — the paper's baseline (full offload, no cache),
//! * origin/edge  — classic edge computing (DNN on the edge box, no cache),
//! * CoIC/cloud   — the paper's system,
//! * CoIC/edge    — caching *and* edge inference.

use crate::{base_config, fig2a_trace};
use coic_core::simrun::{run, ExecTier, Mode, SimConfig};

pub fn print() {
    let trace = fig2a_trace(200, 42);
    println!("Ext L — caching × execution tier (200 recognition requests)\n");
    println!(
        "{:<14} | {:>10} {:>9} | {:>6} {:>8} | {:>8}",
        "system", "mean-lat", "p99-lat", "hit%", "WAN MB", "accuracy"
    );
    crate::rule(70);
    let systems = [
        ("origin/cloud", Mode::Origin, ExecTier::Cloud),
        ("origin/edge", Mode::Origin, ExecTier::Edge),
        ("CoIC/cloud", Mode::CoIc, ExecTier::Cloud),
        ("CoIC/edge", Mode::CoIc, ExecTier::Edge),
    ];
    for (label, mode, tier) in systems {
        let cfg = SimConfig {
            mode,
            exec_tier: tier,
            ..base_config()
        };
        let mut report = run(&trace, &cfg);
        println!(
            "{:<14} | {:>7.1} ms {:>6.1} ms | {:>5.1}% {:>8.2} | {:>7.1}%",
            label,
            report.mean_latency_ms(),
            report.latency_ms.p99(),
            report.hit_ratio() * 100.0,
            report.wan_bytes as f64 / 1e6,
            report.accuracy.unwrap_or(0.0) * 100.0
        );
    }
    crate::rule(70);
    println!("Edge inference removes the WAN from the miss path; caching removes");
    println!("inference itself from the hit path. They compose: CoIC/edge gets");
    println!("cache-hit latency *and* zero recognition WAN traffic.");
}
