//! **Ext B** — eviction-policy ablation under cache pressure.
//!
//! The paper's prototype uses a "simple cache management policy" and names
//! better cache management as ongoing work. This ablation replays a mixed
//! render-load workload through every policy at several cache sizes.

use crate::{base_config, render_trace};
use coic_cache::{PolicyKind, TinyLfuConfig};
use coic_core::simrun::run;

pub fn print() {
    // 24 distinct 4 MB models, Zipf-popular, 160 loads from 8 players:
    // the full set (96 MB as results) does not fit in the smaller caches.
    let trace = render_trace(8, 24, 4_000_000, 160, 21);
    println!("Ext B — eviction policy vs cache size (160 loads, 24 × 4 MB models)\n");
    print!("{:>10} |", "cache");
    for kind in PolicyKind::ALL {
        print!(" {:>8}", kind.to_string());
    }
    print!(" {:>9}", "LRU+TLFU");
    println!();
    crate::rule(70);
    // Every cell replays the same 24 models: one config, cloned per cell,
    // so they are generated once (SimConfig::content).
    let base = base_config();
    for cache_mb in [16u64, 32, 64, 128] {
        print!("{:>7} MB |", cache_mb);
        for kind in PolicyKind::ALL {
            let mut cfg = base.clone();
            cfg.num_clients = 8;
            cfg.edge.policy = kind;
            cfg.edge.exact_cache_bytes = cache_mb * 1024 * 1024;
            let report = run(&trace, &cfg);
            print!(" {:>7.1}%", report.hit_ratio() * 100.0);
        }
        // LRU guarded by a TinyLFU admission filter.
        let mut cfg = base.clone();
        cfg.num_clients = 8;
        cfg.edge.policy = PolicyKind::Lru;
        cfg.edge.exact_cache_bytes = cache_mb * 1024 * 1024;
        cfg.edge.admission = Some(TinyLfuConfig::default());
        let report = run(&trace, &cfg);
        print!(" {:>8.1}%", report.hit_ratio() * 100.0);
        println!();
    }
    crate::rule(70);
    println!("cell values are edge-cache hit ratios");
    println!("\nWith a working set larger than the cache, frequency awareness wins:");
    println!("LFU/SLRU/GDSF beat plain LRU/FIFO, and a TinyLFU admission filter");
    println!("recovers most of that gap for LRU; at large sizes all converge.");
}
