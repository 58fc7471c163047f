//! **Ext C** — the co-location (cooperation) ablation.
//!
//! The paper's core claim is that redundancy comes from *co-located users*.
//! This experiment sweeps (a) how many users share one edge and (b) how
//! much their content pools overlap, and shows both drive the hit ratio
//! and hence the latency reduction.

use crate::base_config;
use coic_core::simrun::compare;
use coic_workload::{Population, SafeDrivingAr, ZoneId, ZoneModel};

fn trace(users: u32, shared: f64, per_user: usize, seed: u64) -> Vec<coic_workload::Request> {
    SafeDrivingAr {
        population: Population::colocated(users, ZoneId(0)),
        zones: ZoneModel::new(1, 60, shared, 5),
        rate_per_sec: 4.0,
        zipf_s: 0.7,
        total_requests: users as usize * per_user,
    }
    .generate(seed)
}

pub fn print() {
    println!("Ext C — sharing ablation (recognition workload)\n");

    println!("users sharing one edge (60-landmark pool, 30 requests/user):");
    println!("{:>7} | {:>6} | {:>10}", "users", "hit%", "reduction");
    crate::rule(31);
    for users in [1u32, 2, 4, 8, 16] {
        let t = trace(users, 1.0, 30, 31);
        let mut cfg = base_config();
        cfg.num_clients = users;
        let (_, coic, red) = compare(&t, &cfg);
        println!(
            "{:>7} | {:>5.1}% | {:>9.2}%",
            users,
            coic.hit_ratio() * 100.0,
            red
        );
    }

    println!("\ncontent overlap between users (8 users, distinct zones per user,");
    println!("overlap = fraction of each user's pool that is shared):");
    println!("{:>8} | {:>6} | {:>10}", "overlap", "hit%", "reduction");
    crate::rule(32);
    for overlap in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        // Each user draws from its own zone pool; pools overlap by `overlap`.
        let t = SafeDrivingAr {
            population: Population::round_robin(8, 8),
            zones: ZoneModel::new(8, 60, overlap, 5),
            rate_per_sec: 4.0,
            zipf_s: 0.7,
            total_requests: 240,
        }
        .generate(33);
        let mut cfg = base_config();
        cfg.num_clients = 8;
        let (_, coic, red) = compare(&t, &cfg);
        println!(
            "{:>8.2} | {:>5.1}% | {:>9.2}%",
            overlap,
            coic.hit_ratio() * 100.0,
            red
        );
    }
    println!("\nBoth axes confirm the paper's premise: the benefit is cooperative —");
    println!("it grows with users per edge and with how much content they share.");
}
