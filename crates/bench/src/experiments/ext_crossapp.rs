//! **Ext O** — cross-application sharing.
//!
//! The paper's insight 1 is explicitly *cross-app*: "two safe-driving
//! applications are likely to recognize the same stop sign ... IC tasks
//! across different applications or users are often executed in similar or
//! even redundant way." This experiment runs two distinct applications —
//! a navigation AR app and a tourism AR app, different users, different
//! request patterns, same streetscape — first through **isolated**
//! per-app edge caches, then through one **shared** CoIC cache.

use coic_core::simrun::{run, SimConfig};
use coic_workload::{Population, Request, SafeDrivingAr, UserId, ZoneId, ZoneModel};

/// Two apps over the same landmark pool, distinguished by user ids and
/// request rates. `zone` controls which edge serves the app when edges are
/// split per app. User ids stay contiguous (0..3 and 3..6) so the
/// user→client round-robin keeps each client single-app.
fn app_trace(zone: u32, user_base: u32, rate: f64, requests: usize, seed: u64) -> Vec<Request> {
    // Same zone-model seed ⇒ the *same* streetscape for both apps.
    let mut t = SafeDrivingAr {
        population: Population::colocated(3, ZoneId(0)),
        zones: ZoneModel::new(1, 60, 1.0, 5),
        rate_per_sec: rate,
        zipf_s: 0.7,
        total_requests: requests,
    }
    .generate(seed);
    for r in &mut t {
        r.user = UserId(r.user.0 + user_base);
        r.zone = ZoneId(zone);
    }
    t
}

fn merge(mut a: Vec<Request>, b: Vec<Request>) -> Vec<Request> {
    a.extend(b);
    a.sort_by_key(|r| r.at_ns);
    a
}

pub fn print() {
    println!("Ext O — cross-application sharing (two AR apps, same streetscape)\n");

    // App zones decide edge assignment: distinct zones = isolated caches
    // (two edges, no peer lookup — recognition caches never cooperate);
    // same zone = one shared CoIC cache.
    let nav_iso = app_trace(0, 0, 4.0, 90, 81);
    let tour_iso = app_trace(1, 3, 2.0, 90, 82);
    let isolated_trace = merge(nav_iso, tour_iso);

    let nav_sh = app_trace(0, 0, 4.0, 90, 81);
    let tour_sh = app_trace(0, 3, 2.0, 90, 82);
    let shared_trace = merge(nav_sh, tour_sh);

    let isolated = run(
        &isolated_trace,
        &SimConfig {
            num_clients: 6,
            num_edges: 2,
            ..SimConfig::default()
        },
    );
    let shared = run(
        &shared_trace,
        &SimConfig {
            num_clients: 6,
            num_edges: 1,
            ..SimConfig::default()
        },
    );

    println!(
        "{:<22} | {:>6} | {:>10} | {:>8} | {:>9}",
        "deployment", "hit%", "mean-lat", "WAN MB", "accuracy"
    );
    crate::rule(68);
    for (label, report) in [
        ("per-app caches", &isolated),
        ("shared CoIC cache", &shared),
    ] {
        println!(
            "{:<22} | {:>5.1}% | {:>7.1} ms | {:>8.2} | {:>8.1}%",
            label,
            report.hit_ratio() * 100.0,
            report.latency_ms.mean(),
            report.wan_bytes as f64 / 1e6,
            report.accuracy.unwrap_or(0.0) * 100.0
        );
    }
    crate::rule(68);
    let gain = (shared.hit_ratio() - isolated.hit_ratio()) * 100.0;
    println!("cross-app sharing adds {gain:+.1} points of hit ratio: the tourism");
    println!("app rides on recognitions the navigation app already paid for,");
    println!("and vice versa — the paper's \"across different applications\" claim.");
}
