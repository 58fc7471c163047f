//! **Ext M** — online threshold adaptation via shadow verification.
//!
//! A fixed similarity threshold is tuned for one scene; deploy the edge
//! somewhere harder and cached labels silently go wrong. Here the edge
//! shadow-verifies 20% of its hits against the cloud and AIMD-adjusts the
//! threshold toward a 95% hit-accuracy target. The run starts with a
//! recklessly loose threshold (0.90) on a *hard* scene (24 similar
//! objects, wide viewpoint jitter), then mid-stream the scene gets even
//! harder — the controller re-tightens on its own.

use crate::{linear_cache, serve, World};
use coic_core::adaptive::{AdaptiveConfig, AdaptiveThreshold};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Phase {
    label: &'static str,
    requests: usize,
    angle_spread: f64,
    noise: f64,
}

pub fn print() {
    let mut rng = StdRng::seed_from_u64(47);
    let world = World::train(24, 0.10, 5.0, &mut rng);

    let phases = [
        Phase {
            label: "moderate scene",
            requests: 400,
            angle_spread: 0.10,
            noise: 5.0,
        },
        Phase {
            label: "harder scene",
            requests: 400,
            angle_spread: 0.30,
            noise: 12.0,
        },
    ];

    for fixed in [true, false] {
        let cache = linear_cache(256 << 20, 0.90, 32);
        let mut ctl = AdaptiveThreshold::new(
            0.90,
            AdaptiveConfig {
                shadow_rate: 0.3,
                window: 10,
                tighten: 0.8,
                ..AdaptiveConfig::default()
            },
        );
        println!(
            "\n{} threshold (start 0.90{}):",
            if fixed { "FIXED" } else { "ADAPTIVE" },
            if fixed {
                ""
            } else {
                ", target accuracy 95%, 30% shadow rate"
            }
        );
        println!(
            "{:>16} {:>6} | {:>9} {:>6} {:>9}",
            "phase", "reqs", "threshold", "hit%", "accuracy"
        );
        crate::rule(56);
        for phase in &phases {
            let mut correct = 0u64;
            let mut hits = 0u64;
            for i in 0..phase.requests {
                let (truth, img) = world.sight(phase.angle_spread, phase.noise, &mut rng);
                let d = world.net.extract(&img);
                if !fixed {
                    cache.set_threshold(ctl.threshold());
                }
                let (label, hit) = serve(&cache, &d, i as u64, |d| world.clf.predict(d));
                if hit {
                    hits += 1;
                    if !fixed && ctl.should_shadow() {
                        // Shadow verification: the cloud recomputes in the
                        // background; the user already has `label`.
                        let (true_label, _) = world.clf.predict(&d);
                        ctl.record(label == true_label.0);
                    }
                }
                if label == truth.0 {
                    correct += 1;
                }
            }
            println!(
                "{:>16} {:>6} | {:>9.3} {:>5.1}% {:>8.1}%",
                phase.label,
                phase.requests,
                if fixed { 0.90 } else { ctl.threshold() },
                hits as f64 / phase.requests as f64 * 100.0,
                correct as f64 / phase.requests as f64 * 100.0
            );
        }
        if !fixed {
            println!(
                "(controller verified {} hits — ~{:.0}% of them — measured accuracy {:.1}%)",
                ctl.verified(),
                30.0,
                ctl.measured_accuracy() * 100.0
            );
        }
    }
    println!("\nThe fixed loose threshold trades accuracy away invisibly; the");
    println!("adaptive controller pays a 30% shadow-upload overhead to notice,");
    println!("tightens until the accuracy target holds, and re-adapts when the");
    println!("scene shifts under it.");
}
