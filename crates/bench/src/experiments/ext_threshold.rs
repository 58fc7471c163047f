//! **Ext A** — hit ratio and recognition accuracy vs similarity threshold.
//!
//! CoIC declares a recognition hit when descriptor distance falls under a
//! threshold. A loose threshold raises the hit ratio (more reuse, lower
//! latency) but risks returning a *wrong* cached label when two different
//! objects land close in feature space. The paper fixes one threshold;
//! this ablation exposes the tradeoff.

use crate::{base_config, fig2a_trace, linear_cache, serve, World};
use coic_core::simrun::run;
use coic_vision::{ConfusionMatrix, ObjectClass, ViewParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub fn print() {
    let trace = fig2a_trace(200, 42);
    println!("Ext A — threshold sweep (200 recognition requests)\n");
    println!(
        "{:>9} | {:>6} {:>9} {:>10} | {:>10}",
        "threshold", "hit%", "accuracy", "mean-lat", "reduction*"
    );
    crate::rule(58);
    let origin = run(
        &trace,
        &coic_core::simrun::SimConfig {
            mode: coic_core::simrun::Mode::Origin,
            ..base_config()
        },
    );
    for threshold in [0.05f32, 0.15, 0.25, 0.35, 0.45, 0.60, 0.80, 1.00, 1.25] {
        let mut cfg = base_config();
        cfg.edge.threshold = threshold;
        let coic = run(&trace, &cfg);
        let red = coic_core::reduction_percent(origin.mean_latency_ms(), coic.mean_latency_ms());
        println!(
            "{:>9.2} | {:>5.1}% {:>8.1}% {:>7.1} ms | {:>9.2}%",
            threshold,
            coic.hit_ratio() * 100.0,
            coic.accuracy.unwrap_or(0.0) * 100.0,
            coic.mean_latency_ms(),
            red
        );
    }
    crate::rule(58);
    println!(
        "* latency reduction vs the origin baseline ({:.1} ms mean)",
        origin.mean_latency_ms()
    );
    println!("\nLoose thresholds trade accuracy for hit ratio; the default (0.45)");
    println!("sits before the accuracy knee.");

    // Where do the wrong hits go? Replay a service-level stream at a loose
    // threshold and chart the confusion structure of *cache hits*.
    let mut rng = StdRng::seed_from_u64(71);
    let world = World::train(8, 0.08, 4.0, &mut rng);
    let cache = linear_cache(64 << 20, 0.9, 32);
    let mut cm = ConfusionMatrix::new();
    for i in 0..400u64 {
        let truth = world.classes[rng.random_range(0..world.classes.len())];
        let v = ViewParams::jittered(&mut rng, 0.08, 4.0);
        let d = world.net.extract(&world.gen.observe(truth, &v, &mut rng));
        let (label, hit) = serve(&cache, &d, i, |d| world.clf.predict(d));
        if hit {
            cm.record(truth, ObjectClass(label));
        }
    }
    println!(
        "\nhit-path confusion at a loose threshold (0.9): accuracy {:.1}%",
        cm.accuracy() * 100.0
    );
    for (t, p, n) in cm.top_confusions(4) {
        println!(
            "  object {:>2} served as object {:>2} on {n} hits",
            t.0, p.0
        );
    }
}
