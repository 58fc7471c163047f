//! Online threshold adaptation via shadow verification.
//!
//! The similarity threshold is CoIC's riskiest constant: too tight wastes
//! hits, too loose serves wrong labels — and the right value drifts with
//! the scene (lighting, object mix, viewpoint spread). This module closes
//! the loop: a deterministic sample of cache *hits* is also sent to the
//! cloud ("shadow verification" — the user already has their answer, so
//! the check costs bandwidth but no latency), the measured hit accuracy is
//! compared against a target, and the threshold is nudged multiplicatively
//! (AIMD-style: gentle widening, sharp tightening).

use serde::{Deserialize, Serialize};

/// Controller configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Fraction of hits to shadow-verify (deterministic stride sampling).
    pub shadow_rate: f64,
    /// Hit-accuracy target the controller defends.
    pub target_accuracy: f64,
    /// Verifications per adjustment window.
    pub window: usize,
    /// Multiplicative widening when accuracy is comfortably above target.
    pub widen: f32,
    /// Multiplicative tightening when accuracy falls below target.
    pub tighten: f32,
    /// Threshold bounds.
    pub min_threshold: f32,
    /// Upper threshold bound.
    pub max_threshold: f32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            shadow_rate: 0.2,
            target_accuracy: 0.95,
            window: 20,
            widen: 1.06,
            tighten: 0.85,
            min_threshold: 0.05,
            max_threshold: 1.5,
        }
    }
}

/// The threshold controller. Owns no cache — callers ask
/// [`AdaptiveThreshold::should_shadow`] on each hit, report outcomes with
/// [`AdaptiveThreshold::record`], and read the current threshold back.
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    cfg: AdaptiveConfig,
    threshold: f32,
    /// Stride-sampling accumulator (deterministic, evenly spaced).
    acc: f64,
    /// Verification outcomes in the current window.
    correct: u32,
    seen: u32,
    /// Totals for reporting.
    total_verified: u64,
    total_correct: u64,
    adjustments: u64,
}

impl AdaptiveThreshold {
    /// Create a controller starting from `initial_threshold`.
    ///
    /// # Panics
    /// Panics on nonsensical configuration.
    pub fn new(initial_threshold: f32, cfg: AdaptiveConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.shadow_rate),
            "shadow rate must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.target_accuracy),
            "target accuracy must be in [0,1]"
        );
        assert!(cfg.window > 0, "window must be positive");
        assert!(
            cfg.min_threshold > 0.0 && cfg.max_threshold > cfg.min_threshold,
            "threshold bounds must be ordered and positive"
        );
        assert!(
            cfg.tighten < 1.0 && cfg.widen > 1.0,
            "tighten must shrink and widen must grow"
        );
        AdaptiveThreshold {
            cfg,
            threshold: initial_threshold.clamp(cfg.min_threshold, cfg.max_threshold),
            acc: 0.0,
            correct: 0,
            seen: 0,
            total_verified: 0,
            total_correct: 0,
            adjustments: 0,
        }
    }

    /// The threshold the cache should currently use.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Should this hit be shadow-verified? Deterministic stride sampling:
    /// exactly `shadow_rate` of calls return true, evenly spaced.
    pub fn should_shadow(&mut self) -> bool {
        self.acc += self.cfg.shadow_rate;
        if self.acc >= 1.0 {
            self.acc -= 1.0;
            true
        } else {
            false
        }
    }

    /// Report one verification outcome (`true` = cached label matched the
    /// cloud's). Returns the new threshold if this outcome closed a window
    /// and triggered an adjustment.
    pub fn record(&mut self, correct: bool) -> Option<f32> {
        self.seen += 1;
        self.total_verified += 1;
        if correct {
            self.correct += 1;
            self.total_correct += 1;
        }
        if (self.seen as usize) < self.cfg.window {
            return None;
        }
        let accuracy = self.correct as f64 / self.seen as f64;
        self.seen = 0;
        self.correct = 0;
        self.adjustments += 1;
        let old = self.threshold;
        if accuracy < self.cfg.target_accuracy {
            self.threshold = (self.threshold * self.cfg.tighten)
                .clamp(self.cfg.min_threshold, self.cfg.max_threshold);
        } else if accuracy > self.cfg.target_accuracy + 0.02 {
            self.threshold = (self.threshold * self.cfg.widen)
                .clamp(self.cfg.min_threshold, self.cfg.max_threshold);
        }
        (self.threshold != old).then_some(self.threshold)
    }

    /// Lifetime verification accuracy.
    pub fn measured_accuracy(&self) -> f64 {
        if self.total_verified == 0 {
            return 1.0;
        }
        self.total_correct as f64 / self.total_verified as f64
    }

    /// Total verifications performed.
    pub fn verified(&self) -> u64 {
        self.total_verified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig::default()
    }

    #[test]
    fn stride_sampling_hits_the_rate_exactly() {
        let mut a = AdaptiveThreshold::new(
            0.5,
            AdaptiveConfig {
                shadow_rate: 0.25,
                ..cfg()
            },
        );
        let sampled = (0..1000).filter(|_| a.should_shadow()).count();
        assert_eq!(sampled, 250);
        // And the samples are evenly spaced: every 4th call.
        let mut b = AdaptiveThreshold::new(
            0.5,
            AdaptiveConfig {
                shadow_rate: 0.25,
                ..cfg()
            },
        );
        let pattern: Vec<bool> = (0..8).map(|_| b.should_shadow()).collect();
        assert_eq!(pattern.iter().filter(|&&x| x).count(), 2);
    }

    #[test]
    fn zero_rate_never_samples() {
        let mut a = AdaptiveThreshold::new(
            0.5,
            AdaptiveConfig {
                shadow_rate: 0.0,
                ..cfg()
            },
        );
        assert!((0..100).all(|_| !a.should_shadow()));
    }

    #[test]
    fn low_accuracy_tightens() {
        let mut a = AdaptiveThreshold::new(0.8, cfg());
        // A full window of wrong answers.
        let mut changed = None;
        for _ in 0..20 {
            changed = a.record(false).or(changed);
        }
        let new = changed.expect("window must trigger adjustment");
        assert!(new < 0.8);
        assert_eq!(a.adjustments, 1);
    }

    #[test]
    fn high_accuracy_widens() {
        let mut a = AdaptiveThreshold::new(0.3, cfg());
        for _ in 0..20 {
            a.record(true);
        }
        assert!(a.threshold() > 0.3);
    }

    #[test]
    fn accuracy_near_target_holds_steady() {
        // 19/20 correct = 0.95 exactly: inside the dead band.
        let mut a = AdaptiveThreshold::new(0.4, cfg());
        for i in 0..20 {
            a.record(i != 0);
        }
        assert_eq!(a.threshold(), 0.4);
    }

    #[test]
    fn threshold_respects_bounds() {
        let mut a = AdaptiveThreshold::new(0.1, cfg());
        for _ in 0..40 {
            for _ in 0..20 {
                a.record(false);
            }
        }
        assert!(a.threshold() >= 0.05);
        let mut b = AdaptiveThreshold::new(1.4, cfg());
        for _ in 0..40 {
            for _ in 0..20 {
                b.record(true);
            }
        }
        assert!(b.threshold() <= 1.5);
    }

    #[test]
    fn measured_accuracy_tracks_reports() {
        let mut a = AdaptiveThreshold::new(0.5, cfg());
        for i in 0..10 {
            a.record(i % 2 == 0);
        }
        assert!((a.measured_accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(a.verified(), 10);
    }

    #[test]
    #[should_panic(expected = "shadow rate")]
    fn bad_rate_rejected() {
        let _ = AdaptiveThreshold::new(
            0.5,
            AdaptiveConfig {
                shadow_rate: 2.0,
                ..cfg()
            },
        );
    }
}
