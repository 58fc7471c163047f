//! Shared helpers for the figure-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one paper figure or one extension
//! experiment (see DESIGN.md §5 and EXPERIMENTS.md); this crate holds the
//! standard workloads and table formatting they share.

#![forbid(unsafe_code)]

use coic_core::simrun::{Mode, SimConfig};
use coic_core::QoeReport;
use coic_workload::{Population, Request, SafeDrivingAr, VrVideo, ZoneId, ZoneModel};

/// The standard recognition workload behind Fig. 2a and several ablations:
/// co-located safe-driving users over a shared landmark pool.
///
/// Calibration: 4 users, 100 landmarks, Zipf(0.5) — moderate redundancy.
/// This puts the simulated hit ratio near 50%, which lands the peak
/// latency reduction in the neighbourhood the paper reports (52.28%);
/// smaller pools / heavier skew push the reduction well past the paper's
/// numbers (see the `ext_sharing` ablation).
pub fn fig2a_trace(requests: usize, seed: u64) -> Vec<Request> {
    SafeDrivingAr {
        population: Population::colocated(4, ZoneId(0)),
        zones: ZoneModel::new(1, 100, 1.0, 3),
        rate_per_sec: 4.0,
        zipf_s: 0.5,
        total_requests: requests,
    }
    .generate(seed)
}

/// A render-load trace where `users` co-located players repeatedly load a
/// palette of `num_models` models of `size_bytes` each.
pub fn render_trace(
    users: u32,
    num_models: u64,
    size_bytes: u64,
    requests: usize,
    seed: u64,
) -> Vec<Request> {
    let models: Vec<(u64, u64)> = (0..num_models).map(|i| (i, size_bytes)).collect();
    coic_workload::ArenaMultiplayer {
        population: Population::colocated(users, ZoneId(0)),
        models,
        zipf_s: 0.9,
        rate_per_sec: 0.5,
        total_requests: requests,
    }
    .generate(seed)
}

/// The synchronized co-watching panorama trace (experiment Ext D).
pub fn vr_trace(viewers: u32, frames: usize, stagger_ms: u64, seed: u64) -> Vec<Request> {
    VrVideo {
        population: Population::colocated(viewers, ZoneId(0)),
        frame_interval_ns: 100_000_000,
        max_start_skew_frames: 0,
        user_stagger_ns: stagger_ms * 1_000_000,
        frames_per_user: frames,
    }
    .generate(seed)
}

/// Run one trace under origin and CoIC with the given network condition.
pub fn run_pair(trace: &[Request], base: &SimConfig) -> (QoeReport, QoeReport, f64) {
    coic_core::simrun::compare(trace, base)
}

/// A network condition labelled like the paper's figure axes.
#[derive(Debug, Clone, Copy)]
pub struct NetCondition {
    /// `B_M->E` in Mbit/s.
    pub access_mbps: f64,
    /// `B_E->C` in Mbit/s.
    pub wan_mbps: f64,
}

impl NetCondition {
    /// Apply this condition to a config.
    pub fn apply(&self, cfg: &SimConfig) -> SimConfig {
        SimConfig {
            access_mbps: self.access_mbps,
            wan_mbps: self.wan_mbps,
            ..cfg.clone()
        }
    }
}

/// The grid of network conditions Fig. 2a sweeps: the paper's WiFi supports
/// up to 400 Mbps and `tc` throttles both segments.
pub const FIG2A_CONDITIONS: [NetCondition; 8] = [
    NetCondition {
        access_mbps: 400.0,
        wan_mbps: 100.0,
    },
    NetCondition {
        access_mbps: 400.0,
        wan_mbps: 50.0,
    },
    NetCondition {
        access_mbps: 400.0,
        wan_mbps: 20.0,
    },
    NetCondition {
        access_mbps: 400.0,
        wan_mbps: 10.0,
    },
    NetCondition {
        access_mbps: 100.0,
        wan_mbps: 50.0,
    },
    NetCondition {
        access_mbps: 100.0,
        wan_mbps: 10.0,
    },
    NetCondition {
        access_mbps: 50.0,
        wan_mbps: 10.0,
    },
    NetCondition {
        access_mbps: 50.0,
        wan_mbps: 5.0,
    },
];

/// Default experiment config: the paper testbed, 4 clients.
pub fn base_config() -> SimConfig {
    SimConfig {
        mode: Mode::CoIc,
        num_clients: 4,
        ..SimConfig::default()
    }
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "─".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_nonempty_and_deterministic() {
        assert_eq!(fig2a_trace(50, 1), fig2a_trace(50, 1));
        assert_eq!(fig2a_trace(50, 1).len(), 50);
        assert_eq!(render_trace(4, 4, 100_000, 32, 2).len(), 32);
        assert_eq!(vr_trace(4, 10, 25, 3).len(), 40);
    }

    #[test]
    fn conditions_cover_the_grid() {
        assert!(FIG2A_CONDITIONS.iter().any(|c| c.wan_mbps <= 10.0));
        assert!(FIG2A_CONDITIONS.iter().any(|c| c.access_mbps >= 400.0));
    }
}
