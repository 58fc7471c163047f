//! Model loading cost accounting.
//!
//! Figure 2b measures *load latency*: the time from "renderer needs model X"
//! to "model is in memory, ready to draw". On the paper's testbed that is
//! storage read + parse + staging; CoIC removes it on a hit by caching the
//! model at the edge. [`LoadCostModel`] charges virtual time for each stage;
//! the parsing itself is real work in `coic_core::cmf`, where the CMF
//! container lives.

use serde::{Deserialize, Serialize};

/// Per-tier throughput for the three stages of a model load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadCostModel {
    /// Storage read throughput, bytes/s.
    pub storage_bps: f64,
    /// Parse/validate throughput, bytes/s.
    pub parse_bps: f64,
    /// Staging (upload to renderer memory) throughput, bytes/s.
    pub stage_bps: f64,
    /// Fixed per-load overhead, ns.
    pub overhead_ns: u64,
}

impl LoadCostModel {
    /// Cloud storage node: fast NVMe + server CPU.
    pub const CLOUD: LoadCostModel = LoadCostModel {
        storage_bps: 1.2e9,
        parse_bps: 1.5e9,
        stage_bps: 4.0e9,
        overhead_ns: 1_000_000,
    };

    /// Edge box: SATA-class storage, desktop CPU.
    pub const EDGE: LoadCostModel = LoadCostModel {
        storage_bps: 0.5e9,
        parse_bps: 1.0e9,
        stage_bps: 3.0e9,
        overhead_ns: 500_000,
    };

    /// Mobile device: flash storage, mobile CPU, mobile GPU staging.
    pub const MOBILE: LoadCostModel = LoadCostModel {
        storage_bps: 0.25e9,
        parse_bps: 0.3e9,
        stage_bps: 1.0e9,
        overhead_ns: 3_000_000,
    };

    /// Virtual nanoseconds to read `bytes` from storage.
    pub fn storage_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.storage_bps * 1e9).round() as u64
    }

    /// Virtual nanoseconds to parse `bytes`.
    pub fn parse_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.parse_bps * 1e9).round() as u64
    }

    /// Virtual nanoseconds to stage a parsed model of `bytes`.
    pub fn stage_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.stage_bps * 1e9).round() as u64
    }

    /// Full cold-load time: overhead + read + parse + stage.
    pub fn full_load_ns(&self, bytes: u64) -> u64 {
        self.overhead_ns + self.storage_ns(bytes) + self.parse_ns(bytes) + self.stage_ns(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_load_dominates_warm_load() {
        let bytes = 10_000_000u64; // 10 MB model
        for model in [
            LoadCostModel::CLOUD,
            LoadCostModel::EDGE,
            LoadCostModel::MOBILE,
        ] {
            // A warm load (parsed model cached at the edge) only stages.
            let warm_load_ns = model.overhead_ns + model.stage_ns(bytes);
            assert!(model.full_load_ns(bytes) > 2 * warm_load_ns);
        }
    }

    #[test]
    fn load_time_scales_with_size() {
        let m = LoadCostModel::EDGE;
        let t1 = m.full_load_ns(1_000_000);
        let t10 = m.full_load_ns(10_000_000);
        let var = (t10 - m.overhead_ns) as f64 / (t1 - m.overhead_ns) as f64;
        assert!((9.9..10.1).contains(&var), "scaling factor {var}");
    }

    #[test]
    fn tiers_ordered_by_speed() {
        let bytes = 5_000_000;
        assert!(LoadCostModel::CLOUD.full_load_ns(bytes) < LoadCostModel::EDGE.full_load_ns(bytes));
        assert!(
            LoadCostModel::EDGE.full_load_ns(bytes) < LoadCostModel::MOBILE.full_load_ns(bytes)
        );
    }
}
