//! Per-tier compute cost configuration for the three task families.
//!
//! All costs are virtual nanoseconds derived from MAC counts and per-tier
//! throughput ([`coic_vision::ComputeProfile`]) or byte counts and per-tier
//! load rates ([`coic_render::LoadCostModel`]). Only the *ratios* between
//! tiers shape the experiment results; absolute values are calibrated to
//! 2018-era hardware classes matching the paper's testbed.

use coic_render::LoadCostModel;
use coic_vision::{ComputeProfile, FULL_DNN_MACS};
use serde::{Deserialize, Serialize};

/// Compute cost knobs for an experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ComputeConfig {
    /// Client device profile.
    pub mobile: ComputeProfile,
    /// Edge server profile.
    pub edge: ComputeProfile,
    /// Cloud server profile.
    pub cloud: ComputeProfile,
    /// MACs of the on-device descriptor extraction (the paper's client
    /// "pre-processes the request to generate ... a feature descriptor" —
    /// a small front slice of the recognition network).
    pub descriptor_macs: u64,
    /// MACs of the full recognition DNN the cloud runs.
    pub full_dnn_macs: u64,
    /// Edge cache lookup time (hash/NN probe plus queueing), ns.
    pub lookup_ns: u64,
    /// Cloud-side model load cost model (storage read + parse + stage).
    pub load_cloud: LoadCostModel,
    /// Edge-side staging cost when serving a cached, already-parsed model.
    pub load_edge: LoadCostModel,
    /// Cloud time to produce one panoramic frame, ns.
    pub pano_render_ns: u64,
}

impl Default for ComputeConfig {
    fn default() -> Self {
        ComputeConfig {
            mobile: ComputeProfile::MOBILE,
            edge: ComputeProfile::EDGE,
            cloud: ComputeProfile::CLOUD,
            descriptor_macs: 100_000_000, // ~22 ms on the mobile tier
            full_dnn_macs: FULL_DNN_MACS,
            lookup_ns: 1_000_000, // 1 ms
            load_cloud: LoadCostModel::CLOUD,
            load_edge: LoadCostModel::EDGE,
            pano_render_ns: 8_000_000, // 8 ms/frame on a server GPU
        }
    }
}

impl ComputeConfig {
    /// Client-side descriptor extraction time.
    pub fn descriptor_ns(&self) -> u64 {
        self.mobile.time_ns(self.descriptor_macs)
    }

    /// Cloud-side full DNN inference time.
    pub fn cloud_infer_ns(&self) -> u64 {
        self.cloud.time_ns(self.full_dnn_macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offloading_is_worthwhile() {
        let c = ComputeConfig::default();
        // The whole premise: descriptor extraction is much cheaper on the
        // phone than full inference, and cloud inference is much faster
        // than mobile inference.
        let mobile_infer_ns = c.mobile.time_ns(c.full_dnn_macs);
        assert!(c.descriptor_ns() * 4 < mobile_infer_ns);
        assert!(c.cloud_infer_ns() * 10 < mobile_infer_ns);
    }

    #[test]
    fn lookup_is_cheap_relative_to_inference() {
        let c = ComputeConfig::default();
        assert!(c.lookup_ns < c.cloud_infer_ns());
    }
}
