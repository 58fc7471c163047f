//! Typed builders for the two executors.
//!
//! [`SimConfig`](crate::simrun::SimConfig) and
//! [`NetConfig`](crate::netrun::NetConfig) describe the same experiment to
//! two different executors — virtual-time simulation and real sockets.
//! [`NetConfig::builder`](crate::netrun::NetConfig::builder) and
//! [`SimConfig::builder`](crate::simrun::SimConfig::builder) chain setters
//! over each one's defaults.
//!
//! The builders are the supported construction path. The bare structs keep
//! `Default` + public fields so existing struct-literal call sites compile
//! for one more release, but new code should not spell out field bags:
//!
//! ```
//! use coic_core::netrun::NetConfig;
//! use coic_core::engine::AdmissionConfig;
//!
//! let net = NetConfig::builder()
//!     .admission(AdmissionConfig::fixed(8))
//!     .build();
//! assert!(net.admission.is_some());
//! ```

use crate::engine::{AdmissionConfig, BrownoutConfig, FaultSchedule, RetryPolicy};
use crate::netrun::NetConfig;
use crate::services::{ClientConfig, EdgeConfig};
use crate::simrun::SimConfig;
use coic_obs::Telemetry;
use std::time::Duration;

/// Generate chained `fn name(mut self, value) -> Self` setters that assign
/// straight into `self.cfg.<field>`.
macro_rules! setters {
    ($($(#[$doc:meta])* $name:ident : $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )*
    };
}

/// Typed builder for [`NetConfig`]. Obtain via [`NetConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct NetConfigBuilder {
    cfg: NetConfig,
}

impl NetConfigBuilder {
    setters! {
        /// Client-side retry/backoff policy per request.
        retry: RetryPolicy,
        /// How long a client waits for any single reply frame.
        request_deadline: Duration,
        /// Bound on TCP connection establishment.
        connect_timeout: Duration,
        /// While degraded, how often the client probes the edge to rejoin.
        probe_interval: Duration,
        /// Deadline on the edge's own upstream calls (cloud, peers).
        edge_call_deadline: Duration,
        /// Consecutive cloud-leg failures that trip the edge's breaker.
        breaker_threshold: u32,
        /// How long the tripped breaker rejects before probing the cloud.
        breaker_cooldown: Duration,
        /// Deterministic fault injection at the client's IO boundary.
        faults: FaultSchedule,
        /// Observability handle shared by everything under this config.
        telemetry: Telemetry,
    }

    /// Enable edge admission control.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.cfg.admission = Some(admission);
        self
    }

    /// Enable the brownout ladder (meaningful with admission control).
    #[must_use]
    pub fn brownout(mut self, brownout: BrownoutConfig) -> Self {
        self.cfg.brownout = Some(brownout);
        self
    }

    /// Finish the build.
    pub fn build(self) -> NetConfig {
        self.cfg
    }
}

/// Typed builder for [`SimConfig`]. Obtain via [`SimConfig::builder`].
#[derive(Clone, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    setters! {
        /// Origin baseline or CoIC.
        mode: crate::simrun::Mode,
        /// Where recognition inference runs on misses.
        exec_tier: crate::simrun::ExecTier,
        /// Client↔edge bandwidth, Mbit/s.
        access_mbps: f64,
        /// Edge↔cloud bandwidth, Mbit/s.
        wan_mbps: f64,
        /// Number of client devices.
        num_clients: u32,
        /// Number of edge servers.
        num_edges: u32,
        /// Deterministic edge-kill schedule.
        edge_down_ms: Vec<(u64, u32)>,
        /// Per-message loss probability on the access links.
        access_loss: f64,
        /// Per-message loss probability on the WAN link.
        wan_loss: f64,
        /// Client request timeout, ms (zero disables).
        request_timeout_ms: u64,
        /// Client retry/backoff policy fed to the shared engine.
        retry: RetryPolicy,
        /// When the edge path is exhausted, degrade to the origin path.
        origin_fallback: bool,
        /// Deterministic fault injection at the client's send boundary.
        faults: FaultSchedule,
        /// Token-bucket shaping of each client's uplink.
        client_shaper: Option<(f64, u64)>,
        /// Time-varying access bandwidth steps.
        access_schedule: Vec<(u64, f64)>,
        /// Edge prefetch depth for sequential panorama streams.
        prefetch_depth: u32,
        /// Edge cache configuration.
        edge: EdgeConfig,
        /// Client preprocessing configuration.
        client: ClientConfig,
        /// Compute cost model.
        compute: crate::compute::ComputeConfig,
        /// Panorama frame height.
        pano_height: u32,
        /// Closed-loop clients (at most one outstanding request each).
        closed_loop: bool,
        /// RNG seed.
        seed: u64,
    }

    /// Enable the cooperative cluster tier.
    #[must_use]
    pub fn cluster(mut self, cluster: crate::cluster::ClusterConfig) -> Self {
        self.cfg.cluster = Some(cluster);
        self
    }

    /// Enable edge admission control.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.cfg.admission = Some(admission);
        self
    }

    /// Enable the brownout ladder (meaningful with admission control).
    #[must_use]
    pub fn brownout(mut self, brownout: BrownoutConfig) -> Self {
        self.cfg.brownout = Some(brownout);
        self
    }

    /// Finish the build.
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_struct_defaults() {
        let built = NetConfig::builder().build();
        let literal = NetConfig::default();
        assert_eq!(built.request_deadline, literal.request_deadline);
    }
}
