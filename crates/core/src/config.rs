//! Shared configuration core and typed builders for the two executors.
//!
//! [`SimConfig`](crate::simrun::SimConfig) and
//! [`NetConfig`](crate::netrun::NetConfig) describe the same experiment to
//! two different executors — virtual-time simulation and real sockets —
//! and the determinism proofs only hold when the knobs they share agree.
//! [`CommonConfig`] is that shared core: build it once, apply it to both
//! sides via [`NetConfig::builder`](crate::netrun::NetConfig::builder) /
//! [`SimConfig::builder`](crate::simrun::SimConfig::builder), and the two
//! stacks cannot drift.
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

/// The experiment knobs shared by the simulator and the live stack.
///
/// Everything here has the same meaning on both sides; applying one
/// `CommonConfig` to both builders is what keeps a sim-vs-live comparison
/// apples-to-apples.
#[derive(Debug, Clone)]
pub struct CommonConfig {
    /// Client retry/backoff policy per request.
    pub retry: RetryPolicy,
    /// How long a client waits on any single attempt before retrying
    /// (live: socket read deadline; sim: request timeout).
    pub request_deadline: Duration,
    /// While degraded, how often the client probes the edge to rejoin.
    pub probe_interval: Duration,
    /// Deterministic fault injection at the client send boundary.
    pub faults: FaultSchedule,
    /// Edge admission control (`None` admits everything immediately).
    pub admission: Option<AdmissionConfig>,
    /// Brownout ladder over the admission queue.
    pub brownout: Option<BrownoutConfig>,
    /// Edge cache configuration.
    pub edge: EdgeConfig,
    /// Client preprocessing configuration.
    pub client: ClientConfig,
}

impl Default for CommonConfig {
    fn default() -> CommonConfig {
        CommonConfig::new()
    }
}

impl CommonConfig {
    /// Start from the live stack's defaults (5 s deadline, 100 ms probe).
    pub fn new() -> CommonConfig {
        let net = NetConfig::default();
        CommonConfig {
            retry: net.retry,
            request_deadline: net.request_deadline,
            probe_interval: net.probe_interval,
            faults: net.faults,
            admission: None,
            brownout: None,
            edge: EdgeConfig::default(),
            client: ClientConfig::default(),
        }
    }
}

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
        /// Lock shards per edge cache (clamped to at least 1).
        cache_shards: usize,
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

    /// Apply the sim/live shared core in one shot.
    #[must_use]
    pub fn common(mut self, common: &CommonConfig) -> Self {
        self.cfg.retry = common.retry.clone();
        self.cfg.request_deadline = common.request_deadline;
        self.cfg.probe_interval = common.probe_interval;
        self.cfg.faults = common.faults.clone();
        self.cfg.admission = common.admission.clone();
        self.cfg.brownout = common.brownout.clone();
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
        /// Client↔edge one-way delay, ms.
        access_delay_ms: u64,
        /// Edge↔cloud bandwidth, Mbit/s.
        wan_mbps: f64,
        /// Edge↔cloud one-way delay, ms.
        wan_delay_ms: u64,
        /// Number of client devices.
        num_clients: u32,
        /// Number of edge servers.
        num_edges: u32,
        /// Inter-edge LAN bandwidth, Mbit/s.
        lan_mbps: f64,
        /// Inter-edge LAN one-way delay, ms.
        lan_delay_ms: u64,
        /// Query peer edges on an exact-task miss before the cloud.
        peer_lookup: bool,
        /// Deterministic edge-kill schedule.
        edge_down_ms: Vec<(u64, u32)>,
        /// Per-message loss probability on the access links.
        access_loss: f64,
        /// Per-message loss probability on the WAN link.
        wan_loss: f64,
        /// Client request timeout, ms (zero disables).
        request_timeout_ms: u64,
        /// Retransmissions before a request fails (legacy path).
        max_retries: u32,
        /// When the edge path is exhausted, degrade to the origin path.
        origin_fallback: bool,
        /// While degraded, minimum spacing between edge re-probes, ms.
        probe_interval_ms: u64,
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
        /// Wire size charged for a camera-frame upload.
        image_wire_bytes: u64,
        /// Wire size charged for a recognition descriptor query.
        descriptor_wire_bytes: u64,
        /// Panorama frame height.
        pano_height: u32,
        /// Droptail queue depth per link direction, bytes.
        queue_limit_bytes: u64,
        /// Closed-loop clients (at most one outstanding request each).
        closed_loop: bool,
        /// RNG seed.
        seed: u64,
    }

    /// Client retry/backoff policy fed to the shared engine.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = Some(retry);
        self
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

    /// Apply the sim/live shared core in one shot (durations are
    /// converted to the simulator's millisecond fields).
    #[must_use]
    pub fn common(mut self, common: &CommonConfig) -> Self {
        self.cfg.retry = Some(common.retry.clone());
        self.cfg.request_timeout_ms = common.request_deadline.as_millis() as u64;
        self.cfg.probe_interval_ms = common.probe_interval.as_millis() as u64;
        self.cfg.faults = common.faults.clone();
        self.cfg.admission = common.admission.clone();
        self.cfg.brownout = common.brownout.clone();
        self.cfg.edge = common.edge;
        self.cfg.client = common.client;
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
    fn builders_share_the_common_core_without_drift() {
        let common = CommonConfig {
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(3),
                max_backoff: Duration::from_millis(9),
                jitter_frac: 0.0,
                seed: 11,
            },
            request_deadline: Duration::from_millis(750),
            probe_interval: Duration::from_millis(40),
            faults: FaultSchedule::new().drop_edge_attempt(0, 0),
            admission: Some(AdmissionConfig::fixed(2)),
            brownout: None,
            ..CommonConfig::new()
        };
        let net = NetConfig::builder().common(&common).build();
        let sim = SimConfig::builder().common(&common).build();
        assert_eq!(net.retry.max_attempts, 4);
        assert_eq!(sim.retry.as_ref().map(|r| r.max_attempts), Some(4));
        assert_eq!(
            net.request_deadline.as_millis() as u64,
            sim.request_timeout_ms
        );
        assert_eq!(net.probe_interval.as_millis() as u64, sim.probe_interval_ms);
        assert_eq!(
            net.admission.as_ref().map(|a| a.max_concurrency),
            sim.admission.as_ref().map(|a| a.max_concurrency)
        );
        assert!(net.faults.edge_dropped(0, 0) && sim.faults.edge_dropped(0, 0));
    }

    #[test]
    fn builder_defaults_match_struct_defaults() {
        let built = NetConfig::builder().build();
        let literal = NetConfig::default();
        assert_eq!(built.request_deadline, literal.request_deadline);
        assert_eq!(built.cache_shards, literal.cache_shards);
    }
}
