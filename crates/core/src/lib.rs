//! # coic-core
//!
//! CoIC — a cooperative edge-caching framework for mobile immersive
//! computing (reproduction of Lai et al., SIGCOMM Posters & Demos 2018).
//!
//! The pipeline (paper Figure 1): the client pre-processes its input into a
//! [`descriptor::FeatureDescriptor`] and queries the edge; the edge looks
//! the descriptor up in its cache (approximately, under a distance
//! threshold, for recognition; exactly, by content hash, for 3D models and
//! panoramas); a hit returns the cached result immediately, a miss forwards
//! the task to the cloud and inserts the result.
//!
//! * [`descriptor`], [`task`], [`protocol`] — the data plane,
//! * [`services`] — client / edge / cloud logic, transport-independent
//!   (one `&self` edge service over the sharded exact cache and the
//!   snapshot descriptor cache, shared by the simulator and live stack),
//! * [`compute`] — per-tier cost models,
//! * [`config`] — the sim/live shared configuration core and the typed
//!   builders for [`simrun::SimConfig`] / [`netrun::NetConfig`],
//! * [`content`] — deterministic model/panorama libraries,
//! * [`engine`] — the sans-IO orchestration core: clock-agnostic state
//!   machines for the client request lifecycle and the edge's upstream
//!   leg, shared by the simulator and the live stack,
//! * [`simrun`] — deterministic discrete-event experiment driver,
//! * [`netrun`] — the same stack over real TCP sockets,
//! * [`qoe`] — latency/hit/accuracy reporting,
//! * [`telemetry`] — Decision→trace glue onto the shared `coic-obs`
//!   recorder (spans, events, metrics registry),
//! * [`adaptive`] — online threshold tuning via shadow verification,
//! * [`cluster`] — cooperative multi-edge tier: consistent-hash
//!   partitioning, bounded peer fan-out, hot-entry replication, and
//!   peer-before-cloud failover,
//! * [`layercache`] — §4 extension: per-DNN-layer reuse,
//! * [`privacy`] — §4 extension: descriptor privacy transforms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cluster;
pub mod compute;
pub mod config;
pub mod content;
pub mod descriptor;
pub mod engine;
pub mod layercache;
pub mod netrun;
pub mod privacy;
pub mod protocol;
pub mod qoe;
pub mod services;
pub mod simrun;
pub mod task;
pub mod telemetry;

pub use adaptive::{AdaptiveConfig, AdaptiveThreshold};
pub use cluster::{ClusterConfig, ClusterSnapshot, ClusterState, ClusterStats, HashRing};
pub use compute::ComputeConfig;
pub use config::{CommonConfig, NetConfigBuilder, SimConfigBuilder};
pub use content::{ModelLibrary, PanoLibrary, PanoSource};
pub use descriptor::FeatureDescriptor;
pub use engine::{
    AdmissionConfig, AdmissionController, BreakerState, BrownoutConfig, BrownoutState,
    CircuitBreaker, ClientEngine, Clock, Decision, Effect, EngineConfig, FaultSchedule,
    OverloadControl, ReplyKind, RetryPolicy, RobustnessSnapshot, RobustnessStats, SimClock,
    TimerKind, UpstreamGate, WallClock,
};
pub use layercache::{LayerCache, LayerOutcome};
pub use protocol::{Msg, ProtoError};
pub use qoe::{reduction_percent, Path, QoeReport, Record};
pub use services::{
    ClientConfig, ClientLogic, CloudService, EdgeConfig, EdgeReply, EdgeService, PreparedRequest,
};
pub use simrun::{compare, run, run_instrumented, run_traced, Mode, SimConfig};
pub use task::{Held, RecognitionResult, TaskRequest, TaskResult, ANNOTATION_BYTES};
pub use telemetry::{path_label, record_decision};
