//! # coic-cache
//!
//! The edge result cache at the heart of CoIC:
//!
//! * [`digest`] — content digests (from-scratch SHA-256) keying models and
//!   panoramas,
//! * [`store`] — size-aware bounded store with TTL,
//! * [`policy`] — eviction policies (LRU/FIFO/LFU/SLRU/GDSF) for the
//!   cache-management ablation,
//! * [`exact`] — digest-keyed lookup (render/panorama tasks),
//! * [`ann`] — the approximate-nearest-neighbour families behind
//!   descriptor lookup (multi-probe LSH, HNSW, linear scan),
//! * [`snapshot`] — feature-descriptor lookup under a distance threshold
//!   (recognition tasks): the concurrent snapshot/journal cache
//!   (lock-free lookups, deterministic batch rebuilds, a settable
//!   threshold and compaction),
//! * [`sketch`]/[`admission`] — count-min sketch + TinyLFU admission gate,
//! * [`sharded`] — the concurrent exact cache: [`exact`] shards behind
//!   per-shard mutexes (the edge uses one),
//! * [`metrics`] — the unified [`metrics::Metrics`] view (publishes to the
//!   `coic-obs` registry) and the typed [`metrics::Lookup`] outcome.
//!
//! One production stack serves the edge, simulated and live alike:
//! [`ShardedExactCache`] for digests, [`SnapshotApproxCache`] over the
//! [`AnnIndex`] families for descriptors. The `ext_*` experiments that
//! tune the threshold or compact the cache run on the same
//! [`SnapshotApproxCache`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod ann;
pub mod digest;
pub mod exact;
pub mod metrics;
pub mod policy;
#[cfg(test)]
mod reference;
pub mod sharded;
pub mod sketch;
pub mod snapshot;
mod stats;
pub mod store;
mod sync;

pub use admission::{TinyLfu, TinyLfuConfig};
pub use ann::{AnnFamily, AnnIndex, ProbeStats};
pub use digest::{fnv1a64, sha256, Digest};
pub use exact::ExactCache;
pub use metrics::{Lookup, Metrics};
pub use policy::{EvictionPolicy, PolicyKind};
pub use sharded::{ShardedExactCache, DEFAULT_SHARDS};
pub use sketch::CountMinSketch;
pub use snapshot::{IndexTelemetry, SnapshotApproxCache, DEFAULT_REBUILD_BATCH};
pub use stats::CacheStats;
pub use store::Store;
